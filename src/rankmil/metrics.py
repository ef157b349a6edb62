"""Ranking metrics and score-covariate correlation.

Conventions, fixed so results are reproducible to the last bit:

* AUC is the Mann-Whitney statistic: over all positive/negative pairs,
  a win counts 1, a tied score counts 1/2, divided by the pair count.
  All partial sums are half-integers, so the accumulation is exact and
  order-independent below 2**53 pairs.
* Average precision steps through distinct score thresholds in
  descending order with tied scores grouped:
  ``sum_k (R_k - R_{k-1}) * P_k``.
* :func:`evaluate` takes both, and the ROC and PR points, from one
  threshold walk, with the bits of :func:`auc` and
  :func:`average_precision`.
* Pearson correlation uses population sums; its two-sided p-value comes
  from the exact Student-t null via the regularized incomplete beta
  function, evaluated by continued fractions.

Covariates load from a keyed table (see :mod:`rankmil.data`) as a
:class:`CovariateTable`: column ``names``, row ``bag_ids`` in file order
and a (rows, columns) float64 ``values`` array, NaN where a cell is
blank. A plain table, unquoted with LF line ends and well-formed rows,
is parsed by numpy's C text reader; quoted fields, CRLF line ends and
malformed rows go through a row reader that parses each cell with
``float``, which gives the same table and every error message.
:func:`correlate_table` joins it to the scores once, correlates
each column over its scored rows, and takes every column's p-value from
one element-wise continued fraction, which gives each element the bits
of a one-element call.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .data import FormatError, keyed_table

_BETA_MAX_ITER = 300
_BETA_TOL = 1e-12
_BETA_TINY = 1e-300
_RHO_DEGENERATE = 1e-12


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. single-class labels)."""


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined for this input (constant vector)."""


def _scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError(
            f"scores and labels must be equal-length vectors, got "
            f"{scores.shape} and {labels.shape}"
        )
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


class _Walk(NamedTuple):
    """Cumulative true and false positives and each tie group's positives
    and negatives, thresholds descending; and the class sizes."""

    tp: np.ndarray
    fp: np.ndarray
    pos_per: np.ndarray
    neg_per: np.ndarray
    n_pos: int
    n_neg: int


def _walk(scores, labels, metric: str, both_classes: bool) -> _Walk:
    """Validate one scored sample set and walk its thresholds. ``metric``
    names what needs both classes (when ``both_classes``) or at least
    one positive in the :class:`UndefinedMetricError`."""
    scores, labels = _scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if both_classes and (n_pos == 0 or n_neg == 0):
        raise UndefinedMetricError(
            f"{metric} needs both classes, got {n_pos} positive and {n_neg} negative"
        )
    if n_pos == 0:
        raise UndefinedMetricError(f"{metric} needs at least one positive")
    values, inverse = np.unique(scores, return_inverse=True)
    pos_per = np.bincount(inverse, weights=labels.astype(np.float64), minlength=values.size)
    neg_per = np.bincount(inverse, minlength=values.size) - pos_per
    # np.unique sorts ascending; flip to descending thresholds.
    pos_per, neg_per = pos_per[::-1], neg_per[::-1]
    return _Walk(np.cumsum(pos_per), np.cumsum(neg_per), pos_per, neg_per, n_pos, n_neg)


def _auc(w: _Walk) -> float:
    neg_above = w.fp - w.neg_per  # negatives strictly above each tie group
    u = float(np.sum(w.pos_per * (neg_above + 0.5 * w.neg_per)))
    # u counts inversions; wins plus half ties = total pairs - u.
    return (w.n_pos * w.n_neg - u) / (w.n_pos * w.n_neg)


def _average_precision(w: _Walk) -> float:
    ap = 0.0
    tp_prev = 0.0
    for tp_k, fp_k in zip(w.tp, w.fp):
        ap += ((tp_k - tp_prev) / w.n_pos) * (tp_k / (tp_k + fp_k))
        tp_prev = tp_k
    return ap


def auc(scores, labels) -> float:
    """Area under the ROC curve with half credit for ties."""
    return _auc(_walk(scores, labels, "AUC", both_classes=True))


def average_precision(scores, labels) -> float:
    """Step-wise average precision over descending thresholds."""
    return _average_precision(_walk(scores, labels, "average precision", both_classes=False))


@dataclass(frozen=True)
class EvalReport:
    """``roc`` holds (FPR, TPR) per descending threshold group, starting
    at (0, 0); ``pr`` holds (recall, precision) per group."""

    auc: float
    average_precision: float
    roc: tuple[tuple[float, float], ...]
    pr: tuple[tuple[float, float], ...]
    n_pos: int
    n_neg: int


def evaluate(scores, labels) -> EvalReport:
    """All ranking metrics for one scored, two-class sample set, from
    one threshold walk."""
    w = _walk(scores, labels, "AUC", both_classes=True)
    return EvalReport(
        auc=_auc(w),
        average_precision=_average_precision(w),
        roc=((0.0, 0.0),) + tuple((f / w.n_neg, t / w.n_pos) for f, t in zip(w.fp, w.tp)),
        pr=tuple((t / w.n_pos, t / (t + f)) for t, f in zip(w.tp, w.fp)),
        n_pos=w.n_pos,
        n_neg=w.n_neg,
    )


def _lentz_guard(v: np.ndarray) -> np.ndarray:
    """Lentz's guard: a value closer to zero than 1e-300 becomes 1e-300."""
    return np.where(np.abs(v) < _BETA_TINY, _BETA_TINY, v)


def _continued_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz),
    element-wise. Each element runs the same operations in the same
    order as a scalar recurrence would and is held fixed once it has
    converged; the first element still unconverged at the iteration
    limit raises."""
    out = np.empty_like(x)
    live = np.arange(x.size)  # where the unconverged elements go in out
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _lentz_guard(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        if not live.size:
            return out
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _lentz_guard(1.0 + aa * d)
        c = _lentz_guard(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _lentz_guard(1.0 + aa * d)
        c = _lentz_guard(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _BETA_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (live, a, b, x, qab, qap, qam, c, d, h)
            )
    if live.size:
        raise FloatingPointError(
            f"incomplete beta continued fraction did not converge within "
            f"{_BETA_MAX_ITER} iterations for a={float(a[0])}, b={float(b[0])}, x={float(x[0])}"
        )
    return out


def _incomplete_beta(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The regularized incomplete beta function I_x(a, b), element-wise
    for float64 arrays with a, b > 0 and x in [0, 1]."""
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = np.flatnonzero((0.0 < x) & (x < 1.0))
    a, b, x = a[inner], b[inner], x[inner]
    # libm's lgamma, log, log1p and exp: numpy's vectorised log and exp
    # need not round the same way.
    front = np.array([
        math.exp(
            math.lgamma(ai + bi)
            - math.lgamma(ai)
            - math.lgamma(bi)
            + ai * math.log(xi)
            + bi * math.log1p(-xi)
        )
        for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist())
    ])
    # Python float arithmetic, which this matches bit for bit, warns of nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        flip = ~(x < (a + 1.0) / (a + b + 2.0))
        p, q = np.where(flip, b, a), np.where(flip, a, b)
        head = front * _continued_fraction(p, q, np.where(flip, 1.0 - x, x)) / p
        out[inner] = np.where(flip, 1.0 - head, head)
    return out


@dataclass(frozen=True)
class Correlation:
    rho: float
    p_value: float
    n: int


def _rho(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's rho of two finite, equal-length vectors, clipped to
    [-1, 1]."""
    n = x.size
    dx = x - np.add.reduce(x) / n  # the bits of x.mean(), with less overhead
    dy = y - np.add.reduce(y) / n
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a constant input")
    rho = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, rho))


def _p_values(rhos: list[float], ns: list[int]) -> list[float]:
    """Two-sided Student-t p-values of correlations ``rhos`` over ``ns``
    samples, with :func:`pearson`'s ``|rho|`` short-cut, all from one
    :func:`_incomplete_beta` call."""
    ps = [0.0] * len(rhos)
    live, shapes, xs = [], [], []
    for i, (rho, n) in enumerate(zip(rhos, ns)):
        if 1.0 - abs(rho) > _RHO_DEGENERATE:
            df = n - 2
            t = rho * math.sqrt(df / (1.0 - rho * rho))
            live.append(i)
            shapes.append(df / 2.0)
            xs.append(df / (df + t * t))
    tails = _incomplete_beta(np.array(shapes), np.full(len(xs), 0.5), np.array(xs))
    for i, p in zip(live, tails.tolist()):
        ps[i] = min(1.0, max(0.0, p))
    return ps


def pearson(x, y) -> Correlation:
    """Pearson correlation with a two-sided Student-t p-value.

    ``|rho|`` within 1e-12 of 1 short-circuits to p = 0 rather than
    dividing by a vanishing ``1 - rho**2``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"inputs must be equal-length vectors, got {x.shape} and {y.shape}")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 samples for a p-value, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs contain non-finite values")
    rho = _rho(x, y)
    return Correlation(rho, _p_values([rho], [n])[0], n)


@dataclass(frozen=True)
class CovariateTable:
    """A covariate table in columnar form; see the module docstring."""

    names: tuple[str, ...]
    bag_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.bag_ids), len(self.names)):
            raise ValueError(f"values has shape {self.values.shape}, expected (bag_ids, names)")


def _bad_cell(path: Path, lineno: int, names: list[str], cells: list[str]) -> FormatError:
    """The error for a row's first cell that is neither blank nor finite."""
    for name, cell in zip(names, cells):
        try:
            problem = "non-finite" if cell and not math.isfinite(float(cell)) else ""
        except ValueError:
            problem = "not numeric"
        if problem:
            return FormatError(f"{path}: line {lineno}: column {name!r} is {problem}: {cell!r}")
    raise AssertionError("row has no bad cell")


def _read_covariate_rows(path: Path) -> CovariateTable:
    """The row reader: any covariate table, one ``csv`` record and one
    ``float`` per cell at a time. It raises every :class:`FormatError`
    that :func:`load_covariates` gives."""
    rows: dict[str, np.ndarray] = {}  # bag_id -> values, in file order
    with keyed_table(path, "covariate table") as (header, records):
        if len(header) < 2 or header[0] != "bag_id":
            raise FormatError(f"{path}: header must be 'bag_id,<name>...', got {','.join(header)!r}")
        names = header[1:]
        if len(set(names)) != len(names):
            raise FormatError(f"{path}: duplicate covariate names in header")
        for lineno, row in records:
            bag_id, cells = row[0], row[1:]
            try:
                rows[bag_id] = np.array([float(c) if c else math.nan for c in cells])
            except ValueError:
                raise _bad_cell(path, lineno, names, cells) from None
            # Only blanks may be NaN: a literal nan or inf, or one that overflows, is an error.
            if np.count_nonzero(np.isfinite(rows[bag_id])) != len(cells) - cells.count(""):
                raise _bad_cell(path, lineno, names, cells)
    values = np.array(list(rows.values())).reshape(len(rows), len(names))
    return CovariateTable(tuple(names), tuple(rows), values)


# What the cells of a plain row, and the commas between them, may hold.
# float() and numpy's text parser read every cell made of these alike; on
# others they can differ (numpy skips the ASCII separators \x1c-\x1f
# around a number, float() rejects them, and float() reads 1_0 and
# non-ASCII digits, numpy does not).
_PLAIN_CELLS = b"0123456789+-.eE,"


def _over_field_limit(line: str, limit: int) -> bool:
    """Whether a field of an unquoted line is longer than ``limit``, the
    ``csv`` module's field limit."""
    return len(line) > limit and max(map(len, line.split(","))) > limit


def _read_plain_covariates(path: Path) -> CovariateTable | None:
    """The fast reader: the table in a plain file, parsed by numpy's C
    text reader, or None when the file is not plain and the row reader
    must decide. A plain file is UTF-8 with no double quote, no carriage
    return and no field over the ``csv`` field limit. Its header is
    ``bag_id`` and unique names; it has at least one data row; and each
    non-blank line has a non-empty, unrepeated ``bag_id`` and the
    header's count of cells, each blank or a finite number made of
    :data:`_PLAIN_CELLS`. For such a file the row reader gives the same
    table, bit for bit. The file is read line by line, so its text is
    never held whole."""
    limit = csv.field_size_limit()
    bag_ids: dict[str, None] = {}  # in file order

    def numeric_lines(lines: Iterator[str]) -> Iterator[str]:
        for line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            bag_id, comma, rest = line.partition(",")
            # A \r can only end a line read with newline="", so it is in
            # rest, or the line has no comma.
            if (
                not comma
                or not bag_id
                or bag_id in bag_ids
                or '"' in bag_id
                or _over_field_limit(line, limit)
                or rest.encode().translate(None, _PLAIN_CELLS)
            ):
                raise ValueError("not a plain line")
            bag_ids[bag_id] = None
            # A blank cell reads as NaN; two passes reach adjacent blanks.
            yield f",{rest},".replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = fh.readline().rstrip("\n")
            names = header.split(",")[1:]
            if (
                not header.startswith("bag_id,")
                or _over_field_limit(header, limit)
                or '"' in header
                or "\r" in header
                or len(set(names)) != len(names)
            ):
                return None
            lines = numeric_lines(fh)
            first = next(lines, None)
            if first is None:  # loadtxt warns on empty input
                return None
            values = np.loadtxt(
                itertools.chain((first,), lines),
                delimiter=",", comments=None, dtype=np.float64, ndmin=2,
            )
    except ValueError:  # a line above, loadtxt's parse, or UnicodeDecodeError
        return None
    if values.shape != (len(bag_ids), len(names)) or np.isinf(values).any():
        return None
    return CovariateTable(tuple(names), tuple(bag_ids), values)


def load_covariates(path: str | Path) -> CovariateTable:
    """Load a covariate table, a keyed table (see :mod:`rankmil.data`):
    header ``bag_id,<name>...``, one row per bag, blank cells for missing
    values. A plain file takes the fast reader; any other file, and
    every error, the row reader."""
    path = Path(path)
    table = _read_plain_covariates(path)
    return table if table is not None else _read_covariate_rows(path)


@dataclass(frozen=True)
class CorrelateResult:
    """Per-covariate correlations sorted by |rho| descending (names
    break ties); columns that could not be correlated are listed in
    ``skipped`` with a reason."""

    entries: tuple[tuple[str, Correlation], ...]
    n_unmatched: int
    skipped: tuple[tuple[str, str], ...]


def correlate_table(scores: Mapping[str, float], table: CovariateTable) -> CorrelateResult:
    """Correlate bag scores, a map from bag_id to score, against each
    covariate column.

    Rows with at least one value but no score are dropped and counted in
    ``n_unmatched``; a bag missing a value only drops out of that
    column.
    """
    if not scores:
        raise ValueError("no bag scores given")
    scored = np.array([bag_id in scores for bag_id in table.bag_ids], dtype=bool)
    has_value = (~np.isnan(table.values)).any(axis=1)
    if has_value.any() and not (has_value & scored).any():
        raise ValueError("no covariate row matches any scored bag")

    x = np.array([scores[bag_id] for bag_id in table.bag_ids if bag_id in scores], dtype=np.float64)
    columns = table.values[scored].T.copy()  # one contiguous row per covariate
    present = ~np.isnan(columns)
    counts = np.count_nonzero(present, axis=1)
    # pearson's finiteness check, made once for the whole table: a column
    # with 3 or more joined rows may hold no infinite value and join no
    # non-finite score.
    bad = (present & ~(np.isfinite(columns) & np.isfinite(x))).any(axis=1)
    if (bad & (counts >= 3)).any():
        raise ValueError("inputs contain non-finite values")
    named: list[tuple[str, float, int]] = []
    skipped: list[tuple[str, str]] = []
    for name, column, m, n in zip(table.names, columns, present, counts.tolist()):
        if n < 3:
            skipped.append((name, f"only {n} joined rows, need 3"))
            continue
        try:
            named.append((name, _rho(x[m], column[m]), n))
        except UndefinedCorrelationError:
            skipped.append((name, "constant column"))
    ps = _p_values([rho for _, rho, _ in named], [n for _, _, n in named])
    entries = [(name, Correlation(rho, p, n)) for (name, rho, n), p in zip(named, ps)]
    entries.sort(key=lambda item: (-abs(item[1].rho), item[0]))
    n_unmatched = int(np.count_nonzero(has_value & ~scored))
    return CorrelateResult(tuple(entries), n_unmatched, tuple(skipped))


__all__ = [
    "Correlation",
    "CorrelateResult",
    "CovariateTable",
    "EvalReport",
    "UndefinedCorrelationError",
    "UndefinedMetricError",
    "auc",
    "average_precision",
    "correlate_table",
    "evaluate",
    "load_covariates",
    "pearson",
]
