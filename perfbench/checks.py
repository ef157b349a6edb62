"""Independent checks of the files the rankmil CLI writes.

Nothing here imports rankmil. The readers follow the documented file
layouts, the scorer is a plain numpy MLP plus a top-k mean, and the
metrics are computed from their definitions (pair counts, brute-force
thresholds, a power series for the Student-t tail), so a check agrees
with the program only when the program is right. Every check raises
:class:`CheckFailed` with a message naming the file and the value.
"""

from __future__ import annotations

import csv
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

# The CLI prints scores, curves and rho with six decimals and eval's
# AUC/AP with four; a value read back may differ from the exact one by
# half a unit in the last place, plus float noise.
HALF_6DP = 5e-7 + 1e-12
HALF_4DP = 5e-5 + 1e-12
P_VALUE_RTOL = 1e-5  # p is printed with six significant digits


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- readers


def read_manifest(path: Path) -> list[tuple[str, int, Path]]:
    """(bag_id, label, feature path) rows of a ``bag_id,label,path`` CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["bag_id", "label", "path"], f"{path}: bad manifest header")
    return [(r[0], int(r[1]), path.parent / r[2]) for r in rows[1:] if r]


def read_milf(path: Path) -> np.ndarray:
    """``MILF`` | K u32 | D u32 | K*D float32, all little-endian."""
    data = path.read_bytes()
    require(data[:4] == b"MILF", f"{path}: bad magic")
    k, d = struct.unpack_from("<II", data, 4)
    require(len(data) == 12 + 4 * k * d, f"{path}: size does not match header {k}x{d}")
    return np.frombuffer(data, dtype="<f4", offset=12).astype(np.float64).reshape(k, d)


def read_milm(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``MILM`` | version u32 (1) | dim u32 | hidden u32 | w1, b1, w2, b2
    as float64 little-endian."""
    data = path.read_bytes()
    require(data[:4] == b"MILM", f"{path}: bad magic {data[:4]!r}")
    require(len(data) >= 16, f"{path}: truncated header")
    version, dim, hidden = struct.unpack_from("<III", data, 4)
    require(version == 1, f"{path}: version {version}, expected 1")
    n = hidden * dim + 2 * hidden + 1
    require(len(data) == 16 + 8 * n, f"{path}: payload does not match dim {dim} hidden {hidden}")
    vec = np.frombuffer(data, dtype="<f8", offset=16)
    require(bool(np.all(np.isfinite(vec))), f"{path}: non-finite parameter")
    w1 = vec[: hidden * dim].reshape(hidden, dim)
    b1 = vec[hidden * dim : hidden * dim + hidden]
    w2 = vec[hidden * dim + hidden : hidden * dim + 2 * hidden]
    return w1, b1, w2, float(vec[-1])


def read_csv_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == header, f"{path}: header {rows[:1]}, expected {header}")
    return [r for r in rows[1:] if r]


# ---------------------------------------------------------------- scoring


def topk_count(fraction: float, k: int) -> int:
    """``max(1, ceil(fraction * k))`` in exact rational arithmetic."""
    return max(1, math.ceil(Fraction(str(fraction)) * k))


def bag_score(params, features: np.ndarray, fraction: float) -> float:
    """Mean of the top ``fraction`` of ``sigmoid(w2 . relu(w1 f + b1) + b2)``."""
    w1, b1, w2, b2 = params
    hidden = np.maximum(features @ w1.T + b1, 0.0)
    with np.errstate(over="ignore"):
        patch = 1.0 / (1.0 + np.exp(-(hidden @ w2 + b2)))
    top = np.sort(patch)[::-1][: topk_count(fraction, patch.size)]
    return float(top.mean())


def score_manifest(params, manifest: Path, fraction: float):
    """Bag ids, labels, scores and total patch count, one bag in memory
    at a time."""
    ids, labels, scores, patches = [], [], [], 0
    for bag_id, label, path in read_manifest(manifest):
        features = read_milf(path)
        ids.append(bag_id)
        labels.append(label)
        scores.append(bag_score(params, features, fraction))
        patches += features.shape[0]
    return ids, labels, scores, patches


# ---------------------------------------------------------------- metrics


def auc_pairs(scores, labels) -> Fraction:
    """Wins plus half ties over every positive/negative pair."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    wins = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return Fraction(2 * wins + ties, 2 * pos.size * neg.size)


def threshold_counts(scores, labels):
    """(threshold, TP, FP) for every distinct score, descending."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    out = []
    for thr in sorted(set(s.tolist()), reverse=True):
        hit = s >= thr
        out.append((thr, int(np.sum(hit & (y == 1))), int(np.sum(hit & (y == 0)))))
    return out


def ap_thresholds(scores, labels) -> Fraction:
    """sum_k (R_k - R_{k-1}) * P_k over distinct descending thresholds."""
    n_pos = int(np.sum(np.asarray(labels) == 1))
    ap, tp_prev = Fraction(0), 0
    for _, tp, fp in threshold_counts(scores, labels):
        ap += Fraction(tp - tp_prev, n_pos) * Fraction(tp, tp + fp)
        tp_prev = tp
    return ap


def t_tail_two_sided(rho: float, n: int) -> float:
    """Two-sided Student-t p-value of a Pearson rho on n samples:
    ``I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``."""
    df = n - 2
    t2 = rho * rho * df / (1.0 - rho * rho)
    return _inc_beta_series(df / 2.0, 0.5, df / (df + t2))


def _inc_beta_series(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta by its hypergeometric power series
    ``x^a (1-x)^b / (a B(a,b)) * sum_n (a+b)_n / (a+1)_n x^n``, taken on
    the side of the symmetry ``I_x(a,b) = 1 - I_{1-x}(b,a)`` where the
    term ratio starts below 1, so every term is positive and shrinking."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _inc_beta_series(b, a, 1.0 - x)
    log_front = (
        a * math.log(x) + b * math.log1p(-x)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) - math.log(a)
    )
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        term *= (a + b + n) / (a + 1.0 + n) * x
        total += term
        n += 1
    return math.exp(log_front) * total


# ---------------------------------------------------------------- checks


def check_dataset(manifest: Path, n_pos: int, n_neg: int, dim: int,
                  patches: tuple[int, int], witness_rate: float, shift: float) -> None:
    """Shape, labels and planted signal of a synth output.

    Positives carry ``ceil(rate*K)`` witness rows shifted by ``shift``
    along one unit direction over standard normal background, so the
    class-mean gap g has ``E|g|^2 = (shift * witness share)^2 + dim *
    s^2`` with ``s^2 = 1/rows_neg + 1/rows_pos``. The check allows six
    standard deviations; it is sharp on large sets and loose on small
    ones."""
    rows = read_manifest(manifest)
    labels = [label for _, label, _ in rows]
    require(labels.count(1) == n_pos and labels.count(0) == n_neg,
            f"{manifest}: {labels.count(1)}+{labels.count(0)} bags, expected {n_pos}+{n_neg}")
    sums = {0: np.zeros(dim), 1: np.zeros(dim)}
    rows_per = {0: 0, 1: 0}
    witnesses = 0
    for _, label, path in rows:
        f = read_milf(path)
        require(f.shape[1] == dim and patches[0] <= f.shape[0] <= patches[1],
                f"{path}: shape {f.shape} outside dim {dim}, patches {patches}")
        sums[label] += f.sum(axis=0)
        rows_per[label] += f.shape[0]
        if label == 1:
            witnesses += math.ceil(Fraction(str(witness_rate)) * f.shape[0])
    if n_pos and n_neg:
        gap2 = float(np.sum((sums[1] / rows_per[1] - sums[0] / rows_per[0]) ** 2))
        planted = shift * witnesses / rows_per[1]
        s2 = 1.0 / rows_per[0] + 1.0 / rows_per[1]
        tol = 6.0 * (s2 * math.sqrt(2.0 * dim) + 2.0 * planted * math.sqrt(s2))
        require(abs(gap2 - dim * s2 - planted**2) <= tol,
                f"{manifest}: squared class-mean gap {gap2:.5f}, planted "
                f"{planted**2 + dim * s2:.5f} +- {tol:.5f}")


def check_scores(path: Path, ids, labels, scores) -> list[float]:
    """Score CSV rows in manifest order, labels copied, every value
    within six-decimal rounding of the independent score. Returns the
    values as the CSV holds them."""
    rows = read_csv_rows(path, ["bag_id", "score", "label"])
    require(len(rows) == len(ids), f"{path}: {len(rows)} rows, expected {len(ids)}")
    values = []
    for row, bag_id, label, score in zip(rows, ids, labels, scores):
        require(row[0] == bag_id and row[2] == str(label), f"{path}: row {row} out of order")
        value = float(row[1])
        require(abs(value - score) <= HALF_6DP,
                f"{path}: {bag_id} score {row[1]}, independent {score:.9f}")
        values.append(value)
    return values


def check_train(stdout: str, log: Path, epochs: int, val_auc: Fraction) -> float:
    """The printed best val AUC is the log's maximum, earliest epoch on
    ties, every epoch ran, and the checkpoint re-scores to that AUC."""
    rows = read_csv_rows(log, ["epoch", "loss", "val_auc"])
    require([int(r[0]) for r in rows] == list(range(epochs)),
            f"{log}: {len(rows)} epochs logged, expected {epochs}")
    aucs = [float(r[2]) for r in rows]
    best_epoch = aucs.index(max(aucs))
    line = [ln for ln in stdout.splitlines() if ln.startswith("best val AUC ")]
    require(len(line) == 1, "train printed no 'best val AUC' line")
    words = line[0].split()
    printed, at = float(words[3]), int(words[6])
    require(at == best_epoch, f"train reports epoch {at}, log maximum is at {best_epoch}")
    require(abs(printed - max(aucs)) <= HALF_4DP, f"train reports {printed}, log max {max(aucs)}")
    require(abs(float(val_auc) - max(aucs)) <= HALF_6DP,
            f"checkpoint re-scores to val AUC {float(val_auc):.6f}, log max {max(aucs)}")
    return max(aucs)


def check_eval(stdout: str, curves: Path, values, labels) -> None:
    """eval's AUC/AP equal the pair-count AUC and brute-force AP of the
    CSV values it read; the curves are the threshold points, monotone,
    ending at (1, 1) and recall 1."""
    line = [ln for ln in stdout.splitlines() if ln.startswith("AUC ")]
    require(len(line) == 1, "eval printed no 'AUC .. AP ..' line")
    words = line[0].split()
    auc, ap = float(auc_pairs(values, labels)), float(ap_thresholds(values, labels))
    require(abs(float(words[1]) - auc) <= HALF_4DP, f"eval AUC {words[1]}, pair count {auc:.6f}")
    require(abs(float(words[3]) - ap) <= HALF_4DP, f"eval AP {words[3]}, thresholds {ap:.6f}")

    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    counts = threshold_counts(values, labels)
    roc = [(float(a), float(b)) for a, b in read_csv_rows(curves / "roc.csv", ["fpr", "tpr"])]
    pr = [(float(a), float(b))
          for a, b in read_csv_rows(curves / "pr.csv", ["recall", "precision"])]
    want_roc = [(0.0, 0.0)] + [(fp / n_neg, tp / n_pos) for _, tp, fp in counts]
    want_pr = [(tp / n_pos, tp / (tp + fp)) for _, tp, fp in counts]
    for name, got, want in (("roc", roc, want_roc), ("pr", pr, want_pr)):
        require(len(got) == len(want), f"{name}.csv: {len(got)} points, expected {len(want)}")
        worst = max(max(abs(g[0] - w[0]), abs(g[1] - w[1])) for g, w in zip(got, want))
        require(worst <= HALF_6DP, f"{name}.csv: a point is {worst:.2e} off the threshold count")
    require(all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(roc, roc[1:])), "roc not monotone")
    require(roc[0] == (0.0, 0.0) and roc[-1] == (1.0, 1.0), "roc does not run (0,0) to (1,1)")
    require(all(b[0] >= a[0] for a, b in zip(pr, pr[1:])), "pr recall not monotone")
    require(pr[-1][0] == 1.0, "pr does not end at recall 1")


def check_correlate(path: Path, score_ids, values, covariates: Path,
                    planted: dict[str, int], p_every: int) -> None:
    """Every rho equals an independent Pearson over the joined non-blank
    rows, p-values on every ``p_every``-th row and on planted columns
    equal the Student-t tail, rows are sorted by |rho|, and each planted
    column has its sign and p < 0.05."""
    by_id = dict(zip(score_ids, values))
    with open(covariates, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    names = table[0][1:]
    columns = {}
    for j, name in enumerate(names, start=1):
        pairs = [(by_id[r[0]], float(r[j]))
                 for r in table[1:] if r and r[j] != "" and r[0] in by_id]
        columns[name] = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    rows = read_csv_rows(path, ["name", "rho", "p_value", "n"])
    require(sorted(r[0] for r in rows) == sorted(names),
            f"{path}: {len(rows)} rows, expected one per covariate column ({len(names)})")
    prev = math.inf
    for i, (name, rho_s, p_s, n_s) in enumerate(rows):
        xy = columns[name]
        require(int(n_s) == len(xy), f"{path}: {name} n={n_s}, joined rows {len(xy)}")
        rho = float(np.corrcoef(xy[:, 0], xy[:, 1])[0, 1])
        require(abs(float(rho_s) - rho) <= HALF_6DP,
                f"{path}: {name} rho {rho_s}, Pearson {rho:.8f}")
        require(abs(float(rho_s)) <= prev, f"{path}: row {i + 2} breaks the |rho| order")
        prev = abs(float(rho_s))
        if i % p_every == 0 or name in planted:
            p = t_tail_two_sided(rho, len(xy))
            require(abs(float(p_s) - p) <= P_VALUE_RTOL * p + 1e-300,
                    f"{path}: {name} p {p_s}, Student-t tail {p:.6g}")
        if name in planted:
            require(math.copysign(1, float(rho_s)) == planted[name] and float(p_s) < 0.05,
                    f"{path}: planted {name} came out rho {rho_s}, p {p_s}")
