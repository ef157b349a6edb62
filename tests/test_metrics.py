import math
import re

import numpy as np
import pytest

from rankmil.data import FormatError
from rankmil.metrics import (
    CorrelateResult,
    Correlation,
    CovariateTable,
    UndefinedCorrelationError,
    UndefinedMetricError,
    auc,
    average_precision,
    correlate_table,
    evaluate,
    load_covariates,
    pearson,
)
from rankmil.metrics import _incomplete_beta
from rankmil.numerics import Rng

from oracles import ap_by_thresholds, auc_by_pairs, t_two_sided_p


def test_auc_examples():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5
    assert auc([0.8, 0.3, 0.5, 0.1], [1, 1, 0, 0]) == 0.75


def test_auc_single_class_rejected():
    with pytest.raises(UndefinedMetricError, match="both classes"):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError, match="both classes"):
        auc([0.1, 0.2], [0, 0])


def test_auc_input_validation():
    with pytest.raises(ValueError, match="labels"):
        auc([0.1, 0.2], [1, 2])
    with pytest.raises(ValueError, match="non-finite"):
        auc([math.nan, 0.2], [1, 0])
    with pytest.raises(ValueError, match="non-empty"):
        auc([], [])
    with pytest.raises(ValueError, match="equal-length"):
        auc([0.1], [1, 0])


def _random_instance(rng, tie_grid=None):
    n = 2 + rng.bounded_int(63)
    labels = [rng.bounded_int(2) for _ in range(n)]
    if 1 not in labels:
        labels[rng.bounded_int(n)] = 1
    if 0 not in labels:
        labels[rng.bounded_int(n)] = 0
    if tie_grid:
        scores = [rng.bounded_int(tie_grid) / tie_grid for _ in range(n)]
    else:
        scores = [rng.uniform() for _ in range(n)]
    return scores, labels


def test_auc_matches_pair_counting_oracle_exactly():
    rng = Rng(201)
    for trial in range(200):
        scores, labels = _random_instance(rng, tie_grid=8 if trial % 2 else None)
        assert auc(scores, labels) == auc_by_pairs(scores, labels)


def test_average_precision_matches_enumeration_oracle_exactly():
    rng = Rng(202)
    for trial in range(200):
        scores, labels = _random_instance(rng, tie_grid=8 if trial % 2 else None)
        assert average_precision(scores, labels) == ap_by_thresholds(scores, labels)


def test_auc_monotone_transform_invariance():
    rng = Rng(203)
    for _ in range(50):
        scores, labels = _random_instance(rng, tie_grid=64)
        base = auc(scores, labels)
        assert auc([2.0 * s + 1.0 for s in scores], labels) == base
        assert auc([s**3 for s in scores], labels) == base


def test_auc_complement_identity():
    # Power-of-two pair counts make both divisions exact, so the
    # identity holds bitwise when there are no ties.
    rng = Rng(204)
    for _ in range(20):
        scores = [rng.uniform() for _ in range(12)]
        labels = [1] * 4 + [0] * 8
        assert auc(scores, labels) + auc([-s for s in scores], labels) == 1.0


def test_average_precision_examples():
    assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    got = average_precision([0.9, 0.4, 0.6, 0.2], [1, 1, 0, 0])
    assert abs(got - 5.0 / 6.0) < 1e-15
    # All ties collapse to a single threshold: AP equals prevalence.
    assert average_precision([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]) == 0.3


def test_average_precision_needs_a_positive():
    with pytest.raises(UndefinedMetricError, match="positive"):
        average_precision([0.5, 0.4], [0, 0])


def test_roc_points():
    points = evaluate([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).roc
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    fpr = [p[0] for p in points]
    tpr = [p[1] for p in points]
    assert fpr == sorted(fpr) and tpr == sorted(tpr)


def test_roc_trapezoid_equals_auc():
    rng = Rng(205)
    for trial in range(50):
        scores, labels = _random_instance(rng, tie_grid=6 if trial % 2 else None)
        points = evaluate(scores, labels).roc
        area = 0.0
        for (f0, t0), (f1, t1) in zip(points, points[1:]):
            area += (f1 - f0) * (t0 + t1) / 2.0
        assert abs(area - auc(scores, labels)) < 1e-12


def test_pr_points_and_evaluate():
    scores = [0.9, 0.4, 0.6, 0.2]
    labels = [1, 1, 0, 0]
    report = evaluate(scores, labels)
    assert report.pr == ((0.5, 1.0), (0.5, 0.5), (1.0, 2.0 / 3.0), (1.0, 0.5))
    assert report.roc == ((0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0))
    assert report.auc == auc(scores, labels)
    assert report.average_precision == average_precision(scores, labels)
    # One walk raises what auc raises first.
    with pytest.raises(UndefinedMetricError, match="AUC needs both classes, got 2 positive and 0"):
        evaluate([0.5, 0.4], [1, 1])


# The scalar continued fraction, incomplete beta and pearson that the
# element-wise kernel replaced, kept verbatim (names prefixed) as the
# reference it must match bit for bit.
_BETA_MAX_ITER = 300
_BETA_TOL = 1e-12
_BETA_TINY = 1e-300
_RHO_DEGENERATE = 1e-12


def _off_zero(v: float) -> float:
    """Lentz's guard: a value closer to zero than 1e-300 becomes 1e-300."""
    return _BETA_TINY if abs(v) < _BETA_TINY else v


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise FloatingPointError(
        f"incomplete beta continued fraction did not converge within "
        f"{_BETA_MAX_ITER} iterations for a={a}, b={b}, x={x}"
    )


def _reference_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _reference_pearson(x, y) -> Correlation:
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
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a constant input")
    rho = float(dx @ dy) / math.sqrt(sxx * syy)
    rho = min(1.0, max(-1.0, rho))
    if 1.0 - abs(rho) <= _RHO_DEGENERATE:
        return Correlation(rho, 0.0, n)
    df = n - 2
    t = rho * math.sqrt(df / (1.0 - rho * rho))
    p = _reference_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return Correlation(rho, min(1.0, max(0.0, p)), n)


def _beta(a: float, b: float, x: float) -> float:
    """A one-element call of the element-wise incomplete beta."""
    return float(_incomplete_beta(np.array([a]), np.array([b]), np.array([x]))[0])


def _assert_beta_bits(a, b, x):
    """One-element calls and one batched call over all elements both
    give the reference's bits for every (a, b, x)."""
    expected = [_reference_incomplete_beta(*abx).hex() for abx in zip(a, b, x)]
    assert [_beta(*abx).hex() for abx in zip(a, b, x)] == expected
    batched = _incomplete_beta(np.array(a), np.array(b), np.array(x))
    assert [v.hex() for v in batched.tolist()] == expected


def test_incomplete_beta_matches_scalar_reference_on_both_branches():
    rng = np.random.default_rng(11)
    a = np.exp(rng.uniform(np.log(0.05), np.log(300.0), 2000))
    b = np.exp(rng.uniform(np.log(0.05), np.log(300.0), 2000))
    x = rng.uniform(size=2000)
    direct = x < (a + 1.0) / (a + b + 2.0)
    assert 500 < np.count_nonzero(direct) < 1500
    x[:4] = (0.0, 1.0, 1e-300, 1.0 - 2.0**-53)  # the edges and the ends of (0, 1)
    _assert_beta_bits(a.tolist(), b.tolist(), x.tolist())


def test_incomplete_beta_matches_scalar_reference_on_t_tails():
    """b = 1/2 and a = df/2, as correlate's p-values call it."""
    rng = np.random.default_rng(12)
    df = rng.integers(1, 5000, 1500).astype(np.float64)
    rho = rng.uniform(-1.0, 1.0, 1500) ** 3
    t = rho * np.sqrt(df / (1.0 - rho * rho))
    x = df / (df + t * t)
    _assert_beta_bits((df / 2.0).tolist(), [0.5] * len(x), x.tolist())


def test_incomplete_beta_non_convergence_names_the_first_element():
    message = (
        "incomplete beta continued fraction did not converge within 300 iterations "
        "for a=1000000.0, b=1000000.0, x=0.49995"
    )
    for f in (_reference_incomplete_beta, _beta):
        with pytest.raises(FloatingPointError) as err:
            f(1e6, 1e6, 0.49995)
        assert str(err.value) == message
    # In a batch, converged elements do not hide the first unconverged one.
    with pytest.raises(FloatingPointError) as err:
        _incomplete_beta(
            np.array([2.0, 1e6, 1e6, 1e6]),
            np.array([3.0, 1e6, 1e6, 1e6]),
            np.array([0.3, 0.0, 0.49995, 0.4999]),
        )
    assert str(err.value) == message


def test_incomplete_beta_edges_and_symmetry():
    assert _beta(2.0, 3.0, 0.0) == 0.0
    assert _beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) is the identity.
    for x in (0.1, 0.5, 0.9):
        assert abs(_beta(1.0, 1.0, x) - x) < 1e-12
    # Reflection: I_x(a, b) + I_{1-x}(b, a) == 1.
    for a, b, x in ((2.5, 1.5, 0.3), (9.0, 0.5, 0.75), (4.0, 4.0, 0.62)):
        assert abs(_beta(a, b, x) + _beta(b, a, 1.0 - x) - 1.0) < 1e-12


def test_pearson_exact_examples():
    out = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert out.rho == 1.0 and out.p_value == 0.0 and out.n == 3
    out = pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0])
    assert out.rho == -1.0 and out.p_value == 0.0
    out = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert abs(out.rho - 0.8) < 1e-12


def test_pearson_validation():
    with pytest.raises(ValueError, match="3 samples"):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UndefinedCorrelationError, match="constant"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="non-finite"):
        pearson([1.0, 2.0, math.inf], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="equal-length"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_pearson_symmetry_and_affine_invariance():
    rng = Rng(301)
    for _ in range(20):
        x = rng.gauss_block(15)
        y = rng.gauss_block(15)
        assert pearson(x, y).rho == pearson(y, x).rho
        scaled = pearson(2.5 * x + 7.0, y).rho
        assert abs(scaled - pearson(x, y).rho) < 1e-12


def _exact_rho_half():
    """20 samples whose correlation is exactly 0.5 in float arithmetic:
    integer-valued vectors with zero means, cross sum 20, and norms
    80 and 20, so rho = 20 / sqrt(1600)."""
    x = [4.0] * 4 + [-1.0] * 16
    y = [1.0] * 10 + [-1.0] * 10
    return x, y


def test_pearson_half_rho_construction():
    x, y = _exact_rho_half()
    out = pearson(x, y)
    assert out.rho == 0.5
    assert out.n == 20


def test_pearson_p_matches_integration_oracle():
    x, y = _exact_rho_half()
    out = pearson(x, y)
    t = out.rho * math.sqrt((out.n - 2) / (1.0 - out.rho**2))
    assert abs(out.p_value - t_two_sided_p(t, out.n - 2)) < 1e-8


def test_pearson_p_monotone_in_rho():
    """Mix two orthogonal integer vectors; more weight on the shared
    component means higher |rho|, which must mean a smaller p."""
    base = np.array([float(2 * i - 11) for i in range(12)])  # centered, sum 0
    other = np.array([1.0, -1.0, -1.0, 1.0] * 3)  # orthogonal to any arithmetic sequence
    assert float(base @ other) == 0.0 and float(other.sum()) == 0.0
    rhos, ps = [], []
    for weight in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2):
        out = pearson(base, weight * base + other)
        rhos.append(abs(out.rho))
        ps.append(out.p_value)
    assert rhos == sorted(rhos)
    for earlier, later in zip(ps, ps[1:]):
        assert later < earlier
    assert all(0.0 <= p <= 1.0 for p in ps)


def _table(columns):
    """A CovariateTable from column name -> (bag_id -> value); rows in
    order of first appearance, NaN where a column has no value."""
    bag_ids = list(dict.fromkeys(b for column in columns.values() for b in column))
    values = np.full((len(bag_ids), len(columns)), np.nan)
    for j, column in enumerate(columns.values()):
        for bag_id, v in column.items():
            values[bag_ids.index(bag_id), j] = v
    return CovariateTable(tuple(columns), tuple(bag_ids), values)


def _as_columns(table):
    """The dict-of-dicts form the reference join takes: column name ->
    (bag_id -> value) over non-blank cells, rows in file order."""
    return {
        name: {b: float(v) for b, v in zip(table.bag_ids, table.values[:, j]) if not np.isnan(v)}
        for j, name in enumerate(table.names)
    }


def _reference_correlate(scores, covariates):
    """The dict-of-dicts join ``correlate_table`` used before the columnar
    table, over the scalar reference pearson, kept as the reference the
    columnar join and the batched p-values must match bit for bit."""
    by_id = dict(scores)
    if not by_id:
        raise ValueError("no bag scores given")

    covariate_ids = set()
    for column in covariates.values():
        covariate_ids.update(column)
    unmatched = {bag_id for bag_id in covariate_ids if bag_id not in by_id}
    if covariate_ids and len(unmatched) == len(covariate_ids):
        raise ValueError("no covariate row matches any scored bag")

    entries = []
    skipped = []
    for name, column in covariates.items():
        ids = [bag_id for bag_id in column if bag_id in by_id]
        if len(ids) < 3:
            skipped.append((name, f"only {len(ids)} joined rows, need 3"))
            continue
        xs = np.array([by_id[i] for i in ids])
        ys = np.array([column[i] for i in ids])
        try:
            entries.append((name, _reference_pearson(xs, ys)))
        except UndefinedCorrelationError:
            skipped.append((name, "constant column"))
    entries.sort(key=lambda item: (-abs(item[1].rho), item[0]))
    return CorrelateResult(tuple(entries), len(unmatched), tuple(skipped))


def test_load_covariates(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("bag_id,alpha,beta\na,1.0,4.5\nb,2.0,\nc,3.0,0.5\n")
    table = load_covariates(path)
    assert table.names == ("alpha", "beta")
    assert table.bag_ids == ("a", "b", "c")
    assert table.values.dtype == np.float64
    assert table.values[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert table.values[[0, 2], 1].tolist() == [4.5, 0.5]
    assert np.isnan(table.values[1, 1])  # blank cell means missing
    assert _as_columns(table) == {
        "alpha": {"a": 1.0, "b": 2.0, "c": 3.0},
        "beta": {"a": 4.5, "c": 0.5},
    }
    path.write_text("bag_id,alpha\n")
    assert load_covariates(path).values.shape == (0, 1)


def test_load_covariates_errors(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("id,alpha\na,1.0\n")
    with pytest.raises(FormatError, match="bag_id"):
        load_covariates(path)
    path.write_text("bag_id,alpha,alpha\na,1.0,2.0\n")
    with pytest.raises(FormatError, match="duplicate covariate"):
        load_covariates(path)
    path.write_text("bag_id,alpha\na,1.0\na,2.0\n")
    with pytest.raises(FormatError, match="duplicate bag_id"):
        load_covariates(path)
    path.write_text("bag_id,alpha\na,x\n")
    with pytest.raises(FormatError, match="not numeric"):
        load_covariates(path)
    path.write_text("bag_id,alpha\na,1.0,9\n")
    with pytest.raises(FormatError, match="expected 2 fields"):
        load_covariates(path)


def test_load_covariates_rejects_non_finite_cells_not_blanks(tmp_path):
    path = tmp_path / "cov.csv"
    for cell in ("nan", "NaN", "inf", "-inf", " infinity", "1e999"):
        path.write_text(f"bag_id,alpha,beta\na,1.0,\nb,,{cell}\n")
        with pytest.raises(FormatError) as err:
            load_covariates(path)
        assert str(err.value) == f"{path}: line 3: column 'beta' is non-finite: {cell!r}"
    path.write_text("bag_id,alpha,beta\na,1.0,\nb,,2.0,\n")
    with pytest.raises(FormatError, match=r"line 3: expected 3 fields, got 4"):
        load_covariates(path)
    path.write_text("bag_id,alpha,beta\na,1.0,2\n,,\n")
    with pytest.raises(FormatError, match=r"line 3: empty bag_id"):
        load_covariates(path)
    # The first bad cell of the row is the one named.
    path.write_text("bag_id,alpha,beta,gamma\na,1.0,x,inf\n")
    with pytest.raises(FormatError, match=r"line 2: column 'beta' is not numeric: 'x'"):
        load_covariates(path)


def test_load_covariates_malformed_csv_and_bytes(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text('bag_id,alpha\na,"' + "9" * 200_000 + '"\n')
    with pytest.raises(FormatError, match=re.escape(f"{path}: field larger than field limit")):
        load_covariates(path)
    path.write_bytes(b"bag_id,alpha\na,1.0\nb,\xff\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
        load_covariates(path)


def test_correlate_table_trivial_columns():
    # Integer-valued scores keep the +-1 correlations exact in float.
    scores = {f"b{i}": float(i) for i in range(6)}
    covariates = _table({
        "same": {k: v for k, v in scores.items()},
        "anti": {k: -v for k, v in scores.items()},
        "flat": {k: 1.0 for k in scores},
    })
    result = correlate_table(scores, covariates)
    names = [name for name, _ in result.entries]
    # +1 and -1 tie on |rho|; names break the tie.
    assert names == ["anti", "same"]
    assert result.entries[0][1].rho == -1.0
    assert result.entries[1][1].rho == 1.0
    assert result.skipped == (("flat", "constant column"),)
    assert result.n_unmatched == 0


def test_correlate_table_join_behaviour():
    scores = {"a": 0.1, "b": 0.5, "c": 0.9, "d": 0.3}
    covariates = _table({"x": {"a": 1.0, "b": 2.0, "c": 3.0, "zz": 9.0}})
    result = correlate_table(scores, covariates)
    assert result.n_unmatched == 1
    assert result.entries[0][1].n == 3
    # Too few joined rows leaves the column reported as skipped.
    sparse = correlate_table(scores, _table({"x": {"a": 1.0, "zz": 2.0}}))
    assert sparse.entries == ()
    assert sparse.skipped[0][0] == "x"
    with pytest.raises(ValueError, match="no covariate row"):
        correlate_table(scores, _table({"x": {"nope": 1.0}}))
    with pytest.raises(ValueError, match="no bag scores"):
        correlate_table({}, _table({"x": {"a": 1.0}}))


def test_covariate_table_checks_shape():
    with pytest.raises(ValueError, match="shape"):
        CovariateTable(("x", "y"), ("a",), np.zeros((1, 3)))


def _random_cohort(seed):
    """Scores and a covariate table with blanks, unmatched rows, an
    all-blank row, a column with 2 joined rows, a constant column, and
    columns whose |rho| ties exactly."""
    rng = np.random.default_rng(seed)
    n_rows = 60
    bag_ids = [f"bag{i:03d}" for i in rng.permutation(n_rows)]
    scored = bag_ids[:45] + ["score_only_1", "score_only_2"]
    scores = {b: float(rng.random()) for b in scored}
    values = rng.normal(size=(n_rows, 30)) * rng.lognormal(size=30)
    values[rng.random(values.shape) < 0.2] = np.nan
    base = np.round(rng.normal(size=n_rows) * 8.0)
    names = [f"gene_{j:02d}" for j in range(30)]
    extra = {
        "tie_b": base, "tie_a": base.copy(), "tie_neg": -base,
        "flat": np.full(n_rows, 2.5),
        "sparse": np.where(np.isin(np.arange(n_rows), (0, 50, 51, 52)), 1.0, np.nan),
    }
    values = np.column_stack([values] + list(extra.values()))
    names += list(extra)
    values[7] = np.nan  # a row with no value at all
    order = rng.permutation(len(names))
    return scores, CovariateTable(tuple(names[j] for j in order), tuple(bag_ids), values[:, order])


def _bits(result):
    return (
        [(name, c.rho.hex(), c.p_value.hex(), c.n) for name, c in result.entries],
        result.n_unmatched,
        result.skipped,
    )


def test_correlate_table_matches_dict_of_dicts_reference_bit_for_bit(tmp_path):
    for seed in range(5):
        scores, table = _random_cohort(seed)
        assert np.isnan(table.values[7]).all() and table.bag_ids[7] in scores
        expected = _reference_correlate(scores, _as_columns(table))
        got = correlate_table(scores, table)
        assert _bits(got) == _bits(expected)
        assert dict(got.skipped)["flat"] == "constant column"
        assert dict(got.skipped)["sparse"].startswith("only ")
        assert got.n_unmatched == 15  # the all-blank row is scored, so all 15 count
        tie = [name for name, _ in got.entries if name.startswith("tie_")]
        assert tie == ["tie_a", "tie_b", "tie_neg"]

        # The same table through the CSV loader, with an unscored all-blank row added.
        lines = ["bag_id," + ",".join(table.names)]
        for b, row in zip(table.bag_ids, table.values.tolist()):
            lines.append(b + "," + ",".join("" if math.isnan(v) else repr(v) for v in row))
        lines.append("blank_only" + "," * len(table.names))
        path = tmp_path / f"cov{seed}.csv"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_covariates(path)
        assert loaded.bag_ids == table.bag_ids + ("blank_only",)
        assert np.array_equal(loaded.values[:-1], table.values, equal_nan=True)
        assert _bits(correlate_table(scores, loaded)) == _bits(expected)


def test_pearson_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(13)
    for trial in range(300):
        n = int(rng.integers(3, 200))
        x = rng.normal(size=n) * rng.lognormal()
        kind = trial % 4
        if kind == 0:
            y = rng.normal(size=n)
        elif kind == 1:
            y = 0.3 * x + rng.normal(size=n) * 10.0 ** rng.uniform(-8, 1)  # |rho| near 1
        elif kind == 2:
            y = -2.5 * x + 1.0  # |rho| = 1 up to rounding
        else:
            y = np.round(rng.normal(size=n) * 2.0)  # ties, possibly constant
        try:
            expected = _reference_pearson(x, y)
        except UndefinedCorrelationError:
            with pytest.raises(UndefinedCorrelationError):
                pearson(x, y)
            continue
        got = pearson(x, y)
        assert (got.rho.hex(), got.p_value.hex(), got.n) == (
            expected.rho.hex(), expected.p_value.hex(), expected.n)
        assert type(got.rho) is float and type(got.p_value) is float


def _random_table(rng):
    """Scores and a table of random shape whose columns include blanks,
    copies of the scores (|rho| = 1), near-copies, integer and constant
    columns, and columns with fewer than 3 joined rows."""
    n_rows = int(rng.integers(3, 90))
    bag_ids = [f"r{i}" for i in range(n_rows)]
    scored = rng.random(n_rows) < 0.85
    x = rng.normal(size=n_rows)
    scores = {b: float(v) for b, v, s in zip(bag_ids, x, scored) if s}
    scores["score_only"] = 0.5
    columns = []
    for _ in range(int(rng.integers(1, 40))):
        kind = int(rng.integers(6))
        if kind == 0:
            col = rng.normal(size=n_rows) * rng.lognormal(sigma=3.0)
        elif kind == 1:
            col = rng.choice((-3.0, 0.5, 2.0)) * x + rng.choice((0.0, 1.0))
        elif kind == 2:
            col = x + rng.normal(size=n_rows) * 10.0 ** rng.uniform(-9, 0)
        elif kind == 3:
            col = np.round(rng.normal(size=n_rows))
        elif kind == 4:
            col = np.full(n_rows, 7.25)
        else:
            col = np.where(rng.random(n_rows) < 3.0 / n_rows, 1.0 + rng.random(n_rows), np.nan)
        col[rng.random(n_rows) < rng.uniform(0.0, 0.5)] = np.nan
        columns.append(col)
    names = tuple(f"c{j:02d}" for j in range(len(columns)))
    if not scores.keys() & set(bag_ids):
        scores[bag_ids[0]] = 0.25
    return scores, CovariateTable(names, tuple(bag_ids), np.column_stack(columns))


def test_correlate_table_matches_scalar_reference_on_random_tables():
    rng = np.random.default_rng(14)
    n_columns, seen = 0, set()
    for _ in range(150):
        scores, table = _random_table(rng)
        try:
            expected = _reference_correlate(scores, _as_columns(table))
        except ValueError as exc:  # no covariate row matches any scored bag
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                correlate_table(scores, table)
            continue
        got = correlate_table(scores, table)
        assert _bits(got) == _bits(expected)
        seen.update(reason.split()[0] for _, reason in got.skipped)
        seen.update("p0" for _, c in got.entries if c.p_value == 0.0)
        n_columns += len(table.names)
    assert n_columns > 2000
    assert seen == {"only", "constant", "p0"}


def test_correlate_table_non_finite_values():
    scores = {f"b{i}": float(i) for i in range(6)}
    ok = {"b0": 1.0, "b1": 3.0, "b2": 2.0}
    inf_column = {"b0": 1.0, "b1": 5.0, "b2": math.inf, "b3": 2.0}
    with pytest.raises(ValueError, match="non-finite"):
        correlate_table(scores, _table({"ok": ok, "bad": inf_column}))
    # Fewer than 3 joined rows: skipped before its values are checked.
    sparse_inf = {"b0": math.inf, "b1": 2.0, "nope": 3.0}
    result = correlate_table(scores, _table({"sparse": sparse_inf, "ok": ok}))
    assert result.skipped == (("sparse", "only 2 joined rows, need 3"),)
    assert [name for name, _ in result.entries] == ["ok"]
    # A non-finite score counts only in the columns that join its row.
    scores["b5"] = math.nan
    assert correlate_table(scores, _table({"ok": ok})).entries[0][1].n == 3
    with pytest.raises(ValueError, match="non-finite"):
        correlate_table(scores, _table({"x": {**ok, "b5": 4.0}}))
