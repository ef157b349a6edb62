import math
import struct

import numpy as np
import pytest

from rankmil.data import Bag, FormatError
from rankmil.model import (
    BagScore,
    ModelParams,
    aggregate_topk,
    backward_bag,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_bag,
    sigmoid,
)
from rankmil.numerics import Rng

from oracles import central_diff


def _params(w1, b1, w2, b2):
    return ModelParams(np.asarray(w1, float), np.asarray(b1, float), np.asarray(w2, float), b2)


def _bag(rows, bag_id="b", label=0):
    return Bag(bag_id, label, np.asarray(rows, dtype=np.float64))


def test_sigmoid_stable_at_extremes():
    z = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[4] == 1.0
    assert s[2] == 0.5
    assert np.all(np.diff(s) >= 0.0)


def _sigmoid_reference(z):
    """The masked two-branch form the single-pass kernel replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_reference_bits():
    gen = np.random.default_rng(20000)
    special = np.array([0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 36.0, -36.0])
    for _ in range(20000):
        n = int(gen.integers(1, 640))
        z = gen.normal(0.0, float(gen.choice([0.1, 3.0, 40.0])), size=n)
        picks = gen.random(n) < 0.2
        z[picks] = gen.choice(special, size=int(picks.sum()))
        if n > 1:  # ties
            z[gen.integers(0, n)] = z[gen.integers(0, n)]
        got = sigmoid(z)
        assert np.array_equal(got.view(np.uint64), _sigmoid_reference(z).view(np.uint64)), z


def test_params_validation_and_vector_round_trip():
    p = _params([[1.0, 2.0], [3.0, 4.0]], [0.1, 0.2], [0.5, -0.5], 0.75)
    assert p.dim == 2 and p.hidden == 2 and p.n_params == 9
    vec = p.to_vector()
    assert vec.shape == (9,)
    q = ModelParams.from_vector(vec, dim=2, hidden=2)
    assert np.array_equal(q.w1, p.w1)
    assert np.array_equal(q.b1, p.b1)
    assert np.array_equal(q.w2, p.w2)
    assert q.b2 == p.b2
    with pytest.raises(ValueError, match="length 9"):
        ModelParams.from_vector(vec[:-1], dim=2, hidden=2)
    with pytest.raises(ValueError, match="non-finite"):
        _params([[math.nan]], [0.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="shape"):
        _params([[1.0]], [0.0, 0.0], [0.0], 0.0)


def test_params_copy_is_independent():
    p = _params([[1.0]], [0.0], [1.0], 0.0)
    q = p.copy()
    q.w1[0, 0] = 9.0
    assert p.w1[0, 0] == 1.0


def test_init_glorot_bounds_and_zero_biases():
    p = init_params(512, 64, Rng(1))
    limit1 = math.sqrt(6.0 / (512 + 64))
    assert p.w1.shape == (64, 512)
    assert float(np.abs(p.w1).max()) <= limit1
    assert float(np.abs(p.w1).max()) > 0.9 * limit1  # the bound is tight
    limit2 = math.sqrt(6.0 / (64 + 1))
    assert float(np.abs(p.w2).max()) <= limit2
    assert np.all(p.b1 == 0.0) and p.b2 == 0.0


def test_init_deterministic():
    a = init_params(16, 8, Rng(42))
    b = init_params(16, 8, Rng(42))
    assert np.array_equal(a.to_vector(), b.to_vector())
    c = init_params(16, 8, Rng(43))
    assert not np.array_equal(a.to_vector(), c.to_vector())


def _patch_scores(params, features):
    return forward(params, np.asarray(features, dtype=np.float64), 1.0).patch_scores


def test_score_patches_examples():
    zero = _params([[0.0, 0.0]], [0.0], [0.0], 0.0)
    assert _patch_scores(zero, [[3.0, -4.0]])[0] == 0.5
    p = _params([[1.0, 0.0]], [0.0], [1.0], 0.0)
    s = _patch_scores(p, [[-5.0, 9.0], [2.0, 0.0]])
    assert s[0] == 0.5  # relu gates the input
    assert abs(s[1] - 0.8808) < 1e-4
    assert s[1] == sigmoid(np.array([2.0]))[0]


def test_score_patches_validation():
    p = _params([[1.0, 0.0]], [0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="has dim 3, model expects 2"):
        score_bag(p, _bag(np.zeros((2, 3))), 0.1)
    scores = _patch_scores(p, [[10.0, 0.0], [-10.0, 0.0]])
    assert np.all((scores > 0.0) & (scores < 1.0))


def test_aggregate_topk_examples():
    score, idx = aggregate_topk(np.array([0.1, 0.9, 0.5]), 0.1)
    assert score == 0.9
    assert np.array_equal(idx, [1])
    score, idx = aggregate_topk(np.full(20, 0.2), 0.1)
    assert score == 0.2
    assert np.array_equal(idx, [0, 1])  # ties go to the lowest indices
    score, idx = aggregate_topk(np.array([1.0, 1.0, 0.0, 0.0]), 0.5)
    assert score == 1.0
    assert np.array_equal(idx, [0, 1])


def test_aggregate_topk_validation():
    with pytest.raises(ValueError, match="non-empty"):
        aggregate_topk(np.array([]), 0.1)
    with pytest.raises(ValueError, match="fraction"):
        aggregate_topk(np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="fraction"):
        aggregate_topk(np.array([1.0]), 1.5)


def test_aggregate_topk_permutation_invariant_exactly():
    """The mean is accumulated in descending-score order, so any input
    permutation produces the bitwise-identical aggregate."""
    rng = Rng(3)
    for _ in range(50):
        scores = rng.gauss_block(37)
        base, _ = aggregate_topk(scores, 0.2)
        assert base == np.mean(-np.sort(-scores)[:8])  # ceil(0.2 * 37) = 8
        perm = list(range(37))
        rng.shuffle(perm)
        shuffled, _ = aggregate_topk(scores[perm], 0.2)
        assert shuffled == base


def test_score_bag_one_patch_and_constant_bag():
    p = _params([[1.0, -1.0]], [0.1], [2.0], -0.5)
    single = _bag([[0.3, 0.8]])
    out = score_bag(p, single, 0.1)
    assert out.score == _patch_scores(p, [[0.3, 0.8]])[0]
    assert np.array_equal(out.topk_indices, [0])
    same = _bag([[0.3, 0.8]] * 7)
    assert score_bag(p, same, 0.5).score == out.score


def test_score_bag_permutation_invariant_exactly():
    p = init_params(6, 5, Rng(2))
    rng = Rng(30)
    features = rng.gauss_block(20 * 6).reshape(20, 6)
    base = score_bag(p, _bag(features), 0.25).score
    for _ in range(10):
        perm = list(range(20))
        rng.shuffle(perm)
        assert score_bag(p, _bag(features[perm]), 0.25).score == base


def test_score_bag_in_unit_interval():
    p = init_params(4, 3, Rng(11))
    rng = Rng(12)
    for _ in range(20):
        bag = _bag(rng.gauss_block(8 * 4).reshape(8, 4))
        out = score_bag(p, bag, 0.3)
        assert 0.0 < out.score < 1.0
        assert isinstance(out, BagScore)


def test_aggregate_monotonicity():
    p = init_params(5, 4, Rng(7))
    rng = Rng(8)
    features = rng.gauss_block(12 * 5).reshape(12, 5)
    bag = _bag(features)
    out = score_bag(p, bag, 0.25)  # m = 3 selected patches
    selected = set(out.topk_indices.tolist())
    # Dragging a non-selected patch further down cannot change the score.
    lowered = features.copy()
    victim = next(i for i in range(12) if i not in selected)
    lowered[victim] = -10.0 * np.abs(lowered[victim])
    assert score_bag(p, _bag(lowered), 0.25).score == out.score
    # Nudging a selected patch along its positive score direction can
    # only raise the aggregate.
    target = int(out.topk_indices[0])
    grad = central_diff(
        lambda row: float(_patch_scores(p, [row])[0]), list(features[target])
    )
    raised = features.copy()
    raised[target] += 1e-4 * np.asarray(grad) / max(1e-12, float(np.linalg.norm(grad)))
    assert score_bag(p, _bag(raised), 0.25).score >= out.score


def test_backward_zero_upstream_is_zero():
    p = init_params(4, 3, Rng(1))
    bag = _bag(Rng(2).gauss_block(5 * 4).reshape(5, 4))
    assert np.array_equal(backward_bag(p, bag, 0.5, 0.0), np.zeros(p.n_params))


def test_backward_zero_upstream_skips_forward(monkeypatch):
    import rankmil.model as model_mod

    def no_forward(*args, **kwargs):
        raise AssertionError("forward pass ran")

    monkeypatch.setattr(model_mod, "forward", no_forward)
    p = init_params(4, 3, Rng(1))
    bag = _bag(Rng(2).gauss_block(5 * 4).reshape(5, 4))
    for upstream in (0.0, -0.0):
        assert np.array_equal(backward_bag(p, bag, 0.5, upstream), np.zeros(p.n_params))
    with pytest.raises(AssertionError, match="forward pass ran"):
        backward_bag(p, bag, 0.5, 1.0)


def test_backward_single_patch_closed_form():
    """One patch, one hidden unit: the chain rule fits in one line."""
    w, c, v, d = 0.8, 0.25, 1.5, -0.3
    x, up = 1.2, 0.7
    p = _params([[w]], [c], [v], d)
    pre = w * x + c
    hid = max(0.0, pre)
    s = 1.0 / (1.0 + math.exp(-(v * hid + d)))
    base = up * s * (1.0 - s)
    want = np.array([base * v * x, base * v, base * hid, base])
    got = backward_bag(p, _bag([[x]]), 1.0, up)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_backward_matches_finite_differences():
    rng = Rng(55)
    checked = 0
    while checked < 20:
        p = init_params(5, 7, Rng(rng.bounded_int(10_000)))
        features = rng.gauss_block(9 * 5).reshape(9, 5)
        bag = _bag(features)
        out = score_bag(p, bag, 0.3)  # m = 3
        ranked = np.sort(out.patch_scores)[::-1]
        if ranked[2] - ranked[3] <= 1e-3:  # selection must be stable under +-h
            continue
        upstream = 2.0 * rng.uniform() - 1.0
        analytic = backward_bag(p, bag, 0.3, upstream)

        def f(vec):
            q = ModelParams.from_vector(np.asarray(vec), dim=5, hidden=7)
            return upstream * score_bag(q, bag, 0.3).score

        numeric = np.asarray(central_diff(f, list(p.to_vector())))
        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        assert float(np.linalg.norm(analytic - numeric)) / denom < 1e-5
        checked += 1


def test_backward_rejects_nonfinite_upstream():
    p = init_params(2, 2, Rng(1))
    bag = _bag([[0.0, 0.0]])
    with pytest.raises(FloatingPointError, match="upstream"):
        backward_bag(p, bag, 0.5, math.inf)


def test_forward_divergence_raises():
    p = _params([[1e300]], [0.0], [1.0], 0.0)
    bag = _bag([[1e300]])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="diverged"):
            score_bag(p, bag, 1.0)


def test_checkpoint_round_trip(tmp_path):
    p = init_params(6, 4, Rng(9))
    path = tmp_path / "m.milm"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert np.array_equal(q.to_vector(), p.to_vector())
    assert (q.dim, q.hidden) == (6, 4)
    resaved = tmp_path / "again.milm"
    save_checkpoint(q, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_checkpoint_golden_bytes(tmp_path):
    p = _params([[0.5]], [0.25], [-1.0], 2.0)
    path = tmp_path / "m.milm"
    save_checkpoint(p, path)
    want = b"MILM" + struct.pack("<III", 1, 1, 1) + struct.pack("<4d", 0.5, 0.25, -1.0, 2.0)
    assert path.read_bytes() == want


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "m.milm"
    good = b"MILM" + struct.pack("<III", 1, 1, 1) + struct.pack("<4d", 0.5, 0.25, -1.0, 2.0)

    path.write_bytes(b"MILK" + good[4:])
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(path)
    path.write_bytes(b"MI")
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(b"MILM" + struct.pack("<III", 2, 1, 1) + good[16:])
    with pytest.raises(FormatError, match="version 2"):
        load_checkpoint(path)
    path.write_bytes(good[:-8])
    with pytest.raises(FormatError, match="requires"):
        load_checkpoint(path)
    path.write_bytes(b"MILM" + struct.pack("<III", 1, 0, 1) + good[16:])
    with pytest.raises(FormatError, match=">= 1"):
        load_checkpoint(path)
    bad = good[:16] + struct.pack("<4d", 0.5, math.nan, -1.0, 2.0)
    path.write_bytes(bad)
    with pytest.raises(FormatError, match="non-finite"):
        load_checkpoint(path)
