import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from rankmil.data import load_dataset
from rankmil.metrics import auc
from rankmil.model import aggregate_topk, sigmoid
from rankmil.numerics import Rng, ceil_frac, derive
from rankmil.synth import SynthConfig, generate, plan_bags, signal_direction, write_synth


def _small(**overrides):
    base = dict(dim=6, n_pos=4, n_neg=6, patches_min=8, patches_max=15, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="dim"):
        _small(dim=0)
    with pytest.raises(ValueError, match="bag counts"):
        _small(n_neg=-1)
    with pytest.raises(ValueError, match="patches_min"):
        _small(patches_min=20, patches_max=10)
    with pytest.raises(ValueError, match="patches_min"):
        _small(patches_min=0)
    with pytest.raises(ValueError, match="witness_rate"):
        _small(witness_rate=0.0)
    with pytest.raises(ValueError, match="witness_rate"):
        _small(witness_rate=1.5)
    with pytest.raises(ValueError, match="shift"):
        _small(shift=-1.0)


def test_signal_direction_unit_norm_and_determinism():
    u = signal_direction(7, 6)
    again = signal_direction(7, 6)
    assert np.array_equal(u, again)
    assert abs(float(np.linalg.norm(u)) - 1.0) < 1e-12
    assert not np.array_equal(u, signal_direction(8, 6))


def test_generate_layout():
    cfg = _small()
    ds = generate(cfg)
    assert ds.dim == 6
    assert len(ds.bags) == 10
    assert [b.bag_id for b in ds.bags] == [
        "pos_0000", "pos_0001", "pos_0002", "pos_0003",
        "neg_0000", "neg_0001", "neg_0002", "neg_0003", "neg_0004", "neg_0005",
    ]
    assert [b.label for b in ds.bags] == [1] * 4 + [0] * 6
    for bag in ds.bags:
        k = bag.features.shape[0]
        assert 8 <= k <= 15
        assert bag.features.shape[1] == 6
        assert bag.features.dtype == np.float64


def test_generate_determinism_and_stream_freshness():
    a = generate(_small())
    b = generate(_small())
    for x, y in zip(a.bags, b.bags):
        assert x.bag_id == y.bag_id and np.array_equal(x.features, y.features)
    other = generate(_small(stream_id=1))
    assert any(
        x.features.shape != y.features.shape or not np.array_equal(x.features, y.features)
        for x, y in zip(a.bags, other.bags)
    )


def test_witness_count_and_placement():
    # With a huge shift, witness rows are the ones with an enormous
    # projection onto the hidden direction; count them per bag.
    cfg = _small(shift=50.0, witness_rate=0.3)
    u = signal_direction(cfg.seed, cfg.dim)
    ds = generate(cfg)
    for bag in ds.bags:
        k = bag.features.shape[0]
        projections = bag.features @ u
        planted = int(np.sum(projections > 25.0))
        if bag.label == 1:
            assert planted == ceil_frac(0.3, k)
        else:
            assert planted == 0


def test_null_shift_positives_look_like_negatives():
    # shift=0 adds nothing, so the positive branch differs from the
    # negative one only by consuming shuffle draws after the features.
    cfg = _small(shift=0.0, n_pos=1, n_neg=0, seed=11)
    pos = generate(cfg).bags[0]
    neg = generate(_small(shift=0.0, n_pos=0, n_neg=1, seed=11)).bags[0]
    assert np.array_equal(pos.features, neg.features)


def test_oracle_scorer_confirms_learnability():
    # Before any training: projecting patches onto the true hidden
    # direction and aggregating the top 10% must already separate the
    # classes. This holds for every dim up to 64 once shift >= 2.
    for dim in (16, 64):
        cfg = SynthConfig(
            dim=dim, n_pos=15, n_neg=30, patches_min=50, patches_max=100,
            witness_rate=0.1, shift=2.0, seed=3,
        )
        u = signal_direction(cfg.seed, cfg.dim)
        ds = generate(cfg)
        scores = [
            aggregate_topk(sigmoid(bag.features @ u), 0.1)[0] for bag in ds.bags
        ]
        labels = [bag.label for bag in ds.bags]
        assert auc(scores, labels) >= 0.95


def test_write_dataset_round_trip(tmp_path):
    ds = generate(_small())
    rows = write_synth(_small(), tmp_path)
    assert [r[0] for r in rows] == [b.bag_id for b in ds.bags]
    assert sorted(p.name for p in tmp_path.glob("*.milf")) == sorted(
        f"{b.bag_id}.milf" for b in ds.bags
    )
    back = load_dataset(tmp_path / "manifest.csv")
    assert back.dim == ds.dim
    for orig, loaded in zip(ds.bags, back.bags):
        assert orig.bag_id == loaded.bag_id
        assert orig.label == loaded.label
        assert np.allclose(orig.features, loaded.features, rtol=0, atol=1e-6)


def test_write_dataset_rerun_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_synth(_small(), first)
    write_synth(_small(), second)
    for path in sorted(first.iterdir()):
        assert (second / path.name).read_bytes() == path.read_bytes()


def test_plan_bags_is_lazy():
    plans = itertools.islice(plan_bags(_small(n_pos=1, n_neg=10**9)), 2)
    assert [plan.bag_id for plan in plans] == ["pos_0000", "neg_0000"]


def test_failed_manifest_write_leaves_no_manifest(tmp_path, monkeypatch):
    real_replace = os.replace

    def fail_replace(src, dst):
        if Path(dst).name == "manifest.csv":
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError, match="No space"):
        write_synth(_small(), tmp_path)
    names = os.listdir(tmp_path)
    assert "manifest.csv" not in names
    assert all(name.endswith(".milf") for name in names)
    assert len(names) == _small().n_pos + _small().n_neg


def _sequential_bags(cfg):
    """The generator as one sequential loop over one Rng, kept as the
    reference for :func:`plan_bags`: yields ``(state before the bag's
    first draw, bag id, label, features)``."""
    u = signal_direction(cfg.seed, cfg.dim)
    rng = Rng(derive(cfg.seed, 0x62616773, cfg.stream_id))
    span = cfg.patches_max - cfg.patches_min + 1
    for label, count, prefix in ((1, cfg.n_pos, "pos"), (0, cfg.n_neg, "neg")):
        for i in range(count):
            state = rng.state
            k = cfg.patches_min + rng.bounded_int(span)
            features = rng.gauss_block(k * cfg.dim).reshape(k, cfg.dim)
            if label == 1:
                n_wit = ceil_frac(cfg.witness_rate, k)
                positions = list(range(k))
                rng.shuffle(positions)
                features[sorted(positions[:n_wit])] += cfg.shift * u
            yield state, f"{prefix}_{i:04d}", label, features


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"dim": 3, "patches_min": 5, "patches_max": 9},  # odd K*dim for odd K
        {"dim": 1},
        {"patches_min": 1, "patches_max": 1},
        {"dim": 1, "patches_min": 1, "patches_max": 1},
        {"witness_rate": 1.0},
        {"n_neg": 0},
        {"n_pos": 0},
        {"n_pos": 0, "n_neg": 0},
        {"stream_id": 1},
    ],
)
def test_plan_matches_the_sequential_generator(overrides):
    cfg = _small(**overrides)
    expected = list(_sequential_bags(cfg))
    plans = list(plan_bags(cfg))
    assert [(p.state, p.bag_id, p.label, p.patches) for p in plans] == [
        (state, bag_id, label, f.shape[0]) for state, bag_id, label, f in expected
    ]
    bags = generate(cfg).bags
    assert len(bags) == len(expected)
    for bag, (_, bag_id, label, features) in zip(bags, expected):
        assert (bag.bag_id, bag.label) == (bag_id, label)
        assert bag.features.tobytes() == features.tobytes()
