import math

import numpy as np
import pytest

from rankmil.cli import main
from rankmil.data import Bag, Dataset
from rankmil.losses import (
    LossConfig,
    LossVariant,
    bag_bce_loss,
    bag_mse_loss,
    pairwise_ranking_loss,
    triplet_ranking_loss,
)
from rankmil.metrics import auc
from rankmil.model import ModelParams, backward_bag, init_params, score_bag
from rankmil.numerics import Rng, derive
from rankmil.synth import SynthConfig, generate, write_dataset
from rankmil.training import (
    Adam,
    EpochStats,
    Sgd,
    TrainConfig,
    TrainingDiverged,
    _epoch_units,
    score_dataset,
    train,
    write_train_log,
)


def _loss(variant=LossVariant.TRIPLET_RANKING, **kw):
    return LossConfig(variant=variant, **kw)


def _datasets(shift=3.0, seed=5, n_pos=6, n_neg=12, val=(3, 5), patches=(8, 15)):
    common = dict(
        dim=6, patches_min=patches[0], patches_max=patches[1], shift=shift, seed=seed
    )
    tr = generate(SynthConfig(n_pos=n_pos, n_neg=n_neg, stream_id=0, **common))
    va = generate(SynthConfig(n_pos=val[0], n_neg=val[1], stream_id=1, **common))
    return tr, va


def _config(**overrides):
    base = dict(
        loss=_loss(),
        hidden=8,
        epochs=4,
        patience=10,
        learning_rate=1e-3,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="not trainable"):
        _config(loss=_loss(LossVariant.TRIPLET_EMBEDDING))
    with pytest.raises(ValueError, match="not trainable"):
        _config(loss=_loss(LossVariant.QUADRUPLET))
    with pytest.raises(ValueError, match="epochs"):
        _config(epochs=0)
    with pytest.raises(ValueError, match="patience"):
        _config(patience=0)
    with pytest.raises(ValueError, match="hidden"):
        _config(hidden=0)
    with pytest.raises(ValueError, match="topk_fraction"):
        _config(topk_fraction=0.0)
    with pytest.raises(ValueError, match="learning_rate"):
        _config(learning_rate=0.0)
    with pytest.raises(ValueError, match="optimizer"):
        _config(optimizer="adamw")


def _toy_dataset(n_pos, n_neg):
    bags = [Bag(f"p{i}", 1, np.full((3, 2), 1.0)) for i in range(n_pos)]
    bags += [Bag(f"n{i}", 0, np.full((3, 2), -1.0)) for i in range(n_neg)]
    return Dataset(tuple(bags), 2)


def _unit_ids(variant, ds, rng):
    return [tuple(bag.bag_id for bag in unit) for unit in _epoch_units(variant, ds, rng)]


def test_sampler_distinct_negatives_and_epoch_coverage():
    ds = _toy_dataset(5, 2)
    rng = Rng(9)
    seen_pairs = set()
    for _ in range(8):
        for pos, n1, n2 in _epoch_units(LossVariant.TRIPLET_RANKING, ds, rng):
            assert pos.label == 1 and n1.label == 0 and n2.label == 0
            assert n1.bag_id != n2.bag_id
            seen_pairs.add((n1.bag_id, n2.bag_id))
    # With exactly two negatives every draw uses both, in either order.
    assert seen_pairs <= {("n0", "n1"), ("n1", "n0")}

    # Every epoch touches every positive exactly once.
    rng = Rng(10)
    for _ in range(3):
        ids = [unit[0] for unit in _unit_ids(LossVariant.TRIPLET_RANKING, ds, rng)]
        assert sorted(ids) == [f"p{i}" for i in range(5)]


def test_sampler_determinism_and_guards():
    ds = _toy_dataset(3, 4)
    a, b = Rng(4), Rng(4)
    for _ in range(4):
        units = _unit_ids(LossVariant.TRIPLET_RANKING, ds, a)
        assert len(units) == 3
        assert units == _unit_ids(LossVariant.TRIPLET_RANKING, ds, b)
    units = list(_epoch_units(LossVariant.PAIRWISE_RANKING, _toy_dataset(2, 1), Rng(1)))
    assert len(units) == 2
    for pos, neg in units:
        assert pos.label == 1 and neg.label == 0
    # train() refuses a set that no triplet can be drawn from.
    with pytest.raises(ValueError, match=">= 1 positive and >= 2 negative"):
        train(_toy_dataset(2, 1), ds, _config(hidden=2))


def test_train_deterministic():
    tr, va = _datasets()
    first = train(tr, va, _config())
    second = train(tr, va, _config())
    assert np.array_equal(first.params.to_vector(), second.params.to_vector())
    assert first.epochs == second.epochs
    assert first.best_epoch == second.best_epoch


def test_train_fixed_point_keeps_zero_loss_params():
    # One hidden unit scoring 1.0 for the positive pattern and 0.0067..
    # for the negative one: every triplet term is inactive, so the
    # gradient is zero and the parameters must not move.
    bags = (
        Bag("p0", 1, np.full((4, 1), 1.0)),
        Bag("n0", 0, np.zeros((4, 1))),
        Bag("n1", 0, np.zeros((4, 1))),
    )
    ds = Dataset(bags, 1)
    params = ModelParams(
        w1=np.array([[10.0]]),
        b1=np.array([0.0]),
        w2=np.array([10.0]),
        b2=-5.0,
    )
    import rankmil.training as tr_mod

    def no_backward(*args, **kwargs):
        raise AssertionError("backward ran with a zero upstream")

    for optimizer in ("sgd", "adam"):
        cfg = _config(epochs=3, optimizer=optimizer, hidden=1, learning_rate=0.5)
        original = tr_mod.backward
        tr_mod.backward = no_backward
        try:
            report = _train_from(params, ds, ds, cfg)
        finally:
            tr_mod.backward = original
        assert all(st.loss_mean == 0.0 for st in report.epochs)
        assert np.array_equal(report.params.to_vector(), params.to_vector())


def _train_from(params, ds_train, ds_val, cfg):
    """Train with the seeded init swapped for fixed parameters."""
    import rankmil.training as tr_mod

    original = tr_mod.init_params
    tr_mod.init_params = lambda dim, hidden, rng: params.copy()
    try:
        return train(ds_train, ds_val, cfg)
    finally:
        tr_mod.init_params = original


def test_train_loss_trend_on_separable_data():
    # Enough positives per epoch that the sampled-triplet mean is
    # stable; the trend check allows 5% upward noise between epochs.
    tr, va = _datasets(n_pos=20, n_neg=40, val=(5, 10), patches=(10, 20))
    report = train(tr, va, _config(epochs=5))
    losses = [st.loss_mean for st in report.epochs]
    assert len(losses) == 5
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier * 1.05


def test_report_best_val_auc_matches_recomputation():
    tr, va = _datasets()
    cfg = _config(epochs=6)
    report = train(tr, va, cfg)
    scores = [bs.score for bs in score_dataset(report.params, va, cfg.topk_fraction)]
    labels = [bag.label for bag in va.bags]
    assert auc(scores, labels) == report.best_val_auc
    assert report.best_epoch == max(
        range(len(report.epochs)),
        key=lambda i: (report.epochs[i].val_auc, -i),
    )


def test_patience_truncates_history():
    tr, va = _datasets()
    report = train(tr, va, _config(epochs=50, patience=2))
    # The last improvement is best_epoch, so a truncated run stops
    # exactly 'patience' epochs later.
    assert len(report.epochs) < 50
    assert len(report.epochs) == report.best_epoch + 1 + 2
    best = report.epochs[report.best_epoch].val_auc
    for st in report.epochs[report.best_epoch + 1 :]:
        assert st.val_auc <= best


def test_training_divergence_raises():
    # One sgd step at this rate puts the weights near 1e158, so the
    # next forward pass overflows the patch pre-activation.
    tr, va = _datasets()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(tr, va, _config(optimizer="sgd", learning_rate=1e160, epochs=8))


def _always_inf(self, vec, grad):
    return np.full_like(vec, math.inf)


def test_non_finite_parameters_raise_training_diverged(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(Adam, "step", _always_inf)
    tr, va = _datasets()
    with pytest.raises(TrainingDiverged, match="epoch 0, unit 0: non-finite parameters"):
        train(tr, va, _config())
    write_dataset(tr, tmp_path / "train")
    write_dataset(va, tmp_path / "val")
    code = main([
        "train", "--train", str(tmp_path / "train" / "manifest.csv"),
        "--val", str(tmp_path / "val" / "manifest.csv"), "--out", str(tmp_path / "m.milm"),
        "--hidden", "8", "--epochs", "2",
    ])
    assert code == 1
    assert "non-finite parameters" in capsys.readouterr().err
    assert not (tmp_path / "m.milm").exists()


def test_train_precondition_errors():
    tr, va = _datasets()
    only_pos = Dataset(tuple(b for b in tr.bags if b.label == 1), tr.dim)
    with pytest.raises(ValueError, match=">= 1 positive and >= 2 negative"):
        train(only_pos, va, _config())
    single_class_val = Dataset(tuple(b for b in va.bags if b.label == 0), va.dim)
    with pytest.raises(ValueError, match="both classes"):
        train(tr, single_class_val, _config())
    wrong_dim = generate(SynthConfig(dim=4, n_pos=2, n_neg=2, patches_min=5, patches_max=6))
    with pytest.raises(ValueError, match="train dim"):
        train(tr, wrong_dim, _config())


@pytest.mark.parametrize(
    "variant",
    [LossVariant.PAIRWISE_RANKING, LossVariant.CROSS_ENTROPY, LossVariant.MSE],
)
def test_other_objectives_run_and_learn(variant):
    tr, va = _datasets(shift=4.0, val=(3, 6), patches=(20, 40))
    cfg = _config(loss=_loss(variant), epochs=25, patience=100, learning_rate=5e-3)
    report = train(tr, va, cfg)
    assert len(report.epochs) == 25
    losses = [st.loss_mean for st in report.epochs]
    assert all(math.isfinite(l) for l in losses)
    assert sum(losses[-5:]) < sum(losses[:5])
    scores = [bs.score for bs in score_dataset(report.params, tr, cfg.topk_fraction)]
    assert auc(scores, [bag.label for bag in tr.bags]) >= 0.7


def test_strong_signal_reaches_near_perfect_auc():
    # Every patch is a witness and the shift is large: a few epochs
    # must separate validation bags almost perfectly.
    common = dict(dim=8, patches_min=10, patches_max=20, witness_rate=1.0, shift=4.0, seed=2)
    tr = generate(SynthConfig(n_pos=6, n_neg=12, stream_id=0, **common))
    va = generate(SynthConfig(n_pos=4, n_neg=8, stream_id=1, **common))
    report = train(tr, va, _config(epochs=10, learning_rate=5e-3))
    assert report.best_val_auc >= 0.99


def test_write_train_log_golden(tmp_path):
    tr, va = _datasets()
    report = train(tr, va, _config(epochs=2))
    path = tmp_path / "train.log"
    write_train_log(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,val_auc"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        epoch, loss, val = line.split(",")
        assert epoch == str(i)
        assert loss == f"{report.epochs[i].loss_mean:.6f}"
        assert val == f"{report.epochs[i].val_auc:.6f}"


def test_score_dataset_order_and_empty():
    tr, va = _datasets()
    report = train(tr, va, _config(epochs=1))
    scored = score_dataset(report.params, tr, 0.1)
    assert [bs.bag_id for bs in scored] == [bag.bag_id for bag in tr.bags]
    for bs, bag in zip(scored, tr.bags):
        assert bs.score == score_bag(report.params, bag, 0.1).score
    assert score_dataset(report.params, Dataset((), tr.dim), 0.1) == []


def test_score_dataset_streams_with_a_growing_buffer():
    """Bag sizes that rise and fall make the streamed buffer grow twice;
    the scores are those of the pre-sized buffer, bit for bit."""
    params = init_params(5, 7, Rng(3))
    rng = Rng(4)
    bags = [
        Bag(f"b{i}", i % 2, rng.gauss_block(n * 5).reshape(n, 5))
        for i, n in enumerate([4, 2, 9, 1, 9, 30, 3])
    ]
    streamed = score_dataset(params, iter(bags), 0.3)
    sized = score_dataset(params, Dataset(tuple(bags), 5), 0.3)
    assert [bs.bag_id for bs in streamed] == [bag.bag_id for bag in bags]
    for a, b in zip(streamed, sized):
        assert a.score == b.score
        assert np.array_equal(a.patch_scores, b.patch_scores)
        assert np.array_equal(a.topk_indices, b.topk_indices)
    assert score_dataset(params, iter(()), 0.3) == []


class _CursorSampler:
    """Positives cycled without replacement by a cursor that lives across
    epochs, reshuffled when it runs out; negatives drawn per unit. Every
    ranking epoch takes exactly n_pos units, so this must match the
    per-epoch generator in training draw for draw."""

    def __init__(self, ds, rng):
        self._bags = ds.bags
        self._pos = [i for i, b in enumerate(ds.bags) if b.label == 1]
        self._neg = [i for i, b in enumerate(ds.bags) if b.label == 0]
        self._rng = rng
        self._order = []
        self._cursor = 0
        self.n_pos = len(self._pos)

    def _next_pos(self):
        if self._cursor >= len(self._order):
            self._order = list(self._pos)
            self._rng.shuffle(self._order)
            self._cursor = 0
        idx = self._order[self._cursor]
        self._cursor += 1
        return self._bags[idx]

    def next_triplet(self):
        pos = self._next_pos()
        i = self._rng.bounded_int(len(self._neg))
        j = self._rng.bounded_int(len(self._neg) - 1)
        if j >= i:
            j += 1
        return pos, self._bags[self._neg[i]], self._bags[self._neg[j]]

    def next_pair(self):
        pos = self._next_pos()
        return pos, self._bags[self._neg[self._rng.bounded_int(len(self._neg))]]


def _reference_train(ds_train, ds_val, cfg):
    """The training loop written out from the public per-bag functions:
    each step scores every bag of its unit, backpropagates each one
    with a fresh forward pass, and rebuilds the parameters from the
    optimizer's vector. Units come from :class:`_CursorSampler`."""
    rng = Rng(derive(cfg.seed, 0x7472616E))  # the training stream's salt, "tran"
    dim, hidden, frac = ds_train.dim, cfg.hidden, cfg.topk_fraction
    params = init_params(dim, hidden, rng)
    vec = params.to_vector()
    if cfg.optimizer == "adam":
        opt = Adam(cfg.learning_rate, vec.size)
    else:
        opt = Sgd(cfg.learning_rate)
    sampler = _CursorSampler(ds_train, rng)
    variant = cfg.loss.variant
    history, best_auc, best_epoch, best_params = [], -math.inf, -1, params.copy()
    for epoch in range(cfg.epochs):
        if variant in (LossVariant.TRIPLET_RANKING, LossVariant.PAIRWISE_RANKING):
            n_units = sampler.n_pos
        else:
            order = list(range(len(ds_train.bags)))
            rng.shuffle(order)
            n_units = len(order)
        losses = []
        for unit in range(n_units):
            if variant is LossVariant.TRIPLET_RANKING:
                bags = sampler.next_triplet()
                scores = [score_bag(params, bag, frac).score for bag in bags]
                loss = triplet_ranking_loss(*scores, cfg.loss)
            elif variant is LossVariant.PAIRWISE_RANKING:
                bags = sampler.next_pair()
                scores = [score_bag(params, bag, frac).score for bag in bags]
                loss = pairwise_ranking_loss(*scores, cfg.loss)
            else:
                bags = (ds_train.bags[order[unit]],)
                score = score_bag(params, bags[0], frac).score
                if variant is LossVariant.CROSS_ENTROPY:
                    loss = bag_bce_loss(score, bags[0].label)
                else:
                    loss = bag_mse_loss(score, bags[0].label)
            grad = backward_bag(params, bags[0], frac, loss.grads[0])
            for bag, upstream in zip(bags[1:], loss.grads[1:]):
                grad = grad + backward_bag(params, bag, frac, upstream)
            losses.append(loss.value)
            vec = opt.step(vec, grad)
            params = ModelParams.from_vector(vec, dim, hidden)
        val_scores = [score_bag(params, bag, frac).score for bag in ds_val.bags]
        val_auc = auc(val_scores, [bag.label for bag in ds_val.bags])
        history.append(EpochStats(float(np.mean(losses)), val_auc))
        if val_auc > best_auc:
            best_auc, best_epoch, best_params = val_auc, epoch, params.copy()
    return history, best_epoch, best_params


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize(
    "variant",
    [
        LossVariant.TRIPLET_RANKING,
        LossVariant.PAIRWISE_RANKING,
        LossVariant.CROSS_ENTROPY,
        LossVariant.MSE,
    ],
)
def test_train_matches_per_bag_reference_bit_for_bit(variant, optimizer):
    # Bags of 8 to 40 patches, so the hidden-layer buffers are reused
    # across bags of different sizes.
    tr, va = _datasets(patches=(8, 40))
    cfg = _config(
        loss=_loss(variant), epochs=3, patience=10, learning_rate=5e-3,
        optimizer=optimizer, topk_fraction=0.2,
    )
    report = train(tr, va, cfg)
    history, best_epoch, best_params = _reference_train(tr, va, cfg)

    def bits(stats):
        return [(st.loss_mean.hex(), st.val_auc.hex()) for st in stats]

    assert bits(report.epochs) == bits(history)
    assert report.best_epoch == best_epoch
    assert report.params.to_vector().tobytes() == best_params.to_vector().tobytes()
