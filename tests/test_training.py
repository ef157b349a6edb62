import math

import numpy as np
import pytest

import rankmil.training as training
from rankmil.cli import main
from rankmil.data import Bag, Dataset, load_dataset
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
from rankmil.synth import SynthConfig, generate
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

from conftest import write_bags


def _loss(variant=LossVariant.TRIPLET_RANKING, **kw):
    return LossConfig(variant=variant, **kw)


def _datasets(
    shift=3.0, seed=5, n_pos=6, n_neg=12, val=(3, 5), patches=(8, 15), val_patches=None
):
    """Training and validation sets; ``val_patches`` is the validation
    bags' patch range, ``patches`` by default."""
    common = dict(dim=6, shift=shift, seed=seed)
    vp = val_patches or patches
    tr = generate(SynthConfig(n_pos=n_pos, n_neg=n_neg, stream_id=0, patches_min=patches[0],
                              patches_max=patches[1], **common))
    va = generate(SynthConfig(n_pos=val[0], n_neg=val[1], stream_id=1, patches_min=vp[0],
                              patches_max=vp[1], **common))
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
    return Dataset(tuple(bags))


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
    ds = Dataset(bags)
    # w1, b1, w2, b2 in the one parameter layout.
    params = ModelParams(np.array([10.0, 0.0, 10.0, -5.0]), dim=1, hidden=1)
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


def test_validation_scores_through_score_dataset(monkeypatch):
    """Each epoch's validation is one score_dataset call on the validation
    set, the path the score command takes."""
    tr, va = _datasets()
    calls = []
    real = training.score_dataset

    def counting(params, bags, fraction):
        calls.append(bags)
        return real(params, bags, fraction)

    monkeypatch.setattr(training, "score_dataset", counting)
    report = train(tr, va, _config(epochs=50, patience=2))
    assert len(report.epochs) < 50
    assert len(calls) == len(report.epochs)
    assert all(bags is va for bags in calls)


def test_training_divergence_raises():
    # One sgd step at this rate puts the weights near 1e158, so the
    # next forward pass overflows the patch pre-activation.
    tr, va = _datasets()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(tr, va, _config(optimizer="sgd", learning_rate=1e160, epochs=8))


def _always_inf(self, vec, grad):
    vec[:] = math.inf


def test_non_finite_parameters_raise_training_diverged(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(Adam, "step", _always_inf)
    tr, va = _datasets()
    with pytest.raises(TrainingDiverged, match="epoch 0, unit 0: non-finite parameters"):
        train(tr, va, _config())
    code = main([
        "train", "--train", str(write_bags(tmp_path / "train", tr)),
        "--val", str(write_bags(tmp_path / "val", va)), "--out", str(tmp_path / "m.milm"),
        "--hidden", "8", "--epochs", "2",
    ])
    assert code == 1
    assert "non-finite parameters" in capsys.readouterr().err
    assert not (tmp_path / "m.milm").exists()


def test_non_finite_loss_exits_1_and_writes_no_checkpoint(tmp_path, capsys):
    # A margin of 1e308 makes the first triplet's two hinge terms sum to inf.
    tr, va = _datasets()
    model = tmp_path / "m.milm"
    code = main([
        "train", "--train", str(write_bags(tmp_path / "train", tr)),
        "--val", str(write_bags(tmp_path / "val", va)), "--out", str(model),
        "--hidden", "8", "--epochs", "2", "--alpha1", "1e308",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: epoch 0, unit 0: non-finite loss inf\n"
    assert not model.exists()


def test_validation_floating_point_error_raises_training_diverged(monkeypatch):
    def overflow(params, bags, fraction):
        raise FloatingPointError("overflow encountered in matmul")

    monkeypatch.setattr(training, "score_dataset", overflow)
    tr, va = _datasets()
    with pytest.raises(
        TrainingDiverged, match="^epoch 0, validation scoring: overflow encountered in matmul$"
    ):
        train(tr, va, _config())


def test_train_precondition_errors():
    tr, va = _datasets()
    only_pos = Dataset(tuple(b for b in tr.bags if b.label == 1))
    with pytest.raises(ValueError, match=">= 1 positive and >= 2 negative"):
        train(only_pos, va, _config())
    single_class_val = Dataset(tuple(b for b in va.bags if b.label == 0))
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
    assert score_dataset(report.params, Dataset(()), 0.1) == []


def test_score_dataset_streams_with_a_growing_buffer():
    """Bag sizes that rise and fall make the model's hidden-layer scratch
    grow three times during the first call, which streams the bags from
    a generator. The second call scores them from a Dataset through the
    grown scratch, and gives the same scores, bit for bit."""
    params = init_params(5, 7, Rng(3))
    rng = Rng(4)
    bags = [
        Bag(f"b{i}", i % 2, rng.gauss_block(n * 5).reshape(n, 5))
        for i, n in enumerate([4, 2, 9, 1, 9, 30, 3])
    ]
    streamed = score_dataset(params, iter(bags), 0.3)
    sized = score_dataset(params, Dataset(tuple(bags)), 0.3)
    assert [bs.bag_id for bs in streamed] == [bag.bag_id for bag in bags]
    for a, b in zip(streamed, sized):
        assert a.score == b.score
        assert np.array_equal(a.patch_scores, b.patch_scores)
        assert np.array_equal(a.topk_indices, b.topk_indices)
    assert score_dataset(params, iter(()), 0.3) == []


def test_train_holds_one_hidden_layer():
    """Training steps and validation write their hidden layers into the
    model's one scratch array, so the memory numpy allocates during
    ``train`` peaks near one (largest bag x hidden) float64 layer, not
    two. Here hidden is far larger than dim, and every bag has 400
    patches: one layer is 1.6 MB, and the features, the top-k rows, the
    gradients and Adam's four parameter-sized vectors come to a fraction
    of that."""
    import tracemalloc

    tr, va = _datasets(patches=(400, 400))
    cfg = _config(hidden=512, topk_fraction=0.01, epochs=2)
    layer = 400 * cfg.hidden * 8
    tracemalloc.start()
    try:
        train(tr, va, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layer <= peak < 1.5 * layer, f"traced peak {peak} bytes, one layer is {layer}"


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
            opt.step(vec, grad)
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
    # Training bags of 8 to 40 patches, so the hidden-layer buffer is
    # reused across bags of different sizes, and validation bags of 30 to
    # 60, so that validation needs more rows than any training bag.
    tr, va = _datasets(patches=(8, 40), val_patches=(30, 60))
    assert max(bag.features.shape[0] for bag in va) > max(bag.features.shape[0] for bag in tr)
    cfg = _config(
        loss=_loss(variant), epochs=3, patience=10, learning_rate=5e-3,
        optimizer=optimizer, topk_fraction=0.2,
    )
    report = train(tr, va, cfg)
    history, best_epoch, best_params = _reference_train(tr, va, cfg)
    assert _bits(report.epochs) == _bits(history)
    assert report.best_epoch == best_epoch
    assert report.params.to_vector().tobytes() == best_params.to_vector().tobytes()


def _bits(stats):
    return [(st.loss_mean.hex(), st.val_auc.hex()) for st in stats]


def _float32_and_float64(ds, tmp_path, name):
    """``ds`` written and loaded back, so its bags hold float32 features,
    and the same values widened into float64 bags."""
    loaded = load_dataset(write_bags(tmp_path / name, ds))
    assert all(bag.features.dtype == np.float32 for bag in loaded)
    widened = Dataset(
        tuple(Bag(b.bag_id, b.label, b.features.astype(np.float64)) for b in loaded)
    )
    return loaded, widened


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
def test_float32_bags_train_like_their_float64_values(tmp_path, variant, optimizer):
    tr, va = _datasets(patches=(8, 40))
    tr32, tr64 = _float32_and_float64(tr, tmp_path, "train")
    va32, va64 = _float32_and_float64(va, tmp_path, "val")
    cfg = _config(
        loss=_loss(variant), epochs=3, patience=10, learning_rate=5e-3,
        optimizer=optimizer, topk_fraction=0.2,
    )
    narrow = train(tr32, va32, cfg)
    wide = train(tr64, va64, cfg)
    assert _bits(narrow.epochs) == _bits(wide.epochs)
    assert narrow.best_epoch == wide.best_epoch
    assert narrow.params.to_vector().tobytes() == wide.params.to_vector().tobytes()


def test_float32_bags_score_like_their_float64_values(tmp_path):
    tr, va = _datasets(patches=(8, 40))
    params = train(tr, va, _config(epochs=2)).params
    va32, va64 = _float32_and_float64(va, tmp_path, "val")
    for narrow, wide in zip(score_dataset(params, va32, 0.2), score_dataset(params, va64, 0.2)):
        assert narrow.bag_id == wide.bag_id
        assert narrow.score.hex() == wide.score.hex()
        assert narrow.patch_scores.tobytes() == wide.patch_scores.tobytes()
        assert np.array_equal(narrow.topk_indices, wide.topk_indices)


class _ReturningAdam:
    """Adam's arithmetic as a step that returns a new vector, the form
    the optimizer had before its steps were made in place."""

    def __init__(self, learning_rate, size):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, vec, grad):
        self.t += 1
        self.m = 0.9 * self.m + (1.0 - 0.9) * grad
        self.v = 0.999 * self.v + (1.0 - 0.999) * grad * grad
        m_hat = self.m / (1.0 - 0.9**self.t)
        v_hat = self.v / (1.0 - 0.999**self.t)
        return vec - self.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def test_in_place_optimizer_steps_match_returning_arithmetic_bit_for_bit():
    """600 steps of gradients spanning 1e-9 to 1e3 in magnitude, of both
    signs, with whole zero steps and a coordinate that is always zero."""
    size = 50
    gen = np.random.default_rng(11)
    grads = gen.standard_normal((600, size)) * 10.0 ** gen.uniform(-9, 3, (600, size))
    grads[::7] = 0.0
    grads[:, 3] = 0.0
    assert (grads < 0).any() and (grads > 0).any()
    start = gen.standard_normal(size)

    adam, ref_adam = Adam(1e-3, size), _ReturningAdam(1e-3, size)
    sgd = Sgd(1e-2)
    vec_adam, ref_vec_adam = start.copy(), start.copy()
    vec_sgd, ref_vec_sgd = start.copy(), start.copy()
    for grad in grads:
        assert adam.step(vec_adam, grad) is None
        ref_vec_adam = ref_adam.step(ref_vec_adam, grad)
        assert vec_adam.tobytes() == ref_vec_adam.tobytes()
        sgd.step(vec_sgd, grad)
        ref_vec_sgd = ref_vec_sgd - 1e-2 * grad
        assert vec_sgd.tobytes() == ref_vec_sgd.tobytes()
    assert adam.m.tobytes() == ref_adam.m.tobytes()
    assert adam.v.tobytes() == ref_adam.v.tobytes()
