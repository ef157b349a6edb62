"""Training loop: triplet/pair sampling, optimizers, early stopping.

One optimizer step per sampled unit. For the ranking losses an epoch
is ``n_pos`` units: the positives are cycled without replacement in a
per-epoch shuffled order, and fresh negatives are drawn uniformly for
each unit (two distinct ones for the triplet loss). For the bag-level
losses (cross-entropy, MSE) an epoch is one shuffled pass over all
bags. Model selection keeps the parameters of the epoch with the best
validation AUC, earliest epoch winning ties.

Every objective runs through one step loop. A unit is a tuple of one
to three bags; each bag gets one :func:`~rankmil.model.forward` per
step into its own hidden-layer buffer slot (one slot per bag of a
unit, each sized to the largest training bag), the variant's loss maps
the bag scores to one upstream gradient per bag, and
:func:`~rankmil.model.backward` reuses the cached activations, skipping
bags whose upstream is exactly zero. The model parameters are views
into the optimizer's flat vector, which every step updates in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .data import Bag, Dataset, write_bytes_atomic
from .losses import (
    LossConfig,
    LossOutput,
    LossVariant,
    bag_bce_loss,
    bag_mse_loss,
    pairwise_ranking_loss,
    triplet_ranking_loss,
)
from .metrics import auc
from .model import BagScore, ModelParams, backward, forward, init_params, score_bag
from .numerics import Rng, derive

_TRAIN_SALT = 0x7472616E  # "tran"
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

_TRAINABLE = (
    LossVariant.TRIPLET_RANKING,
    LossVariant.PAIRWISE_RANKING,
    LossVariant.CROSS_ENTROPY,
    LossVariant.MSE,
)


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss or score."""


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    hidden: int = 128
    topk_fraction: float = 0.1
    learning_rate: float = 1e-3
    epochs: int = 60
    patience: int = 20
    seed: int = 1
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.loss.variant not in _TRAINABLE:
            raise ValueError(f"loss {self.loss.variant.value!r} is not trainable on bag scores")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not (0.0 < self.topk_fraction <= 1.0):
            raise ValueError(f"topk_fraction must be in (0, 1], got {self.topk_fraction}")
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass(frozen=True)
class EpochStats:
    loss_mean: float
    val_auc: float


@dataclass
class TrainReport:
    """Per-epoch history plus the best parameters by validation AUC."""

    epochs: tuple[EpochStats, ...]
    best_epoch: int
    params: ModelParams

    @property
    def best_val_auc(self) -> float:
        return self.epochs[self.best_epoch].val_auc


class Sgd:
    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate

    def step(self, vec: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return vec - self.learning_rate * grad


class Adam:
    """Adam with bias correction, beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, learning_rate: float, size: int) -> None:
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, vec: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = _ADAM_BETA1 * self.m + (1.0 - _ADAM_BETA1) * grad
        self.v = _ADAM_BETA2 * self.v + (1.0 - _ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - _ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - _ADAM_BETA2**self.t)
        return vec - self.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def score_dataset(params: ModelParams, bags: Iterable[Bag], fraction: float) -> list[BagScore]:
    """Score every bag in iteration order through one hidden-layer
    buffer. Bags already in memory (a :class:`Dataset`, a list) size it
    to the largest bag up front; an iterator is consumed one bag at a
    time, and the buffer grows only when a larger bag arrives."""
    rows = 0 if isinstance(bags, Iterator) else max((b.n_patches for b in bags), default=0)
    buf = np.empty((rows, params.hidden))
    scores: list[BagScore] = []
    for bag in bags:
        if bag.n_patches > buf.shape[0]:
            buf = np.empty((bag.n_patches, params.hidden))
        scores.append(score_bag(params, bag, fraction, buf[: bag.n_patches]))
    return scores


def _val_auc(params: ModelParams, ds_val: Dataset, fraction: float) -> float:
    scores = [bs.score for bs in score_dataset(params, ds_val, fraction)]
    labels = [bag.label for bag in ds_val.bags]
    return auc(scores, labels)


def _unit_loss(bags: tuple[Bag, ...], scores: list[float], cfg: LossConfig) -> LossOutput:
    """The loss of one unit and one upstream gradient per bag."""
    if cfg.variant is LossVariant.TRIPLET_RANKING:
        return triplet_ranking_loss(*scores, cfg)
    if cfg.variant is LossVariant.PAIRWISE_RANKING:
        return pairwise_ranking_loss(*scores, cfg)
    if cfg.variant is LossVariant.CROSS_ENTROPY:
        return bag_bce_loss(scores[0], bags[0].label)
    return bag_mse_loss(scores[0], bags[0].label)


def _epoch_units(variant: LossVariant, ds: Dataset, rng: Rng) -> Iterator[tuple[Bag, ...]]:
    """The units of one epoch, drawing from ``rng`` as they are taken."""
    if variant in (LossVariant.TRIPLET_RANKING, LossVariant.PAIRWISE_RANKING):
        pos = [bag for bag in ds.bags if bag.label == 1]
        neg = [bag for bag in ds.bags if bag.label == 0]
        rng.shuffle(pos)
        for bag in pos:
            i = rng.bounded_int(len(neg))
            if variant is LossVariant.PAIRWISE_RANKING:
                yield bag, neg[i]
            else:
                j = rng.bounded_int(len(neg) - 1)
                if j >= i:
                    j += 1
                yield bag, neg[i], neg[j]
    else:
        order = list(range(len(ds.bags)))
        rng.shuffle(order)
        yield from ((ds.bags[i],) for i in order)


def train(ds_train: Dataset, ds_val: Dataset, cfg: TrainConfig) -> TrainReport:
    """Run the configured objective and return the training history with
    the best-validation-AUC parameters.

    Deterministic for a fixed config: a single seeded stream drives
    weight init and all sampling, in that order.
    """
    if ds_train.n_pos < 1 or ds_train.n_neg < 2:
        raise ValueError(
            f"training set needs >= 1 positive and >= 2 negative bags, got "
            f"{ds_train.n_pos} and {ds_train.n_neg}"
        )
    if ds_val.n_pos < 1 or ds_val.n_neg < 1:
        raise ValueError(
            f"validation set needs both classes, got {ds_val.n_pos} positive "
            f"and {ds_val.n_neg} negative"
        )
    if len(ds_train.bags) and len(ds_val.bags) and ds_train.dim != ds_val.dim:
        raise ValueError(f"train dim {ds_train.dim} != validation dim {ds_val.dim}")

    rng = Rng(derive(cfg.seed, _TRAIN_SALT))
    dim, hidden = ds_train.dim, cfg.hidden
    vec = init_params(dim, hidden, rng).to_vector()
    n_w1 = hidden * dim
    # Views into vec: every optimizer step writes vec in place, and only
    # the scalar b2 has to be read back.
    params = ModelParams(
        vec[:n_w1].reshape(hidden, dim),
        vec[n_w1 : n_w1 + hidden],
        vec[n_w1 + hidden : n_w1 + 2 * hidden],
        vec[-1],
    )
    if cfg.optimizer == "adam":
        opt = Adam(cfg.learning_rate, vec.size)
    else:
        opt = Sgd(cfg.learning_rate)
    frac = cfg.topk_fraction
    rows = max(bag.n_patches for bag in ds_train.bags)
    slots = [np.empty((rows, hidden)) for _ in range(3)]

    history: list[EpochStats] = []
    best_auc = -math.inf
    best_epoch = -1
    best_params = params.copy()
    stale = 0

    for epoch in range(cfg.epochs):
        losses: list[float] = []
        units = _epoch_units(cfg.loss.variant, ds_train, rng)
        for unit, bags in enumerate(units):
            try:
                caches = [
                    forward(params, bag.features, frac, slot[: bag.n_patches])
                    for bag, slot in zip(bags, slots)
                ]
                loss = _unit_loss(bags, [c.score for c in caches], cfg.loss)
                grad = np.zeros(vec.size)
                for cache, upstream in zip(caches, loss.grads):
                    if upstream != 0.0:
                        grad += backward(params, cache, upstream)
            except FloatingPointError as exc:
                raise TrainingDiverged(f"epoch {epoch}, unit {unit}: {exc}") from exc
            if not math.isfinite(loss.value):
                raise TrainingDiverged(
                    f"epoch {epoch}, unit {unit}: non-finite loss {loss.value}"
                )
            losses.append(loss.value)
            vec[:] = opt.step(vec, grad)
            if not np.isfinite(vec).all():
                raise TrainingDiverged(f"epoch {epoch}, unit {unit}: non-finite parameters")
            params.b2 = float(vec[-1])

        try:
            val_auc = _val_auc(params, ds_val, frac)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"epoch {epoch}, validation scoring: {exc}") from exc
        history.append(EpochStats(float(np.mean(losses)), val_auc))
        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    return TrainReport(tuple(history), best_epoch, best_params)


def write_train_log(report: TrainReport, path: str | Path) -> None:
    """Line-delimited history: ``epoch,loss,val_auc`` (CSV, six decimal
    places), one row per completed epoch."""
    lines = ["epoch,loss,val_auc"]
    lines += [
        f"{i},{st.loss_mean:.6f},{st.val_auc:.6f}" for i, st in enumerate(report.epochs)
    ]
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


__all__ = [
    "Adam",
    "EpochStats",
    "Sgd",
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "score_dataset",
    "train",
    "write_train_log",
]
