"""Training objectives over bag scores, embeddings, and distances.

Every loss returns its value together with exact subgradients for each
differentiable input. Hinge terms use the subgradient convention
``d/dz max(0, z) = 1 if z > 0 else 0``, so configurations with zero
loss have identically zero gradients and are fixed points of training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_BCE_EPS = 1e-7


class LossVariant(str, Enum):
    TRIPLET_RANKING = "triplet-ranking"
    PAIRWISE_RANKING = "pairwise"
    TRIPLET_EMBEDDING = "triplet-embedding"
    QUADRUPLET = "quadruplet"
    CROSS_ENTROPY = "ce"
    MSE = "mse"


@dataclass(frozen=True)
class LossConfig:
    """Variant selection plus the two margins.

    ``alpha1`` is the score-separation margin of the ranking losses
    (and the single margin of the pairwise/embedding variants);
    ``alpha2`` bounds the squared gap between the two negative scores
    in the triplet ranking loss (and is the second quadruplet margin).
    """

    variant: LossVariant
    alpha1: float = 0.3
    alpha2: float = 0.01

    def __post_init__(self) -> None:
        for name, value in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class LossOutput:
    """A loss value with one gradient entry per differentiable input."""

    value: float
    grads: tuple


def _require_variant(cfg: LossConfig, expected: LossVariant) -> None:
    if cfg.variant is not expected:
        raise ValueError(f"config selects {cfg.variant.value!r}, not {expected.value!r}")


def _require_finite(**scores: float) -> None:
    for name, value in scores.items():
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite input {name}={value}")


def triplet_ranking_loss(
    x_pos: float, x_neg1: float, x_neg2: float, cfg: LossConfig
) -> LossOutput:
    """Rank one positive bag score above two negatives while keeping the
    negatives close to each other:

        [a1 - (x_pos - x_neg1)]+ + [a1 - (x_pos - x_neg2)]+
          + [(x_neg1 - x_neg2)^2 - a2]+

    Zero loss iff both score gaps reach ``alpha1`` and the squared
    negative-pair gap is within ``alpha2``.
    """
    _require_variant(cfg, LossVariant.TRIPLET_RANKING)
    _require_finite(x_pos=x_pos, x_neg1=x_neg1, x_neg2=x_neg2)
    t1 = cfg.alpha1 - (x_pos - x_neg1)
    t2 = cfg.alpha1 - (x_pos - x_neg2)
    gap = x_neg1 - x_neg2
    t3 = gap * gap - cfg.alpha2
    value = max(0.0, t1) + max(0.0, t2) + max(0.0, t3)
    a1 = 1.0 if t1 > 0.0 else 0.0
    a2 = 1.0 if t2 > 0.0 else 0.0
    a3 = 1.0 if t3 > 0.0 else 0.0
    g_pos = -a1 - a2
    g_neg1 = a1 + a3 * 2.0 * gap
    g_neg2 = a2 - a3 * 2.0 * gap
    return LossOutput(value, (g_pos, g_neg1, g_neg2))


def pairwise_ranking_loss(x_pos: float, x_neg: float, cfg: LossConfig) -> LossOutput:
    """Single-pair hinge: ``[alpha1 - (x_pos - x_neg)]+``."""
    _require_variant(cfg, LossVariant.PAIRWISE_RANKING)
    _require_finite(x_pos=x_pos, x_neg=x_neg)
    t = cfg.alpha1 - (x_pos - x_neg)
    active = 1.0 if t > 0.0 else 0.0
    return LossOutput(max(0.0, t), (-active, active))


def triplet_embedding_loss(
    anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray, cfg: LossConfig
) -> LossOutput:
    """Classic embedding triplet with squared Euclidean distances:
    ``[||a - p||^2 - ||a - n||^2 + alpha1]+``. Gradients are taken with
    respect to the three embedding vectors.
    """
    _require_variant(cfg, LossVariant.TRIPLET_EMBEDDING)
    anchor = np.asarray(anchor, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    negative = np.asarray(negative, dtype=np.float64)
    if not (anchor.shape == positive.shape == negative.shape and anchor.ndim == 1):
        raise ValueError(
            f"embeddings must be 1-d with equal shapes, got "
            f"{anchor.shape}, {positive.shape}, {negative.shape}"
        )
    ap = anchor - positive
    an = anchor - negative
    t = float(ap @ ap - an @ an) + cfg.alpha1
    if t > 0.0:
        g_anchor = 2.0 * (ap - an)
        g_positive = -2.0 * ap
        g_negative = 2.0 * an
        value = t
    else:
        g_anchor = np.zeros_like(anchor)
        g_positive = np.zeros_like(anchor)
        g_negative = np.zeros_like(anchor)
        value = 0.0
    return LossOutput(value, (g_anchor, g_positive, g_negative))


def quadruplet_loss(d_ij: float, d_ik: float, d_lk: float, cfg: LossConfig) -> LossOutput:
    """Two-hinge objective over caller-provided distances:

        [d_ij^2 - d_ik^2 + alpha1]+ + [d_ij^2 - d_lk^2 + alpha2]+

    ``d_ij`` is the within-pair distance being pushed down; ``d_ik``
    shares an endpoint with it, ``d_lk`` shares none. Gradients are
    with respect to the distances themselves, so any metric can be used
    upstream.
    """
    _require_variant(cfg, LossVariant.QUADRUPLET)
    _require_finite(d_ij=d_ij, d_ik=d_ik, d_lk=d_lk)
    for name, d in (("d_ij", d_ij), ("d_ik", d_ik), ("d_lk", d_lk)):
        if d < 0.0:
            raise ValueError(f"{name} must be a distance >= 0, got {d}")
    t1 = d_ij * d_ij - d_ik * d_ik + cfg.alpha1
    t2 = d_ij * d_ij - d_lk * d_lk + cfg.alpha2
    a1 = 1.0 if t1 > 0.0 else 0.0
    a2 = 1.0 if t2 > 0.0 else 0.0
    value = max(0.0, t1) + max(0.0, t2)
    g_ij = (a1 + a2) * 2.0 * d_ij
    g_ik = -a1 * 2.0 * d_ik
    g_lk = -a2 * 2.0 * d_lk
    return LossOutput(value, (g_ij, g_ik, g_lk))


def bag_bce_loss(score: float, label: int) -> LossOutput:
    """Binary cross-entropy on one bag score, clamped to
    ``[1e-7, 1 - 1e-7]`` so boundary scores stay finite."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    s = min(max(score, _BCE_EPS), 1.0 - _BCE_EPS)
    value = -(label * math.log(s) + (1 - label) * math.log(1.0 - s))
    grad = (s - label) / (s * (1.0 - s))
    return LossOutput(value, (grad,))


def bag_mse_loss(score: float, label: int) -> LossOutput:
    """Squared error on one bag score."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    diff = score - label
    return LossOutput(diff * diff, (2.0 * diff,))


__all__ = [
    "LossConfig",
    "LossOutput",
    "LossVariant",
    "bag_bce_loss",
    "bag_mse_loss",
    "pairwise_ranking_loss",
    "quadruplet_loss",
    "triplet_embedding_loss",
    "triplet_ranking_loss",
]
