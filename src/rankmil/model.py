"""Instance scorer and bag-level aggregation.

Each patch row f gets a score in (0, 1) from a one-hidden-layer MLP,
``sigmoid(w2 . relu(w1 f + b1) + b2)``, and a bag's score is the mean
of its top fraction of patch scores. The top-k selection is frozen
during the backward pass; since the aggregate is piecewise linear in
the patch scores, that gradient is exact everywhere selection is
locally stable.

:func:`forward` writes a bag's hidden layer into a caller-supplied
(patches, hidden) buffer, so a training loop or a scoring pass reuses
one allocation across bags, and returns a :class:`ForwardCache` of the
activations and the top-k selection. :func:`backward` takes that cache
and computes the parameter gradient without a second forward pass.
:func:`score_bag` and :func:`backward_bag` wrap the two for one bag.

Checkpoint format: magic ``MILM`` | version: u32 LE | dim: u32 |
hidden: u32 | w1 (hidden*dim) | b1 (hidden) | w2 (hidden) | b2, all
float64 LE, row-major.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Bag, FormatError, write_bytes_atomic
from .numerics import Rng, ceil_frac

_CHECKPOINT_MAGIC = b"MILM"
_CHECKPOINT_VERSION = 1


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, never overflowing.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass
class ModelParams:
    """MLP weights: ``w1`` (hidden, dim), ``b1`` (hidden,), ``w2``
    (hidden,), ``b2`` scalar."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = float(self.b2)
        if self.w1.ndim != 2:
            raise ValueError(f"w1 must be 2-d, got shape {self.w1.shape}")
        h, d = self.w1.shape
        if h < 1 or d < 1:
            raise ValueError(f"w1 must be at least 1x1, got {h}x{d}")
        if self.b1.shape != (h,) or self.w2.shape != (h,):
            raise ValueError(
                f"b1 and w2 must have shape ({h},), got {self.b1.shape} and {self.w2.shape}"
            )
        arrays_finite = all(np.all(np.isfinite(a)) for a in (self.w1, self.b1, self.w2))
        if not (arrays_finite and math.isfinite(self.b2)):
            raise ValueError("parameters contain non-finite values")

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def n_params(self) -> int:
        return self.hidden * self.dim + 2 * self.hidden + 1

    def copy(self) -> "ModelParams":
        return ModelParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2)

    def to_vector(self) -> np.ndarray:
        """Flatten as [w1 row-major, b1, w2, b2]; the layout shared by
        gradients, optimizer state, and the checkpoint payload."""
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    @classmethod
    def from_vector(cls, vec: np.ndarray, dim: int, hidden: int) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        n = hidden * dim + 2 * hidden + 1
        if vec.shape != (n,):
            raise ValueError(f"expected vector of length {n}, got shape {vec.shape}")
        w1 = vec[: hidden * dim].reshape(hidden, dim).copy()
        b1 = vec[hidden * dim : hidden * dim + hidden].copy()
        w2 = vec[hidden * dim + hidden : hidden * dim + 2 * hidden].copy()
        b2 = float(vec[-1])
        return cls(w1, b1, w2, b2)


@dataclass(frozen=True)
class BagScore:
    """A scored bag: ``score`` is the mean of ``patch_scores`` over
    ``topk_indices`` (reported in ascending index order)."""

    bag_id: str
    score: float
    patch_scores: np.ndarray
    topk_indices: np.ndarray


def init_params(dim: int, hidden: int, rng: Rng) -> ModelParams:
    """Glorot-uniform weights, zero biases.

    Each weight matrix is drawn row-major from
    ``uniform(-L, L), L = sqrt(6 / (fan_in + fan_out))``; w1 first,
    then w2.
    """
    if dim < 1 or hidden < 1:
        raise ValueError(f"dim and hidden must be >= 1, got dim={dim}, hidden={hidden}")
    limit1 = math.sqrt(6.0 / (dim + hidden))
    w1 = (2.0 * rng.uniform_block(hidden * dim) - 1.0) * limit1
    limit2 = math.sqrt(6.0 / (hidden + 1))
    w2 = (2.0 * rng.uniform_block(hidden) - 1.0) * limit2
    return ModelParams(w1.reshape(hidden, dim), np.zeros(hidden), w2, 0.0)


def _check_dim(params: ModelParams, dim: int, what: str) -> None:
    if dim != params.dim:
        raise ValueError(f"{what} has dim {dim}, model expects {params.dim}")


def aggregate_topk(patch_scores: np.ndarray, fraction: float) -> tuple[float, np.ndarray]:
    """Mean of the ``max(1, ceil(fraction * K))`` largest scores.

    Ties are broken towards the lowest index. Returns the aggregate and
    the selected indices in ascending order. The mean is accumulated in
    descending-score order, which makes the aggregate invariant to any
    permutation of the input scores.
    """
    patch_scores = np.asarray(patch_scores, dtype=np.float64)
    if patch_scores.ndim != 1 or patch_scores.size == 0:
        raise ValueError(f"patch scores must be a non-empty vector, got shape {patch_scores.shape}")
    if not (0.0 < fraction <= 1.0) or not math.isfinite(fraction):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    m = max(1, ceil_frac(fraction, patch_scores.size))
    order = np.argsort(-patch_scores, kind="stable")
    selected = order[:m]
    # The sum over m, as np.mean computes it, without np.mean's dispatch cost.
    score = float(patch_scores[selected].sum() / m)
    return score, np.sort(selected)


@dataclass(frozen=True)
class ForwardCache:
    """What :func:`backward` needs from one bag's forward pass.

    ``hidden`` is the relu activation, a view of the caller's buffer:
    it is valid until that buffer is written again.
    """

    features: np.ndarray
    hidden: np.ndarray
    patch_scores: np.ndarray
    topk: np.ndarray
    score: float


def forward(
    params: ModelParams, features: np.ndarray, fraction: float, out: np.ndarray | None = None
) -> ForwardCache:
    """Score one bag's (patches, dim) float64 features and keep the
    activations for :func:`backward`.

    The hidden layer is written into ``out``, a C-contiguous float64
    array of shape (patches, hidden); pass a slice of a buffer reused
    across calls to avoid allocating one per bag. With ``out=None`` a
    fresh one is allocated.
    """
    if out is None:
        out = np.empty((features.shape[0], params.hidden))
    np.matmul(features, params.w1.T, out=out)
    np.add(out, params.b1, out=out)
    np.maximum(out, 0.0, out=out)
    z = out @ params.w2 + params.b2
    if not np.isfinite(z).all():
        raise FloatingPointError("non-finite patch pre-activation; model has diverged")
    patch_scores = sigmoid(z)
    score, topk = aggregate_topk(patch_scores, fraction)
    return ForwardCache(features, out, patch_scores, topk, score)


def backward(params: ModelParams, cache: ForwardCache, upstream: float) -> np.ndarray:
    """Gradient of ``upstream * bag_score`` w.r.t. the flattened
    parameters (same layout as :meth:`ModelParams.to_vector`), from the
    activations of the forward pass that produced ``cache`` with the
    same ``params``.

    The top-k selection is held fixed, so this is the exact gradient
    wherever the selection is locally stable. Hidden units sitting
    exactly at the relu kink contribute zero.
    """
    if not math.isfinite(upstream):
        raise FloatingPointError(f"non-finite upstream gradient {upstream}")
    topk = cache.topk
    m = topk.size
    hid = cache.hidden[topk]
    s = cache.patch_scores[topk]
    # d(bag score)/d(patch score) = 1/m on the selected patches.
    dz = (upstream / m) * s * (1.0 - s)
    d_w2 = hid.T @ dz
    d_b2 = float(np.sum(dz))
    d_hid = np.outer(dz, params.w2)
    # relu(pre) > 0 exactly where pre > 0, so the activation gives the mask.
    d_pre = d_hid * (hid > 0.0)
    d_w1 = d_pre.T @ cache.features[topk]
    d_b1 = d_pre.sum(axis=0)
    return np.concatenate([d_w1.ravel(), d_b1, d_w2, [d_b2]])


def score_bag(
    params: ModelParams, bag: Bag, fraction: float, out: np.ndarray | None = None
) -> BagScore:
    """Score every patch and aggregate the top fraction. ``out`` is an
    optional hidden-layer buffer, as for :func:`forward`."""
    _check_dim(params, bag.dim, f"bag {bag.bag_id!r}")
    cache = forward(params, bag.features, fraction, out)
    return BagScore(bag.bag_id, cache.score, cache.patch_scores, cache.topk)


def backward_bag(params: ModelParams, bag: Bag, fraction: float, upstream: float) -> np.ndarray:
    """Gradient of ``upstream * bag_score`` w.r.t. the flattened
    parameters: :func:`forward` then :func:`backward`. A zero upstream
    gives zeros without a forward pass.
    """
    _check_dim(params, bag.dim, f"bag {bag.bag_id!r}")
    if upstream == 0.0:
        return np.zeros(params.n_params)
    return backward(params, forward(params, bag.features, fraction), upstream)


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Serialize parameters in the versioned binary checkpoint format."""
    write_bytes_atomic(
        path,
        _CHECKPOINT_MAGIC
        + struct.pack("<III", _CHECKPOINT_VERSION, params.dim, params.hidden)
        + np.ascontiguousarray(params.w1, dtype="<f8").tobytes()
        + np.asarray(params.b1, dtype="<f8").tobytes()
        + np.asarray(params.w2, dtype="<f8").tobytes()
        + struct.pack("<d", params.b2),
    )


def load_checkpoint(path: str | Path) -> ModelParams:
    """Load and validate a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes (need 4 for magic)")
    if data[:4] != _CHECKPOINT_MAGIC:
        raise FormatError(
            f"{path}: bad magic {data[:4]!r} at byte 0, expected {_CHECKPOINT_MAGIC!r}"
        )
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes (need 16)")
    version, dim, hidden = struct.unpack_from("<III", data, 4)
    if version != _CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported version {version}, expected {_CHECKPOINT_VERSION}"
        )
    if dim < 1 or hidden < 1:
        raise FormatError(f"{path}: dim and hidden must be >= 1, header says {dim}, {hidden}")
    n = hidden * dim + 2 * hidden + 1
    expected = 16 + 8 * n
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - 16} bytes at byte {len(data)}, "
            f"header dim={dim} hidden={hidden} requires {expected - 16}"
        )
    vec = np.frombuffer(data, dtype="<f8", offset=16).astype(np.float64)
    if not np.all(np.isfinite(vec)):
        bad = int(np.flatnonzero(~np.isfinite(vec))[0])
        raise FormatError(f"{path}: non-finite parameter at byte {16 + 8 * bad}")
    try:
        return ModelParams.from_vector(vec, dim, hidden)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


__all__ = [
    "BagScore",
    "ForwardCache",
    "ModelParams",
    "aggregate_topk",
    "backward",
    "backward_bag",
    "forward",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "score_bag",
    "sigmoid",
]
