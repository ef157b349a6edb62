"""Instance scorer and bag-level aggregation.

Each patch row f gets a score in (0, 1) from a one-hidden-layer MLP,
``sigmoid(w2 . relu(w1 f + b1) + b2)``, and a bag's score is the mean
of its top fraction of patch scores. The top-k selection is frozen
during the backward pass; since the aggregate is piecewise linear in
the patch scores, that gradient is exact everywhere selection is
locally stable.

:func:`forward` writes a bag's hidden layer into the model's scratch
array, so a training loop or a scoring pass reuses one allocation
across bags, and returns a :class:`ForwardCache` with copies of the
top-k rows of the features and the hidden layer, the only rows the
gradient reads, so the scratch is free again once it returns.
:func:`backward` takes that cache and computes the parameter gradient
without a second forward pass.
:func:`score_bag` and :func:`backward_bag` wrap the two for one bag.

Checkpoint format: magic ``MILM`` | version: u32 LE | dim: u32 |
hidden: u32 | the parameter vector :attr:`ModelParams.vec` as float64
LE, in the one layout :func:`_pack` defines.
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
_HEADER_BYTES = 16  # the magic, then version, dim and hidden as u32


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, never overflowing.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _pack(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: float) -> np.ndarray:
    """The one parameter layout, ``[w1 row-major, b1, w2, b2]``, shared by
    the model, gradients, optimizer state and the checkpoint payload."""
    return np.concatenate([np.ravel(w1), b1, w2, [b2]])


def _n_params(dim: int, hidden: int) -> int:
    """The length of a :func:`_pack` vector."""
    return hidden * dim + 2 * hidden + 1


class ModelParams:
    """MLP weights ``w1`` (hidden, dim), ``b1`` (hidden,), ``w2``
    (hidden,) and scalar ``b2``, owned by one C-contiguous float64 copy
    ``vec`` of the given vector, in the :func:`_pack` layout. ``w1``,
    ``b1`` and ``w2`` are views into ``vec`` and ``b2`` reads its last
    element, so writing ``vec`` in place updates every one of them.
    ``dim`` and ``hidden`` must be >= 1 and ``vec`` finite, of length
    ``hidden * dim + 2 * hidden + 1``, or ``ValueError`` is raised.
    :func:`forward` writes into the model's hidden-layer scratch, grown
    to the largest bag the model has scored and kept until the model is
    freed; a new model starts with an empty one. Single-owner: one
    instance must not be shared across concurrent callers."""

    def __init__(self, vec: np.ndarray, dim: int, hidden: int) -> None:
        if dim < 1 or hidden < 1:
            raise ValueError(f"dim and hidden must be >= 1, got dim={dim}, hidden={hidden}")
        n = _n_params(dim, hidden)
        if np.shape(vec) != (n,):
            raise ValueError(f"expected vector of length {n}, got shape {np.shape(vec)}")
        vec = np.array(vec, dtype=np.float64)
        if not np.isfinite(vec).all():
            raise ValueError("parameters contain non-finite values")
        n_w1 = hidden * dim
        self.vec = vec
        self.w1 = vec[:n_w1].reshape(hidden, dim)
        self.b1 = vec[n_w1 : n_w1 + hidden]
        self.w2 = vec[n_w1 + hidden : n_w1 + 2 * hidden]
        self._scratch = np.empty((0, hidden))

    def _hidden_rows(self, n: int) -> np.ndarray:
        """The first ``n`` rows of the scratch. A smaller scratch is dropped
        before a larger one is allocated, so only one is ever alive."""
        if n > self._scratch.shape[0]:
            del self._scratch
            self._scratch = np.empty((n, self.hidden))
        return self._scratch[:n]

    @property
    def b2(self) -> float:
        return float(self.vec[-1])

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams.from_vector(self.vec, self.dim, self.hidden)

    def to_vector(self) -> np.ndarray:
        """A copy of ``vec``."""
        return self.vec.copy()

    @classmethod
    def from_vector(cls, vec: np.ndarray, dim: int, hidden: int) -> "ModelParams":
        """``cls(vec, dim, hidden)``: parameters owning a float64 copy of
        ``vec``, which must be in the :func:`_pack` layout."""
        return cls(vec, dim, hidden)


@dataclass(frozen=True)
class BagScore:
    """A scored bag: ``score`` is the mean of ``patch_scores`` over
    ``topk_indices`` (reported in ascending index order)."""

    bag_id: str
    score: float
    patch_scores: np.ndarray
    topk_indices: np.ndarray


def init_params(dim: int, hidden: int, rng: Rng) -> ModelParams:
    """Glorot-uniform weights, zero biases, for ``dim`` and ``hidden``
    as :class:`ModelParams` accepts them.

    Each weight matrix is drawn row-major from
    ``uniform(-L, L), L = sqrt(6 / (fan_in + fan_out))``; w1 first,
    then w2.
    """
    params = ModelParams(np.zeros(_n_params(dim, hidden)), dim, hidden)
    limit1 = math.sqrt(6.0 / (dim + hidden))
    params.w1[:] = ((2.0 * rng.uniform_block(hidden * dim) - 1.0) * limit1).reshape(hidden, dim)
    limit2 = math.sqrt(6.0 / (hidden + 1))
    params.w2[:] = (2.0 * rng.uniform_block(hidden) - 1.0) * limit2
    return params


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

    ``features`` and ``hidden`` are the (m, dim) float64 input of the
    first layer and the (m, hidden) relu activation at the m rows of
    ``topk``, in its ascending order: copies, so the model's scratch
    may be written again.
    """

    features: np.ndarray
    hidden: np.ndarray
    patch_scores: np.ndarray
    topk: np.ndarray
    score: float


def forward(params: ModelParams, features: np.ndarray, fraction: float) -> ForwardCache:
    """Score one bag's (patches, dim) features and keep the activations
    for :func:`backward`.

    float32 features, as loaded from a binary feature file, are widened
    to float64 first. The widening is exact, so the model sees the same
    values and gives the same bits as for float64 features; the cache
    keeps the widened top-k rows, so :func:`backward` runs in float64 too.

    The (patches, hidden) hidden layer is written into the first rows of
    the model's scratch (see :class:`ModelParams`), which grows first if
    the bag is larger than any before it.
    """
    features = features.astype(np.float64, copy=False)
    out = params._hidden_rows(features.shape[0])
    np.matmul(features, params.w1.T, out=out)
    np.add(out, params.b1, out=out)
    np.maximum(out, 0.0, out=out)
    z = out @ params.w2 + params.b2
    if not np.isfinite(z).all():
        raise FloatingPointError("non-finite patch pre-activation; model has diverged")
    patch_scores = sigmoid(z)
    score, topk = aggregate_topk(patch_scores, fraction)
    return ForwardCache(features[topk], out[topk], patch_scores, topk, score)


def backward(params: ModelParams, cache: ForwardCache, upstream: float) -> np.ndarray:
    """Gradient of ``upstream * bag_score`` w.r.t. the flattened
    parameters (the :attr:`ModelParams.vec` layout), from the
    activations of the forward pass that produced ``cache`` with the
    same ``params``.

    The top-k selection is held fixed, so this is the exact gradient
    wherever the selection is locally stable. Hidden units sitting
    exactly at the relu kink contribute zero.
    """
    if not math.isfinite(upstream):
        raise FloatingPointError(f"non-finite upstream gradient {upstream}")
    m, hid = cache.topk.size, cache.hidden
    s = cache.patch_scores[cache.topk]
    # d(bag score)/d(patch score) = 1/m on the selected patches.
    dz = (upstream / m) * s * (1.0 - s)
    d_w2 = hid.T @ dz
    d_b2 = float(np.sum(dz))
    d_hid = np.outer(dz, params.w2)
    # relu(pre) > 0 exactly where pre > 0, so the activation gives the mask.
    d_pre = d_hid * (hid > 0.0)
    d_w1 = d_pre.T @ cache.features
    d_b1 = d_pre.sum(axis=0)
    return _pack(d_w1, d_b1, d_w2, d_b2)


def score_bag(params: ModelParams, bag: Bag, fraction: float) -> BagScore:
    """Score every patch and aggregate the top fraction, through the
    model's scratch as :func:`forward` does. A bag whose dim is not the
    model's raises ``ValueError``, naming the bag."""
    _check_dim(params, bag.dim, f"bag {bag.bag_id!r}")
    cache = forward(params, bag.features, fraction)
    return BagScore(bag.bag_id, cache.score, cache.patch_scores, cache.topk)


def backward_bag(params: ModelParams, bag: Bag, fraction: float, upstream: float) -> np.ndarray:
    """Gradient of ``upstream * bag_score`` w.r.t. the flattened
    parameters: :func:`forward` then :func:`backward`."""
    _check_dim(params, bag.dim, f"bag {bag.bag_id!r}")
    return backward(params, forward(params, bag.features, fraction), upstream)


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Serialize parameters in the versioned binary checkpoint format."""
    header = _CHECKPOINT_MAGIC + struct.pack("<III", _CHECKPOINT_VERSION, params.dim, params.hidden)
    write_bytes_atomic(path, header + params.vec.astype("<f8", copy=False).tobytes())


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
    if len(data) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes (need {_HEADER_BYTES})")
    version, dim, hidden = struct.unpack_from("<III", data, 4)
    if version != _CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported version {version}, expected {_CHECKPOINT_VERSION}"
        )
    if dim < 1 or hidden < 1:
        raise FormatError(f"{path}: dim and hidden must be >= 1, header says {dim}, {hidden}")
    payload = 8 * _n_params(dim, hidden)
    if len(data) != _HEADER_BYTES + payload:
        raise FormatError(
            f"{path}: payload is {len(data) - _HEADER_BYTES} bytes at byte {len(data)}, "
            f"header dim={dim} hidden={hidden} requires {payload}"
        )
    vec = np.frombuffer(data, dtype="<f8", offset=_HEADER_BYTES)
    if not np.isfinite(vec).all():
        bad = int(np.flatnonzero(~np.isfinite(vec))[0])
        raise FormatError(f"{path}: non-finite parameter at byte {_HEADER_BYTES + 8 * bad}")
    return ModelParams.from_vector(vec, dim, hidden)


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
