"""Synthetic bag generator with a planted witness signal.

Background patches are standard normal in ``dim`` dimensions. Each
positive bag hides ``ceil(witness_rate * K)`` witness patches whose
mean is shifted by ``shift`` along a hidden unit direction; with
``shift = 0`` positives are statistically indistinguishable from
negatives, which gives a null experiment for the whole pipeline.

The hidden direction depends only on (seed, dim), while bag contents
also fold in ``stream_id``. Generating a second dataset with the same
seed but a different ``stream_id`` therefore yields fresh bags that
share the same planted signal - exactly what a train/validation pair
needs.

Every bag is a pure function of the config and its starting state in
the counter-based :class:`~rankmil.numerics.Rng` stream, which
:func:`plan_bags` works out for all bags up front. :func:`generate`
draws every bag in memory from its plan; :func:`write_synth`, which the
``synth`` command runs, draws and writes one bag at a time and, on large
configs, splits the bags over forked worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .data import Bag, Dataset, write_feature_file, write_manifest
from .numerics import Rng, ceil_frac, derive
from .parallel import map_chunks, worker_count

# Substream salts, fixed forever alongside the generator constants.
_DIRECTION_SALT = 0x64697265  # "dire"
_BAG_SALT = 0x62616773  # "bags"


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 32
    n_pos: int = 20
    n_neg: int = 60
    patches_min: int = 300
    patches_max: int = 600
    witness_rate: float = 0.1
    shift: float = 1.5
    seed: int = 1
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.n_pos < 0 or self.n_neg < 0:
            raise ValueError(f"bag counts must be >= 0, got {self.n_pos}, {self.n_neg}")
        if not (1 <= self.patches_min <= self.patches_max):
            raise ValueError(
                f"need 1 <= patches_min <= patches_max, got "
                f"{self.patches_min}, {self.patches_max}"
            )
        if not (0.0 < self.witness_rate <= 1.0):
            raise ValueError(f"witness_rate must be in (0, 1], got {self.witness_rate}")
        if not (self.shift >= 0.0 and math.isfinite(self.shift)):
            raise ValueError(f"shift must be >= 0 and finite, got {self.shift}")


def signal_direction(seed: int, dim: int) -> np.ndarray:
    """The hidden unit direction shared by every dataset generated with
    this seed and dimension."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = Rng(derive(seed, _DIRECTION_SALT))
    while True:
        v = rng.gauss_block(dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


class BagPlan(NamedTuple):
    """Where one bag of a :class:`SynthConfig` sits in its random stream."""

    bag_id: str
    label: int
    state: int  # the Rng state the bag's draws start from
    patches: int


def plan_bags(cfg: SynthConfig) -> Iterator[BagPlan]:
    """Every bag's id, label, patch count K and starting Rng state, in
    generation order (positives first, then negatives), drawing only
    the patch counts. This owns the per-bag draw layout: the patch
    count, then the K*dim background values row-major (2*ceil(K*dim/2)
    draws, as :meth:`~rankmil.numerics.Rng.gauss_block` draws pairs),
    then, for positive bags only, the K - 1 draws of the witness-position
    shuffle. So any bag can be drawn on its own from its plan, in any
    order or process."""
    rng = Rng(derive(cfg.seed, _BAG_SALT, cfg.stream_id))
    span = cfg.patches_max - cfg.patches_min + 1
    for label, count, prefix in ((1, cfg.n_pos, "pos"), (0, cfg.n_neg, "neg")):
        for i in range(count):
            state = rng.state
            k = cfg.patches_min + rng.bounded_int(span)
            yield BagPlan(f"{prefix}_{i:04d}", label, state, k)
            rng.skip(2 * ((k * cfg.dim + 1) // 2) + (k - 1 if label == 1 else 0))


def _draw_bag(cfg: SynthConfig, u: np.ndarray, plan: BagPlan) -> Bag:
    """The bag at ``plan``; ``u`` is the config's signal direction.
    Witness rows are background plus ``shift * u``."""
    rng = Rng(plan.state)
    rng.skip(1)  # the patch count, drawn by plan_bags
    k = plan.patches
    features = rng.gauss_block(k * cfg.dim).reshape(k, cfg.dim)
    if plan.label == 1:
        n_wit = ceil_frac(cfg.witness_rate, k)
        positions = list(range(k))
        rng.shuffle(positions)
        features[sorted(positions[:n_wit])] += cfg.shift * u
    return Bag(plan.bag_id, plan.label, features)


def generate(cfg: SynthConfig) -> Dataset:
    """Every bag of :func:`plan_bags`, drawn deterministically, in memory."""
    u = signal_direction(cfg.seed, cfg.dim)
    return Dataset(tuple(_draw_bag(cfg, u, plan) for plan in plan_bags(cfg)))


def write_synth(cfg: SynthConfig, out_dir: str | Path) -> list[tuple[str, int, str]]:
    """Write the bags of :func:`generate` as one feature file each, then
    ``manifest.csv``; returns the manifest rows. The bags are drawn and
    written by forked worker processes when there are enough patch rows
    for it (see :mod:`rankmil.parallel`). Each process holds one bag at a
    time. The manifest is written atomically after every feature file, so
    an interrupted write never leaves a manifest naming a missing file.
    Reruns are byte-identical."""
    out_dir = Path(out_dir)
    plans = list(plan_bags(cfg))
    u = signal_direction(cfg.seed, cfg.dim)

    rows = [(plan.bag_id, plan.label, f"{plan.bag_id}.milf") for plan in plans]

    def write_chunk(chunk: Sequence[tuple[BagPlan, tuple[str, int, str]]]) -> None:
        for plan, (_, _, rel) in chunk:
            write_feature_file(out_dir / rel, _draw_bag(cfg, u, plan).features)

    map_chunks(list(zip(plans, rows)), write_chunk, worker_count(plan.patches for plan in plans))
    write_manifest(out_dir / "manifest.csv", rows)
    return rows


__all__ = [
    "BagPlan",
    "SynthConfig",
    "generate",
    "plan_bags",
    "signal_direction",
    "write_synth",
]
