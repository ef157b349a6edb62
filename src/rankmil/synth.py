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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .data import Bag, Dataset, write_feature_file, write_manifest
from .numerics import Rng, ceil_frac, derive

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


def iter_bags(cfg: SynthConfig) -> Iterator[Bag]:
    """Generate positives first, then negatives, deterministically, one
    bag at a time.

    Per bag, the draw order is: patch count, then all K*dim background
    values row-major, then (positive bags only) the witness-position
    shuffle. Witness rows are background plus ``shift * u``.
    """
    u = signal_direction(cfg.seed, cfg.dim)
    rng = Rng(derive(cfg.seed, _BAG_SALT, cfg.stream_id))
    span = cfg.patches_max - cfg.patches_min + 1
    for label, count, prefix in ((1, cfg.n_pos, "pos"), (0, cfg.n_neg, "neg")):
        for i in range(count):
            k = cfg.patches_min + rng.bounded_int(span)
            features = rng.gauss_block(k * cfg.dim).reshape(k, cfg.dim)
            if label == 1:
                n_wit = ceil_frac(cfg.witness_rate, k)
                positions = list(range(k))
                rng.shuffle(positions)
                features[sorted(positions[:n_wit])] += cfg.shift * u
            yield Bag(f"{prefix}_{i:04d}", label, features)


def generate(cfg: SynthConfig) -> Dataset:
    """All of :func:`iter_bags` in memory."""
    return Dataset(tuple(iter_bags(cfg)), cfg.dim)


def write_dataset(bags: Iterable[Bag], out_dir: str | Path) -> list[tuple[str, int, str]]:
    """Write one feature file per bag, taking the bags one at a time,
    then ``manifest.csv``; returns the manifest rows. The manifest is
    written atomically after every feature file, so an interrupted write
    never leaves a manifest naming a missing file. Reruns with identical
    content are byte-identical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, int, str]] = []
    for bag in bags:
        rel = f"{bag.bag_id}.milf"
        write_feature_file(out_dir / rel, bag.features)
        rows.append((bag.bag_id, bag.label, rel))
    write_manifest(out_dir / "manifest.csv", rows)
    return rows


__all__ = ["SynthConfig", "generate", "iter_bags", "signal_direction", "write_dataset"]
