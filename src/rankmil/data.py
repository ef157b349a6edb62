"""Bags of patch feature vectors and their on-disk formats.

A bag is one sample: a variable-length set of fixed-width feature rows
with a single binary label. These file formats live here:

feature file (binary)
    magic ``MILF`` | patch count K: u32 LE | feature dim D: u32 LE |
    K*D float32 LE, row-major. :func:`iter_dataset` and
    :func:`load_dataset` keep a bag's values as the file's float32, half
    the memory of float64; :func:`load_feature_file` widens them to
    float64. Both are exact, and writing narrows back, so load -> write
    round-trips byte-identically.

feature file (text)
    a path ending in ``.csv`` is parsed as K rows of D comma-separated
    decimals, no header; a blank line may only trail the rows.

keyed tables
    The manifest, the score CSV and the covariate table are CSVs whose
    first column is ``bag_id``; :func:`keyed_table` reads all three. A
    table has a header; blank rows are skipped; every other row has the
    header's field count and a ``bag_id`` that is not empty and not
    repeated.

manifest
    A keyed table with the exact header ``bag_id,label,path``; label is 0
    or 1; relative paths resolve against the manifest's directory.
"""

from __future__ import annotations

import csv
import io
import math
import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

_FEATURE_MAGIC = b"MILF"
_HEADER_LEN = 12  # magic + K + D
_FEATURE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class FormatError(ValueError):
    """A file violates one of the formats documented in this module."""


@dataclass(frozen=True)
class Bag:
    """One labelled bag: ``features`` has shape (patches, dim), float64,
    or float32 as read from a binary feature file."""

    bag_id: str
    label: int
    features: np.ndarray

    def __post_init__(self) -> None:
        if not self.bag_id:
            raise ValueError("bag_id must be non-empty")
        if self.label not in (0, 1):
            raise ValueError(f"bag {self.bag_id!r}: label must be 0 or 1, got {self.label}")
        f = self.features
        if not isinstance(f, np.ndarray) or f.ndim != 2 or f.dtype not in _FEATURE_DTYPES:
            raise ValueError(
                f"bag {self.bag_id!r}: features must be a 2-d float64 or float32 array"
            )
        if f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError(f"bag {self.bag_id!r}: features must be non-empty, got {f.shape}")
        if not np.isfinite(f).all():
            raise ValueError(f"bag {self.bag_id!r}: features contain non-finite values")

    @property
    def n_patches(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of bags sharing one feature dimension.

    ``dim`` is 0 only for the empty dataset.
    """

    bags: tuple[Bag, ...]
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bags", tuple(self.bags))
        seen: set[str] = set()
        for bag in self.bags:
            if bag.bag_id in seen:
                raise ValueError(f"duplicate bag_id {bag.bag_id!r}")
            seen.add(bag.bag_id)
            if bag.dim != self.dim:
                raise ValueError(
                    f"bag {bag.bag_id!r} has dim {bag.dim}, dataset dim is {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.bags)

    def __iter__(self) -> Iterator[Bag]:
        return iter(self.bags)

    @property
    def n_pos(self) -> int:
        return sum(1 for b in self.bags if b.label == 1)

    @property
    def n_neg(self) -> int:
        return sum(1 for b in self.bags if b.label == 0)


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and ``os.replace``: a reader, or a failed write, sees the
    previous file or the complete new one, never a partial file. The
    temporary file is removed if anything fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_writable_features(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError(f"features must be a non-empty 2-d array, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    return features


def write_feature_file(path: str | Path, features: np.ndarray) -> None:
    """Write a binary feature file atomically (see
    :func:`write_bytes_atomic`). float64 input is narrowed to the float32
    storage format."""
    features = _check_writable_features(features)
    header = _FEATURE_MAGIC + struct.pack("<II", *features.shape)
    write_bytes_atomic(path, b"".join((header, features.astype("<f4", order="C"))))


def _load_feature_csv(path: Path) -> np.ndarray:
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    rows: list[list[float]] = []
    blank = 0  # line number of the first blank line since the last row
    for lineno, raw in enumerate(io.StringIO(text, newline=""), start=1):
        line = raw.rstrip("\r\n")
        if line == "":
            blank = blank or lineno
            continue
        if blank:  # only trailing blank lines are allowed
            raise FormatError(f"{path}: line {blank}: empty line in feature CSV")
        cells = line.split(",")
        vals = []
        for col, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}, column {col}: not a number: {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise FormatError(
                    f"{path}: line {lineno}, column {col}: non-finite value {cell!r}"
                )
            vals.append(v)
        if rows and len(vals) != len(rows[0]):
            raise FormatError(
                f"{path}: line {lineno}: expected {len(rows[0])} values, got {len(vals)}"
            )
        rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: feature CSV has no rows")
    return np.asarray(rows, dtype=np.float64)


def load_feature_file(path: str | Path) -> np.ndarray:
    """Load one feature file (binary, or CSV when the name ends in
    ``.csv``) as a (patches, dim) float64 array."""
    return _read_features(Path(path)).astype(np.float64, copy=False)


def _read_features(path: Path) -> np.ndarray:
    """One feature file at its stored precision: a CSV as float64, a
    binary file as float32 (on a little-endian host, a read-only view of
    the file's bytes)."""
    if path.name.endswith(".csv"):
        return _load_feature_csv(path)

    data = path.read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes (need 4 for magic)")
    if data[:4] != _FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at byte 0, expected {_FEATURE_MAGIC!r}")
    if len(data) < _HEADER_LEN:
        raise FormatError(
            f"{path}: truncated header, {len(data)} bytes (need {_HEADER_LEN})"
        )
    k, d = struct.unpack_from("<II", data, 4)
    if k < 1 or d < 1:
        raise FormatError(f"{path}: patch count and dim must be >= 1, header says {k}x{d}")
    expected = _HEADER_LEN + 4 * k * d
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - _HEADER_LEN} bytes at byte {len(data)}, "
            f"header {k}x{d} requires {expected - _HEADER_LEN}"
        )
    raw = np.frombuffer(data, dtype="<f4", offset=_HEADER_LEN)
    finite = np.isfinite(raw)
    if not finite.all():
        offset = _HEADER_LEN + 4 * int(np.argmin(finite))
        raise FormatError(f"{path}: non-finite value at byte {offset}")
    return raw.reshape(k, d).astype(np.float32, copy=False)


@contextmanager
def csv_reader(path: str | Path) -> Iterator:
    """A ``csv.reader`` over a UTF-8 file. Inside the block, a malformed
    record (say, a field over the csv module's size limit) or bytes that
    are not UTF-8 raise :class:`FormatError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


@contextmanager
def keyed_table(path: str | Path, what: str) -> Iterator:
    """Read a keyed table (see the module docstring) inside a
    :func:`csv_reader` block. Yields ``(header, rows)``, ``rows`` a lazy
    generator of ``(line number, fields)`` per non-blank row, the line
    number being that of the row's first line (a quoted field may span
    lines). A broken rule raises :class:`FormatError` naming the file and
    the row's line; an empty file, ``"<path>: empty <what>"``."""
    with csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty {what}")

        def rows() -> Iterator[tuple[int, list[str]]]:
            seen: set[str] = set()
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if row == []:
                    continue
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                if not row[0]:
                    raise FormatError(f"{path}: line {lineno}: empty bag_id")
                if row[0] in seen:
                    raise FormatError(f"{path}: line {lineno}: duplicate bag_id {row[0]!r}")
                seen.add(row[0])
                yield lineno, row

        yield header, rows()


def load_manifest(path: str | Path) -> list[tuple[str, int, str]]:
    """Parse a manifest CSV into (bag_id, label, path) rows. A malformed
    row, a repeated ``bag_id`` included, raises :class:`FormatError`
    naming its line."""
    path = Path(path)
    rows: list[tuple[str, int, str]] = []
    with keyed_table(path, "manifest") as (header, records):
        if header != ["bag_id", "label", "path"]:
            raise FormatError(
                f"{path}: bad header {','.join(header)!r}, expected 'bag_id,label,path'"
            )
        for lineno, (bag_id, label_str, rel) in records:
            if label_str not in ("0", "1"):
                raise FormatError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {label_str!r}"
                )
            if not rel:
                raise FormatError(f"{path}: line {lineno}: empty path")
            rows.append((bag_id, int(label_str), rel))
    return rows


def write_csv_atomic(path: str | Path, rows: Iterable[Sequence[object]]) -> None:
    """Write CSV rows, header first, as UTF-8 with LF line endings,
    atomically (see :func:`write_bytes_atomic`). A field that holds a
    comma, a double quote, a line feed or a carriage return is quoted,
    so :func:`csv_reader` gives the same fields back."""
    lines: list[str] = []
    # csv.writer quotes a field holding a character of its line terminator:
    # "\r\n" makes it quote a bare "\r" too, and each line is cut to "\n".
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    write_bytes_atomic(path, "".join(line[:-2] + "\n" for line in lines).encode("utf-8"))


def write_manifest(path: str | Path, rows: list[tuple[str, int, str]]) -> None:
    """Write manifest rows with LF line endings and a trailing newline,
    atomically (see :func:`write_csv_atomic`)."""
    write_csv_atomic(path, [("bag_id", "label", "path"), *rows])


def iter_dataset(manifest_path: str | Path) -> Iterator[Bag]:
    """Yield every bag referenced by a manifest, in manifest order,
    reading each feature file only when its bag is requested. A binary
    file's bag keeps its float32 values (see the module docstring).

    The manifest is parsed before the first bag is yielded, so a
    malformed manifest, a duplicate ``bag_id`` included, raises before
    any bag is read. A missing file, a malformed file or a bag whose dim
    differs from the first bag's raises when the iteration reaches it.
    """
    manifest_path = Path(manifest_path)
    rows = load_manifest(manifest_path)
    base = manifest_path.parent
    first: tuple[str, int] | None = None  # (bag_id, dim) of the first bag
    for bag_id, label, rel in rows:
        feature_path = base / rel  # an absolute rel replaces base
        if not feature_path.exists():
            raise FileNotFoundError(
                f"{manifest_path}: bag {bag_id!r} references missing file {feature_path}"
            )
        features = _read_features(feature_path)
        if first is None:
            first = (bag_id, features.shape[1])
        elif features.shape[1] != first[1]:
            raise ValueError(
                f"{manifest_path}: bag {bag_id!r} has dim {features.shape[1]}, "
                f"but bag {first[0]!r} has dim {first[1]}"
            )
        yield Bag(bag_id, label, features)


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load every bag referenced by a manifest, in manifest order."""
    bags = tuple(iter_dataset(manifest_path))
    return Dataset(bags, bags[0].dim if bags else 0)


__all__ = [
    "Bag",
    "Dataset",
    "FormatError",
    "csv_reader",
    "iter_dataset",
    "keyed_table",
    "load_dataset",
    "load_feature_file",
    "load_manifest",
    "write_bytes_atomic",
    "write_csv_atomic",
    "write_feature_file",
    "write_manifest",
]
