import os
import re
import struct

import numpy as np
import pytest

from rankmil.data import (
    Bag,
    Dataset,
    FormatError,
    iter_dataset,
    load_dataset,
    load_feature_file,
    load_manifest,
    write_bytes_atomic,
    write_feature_file,
    write_manifest,
)
from rankmil.numerics import Rng


def _bag(bag_id, label, rows):
    return Bag(bag_id, label, np.asarray(rows, dtype=np.float64))


def test_bag_validation():
    bag = _bag("a", 1, [[1.0, 2.0], [3.0, 4.0]])
    assert bag.n_patches == 2
    assert bag.dim == 2
    with pytest.raises(ValueError, match="label"):
        _bag("a", 2, [[1.0]])
    with pytest.raises(ValueError, match="non-empty"):
        Bag("", 0, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="2-d float64"):
        Bag("a", 0, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        _bag("a", 0, [[np.nan]])


def test_dataset_validation():
    ds = Dataset((_bag("a", 1, [[0.0]]), _bag("b", 0, [[1.0]])), 1)
    assert len(ds) == 2
    assert ds.n_pos == 1
    assert ds.n_neg == 1
    with pytest.raises(ValueError, match="duplicate"):
        Dataset((_bag("a", 1, [[0.0]]), _bag("a", 0, [[1.0]])), 1)
    with pytest.raises(ValueError, match="dim"):
        Dataset((_bag("a", 1, [[0.0, 1.0]]),), 1)


def test_feature_file_round_trip(tmp_path):
    """load -> write reproduces the original bytes; f32 storage means
    write -> load only quantizes, a second round-trip is stable."""
    path = tmp_path / "x.milf"
    features = Rng(4).gauss_block(6).reshape(3, 2)
    write_feature_file(path, features)
    loaded = load_feature_file(path)
    assert loaded.shape == (3, 2)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, features.astype(np.float32).astype(np.float64))
    again = tmp_path / "y.milf"
    write_feature_file(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_feature_file_minimal_example(tmp_path):
    path = tmp_path / "m.milf"
    path.write_bytes(b"MILF" + struct.pack("<II", 1, 2) + struct.pack("<2f", 1.5, -2.0))
    assert np.array_equal(load_feature_file(path), [[1.5, -2.0]])


def test_feature_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(load_feature_file(path), [[1.0, 2.0], [3.0, 4.0]])


def test_feature_csv_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_feature_file(ragged)
    bad = tmp_path / "b.csv"
    bad.write_text("1.0,x\n")
    with pytest.raises(FormatError, match="column 2"):
        load_feature_file(bad)
    inf = tmp_path / "i.csv"
    inf.write_text("1.0,inf\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_feature_file(inf)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="no rows"):
        load_feature_file(empty)


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "x.milf"
    path.write_bytes(b"MILX" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
    with pytest.raises(FormatError, match="bad magic.*byte 0"):
        load_feature_file(path)


def test_feature_file_truncations(tmp_path):
    path = tmp_path / "x.milf"
    path.write_bytes(b"MI")
    with pytest.raises(FormatError, match="truncated header"):
        load_feature_file(path)
    path.write_bytes(b"MILF" + struct.pack("<I", 3))
    with pytest.raises(FormatError, match="truncated header"):
        load_feature_file(path)
    # Header promises 2x2 but the payload holds three floats.
    path.write_bytes(b"MILF" + struct.pack("<II", 2, 2) + struct.pack("<3f", 1, 2, 3))
    with pytest.raises(FormatError, match="requires 16"):
        load_feature_file(path)


def test_feature_file_rejects_nonfinite_and_zero_dims(tmp_path):
    path = tmp_path / "x.milf"
    path.write_bytes(b"MILF" + struct.pack("<II", 1, 2) + struct.pack("<2f", 1.0, np.inf))
    with pytest.raises(FormatError, match="non-finite value at byte 16"):
        load_feature_file(path)
    path.write_bytes(b"MILF" + struct.pack("<II", 0, 2))
    with pytest.raises(FormatError, match=">= 1"):
        load_feature_file(path)


def test_write_feature_file_validation(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        write_feature_file(tmp_path / "x.milf", np.zeros((0, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        write_feature_file(tmp_path / "x.milf", np.array([[np.inf]]))


def test_manifest_round_trip(tmp_path):
    rows = [("a", 1, "a.milf"), ("b", 0, "sub/b.milf")]
    path = tmp_path / "manifest.csv"
    write_manifest(path, rows)
    assert load_manifest(path) == rows
    assert path.read_bytes().endswith(b"\n")


def test_manifest_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,label,path\n")
    with pytest.raises(FormatError, match="bad header"):
        load_manifest(path)
    path.write_text("")
    with pytest.raises(FormatError, match="empty manifest"):
        load_manifest(path)
    path.write_text("bag_id,label,path\na,2,a.milf\n")
    with pytest.raises(FormatError, match="line 2.*label"):
        load_manifest(path)
    path.write_text("bag_id,label,path\na,1\n")
    with pytest.raises(FormatError, match="expected 3 fields"):
        load_manifest(path)


def test_manifest_malformed_csv_and_bytes(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('bag_id,label,path\na,1,"' + "x" * 200_000 + '"\n')
    with pytest.raises(FormatError, match=re.escape(f"{path}: field larger than field limit")):
        load_manifest(path)
    path.write_bytes(b"bag_id,label,path\na,1,\xffa.milf\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: 'utf-8' codec can't decode byte 0xff")):
        load_manifest(path)


def _write_dataset(tmp_path, entries):
    """entries: list of (bag_id, label, features).  Returns manifest path."""
    rows = []
    for bag_id, label, features in entries:
        rel = f"{bag_id}.milf"
        write_feature_file(tmp_path / rel, np.asarray(features, dtype=np.float64))
        rows.append((bag_id, label, rel))
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest


def test_load_dataset(tmp_path):
    manifest = _write_dataset(
        tmp_path,
        [("a", 1, [[1.0] * 8]), ("b", 0, [[2.0] * 8, [3.0] * 8])],
    )
    ds = load_dataset(manifest)
    assert ds.dim == 8
    assert [b.bag_id for b in ds.bags] == ["a", "b"]
    assert ds.bags[1].n_patches == 2


def test_load_dataset_dimension_mismatch_names_both_bags(tmp_path):
    manifest = _write_dataset(tmp_path, [("a", 1, [[1.0] * 8]), ("b", 0, [[1.0] * 16])])
    with pytest.raises(ValueError, match="'b' has dim 16.*'a' has dim 8"):
        load_dataset(manifest)


def test_load_dataset_duplicate_and_missing(tmp_path):
    manifest = _write_dataset(tmp_path, [("a", 1, [[1.0]])])
    write_manifest(manifest, [("a", 1, "a.milf"), ("a", 0, "a.milf")])
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(manifest)
    write_manifest(manifest, [("a", 1, "gone.milf")])
    with pytest.raises(FileNotFoundError, match="gone.milf"):
        load_dataset(manifest)


def test_load_dataset_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, [])
    ds = load_dataset(manifest)
    assert len(ds) == 0
    assert ds.dim == 0


def test_iter_dataset_reads_each_file_when_its_bag_is_reached(tmp_path):
    manifest = _write_dataset(tmp_path, [("a", 1, [[1.0] * 3]), ("b", 0, [[2.0] * 3])])
    (tmp_path / "b.milf").write_bytes(b"JUNK")
    bags = iter_dataset(manifest)
    assert next(bags).bag_id == "a"
    with pytest.raises(FormatError, match="bad magic"):
        next(bags)


def test_iter_dataset_abandoned_holds_no_file(tmp_path):
    manifest = _write_dataset(tmp_path, [("a", 1, [[1.0]]), ("b", 0, [[2.0]])])
    bags = iter_dataset(manifest)
    next(bags)
    # A leaked handle would raise ResourceWarning, which the suite makes an error.
    del bags


def test_write_bytes_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    write_bytes_atomic(path, b"first\n")
    write_bytes_atomic(path, b"second\n")
    assert path.read_bytes() == b"second\n"
    assert os.listdir(tmp_path) == ["out.csv"]


class _HalfWriter:
    """A file object that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_write_bytes_atomic_failure_keeps_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "model.milm"
    write_bytes_atomic(path, b"previous contents")
    if failure == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: _HalfWriter(real_fdopen(fd, mode)))
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write_bytes_atomic(path, b"new contents that never land")
    assert path.read_bytes() == b"previous contents"
    assert os.listdir(tmp_path) == ["model.milm"]
