import os
import re
import struct

import numpy as np
import pytest

from rankmil.cli import _read_score_csv
from rankmil.data import (
    Bag,
    Dataset,
    FormatError,
    iter_rows,
    load_dataset,
    load_feature_file,
    load_manifest,
    write_bytes_atomic,
    write_feature_file,
    write_manifest,
)
from rankmil.metrics import load_covariates
from rankmil.numerics import Rng
from rankmil.synth import SynthConfig, generate

from conftest import write_bags


def _bag(bag_id, label, rows):
    return Bag(bag_id, label, np.asarray(rows, dtype=np.float64))


def test_bag_validation():
    bag = _bag("a", 1, [[1.0, 2.0], [3.0, 4.0]])
    assert bag.features.shape[0] == 2
    assert bag.dim == 2
    with pytest.raises(ValueError, match="label"):
        _bag("a", 2, [[1.0]])
    with pytest.raises(ValueError, match="non-empty"):
        Bag("", 0, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="2-d float64"):
        Bag("a", 0, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        _bag("a", 0, [[np.nan]])


def test_bag_feature_dtypes():
    rows = [[1.5, -2.0]]
    for dtype in (np.float64, np.float32):
        assert Bag("a", 0, np.asarray(rows, dtype=dtype)).features.dtype == dtype
    for dtype in (np.float16, np.int64):
        with pytest.raises(ValueError, match="2-d float64"):
            Bag("a", 0, np.asarray(rows, dtype=dtype))


def test_dataset_validation():
    ds = Dataset((_bag("a", 1, [[0.0]]), _bag("b", 0, [[1.0]])))
    assert len(ds) == 2
    assert ds.n_pos == 1
    assert ds.n_neg == 1
    assert ds.dim == 1
    with pytest.raises(ValueError, match="duplicate"):
        Dataset((_bag("a", 1, [[0.0]]), _bag("a", 0, [[1.0]])))
    with pytest.raises(ValueError, match="bag 'b' has dim 2, dataset dim is 1"):
        Dataset((_bag("a", 1, [[0.0]]), _bag("b", 0, [[0.0, 1.0]])))


def test_feature_file_round_trip(tmp_path):
    """load -> write reproduces the original bytes; f32 storage means
    write -> load only quantizes, a second round-trip is stable."""
    path = tmp_path / "x.milf"
    features = Rng(4).gauss_block(6).reshape(3, 2)
    write_feature_file(path, features)
    loaded = load_feature_file(path)
    assert loaded.shape == (3, 2)
    assert loaded.dtype == np.float32 and not loaded.flags.writeable
    assert np.array_equal(loaded, features.astype(np.float32).astype(np.float64))
    again = tmp_path / "y.milf"
    write_feature_file(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    column_major = tmp_path / "z.milf"
    write_feature_file(column_major, np.asfortranarray(features))
    assert column_major.read_bytes() == path.read_bytes()


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
    binary = tmp_path / "x.csv"
    binary.write_bytes(b"1,2\n3,\xff\n")
    with pytest.raises(FormatError, match=re.escape(f"{binary}: 'utf-8' codec can't decode")):
        load_feature_file(binary)


def test_feature_csv_blank_lines_only_trail_the_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,4\n\n\r\n")
    assert np.array_equal(load_feature_file(path), [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("1,2\n\n\n3,4\n")
    with pytest.raises(FormatError) as err:
        load_feature_file(path)
    assert str(err.value) == f"{path}: line 2: empty line in feature CSV"
    path.write_text("\n1,2\n")
    with pytest.raises(FormatError, match="line 1: empty line"):
        load_feature_file(path)


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


# The three keyed tables by the name their empty-file error gives, each as
# (reader, header, a row for a bag_id, the bag_ids in what the reader returned).
_KEYED_TABLES = {
    "manifest": (
        load_manifest, "bag_id,label,path", "{},1,{}.milf", lambda rows: [r[0] for r in rows],
    ),
    "score CSV": (
        lambda path: _read_score_csv(str(path)), "bag_id,score,label", "{},0.5,1",
        lambda read: read[0],
    ),
    "covariate table": (
        load_covariates, "bag_id,x,y", "{},1.5,", lambda table: list(table.bag_ids),
    ),
}


@pytest.mark.parametrize("table", sorted(_KEYED_TABLES))
def test_keyed_table_rules_hold_for_every_reader(tmp_path, table):
    read, header, row, ids_of = _KEYED_TABLES[table]
    path = tmp_path / "t.csv"

    def error(text):
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            read(path)
        return str(err.value)

    a, b = row.format("a", "a"), row.format("b", "b")
    assert error("") == f"{path}: empty {table}"
    assert error(f"{header}\n{a}\nc,1\n") == f"{path}: line 3: expected 3 fields, got 2"
    assert error(f"{header}\n{a}\n{a}\n") == f"{path}: line 3: duplicate bag_id 'a'"
    assert error(f"{header}\n\n{row.format('', 'x')}\n") == f"{path}: line 3: empty bag_id"
    path.write_text(f"{header}\n\n{a}\n\n\n{b}\n\n")
    assert ids_of(read(path)) == ["a", "b"]
    path.write_text(f"{header}\n")
    assert ids_of(read(path)) == []


@pytest.mark.parametrize("table", sorted(_KEYED_TABLES))
def test_keyed_table_errors_name_the_line_a_row_starts_on(tmp_path, table):
    read, header, row, _ = _KEYED_TABLES[table]
    path = tmp_path / "t.csv"
    spanning = row.format('"a\nb"', "a")  # a quoted bag_id on lines 2 and 3
    path.write_text(f"{header}\n{spanning}\nc,1\n")
    with pytest.raises(FormatError) as err:
        read(path)
    assert str(err.value) == f"{path}: line 4: expected 3 fields, got 2"


def test_load_dataset(tmp_path):
    manifest = write_bags(
        tmp_path,
        [_bag("a", 1, [[1.0] * 8]), _bag("b", 0, [[2.0] * 8, [3.0] * 8])],
    )
    ds = load_dataset(manifest)
    assert ds.dim == 8
    assert [b.bag_id for b in ds.bags] == ["a", "b"]
    assert ds.bags[1].features.shape[0] == 2


def test_load_dataset_keeps_float32_file_values(tmp_path):
    """A binary file's bag holds the stored float32 values, exactly what
    load_feature_file returns; a CSV file's stays float64."""
    features = Rng(6).gauss_block(12).reshape(4, 3)
    write_feature_file(tmp_path / "a.milf", features)
    np.savetxt(tmp_path / "b.csv", features, delimiter=",", fmt="%.17g")
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, [("a", 1, "a.milf"), ("b", 0, "b.csv")])
    a, b = load_dataset(manifest)
    assert a.features.dtype == np.float32
    assert np.array_equal(a.features, load_feature_file(tmp_path / "a.milf"))
    assert b.features.dtype == np.float64
    assert np.array_equal(b.features, features)


def test_load_dataset_dimension_mismatch_names_both_bags(tmp_path):
    manifest = write_bags(tmp_path, [_bag("a", 1, [[1.0] * 8]), _bag("b", 0, [[1.0] * 16])])
    with pytest.raises(ValueError, match="'b' has dim 16.*'a' has dim 8"):
        load_dataset(manifest)


def test_load_dataset_dim_mismatch_fails_before_the_next_file_is_read(tmp_path):
    manifest = write_bags(tmp_path, [_bag("a", 1, [[1.0] * 8]), _bag("b", 0, [[1.0] * 16])])
    (tmp_path / "c.milf").write_bytes(b"JUNK" * 8)
    write_manifest(manifest, [("a", 1, "a.milf"), ("b", 0, "b.milf"), ("c", 0, "c.milf")])
    with pytest.raises(ValueError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"{manifest}: bag 'b' has dim 16, but bag 'a' has dim 8"


def test_load_dataset_duplicate_and_missing(tmp_path):
    manifest = write_bags(tmp_path, [_bag("a", 1, [[1.0]])])
    write_manifest(manifest, [("a", 1, "a.milf"), ("a", 0, "a.milf")])
    with pytest.raises(FormatError, match="line 3: duplicate bag_id 'a'"):
        load_dataset(manifest)
    write_manifest(manifest, [("a", 1, "gone.milf")])
    with pytest.raises(FileNotFoundError, match="gone.milf"):
        load_dataset(manifest)
    # open() rejects a NUL byte with ValueError; it is still a missing file.
    write_manifest(manifest, [("a", 1, "x\0y.milf")])
    with pytest.raises(FileNotFoundError) as info:
        load_dataset(manifest)
    assert str(info.value) == (
        f"{manifest}: bag 'a' references missing file {manifest.parent / 'x'}\0y.milf"
    )


def test_empty_dataset_has_dim_0(tmp_path):
    """An empty dataset has no bag to take a dim from, however it is made."""
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, [])
    loaded = load_dataset(manifest)
    generated = generate(SynthConfig(n_pos=0, n_neg=0))
    for ds in (loaded, generated, Dataset(())):
        assert len(ds) == 0
        assert ds.dim == 0


def test_iter_rows_reads_each_file_when_its_bag_is_reached(tmp_path):
    manifest = write_bags(tmp_path, [_bag("a", 1, [[1.0] * 3]), _bag("b", 0, [[2.0] * 3])])
    (tmp_path / "b.milf").write_bytes(b"JUNK")
    bags = iter_rows(manifest, load_manifest(manifest))
    assert next(bags).bag_id == "a"
    with pytest.raises(FormatError, match="bad magic"):
        next(bags)


def test_iter_rows_abandoned_holds_no_file(tmp_path):
    manifest = write_bags(tmp_path, [_bag("a", 1, [[1.0]]), _bag("b", 0, [[2.0]])])
    bags = iter_rows(manifest, load_manifest(manifest))
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


_WRITERS = {
    "bytes": lambda path: write_bytes_atomic(path, b"new contents that never land"),
    "milf": lambda path: write_feature_file(path, np.ones((3, 2))),
}


@pytest.mark.parametrize(
    "failure, writer",
    [("write", "bytes"), ("replace", "bytes"), ("write", "milf"), ("replace", "milf")],
    ids=["write", "replace", "write-milf", "replace-milf"],
)
def test_write_bytes_atomic_failure_keeps_previous_file(tmp_path, monkeypatch, failure, writer):
    path = tmp_path / "model.milm"
    write_bytes_atomic(path, b"previous contents")
    if failure == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: _HalfWriter(real_fdopen(fd, mode)))
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        _WRITERS[writer](path)
    assert path.read_bytes() == b"previous contents"
    assert os.listdir(tmp_path) == ["model.milm"]
