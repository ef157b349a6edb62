"""Random truncations and byte flips of every file format the CLI reads
(covariate table, score CSV, manifest, binary and text feature files,
checkpoint):
the readers either load the file or raise FormatError, never any other
exception. And random text written by the CSV writer reads back as the
same fields."""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmil.cli import _read_score_csv
from rankmil.data import (
    FormatError,
    csv_reader,
    load_feature_file,
    load_manifest,
    write_csv_atomic,
)
from rankmil.metrics import load_covariates
from rankmil.model import load_checkpoint

_COVARIATES = (
    b"bag_id,tme_t_cells_cd8,gene_00001,tme_fibroblasts\n"
    b"pos_0000,3.9811,,2.2104\n"
    b"neg_0001,2.5123,0.4471,3.0117\n"
    b'"neg_0002",-1.5e-3,12.75,\n'
    b"pos_0003,,8.0,1.0\n"
)
_SCORES = (
    b"bag_id,score,label\n"
    b"pos_0000,0.912345,1\n"
    b"neg_0001,0.104400,0\n"
    b"neg_0002,0.500000,0\n"
    b"pos_0003,0.750001,1\n"
)

_MANIFEST = (
    b"bag_id,label,path\n"
    b"pos_0000,1,pos_0000.milf\n"
    b'"neg_0001",0,sub/neg_0001.milf\n'
    b"\n"
    b"neg_0002,0,/abs/neg_0002.milf\n"
)
# A 3x2 feature file, binary and text, and a dim-2, hidden-2 checkpoint, in
# the layouts documented in rankmil.data and rankmil.model.
_FEATURES = b"MILF" + struct.pack("<II", 3, 2) + np.arange(6, dtype="<f4").tobytes()
_FEATURE_CSV = b"0.5,-1.25\n2e-3,4\n1.0,0\n"
_CHECKPOINT = (
    b"MILM" + struct.pack("<III", 1, 2, 2) + np.linspace(-1.0, 1.0, 9).astype("<f8").tobytes()
)


def _mutations(original: bytes):
    """The original bytes cut at a random length, with up to four bytes
    replaced by random values."""
    n = len(original)
    return st.tuples(
        st.integers(0, n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), max_size=4),
    ).map(lambda cut_flips: _apply(original, *cut_flips))


def _apply(original: bytes, cut: int, flips) -> bytes:
    data = bytearray(original)
    for index, value in flips:
        data[index] = value
    return bytes(data[:cut])


def _loads_or_format_error(reader, data: bytes, name: str = "input.csv") -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            reader(path)
        except FormatError:
            pass


@settings(max_examples=300, deadline=None, database=None)
@given(_mutations(_COVARIATES))
def test_mutated_covariate_table_raises_only_format_error(data):
    _loads_or_format_error(load_covariates, data)


@settings(max_examples=300, deadline=None, database=None)
@given(_mutations(_SCORES))
def test_mutated_score_csv_raises_only_format_error(data):
    _loads_or_format_error(lambda path: _read_score_csv(str(path)), data)


@settings(max_examples=300, deadline=None, database=None)
@given(_mutations(_MANIFEST))
def test_mutated_manifest_raises_only_format_error(data):
    _loads_or_format_error(load_manifest, data)


@settings(max_examples=300, deadline=None, database=None)
@given(_mutations(_FEATURES))
def test_mutated_feature_file_raises_only_format_error(data):
    _loads_or_format_error(load_feature_file, data, "input.milf")


@settings(max_examples=300, deadline=None, database=None)
@given(_mutations(_FEATURE_CSV))
def test_mutated_feature_csv_raises_only_format_error(data):
    _loads_or_format_error(load_feature_file, data)


@settings(max_examples=300, deadline=None, database=None)
@given(_mutations(_CHECKPOINT))
def test_mutated_checkpoint_raises_only_format_error(data):
    _loads_or_format_error(load_checkpoint, data, "input.milm")


# Any text that UTF-8 can encode: every code point but the surrogates.
_FIELDS = st.text(st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(_FIELDS, min_size=1, max_size=4), max_size=5))
def test_written_csv_rows_read_back_identically(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv_atomic(path, rows)
        with csv_reader(path) as reader:
            assert list(reader) == rows
