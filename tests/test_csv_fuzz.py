"""Random truncations and byte flips of every file format the CLI reads
(covariate table, score CSV, manifest, binary and text feature files,
checkpoint):
the readers either load the file or raise FormatError, never any other
exception. A keyed table of random text written by the CSV writer reads
back as the same fields. And the covariate table's fast reader gives the
row reader's table, or leaves the file to it."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmil.cli import _read_score_csv
from rankmil.data import (
    FormatError,
    keyed_table,
    load_feature_file,
    load_manifest,
    write_csv_atomic,
)
from rankmil.metrics import _read_covariate_rows, _read_plain_covariates, load_covariates
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


def _keyed_rows(width: int):
    """A header and up to five rows of ``width`` fields, each row's first
    field a distinct non-empty key, as a keyed table requires."""
    fields = st.lists(_FIELDS, min_size=width - 1, max_size=width - 1)
    rows = st.lists(
        st.tuples(_FIELDS.filter(bool), fields), max_size=5, unique_by=lambda row: row[0]
    ).map(lambda rows: [[key, *rest] for key, rest in rows])
    return st.tuples(st.lists(_FIELDS, min_size=width, max_size=width), rows)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(_keyed_rows))
def test_written_csv_rows_read_back_identically(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv_atomic(path, [header, *rows])
        with keyed_table(path, "table") as (read_header, records):
            assert read_header == header
            assert [fields for _, fields in records] == rows


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER_CELLS = st.one_of(
    st.builds(lambda v, n: f"{v:.{n}f}", _FINITE, st.integers(0, 20)),
    _FINITE.map(lambda v: f"{v:e}"),
    _FINITE.map(repr),
    st.just(""),
)
# Non-finite spellings, and text that float() and numpy's parser may read
# differently: whitespace, an ASCII separator, an underscore, an
# Arabic-Indic digit, a quoted number, a byte that is not UTF-8.
_ODD_CELLS = st.sampled_from([
    "nan", "NaN", "inf", "-Infinity", "1e999", "x", "#", "1_0", " ", "\t2", "\u0661", '"7"',
    "\x1c1", "0x10", "+.5", "\udcff",
])


def _one_in(n: int):
    """True about once in ``n`` draws."""
    return st.sampled_from([False] * (n - 1) + [True])


_COVARIATE_CELLS = _one_in(10).flatmap(lambda odd: _ODD_CELLS if odd else _NUMBER_CELLS)
_COVARIATE_IDS = _one_in(10).flatmap(
    lambda odd: st.sampled_from(["", '"q"', '"a,b"', "a\rb", "\u00e9"]) if odd
    else st.from_regex(r"(pos|neg)_00[0-4][0-9]", fullmatch=True)
)


@st.composite
def _covariate_files(draw) -> bytes:
    """A covariate table, often malformed: a bad or repeated name, ragged
    rows, empty and repeated ids, blank lines, CR line ends, no rows."""
    names = draw(st.lists(st.sampled_from(["x", "y", "gene_00001", "tme_b"]), unique=True,
                          min_size=1, max_size=4))
    if draw(_one_in(20)):
        names.append(names[0])
    key = "id" if draw(_one_in(20)) else "bag_id"
    lines = [",".join([key, *names])]
    for _ in range(draw(st.integers(0, 5))):
        if draw(_one_in(10)):
            lines.append("")
            continue
        width = len(names) + draw(st.sampled_from([0] * 18 + [-1, 1]))
        cells = draw(st.lists(_COVARIATE_CELLS, min_size=width, max_size=width))
        lines.append(",".join([draw(_COVARIATE_IDS), *cells]))
    ends = draw(st.lists(st.sampled_from(["\n"] * 38 + ["\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)).encode("utf-8", "surrogateescape")


def _same_table(a, b) -> bool:
    """Equal names, ids and value bits, NaN included."""
    return (
        a.names == b.names
        and a.bag_ids == b.bag_ids
        and a.values.shape == b.values.shape
        and np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
    )


@settings(max_examples=500, deadline=None, database=None)
@given(_covariate_files())
def test_fast_covariate_reader_agrees_with_row_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cov.csv"
        path.write_bytes(data)
        fast = _read_plain_covariates(path)
        try:
            expected = _read_covariate_rows(path)
        except FormatError as exc:
            assert fast is None
            with pytest.raises(FormatError) as err:
                load_covariates(path)
            assert str(err.value) == str(exc)
            return
        assert fast is None or _same_table(fast, expected)
        assert _same_table(load_covariates(path), expected)


def test_perfbench_shaped_covariate_table_takes_the_fast_reader(tmp_path):
    """Log-normal %.4f cells, 5% of them blank, ids like pos_0000: the
    shape of the benchmark's cohort table."""
    rng = np.random.default_rng(5)
    values = rng.lognormal(1.0, 1.0, size=(40, 30))
    blank = rng.random(values.shape) < 0.05
    ids = [f"{kind}_{i:04d}" for kind in ("pos", "neg") for i in range(20)]
    lines = ["bag_id," + ",".join(f"gene_{j:05d}" for j in range(30))]
    for bag_id, row, gaps in zip(ids, values.tolist(), blank.tolist()):
        lines.append(bag_id + "," + ",".join("" if g else f"{v:.4f}" for v, g in zip(row, gaps)))
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(lines) + "\n")
    fast = _read_plain_covariates(path)
    assert fast is not None
    assert blank.any() and np.array_equal(np.isnan(fast.values), blank)
    assert _same_table(fast, _read_covariate_rows(path))


def test_unquoted_field_over_the_csv_limit_takes_the_row_reader(tmp_path):
    path = tmp_path / "cov.csv"
    for row in ("a" * 200_000 + ",1.5", "a,0." + "0" * 200_000 + "1"):
        path.write_text(f"bag_id,x\n{row}\n")
        assert _read_plain_covariates(path) is None
        with pytest.raises(FormatError, match="field larger than field limit"):
            load_covariates(path)
    # Lines longer than the limit are plain while every field is within it.
    names = [f"gene_{j:05d}" for j in range(20_000)]
    path.write_text("bag_id," + ",".join(names) + "\na," + ",".join(["1.25"] * 20_000) + "\n")
    table = _read_plain_covariates(path)
    assert table is not None and table.names == tuple(names) and table.values.shape == (1, 20_000)
