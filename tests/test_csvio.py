"""The numeric CSV format shared by coefficient, sample and knot-table files.

``tests/data/io_small`` holds a coefficient CSV with and without its
``# d=`` setting, d=1 and d=2 sample grids (with zero cells in their scaling
blocks, a missing cell and a repeated one), and the outputs that ``norm``,
``analyze --out``, ``save_csv`` and ``save_samples`` wrote for them before the
three formats shared one reader and one row writer.  They are compared byte
for byte.  The regression tests below each name the defect they pin; the
fuzz test drives all three formats through the CLI, and holds the reader's
bulk route to its line route.  The path-route tests hold a loader's file of
more than one read block, which np.loadtxt reads from its path, to the line
route, and pin the names and files that keep the handle's lines.
"""

import io
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from besovmorrey import csvio, dyadic, phi, wavelet
from besovmorrey.cli import main
from besovmorrey.csvio import read_rows, source_name, write_rows
from besovmorrey.dyadic import load_csv, read_csv, save_csv
from besovmorrey.errors import DomainError, TableFormatError
from besovmorrey.phi import eval_phi, load_table
from besovmorrey.wavelet import SampledFunction, load_samples, read_samples, save_samples

DATA = Path(__file__).parent / "data" / "io_small"
SPACE1 = "s=0.5,p=2,q=2,phi=power(2),d=1"
# the reader's keys, lead and float count for each of the three formats
FORMATS = {"coefficients": (("d",), 1, 1), "samples": (("d", "js"), 0, 1), "knots": ((), 0, 2)}

NORMS = [
    ("coeffs_d2.csv", "s=0.5,p=2,q=2,phi=power(2),d=2", "norm_d2_power.txt"),
    ("coeffs_d2.csv", "s=-0.25,p=1,q=inf,phi=capped(2),d=2", "norm_d2_capped.txt"),
    ("coeffs_d1.csv", "s=0.5,p=2,q=1,phi=twopower(2,4),d=1", "norm_d1_twopower.txt"),
]
ANALYZE = [
    ("samples_d1.csv", ["--moments", "1"], "analyze_d1_m1"),
    ("samples_d1.csv", ["--space", SPACE1], "analyze_d1_space"),
    ("samples_d2.csv", ["--moments", "1"], "analyze_d2_m1"),
    ("samples_d2.csv", ["--space", "s=0.25,p=2,q=2,phi=power(2),d=2"], "analyze_d2_space"),
]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_line(err):
    return err.endswith("\n") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# goldens


@pytest.mark.parametrize("seq, space, golden", NORMS)
def test_norm_matches_golden(capsys, seq, space, golden):
    code, out, err = _run(["norm", "--space", space, "--seq", str(DATA / seq)], capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / ("expected_" + golden)).read_bytes()


@pytest.mark.parametrize("samples, extra, golden", ANALYZE)
def test_analyze_out_matches_golden(tmp_path, capsys, samples, extra, golden):
    out_path = tmp_path / "coeffs.csv"
    argv = ["analyze", "--samples", str(DATA / samples), "--out", str(out_path)] + extra
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / ("expected_%s.txt" % golden)).read_bytes()
    assert out_path.read_bytes() == (DATA / ("expected_%s.csv" % golden)).read_bytes()


@pytest.mark.parametrize("name", ["coeffs_d1.csv", "coeffs_d2.csv"])
def test_save_csv_matches_golden(tmp_path, name):
    save_csv(load_csv(str(DATA / name)), str(tmp_path / name), header_lines=("io_small",))
    assert (tmp_path / name).read_bytes() == (DATA / ("expected_save_" + name)).read_bytes()


@pytest.mark.parametrize("name", ["samples_d1.csv", "samples_d2.csv"])
def test_save_samples_matches_golden(tmp_path, name):
    f = load_samples(str(DATA / name))
    save_samples(f, str(tmp_path / name), header_lines=("io_small",))
    assert (tmp_path / name).read_bytes() == (DATA / ("expected_save_" + name)).read_bytes()
    again = load_samples(str(tmp_path / name))
    assert again.offset == f.offset and np.array_equal(again.values, f.values)


# ---------------------------------------------------------------------------
# the shared reader


def test_reader_grammar():
    text = "# made by hand\n\n# D=2 JS=3 other=x\nm_1,m_2,value\n0,1,0.1\n\n-3,4,-0.0\n"
    found, ints, values = read_rows(io.StringIO(text), keys=("d", "js"))
    assert found == {"d": 2, "js": 3}
    assert ints.tolist() == [[0, 1], [-3, 4]] and ints.dtype == np.int64
    # values keep their bits: the sign of zero and every digit of 0.1
    assert values.shape == (2, 1) and values[0, 0] == 0.1
    assert np.signbit(values[1, 0])
    # a reader ignores settings it did not ask for
    assert read_rows(io.StringIO(text), keys=("d",))[0] == {"d": 2}


def test_dimension_from_the_first_row():
    text = "j,m_1,m_2,value\n1,0,3,2.5\n"
    found, ints, values = read_rows(io.StringIO(text), keys=("d",), lead=1)
    assert found == {"d": 2} and ints.tolist() == [[1, 0, 3]] and values.tolist() == [[2.5]]
    # no rows: the arrays still have the width the setting fixes
    found, ints, values = read_rows(io.StringIO("# d=3\n"), keys=("d",), lead=1)
    assert found == {"d": 3} and ints.shape == (0, 4) and values.shape == (0, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("j,m_1,value\nm,x,y\n0,0,1.0\n", "<stream>:2: malformed row 'm,x,y'"),
        ("# d=1\n0,0,1.0\n0,1\n", "<stream>:3: expected 3 fields, got 2"),
        ("# d=2\n0,0,1.0\n", "<stream>:2: expected 4 fields, got 3"),
        ("0,1.0\n", "<stream>:1: too few fields"),
        ("# d=\n0,0,1.0\n", "<stream>:1: 'd=' is not an integer setting"),
        ("# d=0\n", "<stream>:1: 'd=0': d must be positive"),
        ("0,0,1.0\n# d=2\n", "<stream>:2: 'd=2': d must be positive and match the rows"),
        ("# d=1\n0,0,1.0\n\n# note\n70,9300000000000000000000,1.0\n",
         "<stream>:5: an integer field is too large"),
    ],
    ids=["second-header", "short-row", "width-from-setting", "no-coordinates", "empty-d",
         "zero-d", "late-d", "int64-overflow"],
)
def test_reader_errors_name_the_line(text, message):
    with pytest.raises(DomainError) as info:
        read_rows(io.StringIO(text), keys=("d",), lead=1)
    assert str(info.value).startswith(message)


def test_errors_name_the_file(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("# d=1\nj,m_1,value\n0,0,1.0\n0,x,1.0\n")
    with pytest.raises(DomainError, match="^%s:4: malformed row" % re.escape(str(path))):
        load_csv(str(path))
    path.write_bytes(b"# d=1 js=1\nm_1,value\n0,\xff\n")
    with pytest.raises(DomainError, match="^%s: not UTF-8 text" % re.escape(str(path))):
        load_samples(str(path))
    with pytest.raises(DomainError, match="^<stream>: no rows and no dimension comment"):
        read_csv(io.StringIO("j,m_1,value\n"))
    with pytest.raises(DomainError, match="^<stream>: no '# js=' setting"):
        read_samples(io.StringIO("# d=1\n0,1.0\n"))


def test_knot_tables(tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text("# knots of sqrt\n\nt,phi\n0.25,0.5\n1,1\n\n4,2\n")
    spec = load_table(str(path))
    assert spec.ts == (0.25, 1.0, 4.0) and spec.vals == (0.5, 1.0, 2.0)
    assert eval_phi(spec, 4.0) == 2.0
    for text, message in [
        ("t,phi\n0.25,0.5,9\n", ":2: expected 2 fields, got 3"),
        ("t,phi\nu,phi\n0.25,0.5\n", ":2: malformed row 'u,phi'"),
        ("1,1\n0.5,2\n", ": knot abscissae must be strictly increasing"),
    ]:
        path.write_text(text)
        with pytest.raises(TableFormatError) as info:
            load_table(str(path))
        assert str(info.value) == str(path) + message


def test_write_rows():
    out = io.StringIO()
    ints = np.array([[0, -3], [1022, 7]], dtype=np.int64)
    write_rows(out, ints, np.array([0.1, -1e-300]))
    assert out.getvalue() == "0,-3,0.1\n1022,7,-1e-300\n"
    write_rows(out, np.zeros((0, 2), np.int64), np.zeros(0))
    assert out.getvalue().count("\n") == 2


# ---------------------------------------------------------------------------
# the bulk route against the line route


class _Unseekable:
    """A text handle that cannot seek, so that read_rows reads it line by line."""

    def __init__(self, fh):
        self.name, self.readline, self._fh = source_name(fh), fh.readline, fh

    def seekable(self):
        return False

    def __iter__(self):
        return iter(self._fh)


def _outcome(fh, fmt):
    """What read_rows gives for a handle: the settings and the arrays' shapes
    and bits, or the error text."""
    try:
        found, ints, values = read_rows(fh, *FORMATS[fmt])
    except DomainError as exc:
        return str(exc)
    return found, ints.shape, ints.tobytes(), values.shape, values.tobytes()


def test_bulk_route_reads_clean_files_in_one_call(monkeypatch):
    texts = ["# d=2\nj,m_1,m_2,value\n0,1,-2,0.5\n1,0,0,-0.0\n", "0,3,1e-300\n"]
    expected = [_outcome(_Unseekable(io.StringIO(text)), "coefficients") for text in texts]
    monkeypatch.setattr(csvio, "_read_lines", None)  # the line reader must not run
    assert [_outcome(io.StringIO(text), "coefficients") for text in texts] == expected
    for name, fmt in [("samples_d2.csv", "samples"), ("coeffs_d2.csv", "coefficients")]:
        with open(DATA / name, encoding="utf-8") as fh:
            found, ints, values = read_rows(fh, *FORMATS[fmt])
        assert found["d"] == 2 and len(values) > 1
        assert not ints.flags.writeable and not values.flags.writeable


_LATE = "# d=1\n" + "".join("%d,%d,0.5\n" % (i % 7, i) for i in range(60000))


_ROUTE_CASES = [
    ("coefficients", "0,0,1.0 # c\n1,0,2.0\n"),
    ("coefficients", "0,0,1.0\n1.0,0,2.0\n"),
    ("coefficients", "0,0,1.0\n1e3,0,2.0\n"),
    ("coefficients", "0,0,1.0\n1_0,0,2.0\n"),
    ("coefficients", "0,0,1.0\n\u0661,\u0e52,2.0\n"),
    ("coefficients", "0,0,1.0\n1,\uff13,2.0\n"),
    ("coefficients", "0,0,1.0\n1,\u01fe,2.0\n"),
    ("coefficients", "0,0,1.0\n1,0,\u0662.5\n"),
    ("coefficients", "0,0,1.0\n1,0,1_000.5\n"),
    ("coefficients", "0,0,1.0\n1,0,\x1c2.0\n"),
    ("coefficients", "0,\x1f0,1.0\n"),
    ("coefficients", "0,0,1.0\n1,0,2.0\x1c\n"),
    ("coefficients", "# d=1\n0,0,1.0\n# d=3\n1,0,2.0\n"),
    ("coefficients", "# d=1\n0,0,1.0\n# d=1 note\n1,0,2.0\n"),
    ("samples", "# d=1\n0,1.0\n# js=4\n1,2.0\n"),
    ("coefficients", "0,0,1.0\r\n\r\n1,1,2.0\r\n"),
    ("coefficients", "0,0,1.0\n\n   \n\t\n1,1,2.0\n\n"),
    ("coefficients", "0,0,1.0\r1,1,2.0\n"),
    ("coefficients", "j,m_1,value\n"),
    ("samples", "# d=2 js=1\nm_1,m_2,value\n"),
    ("knots", "t,phi\n"),
    ("knots", ""),
    ("coefficients", "0,0,1.0\n1,9223372036854775808,2.0\n"),
    ("coefficients", "0,-9223372036854775808,1.0\n1,9223372036854775807,2.0\n"),
    ("coefficients", "0,0,nan\n0,1,-nan\n0,2,-0.0\n0,3,1e309\n0,4,5e-324\n0,5,0.1\n"),
    ("coefficients", "0,0,1.0\n1,0,2.0,\n"),
    ("coefficients", "0,0,1.0\n1,,2.0\n"),
    ("knots", " 0.25 , 0.5 \n+1,1.\n4,2e0\n"),
    ("knots", "0.25,0.5\n1,\ufeff1\n"),
    ("samples", "# d=1 js=2\n\ufeff0,1.0\n"),
    ("coefficients", _LATE + "x,0,1.0\n"),
    ("coefficients", _LATE + "# d=1\n0,0,1.0\n"),
]
_ROUTE_IDS = [
    "inline-comment", "float-int", "exponent-int", "underscore-int", "unicode-digits",
    "fullwidth-digit", "letter-outside-ascii", "unicode-float", "underscore-float",
    "separator-float", "separator-int", "separator-at-line-end", "mid-body-d",
    "mid-body-matching-d", "mid-body-js", "crlf", "blank-lines", "lone-cr", "header-only",
    "samples-header-only", "knots-header-only", "empty", "int64-overflow", "int64-extremes",
    "float-bits", "trailing-comma", "empty-field", "spaces-and-signs", "mid-file-bom",
    "bom-after-line-1", "late-malformed-row", "late-comment",
]


@pytest.mark.parametrize("fmt, text", _ROUTE_CASES, ids=_ROUTE_IDS)
def test_bulk_and_line_routes_agree(fmt, text):
    assert _outcome(io.StringIO(text), fmt) == _outcome(_Unseekable(io.StringIO(text)), fmt)


def test_routes_agree_on_a_late_undecodable_byte(tmp_path):
    # the byte sits after 60000 rows, past loadtxt's first 50000-line chunk
    path = tmp_path / "seq.csv"
    path.write_bytes(_LATE.encode() + b"1,0,\xff2.0\n")
    with open(path, encoding="utf-8") as bulk, open(path, encoding="utf-8") as line:
        outcomes = [_outcome(bulk, "coefficients"), _outcome(_Unseekable(line), "coefficients")]
    assert outcomes == ["%s: not UTF-8 text (invalid start byte)" % path] * 2


# ---------------------------------------------------------------------------
# the path route: a loader's large file parsed by np.loadtxt from its path

LOADERS = {"coefficients": load_csv, "samples": load_samples, "knots": load_table}
# more than one 1 << 16-character block of the reader's check after any first row
_PAD = "\n" * (1 << 16)
_BIG = {
    "coefficients": _LATE,
    "samples": "# d=1 js=17\nm_1,value\n" + "".join(
        "%d,%r\n" % (i, i / 7) for i in range(20000)),
    "knots": "t,phi\n" + "".join(
        "%r,%r\n" % (2.0 ** (k / 64), 2.0 ** (k / 128)) for k in range(-3000, 3000)),
}


def _line_route(fh, path=None, **kwargs):
    return read_rows(_Unseekable(fh), **kwargs)


def _loaded(fmt, path):
    """What the loader of a format gives for a file: the object's bits, or
    the error text."""
    try:
        obj = LOADERS[fmt](path)
    except DomainError as exc:
        return str(exc)
    if fmt == "coefficients":
        return (obj.d, *(arr.tobytes() for arr in obj.cells()))
    if fmt == "samples":
        return obj.d, obj.js, obj.offset, obj.values.shape, obj.values.tobytes()
    return np.array(obj.ts).tobytes(), np.array(obj.vals).tobytes()


def _loaded_by_lines(monkeypatch, fmt, path):
    """_loaded with every loader's rows read on the line route."""
    with monkeypatch.context() as patch:
        for module in (dyadic, phi, wavelet):
            patch.setattr(module, "read_rows", _line_route)
        return _loaded(fmt, path)


@pytest.fixture
def sources(monkeypatch):
    """The first argument of each np.loadtxt call: a path, or the type of
    the lines it was given.  A relative path fails the call, so that numpy
    never takes one for a URL."""
    calls = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        assert not isinstance(fname, str) or os.path.isabs(fname), fname
        calls.append(fname if isinstance(fname, str) else type(fname))
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(csvio.np, "loadtxt", spy)
    return calls


@pytest.mark.parametrize("head", ["", "# padded\n\n"], ids=["tail", "head-and-tail"])
@pytest.mark.parametrize("fmt, text", _ROUTE_CASES, ids=_ROUTE_IDS)
def test_path_and_line_routes_agree(tmp_path, monkeypatch, fmt, text, head):
    path = tmp_path / "data.csv"
    path.write_text(head + text + _PAD, encoding="utf-8", newline="")
    assert _loaded(fmt, str(path)) == _loaded_by_lines(monkeypatch, fmt, str(path))


@pytest.mark.parametrize("fmt", sorted(_BIG))
def test_a_large_file_is_read_from_its_path(tmp_path, monkeypatch, sources, fmt):
    path = tmp_path / "data.csv"
    path.write_text(_BIG[fmt])
    expected = _loaded_by_lines(monkeypatch, fmt, str(path))
    assert sources == []
    monkeypatch.setattr(csvio, "_read_lines", None)  # the line reader must not run
    assert _loaded(fmt, str(path)) == expected
    assert sources == [str(path)]


@pytest.mark.parametrize("fmt", ["coefficients", "knots"])
def test_a_byte_order_mark_keeps_the_path_route(tmp_path, monkeypatch, sources, fmt):
    # the mark before a first row on line 1 is decoded away, as the prefix
    # reader drops it
    path = tmp_path / "data.csv"
    path.write_text("\ufeff" + _BIG[fmt].split("\n", 1)[1])
    expected = _loaded_by_lines(monkeypatch, fmt, str(path))
    assert sources == []
    monkeypatch.setattr(csvio, "_read_lines", None)  # the line reader must not run
    assert _loaded(fmt, str(path)) == expected
    assert sources == [str(path)]


def test_a_file_within_one_block_keeps_the_handle_lines(tmp_path, sources):
    path = tmp_path / "seq.csv"
    text = _LATE[:_LATE.rindex("\n", 0, 1 << 16) + 1]
    path.write_text(text)
    assert len(text) > (1 << 16) - 20
    assert load_csv(str(path)).d == 1
    assert len(sources) == 1 and not isinstance(sources[0], str)


@pytest.mark.parametrize("name", ["seq.csv.gz", "seq.csv.bz2", "seq.csv.xz", "seq.csv.lzma",
                                  "seq.csv.GZ", "seq.gz.csv"])
def test_a_suffix_numpy_decompresses_keeps_the_handle_lines(tmp_path, monkeypatch, sources,
                                                            name):
    # plain text under a compressed file's name: the path route would hand
    # it to gzip.open and friends; numpy matches the suffix case-sensitively
    path = tmp_path / name
    path.write_text(_LATE)
    assert _loaded("coefficients", str(path)) == \
        _loaded_by_lines(monkeypatch, "coefficients", str(path))
    by_path = os.path.splitext(name)[1] not in (".gz", ".bz2", ".xz", ".lzma")
    assert (sources[0] == str(path)) is by_path and len(sources) == 1


def test_a_relative_url_like_name_is_read_as_a_file(tmp_path, monkeypatch, sources):
    # "http://x" names the file x in the directory "http:"; numpy would
    # take the relative name for a URL, so the path goes absolute
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:").mkdir()
    (tmp_path / "http:" / "x").write_text(_LATE)
    assert _loaded("coefficients", "http://x") == \
        _loaded_by_lines(monkeypatch, "coefficients", "http://x")
    assert sources == [str(tmp_path / "http:" / "x")]


def test_a_file_replaced_after_the_open_keeps_the_handle_lines(tmp_path, monkeypatch,
                                                               sources):
    # numpy must not parse bytes the reader's check did not see
    path, other = tmp_path / "seq.csv", tmp_path / "other.csv"
    path.write_text(_LATE)
    expected = _loaded_by_lines(monkeypatch, "coefficients", str(path))
    other.write_text(_LATE.replace(",0.5\n", ",0.25\n"))
    read_prefix = csvio._read_prefix

    def replaced(fh, *args):
        found = read_prefix(fh, *args)
        os.replace(other, path)
        return found

    monkeypatch.setattr(csvio, "_read_prefix", replaced)
    assert _loaded("coefficients", str(path)) == expected
    assert len(sources) == 1 and not isinstance(sources[0], str)
    assert not other.exists() and "0.25" in path.read_text()


def test_path_types(tmp_path, monkeypatch, sources):
    # a pathlib.Path takes the path route; bytes, which numpy's reader
    # does not open, keep the handle's lines
    path = tmp_path / "seq.csv"
    path.write_text(_LATE)
    expected = _loaded_by_lines(monkeypatch, "coefficients", str(path))
    assert _loaded("coefficients", path) == expected
    assert _loaded("coefficients", os.fsencode(path)) == expected
    assert sources[0] == str(path) and not isinstance(sources[1], str) and len(sources) == 2


# ---------------------------------------------------------------------------
# the byte-order mark


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    # the mark made the first line the header: a row was lost, or a setting
    # line was skipped and rows of another width accepted
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbf0,0,2.0\n1,0,3.0\n")
    code, out, err = _run(_argv("norm", path, tmp_path), capsys)
    assert (code, err) == (0, "") and "entries=2\n" in out
    path.write_bytes(b"\xef\xbb\xbf# d=2\n0,0,2.0\n1,0,3.0\n")
    code, out, err = _run(_argv("norm", path, tmp_path), capsys)
    assert (code, out, err) == (65, "", "%s:2: expected 4 fields, got 3\n" % path)
    path.write_bytes(b"\xef\xbb\xbf# d=1 js=2\n0,1.0\n1,2.0\n")
    f = load_samples(str(path))
    assert (f.d, f.js, f.values.tolist()) == (1, 2, [1.0, 2.0])
    path.write_bytes(b"\xef\xbb\xbf0.25,0.5\n1,1\n4,2\n")
    assert load_table(str(path)).ts == (0.25, 1.0, 4.0)


# ---------------------------------------------------------------------------
# regression tests: each of these failed before the shared reader


@pytest.mark.parametrize(
    "kind, text, line",
    [
        ("norm", "j,m_1,value\n0.5,0,7.0\nx,1,9.0\n1,0,2.0\n", "2: malformed row '0.5,0,7.0'"),
        ("analyze", "# d=1 js=2\nm_1,value\nx,7.0\n0,1.0\n1,2.0\n", "3: malformed row 'x,7.0'"),
        ("table", "t,value\nbad,row\n0.25,0.5\n1,1\n4,2\n", "2: malformed row 'bad,row'"),
    ],
    ids=["norm", "analyze", "table"],
)
def test_malformed_leading_rows_are_errors(tmp_path, capsys, kind, text, line):
    # the old readers skipped every non-numeric row before the first good one
    path = tmp_path / "data.csv"
    path.write_text(text)
    code, out, err = _run(_argv(kind, path, tmp_path), capsys)
    assert code == 65 and out == ""
    assert _one_line(err) and err.endswith("%s:%s\n" % (path, line))


@pytest.mark.parametrize("kind", ["norm", "analyze", "table"])
def test_undecodable_bytes_exit_65(tmp_path, capsys, kind):
    path = tmp_path / "data.csv"
    rows = {"norm": b"# d=1\n0,0,\xff1.0\n", "analyze": b"# d=1 js=1\n0,\xff1.0\n",
            "table": b"t,value\n0.25,0.5\n1,\xff1\n"}
    path.write_bytes(rows[kind])
    code, _, err = _run(_argv(kind, path, tmp_path), capsys)
    assert code == 65 and _one_line(err) and "%s: not UTF-8 text" % path in err


def test_empty_dimension_setting_exits_65(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    path.write_text("# d=\nj,m_1,value\n0,0,1.0\n")
    code, _, err = _run(_argv("norm", path, tmp_path), capsys)
    assert (code, err) == (65, "%s:1: 'd=' is not an integer setting\n" % path)


def test_sample_dimension_must_be_positive(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("# d=0 js=2\nvalue\n1.0\n")
    code, _, err = _run(_argv("analyze", path, tmp_path), capsys)
    assert code == 65 and _one_line(err) and err.startswith("%s:1: 'd=0'" % path)
    assert not (tmp_path / "out.csv").exists()
    with pytest.raises(DomainError, match="dimension must be a positive integer"):
        SampledFunction(d=0, js=2, offset=(), values=np.array(1.0))


def test_sample_box_is_capped_before_allocating(tmp_path, capsys):
    # without the cap these two cells ask for a 14.9 GiB box
    assert wavelet.MAX_BOX_CELLS == 1 << 24
    path = tmp_path / "samples.csv"
    path.write_text("# d=1 js=2\nm_1,value\n0,1.0\n2000000000,1.0\n")
    tracemalloc.start()
    try:
        code, _, err = _run(_argv("analyze", path, tmp_path), capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 65 and peak < 1 << 24
    assert err == "%s: the cells span a box of 2000000001 cells; the cap is %d\n" % (
        path, 1 << 24)


def test_sample_cells_and_level_stay_in_range(tmp_path, capsys):
    # both made the cascade build coefficient cells or levels that no
    # sequence can hold: a traceback with exit 1
    path = tmp_path / "samples.csv"
    for text, message in [
        ("# d=1 js=3\n-9223372036854775808,1.0\n", "sample cells must lie within +-2^62"),
        ("# d=1 js=3000\n0,1.0\n1,2.0\n", "resolution level must satisfy 0 <= js*d <= 1022"),
        ("# d=2 js=512\n0,0,1.0\n", "resolution level must satisfy 0 <= js*d <= 1022"),
    ]:
        path.write_text(text)
        code, _, err = _run(_argv("analyze", path, tmp_path), capsys)
        assert (code, err) == (65, "%s: %s\n" % (path, message))


def test_cascade_is_capped_before_allocating(tmp_path, capsys):
    # one cell in d=6 under a 20-tap filter used to ask for tens of GiB
    assert wavelet.MAX_BOX_CELLS == 1 << 24
    path = tmp_path / "samples.csv"
    path.write_text("# d=6 js=2\n0,0,0,0,0,0,1.0\n")
    code, _, err = _run(["analyze", "--samples", str(path), "--moments", "10"], capsys)
    assert code == 64 and _one_line(err) and "the cascade exceeds" in err


def test_analyze_errors_name_the_file(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("# d=1 js=1\nm_1,value\n0,1.0\n1,nan\n")
    code, _, err = _run(_argv("analyze", path, tmp_path), capsys)
    assert (code, err) == (65, "%s: sample value at cell (1,) is not finite\n" % path)


# ---------------------------------------------------------------------------
# fuzz: every file either parses or fails with one line and a documented code

_ODD_FIELDS = st.sampled_from([
    "", "x", " 3 ", "1_0", "\x1c1", "\u0661", "\u01fe", "nan", "inf", "1e309", "-0.0", "0.5",
    str(2 ** 70),
    "9223372036854775807", "-9223372036854775808", "2000000000", "4611686018427387905",
])


def _rarely(odd, usual):
    """odd one draw in ten, else usual."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 7 else usual)


_INTS = _rarely(_ODD_FIELDS, st.integers(-6, 6).map(str))
_FLOATS = _rarely(st.one_of(_ODD_FIELDS, st.floats().map(repr)), st.floats(-1e3, 1e3).map(repr))
_SETTINGS = st.lists(
    st.one_of(
        st.sampled_from(["d=1", "d=2", "js=1", "js=3", "D=2", "JS=2"]),
        st.builds("{}={}".format, st.sampled_from(["d", "js"]),
                  st.sampled_from([-1, 0, 3, 40, 511, 1022, 3000])),
        st.sampled_from(["d=", "js=x", "d=1.5", "note", "x=y", "d=99999999999999999999"]),
    ),
    max_size=3,
).map(lambda tokens: "# " + " ".join(tokens))
_ODD_LINES = st.one_of(
    st.sampled_from(["", "   ", "#", "j,m_1,value", "m_1,m_2,value", "t,phi", "value"]),
    _SETTINGS,
    st.lists(st.one_of(_INTS, _FLOATS), min_size=1, max_size=4).map(",".join),
)


@st.composite
def _files(draw):
    """A coefficient, sample or knot file, mostly well formed, then up to two
    odd lines inserted anywhere and, sometimes, bytes that are not UTF-8;
    drawn with the dimension a space for it should have."""
    kind = draw(st.sampled_from(["coefficients", "samples", "knots"]))
    d = draw(st.integers(1, 2))
    if kind == "knots":  # a power law sampled at powers of two
        exponent = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        knots = sorted(set(draw(st.lists(st.integers(-70, 70), min_size=2, max_size=6))))
        lines = ["t,phi"] + ["%r,%r" % (2.0 ** k, 2.0 ** (k * exponent)) for k in knots]
    else:
        lead = 1 if kind == "coefficients" else 0
        js = draw(st.sampled_from([0, 1, 3, 5]))
        lines = ["# d=%d js=%d" % (d, js), "m" + ",m" * (lead + d - 1) + ",value"]
        levels = _rarely(_ODD_FIELDS, st.integers(0, 6).map(str))
        ints = st.lists(_INTS, min_size=d, max_size=d)
        rows = st.tuples(st.lists(levels, min_size=lead, max_size=lead), ints, _FLOATS)
        for j, m, val in draw(st.lists(rows, min_size=1, max_size=6)):
            lines.append(",".join(j + m + [val]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINES))
    tail = draw(_rarely(st.just(b"\n\xff\xfe\n"), st.just(b"\n")))
    return "\n".join(lines).encode() + tail, d


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_files())
def test_fuzz_file_formats(tmp_path, capsys, drawn):
    assert wavelet.MAX_BOX_CELLS == 1 << 24  # some draws ask for a 2^31-cell box
    content, d = drawn
    path = tmp_path / "data.csv"
    # rewriting a just-written file in place stalls on its write-back; a new
    # file does not
    path.unlink(missing_ok=True)
    path.write_bytes(content)
    for kind in ("norm", "analyze", "table"):
        code, _, err = _run(_argv(kind, path, tmp_path, d=d), capsys)
        assert code in (0, 1, 2, 64, 65), (kind, content)
        assert "Traceback" not in err
        assert (_one_line(err) if code >= 64 else err == ""), (kind, content, err)
    for fmt in FORMATS:
        with open(path, encoding="utf-8") as bulk, open(path, encoding="utf-8") as line:
            assert _outcome(bulk, fmt) == _outcome(_Unseekable(line), fmt), (fmt, content)


# ---------------------------------------------------------------------------
# helpers


def _argv(kind, path, tmp_path, d=1):
    space = "s=0.5,p=2,q=2,phi=power(2),d=%d" % d
    if kind == "norm":
        return ["norm", "--space", space, "--seq", str(path)]
    if kind == "analyze":
        return ["analyze", "--samples", str(path), "--space", space,
                "--out", str(tmp_path / "out.csv")]
    return ["check", "--source", "s=1,p=2,q=2,phi=table(%s),d=1" % path,
            "--target", "s=0,p=2,q=2,phi=power(2),d=1"]
