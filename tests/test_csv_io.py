"""CSV readers and writers of the three file formats: number format, field
counts, line numbers past the first block or chunk, CRLF, CR and blank lines
across chunk edges, and grids larger than one block; the memory a read holds;
every number the writer writes read back bit for bit, and what a write over
an existing file leaves."""

import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsim import (
    MalformedInputError,
    PhaseSpaceGrid,
    SampleSet,
    SqueezedVacuum,
    WignerField,
    binned_variance,
    read_samples_csv,
    read_variance_csv,
    read_wigner_csv,
    sample,
    wigner_gaussian,
    write_samples_csv,
    write_variance_csv,
    write_wigner_csv,
)
from cvsim import _csvio
from cvsim._csvio import _BLOCK, _CHUNK, _read_csv, _write_csv
from cvsim.states import vacuum_state
from csv_readback import read_back

SPECIAL = [
    np.nan,
    np.inf,
    -np.inf,
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    2.2250738585072014e-308,
    0.1,
    1.0 / 3.0,
]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def samples_file(tmp_path, count=_BLOCK + 9, seed=3):
    ss = sample(SqueezedVacuum(0.7), count, seed=seed)
    path = tmp_path / "s.csv"
    write_samples_csv(ss, str(path))
    return ss, path


def same_doubles(got, want):
    """Bit for bit, -0.0 apart from 0.0, with every NaN alike: a NaN is
    written nan, whatever its sign and payload."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return got.shape == want.shape and np.array_equal(np.isnan(got), nan) and np.array_equal(
        bits(got[~nan]), bits(want[~nan]))


def assert_written_bit_for_bit(tmp_path, values):
    """write_samples_csv writes `values` as `phase,x` lines, phases first,
    whose every cell reads back as its double through float() and through
    _read_csv, and every non-finite one as nan, inf or -inf."""
    half = len(values) // 2
    ss = SampleSet(phases=values[:half], values=values[half : 2 * half], model=None)
    path = tmp_path / "values.csv"
    write_samples_csv(ss, str(path))
    text = path.read_bytes().decode("ascii")
    header, read = read_back(text)
    want = np.column_stack([ss.phases, ss.values])
    assert header == "phase,x" and same_doubles(read, want)
    cells = text.partition("\n")[2].replace("\n", ",").split(",")
    special = np.flatnonzero(~np.isfinite(want.ravel())).tolist()
    assert [cells[i] for i in special] == [repr(want.flat[i].item()) for i in special]
    phases, xs = _read_csv(str(path), ["phase", "x"], "sample")
    assert same_doubles(phases, ss.phases) and same_doubles(xs, ss.values)


def test_number_format_round_trips_special_values(tmp_path):
    values = np.array(SPECIAL)
    finite = values[np.isfinite(values)]
    # NaN and the infinities send their block to repr, the finite ones alone go to orjson
    for column in (values, finite):
        assert_written_bit_for_bit(tmp_path, np.concatenate([column[::-1], column]))
        # np.nan, canonical, reads back as itself
        back = read_samples_csv(str(tmp_path / "values.csv"))
        assert np.array_equal(bits(back.phases), bits(column[::-1]))
        assert np.array_equal(bits(back.values), bits(column))


#: short decimals, the fraction of 0.5 losing 16 trailing zeros
SHORT = [0.5, 0.25, 2.0, 1.5, 123456.0, 1e16, 1e17, 1e22, 1e23, 1e-5]
#: every tie of the double-double path: M / 2**24 * 10**23 and M / 2**25 * 10**24 end in .5
INEXACT_TIES = [m / 2.0**24 for m in range(3, 17, 2)] + [1 / 2.0**25, 3 / 2.0**25]


def odd_ties(rng, count):
    """Exact ties at 17 digits: odd M / 2**17 in [1, 10) has 18 digits, the last a 5."""
    return (2 * rng.integers(2**16, 5 * 2**17, count) + 1) / 2.0**17


def powers_of_ten():
    """The doubles nearest 10**d, d = -323 .. 308."""
    return np.array([float(f"1e{d}") for d in range(-323, 309)])


def fuzz_values(rng):
    """Seeded values over the whole double range, about 2.05 million."""

    def signed(values):
        return rng.choice([-1.0, 1.0], values.size) * values

    decades = np.repeat(np.arange(-320, 309), 1000)
    neighbours = (powers_of_ten().view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
    mantissas = rng.integers(1, 2**53, 400_000).astype(float)
    values = np.concatenate([
        # random bit patterns: every exponent, both signs, NaN, inf, subnormals
        rng.integers(0, 2**64, 800_000, dtype=np.uint64).view(np.float64),
        # every decade from 1e-320 to 1e308, 1000 values each
        signed(10.0 ** (decades + rng.random(decades.size))),
        # the nextafter neighbours of each power of ten, 8 ulps either way
        neighbours.ravel(),
        -neighbours.ravel(),
        signed(odd_ties(rng, 200_000)),
        # dyadic values M / 2**j over the whole exponent range
        signed(np.ldexp(mantissas, rng.integers(-1126, 971, mantissas.size))),
        signed(np.array(SPECIAL + SHORT + INEXACT_TIES + [1e-320, 3e-310])),
    ])
    return values[rng.permutation(values.size)]


def test_writer_reads_back_two_million_fuzzed_values(tmp_path):
    with np.errstate(over="ignore", under="ignore"):
        values = fuzz_values(np.random.default_rng(20240917))
    assert values.size >= 2_000_000
    # the finite values first, in their fuzzed order, so that orjson writes
    # all but the last block; that block holds every NaN and infinity, and
    # repr writes it
    last = np.argsort(~np.isfinite(values), kind="stable")
    assert_written_bit_for_bit(tmp_path, values[last])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=2, max_size=50))
def test_writer_reads_back_any_floats(tmp_path_factory, values):
    values = np.array(values, dtype=float)
    tmp_path = tmp_path_factory.mktemp("floats")
    assert_written_bit_for_bit(tmp_path, values)
    finite = values[np.isfinite(values)]
    if finite.size >= 2:  # a file holds at least one row
        assert_written_bit_for_bit(tmp_path, finite)


#: the edges of the exponent form: the last positional doubles below 1e-4
#: and 1e17, the first exponent-form ones, and the largest double
EXPONENT_EDGES = [9.999999999999999e-05, 1e-05, 1.5e-05, 9.999999999999998e16, 1e17,
                  1.7976931348623157e308]


def test_every_exponent_in_every_column_reads_back(tmp_path):
    """Each decimal exponent k in [-308, 308], of either sign and with a 1-
    and a 17-digit mantissa, and the edges, in the first, middle and last
    column of a block, native (orjson) and big-endian (repr): every cell
    reads back as its double through float() and through _read_csv."""
    values = [float(f"{sign}{mantissa}e{k}") for k in range(-308, 309) for sign in ("", "-")
              for mantissa in ("1", "1.2345678901234567")]
    values += EXPONENT_EDGES + [-x for x in EXPONENT_EDGES]
    column = np.array(values)
    # every value in every column, beside cells of other exponents
    part = [column, np.roll(column, 1), np.roll(column, 2)]
    assert column.size <= _BLOCK  # one block
    path = tmp_path / "exponents.csv"
    for cells in (part, [c.astype(">f8") for c in part]):
        _write_csv(str(path), ["a", "b", "c"], cells)
        _, read = read_back(path.read_text())
        assert np.array_equal(bits(read), bits(np.column_stack(part)))
        back = _read_csv(str(path), ["a", "b", "c"], "test")
        assert all(np.array_equal(bits(b), bits(c)) for b, c in zip(back, part))


def test_variance_file_round_trips_nan_rows(tmp_path):
    ss = sample(SqueezedVacuum(1.0), 300, seed=11)
    report = binned_variance(ss, 250)  # empty and singleton bins
    assert np.isnan(report.estimated_variance).any()
    path = tmp_path / "v.csv"
    write_variance_csv(report, str(path))
    back = read_variance_csv(str(path))
    assert np.array_equal(back.counts, report.counts)
    for name in ("bin_centers", "estimated_variance", "theoretical_variance",
                 "shifted_variance", "variance_product", "normally_ordered_variance"):
        assert np.array_equal(bits(getattr(back, name)), bits(getattr(report, name))), name


@pytest.mark.parametrize("count", ["nan", "2.5", "-4"])
def test_variance_reader_refuses_a_count_that_is_not_a_count(tmp_path, count):
    # the count column was cast unchecked: nan read as -2**63, 2.5 as 2
    report = binned_variance(sample(SqueezedVacuum(1.0), 400, seed=2), 8)
    path = tmp_path / "v.csv"
    write_variance_csv(report, str(path))
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = count
    path.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
    with pytest.raises(MalformedInputError,
                       match=rf"^data row 3: count {float(count)!r} is not a non-negative integer$"):
        read_variance_csv(str(path))


def test_integer_column_is_written_as_d(tmp_path):
    # an integer column, like the variance file's count, goes through repr,
    # which writes an integer as its digits, beyond 2**53 too
    counts = np.array([0, 1, 9, 10, 4096, 123456789, 10**15, 2**53 - 1, 2**53])
    path = tmp_path / "c.csv"
    _write_csv(str(path), ["count"], [counts])
    assert path.read_text() == "count\n" + "".join("%d\n" % c for c in counts.tolist())


#: columns that are not native float64, or hold NaN or an infinity, and
#: native float64 in other memory layouts, each beside a native column
FALLBACK_COLUMNS = {
    "int64": np.array([0, -1, 7, 2**53 + 1, -(2**63), 2**63 - 1] * 700),
    "nan-inf": np.array([np.nan, np.inf, -np.inf, -0.0, 0.1, 1e-05] * 700),
    "float32": np.array([0.1, -1e-30, 3.4028235e38, 1e-45, -0.0, 1 / 3] * 700, dtype=np.float32),
    "big-endian": np.array([0.1, -2.5e-05, 1e16, 5e-324, -0.0, 1 / 3] * 700).astype(">f8"),
    "strided": np.linspace(-3.0, 3.0, 2 * 4200)[::2],
    "broadcast": np.broadcast_to(np.array([0.1, -2.5e-05, 1e300, -0.0, 5e-324, 1 / 3]), (700, 6)),
}


@pytest.mark.parametrize("kind", list(FALLBACK_COLUMNS))
def test_every_column_kind_reads_back_bit_for_bit(tmp_path, kind):
    # 4200 rows: a whole block and part of one
    column = FALLBACK_COLUMNS[kind]
    other = np.linspace(-1.0, 1.0, column.size).reshape(column.shape)
    want = column.astype(float).ravel()
    path = tmp_path / "c.csv"
    _write_csv(str(path), ["a", "b"], [other, column])
    a, b = _read_csv(str(path), ["a", "b"], "test")
    # the reader gives doubles: an integer's nearest, a float32's own value
    assert np.array_equal(bits(a), bits(other.ravel())) and np.array_equal(bits(b), bits(want))
    text = path.read_text()
    assert same_doubles(read_back(text)[1][:, 1], want)
    cells = [line.split(",")[1] for line in text.splitlines()[1:]]
    if kind == "int64":
        assert cells == [str(c) for c in column.tolist()]
    if kind == "nan-inf":
        assert cells[:3] == ["nan", "inf", "-inf"]


@pytest.mark.parametrize("row", ["0.1,0.2,junk", "0.1,0.2,0.3", "0.1", "0.1,0.2,"])
def test_samples_reader_rejects_wrong_field_count(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"phase,x\n0.0,1.0\n{row}\n0.3,0.4\n")
    with pytest.raises(MalformedInputError, match="^line 3: expected 2 fields"):
        read_samples_csv(str(path))


def test_samples_reader_rejects_rows_that_all_have_another_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phase,x\n1,2,3\n4,5,6\n")
    with pytest.raises(MalformedInputError, match="^line 2: expected 2 fields, got 3"):
        read_samples_csv(str(path))


def test_variance_reader_rejects_wrong_field_count(tmp_path):
    report = binned_variance(sample(SqueezedVacuum(1.0), 400, seed=2), 8)
    path = tmp_path / "v.csv"
    write_variance_csv(report, str(path))
    lines = path.read_text().splitlines()
    for bad in (lines[4] + ",1", lines[4].rsplit(",", 1)[0]):
        path.write_text("\n".join(lines[:4] + [bad] + lines[5:]) + "\n")
        with pytest.raises(MalformedInputError, match="^line 5: expected 7 fields"):
            read_variance_csv(str(path))


def test_wigner_reader_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,p,w\n0,0,1\n0,1,1,1\n1,0,1\n1,1,1\n")
    with pytest.raises(MalformedInputError, match="^line 3: expected 3 fields"):
        read_wigner_csv(str(path))


@pytest.mark.parametrize(
    "bad, message",
    [("0.5,0.5,0.5", "expected 2 fields"), ("0.5,oops", "cannot parse")],
)
def test_malformed_row_past_first_block_names_its_line(tmp_path, bad, message):
    _, path = samples_file(tmp_path)
    lines = path.read_text().split("\n")
    lineno = _BLOCK + 7
    lines[lineno - 1] = bad
    path.write_text("\n".join(lines))
    with pytest.raises(MalformedInputError, match=f"^line {lineno}: {message}"):
        read_samples_csv(str(path))


def test_crlf_and_blank_lines_read_back_bit_identical(tmp_path):
    ss, path = samples_file(tmp_path)
    lines = path.read_text().splitlines()
    # blank lines at the start, in the middle, a whole block of them, and at
    # the end, with CRLF line ends throughout
    edited = lines[:1] + [""] + lines[1:50] + [""] * (_BLOCK + 3) + lines[50:] + ["", ""]
    path.write_bytes(("\r\n".join(edited) + "\r\n").encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_samples_csv(str(path))
    assert np.array_equal(bits(back.phases), bits(ss.phases))
    assert np.array_equal(bits(back.values), bits(ss.values))


@pytest.mark.parametrize("end", ["\r\n", "\r", "\n\n"], ids=["crlf", "cr", "blank-lines"])
def test_line_ends_choose_the_block_parser(tmp_path, monkeypatch, end):
    # the reader turns CRLF and a lone CR into LF before a chunk is parsed, so
    # those chunks stay canonical and np.loadtxt is never called; a blank line
    # after every line leaves no chunk canonical, so orjson reads no row
    ss, path = samples_file(tmp_path, count=2 * _BLOCK + 5)
    path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
    assert path.stat().st_size > 4 * _CHUNK
    parse = _csvio._parse_canonical
    canonical_rows = []

    def counted(chunk, width):
        rows = parse(chunk, width)
        canonical_rows.append(0 if rows is None else len(rows))
        return rows

    monkeypatch.setattr(_csvio, "_parse_canonical", counted)
    if end != "\n\n":
        monkeypatch.setattr(np, "loadtxt", fail_loadtxt)
    back = read_samples_csv(str(path))
    assert len(canonical_rows) > 4
    assert sum(canonical_rows) == (0 if end == "\n\n" else ss.values.size)
    assert np.array_equal(bits(back.phases), bits(ss.phases))
    assert np.array_equal(bits(back.values), bits(ss.values))


def test_blank_line_keeps_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phase,x\n\n0.1,0.2\n\nnope,1\n")
    with pytest.raises(MalformedInputError, match="^line 5: cannot parse"):
        read_samples_csv(str(path))


@pytest.mark.parametrize(
    "reader, header",
    [
        (read_samples_csv, "phase,x"),
        (read_variance_csv, "phi,count,var_est,var_theory,var_shifted,product,normally_ordered"),
        (read_wigner_csv, "x,p,w"),
    ],
)
@pytest.mark.parametrize("text", ["", "{header}\n", "{header}\n\n\n", "wrong,header\n1,2\n"])
def test_readers_reject_empty_and_header_only_files(tmp_path, reader, header, text):
    path = tmp_path / "f.csv"
    path.write_text(text.format(header=header))
    with pytest.raises(MalformedInputError):
        reader(str(path))


@pytest.mark.parametrize("shape", [(2, 2), (97, 91)])  # 2x2 is the smallest grid
def test_wigner_round_trip_bit_identical(tmp_path, shape):
    nx, npts = shape
    fld = wigner_gaussian(vacuum_state(1), PhaseSpaceGrid(-4.0, 3.0, -2.5, 5.0, nx, npts))
    assert nx * npts > _BLOCK or shape == (2, 2)
    path = tmp_path / "w.csv"
    write_wigner_csv(fld, str(path))
    back = read_wigner_csv(str(path))
    assert (back.grid.nx, back.grid.np) == shape
    assert np.array_equal(bits(back.values), bits(fld.values))
    assert np.array_equal(bits(back.grid.x_axis()), bits(fld.grid.x_axis()))
    assert np.array_equal(bits(back.grid.p_axis()), bits(fld.grid.p_axis()))


def test_wigner_single_point_file_is_not_a_grid(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,p,w\n0,0,0.15915494309189535\n")
    with pytest.raises(MalformedInputError, match="grid"):
        read_wigner_csv(str(path))


def test_wigner_file_with_an_infinite_axis_is_not_a_grid(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,p,w\n1,0,0.1\n1,1,0.1\ninf,0,0.1\ninf,1,0.1\n")  # row-major 2x2
    with pytest.raises(MalformedInputError, match="grid bounds must be finite"):
        read_wigner_csv(str(path))


@pytest.mark.parametrize("edit", ["drop last row", "p-major order"])
def test_wigner_reader_rejects_rows_that_are_not_a_grid(tmp_path, edit):
    grid = PhaseSpaceGrid(-1.0, 1.0, -1.0, 2.0, 3, 4)
    path = tmp_path / "w.csv"
    write_wigner_csv(WignerField(grid=grid, values=np.arange(12.0).reshape(3, 4)), str(path))
    header, *rows = path.read_text().splitlines()
    if edit == "drop last row":
        rows = rows[:-1]
    else:
        rows = [rows[4 * i + j] for j in range(4) for i in range(3)]
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(MalformedInputError, match="grid"):
        read_wigner_csv(str(path))


# --- the orjson block parser against np.loadtxt --------------------------------


def fail_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called on a canonical block")


def test_writer_output_is_read_by_orjson_alone(tmp_path, monkeypatch):
    ss, path = samples_file(tmp_path, count=2 * _BLOCK + 5)
    monkeypatch.setattr(np, "loadtxt", fail_loadtxt)
    back = read_samples_csv(str(path))
    assert np.array_equal(bits(back.phases), bits(ss.phases))
    assert np.array_equal(bits(back.values), bits(ss.values))


def test_reader_reads_fuzzed_values_back_through_orjson(tmp_path, monkeypatch):
    with np.errstate(over="ignore", under="ignore"):
        values = fuzz_values(np.random.default_rng(20240918))
    # a zero is written 0 or -0, and a bare -0 sends its block to np.loadtxt
    values = values[np.isfinite(values) & (values != 0)]
    half = values.size // 2
    path = tmp_path / "fuzz.csv"
    write_samples_csv(SampleSet(values[:half], values[half : 2 * half], None), str(path))
    monkeypatch.setattr(np, "loadtxt", fail_loadtxt)
    back = read_samples_csv(str(path))
    assert np.array_equal(bits(back.phases), bits(values[:half]))
    assert np.array_equal(bits(back.values), bits(values[half : 2 * half]))


def read_or_error(path, width):
    """Bits of each column _read_csv returns, or its error message."""
    try:
        columns = _read_csv(str(path), [f"c{j}" for j in range(width)], "test")
    except MalformedInputError as exc:
        return str(exc)
    return [bits(column).tolist() for column in columns]


def loadtxt_only(path, width):
    """read_or_error as np.loadtxt alone reads the file, as before orjson:
    text mode's universal newlines end its lines at LF, CRLF and CR only,
    and _parse_block parses them all at once.  It shares no line split with
    _read_csv, so a reader that splits at another character differs."""
    header = [f"c{j}" for j in range(width)]
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        lines = [line.removesuffix("\n") for line in fh]
    if first.rstrip("\n").split(",") != header:
        return f"line 1: expected header {','.join(header)}, got {first.rstrip()!r}"
    try:
        rows = _csvio._parse_block(lines, width, 2)
    except MalformedInputError as exc:
        return str(exc)
    if not rows.size:
        return "no data rows in test file"
    return [bits(column).tolist() for column in rows.T]


#: tokens that orjson must decline, or read as np.loadtxt does; str.splitlines
#: ends a line at the last four, which are not line ends in a CSV file
ODD_TOKENS = ["nan", "-nan", "inf", "-inf", "-0", "0", "-0.0", "-0e0", "1e-0", "1e400", "-1e400",
              "1e-400", "+1", "1.", ".5", "01", "-", "1e", "e5", "5e-324", "2.4703282292062328e-324",
              "1E+05", "123456789012345678901234567890", " 1", "1 ", "\t2", "",
              "\x0c", "\x1c", "\x85", "\u2028"]
#: finite numbers as '%.17g' wrote them, with its zeros 0 and -0, as the
#: writer's orjson and repr write them (0.000025, 1e16, 2.5e-05, 1e+16), and
#: integers
FINITE = st.floats(allow_nan=False, allow_infinity=False)
G17 = FINITE.map(lambda v: "%.17g" % v)
SHORTEST = FINITE.map(lambda v: orjson.dumps(v).decode()) | FINITE.map(repr)
NUMBERS = st.one_of(G17, G17, SHORTEST, st.sampled_from(["0", "-0"]),
                    st.integers(-(2**70), 2**70).map(str))


@st.composite
def csv_text(draw):
    """A header of `width` columns, then rows made mostly of finite numbers
    and integers, with odd tokens, ragged and blank rows and CR, CRLF or LF
    line ends."""
    width = draw(st.sampled_from([1, 2, 3]))
    numbers = st.lists(NUMBERS, min_size=width, max_size=width)
    one_odd = st.tuples(numbers, st.integers(0, width - 1), st.sampled_from(ODD_TOKENS)).map(
        lambda row: row[0][: row[1]] + [row[2]] + row[0][row[1] + 1 :]
    )
    ragged = st.lists(st.one_of(NUMBERS, st.sampled_from(ODD_TOKENS)), max_size=width + 1)
    rows = st.one_of(numbers, numbers, numbers, one_odd, ragged).map(",".join)
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
    lines = draw(st.lists(st.tuples(rows, ends).map("".join), max_size=14))
    last = draw(st.sampled_from(["", "\n", "7"]))
    header = ",".join(f"c{j}" for j in range(width))
    return width, header + "\n" + "".join(lines) + last


@settings(derandomize=True, max_examples=400, deadline=None)
@given(csv_text(), st.sampled_from([1, 2, 3, 5, 8, 64]))
def test_reader_matches_loadtxt_on_any_block(tmp_path_factory, case, chunk):
    width, text = case
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(text.encode())
    # reads of a few bytes, so that a file mixes canonical and other chunks,
    # and CR|LF pairs, lines longer than a read and runs of blank lines
    # cross the edges of reads
    with mock.patch.object(_csvio, "_CHUNK", chunk):
        assert read_or_error(path, width) == loadtxt_only(path, width)


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_reader_matches_loadtxt_on_odd_tokens(tmp_path, token):
    path = tmp_path / "f.csv"
    path.write_text(f"c0,c1\n0.5,0.25\n{token},-1.5\n-0.125,{token}\n", encoding="utf-8")
    assert read_or_error(path, 2) == loadtxt_only(path, 2)


def test_reader_grows_its_columns_past_the_counted_lines(tmp_path):
    ss, path = samples_file(tmp_path, count=3 * _BLOCK + 5)
    # as if the file had grown after its line ends were counted
    with mock.patch.object(_csvio, "_max_lines", lambda path: 30):
        back = read_samples_csv(str(path))
    assert np.array_equal(bits(back.phases), bits(ss.phases))
    assert np.array_equal(bits(back.values), bits(ss.values))


def through_pipe(tmp_path, data, read):
    """read(path) of a FIFO into which a thread writes ``data``."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        back = read(str(fifo))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    return back


@pytest.mark.parametrize("end", ["\n", "\r"], ids=["lf", "cr"])
def test_reader_reads_a_pipe(tmp_path, end):
    # a pipe's reads end anywhere, a lone CR at the end of one too
    ss, path = samples_file(tmp_path)
    data = path.read_bytes().replace(b"\n", end.encode())
    back = through_pipe(tmp_path, data, read_samples_csv)
    assert np.array_equal(bits(back.phases), bits(ss.phases))
    assert np.array_equal(bits(back.values), bits(ss.values))


def test_bytes_that_are_not_utf8_past_the_first_chunk_name_their_line(tmp_path):
    _, path = samples_file(tmp_path)
    data = path.read_bytes()
    # the first _CHUNK bytes hold the LFs of lines 1 to k, line k + 1 may
    # cross their edge, so line k + 2 starts past them
    lineno = data.count(b"\n", 0, _CHUNK) + 2
    lines = data.split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:3] + b"\xff" + lines[lineno - 1][4:]
    path.write_bytes(b"\n".join(lines))
    assert sum(len(line) + 1 for line in lines[: lineno - 1]) >= _CHUNK
    with pytest.raises(MalformedInputError, match=f"^line {lineno}: cannot parse '.*\\\\udcff"):
        read_samples_csv(str(path))


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_a_read_holds_its_columns_and_a_few_chunks_of_text(tmp_path, source):
    # the columns of a 41-chunk file, and at a time one chunk with the values
    # orjson parses from it: 5-8 chunks besides the columns were measured,
    # so 16 chunks bound it, well below the whole text
    ss, path = samples_file(tmp_path, count=70_000)
    data = path.read_bytes()
    assert len(data) >= 40 * _CHUNK
    _read_csv(str(path), ["phase", "x"], "sample")  # import orjson and set it up untraced
    tracemalloc.start()
    try:
        if source == "file":
            columns = _read_csv(str(path), ["phase", "x"], "sample")
        else:
            columns = through_pipe(tmp_path, data, lambda p: _read_csv(p, ["phase", "x"], "sample"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(bits(columns[1]), bits(ss.values))
    # the columns are cut in place to the rows read: no view of a larger
    # buffer is returned
    assert all(column.base is None and column.nbytes == 8 * len(ss) for column in columns)
    # the columns of a pipe double in place as they fill, so that they are
    # never held twice; the peak also holds what they grew past the rows
    held = sum(column.nbytes for column in columns)
    assert peak - held < 16 * _CHUNK < len(data) / 2


def test_failed_write_leaves_only_the_bytes_written_before_it(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    path.write_text("old," * 10_000)
    values = np.arange(12.0)
    calls = []

    def fail_second(part):
        calls.append(part)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return block_bytes(part)

    block_bytes = _csvio._block_bytes
    monkeypatch.setattr(_csvio, "_BLOCK", 5)
    monkeypatch.setattr(_csvio, "_block_bytes", fail_second)
    with pytest.raises(RuntimeError, match="second block"):
        _write_csv(str(path), ["a", "b"], [values, -values])
    assert path.read_bytes() == b"a,b\n" + bytes(block_bytes([values[:5], -values[:5]]))


def test_failed_truncate_does_not_hide_the_error_that_ended_the_write(tmp_path, monkeypatch):
    def refuse(fd, length):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(_csvio.os, "ftruncate", refuse)
    monkeypatch.setattr(_csvio, "_block_bytes", mock.Mock(side_effect=RuntimeError("format")))
    with pytest.raises(RuntimeError, match="format"):
        _write_csv(str(tmp_path / "s.csv"), ["a"], [np.ones(3)])


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_gets_the_mode_that_open_gives_it(tmp_path, umask):
    old = os.umask(umask)
    try:
        _write_csv(str(tmp_path / "s.csv"), ["a"], [np.ones(3)])
        with open(tmp_path / "o.csv", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "s.csv").stat().st_mode == (tmp_path / "o.csv").stat().st_mode
