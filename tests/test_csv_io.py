"""CSV readers and writers of the three file formats: number format, field
counts, line numbers past the first block, CRLF and blank lines, and grids
larger than one block; the writer's numbers against '%.17g' byte for byte."""

import warnings

import numpy as np
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
    read_wigner_csv,
    sample,
    wigner_gaussian,
    write_samples_csv,
    write_wigner_csv,
)
from cvsim._csvio import _BLOCK, _decimal_digits
from cvsim.homodyne import read_variance_csv, write_variance_csv
from cvsim.states import vacuum_state

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


def test_number_format_round_trips_special_values(tmp_path):
    values = np.array(SPECIAL)
    ss = SampleSet(phases=values[::-1].copy(), values=values, model=None, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(ss, str(path))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "phase,x" and lines[-1] == ""
    assert lines[1:-1] == [
        f"{format(p, '.17g')},{format(v, '.17g')}" for p, v in zip(values[::-1], values)
    ]
    back = read_samples_csv(str(path))
    assert np.array_equal(bits(back.values), bits(values))
    assert np.array_equal(bits(back.phases), bits(values[::-1]))


def as_g17(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def assert_written_as_g17(tmp_path, values):
    """write_samples_csv writes every value as '%.17g' does, byte for byte."""
    half = len(values) // 2
    ss = SampleSet(phases=values[:half], values=values[half : 2 * half], model=None, seed=0)
    path = tmp_path / "g17.csv"
    write_samples_csv(ss, str(path))
    lines = path.read_bytes().decode("ascii").split("\n")
    expected = [f"{p},{v}" for p, v in zip(as_g17(ss.phases), as_g17(ss.values))]
    assert lines[0] == "phase,x" and lines[-1] == "" and len(lines) == half + 2
    wrong = [(got, want) for got, want in zip(lines[1:-1], expected) if got != want]
    assert not wrong, wrong[:5]


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


def test_writer_matches_g17_on_two_million_fuzzed_values(tmp_path):
    with np.errstate(over="ignore", under="ignore"):
        values = fuzz_values(np.random.default_rng(20240917))
    assert values.size >= 2_000_000
    assert_written_as_g17(tmp_path, values)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=2, max_size=50))
def test_writer_matches_g17_on_any_floats(tmp_path_factory, values):
    assert_written_as_g17(tmp_path_factory.mktemp("g17"), np.array(values, dtype=float))


def test_decimal_digits_are_exact_where_certain():
    rng = np.random.default_rng(5)
    with np.errstate(over="ignore"):
        values = np.concatenate(
            [10.0 ** rng.uniform(-307, 308, 20_000), rng.normal(size=20_000), odd_ties(rng, 2000)]
        )
    digits, k, certain = _decimal_digits(values)
    # all but a few values near powers of ten and ties are certain, and
    # certain digits are those of '%.16e'
    assert certain.mean() > 0.999
    for v, d, e in zip(values[certain].tolist(), digits[certain].tolist(), k[certain].tolist()):
        mantissa, exponent = ("%.16e" % abs(v)).split("e")
        assert (int(mantissa.replace(".", "")), int(exponent)) == (d, e), v


def test_decimal_digits_round_exact_ties_half_even_and_leave_inexact_ones():
    # 10**16 is a double, so ties at |x| in [1, 10) are resolved exactly
    digits, _, certain = _decimal_digits(np.array([131073 / 2**17, 131075 / 2**17]))
    assert certain.all() and digits.tolist() == [10000076293945312, 10000228881835938]
    # 10**23 is not: 3 / 2**24 * 10**23 ends in .5 and is left to '%.17g'
    _, _, certain = _decimal_digits(np.array([3 / 2**24, 0.0, np.nan, 5e-324, 1.0]))
    assert not certain.any()


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
    with pytest.raises(ValueError, match="grid"):
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
