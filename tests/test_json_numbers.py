"""The network JSON writer's floats against json.dumps, value by value:
random bit patterns, every decade, the neighbours of powers of ten, every
shortest length from 1 to 17 digits, rounding-interval ends for even and odd
mantissas, 16-digit ties, power-of-two mantissas, subnormals, zeros, normal
deviates and a Wigner grid, in 1-D and 2-D arrays and in lists of Python
floats, at the top level and nested in an object; and the kernel that
writes the cells in [1e-5, 1e-4) from orjson's digits, on every digit count
and on the forms of orjson's text that it must refuse."""

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cvsim.cli import _e05_reprs, _json_bytes
from cvsim.errors import CVSimError


def written(obj):
    return _json_bytes(obj).decode()


def assert_written_as_json_dumps(a):
    """_json_bytes's text of `a`, and of its Python floats, is json.dumps's,
    at the top level and nested in an object."""
    text = json.dumps(a.tolist(), indent=2)
    nested = '{\n  "values": [\n    ' + text.replace("\n", "\n    ") + "\n  ]\n}\n"
    for obj, want in ((a, text + "\n"), (a.tolist(), text + "\n"), ({"values": [a]}, nested)):
        got = written(obj)
        if got != want:
            wrong = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
            raise AssertionError(wrong[:5] or (len(got), len(want)))


def reprs(values):
    """The text of each value in the writer's 1-D array."""
    return [line.strip().rstrip(",") for line in written(np.asarray(values)).split("\n")[1:-2]]


def powers_of_ten():
    return np.array([float(f"1e{d}") for d in range(-323, 309)])


def shortest_lengths(rng, count):
    """`count` values whose shortest form has n digits, for each n in 1..17."""
    values = []
    for n in range(1, 18):
        for _ in range(count):
            digits = rng.randrange(10 ** (n - 1), 10**n)
            digits += digits % 10 == 0  # no trailing zero
            values.append(float(f"{digits}e{rng.randrange(-330, 300)}"))
    return values


def interval_ends(rng, count):
    """Both neighbours of midpoints N = c * 10**j between two doubles, with c
    of 15 or 16 digits: N is the end of both rounding intervals, inside the
    even mantissa's and outside the odd one's.  j = 1 puts |x| in
    [2**54, 1e17), j > 1 beyond it."""
    values = []
    for _ in range(count):
        j, size = rng.randrange(1, 9), rng.choice((15, 16))
        odd = rng.randrange(-(-2**53 // 5**j), 2**54 // 5**j) | 1
        shift = 0
        while odd * 2**shift < 10 ** (size - 1):
            shift += 1
        c = odd * 2**shift
        if c >= 10**size or c % 10 == 0:
            continue
        # N = odd * 5**j * 2**(shift + j), its odd part in [2**53, 2**54)
        half_gap = 2 ** (shift + j)
        values += [float(c * 10**j - half_gap), float(c * 10**j + half_gap)]
    return values


def wigner_grid():
    """A vacuum Wigner function on a 101x101 grid: 55% of it below 1e-4, 14%
    in [1e-5, 1e-4)."""
    grid = np.linspace(-5, 5, 101)
    return np.exp(-(grid[:, None] ** 2 + grid[None, :] ** 2) / 2).ravel() / (2 * np.pi)


def fuzz_values(seed):
    """About 1.1 million seeded values over the whole double range."""
    rng = np.random.default_rng(seed)
    py = random.Random(seed)

    def signed(values):
        return rng.choice([-1.0, 1.0], values.size) * values

    decades = np.repeat(np.arange(-323, 309), 500)
    neighbours = (powers_of_ten().view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    # x.25 and x.75 with an ulp of 1/8: both 16-digit neighbours read back
    ties = py.sample(range(2**49, 10**15), 2000) + np.array([0.25, 0.75]).repeat(1000)
    with np.errstate(over="ignore", under="ignore"):
        values = np.concatenate([
            rng.integers(0, 2**64, 600_000, dtype=np.uint64).view(np.float64),
            signed(10.0 ** (decades + rng.random(decades.size))),
            neighbours.ravel(),
            -neighbours.ravel(),
            signed(np.array(shortest_lengths(py, 2000))),
            signed(np.array(interval_ends(py, 20_000))),
            signed(ties),
            signed(powers_of_two),
            signed((powers_of_two.view(np.int64)[52:, None] + [-1, 1]).view(np.float64).ravel()),
            signed(rng.integers(1, 2**52, 20_000).view(np.float64)),  # subnormals
            np.array([0.0, -0.0, 5e-324, 1e23, 9007199254740993.0, 562949953421312.75,
                      562949953421312.25, 0.5, 1.0, 2.0**-1000]),
            wigner_grid(),
            rng.normal(size=20_000),
        ])
    return values[rng.permutation(values.size)]


def test_json_writer_matches_float_repr_on_a_million_fuzzed_values():
    values = fuzz_values(20261018)
    values = values[np.isfinite(values)]
    assert values.size >= 1_000_000
    rows = [values[:values.size // cols * cols].reshape(-1, cols) for cols in (7, 1500)]
    for a in (values, *rows):
        assert_written_as_json_dumps(a)


def test_json_writer_matches_python_at_interval_ends():
    # 2**54 + 8 has an even mantissa, so 18014398509481990 reads back to it;
    # 2**54 + 4 is odd, and its interval end 18014398509481990 does not
    values = np.array([2.0**54 + 8, 2.0**54 + 4, 2.0**54 + 12])
    assert reprs(values) == ["1.801439850948199e+16", "1.8014398509481988e+16",
                             "1.8014398509481996e+16"]
    assert_written_as_json_dumps(np.array(interval_ends(random.Random(7), 4000)))


def test_json_writer_writes_short_decimals_as_repr():
    values = np.array([0.3, -1e-5, 2.5e-7, 123.456, 7e15, 1.5e300, 0.002])
    assert reprs(values) == ["0.3", "-1e-05", "2.5e-07", "123.456", "7000000000000000.0",
                             "1.5e+300", "0.002"]


def test_mended_cells_keep_their_repr_in_every_position():
    # orjson writes [1e-5, 1e-4) positionally and 1e16 without its "+"; the
    # writer puts repr in place of each, in long rows and in many short ones
    edges = [1e-5, -9.999999999999999e-05, 1e-4, 9.999999999999999e-06, 5e-05, -1e16,
             9999999999999998.0]
    assert reprs(edges) == ["1e-05", "-9.999999999999999e-05", "0.0001",
                            "9.999999999999999e-06", "5e-05", "-1e+16", "9999999999999998.0"]
    values = np.tile(edges, 1024)
    for a in (values, values.reshape(1, -1), values.reshape(-1, 7)):
        assert_written_as_json_dumps(a)


#: the ends of [1e-5, 1e-4) and their neighbours on both sides
E05_EDGES = [1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 1e-4,
             np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0)]
#: doubles in [1e-5, 1e-4): n digits times 10**-(n + 4), and any bit pattern
E05_CELLS = (
    st.integers(1, 17).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1).map(
        lambda digits: float(f"{digits}e-{n + 4}")))
    | st.floats(1e-5, 1e-4, exclude_max=True)
    | st.sampled_from(E05_EDGES)
)
SIGNED_E05_CELLS = st.tuples(E05_CELLS, st.booleans()).map(lambda c: -c[0] if c[1] else c[0])
E05_ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=20),
                    elements=SIGNED_E05_CELLS | st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(E05_ARRAYS)
@example(np.array(E05_EDGES + [-x for x in E05_EDGES] + [0.5, -1e16, 3e-300]).reshape(3, 5))
def test_json_writer_writes_every_e05_cell_as_json_dumps(a):
    assert _json_bytes(a) == (json.dumps(a.tolist(), indent=2) + "\n").encode()


def test_e05_kernel_writes_every_digit_count():
    rng = random.Random(5)
    values = [float(f"{rng.randrange(10 ** (n - 1), 10**n)}e-{n + 4}")
              for n in range(1, 18) for _ in range(200)]
    values = np.array(values + [-x for x in values] + E05_EDGES[0:5:2])
    assert _e05_reprs(values) == [float.__repr__(x).encode() for x in values.tolist()]
    digits = {len(float.__repr__(abs(x)).split("e")[0].replace(".", "")) for x in values.tolist()}
    assert digits == set(range(1, 18))


#: orjson texts of [1e-5, 5e-5, 1.2345678901234568e-05] that the kernel refuses
UNKNOWN_E05_FORMS = {
    "exponent": b"[1e-05,5e-05,1.2345678901234568e-05]",
    "leading zero digit": b"[0.000001,0.00005,0.000012345678901234568]",
    "trailing zero digit": b"[0.000010,0.000050,0.000012345678901234568]",
    "18 digits": b"[0.00001,0.00005,0.000012345678901234568]".replace(b"68]", b"681]"),
    "no digit": b"[0.0000,0.00005,0.000012345678901234568]",
    "spaced": b"[0.00001, 0.00005, 0.000012345678901234568]",
    "letter": b"[0.00001,0.0000x5,0.000012345678901234568]",
    "one token short": b"[0.00001,0.00005]",
    "unbracketed": b"0.00001,0.00005,0.000012345678901234568",
}


@pytest.mark.parametrize("text", list(UNKNOWN_E05_FORMS.values()), ids=list(UNKNOWN_E05_FORMS))
def test_e05_kernel_refuses_an_unknown_orjson_form(monkeypatch, text):
    import orjson

    monkeypatch.setattr(orjson, "dumps", lambda obj, option=None: text)
    with pytest.raises(CVSimError, match=r"writes floats in a form that cvsim's JSON "
                                         r"writers do not know"):
        _e05_reprs(np.array([1e-5, 5e-5, 1.2345678901234568e-05]))
