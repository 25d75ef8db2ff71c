"""The network JSON writer's floats read back, value by value, in
json.dumps's layout: random bit patterns, every decade, the neighbours of
powers of ten, every shortest length from 1 to 17 digits, rounding-interval
ends for even and odd mantissas, 16-digit ties, power-of-two mantissas,
subnormals, zeros, normal deviates and a Wigner grid, in 1-D and 2-D arrays
and in lists of Python floats, at the top level and nested in an object;
and the cells in [1e-5, 1e-4), which orjson 3.8.3 writes without an
exponent, on every digit count."""

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cvsim.cli import _json_bytes
from json_readback import (
    all_significant_digits,
    assert_reads_back,
    first_difference,
    layout,
    masked,
    significant_digits,
)


def assert_written_bit_for_bit(a):
    """_json_bytes's text of `a`, and of its Python floats, reads back as
    them in json.dumps's layout, at the top level and nested in an object."""
    text = _json_bytes(a)
    assert_reads_back(text, a)
    listed = _json_bytes(a.tolist())
    if listed != text:  # the same bytes are read back as the same values
        assert_reads_back(listed, a.tolist())
    assert_reads_back(_json_bytes({"values": [a]}), {"values": [a]})


def numbers(text: bytes) -> str:
    """The number tokens of the text of nested arrays, comma-separated."""
    return text.translate(None, b" \n[]").decode()


def tokens(values):
    """The text of each value in the writer's 1-D array."""
    text = _json_bytes(np.asarray(values)).decode()
    return [line.strip().rstrip(",") for line in text.split("\n")[1:-2]]


def assert_shortest(values):
    """Each value of `values` is written in repr's shortest digits, and reads back as it."""
    values = np.asarray(values, np.float64).tolist()
    texts = tokens(values)
    assert [float(t) for t in texts] == values
    assert all(np.signbit(float(t)) == np.signbit(x) for t, x in zip(texts, values))
    assert [significant_digits(t) for t in texts] == [significant_digits(repr(x)) for x in values]


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


def nested(value, depth):
    """`value` at `depth`, each level a list or an object, with an item after it."""
    for level in range(depth):
        value = {"k": value, "n": 1.5} if level % 2 else [value, 1]
    return value


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("n", range(4))
def test_layout_of_a_float_list_is_json_dumps_s(n, depth):
    # the layout that the read-back tests compare against writes a float
    # list, and each row of a 2-D array, from its length and depth alone
    for floats in (np.full(n, 0.5), np.full((2, n), -0.5), [0.5] * n, [[2.5] * n] * 3):
        want = json.dumps(nested(np.asarray(floats).tolist(), depth), indent=2)
        assert layout(nested(floats, depth)) == masked(want)


def test_json_writer_reads_back_a_million_fuzzed_values():
    values = fuzz_values(20261018)
    values = values[np.isfinite(values)]
    assert values.size >= 1_000_000
    got = all_significant_digits(numbers(_json_bytes(values)))
    want = all_significant_digits(",".join(map(repr, values.tolist())))
    assert got == want, first_difference(got.replace(",", "\n"), want.replace(",", "\n"))
    # all of them read back, and keep json.dumps's layout, in every form:
    # the 1-D array and rows of 7 and of 1500, each as an array, as a list
    # and nested in an object
    rows = [values[:values.size // cols * cols].reshape(-1, cols) for cols in (7, 1500)]
    for a in (values, *rows):
        assert_written_bit_for_bit(a)


def test_json_writer_reads_back_interval_ends():
    # 2**54 + 8 has an even mantissa, so 18014398509481990 reads back to it;
    # 2**54 + 4 is odd, and its interval end 18014398509481990 does not
    values = np.array([2.0**54 + 8, 2.0**54 + 4, 2.0**54 + 12])
    assert [significant_digits(t) for t in tokens(values)] == [
        "1801439850948199", "18014398509481988", "18014398509481996"]
    ends = np.array(interval_ends(random.Random(7), 4000))
    assert_shortest(np.concatenate([values, ends]))
    assert_written_bit_for_bit(ends)


def test_json_writer_writes_short_decimals_in_their_shortest_digits():
    values = np.array([0.3, -1e-5, 2.5e-7, 123.456, 7e15, 1.5e300, 0.002])
    assert [significant_digits(t) for t in tokens(values)] == [
        "3", "1", "25", "123456", "7", "15", "2"]
    assert_shortest(values)


def test_edge_cells_read_back_in_every_position():
    # orjson 3.8.3 writes [1e-5, 1e-4) positionally and 1e16 in exponent
    # form; each reads back in long rows and in many short ones
    edges = [1e-5, -9.999999999999999e-05, 1e-4, 9.999999999999999e-06, 5e-05, -1e16,
             9999999999999998.0]
    assert_shortest(edges)
    values = np.tile(edges, 1024)
    for a in (values, values.reshape(1, -1), values.reshape(-1, 7)):
        assert_written_bit_for_bit(a)


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


def e05_digit_counts():
    """200 cells in [1e-5, 1e-4) of each digit count from 1 to 17, both signs,
    and the lower edges."""
    rng = random.Random(5)
    values = [float(f"{rng.randrange(10 ** (n - 1), 10**n)}e-{n + 4}")
              for n in range(1, 18) for _ in range(200)]
    return np.array(values + [-x for x in values] + E05_EDGES[0:5:2])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(E05_ARRAYS)
@example(np.array(E05_EDGES + [-x for x in E05_EDGES] + [0.5, -1e16, 3e-300]).reshape(3, 5))
def test_json_writer_reads_back_every_e05_cell(a):
    assert_reads_back(_json_bytes(a), a)
    assert_shortest(a.ravel())


def test_e05_cells_of_every_digit_count_are_written_shortest():
    values = e05_digit_counts()
    digits = {len(significant_digits(repr(x))) for x in values.tolist()}
    assert digits == set(range(1, 18))
    assert_shortest(values)
