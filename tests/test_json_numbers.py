"""The digit kernel's float.__repr__ path against Python, value by value:
random bit patterns, every decade, the neighbours of powers of ten, every
shortest length from 1 to 17 digits, rounding-interval ends for even and odd
mantissas, 16-digit ties, power-of-two mantissas, subnormals and zeros."""

import random
from fractions import Fraction

import numpy as np

from cvsim import _csvio
from cvsim._csvio import _decimal_digits, _repr_cells, _shortest_digits

#: values per kernel call, as the JSON writer's batches
CHUNK = 2048


def kernel_reprs(values):
    """The kernel's text of each value, filled as the JSON writer fills it."""
    texts = []
    for first in range(0, values.size, CHUNK):
        part = values[first:first + CHUNK]
        args = np.zeros((part.size, 3), dtype=np.int64)
        used = np.zeros((part.size, 3), dtype=bool)
        cells = _repr_cells(part, args, used)
        texts += ("\0".join(cells.tolist()) % tuple(args[used].tolist())).split("\0")
    return texts


def assert_reprs(values):
    values = np.asarray(values, dtype=float)
    got = kernel_reprs(values)
    want = [float.__repr__(v) for v in values.tolist()]
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


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
    even mantissa's and outside the odd one's.  j = 1 lies where the kernel's
    arithmetic is exact (|x| in [2**54, 1e17)), j > 1 beyond it."""
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
            np.array([0.0, -0.0, 5e-324, 1e23, 9007199254740993.0, 562949953421312.75]),
        ])
    return values[rng.permutation(values.size)]


def test_repr_kernel_matches_float_repr_on_a_million_fuzzed_values():
    values = fuzz_values(20261018)
    assert values.size >= 1_000_000
    assert_reprs(values)


def test_residual_and_half_ulp_are_exact_where_the_product_is():
    rng = np.random.default_rng(3)
    values = 10.0 ** rng.uniform(-6, 17, 3000)
    digits, k, certain, residual, half_ulp = _decimal_digits(values)
    assert certain.mean() > 0.999 and ((k >= -6) & (k <= 16)).all()
    for x, d, e, r, h in zip(*(a[certain].tolist() for a in (values, digits, k, residual,
                                                               half_ulp))):
        scale = Fraction(10) ** (16 - e)
        assert Fraction(x) * scale - d == Fraction(r)
        assert Fraction(np.spacing(x)) / 2 * scale == Fraction(h)


def test_repr_kernel_matches_python_at_interval_ends():
    # 2**54 + 8 has an even mantissa, so 18014398509481990 reads back to it;
    # 2**54 + 4 is odd, and its interval end 18014398509481990 does not
    values = np.array([2.0**54 + 8, 2.0**54 + 4, 2.0**54 + 12])
    assert kernel_reprs(values) == ["1.801439850948199e+16", "1.8014398509481988e+16",
                                    "1.8014398509481996e+16"]
    assert_reprs(interval_ends(random.Random(7), 4000))


def test_repr_kernel_leaves_few_values_to_python():
    rng = np.random.default_rng(11)
    # a Wigner grid and normal deviates: none falls back
    grid = np.linspace(-5, 5, 101)
    wigner = np.exp(-(grid[:, None] ** 2 + grid[None, :] ** 2) / 2).ravel() / (2 * np.pi)
    assert _shortest_digits(wigner)[2].all()
    assert _shortest_digits(rng.normal(size=20_000))[2].mean() > 0.999
    # random bit patterns: of the finite, normal ones ~0.1% fall back
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    normal = bits[np.isfinite(bits) & (np.abs(bits) >= 2.2250738585072014e-308)]
    assert _shortest_digits(normal)[2].mean() > 0.995


def test_repr_kernel_leaves_ties_and_asymmetric_intervals_to_python():
    values = np.array([562949953421312.25, 562949953421312.75, 0.5, 1.0, 2.0**-1000])
    # 16-digit ties and power-of-two mantissas go to Python
    assert not _shortest_digits(values)[2].any()
    assert_reprs(values)


def test_repr_kernel_writes_short_decimals_itself():
    values = np.array([0.3, -1e-5, 2.5e-7, 123.456, 7e15, 1.5e300, 0.002])
    assert _shortest_digits(values)[2].all()
    assert_reprs(values)


def test_repr_kernel_leaves_a_rounding_up_to_10_17_to_python(monkeypatch):
    # log10 puts every double whose interval holds 10**(k+1) a decade up,
    # where D < 10**16 fails; with k right, the candidates would carry
    fields = ([99999999999999995], [5], [True], [0.1], [8.0])
    monkeypatch.setattr(_csvio, "_decimal_digits", lambda x: tuple(map(np.array, fields)))
    shortest, _, certain = _shortest_digits(np.array([3.0]))
    assert shortest[0] == 10**17 and not certain[0]
