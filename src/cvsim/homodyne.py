"""Simulated balanced-homodyne-detection data for nonclassical state families.

Everything here uses the dimensionless quadrature convention in which the
vacuum variance is 1 and Var[X_phi] Var[X_{phi+pi/2}] >= 1.  For each source
model the characteristic function chi(beta), the quadrature density p(x, phi)
and its antiderivative F(x, phi) are closed forms.  Sampling draws uniform
phases on [-pi, pi) and uniform targets u on (0, 1) and solves F(x, phi) = u.
For the Gaussian sources (vacuum, thermal, squeezed vacuum) the quantile is
the closed form x = sqrt(Var[X_phi]) ndtri(u).  For the Fock, SPATS and cat
sources each record runs a safeguarded Newton iteration inside a bisection
bracket: Newton steps from a start read off a quantile table, a midpoint step
wherever Newton would leave the bracket or stall, and a stop once the bracket
is narrower than the tolerance.  The table is built once per call from the
model alone: F and p on a fixed x grid (one row, or one row per phase node
for a cat), inverted to quantiles on a uniform u grid by cubic Hermite
interpolation.  A record starts from it linearly in u and, for a cat,
cubically in phi.  Records start on [-bracket, bracket] without evaluating F
at its ends; one that ends within tol of an end is solved again inside a
bracket checked at its ends and doubled up to 4 times.  Records are solved in
fixed-size blocks, and a record's value does not depend on the batch it is
drawn in.  Source parameters must be finite, and tol and bracket finite and
> 0; anything else raises ValueError.

The squeezed-vacuum family is squeezed along x at phi = 0:
Var[X_phi] = e^{-2r} cos^2(phi) + e^{2r} sin^2(phi).

scipy.special is imported inside the functions that evaluate erf, ndtri or
eval_laguerre, so that importing cvsim does not load it: that import takes
about as long as the rest of the package's imports together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._csvio import _read_csv, _write_csv
from .errors import InversionError, MalformedInputError

#: default quantile tolerance and half-width of the initial search bracket
DEFAULT_TOL = 1e-12
DEFAULT_BRACKET = 50.0
#: Fock photon-number cap for the Hermite-function closed forms
MAX_FOCK_N = 10
#: bracket doublings before a quantile counts as out of reach
_WIDENINGS = 4
#: cap on the Newton or bisection steps of one record
_MAX_STEPS = 1100
#: records inverted together, so the temporaries stay in cache
_BLOCK = 8192
#: start table: x points per row, u intervals and cat phase rows
_TABLE_X = 256
_TABLE_U = 2048
_TABLE_PHI = 128


# ---------------------------------------------------------------------------
# source models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fock:
    """Photon-number state |n>, 0 <= n <= 10."""

    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_FOCK_N:
            raise ValueError(f"Fock n must be in 0..{MAX_FOCK_N}, got {self.n}")


@dataclass(frozen=True)
class Spats:
    """Single-photon-added thermal state with mean thermal photon number n_bar."""

    n_bar: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.n_bar) and self.n_bar > 0):
            raise ValueError(f"SPATS n_bar must be finite and > 0, got {self.n_bar!r}")


@dataclass(frozen=True)
class SqueezedVacuum:
    """Squeezed vacuum with real squeezing parameter r (x squeezed for r > 0)."""

    r: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.r):
            raise ValueError(f"squeezing r must be finite, got {self.r!r}")


@dataclass(frozen=True)
class CatState:
    """Normalized superposition (|alpha> + e^{i theta} |-alpha>) / sqrt(N)."""

    alpha: complex
    theta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and np.isfinite(self.theta)):
            raise ValueError(
                f"cat alpha and theta must be finite, got {self.alpha!r} and {self.theta!r}"
            )
        if self.normalization() <= 0:
            raise ValueError("cat state normalization must be positive")

    def normalization(self) -> float:
        return 2.0 + 2.0 * np.cos(self.theta) * np.exp(-2.0 * abs(self.alpha) ** 2)


@dataclass(frozen=True)
class Thermal:
    """Thermal state with mean photon number n_bar."""

    n_bar: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.n_bar) and self.n_bar >= 0):
            raise ValueError(f"thermal n_bar must be finite and >= 0, got {self.n_bar!r}")


@dataclass(frozen=True)
class Vacuum:
    """The vacuum state."""


SourceModel = Union[Fock, Spats, SqueezedVacuum, CatState, Thermal, Vacuum]


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def characteristic_fn(model: SourceModel, beta: complex) -> complex:
    """Closed-form characteristic function chi(beta); chi(0) = 1 for all models."""
    ab2 = abs(beta) ** 2
    if isinstance(model, Vacuum):
        return complex(np.exp(-ab2 / 2.0))
    if isinstance(model, Fock):
        from scipy.special import eval_laguerre

        return complex(np.exp(-ab2 / 2.0) * eval_laguerre(model.n, ab2))
    if isinstance(model, Spats):
        return complex(
            np.exp(-ab2 / 2.0) * (1.0 - (1.0 + model.n_bar) * ab2) * np.exp(-model.n_bar * ab2)
        )
    if isinstance(model, SqueezedVacuum):
        r = model.r
        bc = np.conj(beta)
        return complex(
            np.exp(
                -((beta + bc) ** 2) * np.exp(2.0 * r) / 8.0
                + (beta - bc) ** 2 * np.exp(-2.0 * r) / 8.0
            )
        )
    if isinstance(model, CatState):
        a = model.alpha
        ac = np.conj(a)
        bc = np.conj(beta)
        damp = np.exp(-2.0 * abs(a) ** 2)
        terms = (
            np.exp(beta * ac - bc * a)
            + np.exp(1j * model.theta) * np.exp(beta * ac + bc * a) * damp
            + np.exp(-1j * model.theta) * np.exp(-beta * ac - bc * a) * damp
            + np.exp(-beta * ac + bc * a)
        )
        return complex(np.exp(-ab2 / 2.0) * terms / model.normalization())
    if isinstance(model, Thermal):
        return complex(np.exp(-(model.n_bar + 0.5) * ab2))
    raise TypeError(f"unknown source model {model!r}")


# ---------------------------------------------------------------------------
# probability densities and cumulative distributions
# ---------------------------------------------------------------------------


def _fock_cdf_pdf(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and p of |n> from the normalized Hermite functions psi_k(x / sqrt 2),

        psi_k = sqrt(2/k) u psi_{k-1} - sqrt((k-1)/k) psi_{k-2},
        F_n = 1/2 + erf(u)/2 - sum_{k=1..n} psi_k psi_{k-1} / sqrt(2k),
        p_n = psi_n^2 / sqrt(2),

    which stays accurate to a few ulp where the Hermite-polynomial sums cancel.
    """
    from scipy.special import erf

    u = x / np.sqrt(2.0)
    prev = np.zeros_like(u)
    psi = np.pi**-0.25 * np.exp(-(u**2) / 2.0)
    series = np.zeros_like(u)
    for k in range(1, n + 1):
        prev, psi = psi, np.sqrt(2.0 / k) * u * psi - np.sqrt((k - 1) / k) * prev
        series = series + psi * prev / np.sqrt(2.0 * k)
    return 0.5 + 0.5 * erf(u) - series, psi**2 / np.sqrt(2.0)


def _sv_variance(r: float, phi: np.ndarray) -> np.ndarray:
    return np.exp(-2.0 * r) * np.cos(phi) ** 2 + np.exp(2.0 * r) * np.sin(phi) ** 2


def quadrature_pdf(model: SourceModel, x, phi):
    """Closed-form quadrature density p(x, phi); phase-independent for the
    Fock, SPATS, thermal and vacuum models.  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if isinstance(model, Vacuum):
        out = np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi)
    elif isinstance(model, Fock):
        out = _fock_cdf_pdf(model.n, x)[1]
    elif isinstance(model, Spats):
        nb = model.n_bar
        s = 4.0 * nb + 2.0
        bracket = 1.0 - (1.0 + nb) / (1.0 + 2.0 * nb) * (1.0 - x**2 / (1.0 + 2.0 * nb))
        out = np.exp(-(x**2) / s) / np.sqrt(np.pi * s) * bracket
    elif isinstance(model, SqueezedVacuum):
        v = _sv_variance(model.r, phi)
        out = np.exp(-(x**2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    elif isinstance(model, CatState):
        g = model.alpha * np.exp(1j * phi)
        a = 2.0 * np.real(g)
        b = 2.0 * np.imag(g)
        damp = np.exp(-2.0 * abs(model.alpha) ** 2)
        cross = (
            np.exp(1j * model.theta) * damp * np.exp(-((x + 1j * b) ** 2) / 2.0)
        ).real * 2.0
        total = np.exp(-((x - a) ** 2) / 2.0) + np.exp(-((x + a) ** 2) / 2.0) + cross
        out = total / (model.normalization() * np.sqrt(2.0 * np.pi))
    elif isinstance(model, Thermal):
        s = 4.0 * model.n_bar + 2.0
        out = np.exp(-(x**2) / s) / np.sqrt(np.pi * s)
    else:
        raise TypeError(f"unknown source model {model!r}")
    out = np.maximum(out, 0.0)  # clip -eps rounding at density zeros
    return float(out) if out.ndim == 0 else out


def quadrature_cdf(model: SourceModel, x, phi):
    """Closed-form cumulative distribution F(x, phi); monotone in x with
    limits 0 and 1.  Accepts scalars or arrays."""
    from scipy.special import erf

    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if isinstance(model, Vacuum):
        out = 0.5 + 0.5 * erf(x / np.sqrt(2.0))
    elif isinstance(model, Fock):
        out = _fock_cdf_pdf(model.n, x)[0]
    elif isinstance(model, Spats):
        nb = model.n_bar
        s = 4.0 * nb + 2.0
        out = (
            0.5
            + 0.5 * erf(x / np.sqrt(s))
            - x / np.sqrt(np.pi * s) * (1.0 + nb) / (1.0 + 2.0 * nb) * np.exp(-(x**2) / s)
        )
    elif isinstance(model, SqueezedVacuum):
        v = _sv_variance(model.r, phi)
        out = 0.5 + 0.5 * erf(x / np.sqrt(2.0 * v))
    elif isinstance(model, CatState):
        g = model.alpha * np.exp(1j * phi)
        a = 2.0 * np.real(g)
        b = 2.0 * np.imag(g)
        c = np.exp(1j * model.theta) * np.exp(-2.0 * abs(model.alpha) ** 2)
        sqrt2 = np.sqrt(2.0)
        # Sum of the per-term antiderivatives (1 + erf)/2; the two
        # complex-argument terms are conjugates, so they add up to twice the
        # real part of one.
        total = (
            (1.0 + erf((x - a) / sqrt2))
            + (1.0 + erf((x + a) / sqrt2))
            + 2.0 * np.real(c * (1.0 + erf((x + 1j * b) / sqrt2)))
        )
        out = total / (2.0 * model.normalization())
    elif isinstance(model, Thermal):
        out = 0.5 + 0.5 * erf(x / np.sqrt(4.0 * model.n_bar + 2.0))
    else:
        raise TypeError(f"unknown source model {model!r}")
    return float(out) if np.ndim(out) == 0 else out


def pdf_numeric_oracle(model: SourceModel, x: float, phi: float) -> float:
    """Quadrature density from the characteristic function,

        p(x, phi) = (1/2pi) Integral chi(i y e^{-i phi}) e^{-i y x} dy,

    by adaptive quadrature over [-Y, Y] with Y chosen so |chi| < 1e-14 at the
    cutoff.  Validation-only: independent of the closed forms above.
    """
    from scipy.integrate import quad  # validation-only; kept off the import path

    cutoff = None
    for candidate in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
        ys = np.linspace(0.75 * candidate, candidate, 32)
        tail = max(
            abs(characteristic_fn(model, 1j * y * np.exp(-1j * phi))) for y in ys
        )
        if tail < 1e-14:
            cutoff = candidate
            break
    if cutoff is None:
        raise InversionError("characteristic function does not decay below 1e-14")

    def integrand(y: float) -> float:
        return (
            characteristic_fn(model, 1j * y * np.exp(-1j * phi)) * np.exp(-1j * y * x)
        ).real

    value, abserr = quad(integrand, -cutoff, cutoff, limit=800, epsabs=1e-12, epsrel=1e-12)
    if abserr > 1e-9:
        raise InversionError(f"oracle quadrature did not converge (err {abserr:.3e})")
    return value / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# inverse-CDF sampling
# ---------------------------------------------------------------------------


def _moments(model: SourceModel, phi: np.ndarray):
    """Mean and variance of X_phi (scalars where they do not depend on phi)."""
    if isinstance(model, SqueezedVacuum):
        return 0.0, _sv_variance(model.r, phi)
    if isinstance(model, CatState):
        return _cat_moments(model, phi)
    return 0.0, theoretical_variance(model, 0.0)


def _cdf_and_pdf(model: SourceModel, x: np.ndarray, phi: np.ndarray):
    """F and p at the same points; one recurrence gives both for Fock states.
    A NaN F, which a large cat's 0 * inf cross term gives, raises in _newton
    instead of warning here."""
    if isinstance(model, Fock):
        return _fock_cdf_pdf(model.n, x)
    with np.errstate(invalid="ignore", over="ignore"):
        return quadrature_cdf(model, x, phi), quadrature_pdf(model, x, phi)


def _unbracketed(record: int, u: float, phi: float) -> InversionError:
    return InversionError(
        f"could not bracket the quantile for record {record} "
        f"(u={float(u)!r}, phi={float(phi)!r}) after {_WIDENINGS} widenings"
    )


def _gaussian_quantiles(model, phis, targets, records, tol, bracket):
    """Closed-form quantiles of a Gaussian source.  The reach is that of the
    widest bracket, so a quantile at or past it fails as it would there."""
    from scipy.special import ndtri

    mean, var = _moments(model, phis)
    x = mean + np.sqrt(var) * ndtri(targets)
    far = ~(np.abs(x) < 2.0**_WIDENINGS * bracket)
    if far.any():
        i = int(np.argmax(far))
        raise _unbracketed(records[i], targets[i], phis[i])
    return x


def _quantile_row(x, cdf, pdf, u):
    """Quantiles at u of one row of F and p on the uniform grid x, by the
    cubic Hermite interpolant of the inverse, x(F), whose end slopes 1/p are
    clipped to at most 3 times the secant slope so that it stays monotone
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238 (1980))."""
    # rounding can make F step back by an ulp where the density vanishes
    cdf = np.maximum.accumulate(cdf)
    df, dx = np.diff(cdf), x[1] - x[0]
    j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, x.size - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.fmin(df / (dx * pdf[:-1]), 3.0)[j]
        s1 = np.fmin(df / (dx * pdf[1:]), 3.0)[j]
        t = np.clip((u - cdf[j]) / df[j], 0.0, 1.0)
    return x[j] + dx * (t * t * (3.0 - 2.0 * t) + t * (1.0 - t) * ((1.0 - t) * s0 - t * s1))


def _phase_nodes(phis):
    """Index m of the cat phase node at or below each phi, and the fraction f
    of the way to node m + 1 (m may be _TABLE_PHI, the wrap of node 0)."""
    r = np.mod(phis + np.pi, 2.0 * np.pi) * (_TABLE_PHI / (2.0 * np.pi))
    m = np.floor(r)
    return m.astype(np.intp), r - m


def _start_table(model, phis):
    """Quantiles of the model at u = k / _TABLE_U, k = 0 .. _TABLE_U, one
    row per phase node.

    F and p are evaluated on _TABLE_X points spanning the mean +- (2 sd + 5)
    of each row; the columns u = 0 and 1 hold the ends of the span.  The
    Fock and SPATS densities do not depend on phi and have one row; a cat has
    _TABLE_PHI rows at phi = -pi + 2 pi m / _TABLE_PHI.  Since a cat's
    p(x, phi + pi) = p(-x, phi), its quantile at (u, phi + pi) is minus that
    at (1 - u, phi), and only rows with phi < 0 are evaluated: those that the
    records at phis start from (_table_start), or whose mirror they start
    from.  The other rows are NaN.  Each row is computed element by element,
    so a row does not depend on which others are evaluated.
    """
    phased = isinstance(model, CatState)
    half = _TABLE_PHI // 2
    rows = [0]
    if phased:
        # a record at node m starts from rows m - 1 .. m + 2, mirrored or not
        hit = np.zeros(half, dtype=bool)
        hit[_phase_nodes(phis)[0] % half] = True
        rows = np.flatnonzero(hit | np.roll(hit, 1) | np.roll(hit, -1) | np.roll(hit, 2))
    nodes = np.linspace(-np.pi, 0.0, half if phased else 1, endpoint=False)[rows][:, None]
    mean, var = _moments(model, nodes)
    span = (2.0 * np.sqrt(var) + 5.0) * np.linspace(-1.0, 1.0, _TABLE_X)
    x = np.broadcast_to(mean + span, (len(rows), _TABLE_X))
    cdf, pdf = _cdf_and_pdf(model, x, nodes)
    u = np.arange(1, _TABLE_U) / _TABLE_U
    inner = [_quantile_row(*row, u) for row in zip(x, cdf, pdf)]
    evaluated = np.column_stack((x[:, 0], inner, x[:, -1]))
    if not phased:
        return evaluated
    table = np.full((_TABLE_PHI, _TABLE_U + 1), np.nan)
    table[rows] = evaluated
    table[rows + half] = -evaluated[:, ::-1]
    return table


def _table_start(table, phis, targets):
    """Start of each record: the table's quantile at its u, linear between u
    nodes and, for a cat, cubic (four-point Lagrange) between phase nodes."""
    rows, cols = table.shape[0], table.shape[1] - 1
    s = targets * cols
    k = np.minimum(s.astype(np.intp), cols - 1)
    w = s - k
    flat = table.ravel()

    def at(row):
        i = row * (cols + 1) + k
        return flat[i] + w * (flat[i + 1] - flat[i])

    if rows == 1:
        return at(0)
    m, f = _phase_nodes(phis)
    return (
        (f * (1.0 - f) * (f - 2.0) / 6.0) * at((m - 1) % rows)
        + ((f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0) * at(m % rows)
        + ((f + 1.0) * f * (2.0 - f) / 2.0) * at((m + 1) % rows)
        + ((f + 1.0) * f * (f - 1.0) / 6.0) * at((m + 2) % rows)
    )


def _bracket(model, phis, targets, records, bracket):
    """[lo, hi] with F(lo) < u <= F(hi) for each record, doubling the bracket
    up to _WIDENINGS times where it does not hold."""
    lo = np.full_like(targets, -bracket)
    hi = np.full_like(targets, bracket)
    pending = np.arange(targets.size)
    for widening in range(_WIDENINGS + 1):
        u, phi = targets[pending], phis[pending]
        pending = pending[
            (quadrature_cdf(model, lo[pending], phi) >= u)
            | (quadrature_cdf(model, hi[pending], phi) <= u)
        ]
        if not pending.size:
            break
        if widening == _WIDENINGS:
            i = pending[0]
            raise _unbracketed(records[i], targets[i], phis[i])
        lo[pending] *= 2.0
        hi[pending] *= 2.0
    return lo, hi


def _newton(model, phis, targets, records, tol, x, lo, hi):
    """Safeguarded Newton iteration for F(x, phi) = u, record by record,
    from x (or the bracket midpoint where x is outside [lo, hi]).

    A Newton step, nudged tol/4 past the root so that the bracket closes from
    both sides, is replaced by the bracket midpoint where it is not finite,
    leaves the bracket, or is longer than half the bracket or half the step
    before last (the last rule stops Newton from creeping where the computed
    F is flat, as in saturated tails).  A record stops at the midpoint of its
    bracket once the bracket is at most tol wide or cannot be split; only the
    records still open are evaluated again.
    """
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    out = np.empty_like(targets)
    idx, u, phi = np.arange(targets.size), targets, phis
    # lengths of the last two steps taken
    d1 = d2 = np.full(targets.size, np.inf)
    for _ in range(_MAX_STEPS):
        cdf, pdf = _cdf_and_pdf(model, x, phi)
        nan = np.isnan(cdf)
        if nan.any():
            i = idx[np.argmax(nan)]
            raise InversionError(
                f"CDF is NaN for record {records[i]} (u={float(targets[i])!r}, "
                f"phi={float(phis[i])!r})"
            )
        below = cdf < u
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= tol) | (mid <= lo) | (mid >= hi)
        if done.any():
            out[idx[done]] = mid[done]
            keep = ~done
            if not keep.any():
                return out
            idx, u, phi, x, lo, hi, mid, cdf, pdf, below, d1, d2 = (
                a[keep] for a in (idx, u, phi, x, lo, hi, mid, cdf, pdf, below, d1, d2)
            )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = (u - cdf) / pdf + np.where(below, 0.25 * tol, -0.25 * tol)
            new = x + step
            # NaN and inf fail these comparisons and fall back to the midpoint
            newton = (lo < new) & (new < hi) & (np.abs(step) <= 0.5 * np.minimum(hi - lo, d2))
        new = np.where(newton, new, mid)
        d1, d2 = np.abs(new - x), d1
        x = new
    i = idx[0]
    raise InversionError(
        f"quantile for record {records[i]} (u={float(targets[i])!r}, "
        f"phi={float(phis[i])!r}) not within tol={tol!r} after {_MAX_STEPS} steps"
    )


def _newton_quantiles(model, phis, targets, records, tol, bracket, table):
    """Quantiles of a Fock, SPATS or cat source from the start table.

    Each record first runs on [-bracket, bracket] unchecked.  Where the root
    lies inside, the iteration ends there holding F(lo) < u <= F(hi) from its
    own evaluations; where it lies outside, the bracket collapses onto the end
    nearest to it.  So a record that ends within tol of either end is solved
    again inside a checked, and if need be widened, bracket.
    """
    start = _table_start(table, phis, targets)
    out = _newton(model, phis, targets, records, tol, start, -bracket, bracket)
    edge = ~((tol - bracket < out) & (out < bracket - tol))
    if edge.any():
        part = (phis[edge], targets[edge], records[edge])
        lo, hi = _bracket(model, *part, bracket)
        out[edge] = _newton(model, *part, tol, start[edge], lo, hi)
    return out


def _invert(model, phis, targets, tol, bracket):
    """Quantiles x with F(x, phi) = u for every (phi, u) pair, block by block."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not (np.isfinite(bracket) and bracket > 0.0):
        raise ValueError(f"bracket must be finite and > 0, got {bracket!r}")
    gaussian = isinstance(model, (Vacuum, Thermal, SqueezedVacuum))
    table = None if gaussian else _start_table(model, phis)
    out = np.empty_like(targets)
    records = np.arange(targets.size)
    for first in range(0, targets.size, _BLOCK):
        part = slice(first, first + _BLOCK)
        block = (model, phis[part], targets[part], records[part], tol, bracket)
        out[part] = _gaussian_quantiles(*block) if gaussian else _newton_quantiles(*block, table)
    return out


def invert_cdf(
    model: SourceModel,
    phi: float,
    u: float,
    tol: float = DEFAULT_TOL,
    bracket: float = DEFAULT_BRACKET,
) -> float:
    """Quantile x with F(x, phi) = u: closed form for the Gaussian sources,
    otherwise to absolute tolerance tol.  The search bracket [-bracket,
    bracket] is doubled up to 4 times if needed; a quantile beyond the widest
    bracket raises InversionError.  phi must be finite, and tol and bracket
    finite and > 0."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    out = _invert(model, np.array([float(phi)]), np.array([float(u)]), tol, float(bracket))
    return float(out[0])


@dataclass(frozen=True)
class SampleSet:
    """Reproducible batch of homodyne records for one source model."""

    phases: np.ndarray
    values: np.ndarray
    model: SourceModel | None
    seed: int

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if phases.shape != values.shape or phases.ndim != 1:
            raise MalformedInputError("phases and values must be 1-D arrays of equal length")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.phases.size


def sample(
    model: SourceModel,
    count: int,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
    bracket: float = DEFAULT_BRACKET,
) -> SampleSet:
    """Draw homodyne records by inverse-CDF sampling.

    Phases are uniform on [-pi, pi) and CDF targets uniform on (0, 1), both
    from a seeded generator, so identical (model, seed, count) calls return
    identical records, and each record equals ``invert_cdf`` at its own
    (phase, target).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    phases = 2.0 * np.pi * rng.random(count) - np.pi
    targets = np.maximum(rng.random(count), np.finfo(float).tiny)
    values = _invert(model, phases, targets, tol, bracket)
    return SampleSet(phases=phases, values=values, model=model, seed=seed)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def _cat_moments(model: CatState, phi):
    """Mean and variance of X_phi from the three Gaussian terms of the pdf."""
    g = model.alpha * np.exp(1j * phi)
    a = 2.0 * np.real(g)
    b = 2.0 * np.imag(g)
    damp = np.exp(-2.0 * abs(model.alpha) ** 2)
    norm = model.normalization()
    m1 = 2.0 * b * damp * np.sin(model.theta) / norm
    m2 = (2.0 * (1.0 + a**2) + 2.0 * damp * np.cos(model.theta) * (1.0 - b**2)) / norm
    return m1, m2 - m1**2


def theoretical_variance(model: SourceModel, phi: float) -> float:
    """Analytic Var[X_phi] for each model (vacuum variance 1)."""
    if isinstance(model, Vacuum):
        return 1.0
    if isinstance(model, Fock):
        return 2.0 * model.n + 1.0
    if isinstance(model, Spats):
        return 4.0 * model.n_bar + 3.0
    if isinstance(model, SqueezedVacuum):
        r = model.r
        return float(abs(np.exp(1j * phi) * np.cosh(r) - np.exp(-1j * phi) * np.sinh(r)) ** 2)
    if isinstance(model, CatState):
        return float(_cat_moments(model, phi)[1])
    if isinstance(model, Thermal):
        return 2.0 * model.n_bar + 1.0
    raise TypeError(f"unknown source model {model!r}")


@dataclass(frozen=True)
class VarianceReport:
    """Per-phase-bin variance statistics; under-filled bins carry NaN."""

    bin_centers: np.ndarray
    counts: np.ndarray
    estimated_variance: np.ndarray
    theoretical_variance: np.ndarray
    shifted_variance: np.ndarray
    variance_product: np.ndarray
    normally_ordered_variance: np.ndarray


def _phase_bins(phases: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each phase, as ``clip(digitize(phases, edges) - 1, 0, n - 1)``
    gives it for the n equal-width bins between ``edges``, NaN in the last.

    The index comes from arithmetic, off by at most one next to an edge, and
    one comparison with the edges on each side puts it right.
    """
    num_bins = edges.size - 1
    # in place, so that no more than two record-sized arrays are alive
    which = phases - edges[0]
    which *= num_bins / (edges[-1] - edges[0])
    np.floor(which, out=which)
    # fmin takes num_bins - 1 for NaN, where digitize sorts NaN last
    np.fmin(which, num_bins - 1, out=which)
    which = np.maximum(which, 0, out=which).astype(np.intp)
    # NaN bounds: nothing steps below the first bin or past the last
    bounds = np.concatenate(([np.nan], edges[1:-1], [np.nan]))
    which -= phases < bounds[which]
    which += phases >= bounds[which + 1]
    return which


def binned_variance(samples: SampleSet, num_bins: int) -> VarianceReport:
    """Equal-width phase bins over [-pi, pi) with per-bin sample variance.

    The shifted column pairs bin i with bin i + num_bins//4 (cyclically), so
    their product estimates Var[X_phi] Var[X_{phi+pi/2}]; the pairing is an
    exact quarter turn when num_bins is divisible by 4.  The normally ordered
    column subtracts the vacuum variance 1.
    """
    if num_bins < 4:
        raise ValueError("num_bins must be >= 4")
    if len(samples) == 0:
        raise ValueError("sample set is empty")
    edges = np.linspace(-np.pi, np.pi, num_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    which = _phase_bins(samples.phases, edges)
    counts = np.bincount(which, minlength=num_bins)
    # a stable sort by bin makes each bin a contiguous slice holding its
    # records in file order, so each variance is that of values[which == i];
    # the narrowest integer type lets numpy use its radix sort
    order = np.argsort(which.astype(np.min_scalar_type(num_bins - 1)), kind="stable")
    by_bin = samples.values[order]
    stops = np.cumsum(counts)
    est = np.full(num_bins, np.nan)
    for i in np.flatnonzero(counts >= 2):
        est[i] = np.var(by_bin[stops[i] - counts[i] : stops[i]], ddof=1)
    if samples.model is not None:
        theory = np.array([theoretical_variance(samples.model, c) for c in centers])
    else:
        theory = np.full(num_bins, np.nan)
    shifted = np.roll(est, -(num_bins // 4))
    return VarianceReport(
        bin_centers=centers,
        counts=counts,
        estimated_variance=est,
        theoretical_variance=theory,
        shifted_variance=shifted,
        variance_product=est * shifted,
        normally_ordered_variance=est - 1.0,
    )


def variance_standard_error(report: VarianceReport) -> np.ndarray:
    """Normal-theory standard error of each bin's variance estimate,
    var * sqrt(2 / (count - 1))."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return report.estimated_variance * np.sqrt(
            2.0 / np.maximum(report.counts - 1, 1)
        )


def squeezing_certificate(report: VarianceReport, sigma_level: float = 3.0) -> np.ndarray:
    """Per-bin squeezing verdicts.

    A bin is certified when its normally ordered variance stays negative by
    at least sigma_level standard errors of the variance estimate.
    """
    se = variance_standard_error(report)
    with np.errstate(invalid="ignore"):
        certified = report.normally_ordered_variance + sigma_level * se < 0.0
    return np.where(np.isnan(report.normally_ordered_variance), False, certified)


def heisenberg_violations(report: VarianceReport, sigma_level: float = 3.0) -> np.ndarray:
    """Bins whose variance product undercuts 1 by more than sigma_level
    combined standard errors (expected empty for physical data)."""
    se = variance_standard_error(report)
    se_shift = np.roll(se, -(len(se) // 4))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.sqrt(
            (se / report.estimated_variance) ** 2
            + (se_shift / report.shifted_variance) ** 2
        )
        se_product = np.abs(report.variance_product) * rel
        violated = report.variance_product + sigma_level * se_product < 1.0
    return np.where(np.isnan(report.variance_product), False, violated)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


SAMPLES_CSV_HEADER = ["phase", "x"]


def write_samples_csv(samples: SampleSet, path: str) -> None:
    """Write records as `phase,x` lines with 17 significant digits, block by
    block, so memory beyond the records stays bounded."""
    _write_csv(path, SAMPLES_CSV_HEADER, [samples.phases, samples.values])


def read_samples_csv(path: str, model: SourceModel | None = None, seed: int = 0) -> SampleSet:
    """Parse a `phase,x` file block by block; raises on the first malformed
    line, naming it."""
    phases, values = _read_csv(path, SAMPLES_CSV_HEADER, "sample")
    return SampleSet(phases=phases, values=values, model=model, seed=seed)


VARIANCE_CSV_HEADER = [
    "phi",
    "count",
    "var_est",
    "var_theory",
    "var_shifted",
    "product",
    "normally_ordered",
]


def write_variance_csv(report: VarianceReport, path: str) -> None:
    """Write one line per phase bin (see VARIANCE_CSV_HEADER), block by block."""
    columns = (
        report.bin_centers,
        report.counts,
        report.estimated_variance,
        report.theoretical_variance,
        report.shifted_variance,
        report.variance_product,
        report.normally_ordered_variance,
    )
    _write_csv(path, VARIANCE_CSV_HEADER, columns)


def read_variance_csv(path: str) -> VarianceReport:
    """Parse a file written by write_variance_csv, block by block."""
    cols = _read_csv(path, VARIANCE_CSV_HEADER, "variance")
    return VarianceReport(
        bin_centers=cols[0],
        counts=cols[1].astype(int),
        estimated_variance=cols[2],
        theoretical_variance=cols[3],
        shifted_variance=cols[4],
        variance_product=cols[5],
        normally_ordered_variance=cols[6],
    )
