"""Simulated balanced-homodyne-detection data for nonclassical state families.

Everything here uses the dimensionless quadrature convention in which the
vacuum variance is 1 and Var[X_phi] Var[X_{phi+pi/2}] >= 1: the x and p of
``GaussianState`` at hbar = 2, with X_phi = x cos(phi) - p sin(phi).  Each
source model is a class that owns its closed forms as methods: the
characteristic function chi(beta), the quadrature density p(x, phi), its
antiderivative F(x, phi) and the mean and variance of X_phi.  The public
functions below delegate to them.  A Gaussian source holds a single-mode
``GaussianState``, whose X_phi is normal (Lvovsky & Raymer, RMP 81, 299
(2009)).  Sampling draws uniform phases on [-pi, pi) and uniform targets u
on (0, 1) and solves F(x, phi) = u, for a Gaussian source in closed form,
x = E[X_phi] + sqrt(Var[X_phi]) ndtri(u), exact for every u.  For the Fock,
SPATS and cat sources each record runs a safeguarded Newton iteration inside
a bisection bracket: Newton steps from a start read off a quantile table, a
midpoint step wherever Newton would leave the bracket or stall, and a stop
once the bracket is narrower than the tolerance.  The table is built once
per call from the model alone: F and p on a fixed x grid (one row, or one
row at every phase node of a cat), inverted to quantiles on a uniform u grid by
cubic Hermite interpolation.  A record starts from it linearly in u and, for
a cat, cubically in phi.  Records start on [-50, 50] without evaluating F at its
ends; one that ends within tol of an end is solved once more, from the same
start, on [-reach, reach] with reach = |E[X_phi]| + 64 sd(X_phi) + 50.  A
record whose quantile lies past that reach, which holds every quantile down
to u = 1e-300 (a Gaussian tail of about 37 sd), raises InversionError.
Records are solved in fixed-size blocks, on as many threads as there are
blocks, up to the number of CPUs the process may use.  A record's value
depends on its own (phi, u) and the model alone, so not on the batch it is
drawn in, its block, or the threads.  Source parameters must be finite, and
tol finite and > 0; anything else raises ValueError.

scipy.special is imported inside the methods that evaluate erf, ndtri or
eval_laguerre, so that importing cvsim does not load it: that import takes
about as long as the rest of the package's imports together.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from ._csvio import _read_csv, _write_csv
from .errors import CVSimError, InversionError, MalformedInputError
from .phase_space import characteristic_gaussian
from .states import GaussianState, _vacuum_units

#: default quantile tolerance
DEFAULT_TOL = 1e-12
#: Fock photon-number cap for the Hermite-function closed forms
MAX_FOCK_N = 10
#: SPATS n_bar cap: the reach stays below 64 sd + 50 = 1.3e152 there, so
#: x**2 stays finite wherever F or p is evaluated
MAX_SPATS_NBAR = 1e300
#: half-width of the first, unchecked search bracket; it fixes each record's
#: Newton path, and so its value
_BRACKET = 50.0
#: the far-tail bracket reaches this many standard deviations of X_phi
_REACH_SD = 64.0
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


class SourceModel:
    """A source family with its closed forms, each a method: ``chi(beta)``,
    ``pdf(x, phi)``, ``cdf_pdf(x, phi)``, which returns F and p together, and
    ``moments(phi)``, the mean and variance of X_phi (scalars where they do not
    depend on phi).  A caller that needs p alone calls ``pdf``, which for a
    cat skips F's complex erf.  x and phi are float arrays that broadcast; a
    family whose density does not depend on phi returns arrays shaped like x."""

    #: whether p(x, phi) depends on phi
    phase_sensitive = False


@dataclass(frozen=True, eq=False)
class GaussianSource(SourceModel):
    """A single-mode Gaussian state, held in vacuum units (hbar = 2; a state
    at hbar = 2 is held as it is).  With c = (cos phi, -sin phi), X_phi is
    normal with mean c.mu and variance c^T sigma c.  Sources compare and hash
    by identity: the state's arrays have no truth value to compare by."""

    state: GaussianState

    def __post_init__(self) -> None:
        if self.state.num_modes != 1:
            raise ValueError("a Gaussian source takes a single-mode state; reduce first")
        object.__setattr__(self, "state", _vacuum_units(self.state))
        (xx, xp), (_, pp) = self.state.cov
        object.__setattr__(self, "phase_sensitive", bool(xx != pp or xp or self.state.mean.any()))

    def chi(self, beta: complex) -> complex:
        return characteristic_gaussian(self.state, (beta.real, beta.imag))

    def moments(self, phi):
        # where sigma is proportional to I, the variance is sigma_xx with no
        # phi arithmetic, which would move it with phi by an ulp
        (xx, xp), (_, pp) = self.state.cov
        if not self.phase_sensitive:
            return 0.0, xx
        c, s = np.cos(phi), np.sin(phi)
        var = xx if xx == pp and xp == 0.0 else xx * c**2 + pp * s**2 - 2.0 * xp * c * s
        return self.state.mean[0] * c - self.state.mean[1] * s, var

    def pdf(self, x, phi):
        m, v = self.moments(phi)
        return np.exp(-((x - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)

    def cdf_pdf(self, x, phi):
        from scipy.special import erf

        m, v = self.moments(phi)
        return 0.5 + 0.5 * erf((x - m) / np.sqrt(2.0 * v)), self.pdf(x, phi)

    def quantile(self, phi, u):
        from scipy.special import ndtri

        m, v = self.moments(phi)
        return m + np.sqrt(v) * ndtri(u)


@dataclass(frozen=True)
class Fock(SourceModel):
    """Photon-number state |n>, 0 <= n <= 10."""

    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_FOCK_N:
            raise ValueError(f"Fock n must be in 0..{MAX_FOCK_N}, got {self.n}")

    def chi(self, beta: complex) -> complex:
        from scipy.special import eval_laguerre

        ab2 = abs(beta) ** 2
        return complex(np.exp(-ab2 / 2.0) * eval_laguerre(self.n, ab2))

    def cdf_pdf(self, x, phi):
        """F and p from the normalized Hermite functions psi_k(x / sqrt 2),

            psi_k = sqrt(2/k) u psi_{k-1} - sqrt((k-1)/k) psi_{k-2},
            F_n = 1/2 + erf(u)/2 - sum_{k=1..n} psi_k psi_{k-1} / sqrt(2k),
            p_n = psi_n^2 / sqrt(2),

        which stays accurate to a few ulp where the Hermite-polynomial sums
        cancel.
        """
        from scipy.special import erf

        u = x / np.sqrt(2.0)
        prev = np.zeros_like(u)
        psi = np.pi**-0.25 * np.exp(-(u**2) / 2.0)
        series = np.zeros_like(u)
        for k in range(1, self.n + 1):
            prev, psi = psi, np.sqrt(2.0 / k) * u * psi - np.sqrt((k - 1) / k) * prev
            series = series + psi * prev / np.sqrt(2.0 * k)
        return 0.5 + 0.5 * erf(u) - series, psi**2 / np.sqrt(2.0)

    def pdf(self, x, phi):
        """p_n by the psi_k recursion of cdf_pdf alone, without F's series."""
        u = x / np.sqrt(2.0)
        prev = np.zeros_like(u)
        psi = np.pi**-0.25 * np.exp(-(u**2) / 2.0)
        for k in range(1, self.n + 1):
            prev, psi = psi, np.sqrt(2.0 / k) * u * psi - np.sqrt((k - 1) / k) * prev
        return psi**2 / np.sqrt(2.0)

    def moments(self, phi):
        return 0.0, 2.0 * self.n + 1.0


@dataclass(frozen=True)
class Spats(SourceModel):
    """Single-photon-added thermal state with mean thermal photon number
    n_bar, 0 < n_bar <= MAX_SPATS_NBAR."""

    n_bar: float

    def __post_init__(self) -> None:
        if not 0 < self.n_bar <= MAX_SPATS_NBAR:
            raise ValueError(
                f"SPATS n_bar must be finite and in (0, {MAX_SPATS_NBAR:g}], got {self.n_bar!r}"
            )

    def chi(self, beta: complex) -> complex:
        nb, ab2 = self.n_bar, abs(beta) ** 2
        return complex(np.exp(-ab2 / 2.0) * (1.0 - (1.0 + nb) * ab2) * np.exp(-nb * ab2))

    def pdf(self, x, phi):
        nb = self.n_bar
        s = 4.0 * nb + 2.0
        bracket = 1.0 - (1.0 + nb) / (1.0 + 2.0 * nb) * (1.0 - x**2 / (1.0 + 2.0 * nb))
        return np.exp(-(x**2) / s) / np.sqrt(np.pi * s) * bracket

    def cdf_pdf(self, x, phi):
        from scipy.special import erf

        nb = self.n_bar
        s = 4.0 * nb + 2.0
        cdf = (
            0.5
            + 0.5 * erf(x / np.sqrt(s))
            - x / np.sqrt(np.pi * s) * (1.0 + nb) / (1.0 + 2.0 * nb) * np.exp(-(x**2) / s)
        )
        return cdf, self.pdf(x, phi)

    def moments(self, phi):
        return 0.0, 4.0 * self.n_bar + 3.0


@dataclass(frozen=True)
class CatState(SourceModel):
    """Normalized superposition (|alpha> + e^{i theta} |-alpha>) / sqrt(N)."""

    alpha: complex
    theta: float

    phase_sensitive = True

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and np.isfinite(self.theta)):
            raise ValueError(
                f"cat alpha and theta must be finite, got {self.alpha!r} and {self.theta!r}"
            )
        if self.normalization() <= 0:
            raise ValueError("cat state normalization must be positive")

    def normalization(self) -> float:
        return 2.0 + 2.0 * np.cos(self.theta) * np.exp(-2.0 * abs(self.alpha) ** 2)

    def _terms(self, phi):
        """Centres 2 Re(alpha e^{i phi}) and shift 2 Im(alpha e^{i phi}) of the
        Gaussian terms of p(x, phi), and the damping exp(-2 |alpha|^2)."""
        g = self.alpha * np.exp(1j * phi)
        return 2.0 * np.real(g), 2.0 * np.imag(g), np.exp(-2.0 * abs(self.alpha) ** 2)

    def chi(self, beta: complex) -> complex:
        a = self.alpha
        ac = np.conj(a)
        bc = np.conj(beta)
        damp = np.exp(-2.0 * abs(a) ** 2)
        terms = (
            np.exp(beta * ac - bc * a)
            + np.exp(1j * self.theta) * np.exp(beta * ac + bc * a) * damp
            + np.exp(-1j * self.theta) * np.exp(-beta * ac - bc * a) * damp
            + np.exp(-beta * ac + bc * a)
        )
        return complex(np.exp(-abs(beta) ** 2 / 2.0) * terms / self.normalization())

    def pdf(self, x, phi):
        return self._pdf(x, self._terms(phi))

    def _pdf(self, x, terms):
        a, b, damp = terms
        cross = (np.exp(1j * self.theta) * damp * np.exp(-((x + 1j * b) ** 2) / 2.0)).real * 2.0
        total = np.exp(-((x - a) ** 2) / 2.0) + np.exp(-((x + a) ** 2) / 2.0) + cross
        # clip -eps rounding at density zeros
        return np.maximum(total / (self.normalization() * np.sqrt(2.0 * np.pi)), 0.0)

    def cdf_pdf(self, x, phi):
        from scipy.special import erf

        # one evaluation of the complex terms serves both
        terms = self._terms(phi)
        a, b, damp = terms
        c = np.exp(1j * self.theta) * damp
        sqrt2 = np.sqrt(2.0)
        # Sum of the per-term antiderivatives (1 + erf)/2; the two
        # complex-argument terms are conjugates, so they add up to twice the
        # real part of one.
        total = (
            (1.0 + erf((x - a) / sqrt2))
            + (1.0 + erf((x + a) / sqrt2))
            + 2.0 * np.real(c * (1.0 + erf((x + 1j * b) / sqrt2)))
        )
        return total / (2.0 * self.normalization()), self._pdf(x, terms)

    def moments(self, phi):
        """Mean and variance of X_phi from the three Gaussian terms of the pdf."""
        a, b, damp = self._terms(phi)
        norm = self.normalization()
        m1 = 2.0 * b * damp * np.sin(self.theta) / norm
        m2 = (2.0 * (1.0 + a**2) + 2.0 * damp * np.cos(self.theta) * (1.0 - b**2)) / norm
        return m1, m2 - m1**2


def SqueezedVacuum(r: float) -> GaussianSource:
    """Squeezed vacuum, x squeezed for r > 0: Var[X_phi] = e^{-2r} cos^2(phi)
    + e^{2r} sin^2(phi).  MalformedInputError where e^{2|r|} overflows."""
    if not np.isfinite(r):
        raise ValueError(f"squeezing r must be finite, got {r!r}")
    with np.errstate(over="ignore"):
        cov = np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)])
    return GaussianSource(GaussianState(np.zeros(2), cov))


def Thermal(n_bar: float) -> GaussianSource:
    """Thermal state with mean photon number n_bar; MalformedInputError
    where 2 n_bar + 1 overflows."""
    if not (np.isfinite(n_bar) and n_bar >= 0):
        raise ValueError(f"thermal n_bar must be finite and >= 0, got {n_bar!r}")
    with np.errstate(over="ignore"):
        var = 2.0 * n_bar + 1.0
    return GaussianSource(GaussianState(np.zeros(2), np.diag([var, var])))


def Vacuum() -> GaussianSource:
    """The vacuum state."""
    return GaussianSource(GaussianState(np.zeros(2), np.eye(2)))


# ---------------------------------------------------------------------------
# characteristic functions, densities and cumulative distributions
# ---------------------------------------------------------------------------


def characteristic_fn(model: SourceModel, beta: complex) -> complex:
    """Closed-form characteristic function chi(beta); chi(0) = 1 for all models."""
    return model.chi(beta)


def quadrature_pdf(model: SourceModel, x, phi):
    """Closed-form quadrature density p(x, phi); phase-independent for the
    Fock, SPATS, thermal and vacuum models.  Accepts scalars or arrays."""
    out = model.pdf(np.asarray(x, dtype=float), np.asarray(phi, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def quadrature_cdf(model: SourceModel, x, phi):
    """Closed-form cumulative distribution F(x, phi); monotone in x with
    limits 0 and 1.  Accepts scalars or arrays."""
    out = model.cdf_pdf(np.asarray(x, dtype=float), np.asarray(phi, dtype=float))[0]
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# inverse-CDF sampling
# ---------------------------------------------------------------------------


def _cdf_and_pdf(model: SourceModel, x: np.ndarray, phi: np.ndarray):
    """F and p at the same points.  A NaN F, which a large cat's 0 * inf
    cross term gives, raises in _newton instead of warning here."""
    with np.errstate(invalid="ignore", over="ignore"):
        return model.cdf_pdf(x, phi)


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


def _start_table(model):
    """Quantiles of the model at u = k / _TABLE_U, k = 0 .. _TABLE_U, one
    row per phase node.

    F and p are evaluated on _TABLE_X points spanning the mean +- (2 sd + 5)
    of each row; the columns u = 0 and 1 hold the ends of the span.  The
    Fock and SPATS densities do not depend on phi and have one row; a cat has
    _TABLE_PHI rows at phi = -pi + 2 pi m / _TABLE_PHI.  Since a cat's
    p(x, phi + pi) = p(-x, phi), its quantile at (u, phi + pi) is minus that
    at (1 - u, phi), and only the rows with phi < 0 are evaluated.
    """
    phased = model.phase_sensitive
    nodes = np.linspace(-np.pi, 0.0, _TABLE_PHI // 2 if phased else 1, endpoint=False)[:, None]
    mean, var = model.moments(nodes)
    span = (2.0 * np.sqrt(var) + 5.0) * np.linspace(-1.0, 1.0, _TABLE_X)
    x = np.broadcast_to(mean + span, (nodes.size, _TABLE_X))
    cdf, pdf = _cdf_and_pdf(model, x, nodes)
    u = np.arange(1, _TABLE_U) / _TABLE_U
    inner = [_quantile_row(*row, u) for row in zip(x, cdf, pdf)]
    evaluated = np.column_stack((x[:, 0], inner, x[:, -1]))
    return np.vstack((evaluated, -evaluated[:, ::-1])) if phased else evaluated


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
    # m is the phase node at or below each phi (_TABLE_PHI wraps to node 0),
    # and f the fraction of the way to node m + 1
    r = np.mod(phis + np.pi, 2.0 * np.pi) * (_TABLE_PHI / (2.0 * np.pi))
    m = np.floor(r).astype(np.intp)
    f = r - m
    return (
        (f * (1.0 - f) * (f - 2.0) / 6.0) * at((m - 1) % rows)
        + ((f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0) * at(m % rows)
        + ((f + 1.0) * f * (2.0 - f) / 2.0) * at((m + 1) % rows)
        + ((f + 1.0) * f * (f - 1.0) / 6.0) * at((m + 2) % rows)
    )


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


def _newton_quantiles(model, phis, targets, records, tol, table):
    """Quantiles of a Fock, SPATS or cat source from the start table.

    Each record first runs on [-_BRACKET, _BRACKET] unchecked.  Where the root
    lies inside, the iteration ends there holding F(lo) < u <= F(hi) from its
    own evaluations; where it lies outside, the bracket collapses onto the end
    nearest to it.  So a record that ends within tol of either end runs once
    more, again from its table start, on [-reach, reach] with reach =
    |E[X_phi]| + _REACH_SD sd(X_phi) + _BRACKET, and one that ends within tol
    of +-reach raises InversionError naming the lowest such record: its model
    understates its spread.  A NaN reach makes F NaN, which _newton refuses.
    """
    start = _table_start(table, phis, targets)
    out = _newton(model, phis, targets, records, tol, start, -_BRACKET, _BRACKET)
    edge = np.abs(out) >= _BRACKET - tol
    if edge.any():
        phi, u, rec = phis[edge], targets[edge], records[edge]
        mean, var = model.moments(phi)
        reach = np.broadcast_to(np.abs(mean) + _REACH_SD * np.sqrt(var) + _BRACKET, u.shape)
        wide = _newton(model, phi, u, rec, tol, start[edge], -reach, reach)
        far = np.abs(wide) >= reach - tol
        if far.any():
            i = np.argmax(far)
            raise InversionError(
                f"could not bracket the quantile for record {rec[i]} "
                f"(u={float(u[i])!r}, phi={float(phi[i])!r}) within |x| <= {float(reach[i])!r}"
            )
        out[edge] = wide
    return out


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _invert(model, phis, targets, tol):
    """Quantiles x with F(x, phi) = u for every (phi, u) pair, block by block.

    The blocks are solved on min(blocks, CPUs available) threads, the calling
    thread one of them, each thread in a copy of the caller's context and so
    under its numpy errstate.  A block's records depend on its own (phi, u)
    pairs and the start table alone, not on the thread that solves it or
    when.  Blocks are taken in order, and none once one has failed, so the
    exception raised is the lowest failing block's, as in a serial loop.
    """
    import contextvars
    import threading

    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    gaussian = isinstance(model, GaussianSource)
    table = None if gaussian else _start_table(model)
    out = np.empty_like(targets)
    records = np.arange(targets.size)
    parts = [slice(first, first + _BLOCK) for first in range(0, targets.size, _BLOCK)]
    lock = threading.Lock()
    untaken = iter(parts)
    failed = {}

    def work():
        while True:
            with lock:
                part = None if failed else next(untaken, None)
            if part is None:
                return
            try:
                if gaussian:
                    out[part] = model.quantile(phis[part], targets[part])
                else:
                    block = (phis[part], targets[part], records[part])
                    out[part] = _newton_quantiles(model, *block, tol, table)
            except BaseException as exc:
                with lock:
                    failed[part.start] = exc

    # speed only: a block's erf, exp and array steps release the GIL; on a
    # 2-vCPU VM, sample(..., 1e5) of cat alpha = 2 186 -> 115 ms and Fock 10
    # 59 -> 53 ms, homodyne-nongaussian job_tail_s -35%
    helpers = []
    try:
        for _ in range(min(len(parts), _cpus()) - 1):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return out


def invert_cdf(model: SourceModel, phi: float, u: float, tol: float = DEFAULT_TOL) -> float:
    """Quantile x with F(x, phi) = u: closed form for the Gaussian sources,
    otherwise to absolute tolerance tol.  phi must be finite, and tol finite
    and > 0."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    out = _invert(model, np.array([float(phi)]), np.array([float(u)]), tol)
    return float(out[0])


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Reproducible batch of homodyne records for one source model."""

    phases: np.ndarray
    values: np.ndarray
    model: SourceModel | None

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if phases.shape != values.shape or phases.ndim != 1:
            raise MalformedInputError("phases and values must be 1-D arrays of equal length")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.phases.size


def sample(model: SourceModel, count: int, seed: int = 42, tol: float = DEFAULT_TOL) -> SampleSet:
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
    values = _invert(model, phases, targets, tol)
    return SampleSet(phases=phases, values=values, model=model)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def theoretical_variance(model: SourceModel, phi: float) -> float:
    """Analytic Var[X_phi] for each model (vacuum variance 1)."""
    return float(model.moments(phi)[1])


@dataclass(frozen=True, eq=False)
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
    # speed only: 15.0/10.7 ms at 50/1000 bins on 1e6 phases, np.digitize 50.3/91.7 ms (2-vCPU VM)
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
    column subtracts the vacuum variance 1.  A bin of two or more records
    whose variance is not finite, or whose product overflows, raises
    CVSimError naming the first such bin's centre.
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
    # an inf record, or one that overflows in the variance or the product,
    # raises below rather than warning here
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(counts >= 2):
            est[i] = np.var(by_bin[stops[i] - counts[i] : stops[i]], ddof=1)
        # a finite variance whose sum of squares overflows: scale the bin by
        # its largest |record| before squaring
        for i in np.flatnonzero((counts >= 2) & ~np.isfinite(est)):
            b = by_bin[stops[i] - counts[i] : stops[i]]
            s = np.max(np.abs(b))
            est[i] = (np.var(b / s, ddof=1) * s) * s
        shifted = np.roll(est, -(num_bins // 4))
        product = est * shifted
    bad = ((counts >= 2) & ~np.isfinite(est)) | np.isinf(product)
    if bad.any():
        i = np.argmax(bad)
        what = "variance product" if np.isfinite(est[i]) else "variance"
        raise CVSimError(f"the {what} of the phase bin at phi = {float(centers[i])!r} is not finite")
    if samples.model is not None:
        theory = np.array([theoretical_variance(samples.model, c) for c in centers])
    else:
        theory = np.full(num_bins, np.nan)
    return VarianceReport(
        bin_centers=centers,
        counts=counts,
        estimated_variance=est,
        theoretical_variance=theory,
        shifted_variance=shifted,
        variance_product=product,
        normally_ordered_variance=est - 1.0,
    )


def variance_standard_error(report: VarianceReport) -> np.ndarray:
    """Normal-theory standard error of each bin's variance estimate,
    var * sqrt(2 / (count - 1)); inf where that overflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
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
    """Write records as `phase,x` lines, each number in the shortest digits
    that read back as it, block by block, so memory beyond the records stays
    bounded."""
    _write_csv(path, SAMPLES_CSV_HEADER, [samples.phases, samples.values])


def read_samples_csv(path: str, model: SourceModel | None = None) -> SampleSet:
    """Parse a `phase,x` file, read in chunks of whole lines; raises on the
    first malformed line, naming it."""
    phases, values = _read_csv(path, SAMPLES_CSV_HEADER, "sample")
    return SampleSet(phases=phases, values=values, model=model)


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
    """Write one line per phase bin, block by block: the columns of
    VARIANCE_CSV_HEADER are the report's fields, in order."""
    _write_csv(path, VARIANCE_CSV_HEADER, [getattr(report, f.name) for f in fields(report)])


def read_variance_csv(path: str) -> VarianceReport:
    """Parse a file written by write_variance_csv, read in chunks of whole
    lines; a count that is not a non-negative integer raises
    MalformedInputError."""
    cols = _read_csv(path, VARIANCE_CSV_HEADER, "variance")
    counts = cols[1]
    bad = np.flatnonzero(~((counts >= 0) & (counts < 2.0**63) & (np.floor(counts) == counts)))
    if bad.size:
        raise MalformedInputError(f"data row {bad[0] + 1}: count {float(counts[bad[0]])!r} "
                                  "is not a non-negative integer")
    cols[1] = counts.astype(int)
    return VarianceReport(*cols)
