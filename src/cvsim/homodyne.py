"""Simulated balanced-homodyne-detection data for nonclassical state families.

Everything here uses the dimensionless quadrature convention in which the
vacuum variance is 1 and Var[X_phi] Var[X_{phi+pi/2}] >= 1.  For each source
model the characteristic function chi(beta), the quadrature density p(x, phi)
and its antiderivative F(x, phi) are closed forms.  Sampling draws uniform
phases on [-pi, pi) and uniform targets u on (0, 1) and solves F(x, phi) = u.
For the Gaussian sources (vacuum, thermal, squeezed vacuum) the quantile is
the closed form x = sqrt(Var[X_phi]) ndtri(u).  For the Fock, SPATS and cat
sources each record runs a safeguarded Newton iteration inside a bisection
bracket: Newton steps from the moment-matched Gaussian quantile, a midpoint
step wherever Newton would leave the bracket or stall, and a stop once the
bracket is narrower than the tolerance.  Records are solved in fixed-size blocks, and a
record's value does not depend on the batch it is drawn in.

The squeezed-vacuum family is squeezed along x at phi = 0:
Var[X_phi] = e^{-2r} cos^2(phi) + e^{2r} sin^2(phi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Union

import numpy as np
from scipy.special import erf, eval_laguerre, ndtri

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
        if self.n_bar <= 0:
            raise ValueError("SPATS n_bar must be > 0")


@dataclass(frozen=True)
class SqueezedVacuum:
    """Squeezed vacuum with real squeezing parameter r (x squeezed for r > 0)."""

    r: float


@dataclass(frozen=True)
class CatState:
    """Normalized superposition (|alpha> + e^{i theta} |-alpha>) / sqrt(N)."""

    alpha: complex
    theta: float

    def __post_init__(self) -> None:
        if self.normalization() <= 0:
            raise ValueError("cat state normalization must be positive")

    def normalization(self) -> float:
        return 2.0 + 2.0 * np.cos(self.theta) * np.exp(-2.0 * abs(self.alpha) ** 2)


@dataclass(frozen=True)
class Thermal:
    """Thermal state with mean photon number n_bar."""

    n_bar: float

    def __post_init__(self) -> None:
        if self.n_bar < 0:
            raise ValueError("thermal n_bar must be >= 0")


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
    """F and p at the same points; one recurrence gives both for Fock states."""
    if isinstance(model, Fock):
        return _fock_cdf_pdf(model.n, x)
    return quadrature_cdf(model, x, phi), quadrature_pdf(model, x, phi)


def _unbracketed(record: int, u: float, phi: float) -> InversionError:
    return InversionError(
        f"could not bracket the quantile for record {record} "
        f"(u={float(u)!r}, phi={float(phi)!r}) after {_WIDENINGS} widenings"
    )


def _gaussian_quantiles(model, phis, targets, tol, bracket, first):
    """Closed-form quantiles of a Gaussian source.  The reach is that of the
    widest bracket, so a quantile at or past it fails as it would there."""
    mean, var = _moments(model, phis)
    x = mean + np.sqrt(var) * ndtri(targets)
    far = ~(np.abs(x) < 2.0**_WIDENINGS * bracket)
    if far.any():
        i = int(np.argmax(far))
        raise _unbracketed(first + i, targets[i], phis[i])
    return x


def _newton_quantiles(model, phis, targets, tol, bracket, first):
    """Safeguarded Newton iteration for F(x, phi) = u, record by record.

    Each record keeps a bracket with F(lo) < u <= F(hi), found as bisection
    found it, and starts from the moment-matched Gaussian quantile.  A Newton
    step, nudged tol/4 past the root so that the bracket closes from both
    sides, is replaced by the bracket midpoint where it is not finite, leaves
    the bracket, or is longer than half the bracket or half the step before
    last (the last rule stops Newton from creeping where the computed F is
    flat, as in saturated tails).  A record stops at the midpoint of its
    bracket once the bracket is at most tol wide or cannot be split; only the
    records still open are evaluated again.
    """
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
            raise _unbracketed(first + i, targets[i], phis[i])
        lo[pending] *= 2.0
        hi[pending] *= 2.0

    mean, var = _moments(model, phis)
    x = mean + np.sqrt(var) * ndtri(targets)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    out = np.empty_like(targets)
    idx, u, phi = np.arange(targets.size), targets, phis
    # lengths of the last two steps taken
    d1 = d2 = np.full(targets.size, np.inf)
    for _ in range(_MAX_STEPS):
        cdf, pdf = _cdf_and_pdf(model, x, phi)
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
        f"quantile for record {first + i} (u={float(targets[i])!r}, "
        f"phi={float(phis[i])!r}) not within tol={tol!r} after {_MAX_STEPS} steps"
    )


def _invert(model, phis, targets, tol, bracket):
    """Quantiles x with F(x, phi) = u for every (phi, u) pair, block by block."""
    gaussian = isinstance(model, (Vacuum, Thermal, SqueezedVacuum))
    solve = _gaussian_quantiles if gaussian else _newton_quantiles
    out = np.empty_like(targets)
    for first in range(0, targets.size, _BLOCK):
        part = slice(first, first + _BLOCK)
        out[part] = solve(model, phis[part], targets[part], tol, bracket, first)
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
    bracket raises InversionError."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
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
    sort_targets: bool = False,
) -> SampleSet:
    """Draw homodyne records by inverse-CDF sampling.

    Phases are uniform on [-pi, pi) and CDF targets uniform on (0, 1), both
    from a seeded generator, so identical (model, seed, count) calls return
    identical records, and each record equals ``invert_cdf`` at its own
    (phase, target).  ``sort_targets`` reproduces the variant that sorts
    the targets before inversion; it is off by default because sorting
    correlates the quantile with the draw order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    phases = 2.0 * np.pi * rng.random(count) - np.pi
    targets = np.maximum(rng.random(count), np.finfo(float).tiny)
    if sort_targets:
        targets = np.sort(targets)
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
    which = np.clip(np.digitize(samples.phases, edges) - 1, 0, num_bins - 1)
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


#: CSV number format, 17 significant digits, which round-trips every double
_NUMBER = "%.17g"


def _write_csv(path: str, header, fields, blocks) -> None:
    """Write a CSV file: the header, then one LF-terminated line per row.

    ``fields`` are the %-formats of the columns; ``blocks`` yields blocks of
    row tuples, each formatted by a single join, so memory stays bounded by
    one block whatever the file size.
    """
    line = ",".join(fields) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for rows in blocks:
            fh.write("".join(map(line.__mod__, rows)))


def _row_blocks(*columns: np.ndarray):
    """Rows of equal-length columns as tuples of Python scalars, _BLOCK at a time."""
    for first in range(0, len(columns[0]), _BLOCK):
        part = slice(first, first + _BLOCK)
        yield zip(*(column[part].tolist() for column in columns))


def _parse_block(lines: list[str], width: int, lineno: int) -> np.ndarray:
    """One block of CSV lines as a (rows, width) float array; blank lines are
    skipped.  ``lineno`` is the file line number of ``lines[0]``."""
    try:
        with warnings.catch_warnings():
            # a block of blank lines holds no data; that is not an error here
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == width or rows.size == 0:
            return rows.reshape(-1, width)
    except ValueError:
        pass
    # scan this block only, line by line, for the first bad line
    for offset, line in enumerate(lines):
        text = line.rstrip("\n")
        if not text:
            continue
        fields = text.count(",") + 1
        if fields != width:
            raise MalformedInputError(
                f"line {lineno + offset}: expected {width} fields, got {fields}: {text!r}"
            )
        try:
            np.loadtxt([text], delimiter=",", comments=None)
        except ValueError:
            raise MalformedInputError(f"line {lineno + offset}: cannot parse {text!r}") from None
    raise MalformedInputError(f"lines {lineno}-{lineno + len(lines) - 1}: cannot parse")


def _read_csv(path: str, header, what: str) -> list[np.ndarray]:
    """Columns of a CSV file written by _write_csv, as float arrays.

    Lines are read and parsed _BLOCK at a time, so no more than one block of
    text is held; the parsed blocks take as much memory as the columns
    returned, until they are joined.  CRLF line ends and blank lines are accepted;
    a wrong header, a row without exactly one field per header column, or a
    file without data rows raises MalformedInputError naming the line.
    """
    width = len(header)
    blocks = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if first.rstrip("\n").split(",") != header:
            raise MalformedInputError(
                f"line 1: expected header {','.join(header)}, got {first.rstrip()!r}"
            )
        lineno = 2
        while lines := list(islice(fh, _BLOCK)):
            blocks.append(_parse_block(lines, width, lineno))
            lineno += len(lines)
    if not sum(len(block) for block in blocks):
        raise MalformedInputError(f"no data rows in {what} file")
    return [np.concatenate([block[:, j] for block in blocks]) for j in range(width)]


SAMPLES_CSV_HEADER = ["phase", "x"]


def write_samples_csv(samples: SampleSet, path: str) -> None:
    """Write records as `phase,x` lines with 17 significant digits, block by
    block, so memory beyond the records stays bounded."""
    _write_csv(
        path, SAMPLES_CSV_HEADER, [_NUMBER] * 2, _row_blocks(samples.phases, samples.values)
    )


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
    _write_csv(path, VARIANCE_CSV_HEADER, [_NUMBER, "%d"] + [_NUMBER] * 5, _row_blocks(*columns))


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
