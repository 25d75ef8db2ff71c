"""Closed-form checks for the homodyne source families: characteristic
functions, densities, CDFs and the inversion machinery.  Statistical tests
on full sample sets live in test_homodyne_stats.py."""

import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import erf, ndtri

from cvsim import (
    CatState,
    Fock,
    GaussianSource,
    InversionError,
    MalformedInputError,
    SampleSet,
    Spats,
    SqueezedVacuum,
    Thermal,
    UnsupportedOrderingError,
    Vacuum,
    apply_gate,
    binned_variance,
    characteristic_fn,
    displacement_gate,
    invert_cdf,
    quadrature_cdf,
    quadrature_pdf,
    read_samples_csv,
    s_quasiprob_gaussian,
    sample,
    squeeze_gate,
    theoretical_variance,
    thermal_prepare,
    vacuum_state,
    write_samples_csv,
)

from cvsim.homodyne import _BLOCK, MAX_FOCK_N, MAX_SPATS_NBAR
from quadrature_oracle import pdf_numeric_oracle

ALL_MODELS = [
    Fock(3),
    Spats(3.0),
    SqueezedVacuum(1.0),
    CatState(2.0 + 0.0j, 0.0),
    Thermal(1.5),
    Vacuum(),
    # displaced and squeezed at theta = 0.9: mean and x-p covariance nonzero
    GaussianSource(apply_gate(displacement_gate(0.9, 1.1, 0, 1),
                              apply_gate(squeeze_gate(0.4, 0.9, 0, 1), vacuum_state(1)))),
]
TASK_MODELS = ALL_MODELS[:4]
DISPLACED_SQUEEZED = ALL_MODELS[6]


# --- model validation -------------------------------------------------------


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Fock(11)
    with pytest.raises(ValueError):
        Fock(-1)
    with pytest.raises(ValueError):
        Spats(0.0)
    with pytest.raises(ValueError):
        Thermal(-0.1)
    # |0> + e^{i pi} |-0> is the zero vector
    with pytest.raises(ValueError, match="normalization must be positive"):
        CatState(0.0, np.pi)
    Fock(0)
    Fock(10)
    SqueezedVacuum(-0.8)  # negative r squeezes p instead; allowed


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_spats_rejects_non_finite_n_bar(value):
    with pytest.raises(ValueError, match="finite"):
        Spats(value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_thermal_rejects_non_finite_n_bar(value):
    with pytest.raises(ValueError, match="finite"):
        Thermal(value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_squeezed_vacuum_rejects_non_finite_r(value):
    with pytest.raises(ValueError, match="finite"):
        SqueezedVacuum(value)


@pytest.mark.parametrize("build, value", [(SqueezedVacuum, 400.0), (SqueezedVacuum, -400.0),
                                          (Thermal, 1e308)])
def test_gaussian_builders_reject_overflow_without_warnings(build, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedInputError, match="finite"):
            build(value)


def test_gaussian_source_rescales_to_vacuum_variance_one():
    for hbar in (0.5, 1.0, 2.0, 3.0):
        st = apply_gate(squeeze_gate(0.3, 0.4, 0, 1), thermal_prepare(0.7, 0, vacuum_state(1, hbar)))
        model = GaussianSource(apply_gate(displacement_gate(0.6, -0.8, 0, 1, hbar), st))
        assert model.state.hbar == 2.0
        assert model.moments(0.0)[0] == pytest.approx(2.0 * 0.6 * np.cos(-0.8), rel=1e-14)
        sigma = model.state.cov
        assert np.linalg.det(sigma) == pytest.approx((2.0 * 0.7 + 1.0) ** 2, rel=1e-12)
    with pytest.raises(ValueError, match="single-mode"):
        GaussianSource(vacuum_state(2))


@pytest.mark.parametrize("value", NON_FINITE)
def test_cat_rejects_non_finite_alpha_or_theta(value):
    for alpha, theta in ((complex(value, 0.0), 0.0), (complex(1.0, value), 0.0), (1.0, value)):
        with pytest.raises(ValueError, match="finite"):
            CatState(alpha, theta)


# --- characteristic functions -----------------------------------------------


def test_characteristic_at_zero_is_one():
    for model in ALL_MODELS:
        assert characteristic_fn(model, 0j) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_thermal_characteristic_closed_form():
    nbar = 2.3
    for beta in (0.5, 1j, 0.7 - 0.4j):
        assert characteristic_fn(Thermal(nbar), beta) == pytest.approx(
            np.exp(-(nbar + 0.5) * abs(beta) ** 2), abs=1e-14
        )


def test_fock_characteristic_matches_series():
    # chi_n(beta) = e^{-|b|^2/2} L_n(|b|^2); independent series oracle:
    # L_n(z) = sum_k C(n,k) (-z)^k / k!
    from math import comb, factorial

    n = 4
    for beta in (0.3, 0.9j, 1.1 - 0.2j):
        z = abs(beta) ** 2
        lag = sum(comb(n, k) * (-z) ** k / factorial(k) for k in range(n + 1))
        assert characteristic_fn(Fock(n), beta) == pytest.approx(
            np.exp(-z / 2) * lag, abs=1e-10
        )


def test_squeezed_characteristic_reduces_to_vacuum():
    for beta in (0.4, 0.2 + 0.6j):
        assert characteristic_fn(SqueezedVacuum(0.0), beta) == pytest.approx(
            characteristic_fn(Vacuum(), beta), abs=1e-14
        )


# --- densities ----------------------------------------------------------------


def test_thermal_pdf_closed_form():
    nbar = 1.2
    for x in (-1.0, 0.0, 2.0):
        expected = np.exp(-(x**2) / (4 * nbar + 2)) / np.sqrt(np.pi * (4 * nbar + 2))
        assert quadrature_pdf(Thermal(nbar), x, 0.3) == pytest.approx(expected, abs=1e-15)


def test_squeezed_r0_is_standard_normal():
    for phi in (0.0, 0.7, np.pi / 2):
        for x in (-2.0, 0.1, 1.3):
            assert quadrature_pdf(SqueezedVacuum(0.0), x, phi) == pytest.approx(
                np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi), abs=1e-15
            )


def test_pdfs_are_phase_independent_where_expected():
    for model in (Fock(2), Spats(1.0), Thermal(0.7), Vacuum()):
        vals = [quadrature_pdf(model, 0.83, phi) for phi in (-2.0, 0.0, 1.1)]
        assert max(vals) - min(vals) == 0.0


def test_pdf_matches_numeric_oracle():
    rng = np.random.default_rng(23)
    for model in TASK_MODELS:
        for _ in range(6):
            x = rng.uniform(-4.0, 4.0)
            phi = rng.uniform(-np.pi, np.pi)
            closed = quadrature_pdf(model, x, phi)
            numeric = pdf_numeric_oracle(model, x, phi)
            assert abs(closed - numeric) < 1e-8, (model, x, phi)


def test_displaced_squeezed_source_matches_oracle_and_inverts():
    rng = np.random.default_rng(37)
    model = DISPLACED_SQUEEZED
    for _ in range(6):
        x, phi, u = rng.uniform(-4.0, 4.0), rng.uniform(-np.pi, np.pi), rng.uniform(0.01, 0.99)
        assert quadrature_pdf(model, x, phi) == pytest.approx(
            pdf_numeric_oracle(model, x, phi), abs=1e-12
        )
        assert quadrature_cdf(model, invert_cdf(model, phi, u), phi) == pytest.approx(u, abs=1e-14)


def test_fock3_pdf_against_oracle_at_chosen_points():
    for x in (-2.0, 0.0, 1.5):
        assert quadrature_pdf(Fock(3), x, 0.0) == pytest.approx(
            pdf_numeric_oracle(Fock(3), x, 0.0), abs=1e-8
        )


def test_oracle_vacuum_peak():
    assert pdf_numeric_oracle(Vacuum(), 0.0, 0.7) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi), abs=1e-10
    )


def test_cat_interference_maximum():
    # the even cat shows an interference peak above the single-Gaussian
    # envelope at x=0 along the imaginary-axis quadrature
    model = CatState(2.0 + 0.0j, 0.0)
    peak = quadrature_pdf(model, 0.0, np.pi / 2)
    envelope = 2.0 / (model.normalization() * np.sqrt(2.0 * np.pi))
    assert peak > envelope * 1.5
    assert peak == pytest.approx(pdf_numeric_oracle(model, 0.0, np.pi / 2), abs=1e-8)


def test_pdf_normalization():
    for model in ALL_MODELS:
        for phi in (0.0, np.pi / 4, np.pi / 2):
            total, _ = quad(
                lambda t: quadrature_pdf(model, t, phi), -50.0, 50.0, limit=400
            )
            assert total == pytest.approx(1.0, abs=1e-6), (model, phi)


def test_pdf_nonnegative():
    rng = np.random.default_rng(29)
    xs = rng.uniform(-8, 8, 200)
    phis = rng.uniform(-np.pi, np.pi, 200)
    for model in ALL_MODELS:
        assert (quadrature_pdf(model, xs, phis) >= 0.0).all()


# --- CDFs ---------------------------------------------------------------------


def test_cdf_at_zero_is_half_for_symmetric_models():
    for model in (Fock(3), Spats(2.0), SqueezedVacuum(0.7), Thermal(1.0), Vacuum()):
        for phi in (0.0, 0.9):
            assert quadrature_cdf(model, 0.0, phi) == pytest.approx(0.5, abs=1e-12)


def test_squeezed_cdf_identity():
    # at phi=0 and x = sqrt(2) e^{-r} the CDF equals 1/2 + erf(1)/2
    for r in (0.3, 1.0):
        x = np.sqrt(2.0) * np.exp(-r)
        assert quadrature_cdf(SqueezedVacuum(r), x, 0.0) == pytest.approx(
            0.5 + 0.5 * erf(1.0), abs=1e-12
        )


def test_cdf_limits():
    for model in ALL_MODELS:
        assert quadrature_cdf(model, -60.0, 0.4) == pytest.approx(0.0, abs=1e-12)
        assert quadrature_cdf(model, 60.0, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_cdf_limits_small_cat():
    # small-amplitude cats are where a wrong additive constant would show
    for theta in (0.0, 1.0, np.pi):
        model = CatState(0.5 + 0.0j, theta)
        assert quadrature_cdf(model, -40.0, 0.2) == pytest.approx(0.0, abs=1e-12)
        assert quadrature_cdf(model, 40.0, 0.2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(11))
def test_fock_cdf_matches_high_precision_reference(n):
    # the Hermite-polynomial series, exact at 40 digits; in double precision
    # its terms cancel to ~5e-14 at n=10
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(-6.0, 6.0, 49)

    def reference(x):
        u = mpmath.mpf(x) / mpmath.sqrt(2)
        series = sum(
            mpmath.factorial(n)
            / (2**k * mpmath.factorial(k) ** 2 * mpmath.factorial(n - k))
            * mpmath.hermite(2 * k - 1, u)
            for k in range(1, n + 1)
        )
        return 0.5 + mpmath.erf(u) / 2 - mpmath.exp(-u * u) / mpmath.sqrt(mpmath.pi) * series

    with mpmath.workdps(40):
        expected = np.array([float(reference(x)) for x in xs])
    assert np.abs(quadrature_cdf(Fock(n), xs, 0.0) - expected).max() <= 1e-15


@pytest.mark.parametrize("n", range(MAX_FOCK_N + 1))
def test_fock_pdf_is_the_density_of_cdf_pdf(n):
    # pdf runs the psi_k recursion without F's erf and series
    x = np.linspace(-12.0, 12.0, 2001)
    assert np.array_equal(Fock(n).pdf(x, 0.0), Fock(n).cdf_pdf(x, 0.0)[1])


def _odd_cat_item_7(alpha, theta):
    """The odd cats whose CDF steps back by more than rounding (ROADMAP
    item 7): at |alpha| = 0.01, 0.03 and 0.1 by about 1e-12, 1e-13 and
    1e-14."""
    model = CatState(alpha, theta)
    if theta == np.pi and abs(alpha) <= 0.1:
        reason = "ROADMAP item 7: the odd-cat CDF loses accuracy like 1/normalization"
        return pytest.param(model, marks=pytest.mark.xfail(strict=True, reason=reason))
    return model


CDF_SWEEP = [
    *(Fock(n) for n in range(MAX_FOCK_N + 1)),
    *(Spats(n_bar) for n_bar in (1e-3, 0.5, 3.0, 10.0)),
    Vacuum(), Thermal(3.0), Thermal(10.0), SqueezedVacuum(1.5), SqueezedVacuum(-2.0),
    DISPLACED_SQUEEZED,
    *(_odd_cat_item_7(magnitude * np.exp(1j * arg), theta)
      for magnitude in (0.01, 0.03, 0.1, 0.5, 1.0, 2.0, 4.0)
      for arg in (0.0, 0.7)
      for theta in (0.0, np.pi / 2, np.pi, -2.0)),
]


@pytest.mark.parametrize("model", CDF_SWEEP, ids=lambda model: " ".join(repr(model).split()))
def test_cdf_limits_and_monotone_over_the_domain(model):
    # ±60 lies past 8 standard deviations of every model swept; 24001 points
    # (step 0.005) at 7 phases show each step back of the item-7 cats
    xs = np.linspace(-60.0, 60.0, 24001)
    for phi in np.linspace(-np.pi, np.pi, 7):
        cdf = quadrature_cdf(model, xs, np.full_like(xs, phi))
        assert abs(cdf[0]) <= 1e-12 and abs(1.0 - cdf[-1]) <= 1e-12, phi
        assert np.diff(cdf).min() >= -8 * np.finfo(float).eps, phi


#: the pdf sweep's bound on |closed form - oracle|, for densities that peak
#: at 0.1 to 3: every family stays within 2e-15 of the oracle, but the odd
#: cats with |alpha| <= 0.03, which were measured 1e-14 to 2.3e-13 off
PDF_ORACLE_BOUND = 1e-13


def _pdf_sweep_case(model):
    """`model`, unwrapped from CDF_SWEEP's xfail; the odd cat at alpha =
    0.01, whose pdf the sweep measured 2.3e-13 off, is a strict xfail."""
    model = model.values[0] if hasattr(model, "values") else model
    if isinstance(model, CatState) and model.theta == np.pi and model.alpha == 0.01:
        reason = "ROADMAP item 7: the odd-cat pdf loses accuracy like 1/normalization"
        return pytest.param(model, marks=pytest.mark.xfail(strict=True, reason=reason))
    return model


@pytest.mark.parametrize("model", map(_pdf_sweep_case, CDF_SWEEP),
                         ids=lambda model: " ".join(repr(model).split()))
def test_pdf_matches_the_oracle_over_the_domain(model):
    # 5 points over mean ± 4 sd at 3 phases, where each density is resolved
    for phi in (0.0, 1.0, 2.5):
        mean, variance = model.moments(phi)
        for x in np.linspace(mean - 4 * np.sqrt(variance), mean + 4 * np.sqrt(variance), 5):
            closed, numeric = quadrature_pdf(model, x, phi), pdf_numeric_oracle(model, x, phi)
            assert abs(closed - numeric) <= PDF_ORACLE_BOUND, (x, phi, closed - numeric)


def test_cdf_matches_integrated_pdf():
    for model, x in [(Fock(3), -2.0), (Fock(3), 0.0), (Fock(3), 1.5),
                     (Spats(3.0), 1.0), (CatState(2.0 + 0.0j, 0.0), 0.7),
                     (SqueezedVacuum(1.0), -0.4)]:
        for phi in (0.0, 1.1):
            numeric, _ = quad(
                lambda t: quadrature_pdf(model, t, phi), -40.0, x, limit=400
            )
            assert quadrature_cdf(model, x, phi) == pytest.approx(numeric, abs=1e-8)


def test_cdf_monotone():
    rng = np.random.default_rng(31)
    for model in ALL_MODELS:
        xs = np.sort(rng.uniform(-10, 10, 500))
        phi = rng.uniform(-np.pi, np.pi)
        vals = quadrature_cdf(model, xs, np.full_like(xs, phi))
        assert (np.diff(vals) >= -1e-15).all()


def test_odd_cat_small_alpha_matches_oracle():
    # theta=pi with small alpha: tiny normalization, the regime most
    # sensitive to the CDF's additive constant
    model = CatState(0.7 + 0.0j, np.pi)
    for phi in (-np.pi, -np.pi / 3, 0.9):
        assert quadrature_pdf(model, 0.37, phi) == pytest.approx(
            pdf_numeric_oracle(model, 0.37, phi), abs=1e-8
        )
    assert quadrature_cdf(model, -40.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert quadrature_cdf(model, 40.0, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_general_theta_complex_alpha_cat_matches_oracle():
    model = CatState(1.2 + 0.5j, 1.0)
    for x, phi in ((-0.9, 0.3), (-0.9, 2.1), (1.4, -1.2)):
        assert quadrature_pdf(model, x, phi) == pytest.approx(
            pdf_numeric_oracle(model, x, phi), abs=1e-8
        )


def test_negative_r_squeezes_momentum_quadrature():
    model = SqueezedVacuum(-0.8)
    assert theoretical_variance(model, 0.0) == pytest.approx(np.exp(1.6), abs=1e-12)
    assert theoretical_variance(model, np.pi / 2) == pytest.approx(np.exp(-1.6), abs=1e-12)
    assert quadrature_pdf(model, 0.5, 0.7) == pytest.approx(
        pdf_numeric_oracle(model, 0.5, 0.7), abs=1e-8
    )


#: Fock basis of the convention test; the states below keep < 1e-14 of
#: their amplitude at its last photon numbers
FOCK_CUTOFF = 80


def _hermite_functions(x, cutoff):
    """Rows psi_n(x), n < cutoff, of the position x = a + a^dagger (vacuum
    variance 1), by the stable three-term recursion; |psi_n|^2 is a density
    in x."""
    u = x / np.sqrt(2.0)
    out = np.empty((cutoff, x.size))
    out[0] = np.pi**-0.25 * np.exp(-(u**2) / 2.0)
    out[1] = np.sqrt(2.0) * u * out[0]
    for k in range(2, cutoff):
        out[k] = np.sqrt(2.0 / k) * u * out[k - 1] - np.sqrt((k - 1) / k) * out[k - 2]
    return out / 2.0**0.25


def _fock_space_density(amplitudes, x, phi):
    """|psi_phi(x)|^2 of X_phi = x cos phi - p sin phi = a e^{i phi} + a^dagger
    e^{-i phi}, which is e^{-i phi n} x e^{i phi n}: the x density of the
    state with its amplitudes c_n turned to c_n e^{i n phi}."""
    turned = amplitudes * np.exp(1j * phi * np.arange(amplitudes.size))
    return np.abs(turned @ _hermite_functions(x, amplitudes.size)) ** 2


def _coherent_amplitudes(alpha):
    c = np.empty(FOCK_CUTOFF, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, FOCK_CUTOFF):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c


def _displaced_squeezed_amplitudes(alpha, z):
    """D(alpha) S(z) |0> from the exponentials of the generators, in a basis
    40 photons wider than the one returned."""
    a = np.diag(np.sqrt(np.arange(1.0, FOCK_CUTOFF + 40)), 1)
    squeeze = expm((np.conj(z) * a @ a - z * a.T @ a.T) / 2.0)
    displace = expm(alpha * a.T - np.conj(alpha) * a)
    return (displace @ squeeze)[:FOCK_CUTOFF, 0]


@pytest.mark.parametrize("hbar", [0.5, 2.0])
def test_phase_convention_matches_truncated_fock_space(hbar):
    r, theta, alpha = 0.4, 0.9, 0.9 * np.exp(1.1j)
    state = apply_gate(squeeze_gate(r, theta, 0, 1), vacuum_state(1, hbar))
    state = apply_gate(displacement_gate(abs(alpha), np.angle(alpha), 0, 1, hbar), state)
    cat = _coherent_amplitudes(0.8) + 1j * _coherent_amplitudes(-0.8)
    cases = [
        (CatState(0.8, np.pi / 2), cat / np.linalg.norm(cat)),
        (GaussianSource(state), _displaced_squeezed_amplitudes(alpha, r * np.exp(1j * theta))),
    ]
    x = np.linspace(-6.0, 6.0, 241)
    for model, amplitudes in cases:
        for phi in (0.7, -1.9, 2.6):
            expected = _fock_space_density(amplitudes, x, phi)
            assert np.abs(quadrature_pdf(model, x, phi) - expected).max() < 1e-13
            # with the sign of sin(phi) flipped, the density would be that at -phi
            assert np.abs(quadrature_pdf(model, x, -phi) - expected).max() > 0.1


def test_cat_complex_alpha_cdf_is_real_and_monotone():
    model = CatState(16.0 + 2.0j, 0.0)
    xs = np.linspace(-45, 45, 301)
    vals = quadrature_cdf(model, xs, np.full_like(xs, 1.2))
    assert np.isfinite(vals).all()
    assert (np.diff(vals) >= -1e-12).all()
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


# --- inversion ----------------------------------------------------------------


def test_invert_symmetric_median():
    for model in (Fock(2), Spats(1.5), SqueezedVacuum(0.8), Thermal(0.5), Vacuum()):
        assert invert_cdf(model, 0.3, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_invert_standard_normal_quantile():
    u = 0.5 + 0.5 * erf(1.0 / np.sqrt(2.0))
    assert invert_cdf(Vacuum(), 0.0, u) == pytest.approx(1.0, abs=1e-10)


def test_invert_monotone_in_u():
    rng = np.random.default_rng(37)
    model = SqueezedVacuum(1.0)
    us = np.sort(rng.uniform(1e-6, 1 - 1e-6, 1000))
    phi = 0.4
    xs = [invert_cdf(model, phi, u, tol=1e-10) for u in us]
    assert (np.diff(xs) >= -1e-9).all()


@pytest.mark.parametrize("phi", NON_FINITE)
@pytest.mark.parametrize("model", [CatState(2.0, 0.0), Fock(2), Vacuum()])
def test_invert_rejects_non_finite_phi(model, phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phi must be finite"):
            invert_cdf(model, phi, 0.3)


def test_invert_rejects_bad_u():
    with pytest.raises(ValueError):
        invert_cdf(Vacuum(), 0.0, 0.0)
    with pytest.raises(ValueError):
        invert_cdf(Vacuum(), 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("model", [Fock(2), Vacuum()])
def test_sample_and_invert_reject_bad_tol(model, bad):
    with pytest.raises(ValueError, match="tol"):
        sample(model, 5, tol=bad)
    with pytest.raises(ValueError, match="tol"):
        invert_cdf(model, 0.0, 0.5, tol=bad)


def test_sample_and_sample_set_reject_bad_sizes():
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample(Vacuum(), 0)
    with pytest.raises(MalformedInputError, match="equal length"):
        SampleSet(np.zeros(3), np.zeros(4), None)


def test_gaussian_quantile_is_closed_form_for_every_u():
    # far past [-50, 50], where a non-Gaussian record runs on its reach
    x = invert_cdf(Thermal(1e5), 0.0, 1 - 1e-12)
    assert x > 800.0
    assert x == np.sqrt(200001.0) * ndtri(1 - 1e-12)


def test_invert_widens_past_the_first_bracket_non_gaussian():
    x = invert_cdf(Spats(300.0), 0.0, 0.999)
    assert x == pytest.approx(89.92, abs=0.01)
    assert quadrature_cdf(Spats(300.0), x, 0.0) == pytest.approx(0.999, abs=1e-12)


@pytest.mark.parametrize("count", [20, 2 * _BLOCK + 20], ids=["one block", "three blocks"])
def test_inversion_step_cap_raises_instead_of_returning_an_open_bracket(count, monkeypatch):
    import cvsim.homodyne as homodyne

    # past one block, the blocks run on two threads and every block fails:
    # the message of block 0 is the one raised
    monkeypatch.setattr(homodyne, "_MAX_STEPS", 2)
    monkeypatch.setattr(homodyne, "_cpus", lambda: 2)
    with pytest.raises(InversionError, match="after 2 steps") as info:
        sample(Fock(3), count, seed=1)
    assert int(re.match(r"quantile for record (\d+) ", str(info.value))[1]) < _BLOCK


class _NarrowSpats(Spats):
    """SPATS whose moments understate its spread: variance 1e-6."""

    def moments(self, phi):
        return 0.0, 1e-6


def test_invert_bracket_failure_names_the_record():
    # the reach, 50 + 64 sd, stops the doubling before the quantile at ~160
    with pytest.raises(InversionError, match=r"could not bracket the quantile for record 0 "
                                             r"\(u=0\.999999999, phi=0\.3\) within"):
        invert_cdf(_NarrowSpats(300.0), 0.3, 1 - 1e-9)


class _PhasedNarrowSpats(Spats):
    """SPATS whose moments understate its spread by a factor that depends on
    phi, and are NaN at phi = 3."""

    def moments(self, phi):
        phi = np.asarray(phi)
        return 0.0, np.where(phi == 3.0, np.nan, 10.0 ** (2.0 * phi - 4.0))


def test_invert_names_the_lowest_record_past_its_reach():
    import cvsim.homodyne as homodyne

    # Spats(1e6) has sd 2000; record 0 lies inside [-50, 50], records 1 to 4
    # past their reaches of 50 + 64 sd(X_phi): 252.4, 558.4, 50.64 and 50.64.
    # The lowest index is named, not the smallest reach
    model = _PhasedNarrowSpats(1e6)
    phis = np.array([0.0, 2.5, 2.9, 0.0, 0.0])
    targets = np.array([0.5, 1 - 1e-9, 1e-9, 0.999, 0.3])
    reach = 50.0 + 64.0 * np.sqrt(10.0)
    with pytest.raises(InversionError) as info:
        homodyne._invert(model, phis, targets, 1e-12)
    assert str(info.value) == (f"could not bracket the quantile for record 1 "
                               f"(u={1 - 1e-9!r}, phi=2.5) within |x| <= {float(reach)!r}")


def test_invert_refuses_a_nan_reach():
    import cvsim.homodyne as homodyne

    # record 1's quantile lies past [-50, 50], where its NaN moments give a NaN reach
    phis, targets = np.array([0.0, 3.0, 3.0]), np.array([0.5, 0.999, 0.5])
    with pytest.raises(InversionError, match=r"^CDF is NaN for record 1 \(u=0\.999, phi=3\.0\)$"):
        homodyne._invert(_PhasedNarrowSpats(1e6), phis, targets, 1e-12)


WIDE_SPATS = [300.0, 1e6, 1e30, 1e300]


@pytest.mark.parametrize("n_bar", WIDE_SPATS, ids=[f"spats-{n:g}" for n in WIDE_SPATS])
def test_wide_spats_records_hold_their_quantiles_within_tol(n_bar):
    # each value x brackets its target u between x - tol and x + tol, or the
    # doubles next to x where tol is below x's spacing
    model, tol = Spats(n_bar), 1e-12
    x = sample(model, 20_000, seed=3, tol=tol).values
    rng = np.random.default_rng(3)
    phis = 2.0 * np.pi * rng.random(x.size) - np.pi
    u = np.maximum(rng.random(x.size), np.finfo(float).tiny)
    below = np.minimum(x - tol, np.nextafter(x, -np.inf))
    above = np.maximum(x + tol, np.nextafter(x, np.inf))
    assert (quadrature_cdf(model, below, phis) < u + 1e-15).all()
    assert (u <= quadrature_cdf(model, above, phis) + 1e-15).all()


def test_wide_spats_record_costs_few_cdf_evaluations(monkeypatch):
    # every x at which F is evaluated counts, the start table included
    evaluated = [0]
    cdf_pdf = Spats.cdf_pdf

    def counted(self, x, phi):
        evaluated[0] += np.broadcast(x, phi).size
        return cdf_pdf(self, x, phi)

    monkeypatch.setattr(Spats, "cdf_pdf", counted)
    count = 20_000
    sample(Spats(1e300), count, seed=3)
    assert evaluated[0] <= 70 * count


@pytest.mark.parametrize("model", [Spats(1e300), Thermal(1e300), SqueezedVacuum(300.0)],
                         ids=["spats-1e300", "thermal-1e300", "squeezed-r300"])
def test_wide_sources_sample_finite_values(model):
    # tier-1 runs with RuntimeWarning as an error, so no step may overflow
    values = sample(model, 20_000, seed=3).values
    assert np.isfinite(values).all()


def test_spats_n_bar_bound():
    # at the bound every F and p of the reach run is finite; past it, x**2
    # overflows from n_bar ~ 3e306, so construction refuses n_bar there
    assert np.isfinite(sample(Spats(MAX_SPATS_NBAR), 200, seed=5).values).all()
    for n_bar in (np.nextafter(MAX_SPATS_NBAR, np.inf), 3e306, sys.float_info.max):
        with pytest.raises(ValueError, match=r"n_bar must be finite and in \(0, 1e\+300\], got"):
            Spats(n_bar)


def test_cat_cdf_pdf_is_cdf_and_pdf():
    model = CatState(1.5 - 0.7j, 0.4)
    rng = np.random.default_rng(8)
    x, phi = rng.normal(size=500) * 3.0, rng.uniform(-np.pi, np.pi, 500)
    cdf, pdf = model.cdf_pdf(x, phi)
    assert np.array_equal(cdf, quadrature_cdf(model, x, phi)) and np.array_equal(pdf, quadrature_pdf(model, x, phi))


# --- theoretical variances ----------------------------------------------------


def test_variance_table():
    assert theoretical_variance(Fock(3), 0.0) == 7.0
    assert theoretical_variance(Spats(3.0), 1.0) == 15.0
    assert theoretical_variance(SqueezedVacuum(1.0), 0.0) == pytest.approx(
        np.exp(-2.0), abs=1e-12
    )
    assert theoretical_variance(SqueezedVacuum(1.0), np.pi / 2) == pytest.approx(
        np.exp(2.0), abs=1e-12
    )
    assert theoretical_variance(Vacuum(), 0.3) == 1.0
    assert theoretical_variance(Thermal(2.0), 0.1) == 5.0


@pytest.mark.parametrize("num_bins", [50, 1000])
def test_binned_theory_column_is_theoretical_variance_per_bin(num_bins):
    phases = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    for model in ALL_MODELS:
        report = binned_variance(SampleSet(phases, np.cos(phases), model), num_bins)
        per_bin = np.array([theoretical_variance(model, c) for c in report.bin_centers])
        assert report.theoretical_variance.tobytes() == per_bin.tobytes(), model


#: trapezoid grid for numeric moments; +-80 is > 10 sd of every swept model
MOMENT_GRID = np.linspace(-80.0, 80.0, 16001)


def _assert_moments_match_pdf(model, phi):
    # the trapezoid rule is spectrally accurate for these Gaussian sums; adaptive
    # quad misses the small odd part of the density that carries the mean
    x = MOMENT_GRID
    p = quadrature_pdf(model, x, phi)
    m1 = np.trapezoid(x * p, x)
    m2 = np.trapezoid(x * x * p, x)
    assert model.moments(phi)[0] == pytest.approx(m1, abs=1e-9)
    assert theoretical_variance(model, phi) == pytest.approx(m2 - m1**2, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.5j, 0.7 + 0.0j, 1.2 + 0.5j, 2.0 + 0.0j])
@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi / 2, np.pi, -2.3])
@pytest.mark.parametrize("phi", [0.0, 0.9, 1.3, np.pi / 2])
def test_cat_variance_matches_numeric_moments_any_phase(alpha, theta, phi):
    _assert_moments_match_pdf(CatState(alpha, theta), phi)


@pytest.mark.parametrize("model", [
    *(Fock(n) for n in range(11)),
    *(Spats(n_bar) for n_bar in (0.1, 1.0, 3.0, 10.0)),
    # the Gaussian builders return GaussianSource, whose repr shows arrays
    *(pytest.param(Thermal(n_bar), id=f"Thermal(n_bar={n_bar})") for n_bar in (0.0, 0.3, 2.5, 10.0)),
    pytest.param(Vacuum(), id="Vacuum()"),
    *(pytest.param(SqueezedVacuum(r), id=f"SqueezedVacuum(r={r})") for r in (-2.0, -0.7, 0.0, 0.4, 2.0)),
    pytest.param(DISPLACED_SQUEEZED, id="displaced-squeezed"),
], ids=repr)
@pytest.mark.parametrize("phi", [0.0, 0.9, 1.3, np.pi / 2])
def test_variance_matches_numeric_moments_every_family(model, phi):
    _assert_moments_match_pdf(model, phi)


@pytest.mark.parametrize("r", np.linspace(-15.0, 15.0, 31))
def test_squeezed_variance_matches_40_digits(r):
    # the form |e^{i phi} cosh r - e^{-i phi} sinh r|^2 cancels at phi = 0,
    # losing 2.4e-4 of the value at r = 15
    for phi in (0.0, 0.3, np.pi / 4, 1.0, np.pi / 2, 2.0, np.pi, -np.pi / 2, -2.5):
        with mpmath.workdps(40):
            rm, pm = mpmath.mpf(float(r)), mpmath.mpf(phi)
            exact = float(mpmath.exp(-2 * rm) * mpmath.cos(pm) ** 2
                          + mpmath.exp(2 * rm) * mpmath.sin(pm) ** 2)
        # abs=0: approx's default 1e-12 floor would hide the error at large r
        assert theoretical_variance(SqueezedVacuum(r), phi) == pytest.approx(
            exact, rel=1e-15, abs=0.0
        ), phi


def test_squeezed_variance_consistent_with_pdf():
    model = SqueezedVacuum(0.6)
    for phi in (0.0, 0.5, 1.4):
        m2, _ = quad(lambda t: t * t * quadrature_pdf(model, t, phi), -30, 30, limit=400)
        assert theoretical_variance(model, phi) == pytest.approx(m2, abs=1e-9)


# --- P-nonclassicality of Gaussian states ----------------------------------------

#: phases at which the normally ordered variance is read, 0.25 degrees apart:
#: the grid minimum of Var[X_phi] overshoots its true minimum by less than
#: 5e-6 (lambda_max - lambda_min) <= 3e-4 for the states drawn below
NONCLASSICALITY_PHIS = np.linspace(-np.pi / 2, np.pi / 2, 721)


def _p_nonclassicality_verdicts(state):
    """(a) the normally ordered variance of X_phi is negative at some phase,
    (b) lambda_min(sigma) < hbar/2, (c) the P function is not regular."""
    model = GaussianSource(state)
    normally_ordered = [theoretical_variance(model, phi) - 1.0 for phi in NONCLASSICALITY_PHIS]
    try:
        s_quasiprob_gaussian(state, 0j, 1.0)
        singular = False
    except UnsupportedOrderingError:
        singular = True
    squeezed = bool(np.linalg.eigvalsh(state.cov)[0] < state.hbar / 2.0)
    return min(normally_ordered) < 0.0, squeezed, singular


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(hbar=st.floats(0.1, 10.0), n_bar=st.floats(0.0, 2.0), r=st.floats(0.0, 1.2),
       theta=st.floats(-np.pi, np.pi), alpha_mag=st.floats(0.0, 2.0),
       alpha_phase=st.floats(-np.pi, np.pi))
def test_p_nonclassicality_tests_agree(hbar, n_bar, r, theta, alpha_mag, alpha_phase):
    state = thermal_prepare(n_bar, 0, vacuum_state(1, hbar))
    state = apply_gate(squeeze_gate(r, theta, 0, 1), state)
    state = apply_gate(displacement_gate(alpha_mag, alpha_phase, 0, 1, hbar), state)
    lam = np.linalg.eigvalsh(state.cov)[0]
    assume(abs(lam - hbar / 2.0) >= 1e-3 * hbar / 2.0)
    verdicts = _p_nonclassicality_verdicts(state)
    assert verdicts in ((True, True, True), (False, False, False)), verdicts


@pytest.mark.parametrize("hbar", [0.5, 2.0])
def test_vacuum_and_coherent_p_functions_are_singular_but_classical(hbar):
    # their P function is a delta: no regular s = 1 function, yet no squeezing
    coherent = apply_gate(displacement_gate(1.3, 0.4, 0, 1, hbar), vacuum_state(1, hbar))
    for state in (vacuum_state(1, hbar), coherent):
        assert _p_nonclassicality_verdicts(state) == (False, False, True)


# --- sample CSV round trip ------------------------------------------------------


def test_sample_csv_round_trip(tmp_path):
    ss = sample(Vacuum(), 64, seed=5)
    path = tmp_path / "s.csv"
    write_samples_csv(ss, str(path))
    back = read_samples_csv(str(path))
    assert np.array_equal(back.phases, ss.phases)
    assert np.array_equal(back.values, ss.values)


def test_read_samples_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phase,x\n0.1,0.2\nnot-a-number,3\n")
    with pytest.raises(MalformedInputError) as err:
        read_samples_csv(str(path))
    assert "line 3" in str(err.value)


def test_read_samples_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MalformedInputError):
        read_samples_csv(str(path))
