"""Closed-form checks for the homodyne source families: characteristic
functions, densities, CDFs and the inversion machinery.  Statistical tests
on full sample sets live in test_homodyne_stats.py."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from cvsim import (
    CatState,
    Fock,
    InversionError,
    MalformedInputError,
    Spats,
    SqueezedVacuum,
    Thermal,
    Vacuum,
    characteristic_fn,
    invert_cdf,
    pdf_numeric_oracle,
    quadrature_cdf,
    quadrature_pdf,
    read_samples_csv,
    sample,
    theoretical_variance,
    write_samples_csv,
)

ALL_MODELS = [
    Fock(3),
    Spats(3.0),
    SqueezedVacuum(1.0),
    CatState(2.0 + 0.0j, 0.0),
    Thermal(1.5),
    Vacuum(),
]
TASK_MODELS = ALL_MODELS[:4]


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
def test_sample_and_invert_reject_bad_tol_and_bracket(model, bad):
    for name in ("tol", "bracket"):
        with pytest.raises(ValueError, match=name):
            sample(model, 5, **{name: bad})
        with pytest.raises(ValueError, match=name):
            invert_cdf(model, 0.0, 0.5, **{name: bad})


def test_invert_bracket_widening():
    # thermal with huge nbar has quantiles beyond a deliberately tiny bracket
    x = invert_cdf(Thermal(30.0), 0.0, 0.999, bracket=4.0)
    assert x > 4.0


def test_invert_bracket_failure_reports():
    with pytest.raises(InversionError):
        invert_cdf(Thermal(3000.0), 0.0, 1 - 1e-12, bracket=1e-3)


def test_invert_bracket_widening_non_gaussian():
    x = invert_cdf(Spats(30.0), 0.0, 0.999, bracket=4.0)
    assert x > 4.0
    assert quadrature_cdf(Spats(30.0), x, 0.0) == pytest.approx(0.999, abs=1e-12)


def test_inversion_step_cap_raises_instead_of_returning_an_open_bracket(monkeypatch):
    import cvsim.homodyne as homodyne

    monkeypatch.setattr(homodyne, "_MAX_STEPS", 2)
    with pytest.raises(InversionError, match="after 2 steps"):
        sample(Fock(3), 20, seed=1)


def test_invert_bracket_failure_names_the_record():
    with pytest.raises(InversionError, match="record 0"):
        invert_cdf(Spats(300.0), 0.3, 1 - 1e-9, bracket=1e-2)


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


@pytest.mark.parametrize("alpha", [0.5j, 0.7 + 0.0j, 1.2 + 0.5j, 2.0 + 0.0j])
@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi / 2, np.pi, -2.3])
@pytest.mark.parametrize("phi", [0.0, 0.9, 1.3, np.pi / 2])
def test_cat_variance_matches_numeric_moments_any_phase(alpha, theta, phi):
    # the trapezoid rule is spectrally accurate for these Gaussian sums; adaptive
    # quad misses the small odd part of the density that carries the mean
    model = CatState(alpha, theta)
    x = np.linspace(-30.0, 30.0, 6001)
    p = quadrature_pdf(model, x, phi)
    m1 = np.trapezoid(x * p, x)
    m2 = np.trapezoid(x * x * p, x)
    assert theoretical_variance(model, phi) == pytest.approx(m2 - m1**2, abs=1e-9)


def test_squeezed_variance_consistent_with_pdf():
    model = SqueezedVacuum(0.6)
    for phi in (0.0, 0.5, 1.4):
        m2, _ = quad(lambda t: t * t * quadrature_pdf(model, t, phi), -30, 30, limit=400)
        assert theoretical_variance(model, phi) == pytest.approx(m2, abs=1e-9)


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
