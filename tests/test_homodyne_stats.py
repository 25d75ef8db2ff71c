"""Statistical behavior of full sample sets: reproducibility, per-bin variance
against theory, the Heisenberg product and squeezing certificates."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsim import (
    CVSimError,
    Fock,
    SampleSet,
    Spats,
    SqueezedVacuum,
    Vacuum,
    binned_variance,
    heisenberg_violations,
    sample,
    squeezing_certificate,
    theoretical_variance,
    variance_standard_error,
)

COUNT = 100_000
BINS = 50


@pytest.fixture(scope="module")
def squeezed_samples():
    return sample(SqueezedVacuum(1.0), COUNT, seed=42)


@pytest.fixture(scope="module")
def fock_samples():
    return sample(Fock(3), COUNT, seed=42)


@pytest.fixture(scope="module")
def spats_samples():
    return sample(Spats(3.0), COUNT, seed=42)


@pytest.fixture(scope="module")
def vacuum_samples():
    return sample(Vacuum(), COUNT, seed=42)


@pytest.fixture(scope="module")
def cat_samples():
    from cvsim import CatState

    return sample(CatState(2.0 + 0.0j, 0.0), 40_000, seed=42)


def _within_se(report, factor):
    se = report.theoretical_variance * np.sqrt(2.0 / np.maximum(report.counts - 1, 1))
    dev = np.abs(report.estimated_variance - report.theoretical_variance)
    return np.nanmax(dev / se) < factor


def test_sampling_is_reproducible():
    a = sample(SqueezedVacuum(0.5), 2000, seed=7)
    b = sample(SqueezedVacuum(0.5), 2000, seed=7)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.values, b.values)
    c = sample(SqueezedVacuum(0.5), 2000, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_phases_cover_expected_range(squeezed_samples):
    assert squeezed_samples.phases.min() >= -np.pi
    assert squeezed_samples.phases.max() < np.pi


def test_vacuum_overall_variance(vacuum_samples):
    assert np.var(vacuum_samples.values, ddof=1) == pytest.approx(1.0, abs=0.02)


def test_sample_mean_is_zero(squeezed_samples, fock_samples, spats_samples):
    for ss in (squeezed_samples, fock_samples, spats_samples):
        se = np.std(ss.values, ddof=1) / np.sqrt(len(ss))
        assert abs(np.mean(ss.values)) < 4.0 * se


def test_cat_mean_is_zero_after_phase_averaging(cat_samples):
    # a real-amplitude cat has phase-dependent structure but zero mean over
    # the full phase-averaged set
    se = np.std(cat_samples.values, ddof=1) / np.sqrt(len(cat_samples))
    assert abs(np.mean(cat_samples.values)) < 4.0 * se


def test_cat_bins_match_theory_and_heisenberg(cat_samples):
    report = binned_variance(cat_samples, 20)
    assert _within_se(report, 5.0)
    assert int(heisenberg_violations(report, 3.0).sum()) == 0


def test_fock_bins_match_theory(fock_samples):
    report = binned_variance(fock_samples, BINS)
    assert (report.counts > 500).all()
    assert _within_se(report, 5.0)


def test_spats_bins_match_theory(spats_samples):
    report = binned_variance(spats_samples, BINS)
    assert _within_se(report, 5.0)


def test_squeezed_bins_match_phase_resolved_theory(squeezed_samples):
    report = binned_variance(squeezed_samples, BINS)
    expected = np.array(
        [theoretical_variance(SqueezedVacuum(1.0), c) for c in report.bin_centers]
    )
    assert np.allclose(report.theoretical_variance, expected)
    assert _within_se(report, 5.0)


def test_heisenberg_product_no_violations(
    squeezed_samples, fock_samples, spats_samples, vacuum_samples
):
    for ss in (squeezed_samples, fock_samples, spats_samples, vacuum_samples):
        report = binned_variance(ss, BINS)
        assert int(heisenberg_violations(report, 3.0).sum()) == 0


def test_heisenberg_product_lower_bound(squeezed_samples):
    report = binned_variance(squeezed_samples, BINS)
    se = variance_standard_error(report)
    se_shift = np.roll(se, -(BINS // 4))
    combined = report.variance_product * np.sqrt(
        (se / report.estimated_variance) ** 2
        + (se_shift / report.shifted_variance) ** 2
    )
    assert np.nanmin(report.variance_product + 3.0 * combined) >= 1.0


def test_squeezing_certified_near_zero_phase(squeezed_samples):
    report = binned_variance(squeezed_samples, BINS)
    certified = squeezing_certificate(report, 3.0)
    near_zero = np.abs(report.bin_centers) <= np.pi / 8
    assert certified[near_zero].all()
    near_half_pi = np.abs(np.abs(report.bin_centers) - np.pi / 2) <= np.pi / 8
    assert not certified[near_half_pi].any()


def test_no_certificates_for_nonsqueezed(fock_samples, spats_samples, vacuum_samples):
    for ss in (fock_samples, spats_samples, vacuum_samples):
        report = binned_variance(ss, BINS)
        assert int(squeezing_certificate(report, 3.0).sum()) == 0


def test_normally_ordered_negative_near_zero(squeezed_samples):
    report = binned_variance(squeezed_samples, BINS)
    near_zero = np.abs(report.bin_centers) <= np.pi / 8
    assert (report.normally_ordered_variance[near_zero] < 0.0).all()


def test_binned_variance_validation(vacuum_samples):
    with pytest.raises(ValueError):
        binned_variance(vacuum_samples, 3)
    empty = SampleSet(phases=np.array([]), values=np.array([]), model=None)
    with pytest.raises(ValueError):
        binned_variance(empty, 8)


def test_underfilled_bins_carry_nan():
    tiny = sample(Vacuum(), 3, seed=1)
    report = binned_variance(tiny, 8)
    assert np.isnan(report.estimated_variance).any()
    assert not squeezing_certificate(report, 3.0)[np.isnan(report.estimated_variance)].any()


def test_fock10_sampling_uses_top_hermite_orders():
    ss = sample(Fock(10), 30_000, seed=3)
    report = binned_variance(ss, 8)
    se = 21.0 * np.sqrt(2.0 / np.maximum(report.counts - 1, 1))
    dev = np.nanmax(np.abs(report.estimated_variance - 21.0) / se)
    assert dev < 5.0


def test_squeezed_phase_bin_variance_tracks_formula(squeezed_samples):
    # per-bin empirical variance follows |e^{i phi} cosh r - e^{-i phi} sinh r|^2
    report = binned_variance(squeezed_samples, BINS)
    r = 1.0
    formula = np.abs(
        np.exp(1j * report.bin_centers) * np.cosh(r)
        - np.exp(-1j * report.bin_centers) * np.sinh(r)
    ) ** 2
    assert np.allclose(report.theoretical_variance, formula, atol=1e-12)


#: centres of the four bins over [-pi, pi): -3 pi/4, -pi/4, pi/4, 3 pi/4
QUARTER_CENTRES = 0.5 * (np.linspace(-np.pi, np.pi, 5)[:-1] + np.linspace(-np.pi, np.pi, 5)[1:])


@pytest.mark.parametrize("values, what", [
    # an inf record makes its bin's variance NaN
    ([np.inf, 1.0, np.inf, 3.0, 4.0, 5.0], "variance"),
    # the squares of the deviations overflow
    ([1e308, -1e308, 1e308, -1e308, 4.0, 5.0], "variance"),
    ([1e160, -1e160, 1e160, -1e160, 4.0, 5.0], "variance"),
    # variances of 2e200 and 2e180 are finite; their product is not
    ([1e100, -1e100, 1e90, -1e90, 4.0, 5.0], "variance product"),
    # the sum of the squares overflows, but the variance, 1000/999 * 1e306,
    # is finite: the bin is kept
    ([1e153, -1e153] * 500 + [4.0, 5.0, 4.0, 5.0], None),
], ids=["inf-record", "1e308", "1e160", "product", "1e153-finite"])
def test_binned_variance_refuses_a_non_finite_bin(values, what):
    # the records before the last four fill the bin at pi/4, the next two
    # that at 3 pi/4 and the last two that at -3 pi/4, which stays finite;
    # the bin at pi/4 is the first that fails
    phases = [*np.linspace(0.1, 0.2, len(values) - 4), 2.5, 2.6, -2.5, -2.6]
    samples = SampleSet(phases=phases, values=values, model=None)
    if what is None:
        exact = float(Fraction(values[0]) ** 2 * 1000 / 999)
        got = binned_variance(samples, 4).estimated_variance[2]
        assert abs(got - exact) <= 4 * np.spacing(exact)
        return
    message = f"the {what} of the phase bin at phi = {float(QUARTER_CENTRES[2])!r} is not finite"
    with pytest.raises(CVSimError, match=f"^{re.escape(message)}$"):
        binned_variance(samples, 4)


def test_binned_variance_keeps_nan_in_an_under_filled_bin():
    # one inf record has no sample variance: its bin holds NaN, as does the
    # product of the bins paired with it
    report = binned_variance(
        SampleSet(phases=[0.1, 2.5, 2.6, np.nan], values=[np.inf, 2.0, 3.0, 1e150], model=None), 4
    )
    assert report.counts.tolist() == [0, 0, 1, 3]
    assert np.isnan(report.estimated_variance[:3]).all()
    assert report.estimated_variance[3] == np.var([2.0, 3.0, 1e150], ddof=1)
    assert np.isnan(report.variance_product).all()


def test_verdicts_on_a_variance_near_the_largest_double_do_not_warn():
    # var_est = 1.62e308 is finite, and its standard error is not; tier-1
    # runs with RuntimeWarning as an error
    report = binned_variance(SampleSet(phases=[0.1, 0.2], values=[9e153, -9e153], model=None), 4)
    assert report.estimated_variance[2] == 1.62e308
    assert not squeezing_certificate(report).any()
    assert not heisenberg_violations(report).any()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3000),
    quarters=st.integers(1, 300),
    extra=st.sampled_from([0, 1, 2, 3]),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_binned_variance_matches_per_bin_masks(seed, count, quarters, extra, scale):
    # num_bins divisible by 4 (extra == 0) and not; phases include every bin
    # edge and both its floating-point neighbours, both ends of [-pi, pi],
    # +-inf and NaN
    num_bins = 4 * quarters + extra
    rng = np.random.default_rng(seed)
    edges = np.linspace(-np.pi, np.pi, num_bins + 1)
    phases = np.concatenate([
        2.0 * np.pi * rng.random(count) - np.pi,
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-np.inf, np.inf, np.nan],
    ])
    values = scale * rng.standard_normal(phases.size) + rng.uniform(-5.0, 5.0)
    report = binned_variance(
        SampleSet(phases=phases, values=values, model=None), num_bins
    )
    which = np.clip(np.digitize(phases, edges) - 1, 0, num_bins - 1)
    for i in range(num_bins):
        members = values[which == i]
        assert report.counts[i] == members.size
        if members.size < 2:
            assert np.isnan(report.estimated_variance[i])
        else:
            assert report.estimated_variance[i] == np.var(members, ddof=1)
