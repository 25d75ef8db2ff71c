"""Property tests for quantile inversion over each source's documented domain:
the tolerance certificate, independence of a record from its batch and from
the threads that solve its block, the closed-form quantile of the Gaussian
sources and the cost of a record."""

import sys
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvsim import (
    CatState,
    Fock,
    InversionError,
    Spats,
    SqueezedVacuum,
    Thermal,
    Vacuum,
    invert_cdf,
    quadrature_cdf,
    sample,
)
from cvsim import homodyne
from cvsim.homodyne import _BLOCK, DEFAULT_TOL, MAX_FOCK_N

SWEEP = settings(derandomize=True, max_examples=60, deadline=None)
COUNT = 300

phases = st.floats(-np.pi, np.pi)
targets = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def cats(draw):
    """Any alpha with |alpha| <= 4 and any theta.  Odd cats whose
    normalization falls below 0.25 are left out: the closed-form CDF loses
    accuracy like 1/normalization there, whatever the inverter does."""
    alpha = draw(st.complex_numbers(max_magnitude=4.0))
    theta = draw(phases)
    assume(2.0 + 2.0 * np.cos(theta) * np.exp(-2.0 * abs(alpha) ** 2) >= 0.25)
    return CatState(alpha, theta)


gaussian_models = st.one_of(
    st.just(Vacuum()),
    st.builds(Thermal, st.floats(0.0, 100.0)),
    st.builds(SqueezedVacuum, st.floats(-2.0, 2.0)),
)
all_models = st.one_of(
    st.builds(Fock, st.integers(0, MAX_FOCK_N)),
    st.builds(Spats, st.floats(0.0, 100.0, exclude_min=True)),
    cats(),
    gaussian_models,
)


def _draws(seed, count):
    """The (phase, target) pairs that sample(..., count, seed) inverts."""
    rng = np.random.default_rng(seed)
    phis = 2.0 * np.pi * rng.random(count) - np.pi
    us = np.maximum(rng.random(count), np.finfo(float).tiny)
    return phis, us


@SWEEP
@given(model=all_models, seed=seeds)
def test_sampled_records_hold_the_tolerance_certificate(model, seed):
    phis, us = _draws(seed, COUNT)
    x = sample(model, COUNT, seed=seed).values
    assert (quadrature_cdf(model, x - DEFAULT_TOL, phis) < us + 1e-15).all()
    assert (quadrature_cdf(model, x + DEFAULT_TOL, phis) > us - 1e-15).all()


@SWEEP
@given(model=all_models, phi=phases, u=targets)
def test_single_quantile_holds_the_tolerance_certificate(model, phi, u):
    x = invert_cdf(model, phi, u)
    assert quadrature_cdf(model, x - DEFAULT_TOL, phi) < u + 1e-15
    assert quadrature_cdf(model, x + DEFAULT_TOL, phi) > u - 1e-15


@SWEEP
@given(model=all_models, seed=seeds)
def test_record_does_not_depend_on_its_batch(model, seed):
    phis, us = _draws(seed, COUNT)
    values = sample(model, COUNT, seed=seed).values
    for i in (0, 1, COUNT // 2, COUNT - 1):
        assert invert_cdf(model, phis[i], us[i]) == values[i]


@pytest.mark.parametrize(
    "model", [Fock(10), Spats(3.0), CatState(2.0 + 0.0j, 0.0), SqueezedVacuum(1.0)]
)
def test_records_across_a_block_boundary_match_single_inversion(model):
    count = _BLOCK + 40
    phis, us = _draws(11, count)
    values = sample(model, count, seed=11).values
    for i in (0, _BLOCK - 1, _BLOCK, count - 1):
        assert invert_cdf(model, phis[i], us[i]) == values[i]


@SWEEP
@given(model=gaussian_models, phi=phases, u=targets)
def test_gaussian_closed_form_quantile_matches_cdf(model, phi, u):
    x = invert_cdf(model, phi, u)
    assert abs(quadrature_cdf(model, x, phi) - u) <= 1e-15


#: the non-Gaussian sources of the homodyne-nongaussian benchmark workload
BENCHMARK_SOURCES = [
    Fock(10), Spats(3.0), CatState(2.0 + 0.0j, 0.0), CatState(0.7 + 0.0j, np.pi / 2)
]


@pytest.mark.parametrize("model", BENCHMARK_SOURCES)
def test_record_costs_at_most_five_cdf_evaluations(model, monkeypatch):
    """Every point at which F is evaluated while 1e5 records are sampled
    counts: the start table, the Newton passes and any reach run."""
    # blocks run on several threads: list.append loses no count, where a
    # read-modify-write of one total could
    evaluated = []
    cdf_and_pdf = homodyne._cdf_and_pdf

    def counted(model, x, phi):
        evaluated.append(np.size(x))
        return cdf_and_pdf(model, x, phi)

    monkeypatch.setattr(homodyne, "_cdf_and_pdf", counted)
    count = 100_000
    sample(model, count, seed=42)
    assert sum(evaluated) <= 5.0 * count


@pytest.mark.parametrize("model", BENCHMARK_SOURCES + [SqueezedVacuum(1.0)])
def test_records_do_not_depend_on_the_number_of_threads(model, monkeypatch):
    count = 3 * _BLOCK + 5
    threaded = sample(model, count, seed=9).values
    monkeypatch.setattr(homodyne, "_cpus", lambda: 4)
    four = sample(model, count, seed=9).values
    monkeypatch.setattr(homodyne, "_cpus", lambda: 1)
    serial = sample(model, count, seed=9).values
    assert threaded.tobytes() == serial.tobytes()
    assert four.tobytes() == serial.tobytes()


@pytest.mark.parametrize("count, cpus", [(_BLOCK, 4), (3 * _BLOCK, 1)])
def test_one_block_or_one_cpu_starts_no_thread(count, cpus, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refused)
    monkeypatch.setattr(homodyne, "_cpus", lambda: cpus)
    assert sample(Fock(3), count, seed=2).values.size == count


@pytest.mark.parametrize("planted", [{1: 0.2, 2: 0.0}, {2: 0.2, 3: 0.0}],
                         ids=["blocks 1 and 2", "blocks 2 and 3"])
def test_the_lowest_failing_block_is_raised_whichever_fails_first(planted, monkeypatch):
    """One record of each block k in `planted` gets a NaN CDF, block k's after
    planted[k] seconds, so the higher block fails first.  The error names the
    lowest failing block's record, as a serial loop over the blocks would."""
    count = 4 * _BLOCK
    phis, _ = _draws(7, count)
    bad = {k: k * _BLOCK + 5 for k in planted}
    cdf_and_pdf = homodyne._cdf_and_pdf

    def nan_at_planted(model, x, phi):
        cdf, pdf = cdf_and_pdf(model, x, phi)
        for k, delay in planted.items():
            hit = phi == phis[bad[k]]
            if hit.any():
                time.sleep(delay)
                cdf = np.where(hit, np.nan, cdf)
        return cdf, pdf

    monkeypatch.setattr(homodyne, "_cdf_and_pdf", nan_at_planted)
    monkeypatch.setattr(homodyne, "_cpus", lambda: 4)
    with pytest.raises(InversionError, match=rf"^CDF is NaN for record {bad[min(planted)]} "):
        sample(Fock(3), count, seed=7)


def test_every_block_runs_under_the_caller_s_errstate(monkeypatch):
    # a thread started plainly runs under numpy's default errstate
    # ("under": "ignore"), not the caller's
    seen = []
    cdf_and_pdf = homodyne._cdf_and_pdf

    def recorded(model, x, phi):
        seen.append((threading.get_ident(), np.geterr()["under"]))
        with np.errstate(under="ignore"):
            return cdf_and_pdf(model, x, phi)

    monkeypatch.setattr(homodyne, "_cdf_and_pdf", recorded)
    monkeypatch.setattr(homodyne, "_cpus", lambda: 4)
    with np.errstate(under="raise"):
        sample(CatState(2.0 + 0.0j, 0.0), 4 * _BLOCK, seed=3)
    assert {under for _, under in seen} == {"raise"}
    assert len({ident for ident, _ in seen}) > 1


def test_every_block_is_solved_once_under_thread_switching_stress(monkeypatch):
    """Eight threads on 50 blocks of 64 records, switching every microsecond:
    a block taken twice or skipped shows in the count or the records."""
    count = 50 * 64
    serial = sample(Fock(3), count, seed=4).values
    solved = []
    newton_quantiles = homodyne._newton_quantiles

    def counted(model, phis, targets, records, tol, table):
        solved.append(int(records[0]))
        return newton_quantiles(model, phis, targets, records, tol, table)

    monkeypatch.setattr(homodyne, "_newton_quantiles", counted)
    monkeypatch.setattr(homodyne, "_BLOCK", 64)
    monkeypatch.setattr(homodyne, "_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sample(Fock(3), count, seed=4).values
    finally:
        sys.setswitchinterval(interval)
    assert sorted(solved) == list(range(0, count, 64))
    assert threaded.tobytes() == serial.tobytes()


def _mp_cdf(model, x, phi):
    """F(x, phi) of a Fock or cat source at mpmath's working precision: the
    Hermite-polynomial series for Fock states, the three error functions of
    the cat's Gaussian terms otherwise."""
    if isinstance(model, Fock):
        n, u = model.n, x / mpmath.sqrt(2)
        series = mpmath.fsum(
            mpmath.binomial(n, k) / (2**k * mpmath.factorial(k)) * mpmath.hermite(2 * k - 1, u)
            for k in range(1, n + 1)
        )
        return (1 + mpmath.erf(u)) / 2 - mpmath.exp(-u * u) / mpmath.sqrt(mpmath.pi) * series
    alpha = mpmath.mpc(model.alpha.real, model.alpha.imag)
    g = alpha * mpmath.expj(phi)
    a, b = 2 * g.real, 2 * g.imag
    damp = mpmath.exp(-2 * abs(alpha) ** 2)
    c = mpmath.expj(model.theta) * damp
    root2 = mpmath.sqrt(2)
    total = (
        2 + mpmath.erf((x - a) / root2) + mpmath.erf((x + a) / root2)
        + 2 * (c * (1 + mpmath.erf((x + 1j * b) / root2))).real
    )
    return total / (4 + 4 * mpmath.cos(model.theta) * damp)


@pytest.mark.parametrize("model", [Fock(3), CatState(2.0 + 0.0j, 0.0)])
def test_pinned_records_hold_the_tolerance_certificate_at_50_digits(model):
    """The records behind test_cli's pinned Fock(3) and cat `sample` digests
    (16389 records at seed 42) satisfy F(x - tol) < u <= F(x + tol) with F
    evaluated to 50 digits, on every 16th record and at every block edge."""
    count = 16389
    phis, us = _draws(42, count)
    values = sample(model, count, seed=42).values
    edges = {0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, count - 1}
    with mpmath.workdps(50):
        tol = mpmath.mpf(DEFAULT_TOL)
        for i in sorted(set(range(0, count, 16)) | edges):
            x, phi, u = (mpmath.mpf(float(v)) for v in (values[i], phis[i], us[i]))
            assert _mp_cdf(model, x - tol, phi) < u <= _mp_cdf(model, x + tol, phi), i
