import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from cvsim import (
    Bipartition,
    CVSimError,
    ENTANGLED,
    SEPARABLE,
    GaussianState,
    apply_gate,
    beamsplitter_gate,
    check_physicality,
    displacement_gate,
    log_negativity,
    partial_transpose_cov,
    ptranspose_symplectic_spectrum,
    reduced_state,
    rotation_gate,
    simon_criterion,
    squeeze_gate,
    symplectic_eigenvalues,
    vacuum_state,
)
from cvsim.entanglement import _robertson_schrodinger_holds
from cvsim.states import _vacuum_units

LOG2_E = 1.0 / np.log(2.0)


def two_mode_squeezed(r=0.5, hbar=2.0):
    """Squeezed pair (theta 0 and pi) mixed on a balanced beam splitter."""
    st = vacuum_state(2, hbar)
    st = apply_gate(squeeze_gate(r, 0.0, 0, 2), st)
    st = apply_gate(squeeze_gate(r, np.pi, 1, 2), st)
    return apply_gate(beamsplitter_gate(np.pi / 4, 0.0, (0, 1), 2), st)


def three_bs_network():
    st = vacuum_state(4)
    st = apply_gate(squeeze_gate(0.5, 0.0, 0, 4), st)
    st = apply_gate(squeeze_gate(0.5, np.pi, 1, 4), st)
    for pair in [(0, 1), (0, 2), (1, 3)]:
        st = apply_gate(beamsplitter_gate(np.pi / 4, 0.0, pair, 4), st)
    return st


def test_reduced_tmsv_mode_is_thermal():
    red = reduced_state(two_mode_squeezed(), [0])
    assert np.allclose(red.mean, 0.0, atol=1e-12)
    assert np.allclose(red.cov, 1.54308063 * np.eye(2), atol=1e-6)
    red1 = reduced_state(two_mode_squeezed(), [1])
    assert np.allclose(red1.cov, 1.54308063 * np.eye(2), atol=1e-6)


def test_reduced_product_state_marginal():
    st = vacuum_state(2)
    st = apply_gate(displacement_gate(1.6, 0.0, 1, 2), st)
    red = reduced_state(st, [1])
    assert np.allclose(red.mean, [3.2, 0.0])
    assert np.allclose(red.cov, np.eye(2))


def test_reduced_network_mode_trace():
    red = reduced_state(three_bs_network(), [0])
    assert np.trace(red.cov) == pytest.approx(2 * 1.27154, abs=2e-5)


def test_reduced_rejects_bad_selection():
    st = vacuum_state(2)
    with pytest.raises(ValueError):
        reduced_state(st, [])
    with pytest.raises(ValueError):
        reduced_state(st, [0, 2])
    with pytest.raises(ValueError):
        reduced_state(st, [1, 1])


def test_partial_transpose_empty_is_identity():
    cov = two_mode_squeezed().cov
    assert np.array_equal(partial_transpose_cov(cov, []), cov)


def test_partial_transpose_block_signs():
    # sign flips exactly the p-column/row entries of the transposed mode:
    # sigma_AB -> sigma_AB sigma_z, sigma_B -> sigma_z sigma_B sigma_z
    rng = np.random.default_rng(2)
    cov = rng.normal(size=(4, 4))
    cov = cov + cov.T
    sz = np.diag([1.0, -1.0])
    out = partial_transpose_cov(cov, [1])
    assert np.allclose(out[0:2, 2:4], cov[0:2, 2:4] @ sz)
    assert np.allclose(out[2:4, 2:4], sz @ cov[2:4, 2:4] @ sz)
    assert np.allclose(out[0:2, 0:2], cov[0:2, 0:2])


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(8)
    cov = rng.normal(size=(6, 6))
    cov = cov + cov.T
    once = partial_transpose_cov(cov, [0, 2])
    assert np.array_equal(partial_transpose_cov(once, [0, 2]), cov)
    assert np.array_equal(once, once.T)


def test_partial_transpose_of_tmsv_is_unphysical():
    from cvsim.states import physicality_margin

    st = two_mode_squeezed()
    cov_pt = partial_transpose_cov(st.cov, [1])
    assert physicality_margin(cov_pt, st.hbar) < -1e-3
    # the PT spectrum is exactly {e^-1, e} in vacuum units
    nu = symplectic_eigenvalues(cov_pt)
    assert np.allclose(nu, [np.exp(-1), np.exp(1)], atol=1e-9)


def test_simon_tmsv_entangled():
    report = simon_criterion(two_mode_squeezed())
    assert report.verdict == ENTANGLED
    assert report.margin < -1.0


def test_simon_two_mode_vacuum_separable():
    report = simon_criterion(vacuum_state(2))
    assert report.verdict == SEPARABLE
    assert report.margin >= 0.0


def test_simon_network_bipartitions():
    net = three_bs_network()
    assert simon_criterion(reduced_state(net, [0, 2])).verdict == SEPARABLE
    assert simon_criterion(reduced_state(net, [1, 3])).verdict == SEPARABLE
    assert simon_criterion(reduced_state(net, [0, 3])).verdict == ENTANGLED


def test_simon_of_subnormal_cross_block_is_quiet_and_separable():
    # det of C = [[0, 5e-324], [5e-324, 0]] divides by zero inside numpy's
    # LU; the warning is an error under this suite's filter
    C = np.array([[0.0, 5e-324], [5e-324, 0.0]])
    cov = np.block([[np.eye(2), C], [C.T, np.eye(2)]])
    report = simon_criterion(GaussianState(mean=np.zeros(4), cov=cov, hbar=2.0))
    assert (report.lhs, report.rhs, report.verdict) == (2.0, 2.0, SEPARABLE)


def test_simon_refuses_determinants_past_float64():
    # det A det B overflows to inf and the margin was NaN, with an "entangled"
    # verdict for this product state
    with pytest.raises(CVSimError, match=r"^the Simon criterion overflows float64 \(lhs = inf, rhs = inf\)$"):
        simon_criterion(GaussianState(mean=np.zeros(4), cov=np.diag([3e154] * 4)))


def test_simon_requires_two_modes():
    with pytest.raises(ValueError):
        simon_criterion(vacuum_state(3))


def test_simon_split_sign_forms():
    # the two split-sign inequalities behind the combined |det C| form:
    # every physical state satisfies the minus form; separable verdicts
    # additionally satisfy the plus form
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def sides(cov, hbar, sign):
        A, C, B = cov[0:2, 0:2], cov[0:2, 2:4], cov[2:4, 2:4]
        h2_4 = hbar**2 / 4.0
        lhs = (
            np.linalg.det(A) * np.linalg.det(B)
            + (h2_4 + sign * np.linalg.det(C)) ** 2
            - np.trace(A @ J @ C @ J @ B @ J @ C.T @ J)
        )
        return lhs, h2_4 * (np.linalg.det(A) + np.linalg.det(B))

    states = [vacuum_state(2), two_mode_squeezed(0.3), two_mode_squeezed(1.0)]
    for st in states:
        lhs, rhs = sides(st.cov, st.hbar, -1.0)
        assert lhs >= rhs - 1e-9
    lhs, rhs = sides(vacuum_state(2).cov, 2.0, +1.0)
    assert lhs >= rhs - 1e-9


def test_log_negativity_tmsv_golden():
    value = log_negativity(two_mode_squeezed(), Bipartition([0], [1]))
    assert value == pytest.approx(1.4426950408889623, abs=1e-9)


def test_log_negativity_matches_2r_over_ln2():
    for r in (0.1, 0.5, 1.0):
        value = log_negativity(two_mode_squeezed(r), Bipartition([0], [1]))
        assert value == pytest.approx(2.0 * r / np.log(2.0), abs=1e-9)


def test_log_negativity_network_values():
    net = three_bs_network()

    def en(a, b):
        kept = sorted(a + b)
        red = reduced_state(net, kept)
        pos = {m: i for i, m in enumerate(kept)}
        return log_negativity(
            red, Bipartition([pos[m] for m in a], [pos[m] for m in b])
        )

    assert en([0], [3]) == pytest.approx(0.5480589169169516, abs=1e-9)
    assert en([0], [2]) == pytest.approx(0.0, abs=1e-12)
    assert en([1], [3]) == pytest.approx(0.0, abs=1e-12)


def test_log_negativity_product_state_zero():
    st = vacuum_state(2)
    st = apply_gate(squeeze_gate(0.8, 0.3, 0, 2), st)
    st = apply_gate(squeeze_gate(0.2, 1.0, 1, 2), st)
    assert log_negativity(st, Bipartition([0], [1])) == 0.0


def test_log_negativity_invariant_under_local_rotations():
    st = two_mode_squeezed(0.7)
    base = log_negativity(st, Bipartition([0], [1]))
    for mode, phi in [(0, 0.3), (1, -1.2), (0, 2.5)]:
        rotated = apply_gate(rotation_gate(phi, mode, 2), st)
        assert log_negativity(rotated, Bipartition([0], [1])) == pytest.approx(
            base, abs=1e-9
        )


def test_log_negativity_agrees_with_simon_on_two_modes():
    rng = np.random.default_rng(21)
    for _ in range(20):
        st = vacuum_state(2)
        st = apply_gate(squeeze_gate(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi), 0, 2), st)
        st = apply_gate(squeeze_gate(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi), 1, 2), st)
        st = apply_gate(
            beamsplitter_gate(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), (0, 1), 2),
            st,
        )
        simon_says = simon_criterion(st).verdict
        en = log_negativity(st, Bipartition([0], [1]))
        assert (en > 1e-10) == (simon_says == ENTANGLED)


def test_log_negativity_rejects_unphysical_state():
    bad = GaussianState(mean=np.zeros(4), cov=0.5 * np.eye(4))
    margin = check_physicality(bad).margin  # from eigvalsh: -0.5
    with pytest.raises(ValueError, match=re.escape(f"(uncertainty margin {margin:.3e})")):
        log_negativity(bad, Bipartition([0], [1]))


@hst.composite
def random_states(draw):
    """(state, tol): a random pure, mixed, shrunk (unphysical) or slightly
    perturbed Gaussian state of 1-4 modes."""
    n = draw(hst.integers(1, 4))
    hbar = draw(hst.sampled_from([0.5, 1.0, 2.0]))
    kind = draw(hst.sampled_from(["pure", "mixed", "shrunk", "perturbed"]))
    n_bar = [0.0 if kind in ("pure", "shrunk") else draw(hst.floats(0, 3)) for _ in range(n)]
    variances = np.repeat((2 * np.array(n_bar) + 1) * hbar / 2, 2)
    state = GaussianState(np.zeros(2 * n), np.diag(variances), hbar)
    angle = hst.floats(-np.pi, np.pi)
    for _ in range(draw(hst.integers(0, 6))):
        mode = draw(hst.integers(0, n - 1))
        gate = draw(hst.sampled_from(["squeeze", "rotate", "beamsplitter"][: 3 if n > 1 else 2]))
        if gate == "squeeze":
            state = apply_gate(squeeze_gate(draw(hst.floats(0, 0.5)), draw(angle), mode, n), state)
        elif gate == "rotate":
            state = apply_gate(rotation_gate(draw(angle), mode, n), state)
        else:
            other = (mode + draw(hst.integers(1, n - 1))) % n
            bs = beamsplitter_gate(draw(hst.floats(0, np.pi / 2)), draw(angle), (mode, other), n)
            state = apply_gate(bs, state)
    cov = state.cov
    if kind == "shrunk":
        cov = cov * draw(hst.floats(0.05, 0.999))
    elif kind == "perturbed":
        noise = np.random.default_rng(draw(hst.integers(0, 2**32 - 1))).normal(size=cov.shape)
        cov = cov + draw(hst.floats(1e-12, 1e-2)) * (noise + noise.T)
    return GaussianState(state.mean, cov, hbar), draw(hst.sampled_from([1e-9, 1e-6, 1e-3]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_states())
def test_physicality_precheck_agrees_with_check_physicality(case):
    state, tol = case
    report = check_physicality(state)
    # within rounding of the boundary either answer is right
    assume(abs(report.margin + tol) > 1e-12)
    holds = _robertson_schrodinger_holds(_vacuum_units(state).cov, tol / (state.hbar / 2))
    assert holds == (report.margin >= -tol)


def test_reduced_state_over_every_mode_in_order_is_the_state():
    st3 = three_bs_network()
    assert reduced_state(st3, [0, 1, 2, 3]) is st3
    swapped = reduced_state(st3, [1, 0, 2, 3])
    assert swapped is not st3 and swapped.cov[0, 0] == st3.cov[2, 2]


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition([0], [0])
    with pytest.raises(ValueError):
        Bipartition([0, 0], [1])
    with pytest.raises(ValueError):
        Bipartition([], [1])
    bp = Bipartition([1, 0], [3, 2])
    assert bp.part_a == (0, 1)
    assert bp.modes() == (0, 1, 2, 3)


def test_bipartition_must_cover_state():
    st = vacuum_state(3)
    with pytest.raises(ValueError):
        log_negativity(st, Bipartition([0], [1]))


@hst.composite
def gate_chains(draw):
    """A state of 2 to 4 modes: thermal inputs, then a random chain of
    squeezers, rotations and beam splitters."""
    n = draw(hst.integers(2, 4))
    angle = hst.floats(-np.pi, np.pi)
    n_bar = hst.one_of(hst.just(0.0), hst.floats(0, 0.5))
    variances = np.repeat([2 * draw(n_bar) + 1 for _ in range(n)], 2)
    state = GaussianState(np.zeros(2 * n), np.diag(variances))
    for _ in range(draw(hst.integers(1, 10))):
        mode = draw(hst.integers(0, n - 1))
        gate = draw(hst.sampled_from(["squeeze", "rotate", "beamsplitter"]))
        if gate == "squeeze":
            state = apply_gate(squeeze_gate(draw(hst.floats(0, 1)), draw(angle), mode, n), state)
        elif gate == "rotate":
            state = apply_gate(rotation_gate(draw(angle), mode, n), state)
        else:
            other = (mode + draw(hst.integers(1, n - 1))) % n
            bs = beamsplitter_gate(draw(hst.floats(0, np.pi / 2)), draw(angle), (mode, other), n)
            state = apply_gate(bs, state)
    return state


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gate_chains(), hst.data())
def test_log_negativity_is_symmetric_in_its_two_parts(state, data):
    kept = data.draw(hst.permutations(range(state.num_modes)))
    kept = kept[: data.draw(hst.integers(2, state.num_modes))]
    split = data.draw(hst.integers(1, len(kept) - 1))
    red = reduced_state(state, sorted(kept))
    pos = {m: i for i, m in enumerate(sorted(kept))}
    part_a, part_b = [pos[m] for m in kept[:split]], [pos[m] for m in kept[split:]]
    forward = log_negativity(red, Bipartition(part_a, part_b))
    # transposing the other part is a global time reversal away: the same
    # spectrum up to rounding, so E_N agrees to 1e-12 relative, or to 1e-12
    # where it is rounding itself
    assert log_negativity(red, Bipartition(part_b, part_a)) == pytest.approx(forward, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gate_chains(), hst.data())
def test_simon_verdict_agrees_with_log_negativity_on_two_mode_reductions(state, data):
    pair = data.draw(hst.permutations(range(state.num_modes)))[:2]
    red = reduced_state(state, pair)
    report = simon_criterion(red)
    assume(abs(report.margin) > 1e-8)
    assert (report.verdict == ENTANGLED) == (log_negativity(red, Bipartition([0], [1])) > 0)


#: hbar values over which the verdicts are swept: each side of the Simon
#: inequality scales as (hbar/2)^4, from 6e-26 to 6e22 here
SWEPT_HBARS = [1e-6, 1e-3, 0.5, 2.0, 1e3, 1e6]


@hst.composite
def two_mode_states(draw):
    """A two-mode state at one of SWEPT_HBARS: thermal inputs, then a
    random chain of squeezers, rotations and beam splitters."""
    hbar = draw(hst.sampled_from(SWEPT_HBARS))
    angle = hst.floats(-np.pi, np.pi)
    n_bar = hst.one_of(hst.just(0.0), hst.floats(0, 1))
    variances = np.repeat([(2 * draw(n_bar) + 1) * hbar / 2 for _ in range(2)], 2)
    state = GaussianState(np.zeros(4), np.diag(variances), hbar)
    for _ in range(draw(hst.integers(1, 6))):
        mode = draw(hst.integers(0, 1))
        gate = draw(hst.sampled_from(["squeeze", "rotate", "beamsplitter"]))
        if gate == "squeeze":
            state = apply_gate(squeeze_gate(draw(hst.floats(0, 1.5)), draw(angle), mode, 2), state)
        elif gate == "rotate":
            state = apply_gate(rotation_gate(draw(angle), mode, 2), state)
        else:
            bs = beamsplitter_gate(draw(hst.floats(0, np.pi / 2)), draw(angle), (mode, 1 - mode), 2)
            state = apply_gate(bs, state)
    return state


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(two_mode_states())
def test_simon_verdict_agrees_with_log_negativity_at_any_hbar(state):
    bipartition = Bipartition([0], [1])
    nu_min = ptranspose_symplectic_spectrum(state, bipartition).min()
    # within rounding of nu = 1 either answer is right
    assume(abs(nu_min - 1.0) >= 1e-6)
    entangled = simon_criterion(state).verdict == ENTANGLED
    assert entangled == (log_negativity(state, bipartition) > 0)


@pytest.mark.parametrize("hbar", SWEPT_HBARS)
def test_simon_margin_scales_as_hbar_to_the_fourth(hbar):
    # thermal n 0.3 and a squeezed vacuum mixed on a beam splitter: entangled,
    # with a margin of -0.2267 (hbar/2)^4, which read separable at hbar <= 1e-3
    state = GaussianState(np.zeros(4), np.diag([1.6, 1.6, 1.0, 1.0]) * hbar / 2, hbar)
    state = apply_gate(squeeze_gate(0.3, 0.0, 1, 2), state)
    state = apply_gate(beamsplitter_gate(0.7, 0.2, (0, 1), 2), state)
    report = simon_criterion(state)
    assert report.margin / (hbar / 2) ** 4 == pytest.approx(-0.2267, abs=1e-4)
    assert report.verdict == ENTANGLED
    assert log_negativity(state, Bipartition([0], [1])) > 0


@pytest.mark.parametrize("hbar", [1e8, 1e9, 1e12])
def test_log_negativity_of_a_product_state_at_large_hbar(hbar):
    # rounding in cov + i(hbar/2)Omega grows with hbar: at 1e9 this state's
    # margin is -3.6e-7, which an absolute tolerance of 1e-9 read as unphysical
    state = vacuum_state(2, hbar)
    state = apply_gate(squeeze_gate(0.7, 0.3, 0, 2), state)
    state = apply_gate(squeeze_gate(0.4, 1.3, 1, 2), state)
    state = apply_gate(rotation_gate(0.4, 1, 2), state)
    assert check_physicality(state).physical
    assert log_negativity(state, Bipartition([0], [1])) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the Simon tolerance, 1e-10 in vacuum "
                   "units, is coarser than the margin of a weakly entangled pair")
def test_simon_verdict_of_a_weakly_squeezed_pair():
    # nu_min = 1 - 2e-6 and E_N = 2.9e-6, but the margin (nu_-^2 - 1)(nu_+^2 - 1)
    # is -1.6e-11, which reads separable
    state = two_mode_squeezed(1e-6)
    assert log_negativity(state, Bipartition([0], [1])) > 0
    assert simon_criterion(state).verdict == ENTANGLED
