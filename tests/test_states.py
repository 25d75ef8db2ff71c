import numpy as np
import pytest

from cvsim import (
    Bipartition,
    DegenerateInputError,
    GaussianState,
    MalformedInputError,
    PhaseSpaceGrid,
    SampleSet,
    Vacuum,
    apply_gate,
    binned_variance,
    parse_network_spec,
    partial_transpose_cov,
    reduced_state,
    rotation_gate,
    run_network,
    simon_criterion,
    squeeze_gate,
    wigner_gaussian,
    check_physicality,
    purity,
    symplectic_eigenvalues,
    symplectic_form,
    SymplecticGate,
    thermal_prepare,
    vacuum_state,
)
from cvsim.states import clean_tiny, physicality_margin, xp_to_interleaved_permutation


def test_symplectic_form_properties():
    for n in (1, 2, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_symplectic_form_matches_block_loop():
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for n in (1, 2, 3, 64, 192):
        reference = np.zeros((2 * n, 2 * n))
        for k in range(n):
            reference[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
        assert symplectic_form(n).tobytes() == reference.tobytes()


def test_vacuum_state_hbar2():
    st = vacuum_state(1)
    assert np.array_equal(st.mean, np.zeros(2))
    assert np.array_equal(st.cov, np.eye(2))


def test_vacuum_state_two_modes():
    st = vacuum_state(2)
    assert np.array_equal(st.cov, np.eye(4))
    assert np.array_equal(st.mean, np.zeros(4))


def test_vacuum_state_hbar1():
    st = vacuum_state(1, hbar=1.0)
    assert np.allclose(st.cov, 0.5 * np.eye(2))


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)
    with pytest.raises(ValueError, match="num_modes must be >= 1"):
        symplectic_form(0)


def test_constructor_rejects_non_positive_hbar():
    with pytest.raises(ValueError, match="hbar must be positive"):
        GaussianState(mean=np.zeros(2), cov=np.eye(2), hbar=0.0)


@pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_hbar(hbar):
    # a NaN or infinite hbar was accepted, and purity then read nan or inf
    with pytest.raises(ValueError, match="hbar must be positive and finite, got "):
        GaussianState(mean=np.zeros(2), cov=np.eye(2), hbar=hbar)


def test_constructor_rejects_asymmetric_cov():
    cov = np.eye(2)
    cov[0, 1] = 1e-6
    with pytest.raises(MalformedInputError):
        GaussianState(mean=np.zeros(2), cov=cov)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(MalformedInputError):
        GaussianState(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(MalformedInputError):
        GaussianState(mean=np.zeros(2), cov=np.eye(4))


@pytest.mark.parametrize("mean, cov", [
    ([np.nan, 0.0], np.eye(2)),
    ([0.0, 0.0], np.diag([np.inf, 1.0])),
    ([0.0, 0.0], np.full((2, 2), np.nan)),
], ids=["nan-mean", "inf-cov", "nan-cov"])
def test_constructor_rejects_non_finite(mean, cov):
    with pytest.raises(MalformedInputError, match="must be finite"):
        GaussianState(mean=np.array(mean), cov=cov)


def test_array_holding_results_compare_and_hash_by_identity():
    def build():
        samples = SampleSet(np.zeros(8), np.ones(8), Vacuum())
        return [
            vacuum_state(1),
            samples,
            wigner_gaussian(vacuum_state(1), PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)),
            run_network(parse_network_spec({"modes": 1})),
            binned_variance(samples, 4),
        ]

    for obj, twin in zip(build(), build()):
        assert obj == obj and not obj != obj
        assert obj != twin and not obj == twin
        assert hash(obj) == hash(obj) != hash(twin)
        assert {obj, obj, twin} == {obj, twin} and len({obj, twin}) == 2


def test_state_is_immutable():
    st = vacuum_state(1)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 5.0


def test_xp_to_interleaved_permutation_matches_index_arithmetic():
    for n in (1, 2, 3, 7):
        perm = xp_to_interleaved_permutation(n)
        assert perm.shape == (2 * n,)
        for k in range(n):
            assert perm[2 * k] == k
            assert perm[2 * k + 1] == n + k


def test_xp_to_interleaved_squeezed_tensor_vacuum():
    # xp-block diag(e^-1, 1, e, 1) reorders to interleaved diag(e^-1, e, 1, 1)
    xp_cov = np.diag([np.exp(-1), 1.0, np.exp(1), 1.0])
    perm = xp_to_interleaved_permutation(2)
    state = GaussianState(mean=np.zeros(4), cov=xp_cov[np.ix_(perm, perm)])
    assert np.array_equal(np.diag(state.cov), [np.exp(-1), np.exp(1), 1.0, 1.0])
    assert check_physicality(state).physical


def test_ordering_round_trip_exact():
    rng = np.random.default_rng(4)
    n = 4
    sym = rng.normal(size=(2 * n, 2 * n))
    sym = sym + sym.T
    mean = rng.normal(size=2 * n)
    perm = xp_to_interleaved_permutation(n)
    inv = np.argsort(perm)
    xp_mean, xp_cov = mean[inv], sym[np.ix_(inv, inv)]
    assert np.array_equal(xp_mean, np.concatenate((mean[0::2], mean[1::2])))
    assert np.array_equal(xp_mean[perm], mean)
    assert np.array_equal(xp_cov[np.ix_(perm, perm)], sym)


def test_physicality_vacuum_saturates():
    report = check_physicality(vacuum_state(1))
    assert report.physical
    assert abs(report.margin) < 1e-12


def test_physicality_subvacuum_fails():
    st = GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))
    report = check_physicality(st)
    assert not report.physical
    assert report.margin < -0.4


def test_physicality_rejects_asymmetric():
    from cvsim.states import physicality_margin

    cov = np.eye(2)
    cov[0, 1] = 1e-3
    with pytest.raises(MalformedInputError):
        physicality_margin(cov, hbar=2.0)


def test_symplectic_eigenvalues_vacuum():
    assert np.allclose(symplectic_eigenvalues(np.eye(2)), [1.0])


def test_symplectic_eigenvalues_thermal():
    nbar = 3.0
    cov = (2 * nbar + 1) * np.eye(2)
    assert np.allclose(symplectic_eigenvalues(cov), [7.0])


def test_symplectic_eigenvalues_match_moduli_of_i_omega_cov():
    # reference: the moduli of the eigenvalues of i Omega cov, one per +/- pair
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        a = rng.normal(size=(2 * n, 2 * n))
        cov = a @ a.T + 0.1 * np.eye(2 * n)
        moduli = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ cov)))
        assert np.allclose(symplectic_eigenvalues(cov), moduli[1::2], rtol=1e-12, atol=0)


def test_symplectic_eigenvalues_rejects_non_pd():
    cov = np.diag([1.0, -0.5])
    with pytest.raises(DegenerateInputError):
        symplectic_eigenvalues(cov)


def test_unresolved_covariance_is_refused_not_misread():
    state = apply_gate(squeeze_gate(9.3, 0.7, 0, 2), vacuum_state(2))
    for read in (symplectic_eigenvalues, purity, simon_criterion):
        with pytest.raises(DegenerateInputError, match="^cov is too ill-conditioned"):
            read(state.cov if read is symplectic_eigenvalues else state)
    # at angle 0 the covariance is diagonal and every pivot is exact
    diagonal = apply_gate(squeeze_gate(9.3, 0.0, 0, 2), vacuum_state(2))
    assert purity(diagonal) == pytest.approx(1.0, rel=1e-6)
    assert simon_criterion(diagonal).verdict == "separable"


def test_purity_vacuum():
    assert purity(vacuum_state(1)) == pytest.approx(1.0, abs=1e-12)


def test_purity_squeezed_is_one():
    st = GaussianState(mean=np.zeros(2), cov=np.diag([np.exp(-1), np.exp(1)]))
    assert purity(st) == pytest.approx(1.0, abs=1e-12)


def test_purity_thermal():
    st = GaussianState(mean=np.zeros(2), cov=3.0 * np.eye(2))
    assert purity(st) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_purity_respects_hbar():
    st = vacuum_state(2, hbar=1.0)
    assert purity(st) == pytest.approx(1.0, abs=1e-12)


def test_clean_tiny():
    arr = np.array([1.0, 1e-12, -1e-12, 2e-11])
    kept = arr * [1.0, 0.0, 0.0, 1.0]
    mean, cov = clean_tiny(GaussianState(arr, np.diag(arr)))
    assert np.array_equal(mean, kept) and np.array_equal(cov, np.diag(kept))
    # the threshold is in vacuum units: sqrt(hbar/2) for a mean, hbar/2 for a cov
    mean, cov = clean_tiny(GaussianState(arr * 1e-6, np.diag(arr) * 1e-12, hbar=2e-12))
    assert np.array_equal(mean, kept * 1e-6) and np.array_equal(cov, np.diag(kept) * 1e-12)


@pytest.mark.parametrize("read", [
    lambda cov: GaussianState(np.zeros(np.shape(cov)[0]), cov),
    lambda cov: physicality_margin(cov, 2.0),
    symplectic_eigenvalues,
    lambda cov: partial_transpose_cov(cov, [0]),
], ids=["GaussianState", "physicality_margin", "symplectic_eigenvalues", "partial_transpose_cov"])
@pytest.mark.parametrize("cov", [
    np.array([[1.0, 5.0], [0.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.eye(3),
    np.ones((2, 4)),
    np.zeros((0, 0)),
], ids=["asymmetric", "nan", "inf", "odd", "not-square", "empty"])
def test_every_covariance_reader_refuses_a_malformed_array(read, cov):
    with pytest.raises(MalformedInputError):
        read(cov)


@pytest.mark.parametrize("read", [
    lambda modes: SymplecticGate(np.eye(4), np.zeros(4), modes, 2),
    lambda modes: reduced_state(vacuum_state(2), modes),
    lambda modes: partial_transpose_cov(np.eye(4), modes),
    lambda modes: Bipartition(modes[:1], modes[1:]),
], ids=["SymplecticGate", "reduced_state", "partial_transpose_cov", "Bipartition"])
@pytest.mark.parametrize("modes", [[0, 1.0], [0, True], [1, 1], [0, 2], [0, -1]],
                         ids=["float", "bool", "repeated", "out-of-range", "negative"])
def test_every_mode_reader_refuses_a_bad_selection(read, modes):
    read([0, 1])  # the good selection of both modes passes
    with pytest.raises(ValueError, match=r"^modes \(.*\) must be distinct integers in range for 2 modes$"):
        read(modes)


@pytest.mark.parametrize("read", [
    lambda mode: thermal_prepare(0.5, mode, vacuum_state(2)),
    lambda mode: rotation_gate(0.3, mode, 2),
], ids=["thermal_prepare", "rotation_gate"])
@pytest.mark.parametrize("mode", [1.0, True, 2, -1], ids=["float", "bool", "out-of-range", "negative"])
def test_every_single_mode_reader_refuses_a_bad_mode(read, mode):
    read(1)
    with pytest.raises(ValueError, match=r"^modes \(.*\) must be distinct integers in range for 2 modes$"):
        read(mode)
