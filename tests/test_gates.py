import warnings

import numpy as np
import pytest

from cvsim import (
    GaussianState,
    MalformedInputError,
    SymplecticGate,
    apply_gate,
    beamsplitter_gate,
    check_physicality,
    displacement_gate,
    purity,
    rotation_gate,
    squeeze_gate,
    symplectic_form,
    thermal_prepare,
    vacuum_state,
)
from cvsim.gates import SYMPLECTIC_TOL

E_MINUS = np.exp(-1.0)
E_PLUS = np.exp(1.0)


def _sympl_defect(gate):
    omega = symplectic_form(gate.num_modes)
    return np.linalg.norm(gate.matrix @ omega @ gate.matrix.T - omega)


NOT_SYMPLECTIC = r"^matrix is not symplectic \(\|\|S Omega S\^T - Omega\|\|_F = "


def test_gate_constructor_rejects_nonsymplectic():
    # the last is singular, its defect sqrt(2) far above its rounding
    for block in (2.0 * np.eye(2), np.array([[3.0, 1.0], [1.0, 2.0]]), np.full((2, 2), 1e6)):
        with pytest.raises(MalformedInputError, match=NOT_SYMPLECTIC):
            SymplecticGate(block, np.zeros(2), (0,), 1)


@pytest.mark.parametrize("r", [8.0, 10.0, 15.0])
def test_strong_squeezer_passes_the_check_at_its_rounding(r):
    gate = squeeze_gate(r, 0.7, 0, 1)
    rounding = 64.0 * np.finfo(float).eps * np.sum(gate.block**2)
    # rounding alone breaks the absolute bound at these r
    assert SYMPLECTIC_TOL < _sympl_defect(gate) <= rounding
    expected = np.exp(2.0 * r) * np.sin(0.35) ** 2 + np.exp(-2.0 * r) * np.cos(0.35) ** 2
    assert apply_gate(gate, vacuum_state(1)).cov[0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("r", [0.0, 1.0, 8.0, 15.0])
def test_block_perturbed_by_1e_8_of_its_norm_fails(r):
    block = squeeze_gate(r, 0.7, 0, 1).block
    perturbed = block + 1e-8 * np.linalg.norm(block) * np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(MalformedInputError, match=NOT_SYMPLECTIC):
        SymplecticGate(perturbed, np.zeros(2), (0,), 1)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: displacement_gate(1.0, 0.0, 2, 2), ValueError),
        (lambda: squeeze_gate(0.5, 0.0, -1, 2), ValueError),
        (lambda: rotation_gate(0.3, 3, 3), ValueError),
        (lambda: beamsplitter_gate(np.pi / 4, 0.0, (0, 2), 2), ValueError),
        (lambda: beamsplitter_gate(np.pi / 4, 0.0, (1, 1), 2), ValueError),
        (lambda: SymplecticGate(np.eye(4), np.zeros(4), (0,), 2), MalformedInputError),
        (lambda: SymplecticGate(np.eye(2), np.zeros(4), (0,), 2), MalformedInputError),
        (lambda: rotation_gate(0.3, 1.0, 2), ValueError),
        (lambda: squeeze_gate(800.0, 0.0, 0, 1), MalformedInputError),
        (lambda: displacement_gate(1e308, 0.3, 0, 1), MalformedInputError),
    ],
    ids=["displace-mode", "squeeze-mode", "rotate-mode", "bs-mode", "bs-repeated-mode",
         "block-shape", "shift-shape", "float-mode", "nan-block", "inf-shift"],
)
def test_gate_rejects_bad_modes_and_shapes(build, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is rejected, not warned about
        with pytest.raises(error):
            build()


def test_all_builders_are_symplectic():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        mode = int(rng.integers(0, n))
        gates = [
            displacement_gate(rng.uniform(0, 3), rng.uniform(-np.pi, np.pi), mode, n),
            squeeze_gate(rng.uniform(0, 2), rng.uniform(-np.pi, np.pi), mode, n),
            rotation_gate(rng.uniform(-np.pi, np.pi), mode, n),
        ]
        if n >= 2:
            other = int((mode + 1 + rng.integers(0, n - 1)) % n)
            if other != mode:
                gates.append(
                    beamsplitter_gate(
                        rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), (mode, other), n
                    )
                )
        for g in gates:
            assert _sympl_defect(g) < 1e-10


def test_coherent_state_mean():
    st = apply_gate(displacement_gate(1.6, 0.0, 0, 1), vacuum_state(1))
    assert np.allclose(st.mean, [3.2, 0.0], atol=1e-12)
    assert np.allclose(st.cov, np.eye(2), atol=1e-12)


def test_zero_displacement_is_identity():
    g = displacement_gate(0.0, 1.3, 0, 2)
    assert np.array_equal(g.matrix, np.eye(4))
    assert np.array_equal(g.displacement, np.zeros(4))


def test_displacement_rejects_negative_magnitude():
    with pytest.raises(ValueError):
        displacement_gate(-0.1, 0.0, 0, 1)


def test_squeezed_vacuum_covariance():
    st = apply_gate(squeeze_gate(0.5, 0.0, 0, 1), vacuum_state(1))
    assert np.allclose(st.cov, np.diag([E_MINUS, E_PLUS]), atol=1e-8)
    assert np.allclose(st.mean, 0.0)


def test_zero_squeeze_is_identity():
    g = squeeze_gate(0.0, 0.7, 0, 1)
    assert np.allclose(g.matrix, np.eye(2), atol=1e-15)


def test_squeeze_rejects_negative_r():
    with pytest.raises(ValueError):
        squeeze_gate(-0.5, 0.0, 0, 1)


def test_displaced_squeezed_state():
    st = vacuum_state(1)
    st = apply_gate(displacement_gate(1.6, np.pi / 4, 0, 1), st)
    st = apply_gate(squeeze_gate(0.5, np.pi / 2, 0, 1), st)
    assert np.allclose(st.mean, [1.37242222, 1.37242222], atol=1e-6)
    expected_cov = np.array(
        [[1.54308063, -1.17520119], [-1.17520119, 1.54308063]]
    )
    assert np.allclose(st.cov, expected_cov, atol=1e-6)


def test_rotation_zero_is_identity():
    assert np.allclose(rotation_gate(0.0, 0, 1).matrix, np.eye(2))


def test_rotation_quarter_turn_swaps_quadratures():
    st = GaussianState(mean=np.zeros(2), cov=np.diag([2.0, 5.0]))
    out = apply_gate(rotation_gate(np.pi / 2, 0, 1), st)
    assert np.allclose(out.cov, np.diag([5.0, 2.0]), atol=1e-12)


def test_rotation_composition_matches_matrix_product():
    g1 = rotation_gate(np.pi / 4, 0, 1)
    g2 = rotation_gate(np.pi / 2, 0, 1)
    assert np.allclose(g1.matrix @ g1.matrix, g2.matrix, atol=1e-14)


def test_beamsplitter_mixes_squeezed_and_vacuum():
    st = vacuum_state(2)
    st = apply_gate(squeeze_gate(0.5, 0.0, 0, 2), st)
    st = apply_gate(beamsplitter_gate(np.pi / 4, 0.0, (0, 1), 2), st)
    expected = np.array(
        [
            [0.68393972, 0.0, -0.31606028, 0.0],
            [0.0, 1.85914091, 0.0, 0.85914091],
            [-0.31606028, 0.0, 0.68393972, 0.0],
            [0.0, 0.85914091, 0.0, 1.85914091],
        ]
    )
    assert np.allclose(st.cov, expected, atol=1e-6)


def test_beamsplitter_zero_angle_is_identity():
    g = beamsplitter_gate(0.0, 0.4, (0, 1), 2)
    assert np.allclose(g.matrix, np.eye(4), atol=1e-15)


def test_beamsplitter_rejects_equal_modes():
    with pytest.raises(ValueError):
        beamsplitter_gate(np.pi / 4, 0.0, (1, 1), 2)


def test_beamsplitter_inverse_composition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        th = rng.uniform(0, np.pi / 2)
        ph = rng.uniform(-np.pi, np.pi)
        fw = beamsplitter_gate(th, ph, (0, 1), 2)
        bw = beamsplitter_gate(-th, ph, (0, 1), 2)
        assert np.allclose(bw.matrix @ fw.matrix, np.eye(4), atol=1e-12)


def test_gates_preserve_physicality_and_purity():
    rng = np.random.default_rng(9)
    st = vacuum_state(3)
    for _ in range(12):
        choice = rng.integers(0, 4)
        mode = int(rng.integers(0, 3))
        if choice == 0:
            g = displacement_gate(rng.uniform(0, 2), rng.uniform(-np.pi, np.pi), mode, 3)
        elif choice == 1:
            g = squeeze_gate(rng.uniform(0, 1.2), rng.uniform(-np.pi, np.pi), mode, 3)
        elif choice == 2:
            g = rotation_gate(rng.uniform(-np.pi, np.pi), mode, 3)
        else:
            other = int((mode + 1) % 3)
            g = beamsplitter_gate(
                rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), (mode, other), 3
            )
        st = apply_gate(g, st)
        assert np.array_equal(st.cov, st.cov.T)
        assert check_physicality(st).physical
        assert purity(st) == pytest.approx(1.0, abs=1e-9)


def test_thermal_prepare_block():
    st = thermal_prepare(1.0, 0, vacuum_state(2))
    assert np.allclose(st.cov[:2, :2], 3.0 * np.eye(2))
    assert np.allclose(st.cov[2:, 2:], np.eye(2))


def test_thermal_prepare_zero_nbar_is_noop():
    st = thermal_prepare(0.0, 0, vacuum_state(1))
    assert np.allclose(st.cov, np.eye(2))


def test_thermal_prepare_symplectic_eigenvalue():
    from cvsim import symplectic_eigenvalues

    st = thermal_prepare(3.0, 0, vacuum_state(1))
    assert np.allclose(symplectic_eigenvalues(st.cov), [7.0])


def test_thermal_prepare_rejects_negative_nbar():
    with pytest.raises(ValueError):
        thermal_prepare(-0.5, 0, vacuum_state(1))


def test_thermal_prepare_rejects_nonvacuum_target():
    st = apply_gate(squeeze_gate(0.5, 0.0, 0, 1), vacuum_state(1))
    with pytest.raises(ValueError):
        thermal_prepare(1.0, 0, st)


def test_thermal_prepare_tests_the_vacuum_in_vacuum_units():
    # at hbar = 1e-12 a squeezed mode's entries are ~1e-12, within an
    # absolute 1e-10 of the vacuum's, and were overwritten
    squeezed = apply_gate(squeeze_gate(1.0, 0.0, 0, 1), vacuum_state(1, 1e-12))
    with pytest.raises(ValueError, match="mode 0 is not in the vacuum state"):
        thermal_prepare(0.5, 0, squeezed)
    # at hbar = 1e8 the rounding of gates on vacuum modes is ~1e-8, which an
    # absolute 1e-10 refused
    state = apply_gate(beamsplitter_gate(0.3, 0.7, (0, 1), 2), vacuum_state(2, 1e8))
    state = apply_gate(rotation_gate(0.3, 0, 2), state)
    thermal = thermal_prepare(0.5, 0, state)
    assert np.array_equal(thermal.cov[:2, :2], 1e8 * np.eye(2))


@pytest.mark.parametrize("hbar", [2.0, 0.5])
def test_thermal_prepare_whose_variance_overflows_is_refused_without_a_warning(hbar):
    # 2 n_bar + 1 overflows to inf; a diagonal of inf times the identity put
    # inf * 0 = NaN in the cross entries, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedInputError, match="mean and cov must be finite"):
            thermal_prepare(1e308, 0, vacuum_state(1, hbar))


def test_apply_gate_requires_matching_size():
    with pytest.raises(MalformedInputError):
        apply_gate(rotation_gate(0.3, 0, 2), vacuum_state(1))
