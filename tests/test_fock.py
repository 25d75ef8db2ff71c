import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from cvsim import (
    MalformedInputError,
    TwoModeFockState,
    bs_output,
    bs_output_from_angle,
    photon_number_distribution,
)
from cvsim.fock import MAX_TOTAL_PHOTONS, NORM_TOL, _sector_basis

BAL = 1.0 / np.sqrt(2.0)
#: every input pair inside the photon cap
ALL_PAIRS = [(n1, total - n1) for total in range(MAX_TOTAL_PHOTONS + 1) for n1 in range(total + 1)]


def oracle_amplitudes(n1, n2, T, R, phi):
    """Independent reference: exponentiate the quadratic mode-mixing
    generator on the truncated two-mode Fock space (photon conserving, so
    the truncation at n1+n2 is exact)."""
    cut = n1 + n2 + 1
    a = np.diag(np.sqrt(np.arange(1, cut)), k=1)
    eye = np.eye(cut)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    M = np.array([[T, -R * np.exp(-1j * phi)], [R * np.exp(1j * phi), T]])
    K = logm(M.T)
    G = (
        K[0, 0] * a1.conj().T @ a1
        + K[0, 1] * a1.conj().T @ a2
        + K[1, 0] * a2.conj().T @ a1
        + K[1, 1] * a2.conj().T @ a2
    )
    vec = np.zeros(cut * cut, dtype=complex)
    vec[n1 * cut + n2] = 1.0
    out = expm(G) @ vec
    return {
        (k, m): out[k * cut + m]
        for k in range(cut)
        for m in range(cut)
        if abs(out[k * cut + m]) > 1e-13
    }


def test_single_photon_balanced_split():
    st = bs_output(1, 0, BAL, BAL, np.pi)
    assert st.amplitude(0, 1) == pytest.approx(BAL, abs=1e-12)
    assert st.amplitude(1, 0) == pytest.approx(BAL, abs=1e-12)
    assert len(st.amplitudes) == 2


def test_hong_ou_mandel():
    st = bs_output(1, 1, BAL, BAL, np.pi)
    assert abs(st.amplitude(1, 1)) < 1e-12
    # (|2,0> - |0,2>)/sqrt(2) up to a global phase
    a20, a02 = st.amplitude(2, 0), st.amplitude(0, 2)
    assert abs(a20) == pytest.approx(BAL, abs=1e-12)
    assert abs(a02) == pytest.approx(BAL, abs=1e-12)
    assert (a20 / a02).real == pytest.approx(-1.0, abs=1e-12)


def test_split_n_photons_closed_form():
    # |n,0> -> sum_k sqrt(C(n,k)) T^k (-R e^{-i phi})^{n-k} |k, n-k>
    from math import comb

    n, T, phi = 5, 0.6, 1.1
    R = np.sqrt(1 - T * T)
    st = bs_output(n, 0, T, R, phi)
    for k in range(n + 1):
        expected = np.sqrt(comb(n, k)) * T**k * (-R * np.exp(-1j * phi)) ** (n - k)
        assert st.amplitude(k, n - k) == pytest.approx(expected, abs=1e-12)


def test_matches_expm_oracle():
    rng = np.random.default_rng(13)
    cases = [(1, 0, np.pi / 4, np.pi), (1, 1, np.pi / 4, np.pi), (2, 3, 0.7, -0.9)]
    for _ in range(5):
        cases.append(
            (
                int(rng.integers(0, 6)),
                int(rng.integers(0, 6)),
                float(rng.uniform(0.05, np.pi / 2 - 0.05)),
                float(rng.uniform(-np.pi, np.pi)),
            )
        )
    for n1, n2, theta, phi in cases:
        T, R = np.cos(theta), np.sin(theta)
        mine = bs_output(n1, n2, T, R, phi).amplitudes
        ref = oracle_amplitudes(n1, n2, T, R, phi)
        keys = set(mine) | set(ref)
        worst = max(abs(mine.get(k, 0) - ref.get(k, 0)) for k in keys)
        assert worst < 1e-11


def test_normalization_random_parameters():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n1 = int(rng.integers(0, 11))
        n2 = int(rng.integers(0, 11))
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(-np.pi, np.pi)
        st = bs_output_from_angle(n1, n2, theta, phi)
        norm = sum(abs(a) ** 2 for a in st.amplitudes.values())
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_photon_number_conservation():
    st = bs_output(4, 3, 0.8, 0.6, 0.5)
    for (k, m) in st.amplitudes:
        assert k + m == 7


def test_exchange_symmetry_even_input():
    # |n,n> on a balanced splitter has no amplitude on any |odd,odd> ket
    for n in (1, 2, 3):
        for phi in (0.0, np.pi, 0.7):
            st = bs_output(n, n, BAL, BAL, phi)
            for (k, m), amp in st.amplitudes.items():
                if k % 2 == 1 and m % 2 == 1:
                    assert abs(amp) < 1e-12


def test_full_transmission_is_identity():
    st = bs_output(3, 2, 1.0, 0.0, 0.4)
    assert set(st.amplitudes) == {(3, 2)}
    assert st.amplitude(3, 2) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_in_vacuum_out():
    st = bs_output(0, 0, BAL, BAL, 0.2)
    assert set(st.amplitudes) == {(0, 0)}
    dist = photon_number_distribution(st, 0)
    assert np.allclose(dist, [1.0])


def test_marginals():
    st = bs_output(1, 0, BAL, BAL, np.pi)
    assert np.allclose(photon_number_distribution(st, 0), [0.5, 0.5])
    hom = bs_output(1, 1, BAL, BAL, np.pi)
    for arm in (0, 1):
        assert np.allclose(photon_number_distribution(hom, arm), [0.5, 0.0, 0.5])
    assert photon_number_distribution(st, 1).sum() == pytest.approx(1.0, abs=1e-12)


def test_large_input_stays_finite():
    # the 1e-12 norm contract holds at the photon cap too
    st = bs_output(20, 20, BAL, BAL, 0.3)
    norm = sum(abs(a) ** 2 for a in st.amplitudes.values())
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert all(np.isfinite([a.real, a.imag]).all() for a in st.amplitudes.values())


def test_rejects_nonunitary_pair():
    with pytest.raises(ValueError):
        bs_output(1, 0, 0.9, 0.9, 0.0)


@pytest.mark.parametrize("T, R, phi", [
    (math.nan, BAL, 0.0), (BAL, math.nan, 0.0), (BAL, BAL, math.nan),
    (math.inf, 0.0, 0.0), (BAL, BAL, math.inf), (BAL, BAL, -math.inf),
])
def test_rejects_non_finite_parameters(T, R, phi):
    with pytest.raises(ValueError, match="finite"):
        bs_output(2, 1, T, R, phi)


@pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (math.inf, 0.0), (0.3, math.nan)])
def test_angle_wrapper_rejects_non_finite(theta, phi):
    with pytest.raises(ValueError):
        bs_output_from_angle(2, 1, theta, phi)


def test_rejects_photon_cap():
    with pytest.raises(ValueError):
        bs_output(30, 20, BAL, BAL, 0.0)


def test_rejects_negative_photons():
    with pytest.raises(ValueError):
        bs_output(-1, 0, BAL, BAL, 0.0)


def test_photon_number_distribution_rejects_a_third_arm():
    with pytest.raises(ValueError, match="arm must be 0 or 1"):
        photon_number_distribution(bs_output(1, 0, BAL, BAL, 0.0), 2)


def test_state_validation():
    with pytest.raises(MalformedInputError):
        TwoModeFockState(amplitudes={(0, 0): 0.5}, total_photons=0)
    with pytest.raises(MalformedInputError):
        TwoModeFockState(amplitudes={(1, 0): 1.0}, total_photons=3)
    with pytest.raises(MalformedInputError):
        TwoModeFockState(amplitudes={(1, 0): complex(math.nan, 0.0)}, total_photons=1)


def mpmath_amplitudes(n1, n2, theta, phi, dps=50):
    """The binomial double sum of (T a1+ - R e^{-i phi} a2+)^n1
    (R e^{i phi} a1+ + T a2+)^n2 |0> / sqrt(n1! n2!), at ``dps`` digits;
    entry k is the amplitude on |k, n1+n2-k>."""
    with mpmath.workdps(dps):
        T, R = mpmath.cos(theta), mpmath.sin(theta)
        total = n1 + n2
        norm = mpmath.factorial(n1) * mpmath.factorial(n2)
        out = [mpmath.mpc(0)] * (total + 1)
        for k1 in range(n1 + 1):
            for k2 in range(n2 + 1):
                k = k1 + k2
                term = (mpmath.binomial(n1, k1) * mpmath.binomial(n2, k2)
                        * mpmath.sqrt(mpmath.factorial(k) * mpmath.factorial(total - k) / norm)
                        * T ** (k1 + n2 - k2) * R ** (n1 - k1 + k2)
                        * mpmath.expj(phi * (k - n1)))
                out[k] += -term if (n1 - k1) % 2 else term
        return [complex(a) for a in out]


# mid-sector inputs near the cap, where the double sum cancels most, both
# one-arm inputs at the cap, and the short-commands benchmark's seed-42 angle
@pytest.mark.parametrize("n1, n2, theta, phi", [
    (1, 1, math.pi / 4, math.pi),
    (3, 2, 0.7, -0.9),
    (15, 16, 0.8853981633974483, 0.3),
    (16, 24, 0.885, 0.3),
    (17, 23, math.pi / 4, math.pi),
    (20, 20, math.pi / 4, math.pi),
    (20, 20, 0.8675849779642373, -0.38403808930179695),
    (40, 0, 0.885, 0.3),
    (0, 40, 0.885, 0.3),
    (7, 33, 1.5, 2.5),
])
def test_matches_50_digit_reference(n1, n2, theta, phi):
    st = bs_output_from_angle(n1, n2, theta, phi)
    ref = mpmath_amplitudes(n1, n2, theta, phi)
    worst = max(abs(st.amplitude(k, n1 + n2 - k) - a) for k, a in enumerate(ref))
    assert worst <= 1e-13


ANGLES = st.floats(0.0, math.pi / 2)
PHASES = st.floats(-math.pi, math.pi)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(ANGLES, PHASES)
@example(math.pi / 4, 0.0)
@example(math.pi / 4, math.pi)
@example(math.pi / 4, 0.3)
@example(0.3, 0.0)
@example(0.3, math.pi)
@example(0.3, 0.3)
@example(1.1, 0.0)
@example(1.1, math.pi)
@example(1.1, 0.3)
@example(0.885, 0.0)
@example(0.885, math.pi)
@example(0.885, 0.3)
@example(0.0, -math.pi)
@example(math.pi / 2, math.pi)
def test_every_sector_is_normalized(theta, phi):
    for n1, n2 in ALL_PAIRS:
        total = n1 + n2
        st = bs_output_from_angle(n1, n2, theta, phi)
        assert all(k + m == total and k >= 0 and m >= 0 for k, m in st.amplitudes)
        norm = math.fsum(abs(a) ** 2 for a in st.amplitudes.values())
        assert abs(norm - 1.0) <= NORM_TOL, (n1, n2, norm)
        for arm in (0, 1):
            marginal = photon_number_distribution(st, arm)
            assert marginal.size == total + 1
            assert abs(math.fsum(marginal) - 1.0) <= NORM_TOL
    # two-photon interference: the |1,1> amplitude is T^2 - R^2 = cos(2 theta),
    # which is the Hong-Ou-Mandel zero at theta = pi/4
    hom = bs_output_from_angle(1, 1, theta, phi).amplitude(1, 1)
    assert abs(hom - math.cos(2 * theta)) <= 1e-15


@pytest.mark.parametrize("theta, phi_gate", [(0.6, 0.9), (math.pi / 4, math.pi), (1.3, -2.2)])
def test_phase_convention_of_the_network_beamsplitter(theta, phi_gate):
    # the network's beamsplitter gate is exp(theta (e^{i phi_gate} a b+ - e^{-i phi_gate} a+ b));
    # bs_output's phi is pi - phi_gate.  Each mode is cut at 12 photons, which
    # is exact for every input with n1 + n2 <= 12: the generator conserves n1 + n2
    cut = 13
    a = np.diag(np.sqrt(np.arange(1, cut)), k=1)
    A, B = np.kron(a, np.eye(cut)), np.kron(np.eye(cut), a)
    U = expm(theta * (np.exp(1j * phi_gate) * A @ B.conj().T
                      - np.exp(-1j * phi_gate) * A.conj().T @ B))
    for n1, n2 in ALL_PAIRS:
        total = n1 + n2
        if total > 12:
            break
        st = bs_output_from_angle(n1, n2, theta, math.pi - phi_gate)
        column = U[:, n1 * cut + n2]
        worst = max(abs(st.amplitude(k, total - k) - column[k * cut + total - k])
                    for k in range(total + 1))
        assert worst <= 1e-13, (n1, n2, worst)


@pytest.mark.parametrize("theta, phi", [(math.pi / 4, math.pi), (0.885, 0.3), (1.3, -2.2)])
def test_cold_and_warm_sector_basis_give_the_same_state(theta, phi):
    for n1, n2 in ALL_PAIRS:
        _sector_basis.cache_clear()
        cold = bs_output_from_angle(n1, n2, theta, phi).amplitudes
        warm = bs_output_from_angle(n1, n2, theta, phi).amplitudes
        assert list(cold.items()) == list(warm.items()), (n1, n2)


def test_sector_basis_is_read_only_and_bounded():
    _sector_basis.cache_clear()
    for n1, n2 in ALL_PAIRS:
        bs_output_from_angle(n1, n2, 0.885, 0.3)
    info = _sector_basis.cache_info()
    assert info.currsize == MAX_TOTAL_PHOTONS + 1
    bases = [_sector_basis(total) for total in range(MAX_TOTAL_PHOTONS + 1)]
    assert _sector_basis.cache_info().misses == info.misses  # every sector is still cached
    assert sum(V.nbytes for V in bases) < 256 * 1024
    for V in bases:
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0] = 0.0
