"""Fock-basis beam-splitter interference for two-mode photon-number inputs.

The splitter maps a1+ -> T a1+ - R e^{-i phi} a2+, a2+ -> R e^{i phi} a1+ + T a2+
and conserves photon number; the n1+n2 = N sector carries the spin-N/2
representation of SU(2) (Campos, Saleh & Teich, PRA 40, 1371 (1989)).  On
|k, N-k> it acts as e^{i phi k} exp(theta G) e^{-i phi k}, theta = atan2(R, T),
G = diag(s, -1) - diag(s, 1), s_k = sqrt((k+1)(N-k)).  With D = diag(i^k),
D G D^-1 = iS for the real symmetric tridiagonal S = 2 J_x of off-diagonal s,
whose spectrum is exactly -N, -N+2, ..., N, so with S = V diag(w) V^T

    <k, N-k| U |n1, n2> = i^(n1-k) e^{i phi (k-n1)} sum_l V[k,l] e^{i theta w_l} V[n1,l],

within a few 1e-15 of a 50-digit evaluation of the binomial double sum through
the photon cap; one norm tolerance of 1e-12 holds in every sector.  V depends
on N alone, so it is computed once per sector per process.

Phase convention: ``bs_output(n1, n2, cos t, sin t, phi)`` is the network's
``beamsplitter`` gate (theta = t, phi_gate), that is
exp(t (e^{i phi_gate} a1 a2+ - e^{-i phi_gate} a1+ a2)), acting on |n1, n2>,
at phi = pi - phi_gate (mod 2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import atan2, cos, isfinite, sin

import numpy as np

from .errors import MalformedInputError

#: photon-number cap (keeps the test sweeps over every sector sane)
MAX_TOTAL_PHOTONS = 40
#: amplitudes below this magnitude are dropped
PRUNE_TOL = 1e-15
#: largest |sum |c|^2 - 1| a state may have, in every sector
NORM_TOL = 1e-12

_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass(frozen=True)
class TwoModeFockState:
    """Sparse two-mode pure state within one photon-number sector.

    Attributes:
        amplitudes: map (k, m) -> complex amplitude on |k, m>; a state from
            ``bs_output`` lists its kets in ascending k.
        total_photons: common k + m of every basis ket.
        probabilities: |c|^2 of each amplitude, in the order of ``amplitudes``.
    """

    amplitudes: dict[tuple[int, int], complex]
    total_photons: int
    probabilities: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norm = 0
        probabilities = []
        for (k, m), amp in self.amplitudes.items():
            if k < 0 or m < 0 or k + m != self.total_photons:
                raise MalformedInputError(
                    f"ket |{k},{m}> is outside the {self.total_photons}-photon sector"
                )
            p = abs(amp) ** 2
            probabilities.append(p)
            norm += p
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise MalformedInputError(f"state is not normalized: sum |c|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", dict(self.amplitudes))
        object.__setattr__(self, "probabilities", tuple(probabilities))

    def amplitude(self, k: int, m: int) -> complex:
        return self.amplitudes.get((k, m), 0.0 + 0.0j)


@lru_cache(maxsize=MAX_TOTAL_PHOTONS + 1)
def _sector_basis(total: int) -> np.ndarray:
    """The eigenvectors V of S = 2 J_x in the ``total``-photon sector, read-only.

    S depends on the sector alone, so one ``eigh`` per sector serves every
    input and angle in it; the cache holds at most one matrix per sector.
    """
    j = np.arange(1, total + 1)
    s = np.sqrt(j * (total + 1.0 - j))
    V = np.linalg.eigh(np.diag(s, -1) + np.diag(s, 1))[1]
    V.flags.writeable = False
    return V


def bs_output(n1: int, n2: int, T: float, R: float, phi: float) -> TwoModeFockState:
    """Beam-splitter output state for the Fock input |n1, n2>.

    Args:
        n1, n2: input photon numbers (n1 + n2 <= 40).
        T, R: finite real transmission and reflection amplitudes, T^2 + R^2 = 1.
        phi: finite relative phase between the reflected paths.

    Returns:
        The normalized output state in the n1+n2 photon sector, in ascending
        k and without the amplitudes below ``PRUNE_TOL``.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("photon numbers must be non-negative")
    total = n1 + n2
    if total > MAX_TOTAL_PHOTONS:
        raise ValueError(f"n1 + n2 = {total} exceeds the cap of {MAX_TOTAL_PHOTONS}")
    if not (isfinite(T) and isfinite(R) and isfinite(phi)):
        raise ValueError(f"T, R and phi must be finite, got {T!r}, {R!r}, {phi!r}")
    if abs(T * T + R * R - 1.0) > 1e-12:
        raise ValueError(f"(T, R) is not unitary: T^2 + R^2 = {T * T + R * R!r}")

    k = np.arange(total + 1)
    V = _sector_basis(total)
    w = np.arange(-total, total + 1, 2.0)  # the exact spectrum of S, sorted as eigh sorts
    column = V @ (np.exp(1j * atan2(R, T) * w) * V[n1])
    column *= _I_POWERS[(n1 - k) % 4] * np.exp(1j * phi * (k - n1))
    # hypot, as abs of a Python complex computes it; np.abs of a complex array
    # differs from it in the last bit for about a third of the values
    kept = np.hypot(column.real, column.imag) >= PRUNE_TOL
    k = k[kept]
    amplitudes = dict(zip(zip(k.tolist(), (total - k).tolist()), column[kept].tolist()))
    return TwoModeFockState(amplitudes=amplitudes, total_photons=total)


def bs_output_from_angle(n1: int, n2: int, theta: float, phi: float) -> TwoModeFockState:
    """Convenience wrapper with T = cos(theta), R = sin(theta)."""
    return bs_output(n1, n2, cos(theta), sin(theta), phi)


def photon_number_distribution(state: TwoModeFockState, arm: int) -> np.ndarray:
    """Marginal photon-number probabilities of one output arm.

    Returns a vector of length total_photons + 1 summing to 1.
    """
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    probs = np.zeros(state.total_photons + 1)
    for (k, m), p in zip(state.amplitudes, state.probabilities):
        probs[k if arm == 0 else m] += p
    return probs
