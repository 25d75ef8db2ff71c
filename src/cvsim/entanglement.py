"""Reduced states, covariance partial transposition, the Simon separability
criterion and logarithmic negativity.

Partial transposition of one subsystem acts in phase space as a mirror
reflection, x -> x and p -> -p on the transposed modes; on the covariance
matrix this is a congruence with a diagonal sign matrix.  For two-mode
Gaussian states positivity of the partial transpose is necessary and
sufficient for separability, so the Simon verdict and log-negativity > 0
always agree there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import (
    PHYSICALITY_TOL,
    GaussianState,
    _checked_cov,
    _checked_modes,
    _resolved_cholesky,
    _uncertainty_matrix,
    check_physicality,
    symplectic_eigenvalues,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"

#: default tolerance on the Simon margin
VERDICT_TOL = 1e-10

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def reduced_state(state: GaussianState, modes: Sequence[int]) -> GaussianState:
    """Trace out every mode not in ``modes``.

    The kept modes appear in the order given; mean and covariance are simply
    restricted to the corresponding interleaved rows and columns.

    Raises:
        ValueError: ``modes`` is empty, or not distinct integers in range.
    """
    modes = _checked_modes(modes, state.num_modes)
    if not modes:
        raise ValueError("mode selection must not be empty")
    if modes == tuple(range(state.num_modes)):
        return state  # immutable, so the state itself is its own reduction
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
    return GaussianState(
        mean=state.mean[idx],
        cov=state.cov[np.ix_(idx, idx)],
        hbar=state.hbar,
    )


def partial_transpose_cov(cov: np.ndarray, part_b: Sequence[int]) -> np.ndarray:
    """Flip the sign of the momentum rows/columns of every mode in part_b.

    Involutive: applying twice returns the original matrix exactly.

    Raises:
        MalformedInputError: cov is not a finite, symmetric 2N x 2N matrix.
        ValueError: part_b is not distinct integers in range.
    """
    cov = _checked_cov(cov)
    signs = np.ones(cov.shape[0])
    signs[[2 * m + 1 for m in _checked_modes(part_b, cov.shape[0] // 2)]] = -1.0
    return cov * np.outer(signs, signs)


@dataclass(frozen=True, init=False)
class Bipartition:
    """A split of the modes 0..n-1 of an n-mode state into two non-empty
    blocks, each sorted; ValueError for any other pair of blocks."""

    part_a: tuple[int, ...]
    part_b: tuple[int, ...]

    def __init__(self, part_a: Sequence[int], part_b: Sequence[int]):
        a, b = tuple(part_a), tuple(part_b)
        if not a or not b:
            raise ValueError("both parts of a bipartition must be non-empty")
        modes = _checked_modes(a + b, len(a) + len(b))
        object.__setattr__(self, "part_a", tuple(sorted(modes[:len(a)])))
        object.__setattr__(self, "part_b", tuple(sorted(modes[len(a):])))

    def modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.part_a + self.part_b))


@dataclass(frozen=True)
class SimonReport:
    """Both sides of the Simon inequality and the resulting verdict."""

    lhs: float
    rhs: float
    verdict: str
    margin: float


def simon_criterion(state: GaussianState, tol: float = VERDICT_TOL) -> SimonReport:
    """Simon separability test for a two-mode Gaussian state.

    With the covariance in blocks [[A, C], [C.T, B]] the state is separable
    only if

        det A det B + (hbar^2/4 - |det C|)^2 - Tr(A J C J B J C^T J)
            >= hbar^2/4 (det A + det B),

    with J = [[0, 1], [-1, 0]].  Violation certifies entanglement, and for
    two-mode Gaussian states the test is also sufficient.

    Raises:
        DegenerateInputError: if cov is not positive definite or rounding in
            its entries does not resolve it (see ``states._resolved_cholesky``).
    """
    if state.num_modes != 2:
        raise ValueError(
            f"the Simon criterion applies to two-mode states, got {state.num_modes}"
        )
    _resolved_cholesky(state.cov)
    cov = state.cov
    A = cov[0:2, 0:2]
    C = cov[0:2, 2:4]
    B = cov[2:4, 2:4]
    h2_4 = state.hbar**2 / 4.0
    lhs = float(
        np.linalg.det(A) * np.linalg.det(B)
        + (h2_4 - abs(np.linalg.det(C))) ** 2
        - np.trace(A @ _J @ C @ _J @ B @ _J @ C.T @ _J)
    )
    rhs = float(h2_4 * (np.linalg.det(A) + np.linalg.det(B)))
    margin = lhs - rhs
    verdict = SEPARABLE if margin >= -tol else ENTANGLED
    return SimonReport(lhs=lhs, rhs=rhs, verdict=verdict, margin=margin)


def ptranspose_symplectic_spectrum(
    state: GaussianState, bipartition: Bipartition
) -> np.ndarray:
    """Symplectic eigenvalues of the partially transposed covariance,
    normalized by hbar/2 so the vacuum gives 1."""
    if bipartition.modes() != tuple(range(state.num_modes)):
        raise ValueError(
            "bipartition must cover exactly the state's modes "
            f"(state has modes 0..{state.num_modes - 1}, got {bipartition.modes()})"
        )
    cov_pt = partial_transpose_cov(state.cov, bipartition.part_b)
    return symplectic_eigenvalues(cov_pt) / (state.hbar / 2.0)


def _robertson_schrodinger_holds(cov: np.ndarray, hbar: float, tol: float) -> bool:
    """Whether the Hermitian cov + i(hbar/2)Omega + tol*I is positive definite,
    by a Cholesky factorisation of it built as one complex array."""
    herm = _uncertainty_matrix(cov, hbar)
    herm.flat[:: cov.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return False
    return True


def log_negativity(state: GaussianState, bipartition: Bipartition) -> float:
    """Logarithmic negativity E_N = sum_j max(0, -log2(nu_j)).

    nu_j are the symplectic eigenvalues of the partially transposed
    covariance matrix in vacuum units.  E_N = 0 for all separable Gaussian
    states; E_N > 0 certifies entanglement across the bipartition.

    Raises:
        ValueError: if the input state itself is unphysical.
    """
    return _log_negativity_and_spectrum(state, bipartition)[0]


def _log_negativity_and_spectrum(
    state: GaussianState, bipartition: Bipartition
) -> tuple[float, np.ndarray]:
    """E_N together with the spectrum nu_j it was computed from.

    The state is physical when cov + i(hbar/2)Omega >= -PHYSICALITY_TOL,
    which holds, up to rounding, exactly when cov + i(hbar/2)Omega +
    PHYSICALITY_TOL*I has a Cholesky factorisation; only a failed
    factorisation pays for the eigenvalues that ``check_physicality``
    computes to give the margin.
    """
    if not _robertson_schrodinger_holds(state.cov, state.hbar, PHYSICALITY_TOL):
        report = check_physicality(state)
        if not report.physical:
            raise ValueError(
                f"input state is unphysical (uncertainty margin {report.margin:.3e})"
            )
    nu = ptranspose_symplectic_spectrum(state, bipartition)
    return float(np.sum(np.maximum(0.0, -np.log2(nu)))), nu
