"""Gaussian states as mean vectors plus covariance matrices.

A state of N modes is described by the expectation values of the 2N quadrature
operators and their symmetrized covariance matrix sigma_kl =
(<{r_k, r_l}> - 2<r_k><r_l>)/2.  Every state is in the interleaved ordering,
r = (x1, p1, ..., xN, pN).  The block ordering (x1..xN, p1..pN), which
Strawberry Fields prints, is one index permutation away
(xp_to_interleaved_permutation).

With hbar = 2 (the default, matching the Strawberry Fields convention) the
vacuum covariance matrix is the identity.  The public API takes and returns
hbar units; the numerics run in these vacuum units, on the state that
``_vacuum_units`` returns, so that every threshold is a plain number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, MalformedInputError

#: tolerance for |cov - cov.T| at construction
SYMMETRY_TOL = 1e-10
#: tolerance for the Robertson-Schrodinger physicality margin, in vacuum
#: units: a state may fall PHYSICALITY_TOL below the bound
PHYSICALITY_TOL = 1e-9
#: smallest Cholesky pivot, relative to its variance, that rounding in a
#: covariance's entries resolves to about 1%
RESOLUTION_TOL = 200.0 * np.finfo(float).eps


def symplectic_form(num_modes: int) -> np.ndarray:
    """Symplectic form Omega in interleaved ordering.

    Block diagonal of [[0, 1], [-1, 0]]; satisfies Omega.T = -Omega and
    Omega @ Omega = -I.
    """
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    n = 2 * num_modes
    omega = np.zeros((n, n))
    omega.flat[1 :: 2 * n + 2] = 1.0  # Omega[2k, 2k + 1]
    omega.flat[n :: 2 * n + 2] = -1.0  # Omega[2k + 1, 2k]
    return omega


def xp_to_interleaved_permutation(num_modes: int) -> np.ndarray:
    """Index permutation mapping an xp-block vector onto an interleaved one.

    ``interleaved_vec = xp_vec[perm]`` where perm[2k] = k and
    perm[2k+1] = N + k; ``xp_vec = interleaved_vec[np.argsort(perm)]``, and a
    covariance permutes as ``cov[np.ix_(perm, perm)]``.
    """
    perm = np.empty(2 * num_modes, dtype=int)
    perm[0::2] = np.arange(num_modes)
    perm[1::2] = num_modes + np.arange(num_modes)
    return perm


def _checked_modes(modes, num_modes: int) -> tuple[int, ...]:
    """``modes`` as a tuple of ints; ValueError unless they are distinct
    integers, not bools, in ``range(num_modes)``."""
    modes = tuple(modes)
    if (not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                and 0 <= m < num_modes for m in modes)
            or len(set(modes)) != len(modes)):
        raise ValueError(f"modes {modes} must be distinct integers in range for {num_modes} modes")
    return tuple(int(m) for m in modes)


def _checked_cov(cov) -> np.ndarray:
    """``cov`` as a float array; MalformedInputError unless it is a finite
    2N x 2N matrix, N >= 1, symmetric to within ``SYMMETRY_TOL``."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 or not cov.size:
        raise MalformedInputError(f"cov must be 2Nx2N, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise MalformedInputError("cov must be finite")
    asym = np.abs(cov - cov.T).max()
    if asym > SYMMETRY_TOL:
        raise MalformedInputError(
            f"cov is not symmetric (max asymmetry {asym:.3e} > {SYMMETRY_TOL})"
        )
    return cov


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable first- and second-moment description of an N-mode state.
    States compare and hash by identity: their arrays have no truth value.

    Attributes:
        mean: quadrature expectation values (x1, p1, ..., xN, pN).
        cov: symmetric 2N x 2N covariance matrix in the same ordering.
        hbar: value of hbar fixing the vacuum noise hbar/2 (default 2).

    Raises:
        MalformedInputError: the shapes do not fit, an entry is not finite or
            cov is not symmetric to within ``SYMMETRY_TOL``.
        ValueError: hbar is not finite and positive.
    """

    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 2.0

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise MalformedInputError(
                f"mean must be a vector of even length 2N, got shape {mean.shape}"
            )
        # one message for either array, the one an overflowing source gives
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise MalformedInputError("mean and cov must be finite")
        cov = _checked_cov(cov)
        if cov.shape != (mean.size, mean.size):
            raise MalformedInputError(
                f"cov must be {mean.size}x{mean.size}, got shape {cov.shape}"
            )
        if not (isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(cov))

    @property
    def num_modes(self) -> int:
        return self.mean.size // 2


def vacuum_state(num_modes: int, hbar: float = 2.0) -> GaussianState:
    """N-mode vacuum: zero mean, cov = (hbar/2) * I."""
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    return GaussianState(
        mean=np.zeros(2 * num_modes),
        cov=(hbar / 2.0) * np.eye(2 * num_modes),
        hbar=hbar,
    )


def _vacuum_units(state: GaussianState) -> GaussianState:
    """The state in vacuum units, at hbar = 2: mean / sqrt(hbar/2) and
    cov / (hbar/2).  A state at hbar = 2 is returned as it is; one whose
    entries overflow in vacuum units raises MalformedInputError."""
    if state.hbar == 2.0:
        return state
    half = state.hbar / 2.0
    with np.errstate(over="ignore"):
        return GaussianState(state.mean / np.sqrt(half), state.cov / half)


class PhysicalityReport(NamedTuple):
    physical: bool
    margin: float


def _uncertainty_matrix(cov: np.ndarray) -> np.ndarray:
    """A new complex array cov + i Omega, built without a dense Omega: the
    Robertson-Schrodinger matrix of a covariance in vacuum units."""
    n = cov.shape[0]
    herm = cov.astype(complex)
    herm.imag.flat[1 :: 2 * n + 2] = 1.0  # Omega[2k, 2k + 1]
    herm.imag.flat[n :: 2 * n + 2] = -1.0  # Omega[2k + 1, 2k]
    return herm


def physicality_margin(cov: np.ndarray, hbar: float) -> float:
    """Minimum eigenvalue of the Hermitian matrix cov + i(hbar/2)*Omega.

    The Robertson-Schrodinger uncertainty relation requires this to be >= 0
    for a covariance matrix (interleaved ordering) to describe a quantum state.

    Raises:
        MalformedInputError: cov is not a finite, symmetric 2N x 2N matrix.
    """
    cov = _checked_cov(cov)
    return check_physicality(GaussianState(np.zeros(cov.shape[0]), cov, hbar)).margin


def check_physicality(state: GaussianState) -> PhysicalityReport:
    """Robertson-Schrodinger check in vacuum units: cov + i Omega >=
    -PHYSICALITY_TOL, a tolerance that grows with the rounding of cov's entries.

    Returns:
        PhysicalityReport(physical, margin) where margin is the minimum
        eigenvalue of the Hermitian test matrix, in hbar units (0 for states
        that saturate the bound, e.g. the vacuum).
    """
    margin = float(np.linalg.eigvalsh(_uncertainty_matrix(_vacuum_units(state).cov)).min())
    return PhysicalityReport(physical=margin >= -PHYSICALITY_TOL,
                             margin=margin * (state.hbar / 2.0))


def _resolved_cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor L of cov, once rounding in cov's entries is seen to
    resolve every direction of it.

    Each pivot L_ii^2 is cov_ii less the part of it that the earlier
    quadratures explain, a difference of cov_ii-sized terms, so rounding
    resolves it to about 1% only while L_ii^2 >= ``RESOLUTION_TOL`` cov_ii.
    A squeezer at theta = 0.7 falls below that from r ~ 8.3; at
    angle 0 its covariance is diagonal and every pivot is exact.

    Raises:
        DegenerateInputError: if cov is not positive definite or a pivot is
            not resolved.
    """
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            "cov is not positive definite (Cholesky factorization failed)"
        ) from None
    pivots = np.diagonal(L) ** 2 / np.diagonal(cov)
    if not pivots.min() >= RESOLUTION_TOL:
        raise DegenerateInputError(
            f"cov is too ill-conditioned: a Cholesky pivot is {pivots.min():.1e} of its "
            f"variance, which rounding does not resolve to 1% (needs >= {RESOLUTION_TOL:.1e})"
        )
    return L


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix.

    With cov = L L^T (Cholesky), i*Omega*cov is similar to the Hermitian
    matrix i L^T Omega L, whose eigenvalues come in exact +/- pairs; the
    symplectic eigenvalues are the N positive ones, returned sorted
    ascending.  Pure states have all of them equal to hbar/2.

    Args:
        cov: symmetric positive-definite 2N x 2N matrix, interleaved ordering.

    Raises:
        MalformedInputError: cov is not a finite, symmetric 2N x 2N matrix.
        DegenerateInputError: if cov is not positive definite, or rounding in
            its entries does not resolve it (see ``_resolved_cholesky``).
    """
    cov = _checked_cov(cov)
    L = _resolved_cholesky(cov)
    # L^T Omega without a product: its column 2k + 1 is L^T's column 2k, and
    # its column 2k is minus L^T's column 2k + 1
    product = np.empty_like(L)
    product[:, 1::2] = L.T[:, 0::2]
    np.negative(L.T[:, 1::2], out=product[:, 0::2])
    product = product @ L
    del L  # L and L^T Omega are freed before the complex copy
    return np.linalg.eigvalsh(1j * product)[cov.shape[0] // 2:]


def purity(state: GaussianState) -> float:
    """Tr(rho^2) of a Gaussian state: 1 / sqrt(det cov) in vacuum units, the
    product of the diagonal of cov's Cholesky factor.

    Equals 1 exactly for pure Gaussian states.

    Raises:
        DegenerateInputError: if cov is not positive definite or not resolved
            (see ``_resolved_cholesky``).
    """
    L = _resolved_cholesky(_vacuum_units(state).cov)
    return float(1.0 / np.prod(np.diagonal(L)))


def clean_tiny(state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """The state's mean and cov, new arrays in hbar units, with each entry
    whose magnitude in vacuum units is below 1e-11, the display threshold,
    set to 0."""
    vac = _vacuum_units(state)
    return (np.where(np.abs(vac.mean) < 1e-11, 0.0, state.mean),
            np.where(np.abs(vac.cov) < 1e-11, 0.0, state.cov))
