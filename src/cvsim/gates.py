"""Symplectic gate builders and their action on Gaussian states.

A gate is a small symplectic block B (2x2 for one mode, 4x4 for a beam
splitter) and a shift d acting on the interleaved quadratures of the modes it
touches, inside an N-mode system.  On the moments it acts as
mean -> S @ mean + d, cov -> S @ cov @ S.T, where S is B embedded in the
2N x 2N identity; only the touched rows and columns are computed, so a gate
costs O(N) instead of O(N^3).  ``SymplecticGate.matrix`` and
``SymplecticGate.displacement`` export the dense 2N x 2N pair.

Conventions (matching the Strawberry Fields gate definitions):
  * displacement by alpha shifts the target mode mean by
    sqrt(2*hbar) * (|alpha| cos(arg), |alpha| sin(arg));
  * squeezing S(r e^{i theta}) acts on quadratures as
    X -> (cosh r - cos(theta) sinh r) X - sin(theta) sinh r P,
    P -> (cosh r + cos(theta) sinh r) P - sin(theta) sinh r X;
  * the beam splitter implements a_i -> cos(theta) a_i - e^{-i phi} sin(theta) a_j,
    a_j -> e^{i phi} sin(theta) a_i + cos(theta) a_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedInputError
from .states import GaussianState, _freeze, symplectic_form

#: tolerance on ||B Omega B^T - Omega||_F at gate construction
SYMPLECTIC_TOL = 1e-10


@dataclass(frozen=True)
class SymplecticGate:
    """A linear optical element on a few modes of an N-mode system.

    Attributes:
        block: symplectic matrix on the interleaved quadratures of ``modes``.
        shift: displacement of those quadratures.
        modes: the touched modes, in the order the block uses them.
        num_modes: number of modes N of the system the gate acts on.

    Raises:
        MalformedInputError: the block or shift does not fit ``modes``, or the
            block is not symplectic to within ``SYMPLECTIC_TOL``.
        ValueError: the modes repeat or lie outside ``range(num_modes)``.
    """

    block: np.ndarray
    shift: np.ndarray
    modes: tuple[int, ...]
    num_modes: int
    _idx: np.ndarray = field(init=False, repr=False, compare=False)  # quadrature rows of ``modes``

    def __post_init__(self) -> None:
        block, shift, modes = _freeze(self.block), _freeze(self.shift), tuple(self.modes)
        k = 2 * len(modes)
        if block.shape != (k, k) or shift.shape != (k,):
            raise MalformedInputError(
                f"modes {modes} need a {k}x{k} block and a length-{k} shift, "
                f"got {block.shape} and {shift.shape}"
            )
        if len(set(modes)) != len(modes) or not all(0 <= m < self.num_modes for m in modes):
            raise ValueError(f"modes {modes} must be distinct and in range for {self.num_modes} modes")
        omega = symplectic_form(len(modes))
        defect = np.linalg.norm(block @ omega @ block.T - omega)
        if defect > SYMPLECTIC_TOL:
            raise MalformedInputError(
                f"matrix is not symplectic (||S Omega S^T - Omega||_F = {defect:.3e})"
            )
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_idx", np.array([q for m in modes for q in (2 * m, 2 * m + 1)]))

    @property
    def matrix(self) -> np.ndarray:
        """The dense 2N x 2N symplectic matrix (the block embedded in I)."""
        S = np.eye(2 * self.num_modes)
        S[np.ix_(self._idx, self._idx)] = self.block
        return S

    @property
    def displacement(self) -> np.ndarray:
        """The dense length-2N displacement vector."""
        d = np.zeros(2 * self.num_modes)
        d[self._idx] = self.shift
        return d


def displacement_gate(
    alpha_mag: float, alpha_phase: float, mode: int, num_modes: int, hbar: float = 2.0
) -> SymplecticGate:
    """Displacement D(alpha) with alpha = alpha_mag * e^{i alpha_phase}.

    Identity symplectic matrix; shifts the target mode mean by
    sqrt(2*hbar) * (Re alpha, Im alpha).
    """
    if alpha_mag < 0:
        raise ValueError("alpha_mag must be >= 0 (fold the sign into alpha_phase)")
    scale = np.sqrt(2.0 * hbar) * alpha_mag
    shift = scale * np.array([np.cos(alpha_phase), np.sin(alpha_phase)])
    return SymplecticGate(np.eye(2), shift, (mode,), num_modes)


def squeeze_gate(r: float, theta: float, mode: int, num_modes: int) -> SymplecticGate:
    """Single-mode squeezer S(r e^{i theta}), r >= 0."""
    if r < 0:
        raise ValueError("r must be >= 0 (fold the sign into theta)")
    ch, sh = np.cosh(r), np.sinh(r)
    block = np.array(
        [
            [ch - np.cos(theta) * sh, -np.sin(theta) * sh],
            [-np.sin(theta) * sh, ch + np.cos(theta) * sh],
        ]
    )
    return SymplecticGate(block, np.zeros(2), (mode,), num_modes)


def rotation_gate(phi: float, mode: int, num_modes: int) -> SymplecticGate:
    """Phase-space rotation of the target mode by phi."""
    block = np.array(
        [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
    )
    return SymplecticGate(block, np.zeros(2), (mode,), num_modes)


def beamsplitter_gate(
    theta: float, phi: float, modes: tuple[int, int], num_modes: int
) -> SymplecticGate:
    """Two-mode beam splitter with transmission cos(theta) and phase phi.

    theta = pi/4, phi = 0 is the balanced 50:50 splitter.
    """
    i, j = modes
    c, s = np.cos(theta), np.sin(theta)
    sc, ss = s * np.cos(phi), s * np.sin(phi)
    # [[c I, -s R^T], [s R, c I]] with R the rotation by phi
    block = np.array(
        [[c, 0.0, -sc, -ss], [0.0, c, ss, -sc], [sc, -ss, c, 0.0], [ss, sc, 0.0, c]]
    )
    return SymplecticGate(block, np.zeros(4), (i, j), num_modes)


def _apply_in_place(gate: SymplecticGate, cov: np.ndarray, mean: np.ndarray) -> None:
    """Overwrite cov with S cov S^T and mean with S mean + d.

    Only the touched rows and columns change.  They are written from one
    array into both triangles, with the touched diagonal block symmetrised,
    so a symmetric cov stays exactly symmetric.
    """
    idx, B = gate._idx, gate.block
    rows = B @ cov[idx, :]
    inner = rows[:, idx] @ B.T
    rows[:, idx] = (inner + inner.T) / 2.0
    cov[idx, :] = rows
    cov[:, idx] = rows.T
    mean[idx] = B @ mean[idx] + gate.shift


def apply_gate(gate: SymplecticGate, state: GaussianState) -> GaussianState:
    """Transform a state's moments: mean -> S mean + d, cov -> S cov S^T."""
    if gate.num_modes != state.num_modes:
        raise MalformedInputError(
            f"gate is for {gate.num_modes} modes, state has {state.num_modes}"
        )
    cov = (state.cov + state.cov.T) / 2.0  # a fresh, exactly symmetric copy
    mean = np.array(state.mean, copy=True)
    _apply_in_place(gate, cov, mean)
    return GaussianState(mean=mean, cov=cov, hbar=state.hbar)


def _prepare_thermal_in_place(
    n_bar: float, mode: int, cov: np.ndarray, mean: np.ndarray, hbar: float
) -> None:
    """Overwrite a vacuum mode of (cov, mean) with a thermal state."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if not 0 <= mode < mean.size // 2:
        raise ValueError(f"mode {mode} out of range for {mean.size // 2} modes")
    sl = slice(2 * mode, 2 * mode + 2)
    half = hbar / 2.0
    cross = np.delete(cov[sl, :], [2 * mode, 2 * mode + 1], axis=1)
    if (
        np.abs(cov[sl, sl] - half * np.eye(2)).max() > 1e-10
        or (cross.size and np.abs(cross).max() > 1e-10)
        or np.abs(mean[sl]).max() > 1e-10
    ):
        raise ValueError(f"mode {mode} is not in the vacuum state")
    cov[sl, sl] = (2.0 * n_bar + 1.0) * half * np.eye(2)


def thermal_prepare(n_bar: float, mode: int, state: GaussianState) -> GaussianState:
    """Replace a vacuum mode with a thermal state of mean photon number n_bar.

    Not a symplectic gate (the map is not unitary); restricted to modes that
    are currently in the vacuum so the semantics stay unambiguous.
    """
    cov = np.array(state.cov, copy=True)
    _prepare_thermal_in_place(n_bar, mode, cov, state.mean, state.hbar)
    return GaussianState(mean=state.mean, cov=cov, hbar=state.hbar)
