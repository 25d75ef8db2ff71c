"""Symplectic gate builders and their action on Gaussian states.

A gate is a small symplectic block B (2x2 for one mode, 4x4 for a beam
splitter) and a shift d acting on the interleaved quadratures of the modes it
touches, inside an N-mode system.  On the moments it acts as
mean -> S @ mean + d, cov -> S @ cov @ S.T, where S is B embedded in the
2N x 2N identity.  Gates are applied in runs: G gates of one kind on
pairwise-disjoint modes, one gate in ``apply_gate``.  Only the run's rows and
columns are computed, from stacked products, so a run costs O(G N) instead
of O(G N^3), in a fixed number of numpy calls.  ``SymplecticGate.matrix``
and ``SymplecticGate.displacement`` export the dense 2N x 2N pair.

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
from .states import GaussianState, _checked_modes, _freeze, _vacuum_units, symplectic_form

#: tolerance on ||B Omega B^T - Omega||_F at gate construction; a block with
#: large entries is allowed the rounding of B Omega B^T, ``_ROUNDING * ||B||_F^2``
SYMPLECTIC_TOL = 1e-10
_ROUNDING = 64.0 * np.finfo(float).eps


def _quadratures(modes: tuple[int, ...]) -> slice | np.ndarray:
    """The interleaved rows of ``modes``: a slice when the modes are
    consecutive and ascending (every single-mode gate, a beam splitter on
    (m, m + 1)), else an index array."""
    first = modes[0]
    if modes == tuple(range(first, first + len(modes))):
        return slice(2 * first, 2 * first + 2 * len(modes))
    return np.array([q for m in modes for q in (2 * m, 2 * m + 1)])


def _first_invalid(blocks: np.ndarray, shifts: np.ndarray) -> tuple[int, str] | None:
    """The first gate of a stack of G blocks (G, k, k) and shifts (G, k)
    whose block is not symplectic to within max(``SYMPLECTIC_TOL``,
    64 eps ||B||_F^2) or whose block or shift is not finite, with the reason;
    None if every gate passes.  A block whose ||B||_F^2 overflows fails.
    """
    omega = symplectic_form(blocks.shape[-1] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.linalg.norm(blocks @ omega @ blocks.swapaxes(-1, -2) - omega, axis=(-2, -1))
        bounds = np.maximum(SYMPLECTIC_TOL, _ROUNDING * np.einsum("gij,gij->g", blocks, blocks))
    symplectic = (defects <= bounds) & np.isfinite(bounds)
    bad = ~symplectic | ~np.isfinite(shifts).all(axis=-1)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not symplectic[i]:
        return i, f"matrix is not symplectic (||S Omega S^T - Omega||_F = {defects[i]:.3e})"
    return i, f"shift {shifts[i]} is not finite"


@dataclass(frozen=True)
class SymplecticGate:
    """A linear optical element on a few modes of an N-mode system.

    Attributes:
        block: symplectic matrix on the interleaved quadratures of ``modes``.
        shift: displacement of those quadratures.
        modes: the touched modes, in the order the block uses them.
        num_modes: number of modes N of the system the gate acts on.

    Raises:
        MalformedInputError: the block or shift does not fit ``modes``, the
            block is not symplectic to within ``SYMPLECTIC_TOL`` (or, for a
            large block, 64 eps ||block||_F^2, the rounding of
            block Omega block^T), or the block or shift is not finite.
        ValueError: the modes are not integers (bools are refused), repeat
            or lie outside ``range(num_modes)``.
    """

    block: np.ndarray
    shift: np.ndarray
    modes: tuple[int, ...]
    num_modes: int
    _idx: slice | np.ndarray = field(init=False, repr=False, compare=False)  # rows of ``modes``

    def __post_init__(self) -> None:
        block, shift = _freeze(self.block), _freeze(self.shift)
        modes = _checked_modes(self.modes, self.num_modes)
        k = 2 * len(modes)
        if block.shape != (k, k) or shift.shape != (k,):
            raise MalformedInputError(
                f"modes {modes} need a {k}x{k} block and a length-{k} shift, "
                f"got {block.shape} and {shift.shape}"
            )
        invalid = _first_invalid(block[None], shift[None])
        if invalid is not None:
            raise MalformedInputError(invalid[1])
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_idx", _quadratures(modes))

    @property
    def matrix(self) -> np.ndarray:
        """The dense 2N x 2N symplectic matrix (the block embedded in I)."""
        S = np.eye(2 * self.num_modes)
        idx = np.arange(2 * self.num_modes)[self._idx]
        S[np.ix_(idx, idx)] = self.block
        return S

    @property
    def displacement(self) -> np.ndarray:
        """The dense length-2N displacement vector."""
        d = np.zeros(2 * self.num_modes)
        d[self._idx] = self.shift
        return d


# One formula per gate kind.  Each takes floats, or equal-length arrays for a
# stack of G gates of that kind, and returns the blocks, (k, k) or (G, k, k),
# and the shifts in vacuum units, (k,) or (G, k); the builders and the network
# runner both call them.

def _stack(entries: list, k: int) -> np.ndarray:
    """The k x k blocks whose row-major entries are ``entries``, C-contiguous."""
    return np.stack(entries, axis=-1).reshape(np.shape(entries[0]) + (k, k))


def _displacement_blocks(alpha_mag, alpha_phase) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 2.0 * alpha_mag
        shifts = np.stack([scale * np.cos(alpha_phase), scale * np.sin(alpha_phase)], axis=-1)
    one, zero = np.ones_like(scale), np.zeros_like(scale)
    return _stack([one, zero, zero, one], 2), shifts


def _squeeze_blocks(r, theta) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(r), np.sinh(r)
        c, s = np.cos(theta) * sh, np.sin(theta) * sh
        blocks = _stack([ch - c, -s, -s, ch + c], 2)
    return blocks, np.zeros(blocks.shape[:-1])


def _rotation_blocks(phi) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(phi), np.sin(phi)
    blocks = _stack([c, -s, s, c], 2)
    return blocks, np.zeros(blocks.shape[:-1])


def _beamsplitter_blocks(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(theta), np.sin(theta)
    sc, ss = s * np.cos(phi), s * np.sin(phi)
    z = np.zeros_like(c)
    # [[c I, -s R^T], [s R, c I]] with R the rotation by phi
    blocks = _stack([c, z, -sc, -ss, z, c, ss, -sc, sc, -ss, c, z, ss, sc, z, c], 4)
    return blocks, np.zeros(blocks.shape[:-1])


def displacement_gate(
    alpha_mag: float, alpha_phase: float, mode: int, num_modes: int, hbar: float = 2.0
) -> SymplecticGate:
    """Displacement D(alpha) with alpha = alpha_mag * e^{i alpha_phase}.

    Identity symplectic matrix; shifts the target mode mean by
    sqrt(2*hbar) * (Re alpha, Im alpha), which is 2 alpha in vacuum units
    times sqrt(hbar/2).
    """
    if alpha_mag < 0:
        raise ValueError("alpha_mag must be >= 0 (fold the sign into alpha_phase)")
    block, shift = _displacement_blocks(alpha_mag, alpha_phase)
    with np.errstate(over="ignore"):  # SymplecticGate refuses a shift that is not finite
        return SymplecticGate(block, shift * np.sqrt(hbar / 2.0), (mode,), num_modes)


def squeeze_gate(r: float, theta: float, mode: int, num_modes: int) -> SymplecticGate:
    """Single-mode squeezer S(r e^{i theta}), r >= 0."""
    if r < 0:
        raise ValueError("r must be >= 0 (fold the sign into theta)")
    return SymplecticGate(*_squeeze_blocks(r, theta), (mode,), num_modes)


def rotation_gate(phi: float, mode: int, num_modes: int) -> SymplecticGate:
    """Phase-space rotation of the target mode by phi."""
    return SymplecticGate(*_rotation_blocks(phi), (mode,), num_modes)


def beamsplitter_gate(
    theta: float, phi: float, modes: tuple[int, int], num_modes: int
) -> SymplecticGate:
    """Two-mode beam splitter with transmission cos(theta) and phase phi.

    theta = pi/4, phi = 0 is the balanced 50:50 splitter.
    """
    return SymplecticGate(*_beamsplitter_blocks(theta, phi), tuple(modes), num_modes)


def _apply_run(
    blocks: np.ndarray, shifts: np.ndarray, rows: slice | np.ndarray, cov: np.ndarray,
    mean: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows`` of S cov S^T and of S mean + d for a run of G gates
    on pairwise-disjoint modes, applied in order: blocks (G, k, k), shifts
    (G, k), and ``rows`` (a slice or an index array) holding each gate's k
    rows in turn.  Returns them, (G k, 2N) and (G k,); cov and mean are not
    written.

    Each entry is bit for bit the one that applying the gates one at a time
    gives: it is computed from the same operands in the same order, each
    stacked product making one GEMM or GEMV per gate.  With I_g the rows of
    gate g, its rows are R_g = B_g cov[I_g] and its diagonal block is
    R_g[:, I_g] B_g^T, symmetrised; the cross block of gates p < q is
    B_q R_p[:, I_q]^T, what gate q reads from gate p's writes, and its
    transpose.
    """
    # Speed only: a fixed number of numpy calls a run in place of ~15 a gate.
    # Gates-only run_network of a network-chain spec at N = 16, 64, 128, 192:
    # 0.48, 1.00, 2.97, 5.50 ms against 0.65, 2.18, 5.51, 9.40 ms one gate at a
    # time (minima of 8 processes, one CPU); network-chain job_tail_s -16.5%
    # at seed 42 and -16.4% at seed 1701 (BENCH_43.json).  A cold `cvsim
    # network` of an N = 64 spec takes ~200 ms either way (medians of 11).
    g, k = shifts.shape
    width = g * k
    out = blocks @ cov[rows].reshape(g, k, -1)
    own = out[:, :, rows].reshape(g, k, g, k)  # own[p, :, q] = R_p[:, I_q]
    # cross[(q, a), (p, b)] = (B_q R_p[:, I_q]^T)[a, b]
    cross = (blocks @ own.transpose(2, 3, 0, 1).reshape(g, k, width)).reshape(width, width)
    gates = np.arange(g)
    inner = own[gates, :, gates] @ blocks.swapaxes(-1, -2)
    # the run's own columns, a view of out where rows is a slice: cross below
    # the diagonal blocks, its transpose above, written without a temporary
    block = out.reshape(width, -1)[:, rows]
    gate = np.arange(width) // k
    below = gate[:, None] > gate
    np.copyto(block, cross, where=below)
    np.copyto(block, cross.T, where=below.T)
    block.reshape(g, k, g, k)[gates, :, gates] = (inner + inner.swapaxes(-1, -2)) / 2.0
    out[:, :, rows] = block.reshape(g, k, width)  # a no-op where block is a view
    new_mean = blocks @ mean[rows].reshape(g, k, 1)
    return out.reshape(width, -1), new_mean.reshape(width) + shifts.reshape(width)


def _write_rows(
    rows: slice | np.ndarray, new_rows: np.ndarray, new_mean: np.ndarray, cov: np.ndarray,
    mean: np.ndarray,
) -> None:
    """Write what ``_apply_run`` returns into cov's rows and, transposed, its
    columns, and into mean."""
    cov[rows] = new_rows
    cov[:, rows] = new_rows.T
    mean[rows] = new_mean


def apply_gate(gate: SymplecticGate, state: GaussianState) -> GaussianState:
    """Transform a state's moments: mean -> S mean + d, cov -> S cov S^T."""
    if gate.num_modes != state.num_modes:
        raise MalformedInputError(
            f"gate is for {gate.num_modes} modes, state has {state.num_modes}"
        )
    cov = (state.cov + state.cov.T) / 2.0  # a fresh, exactly symmetric copy
    mean = np.array(state.mean, copy=True)
    _write_rows(gate._idx, *_apply_run(gate.block[None], gate.shift[None], gate._idx, cov, mean),
                cov, mean)
    return GaussianState(mean=mean, cov=cov, hbar=state.hbar)


def _prepare_thermal_in_place(n_bar: float, mode: int, cov: np.ndarray, mean: np.ndarray) -> None:
    """Overwrite a vacuum mode of (cov, mean), in vacuum units, with a
    thermal state.  The mode is in the vacuum when its covariance is I and
    its cross entries and its mean are 0, each to within 1e-10."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    (mode,) = _checked_modes((mode,), mean.size // 2)
    sl = slice(2 * mode, 2 * mode + 2)
    rows = cov[sl] - np.eye(2, mean.size, 2 * mode)  # the mode's rows less the vacuum's
    if np.abs(rows).max() > 1e-10 or np.abs(mean[sl]).max() > 1e-10:
        raise ValueError(f"mode {mode} is not in the vacuum state")
    cov[sl, sl] = 0.0
    cov[2 * mode, 2 * mode] = cov[2 * mode + 1, 2 * mode + 1] = 2.0 * n_bar + 1.0


def thermal_prepare(n_bar: float, mode: int, state: GaussianState) -> GaussianState:
    """Replace a vacuum mode with a thermal state of mean photon number n_bar.

    Not a symplectic gate (the map is not unitary); restricted to modes that
    are currently in the vacuum so the semantics stay unambiguous.
    """
    vac = _vacuum_units(state)
    cov = np.array(vac.cov, copy=True)
    _prepare_thermal_in_place(n_bar, mode, cov, vac.mean)
    cov *= state.hbar / 2.0
    return GaussianState(mean=state.mean, cov=cov, hbar=state.hbar)
