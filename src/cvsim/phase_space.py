"""Gaussian phase-space functions: Wigner grids, characteristic functions and
the s-parametrized quasiprobability family.

For a Gaussian state with mean r_bar and covariance sigma,

    W(r)   = exp(-(r - r_bar)^T sigma^{-1} (r - r_bar) / 2)
             / sqrt((2 pi)^{2N} det sigma),
    chi(r) = exp(-r^T Omega^T sigma Omega r / 2 + i r_bar^T Omega r),

and the two are each other's symplectic Fourier transforms.  The s-ordered
quasiprobabilities of a Gaussian state stay Gaussian: the covariance is
shifted to sigma - s (hbar/2) I, sigma - s I in vacuum units, which exists as
a regular function only while that matrix stays positive definite (s = 0 is
the Wigner function, s = -1 the Husimi Q; s = +1, the P function, is singular
for squeezed light).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import _read_csv, _write_csv
from .errors import CVSimError, DegenerateInputError, MalformedInputError, UnsupportedOrderingError
from .states import GaussianState, _resolved_cholesky, _vacuum_units, symplectic_form
from .entanglement import reduced_state


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular evaluation grid in a single mode's (x, p) plane; ValueError
    unless the bounds are finite and ordered, each count is an integer >= 2
    and the cell area is finite."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self) -> None:
        if not np.isfinite([self.x_min, self.x_max, self.p_min, self.p_max]).all():
            raise ValueError("grid bounds must be finite")
        if not (self.x_min < self.x_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must satisfy x_min < x_max and p_min < p_max")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in (self.nx, self.np)):
            raise ValueError(f"grid point counts must be integers, got {self.nx!r} and {self.np!r}")
        if self.nx < 2 or self.np < 2:
            raise ValueError("grid needs at least 2 points per axis")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.cell_area()):
                raise ValueError("grid cell area overflows float64: the bounds are too far apart")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    def cell_area(self) -> float:
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        dp = (self.p_max - self.p_min) / (self.np - 1)
        return dx * dp


@dataclass(frozen=True, eq=False)
class WignerField:
    """Wigner function values on a grid; values[i, j] = W(x_i, p_j)."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.nx, self.grid.np):
            raise MalformedInputError(
                f"values must have shape ({self.grid.nx}, {self.grid.np}), "
                f"got {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def riemann_sum(self) -> float:
        """Total mass estimated as sum of values times cell area.

        Raises:
            CVSimError: if the sum is not finite, as where W's peak times
                the cell area overflows float64.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self.values.sum() * self.grid.cell_area())
        if not np.isfinite(total):
            raise CVSimError(f"the Riemann sum of the Wigner grid is not finite ({total})")
        return total


def wigner_gaussian(state: GaussianState, grid: PhaseSpaceGrid, mode: int = 0) -> WignerField:
    """Evaluate the (reduced) single-mode Gaussian Wigner function on a grid.

    W is evaluated in vacuum units, at the grid's points divided by
    sqrt(hbar/2), and divided by hbar/2, the Jacobian of that change of
    variables, so that no step depends on the scale of hbar.

    Raises:
        DegenerateInputError: if the reduced covariance is singular, or
            rounding in its entries does not resolve det sigma to 1%, as for
            a squeezer at theta = 0.7 from r ~ 8.3 (see
            ``states._resolved_cholesky``).
        CVSimError: if det sigma in vacuum units, or W's peak, overflows
            float64, as for a thermal state of n_bar = 1e160 or at
            hbar = 1e-320.
        MalformedInputError: if the state overflows in vacuum units.
    """
    red = _vacuum_units(reduced_state(state, [mode]))
    half = state.hbar / 2.0
    with np.errstate(over="ignore"):
        det = np.linalg.det(red.cov)
    if det == np.inf:
        raise CVSimError("the covariance determinant overflows float64")
    if det <= 0 or not np.isfinite(det):
        raise DegenerateInputError(f"covariance is singular (det = {det:.3e})")
    _resolved_cholesky(red.cov)
    inv = np.linalg.inv(red.cov)
    with np.errstate(over="ignore"):
        norm = 1.0 / (2.0 * np.pi * np.sqrt(det)) / half
    if not np.isfinite(norm):
        raise CVSimError("the Wigner function's peak overflows float64")
    scale = np.sqrt(half)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = grid.x_axis()[:, None] / scale - red.mean[0]
        dp = grid.p_axis()[None, :] / scale - red.mean[1]
        quad = inv[0, 0] * dx**2 + 2.0 * inv[0, 1] * dx * dp + inv[1, 1] * dp**2
    # the form is positive, so where a point or a term of the form overflows,
    # giving inf - inf, it is far past where exp(-quad / 2) underflows to 0
    return WignerField(grid=grid, values=np.where(np.isnan(quad), 0.0, norm * np.exp(-quad / 2.0)))


def characteristic_gaussian(state: GaussianState, r: np.ndarray) -> complex:
    """Gaussian characteristic function chi(r), with chi(0) = 1.

    ``r`` is a real phase-space vector of length 2N in interleaved ordering.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (2 * state.num_modes,):
        raise MalformedInputError(
            f"r must have length {2 * state.num_modes}, got shape {r.shape}"
        )
    omega = symplectic_form(state.num_modes)
    omega_r = omega @ r
    quad = -0.5 * omega_r @ state.cov @ omega_r
    phase = state.mean @ omega_r
    return complex(np.exp(quad + 1j * phase))


def s_quasiprob_gaussian(state: GaussianState, alpha: complex, s: float) -> float:
    """s-ordered quasiprobability of a single-mode Gaussian state at alpha.

    Normalized over d^2 alpha (so the vacuum Husimi Q at the origin is 1/pi).
    The phase-space point is x = sqrt(2 hbar) Re alpha, p = sqrt(2 hbar) Im alpha,
    2 alpha in vacuum units, where the value is computed.

    Raises:
        ValueError: if s or alpha is not finite.
        UnsupportedOrderingError: if sigma - s (hbar/2) I is not positive
            definite, i.e. the requested ordering is in the singular regime
            (never extrapolated).
    """
    if state.num_modes != 1:
        raise ValueError("s_quasiprob_gaussian expects a single-mode state; reduce first")
    if not (np.isfinite(s) and np.isfinite(alpha)):
        raise ValueError(f"s and alpha must be finite, got {s!r} and {alpha!r}")
    vac = _vacuum_units(state)
    cov_s = vac.cov - s * np.eye(2)
    try:
        np.linalg.cholesky(cov_s)
    except np.linalg.LinAlgError:
        raise UnsupportedOrderingError(
            f"sigma - s(hbar/2)I is not positive definite at s={s}; the "
            "s-ordered quasiprobability is singular for this state"
        ) from None
    d = 2.0 * np.array([alpha.real, alpha.imag]) - vac.mean
    inv = np.linalg.inv(cov_s)
    gauss = np.exp(-0.5 * d @ inv @ d) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov_s)))
    # Jacobian d^2alpha -> dx dp, 2 hbar, for the alpha-measure normalization
    return float(4.0 * gauss)


WIGNER_CSV_HEADER = ["x", "p", "w"]


def write_wigner_csv(field: WignerField, path: str) -> None:
    """Write a WignerField as `x,p,w` rows, row-major, each number in the
    shortest digits that read back as it.

    The axes are broadcast over the grid, so memory beyond the field stays
    bounded by one block of rows.
    """
    shape = field.values.shape
    x, p = field.grid.x_axis(), field.grid.p_axis()
    columns = [np.broadcast_to(x[:, None], shape), np.broadcast_to(p, shape), field.values]
    _write_csv(path, WIGNER_CSV_HEADER, columns)


def read_wigner_csv(path: str) -> WignerField:
    """Round-trip reader for files produced by write_wigner_csv, block by
    block; the rows must form the row-major grid that the writer writes."""
    x, p, w = _read_csv(path, WIGNER_CSV_HEADER, "wigner")
    xs, ps = np.unique(x), np.unique(p)
    row_major = np.array_equal(x, np.repeat(xs, ps.size)) and np.array_equal(
        p, np.tile(ps, xs.size)
    )
    if not row_major:
        raise MalformedInputError(
            f"the {w.size} rows are not a row-major {xs.size} x {ps.size} grid"
        )
    try:
        grid = PhaseSpaceGrid(
            x_min=xs[0], x_max=xs[-1], p_min=ps[0], p_max=ps[-1], nx=xs.size, np=ps.size
        )
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from None
    return WignerField(grid=grid, values=w.reshape(xs.size, ps.size))
