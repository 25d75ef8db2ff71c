import numpy as np
import pytest

from cvsim import (
    DegenerateInputError,
    GaussianSource,
    GaussianState,
    PhaseSpaceGrid,
    Thermal,
    UnsupportedOrderingError,
    WignerField,
    apply_gate,
    characteristic_fn,
    characteristic_gaussian,
    displacement_gate,
    read_wigner_csv,
    s_quasiprob_gaussian,
    squeeze_gate,
    thermal_prepare,
    vacuum_state,
    wigner_gaussian,
    write_wigner_csv,
)


def squeezed(r=0.5, theta=0.0, hbar=2.0):
    return apply_gate(squeeze_gate(r, theta, 0, 1), vacuum_state(1, hbar))


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(1.0, -1.0, -1.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 1, 10)


@pytest.mark.parametrize("bounds, counts", [
    ((-np.inf, 5.0, -5.0, 5.0), (3, 3)),
    ((-5.0, 5.0, -5.0, np.nan), (3, 3)),
    ((-5.0, 5.0, -5.0, 5.0), (2.5, 3)),
    ((-5.0, 5.0, -5.0, 5.0), (3, True)),
], ids=["inf-bound", "nan-bound", "float-count", "bool-count"])
def test_grid_refuses_non_finite_bounds_and_non_integer_counts(bounds, counts):
    with pytest.raises(ValueError, match="^grid (bounds must be finite|point counts must be integers)"):
        PhaseSpaceGrid(*bounds, *counts)


def test_vacuum_wigner_peak_and_normalization():
    grid = PhaseSpaceGrid(-6.0, 6.0, -6.0, 6.0, 201, 201)
    fld = wigner_gaussian(vacuum_state(1), grid)
    assert fld.values.max() == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-9)
    assert fld.riemann_sum() == pytest.approx(1.0, abs=1e-2)
    assert (fld.values > 0.0).all()


def test_coherent_wigner_is_displaced_vacuum():
    st = apply_gate(displacement_gate(1.6, 0.0, 0, 1), vacuum_state(1))
    grid = PhaseSpaceGrid(-2.0, 8.0, -5.0, 5.0, 201, 201)
    fld = wigner_gaussian(st, grid)
    i, j = np.unravel_index(np.argmax(fld.values), fld.values.shape)
    assert grid.x_axis()[i] == pytest.approx(3.2, abs=0.05)
    assert grid.p_axis()[j] == pytest.approx(0.0, abs=0.05)
    # same shape as the vacuum, just translated
    vac = wigner_gaussian(vacuum_state(1), PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 201, 201))
    assert fld.values.max() == pytest.approx(vac.values.max(), abs=1e-9)


def test_squeezed_wigner_axis_ratio():
    st = squeezed(0.5)
    grid = PhaseSpaceGrid(-5.0, 5.0, -10.0, 10.0, 241, 241)
    fld = wigner_gaussian(st, grid)
    # marginal variances of the grid density reproduce diag(e^-1, e)
    dx = grid.cell_area()
    px = fld.values.sum(axis=1) * dx
    pp = fld.values.sum(axis=0) * dx
    x = grid.x_axis()
    p = grid.p_axis()
    var_x = float(np.sum(px * x**2) / px.sum())
    var_p = float(np.sum(pp * p**2) / pp.sum())
    assert var_x == pytest.approx(np.exp(-1.0), rel=1e-3)
    assert var_p == pytest.approx(np.exp(1.0), rel=1e-3)
    assert var_p / var_x == pytest.approx(np.exp(2.0), rel=5e-3)


def test_wigner_reduces_multimode():
    st = vacuum_state(2)
    st = apply_gate(displacement_gate(1.0, 0.0, 1, 2), st)
    grid = PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 81, 81)
    fld0 = wigner_gaussian(st, grid, mode=0)
    i, j = np.unravel_index(np.argmax(fld0.values), fld0.values.shape)
    assert abs(grid.x_axis()[i]) < 0.11


def test_wigner_rejects_singular_cov():
    bad = GaussianState(mean=np.zeros(2), cov=np.diag([1.0, 0.0]))
    with pytest.raises(DegenerateInputError):
        wigner_gaussian(bad, PhaseSpaceGrid(-1, 1, -1, 1, 5, 5))


def test_wigner_integrates_to_one_on_6_sigma_grids():
    for st in (vacuum_state(1), squeezed(0.5), thermal_prepare(1.0, 0, vacuum_state(1))):
        sig = np.sqrt(np.diag(st.cov).max())
        grid = PhaseSpaceGrid(-6 * sig, 6 * sig, -6 * sig, 6 * sig, 200, 200)
        assert wigner_gaussian(st, grid).riemann_sum() == pytest.approx(1.0, abs=1e-2)


def test_characteristic_at_zero_is_one():
    for st in (vacuum_state(1), squeezed(0.8, 0.4), vacuum_state(2)):
        assert characteristic_gaussian(st, np.zeros(2 * st.num_modes)) == pytest.approx(
            1.0 + 0.0j
        )


def test_characteristic_coherent_magnitude_profile():
    st = apply_gate(displacement_gate(0.9, 0.6, 0, 1), vacuum_state(1))
    rng = np.random.default_rng(6)
    for _ in range(10):
        gamma = complex(rng.normal(), rng.normal())
        r = np.sqrt(2.0 / st.hbar) * np.array([gamma.real, gamma.imag])
        assert abs(characteristic_gaussian(st, r)) == pytest.approx(
            np.exp(-abs(gamma) ** 2 / 2.0), rel=1e-12
        )


def test_characteristic_thermal_matches_homodyne_form():
    # exp(-(nbar+1/2)|beta|^2) under r = sqrt(2/hbar) (Re beta, Im beta)
    for hbar in (1.0, 2.0):
        st = thermal_prepare(1.5, 0, vacuum_state(1, hbar))
        beta = 0.37 - 0.21j
        r = np.sqrt(2.0 / hbar) * np.array([beta.real, beta.imag])
        assert characteristic_gaussian(st, r) == pytest.approx(
            complex(characteristic_fn(Thermal(1.5), beta)), abs=1e-12
        )
        # a thermal chi is isotropic and cannot see the sign of sin(phi); a
        # displaced squeezed one can.  chi(i y e^{-i phi}) is E[e^{i y X_phi}]
        # with X_phi = x cos phi - p sin phi, here in vacuum units.
        st = apply_gate(displacement_gate(0.9, 1.1, 0, 1, hbar), squeezed(0.4, 0.9, hbar))
        model = GaussianSource(st)
        assert characteristic_gaussian(st, r) == pytest.approx(
            complex(characteristic_fn(model, beta)), abs=1e-12
        )
        for phi in (0.7, -1.9, 2.6):
            c = np.array([np.cos(phi), -np.sin(phi)])
            mean = c @ st.mean / np.sqrt(hbar / 2.0)
            var = c @ st.cov @ c / (hbar / 2.0)
            y = 0.8
            assert complex(characteristic_fn(model, 1j * y * np.exp(-1j * phi))) == pytest.approx(
                np.exp(1j * y * mean - y**2 * var / 2.0), abs=1e-12
            )


def test_characteristic_bounded_by_one():
    rng = np.random.default_rng(17)
    states = [vacuum_state(1), squeezed(1.0, 0.7),
              apply_gate(displacement_gate(1.2, 0.1, 0, 1), squeezed(0.5))]
    for st in states:
        for _ in range(50):
            r = rng.normal(scale=2.0, size=2)
            assert abs(characteristic_gaussian(st, r)) <= 1.0 + 1e-12


def test_characteristic_fourier_transform_reproduces_wigner():
    # symplectic FT of chi on a fine grid vs the closed-form Wigner values
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    n, L = 201, 10.0
    u = np.linspace(-L, L, n)
    du = u[1] - u[0]
    for st in (vacuum_state(1), squeezed(0.5)):
        for target in ([0.0, 0.0], [0.5, -0.3], [1.0, 1.0]):
            total = 0.0 + 0.0j
            t = np.asarray(target)
            for i in range(n):
                rp = np.stack([np.full(n, u[i]), u], axis=1)
                chi = np.array([characteristic_gaussian(st, row) for row in rp])
                total += (chi * np.exp(1j * (rp @ (omega @ t)))).sum()
            w_num = (total * du * du / (2 * np.pi) ** 2).real
            grid = PhaseSpaceGrid(t[0] - 1, t[0] + 1, t[1] - 1, t[1] + 1, 3, 3)
            w_closed = wigner_gaussian(st, grid).values[1, 1]
            assert abs(w_num - w_closed) < 1e-4


def test_q_function_of_vacuum():
    assert s_quasiprob_gaussian(vacuum_state(1), 0j, -1.0) == pytest.approx(
        1.0 / np.pi, abs=1e-9
    )


def test_q_function_of_coherent_state():
    alpha0 = 0.9 * np.exp(0.6j)
    st = apply_gate(displacement_gate(0.9, 0.6, 0, 1), vacuum_state(1))
    for a in (0j, 0.5 + 0.1j, alpha0):
        assert s_quasiprob_gaussian(st, a, -1.0) == pytest.approx(
            np.exp(-abs(a - alpha0) ** 2) / np.pi, rel=1e-10
        )


def test_s_zero_matches_wigner_up_to_measure():
    # d^2alpha = dx dp / (2 hbar): quasiprobability at s=0 is 2*hbar*W
    st = squeezed(0.4, 0.9)
    for a in (0j, 0.3 + 0.2j, -0.5j):
        x, p = np.sqrt(2 * st.hbar) * a.real, np.sqrt(2 * st.hbar) * a.imag
        grid = PhaseSpaceGrid(x - 1, x + 1, p - 1, p + 1, 3, 3)
        w = wigner_gaussian(st, grid).values[1, 1]
        assert s_quasiprob_gaussian(st, a, 0.0) == pytest.approx(2 * st.hbar * w, rel=1e-12)


def test_s_one_on_squeezed_raises():
    with pytest.raises(UnsupportedOrderingError):
        s_quasiprob_gaussian(squeezed(0.5), 0j, 1.0)


def test_s_one_on_vacuum_raises():
    # the vacuum P function is a delta, not a regular function
    with pytest.raises(UnsupportedOrderingError):
        s_quasiprob_gaussian(vacuum_state(1), 0j, 1.0)


def test_s_one_on_thermal_is_regular():
    nbar = 2.0
    st = thermal_prepare(nbar, 0, vacuum_state(1))
    assert s_quasiprob_gaussian(st, 0j, 1.0) == pytest.approx(1.0 / (np.pi * nbar), rel=1e-12)


def test_s_monotonicity_never_negative():
    st = squeezed(0.6)
    for a in (0j, 0.7 + 0.1j, 1.5j):
        prev = None
        for s in (0.0, -0.25, -0.5, -1.0, -2.0):
            val = s_quasiprob_gaussian(st, a, s)
            assert val > 0.0
            prev = val


def test_s_minus_one_matches_numeric_convolution():
    # smooth the s=0 distribution with the 2/pi exp(-2|a-g|^2) kernel
    st = vacuum_state(1)
    n, L = 121, 5.0
    for alpha in (0j, 0.4 - 0.2j):
        re = np.linspace(alpha.real - L, alpha.real + L, n)
        im = np.linspace(alpha.imag - L, alpha.imag + L, n)
        d2 = (re[1] - re[0]) * (im[1] - im[0])
        W = np.array(
            [[s_quasiprob_gaussian(st, complex(a, b), 0.0) for b in im] for a in re]
        )
        RE, IM = np.meshgrid(re, im, indexing="ij")
        kern = (2.0 / np.pi) * np.exp(
            -2.0 * ((RE - alpha.real) ** 2 + (IM - alpha.imag) ** 2)
        )
        numeric = float((W * kern).sum() * d2)
        assert numeric == pytest.approx(
            s_quasiprob_gaussian(st, alpha, -1.0), abs=1e-6
        )


def test_wigner_csv_round_trip(tmp_path):
    fld = wigner_gaussian(squeezed(0.3), PhaseSpaceGrid(-3.0, 3.0, -2.0, 2.0, 7, 5))
    path = tmp_path / "w.csv"
    write_wigner_csv(fld, str(path))
    back = read_wigner_csv(str(path))
    assert back.grid.nx == 7 and back.grid.np == 5
    assert np.allclose(back.values, fld.values, rtol=0, atol=0)
    first = path.read_text().splitlines()[0]
    assert first == "x,p,w"


def test_wigner_field_shape_validation():
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 4, 4)
    with pytest.raises(Exception):
        WignerField(grid=grid, values=np.zeros((3, 4)))
