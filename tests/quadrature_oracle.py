"""The numerical Fourier oracle that the homodyne closed forms are checked
against: independent of them, it integrates the characteristic function."""

import numpy as np
from scipy.integrate import quad

from cvsim import InversionError, SourceModel, characteristic_fn


def pdf_numeric_oracle(model: SourceModel, x: float, phi: float) -> float:
    """Quadrature density from the characteristic function,

        p(x, phi) = (1/2pi) Integral chi(i y e^{-i phi}) e^{-i y x} dy,

    by adaptive quadrature over [-Y, Y] with Y chosen so |chi| < 1e-14 at the
    cutoff.
    """
    cutoff = None
    for candidate in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
        ys = np.linspace(0.75 * candidate, candidate, 32)
        tail = max(
            abs(characteristic_fn(model, 1j * y * np.exp(-1j * phi))) for y in ys
        )
        if tail < 1e-14:
            cutoff = candidate
            break
    if cutoff is None:
        raise InversionError("characteristic function does not decay below 1e-14")

    def integrand(y: float) -> float:
        return (
            characteristic_fn(model, 1j * y * np.exp(-1j * phi)) * np.exp(-1j * y * x)
        ).real

    value, abserr = quad(integrand, -cutoff, cutoff, limit=800, epsabs=1e-12, epsrel=1e-12)
    if abserr > 1e-9:
        raise InversionError(f"oracle quadrature did not converge (err {abserr:.3e})")
    return value / (2.0 * np.pi)
