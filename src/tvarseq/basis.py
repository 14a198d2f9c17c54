"""Trigonometric basis on [a, b], its values on the z grid, and Fourier coefficients.

The basis is phi_1 = 1/sqrt(b-a) and, for j >= 2,
phi_j(x) = sqrt(2/(b-a)) * Trg_j(2*pi*[j/2]*(x-a)/(b-a)) with Trg_j = cos for
even j and sin for odd j.  For an odd number d of equispaced grid points
z_l = a + l*(b-a)/d the first d functions are exactly orthonormal for the
empirical inner product (f, g)_d = ((b-a)/d) * sum_l f(z_l) g(z_l).
"""

from dataclasses import dataclass

import numpy as np

from .signals import ValidationError, _psi_amplitudes, _series_values


def trig_fn(j, x, a=0.0, b=1.0):
    """Evaluate the j-th trigonometric basis function (1-based) at x."""
    if j < 1:
        raise ValidationError(f"basis index must be >= 1, got {j}")
    x = np.asarray(x, dtype=float)
    span = b - a
    if j == 1:
        return np.full_like(x, 1.0 / np.sqrt(span))
    arg = 2.0 * np.pi * (j // 2) * (x - a) / span
    if j % 2 == 0:
        return np.sqrt(2.0 / span) * np.cos(arg)
    return np.sqrt(2.0 / span) * np.sin(arg)


class TrigBasis:
    """First d trigonometric basis functions on the z grid, read through real FFTs.

    On the odd grid z_l = a + l(b-a)/d, phi_2m and phi_2m+1 at z_l are cos and
    sin of 2 pi m l/d, so the coefficient sums are one rfft and their synthesis
    is a series signal's, one irfft.  The d x d matrix phi of the values is
    built on each read, for the Gram = I and Parseval gates; no estimate reads it.
    """

    def __init__(self, a, b, d):
        if d % 2 == 0:
            raise ValidationError(f"grid size d must be odd, got {d}")
        if not b > a:
            raise ValidationError("need b > a")
        self.a = float(a)
        self.b = float(b)
        self.d = int(d)

    @property
    def phi(self):
        """phi[l-1, j-1] = phi_j(z_l), a new (d, d) array on each read."""
        # evaluated at z_l - a = offset, on [0, b - a], since recomputing z_l - a
        # from z_l cancels digits when |a| >> b - a and breaks the exact orthonormality
        d, span = self.d, self.b - self.a
        offset = span * np.arange(1, d + 1) / d
        return np.column_stack([trig_fn(j, offset, 0.0, span) for j in range(1, d + 1)])

    def gram(self):
        """Gram matrix of the d basis functions under (., .)_d."""
        phi = self.phi
        return (self.b - self.a) / self.d * phi.T @ phi

    def values(self, c):
        """sum_j c_j phi_j at z_1..z_d (per row for an (m, d) stack): the synthesis of a
        series signal on the d-point grid, whose place l is u = l/d, that is z_l."""
        return _series_values(*_psi_amplitudes(c, self.a, self.b), self.d)[..., 1:]


@dataclass(frozen=True)
class FourierCoeffs:
    """Estimated coefficients theta_hat_{j,d} and variance functionals s_{j,d}."""

    theta_hat: np.ndarray
    s_jd: np.ndarray


def fourier_coefficients(basis, Y, sigma2):
    """Coefficient estimates from a regression sample on the z grid.

    theta_hat_{j,d} = ((b-a)/d) sum_l Y_l phi_j(z_l)
    s_{j,d}        = ((b-a)/d) sum_l sigma2_l phi_j(z_l)^2

    Y and sigma2 are one sample of length d or an (m, d) stack of samples,
    which gives one row of coefficients per sample.  Each is one rfft of the
    sample rolled by one place, so that place l holds z_l (z_d in place 0):
    bin m holds sum_l Y_l (cos - i sin)(2 pi m l/d).  For s_jd, cos^2 and sin^2
    are (1 +- cos 2x)/2, and frequency 2m aliases to d - 2m.
    """
    Y = np.asarray(Y, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[-1] != basis.d or sigma2.shape != Y.shape:
        raise ValidationError(f"expected vectors of length d={basis.d}, or stacks of them")
    d, span = basis.d, basis.b - basis.a
    spec = np.fft.rfft(np.roll(Y, 1, axis=-1))
    theta_hat = np.empty(Y.shape)
    scale = np.sqrt(2.0 * span) / d
    theta_hat[..., 0] = spec.real[..., 0] * (np.sqrt(span) / d)
    theta_hat[..., 1::2] = spec.real[..., 1:] * scale
    theta_hat[..., 2::2] = spec.imag[..., 1:] * -scale
    cos_sum = np.fft.rfft(np.roll(sigma2, 1, axis=-1)).real
    total = cos_sum[..., :1]
    m2 = 2 * np.arange(1, d // 2 + 1)
    double = cos_sum[..., np.minimum(m2, d - m2)]
    s_jd = np.empty(Y.shape)
    s_jd[..., :1] = total
    np.add(total, double, out=s_jd[..., 1::2])
    np.subtract(total, double, out=s_jd[..., 2::2])
    s_jd /= d
    return FourierCoeffs(theta_hat=theta_hat, s_jd=s_jd)
