"""Trigonometric basis on [a, b], its values on the z grid, and Fourier coefficients.

The basis is phi_1 = 1/sqrt(b-a) and, for j >= 2,
phi_j(x) = sqrt(2/(b-a)) * Trg_j(2*pi*[j/2]*(x-a)/(b-a)) with Trg_j = cos for
even j and sin for odd j.  For an odd number d of equispaced grid points
z_l = a + l*(b-a)/d the first d functions are exactly orthonormal for the
empirical inner product (f, g)_d = ((b-a)/d) * sum_l f(z_l) g(z_l).
"""

from dataclasses import dataclass

import numpy as np

from .signals import ValidationError


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
    """First d trigonometric basis functions with cached values on the z grid."""

    def __init__(self, a, b, d):
        if d % 2 == 0:
            raise ValidationError(f"grid size d must be odd, got {d}")
        if not b > a:
            raise ValidationError("need b > a")
        self.a = float(a)
        self.b = float(b)
        self.d = int(d)
        offset = (b - a) * np.arange(1, d + 1) / d
        # phi[l-1, j-1] = phi_j(z_l); reused by every coefficient estimate.  It is
        # evaluated at z_l - a = offset, since recomputing z_l - a from z_l
        # cancels digits when |a| >> b - a and breaks the exact orthonormality.
        # Filled in place in C order, the layout the products read: phi_2m and
        # phi_2m+1 are cos and sin of the one argument 2 pi m offset / (b-a)
        span = b - a
        arg = np.multiply.outer(offset, 2.0 * np.pi * np.arange(1, d // 2 + 1)) / span
        self.phi = np.empty((d, d))
        self.phi[:, 0] = 1.0 / np.sqrt(span)
        np.cos(arg, out=self.phi[:, 1::2])
        np.sin(arg, out=self.phi[:, 2::2])
        self.phi[:, 1:] *= np.sqrt(2.0 / span)
        self.phi.setflags(write=False)

    def gram(self):
        """Gram matrix of the d basis functions under (., .)_d."""
        return (self.b - self.a) / self.d * self.phi.T @ self.phi


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
    which gives one row of coefficients per sample.
    """
    Y = np.asarray(Y, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[-1] != basis.d or sigma2.shape != Y.shape:
        raise ValidationError(f"expected vectors of length d={basis.d}, or stacks of them")
    w = (basis.b - basis.a) / basis.d
    theta_hat = w * (Y @ basis.phi)
    s_jd = w * (sigma2 @ basis.phi ** 2)
    return FourierCoeffs(theta_hat=theta_hat, s_jd=s_jd)
