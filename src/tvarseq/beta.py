"""Recovery of series coefficients beta_i from the selected step-function
estimate, by exact projection onto an orthonormal trigonometric basis.

With psi the same trigonometric system, |beta_hat - beta|^2 equals the
squared L2 distance between the step estimate and the true signal up to the
i_max truncation, so the coefficient error inherits the oracle properties of
the function estimate.
"""

from dataclasses import dataclass, field
import math

import numpy as np


@dataclass(frozen=True)
class BetaEstimate:
    """Projected coefficients beta_hat_i, i = 1..i_max."""

    coefficients: np.ndarray = field(repr=False)
    i_max: int = 0
    a: float = 0.0
    b: float = 1.0


def _cell_integrals(i_max, d, a, b):
    """W[i-1, l-1] = integral of psi_i over the cell ]z_{l-1}, z_l], closed form."""
    span = b - a
    u = np.arange(0, d + 1) / d          # cell edges in normalized coordinates
    i = np.arange(2, i_max + 1)[:, None]
    m = i // 2
    arg = 2.0 * np.pi * m * u
    # primitives over 2 pi m: sin for cos(2*pi*m*u) (even i), -cos for sin (odd i)
    prim = np.where(i % 2 == 0, np.sin(arg), -np.cos(arg))
    W = np.empty((i_max, d))
    W[0] = span / d / math.sqrt(span)    # psi_1 = 1/sqrt(span)
    W[1:] = math.sqrt(2.0 / span) * span / (2.0 * np.pi * m) * np.diff(prim, axis=1)
    return W


def project_coefficients(S_star, a, b, i_max=None):
    """beta_hat_i = integral of psi_i * S_star over [a, b].

    S_star holds the step-function values on the cells ]z_{l-1}, z_l] of the
    estimation grid (length d); the cell integrals of the trigonometric psi
    are exact closed forms.
    """
    S_star = np.asarray(S_star, dtype=float)
    d = len(S_star)
    if i_max is None:
        i_max = d
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    W = _cell_integrals(i_max, d, a, b)
    return BetaEstimate(coefficients=W @ S_star, i_max=i_max, a=a, b=b)


def beta_error(estimate, true_beta):
    """Squared l2 distance sum_i (beta_hat_i - beta_i)^2 over the support union."""
    est = np.asarray(estimate.coefficients if isinstance(estimate, BetaEstimate)
                     else estimate, dtype=float)
    tru = np.asarray(true_beta, dtype=float)
    width = max(len(est), len(tru))
    e = np.zeros(width)
    t = np.zeros(width)
    e[:len(est)] = est
    t[:len(tru)] = tru
    diff = e - t
    return float(diff @ diff)
