"""Recovery of series coefficients beta_i from the selected step-function
estimate, by exact projection onto an orthonormal trigonometric basis.

With psi the same trigonometric system, |beta_hat - beta|^2 equals the
squared L2 distance between the step estimate and the true signal up to the
i_max truncation, so the coefficient error inherits the oracle properties of
the function estimate.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np

from .basis import trig_fn


@dataclass(frozen=True)
class BetaEstimate:
    """Projected coefficients beta_hat_i, i = 1..i_max."""

    coefficients: np.ndarray = field(repr=False)
    i_max: int = 0
    a: float = 0.0
    b: float = 1.0

    def rows(self):
        for i, v in enumerate(self.coefficients, start=1):
            yield i, v


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


def project_coefficients(S_star, a, b, i_max=None, psi_values=None):
    """beta_hat_i = integral of psi_i * S_star over [a, b].

    S_star holds the step-function values on the cells ]z_{l-1}, z_l] of the
    estimation grid (length d).  For the trigonometric psi the cell integrals
    are computed in closed form; pass psi_values (callable i, x -> psi_i(x))
    to project onto another orthonormal system by quadrature.
    """
    S_star = np.asarray(S_star, dtype=float)
    d = len(S_star)
    if i_max is None:
        i_max = d
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    if psi_values is None:
        W = _cell_integrals(i_max, d, a, b)
    else:
        W = _quadrature_cell_integrals(psi_values, i_max, d, a, b)
    return BetaEstimate(coefficients=W @ S_star, i_max=i_max, a=a, b=b)


def _quadrature_cell_integrals(psi, i_max, d, a, b, points=32):
    """Gauss-Legendre cell integrals for a user-supplied basis callable."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    edges = a + (b - a) * np.arange(d + 1) / d
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = mid[:, None] + half[:, None] * nodes[None, :]   # (d, points)
    W = np.empty((i_max, d))
    for i in range(1, i_max + 1):
        W[i - 1] = half * (psi(i, x) @ weights)
    return W


def check_orthonormal(psi, i_max, a, b, tol=1e-8, points=None):
    """Numeric orthonormality check of psi_1..psi_{i_max} on [a, b].

    Emits a warning (and returns False) when the Gram matrix deviates from the
    identity; projections are still meaningful but lose the Parseval link.
    """
    if points is None:
        points = max(64, 8 * i_max)
    nodes, weights = np.polynomial.legendre.leggauss(points)
    x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    P = np.vstack([psi(i, x) for i in range(1, i_max + 1)])
    gram = 0.5 * (b - a) * (P * weights) @ P.T
    err = float(np.max(np.abs(gram - np.eye(i_max))))
    if err > tol:
        warnings.warn(f"basis not orthonormal to {tol:g} (max deviation {err:.3g})")
        return False
    return True


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


trig_psi = trig_fn  # the trigonometric system as a psi callable for project_coefficients
