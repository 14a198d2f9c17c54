"""Adaptive weight family, penalized selection criterion, and the final estimator.

Candidate estimators shrink the empirical Fourier coefficients by weight
profiles lambda_alpha indexed by alpha = (k, t) on a two-dimensional grid:
k plays the role of a smoothness order and t of a Sobolev-ball radius.  The
selected profile minimizes the penalized criterion J_d; the estimate is the
step function with values sum_j lambda(j) theta_hat_j phi_j(z_l) on the cells
]z_{l-1}, z_l].
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .sequential import grid_size
from .signals import ValidationError

DELTA_MAX = 1.0 / 12.0


def default_delta(n):
    """Penalty coefficient delta_n = min(1/12, 1/(12 + ln n))."""
    return min(DELTA_MAX, 1.0 / (12.0 + math.log(n)))


@dataclass(frozen=True)
class WeightGrid:
    """Shrinkage profiles lambda_alpha for alpha on {1..k_star} x {eps..m*eps}."""

    k: np.ndarray = field(repr=False)        # per alpha; k outer, t inner
    t: np.ndarray = field(repr=False)        # per alpha
    lam: np.ndarray = field(repr=False)      # shape (nu, W): columns j = 1..W
    lam_sq: np.ndarray = field(repr=False)   # lam * lam
    j_star: np.ndarray = field(repr=False)   # per alpha, real-valued
    omega: np.ndarray = field(repr=False)    # per alpha, real-valued

    @property
    def nu(self):
        return len(self.k)


def build_weight_grid(n, a=0.0, b=1.0):
    """Construct the adaptation grid and its weight vectors on their nonzero band.

    The simulation instantiation: d = grid_size(n), k_star = 150 + [sqrt(ln n)],
    m = [ln^2 n], eps = 1/ln n.  For alpha = (k, t) the profile is flat below
    j_star, decays as 1 - (j/omega_alpha)^k up to omega_alpha, and is zero
    beyond.  Every profile is zero for j >= omega_alpha, so lam holds only the
    columns j = 1..W, W = min(d, [max omega]); the weights for j > W are 0.
    """
    if n < 100:
        raise ValidationError(f"need n >= 100, got {n}")
    ln_n = math.log(n)
    k_star = 150 + int(math.sqrt(ln_n))
    m = int(ln_n ** 2)
    eps = 1.0 / ln_n
    d = grid_size(n)

    k = np.arange(1, k_star + 1, dtype=float)[:, None]       # (k_star, 1)
    t = eps * np.arange(1, m + 1, dtype=float)[None, :]      # (1, m)
    core = ((k + 1) * (2 * k + 1) / (np.pi ** (2 * k) * k) * t * n) ** (1.0 / (2 * k + 1))
    omega_low = ln_n + core
    j_star = omega_low / (200.0 + np.log(omega_low))
    omega_star = j_star + ln_n
    omega = omega_star + (b - a) ** (2 * k / (2 * k + 1)) * core

    width = min(d, int(omega.max()))
    j = np.arange(1, width + 1, dtype=float)                 # (W,)
    lam = np.empty((k_star, m, width))
    np.divide(j, omega[:, :, None], out=lam)
    np.power(lam, k[:, :, None], out=lam)
    np.subtract(1.0, lam, out=lam)
    np.maximum(lam, 0.0, out=lam)
    np.copyto(lam, 1.0, where=j < j_star[:, :, None])
    lam = lam.reshape(k_star * m, width)

    return WeightGrid(k=np.repeat(np.arange(1, k_star + 1), m), t=np.tile(t[0], k_star),
                      lam=lam, lam_sq=lam * lam,
                      j_star=j_star.reshape(-1), omega=omega.reshape(-1))


def criterion(lam, lam_sq, coeffs, delta, a, b, d):
    """Penalized selection criterion J_d(lambda), given lambda and lambda^2.

    J_d = sum lambda^2 theta_hat^2 - 2 sum lambda theta~ + delta * P_d, where
    theta~_j = theta_hat_j^2 - ((b-a)/d) s_{j,d} debiases the squared
    coefficient and P_d = ((b-a)/d) sum lambda^2 s_{j,d} is the penalty; the
    two lambda^2 sums share one product.  lam may hold only the first W <= d
    weights (the rest being 0): the sums then run over j = 1..W.  lam is one
    weight vector or a (nu, W) stack of them, and coeffs one sample or a stack
    of samples along leading axes: J then holds one row of nu values per sample.
    """
    if not 0.0 < delta <= DELTA_MAX + 1e-15:
        raise ValidationError(f"delta must lie in (0, 1/12], got {delta}")
    width = np.shape(lam)[-1]
    th2 = coeffs.theta_hat[..., :width] ** 2
    ws = (b - a) / d * coeffs.s_jd[..., :width]
    cross = (th2 - ws) @ lam.T
    cross *= 2.0
    J = (th2 + delta * ws) @ lam_sq.T
    J -= cross  # in place: a stack of samples keeps two (m, nu) blocks alive, not four
    return J


@dataclass(frozen=True)
class SelectionResult:
    """Selected weights, criterion values over the grid, and the estimate.

    For one sample alpha_hat is a (k, t) pair and alpha_index an int; for a
    (m, d) stack of samples they hold one entry per row, and the arrays gain a
    leading axis of length m.
    """

    alpha_hat: tuple
    alpha_index: int
    lambda_hat: np.ndarray = field(repr=False)
    J_values: np.ndarray = field(repr=False)
    S_star: np.ndarray = field(repr=False)


def select(coeffs, grid, delta, basis):
    """argmin_alpha J_d(lambda_alpha); ties go to the smallest (k, t).

    lambda_hat is the selected profile on all of 1..d; S_star holds the
    selected estimate's values at the z grid.  coeffs is one sample or a stack
    of them; a stack is selected row by row in one criterion product.
    """
    if grid.nu == 0:
        raise ValidationError("empty weight grid")
    J = criterion(grid.lam, grid.lam_sq, coeffs, delta, basis.a, basis.b, basis.d)
    idx = np.argmin(J, axis=-1)  # first minimum = lexicographically smallest alpha
    lam_hat = np.zeros(J.shape[:-1] + (basis.d,))
    lam_hat[..., :grid.lam.shape[1]] = grid.lam[idx]
    k, t = grid.k[idx].tolist(), grid.t[idx].tolist()  # Python scalars for the JSON
    if idx.ndim == 0:
        idx, alpha_hat = int(idx), (k, t)
    else:
        alpha_hat = tuple(zip(k, t))
    return SelectionResult(alpha_hat=alpha_hat, alpha_index=idx,
                           lambda_hat=lam_hat, J_values=J,
                           S_star=weighted_estimate_values(lam_hat, coeffs, basis))


def weighted_estimate_values(lam, coeffs, basis):
    """Values of the shrinkage estimator S_hat_lambda at the z grid (per row for a stack)."""
    return (np.asarray(lam, dtype=float) * coeffs.theta_hat) @ basis.phi.T


def empirical_error(S_values, estimate_values, a, b, d):
    """Er_d = ((b-a)/d) sum_l (estimate(z_l) - S(z_l))^2."""
    S_values = np.asarray(S_values, dtype=float)
    estimate_values = np.asarray(estimate_values, dtype=float)
    if S_values.shape != (d,) or estimate_values.shape != (d,):
        raise ValidationError(f"expected vectors of length d={d}")
    diff = estimate_values - S_values
    return (b - a) / d * float(diff @ diff)
