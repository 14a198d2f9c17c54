"""Two-stage sequential pointwise estimation on disjoint observation windows.

At each grid point z_l = a + l*(b-a)/d the window y_{k1_l-1}..y_{k2_l} is
split: the first q+1 observations give a preliminary slope estimate, its
clamped value sets the threshold H_l, and the remaining observations feed a
stopping rule that accumulates squared regressors until H_l is reached.  The
resulting ratio estimate has conditional variance exactly 1/H_l.
"""

from dataclasses import dataclass, field
import math

import numpy as np


class ConfigurationError(ValueError):
    """The (n, d, mu0) combination leaves no room for the two stages."""


@dataclass(frozen=True)
class GridPartition:
    """Estimation grid and per-point observation windows (1-based indices)."""

    n: int
    a: float
    b: float
    d: int
    mu0: float
    h: float
    q_pre: int
    eps_tilde: float
    z: np.ndarray = field(repr=False)
    k1: np.ndarray = field(repr=False)
    k2: np.ndarray = field(repr=False)
    iota: np.ndarray = field(repr=False)


def grid_size(n):
    """Odd grid size d = 2*[sqrt(n)/2] + 1."""
    return 2 * int(math.sqrt(n) / 2) + 1


def eps_tilde(n):
    """Projection margin eps~ = 1/(2 + ln n)."""
    return 1.0 / (2.0 + math.log(n))


def compute_partition(n, a=0.0, b=1.0, mu0=0.5):
    """Build the z grid, the disjoint windows and the preliminary sample size."""
    if n < 100:
        raise ConfigurationError(f"need n >= 100, got {n}")
    if not 0.0 < mu0 < 1.0:
        raise ConfigurationError("mu0 must be in (0, 1)")
    d = grid_size(n)
    h_tilde = 1.0 / (2 * d)
    l = np.arange(1, d + 1)
    z = a + (b - a) * l / d
    k1 = np.floor(n * l / d - n * h_tilde).astype(int) + 1
    k2 = np.minimum(np.floor(n * l / d + n * h_tilde).astype(int), n)
    q_pre = int((n * h_tilde) ** mu0)
    iota = k1 + q_pre
    if np.any(k2[:-1] >= k1[1:]):
        raise ConfigurationError("windows overlap; n too small for d")
    if np.any(iota >= k2):
        raise ConfigurationError(
            f"preliminary stage exhausts a window (q={q_pre}); n={n} too small")
    return GridPartition(n=n, a=a, b=b, d=d, mu0=mu0, h=(b - a) / (2 * d),
                         q_pre=q_pre, eps_tilde=eps_tilde(n),
                         z=z, k1=k1, k2=k2, iota=iota)


def preliminary_estimate(y, k1, iota):
    """Ratio estimate sum y_{j-1} y_j / sum y_{j-1}^2 over j = k1..iota.

    Returns 0 when the denominator vanishes (all-zero window).
    """
    if k1 > iota:
        raise ValueError("need k1 <= iota")
    prev = y[k1 - 1:iota]
    cur = y[k1:iota + 1]
    den = float(prev @ prev)
    if den == 0.0:
        return 0.0
    return float(prev @ cur) / den


def project_estimate(s_hat, n):
    """Clamp into [-1 + eps~, 1 - eps~] with eps~ = 1/(2 + ln n)."""
    if n < 3:
        raise ValueError("need n >= 3")
    eps = eps_tilde(n)
    return min(max(s_hat, -1.0 + eps), 1.0 - eps)


def threshold(s_tilde, k2, iota, n):
    """H = (1 - eps~) * (k2 - iota) / (1 - s_tilde^2)."""
    if k2 <= iota:
        raise ValueError("need k2 > iota")
    eps = eps_tilde(n)
    if abs(s_tilde) > 1.0 - eps + 1e-12:
        raise ValueError("s_tilde must be clamped before computing the threshold")
    return (1.0 - eps) * (k2 - iota) / (1.0 - s_tilde * s_tilde)


def run_stopping_rule(y, iota, k2, H):
    """First time the accumulated u_j = y_{j-1}^2 mass reaches H.

    The terminal mass u_{k2} is set to H, so the rule always stops by k2.
    Returns (tau, kappa, gamma) with kappa in (0, 1] the fractional weight on
    u_tau that makes the accumulated mass hit H exactly, and gamma the
    indicator of stopping strictly before k2.
    """
    if H <= 0:
        raise ValueError("threshold must be positive")
    u = np.empty(k2 - iota)
    u[:-1] = y[iota:k2 - 1] ** 2  # u_j for j = iota+1 .. k2-1
    u[-1] = H
    cs = np.cumsum(u)
    idx = int(np.searchsorted(cs, H, side="left"))
    tau = iota + 1 + idx
    before = float(cs[idx - 1]) if idx > 0 else 0.0
    kappa = math.sqrt((H - before) / u[idx])
    return tau, kappa, tau < k2


def sequential_estimate(y, iota, H, tau, kappa, gamma):
    """Truncated ratio estimate (sum y_{j-1} y_j + kappa * y_{tau-1} y_tau) / H."""
    if not gamma:
        return 0.0
    prev = y[iota:tau - 1]
    cur = y[iota + 1:tau]
    return (float(prev @ cur) + kappa * y[tau - 1] * y[tau]) / H


@dataclass(frozen=True)
class SeqPointResult:
    """Everything the two-stage procedure produces at one grid point."""

    l: int
    s_pre: float
    H: float
    tau: int
    kappa: float
    gamma: bool
    s_star: float
    sigma2: float


@dataclass(frozen=True)
class RegressionSample:
    """Regression sample Y_l at the z grid, gated by the global Gamma event."""

    z: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    sigma2: np.ndarray = field(repr=False)
    gamma_all: bool = True
    points: tuple = field(default=(), repr=False)

    def rows(self):
        """(l, z_l, Y_l, sigma2_l, tau_l, gamma_l) rows for CSV export."""
        for p in self.points:
            yield p.l, self.z[p.l - 1], self.Y[p.l - 1], p.sigma2, p.tau, int(p.gamma)


def estimate_point(y, part, l):
    """Run both stages at grid point l (1-based)."""
    k1, k2, iota = int(part.k1[l - 1]), int(part.k2[l - 1]), int(part.iota[l - 1])
    s_pre = project_estimate(preliminary_estimate(y, k1, iota), part.n)
    H = threshold(s_pre, k2, iota, part.n)
    tau, kappa, gamma = run_stopping_rule(y, iota, k2, H)
    s_star = sequential_estimate(y, iota, H, tau, kappa, gamma)
    return SeqPointResult(l=l, s_pre=s_pre, H=H, tau=tau, kappa=kappa,
                          gamma=gamma, s_star=s_star, sigma2=1.0 / H)


def build_regression(traj, part, gating="pointwise"):
    """Full two-stage pipeline at every grid point.

    S*_l is already zeroed at points whose stopping rule only terminates at
    the forced boundary.  With gating="pointwise" (default) those zeros are
    kept and the remaining points stay informative, which is how the risk
    tables behave at the sample sizes studied here; gating="global" withholds
    the whole sample (Y = 0 everywhere) unless every point stopped early.
    gamma_all records the global event either way.
    """
    if traj.n != part.n:
        raise ValueError("trajectory and partition disagree on n")
    if gating not in ("pointwise", "global"):
        raise ValueError(f"unknown gating mode {gating!r}")
    points = tuple(estimate_point(traj.y, part, l) for l in range(1, part.d + 1))
    gamma_all = all(p.gamma for p in points)
    if gating == "global" and not gamma_all:
        Y = np.zeros(part.d)
    else:
        Y = np.array([p.s_star for p in points])
    sigma2 = np.array([p.sigma2 for p in points])
    return RegressionSample(z=part.z, Y=Y, sigma2=sigma2,
                            gamma_all=gamma_all, points=points)
