"""Two-stage sequential pointwise estimation on disjoint observation windows.

At each grid point z_l = a + l*(b-a)/d the window y_{k1_l-1}..y_{k2_l} is
split: the first q+1 observations give a preliminary slope estimate, its
clamped value sets the threshold H_l, and the remaining observations feed a
stopping rule that accumulates squared regressors until H_l is reached.  The
resulting ratio estimate has conditional variance exactly 1/H_l.

build_regression gathers each window once, as the row y_{k1-1}, y_{k1}, ...
of one common width, and each formula reads a fixed column slice of it: one
row, or the stack of all d rows at once.  A row runs on into the next window
(the windows are adjacent), but no formula reads past its own window's end.
"""

from dataclasses import dataclass, field
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
    # [n l/d -+ n h~] in exact integers, so that window l+1 starts right after window l
    k1 = n * (2 * l - 1) // (2 * d) + 1
    k2 = np.minimum(n * (2 * l + 1) // (2 * d), n)
    q_pre = int((n * h_tilde) ** mu0)
    iota = k1 + q_pre
    if np.any(iota >= k2):
        raise ConfigurationError(
            f"preliminary stage exhausts a window (q={q_pre}); n={n} too small")
    return GridPartition(n=n, a=a, b=b, d=d, mu0=mu0, h=(b - a) / (2 * d),
                         q_pre=q_pre, eps_tilde=eps_tilde(n),
                         z=z, k1=k1, k2=k2, iota=iota)


def _at(rows, k):
    """rows[..., k] with one index k per row."""
    return np.take_along_axis(rows, np.asarray(k)[..., None], axis=-1)[..., 0]


def preliminary_estimate(prev, cur):
    """Ratio estimate sum y_{j-1} y_j / sum y_{j-1}^2 over j = k1..iota.

    prev holds y_{k1-1}..y_{iota-1} and cur holds y_{k1}..y_{iota}, as one row
    or a stack of rows.  Returns 0 where the denominator vanishes (all-zero
    window).
    """
    prev, cur = np.asarray(prev)[..., None, :], np.asarray(cur)[..., :, None]
    # stacked vector products run the same dot kernel as prev @ cur
    num = (prev @ cur)[..., 0, 0]
    den = (prev @ np.swapaxes(prev, -1, -2))[..., 0, 0]
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0.0)


def project_estimate(s_hat, n):
    """Clamp into [-1 + eps~, 1 - eps~] with eps~ = 1/(2 + ln n)."""
    if n < 3:
        raise ValueError("need n >= 3")
    eps = eps_tilde(n)
    return np.clip(s_hat, -1.0 + eps, 1.0 - eps)


def threshold(s_tilde, k2, iota, n):
    """H = (1 - eps~) * (k2 - iota) / (1 - s_tilde^2)."""
    s_tilde, span = np.asarray(s_tilde), np.asarray(k2) - np.asarray(iota)
    if np.any(span <= 0):
        raise ValueError("need k2 > iota")
    eps = eps_tilde(n)
    if np.any(np.abs(s_tilde) > 1.0 - eps + 1e-12):
        raise ValueError("s_tilde must be clamped before computing the threshold")
    return (1.0 - eps) * span / (1.0 - s_tilde * s_tilde)


def run_stopping_rule(x, last, H):
    """First step at which the accumulated mass of u_i = x_i^2 reaches H.

    x holds y_iota, y_{iota+1}, ... as one row or a stack of rows.  The
    terminal term u_last (u_{k2}) has its mass set to H, so the rule stops by
    last; entries after last, where the mass is already at least H, never
    count.  Returns (step, kappa, gamma): the stop is at tau = iota + 1 + step,
    kappa in (0, 1] weights u_step so that the mass hits H exactly, and gamma
    marks a stop strictly before last.
    """
    x, last, H = np.asarray(x), np.asarray(last), np.asarray(H, dtype=float)
    if np.any(H <= 0):
        raise ValueError("threshold must be positive")
    u = x * x
    np.put_along_axis(u, last[..., None], H[..., None], axis=-1)
    mass = np.cumsum(u, axis=-1, out=u)
    step = np.count_nonzero(mass < H[..., None], axis=-1)  # searchsorted: mass is nondecreasing
    before = np.where(step > 0, _at(mass, np.maximum(step - 1, 0)), 0.0)
    gamma = step < last
    return step, np.sqrt((H - before) / np.where(gamma, _at(x, step) ** 2, H)), gamma


def sequential_estimate(x, H, step, kappa, gamma):
    """Truncated ratio estimate (sum_{i<step} x_i x_{i+1} + kappa x_step x_{step+1}) / H.

    On the row run_stopping_rule took, this is sum y_{j-1} y_j over
    j = iota+1..tau-1 plus kappa y_{tau-1} y_tau.  The estimate is 0 where
    gamma is false.  Entries after step + 1 are never read.
    """
    x = np.asarray(x)
    prod = x[..., :-1] * x[..., 1:]
    run = np.cumsum(prod, axis=-1, out=prod)
    # + 0.0 turns a sum of -0.0 terms into 0.0, as a running sum from 0.0 does
    head = np.where(step > 0, _at(run, np.maximum(step - 1, 0)) + 0.0, 0.0)
    return np.where(gamma, (head + kappa * _at(x, step) * _at(x, step + 1)) / H, 0.0)


POINT_FIELDS = ("l", "s_pre", "H", "tau", "kappa", "gamma", "s_star", "sigma2")


@dataclass(frozen=True)
class RegressionSample:
    """Regression sample Y_l = S*_l at the z grid, one record per grid point.

    points is a record array with fields POINT_FIELDS (l is 1-based); Y and
    sigma2 are two of its columns.  gamma_all is the global event that every
    point stopped before its window boundary.
    """

    z: np.ndarray = field(repr=False)
    points: np.recarray = field(repr=False)
    gamma_all: bool

    @property
    def Y(self):
        """S*_l as a contiguous vector (a column of points is strided)."""
        return np.ascontiguousarray(self.points.s_star)

    @property
    def sigma2(self):
        return np.ascontiguousarray(self.points.sigma2)


def _sample(part, *columns):
    """RegressionSample from the columns after l, in POINT_FIELDS order."""
    points = np.rec.fromarrays(np.broadcast_arrays(np.arange(1, part.d + 1), *columns),
                               names=POINT_FIELDS)
    return RegressionSample(z=part.z, points=points, gamma_all=bool(np.all(points.gamma)))


def build_regression(traj, part):
    """Both stages at every grid point, each formula applied once to all d windows.

    S*_l is zeroed at points whose stopping rule only terminates at the forced
    boundary; the other points stay informative.  gamma_all records the global
    event, whose probability tends to 1 only as n grows.
    """
    if traj.n != part.n:
        raise ValueError("trajectory and partition disagree on n")
    # window l is the row y_{k1-1}..; the last window is short, so its row
    # runs past y_n into the zero padding
    w, q = int(np.max(part.k2 - part.k1)) + 2, part.q_pre
    rows = sliding_window_view(np.append(traj.y, np.zeros(w)), w)[part.k1 - 1]
    s_pre = project_estimate(preliminary_estimate(rows[:, :q + 1], rows[:, 1:q + 2]), part.n)
    H = threshold(s_pre, part.k2, part.iota, part.n)
    x = rows[:, q + 1:]  # y_iota, y_{iota+1}, ...
    step, kappa, gamma = run_stopping_rule(x, part.k2 - part.iota - 1, H)
    s_star = sequential_estimate(x, H, step, kappa, gamma)
    return _sample(part, s_pre, H, part.iota + 1 + step, kappa, gamma, s_star, 1.0 / H)


def noiseless_regression(part, S_grid):
    """The sample a noise-free oracle would give: Y = S on the z grid, sigma2 = 0
    (H = inf), every point marked as stopped early; tau = 0 marks that no
    stopping rule ran."""
    return _sample(part, S_grid, np.inf, 0, 1.0, True, S_grid, 0.0)
