"""Two-stage sequential pointwise estimation on disjoint observation windows.

At each grid point z_l = a + l*(b-a)/d the window y_{k1_l-1}..y_{k2_l} is
split: the first q+1 observations give a preliminary slope estimate, its
clamped value sets the threshold H_l, and the remaining observations feed a
stopping rule that accumulates squared regressors until H_l is reached.  The
resulting ratio estimate has conditional variance exactly 1/H_l.

Each formula takes one window as scalars or all d windows as arrays;
build_regression applies each once to the whole grid.  A window is gathered
as a zero-padded row; the padding width comes from the partition, or the row
is summed by a running sum, so no row depends on the data of another window.
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


def _windows(y, start, width, length):
    """One row per window: y[start + i] for i < length, zero-padded to width."""
    start = np.asarray(start)
    if np.max(start) + width > len(y):
        y = np.concatenate([y, np.zeros(width)])
    rows = sliding_window_view(y, width)
    rows = rows[start.reshape(-1)].reshape(start.shape + (width,))
    rows[np.arange(width) >= np.asarray(length)[..., None]] = 0.0
    return rows


def _at(rows, k):
    """rows[..., k] with one index k per row."""
    return np.take_along_axis(rows, np.asarray(k)[..., None], axis=-1)[..., 0]


def preliminary_estimate(y, k1, iota):
    """Ratio estimate sum y_{j-1} y_j / sum y_{j-1}^2 over j = k1..iota.

    k1 and iota may be arrays, one entry per window.  Returns 0 where the
    denominator vanishes (all-zero window).
    """
    k1, iota = np.asarray(k1), np.asarray(iota)
    if np.any(k1 > iota):
        raise ValueError("need k1 <= iota")
    terms = iota - k1 + 1
    prev = _windows(y, k1 - 1, int(np.max(terms)), terms)[..., None, :]
    cur = _windows(y, k1, int(np.max(terms)), terms)[..., :, None]
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


def run_stopping_rule(y, iota, k2, H):
    """First time the accumulated u_j = y_{j-1}^2 mass reaches H.

    The terminal mass u_{k2} is set to H, so the rule always stops by k2.
    Returns (tau, kappa, gamma) with kappa in (0, 1] the fractional weight on
    u_tau that makes the accumulated mass hit H exactly, and gamma the
    indicator of stopping strictly before k2.  iota, k2 and H may be arrays.
    """
    iota, k2, H = np.asarray(iota), np.asarray(k2), np.asarray(H, dtype=float)
    if np.any(H <= 0):
        raise ValueError("threshold must be positive")
    last = k2 - iota - 1  # position of the terminal term u_{k2}
    u = _windows(y, iota, int(np.max(last)) + 1, last)
    u *= u  # u_j = y_{j-1}^2 for j = iota+1 .. k2-1
    np.put_along_axis(u, last[..., None], H[..., None], axis=-1)
    mass = np.cumsum(u, axis=-1, out=u)
    idx = np.count_nonzero(mass < H[..., None], axis=-1)  # searchsorted: mass is nondecreasing
    before = np.where(idx > 0, _at(mass, np.maximum(idx - 1, 0)), 0.0)
    tau = iota + 1 + idx
    gamma = tau < k2
    return tau, np.sqrt((H - before) / np.where(gamma, y[tau - 1] ** 2, H)), gamma


def sequential_estimate(y, iota, H, tau, kappa, gamma):
    """Truncated ratio estimate (sum y_{j-1} y_j + kappa * y_{tau-1} y_tau) / H.

    The sum runs over j = iota+1..tau-1; the estimate is 0 where gamma is
    false.  Every argument but y may be an array.
    """
    iota, tau = np.asarray(iota), np.asarray(tau)
    terms = tau - iota - 1
    prod = _windows(y[:-1] * y[1:], iota, int(np.max(terms)) + 1, terms)
    # a running sum, so that no row depends on the padding width
    head = _at(np.cumsum(prod, axis=-1, out=prod), terms)
    return np.where(gamma, (head + kappa * y[tau - 1] * y[tau]) / H, 0.0)


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

    def rows(self):
        """(l, z_l, Y_l, sigma2_l, tau_l, gamma_l) rows for CSV export."""
        p = self.points
        return zip(p.l, self.z, p.s_star, p.sigma2, p.tau, p.gamma.astype(int))


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
    s_pre = project_estimate(preliminary_estimate(traj.y, part.k1, part.iota), part.n)
    H = threshold(s_pre, part.k2, part.iota, part.n)
    tau, kappa, gamma = run_stopping_rule(traj.y, part.iota, part.k2, H)
    s_star = sequential_estimate(traj.y, part.iota, H, tau, kappa, gamma)
    return _sample(part, s_pre, H, tau, kappa, gamma, s_star, 1.0 / H)


def noiseless_regression(part, S_grid):
    """The sample a noise-free oracle would give: Y = S on the z grid, sigma2 = 0
    (H = inf), every point marked as stopped early; tau = 0 marks that no
    stopping rule ran."""
    return _sample(part, S_grid, np.inf, 0, 1.0, True, S_grid, 0.0)
