"""Two-stage sequential pointwise estimation on disjoint observation windows.

At each grid point z_l = a + l*(b-a)/d the window y_{k1_l-1}..y_{k2_l} is
split: the first q+1 observations give a preliminary slope estimate, its
clamped value sets the threshold H_l, and the remaining observations feed a
stopping rule that accumulates squared regressors until H_l is reached.  The
resulting ratio estimate has conditional variance exactly 1/H_l.

regression_columns reads every window at one common width, in two layouts.
The preliminary estimate reads its head y_{k1-1}..y_{iota} as a row, one row
per window.  The stopping rule and the sequential estimate read its tail
y_iota, y_{iota+1}, ... time-major: row i holds step i of every window of
every path, so each of their running sums is one vector add per step.  A
window runs on into the next (the windows are adjacent), but no formula reads
past its own window's end.  It stages the (paths, n+1) array it is given, one
group of whole paths that signals.trajectory_groups cut, gathering the windows
of about signals.GROUP_BYTES of each path at a time.  build_regression is its
call on a stack of one path.
"""

from dataclasses import dataclass, field
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import signals
from .signals import ValidationError, _check_span


@dataclass(frozen=True)
class GridPartition:
    """Estimation grid and per-point observation windows (1-based indices)."""

    n: int
    d: int
    q_pre: int
    z: np.ndarray = field(repr=False)
    k1: np.ndarray = field(repr=False)
    k2: np.ndarray = field(repr=False)
    iota: np.ndarray = field(repr=False)


# the procedure's first-stage exponent: each window's preliminary estimate
# reads q = [(n h~)^MU0] observations
MU0 = 0.5


def grid_size(n):
    """Odd grid size d = 2*[sqrt(n)/2] + 1."""
    return 2 * int(math.sqrt(n) / 2) + 1


def eps_tilde(n):
    """Projection margin eps~ = 1/(2 + ln n)."""
    return 1.0 / (2.0 + math.log(n))


def compute_partition(n, a=0.0, b=1.0):
    """Build the z grid, the disjoint windows and the preliminary sample size."""
    if n < 100:
        raise ValidationError(f"need n >= 100, got {n}")
    _check_span(n, a, b)
    d = grid_size(n)
    h_tilde = 1.0 / (2 * d)
    l = np.arange(1, d + 1)
    z = a + (b - a) * l / d
    # [n l/d -+ n h~] in exact integers, so that window l+1 starts right after window l
    k1 = n * (2 * l - 1) // (2 * d) + 1
    k2 = np.minimum(n * (2 * l + 1) // (2 * d), n)
    q_pre = int((n * h_tilde) ** MU0)
    iota = k1 + q_pre
    if np.any(iota >= k2):
        raise ValidationError(
            f"preliminary stage exhausts a window (q={q_pre}); n={n} too small")
    return GridPartition(n=n, d=d, q_pre=q_pre, z=z, k1=k1, k2=k2, iota=iota)


def _at(x, k):
    """x[k] along axis 0, with one index k per window (column)."""
    return np.take_along_axis(x, np.asarray(k)[None], axis=0)[0]


def _running_sum(u):
    """The running sum of u along axis 0, written into u, which is returned: the
    additions of a cumulative sum, in its order, as one vector add per step
    across every window at once."""
    rows = [u[i:i + 1] for i in range(len(u))]
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return u


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
        raise ValidationError("need n >= 3")
    eps = eps_tilde(n)
    return np.clip(s_hat, -1.0 + eps, 1.0 - eps)


def threshold(s_tilde, k2, iota, n):
    """H = (1 - eps~) * (k2 - iota) / (1 - s_tilde^2)."""
    s_tilde, span = np.asarray(s_tilde), np.asarray(k2) - np.asarray(iota)
    if np.any(span <= 0):
        raise ValidationError("need k2 > iota")
    eps = eps_tilde(n)
    if np.any(np.abs(s_tilde) > 1.0 - eps + 1e-12):
        raise ValidationError("s_tilde must be clamped before computing the threshold")
    return (1.0 - eps) * span / (1.0 - s_tilde * s_tilde)


def run_stopping_rule(x, last, H):
    """First step at which the accumulated mass of u_i = x_i^2 reaches H.

    x holds y_iota, y_{iota+1}, ... along axis 0: one window, or a (C, k)
    stack whose column i is window i.  The terminal term u_last (u_{k2}) has
    its mass set to H, so the rule stops by last; entries after last, where
    the mass is already at least H, never count.  Returns (step, kappa,
    gamma): the stop is at tau = iota + 1 + step, kappa in (0, 1] weights
    u_step so that the mass hits H exactly, and gamma marks a stop strictly
    before last.
    """
    x, last, H = np.asarray(x), np.asarray(last), np.asarray(H, dtype=float)
    if np.any(H <= 0):
        raise ValidationError("threshold must be positive")
    u = x * x
    np.put_along_axis(u, last[None], H[None], axis=0)
    mass = _running_sum(u)
    step = np.count_nonzero(mass < H, axis=0)  # searchsorted: mass is nondecreasing
    before = np.where(step > 0, _at(mass, np.maximum(step - 1, 0)), 0.0)
    gamma = step < last
    return step, np.sqrt((H - before) / np.where(gamma, _at(x, step) ** 2, H)), gamma


def sequential_estimate(x, H, step, kappa, gamma):
    """Truncated ratio estimate (sum_{i<step} x_i x_{i+1} + kappa x_step x_{step+1}) / H.

    x is laid out as run_stopping_rule takes it, each window along axis 0.
    On a window, this is sum y_{j-1} y_j over j = iota+1..tau-1 plus
    kappa y_{tau-1} y_tau.  The estimate is 0 where gamma is false.  Entries
    after step + 1 are never read.
    """
    x = np.asarray(x)
    run = _running_sum(x[:-1] * x[1:])
    # + 0.0 turns a sum of -0.0 terms into 0.0, as a running sum from 0.0 does
    head = np.where(step > 0, _at(run, np.maximum(step - 1, 0)) + 0.0, 0.0)
    return np.where(gamma, (head + kappa * _at(x, step) * _at(x, step + 1)) / H, 0.0)


POINT_FIELDS = ("l", "s_pre", "H", "tau", "kappa", "gamma", "s_star")


@dataclass(frozen=True)
class RegressionSample:
    """Regression sample Y_l = S*_l at the partition's z grid, one record per grid point.

    points is a record array with fields POINT_FIELDS (l is 1-based); Y is its
    s_star column and the variance proxy sigma2 is 1/H.  gamma_all is the global
    event that every point stopped before its window boundary.
    """

    points: np.recarray = field(repr=False)
    gamma_all: bool

    @property
    def Y(self):
        """S*_l as a contiguous vector (a column of points is strided)."""
        return np.ascontiguousarray(self.points.s_star)

    @property
    def sigma2(self):
        return 1.0 / self.points.H


def _sample(part, *columns):
    """RegressionSample from the columns after l, in POINT_FIELDS order."""
    points = np.rec.fromarrays(np.broadcast_arrays(np.arange(1, part.d + 1), *columns),
                               names=POINT_FIELDS)
    return RegressionSample(points=points, gamma_all=bool(np.all(points.gamma)))


def build_regression(traj, part):
    """The regression sample of one path: the one row of regression_columns(traj.y[None]).

    S*_l is zeroed at points whose stopping rule only terminates at the forced
    boundary; the other points stay informative.  gamma_all records the global
    event, whose probability tends to 1 only as n grows.
    """
    return _sample(part, *(col[0] for col in regression_columns(traj.y[None], part)))


def regression_columns(y, part):
    """Both stages at every grid point of every path (row) of y, each formula applied to
    a group of windows at once; returns the columns after l, in POINT_FIELDS order, each
    of shape (paths, d).

    y is a (paths, n+1) array: one group that signals.trajectory_groups cut, or
    one path as a stack of one.  A window group holds the windows over about
    signals.GROUP_BYTES of each of its paths, so the caller's group is what
    bounds memory.  A path too long to fit a group alone (n above 2^18) runs in
    several window groups, each column joining them across.
    """
    if np.ndim(y) != 2:
        raise ValidationError("need a (paths, n+1) stack; build_regression takes one path")
    if y.shape[1] != part.n + 1:
        raise ValidationError(f"paths of n={y.shape[1] - 1} and partition of n={part.n} disagree")
    w = int(np.max(part.k2 - part.k1)) + 2  # window l is the row y_{k1-1}..
    per = -(-signals.GROUP_BYTES * part.d // (8 * part.n))  # windows per group of one path
    return list(map(np.hstack, zip(*[_stages(y, part, w, slice(l, l + per))
                                     for l in range(0, part.d, per)])))


def _stages(y, part, w, g):
    """Both stages at the grid points of slice g of every path (row) of y; returns the
    columns after l, in POINT_FIELDS order, each of shape (paths, points).  Window i
    of path p is row p * points + i of the heads and column p * points + i of the
    time-major tails."""
    paths = len(y)
    k1, q = part.k1[g], part.q_pre
    k2, iota = np.tile(part.k2[g], paths), np.tile(part.iota[g], paths)
    lo, hi = k1[0] - 1, k1[-1] - 1 + w
    seg = y[:, lo:hi]
    if hi > y.shape[1]:  # the last window is short, so its row runs past y_n into zero padding
        seg = np.concatenate((seg, np.zeros((paths, hi - y.shape[1]))), axis=1)
    at = k1 - k1[0]
    head = sliding_window_view(seg, q + 2, axis=1)[:, at].reshape(-1, q + 2)  # y_{k1-1}..y_iota
    s_pre = project_estimate(preliminary_estimate(head[:, :-1], head[:, 1:]), part.n)
    H = threshold(s_pre, k2, iota, part.n)
    x = np.empty((w - q - 1, paths * len(at)))  # row i: y_{iota+i} of every window
    x.reshape(len(x), paths, -1)[...] = sliding_window_view(
        seg[:, q + 1:], len(x), axis=1)[:, at].transpose(2, 0, 1)
    step, kappa, gamma = run_stopping_rule(x, k2 - iota - 1, H)
    s_star = sequential_estimate(x, H, step, kappa, gamma)
    return [col.reshape(paths, -1) for col in (s_pre, H, iota + 1 + step, kappa, gamma, s_star)]


def noiseless_regression(part, S_grid):
    """The sample a noise-free oracle would give: Y = S on the z grid, H = inf
    (so sigma2 = 0), every point marked as stopped early; tau = 0 marks that no
    stopping rule ran."""
    return _sample(part, S_grid, np.inf, 0, 1.0, True, S_grid)
