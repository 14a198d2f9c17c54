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


# profiles in one block of the weight grid, at least.  Small enough that a
# block stays in cache while the criterion reads it (a block and its square
# take 2.1 MB at n = 7e4); large enough that a product over two or more
# samples keeps to the BLAS kernel that one product over the whole grid takes
# (OpenBLAS hands rows x samples <= 1200 to a small-matrix kernel), so that
# every criterion value has the bits of that one product.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class WeightGrid:
    """Alphas (k, t) on {1..k_star} x {eps..m*eps}.  Their profiles lambda_alpha
    are never stored: blocks() builds them a few k at a time."""

    k: np.ndarray = field(repr=False)        # per alpha; k outer, t inner
    t: np.ndarray = field(repr=False)        # per alpha
    j_star: np.ndarray = field(repr=False)   # per alpha, real-valued
    omega: np.ndarray = field(repr=False)    # per alpha, real-valued
    width: int                               # W: every weight for j > W is 0

    @property
    def nu(self):
        return len(self.k)

    @property
    def lam(self):
        """The dense (nu, W) stack of every profile, assembled from blocks()."""
        return np.concatenate([lam.copy() for lam, _ in self.blocks()])

    def blocks(self):
        """The profiles on j = 1..W and their squares, as (rows, W) blocks in alpha order.

        A block holds the profiles of consecutive k, at least BLOCK_ROWS and a
        multiple of 16 (the last block also takes the k left over), so that its
        boundaries fall on the row strips of the BLAS kernels.  Its profiles
        are zero beyond its band j <= [max omega]: the ufuncs run on the band
        alone, the exponent broadcast as (k, 1, 1) over the (k, m, band) band,
        so every weight has the bits of one pass over the whole grid.  The
        blocks share two buffers: each is overwritten when the next is drawn.
        """
        k_star = int(self.k[-1])
        m = self.nu // k_star
        k = np.arange(1, k_star + 1, dtype=float)[:, None, None]
        omega = self.omega.reshape(k_star, m, 1)
        j_star = self.j_star.reshape(k_star, m, 1)
        j = np.arange(1, self.width + 1, dtype=float)
        unit = 16 // math.gcd(m, 16)  # k per block is a multiple of unit: 16 | k * m rows
        step = -(-BLOCK_ROWS // (m * unit)) * unit
        count = max(1, k_star // step)
        largest = (k_star - (count - 1) * step, m, self.width)  # the last block
        lam_buf, sq_buf = np.zeros(largest), np.zeros(largest)
        head_buf = np.empty(lam_buf.size)
        filled = 0  # the buffers are zero beyond their first `filled` columns
        for i in range(count):
            rows = slice(i * step, (i + 1) * step if i + 1 < count else k_star)
            kb = rows.stop - rows.start
            band = min(self.width, int(omega[rows].max()))
            head = head_buf[:kb * m * band].reshape(kb, m, band)
            np.divide(j[:band], omega[rows], out=head)
            np.power(head, k[rows], out=head)
            np.subtract(1.0, head, out=head)
            np.maximum(head, 0.0, out=head)
            np.copyto(head, 1.0, where=j[:band] < j_star[rows])
            lam, lam_sq = lam_buf[:kb], sq_buf[:kb]
            lam[..., band:filled] = lam_sq[..., band:filled] = 0.0
            lam[..., :band] = head
            np.multiply(head, head, out=lam_sq[..., :band])
            filled = band
            yield lam.reshape(-1, self.width), lam_sq.reshape(-1, self.width)


def build_weight_grid(n, a=0.0, b=1.0):
    """Construct the adaptation grid: its alphas and their band width W.

    The simulation instantiation: d = grid_size(n), k_star = 150 + [sqrt(ln n)],
    m = [ln^2 n], eps = 1/ln n.  For alpha = (k, t) the profile is flat below
    j_star, decays as 1 - (j/omega_alpha)^k up to omega_alpha, and is zero
    beyond.  Every profile is zero for j >= omega_alpha, so the profiles run
    over the columns j = 1..W, W = min(d, [max omega]); the weights for j > W are 0.
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

    return WeightGrid(k=np.repeat(np.arange(1, k_star + 1), m), t=np.tile(t[0], k_star),
                      j_star=j_star.reshape(-1), omega=omega.reshape(-1),
                      width=min(d, int(omega.max())))


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
    of them; a stack is selected row by row.  The criterion runs once per
    block of grid.blocks(), on the block while it is in cache.
    """
    if grid.nu == 0:
        raise ValidationError("empty weight grid")
    J = np.empty(np.shape(coeffs.theta_hat)[:-1] + (grid.nu,))
    low, idx, lam_hat = np.inf, 0, np.zeros(J.shape[:-1] + (basis.d,))  # per sample
    first = 0
    for lam, lam_sq in grid.blocks():
        part = J[..., first:first + len(lam)]
        part[...] = criterion(lam, lam_sq, coeffs, delta, basis.a, basis.b, basis.d)
        pick, here = np.argmin(part, axis=-1), np.min(part, axis=-1)
        new = (here < low) | (first == 0)  # strictly lower: a tie keeps the earlier alpha
        low, idx = np.where(new, here, low), np.where(new, first + pick, idx)
        np.copyto(lam_hat[..., :lam.shape[-1]], lam[pick], where=new[..., None])  # lam is reused
        first += len(lam)
    k, t = grid.k[idx].tolist(), grid.t[idx].tolist()  # Python scalars for the JSON
    if idx.ndim == 0:
        idx, alpha_hat = int(idx), (k, t)
    else:
        alpha_hat = tuple(zip(k, t))
    return SelectionResult(alpha_hat=alpha_hat, alpha_index=idx,
                           lambda_hat=lam_hat, J_values=J,
                           S_star=basis.values(lam_hat * coeffs.theta_hat))


def empirical_error(S_values, estimate_values, a, b, d):
    """Er_d = ((b-a)/d) sum_l (estimate(z_l) - S(z_l))^2."""
    S_values = np.asarray(S_values, dtype=float)
    estimate_values = np.asarray(estimate_values, dtype=float)
    if S_values.shape != (d,) or estimate_values.shape != (d,):
        raise ValidationError(f"expected vectors of length d={d}")
    diff = estimate_values - S_values
    return (b - a) / d * float(diff @ diff)
