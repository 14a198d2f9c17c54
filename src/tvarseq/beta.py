"""Recovery of series coefficients beta_i from the selected step-function
estimate, by exact projection onto the trigonometric basis of [a, b].

With psi the same trigonometric system, |beta_hat - beta|^2 equals the
squared L2 distance between the step estimate and the true signal up to the
i_max truncation, so the coefficient error inherits the oracle properties of
the function estimate.
"""

import numpy as np

from .basis import TrigBasis, fourier_coefficients
from .signals import ValidationError


def project_coefficients(S_star, a, b, i_max):
    """beta_hat_i = integral of psi_i * S_star over [a, b], for i = 1..i_max.

    S_star holds the step-function values on the cells ]z_{l-1}, z_l] of the
    estimation grid (its odd length d).  Summed by parts over the cells, beta_1 is
    theta_hat_1 of S_star, and beta_2m and beta_2m+1 are -(d/2 pi m) theta_hat_2m+1
    and (d/2 pi m) theta_hat_2m of the cyclic jumps D_l = S*_{l+1} - S*_l
    (S*_{d+1} = S*_1), all read by the basis's own fourier_coefficients.  On the
    grid frequency m acts as k = m mod d, a k above d/2 as d - k with its sine
    negated, and k = 0 gives 0.
    """
    S_star = np.asarray(S_star, dtype=float)
    if i_max < 1:
        raise ValidationError("need i_max >= 1")
    d = len(S_star)
    samples = np.stack([S_star, np.roll(S_star, -1) - S_star])
    theta, jumps = fourier_coefficients(TrigBasis(a, b, d), samples,
                                        np.zeros_like(samples)).theta_hat
    c, s = jumps[1::2], jumps[2::2]  # theta_hat_2k and theta_hat_2k+1 of D, k = 1..(d-1)/2
    cos = np.concatenate([[0.0], c, c[::-1]])  # place k = 0..d-1
    sin = np.concatenate([[0.0], s, -s[::-1]])
    m = np.arange(1, i_max // 2 + 1)
    scale = d / (2.0 * np.pi * m)
    pairs = np.column_stack([-scale * sin[m % d], scale * cos[m % d]])  # beta_2m, beta_2m+1
    return np.concatenate([theta[:1], pairs.ravel()])[:i_max]


def beta_error(estimate, true_beta):
    """Squared l2 distance sum_i (beta_hat_i - beta_i)^2 over the support union."""
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(true_beta, dtype=float)
    diff = np.zeros(max(len(est), len(tru)))
    diff[:len(est)] = est
    diff[:len(tru)] -= tru
    return float(diff @ diff)
