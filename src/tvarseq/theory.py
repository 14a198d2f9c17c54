"""Constructive theory quantities: the noise-intensity functional, the sharp
minimax constant, and the efficiency diagnostic.

For smoothness k and radius r the sharp constant for quadratic risk is
l_k(r) = ((1+2k) r)^{1/(2k+1)} * (k/(pi*(k+1)))^{2k/(2k+1)}; the model-specific
constant divides it by upsilon(S) = ((b-a) * sigma_star(S))^{-2k/(2k+1)} with
sigma_star(S) = integral of 1 - S^2 over [a, b].
"""

import contextlib
import math

import numpy as np

from .signals import ValidationError


def sigma_star(spec):
    """Integral of 1 - S(u)^2 over [a, b], exact: Parseval for a series; a tabulated
    S is linear on each cell of width h, where S^2 integrates to h(v0^2 + v0 v1 + v1^2)/3."""
    span = spec.b - spec.a
    if spec.kind == "tabulated":
        v0, v1 = np.asarray(spec.values[:-1]), np.asarray(spec.values[1:])
        return span - span / (3 * len(v0)) * float(np.sum(v0 * v0 + v0 * v1 + v1 * v1))
    c0, A, B = spec.amplitudes
    return span * (1.0 - c0 * c0 - 0.5 * float(A @ A + B @ B))


def pinsker_constant(k, r):
    """Sharp asymptotic constant l_k(r) for the minimax quadratic risk."""
    if k < 1:
        raise ValidationError("need k >= 1")
    try:  # pi (2k+1) bounds every product the formula forms
        finite = math.isfinite(np.pi * (2.0 * k + 1.0))
    except OverflowError:  # an int k beyond the float range
        finite = False
    if not finite:
        raise ValidationError("k is too large: pi (2k+1) overflows")
    if not 0.0 < r < math.inf:  # NaN included
        raise ValidationError(f"need a finite r > 0, got {r}")
    e = 1.0 / (2 * k + 1)  # the power of each factor apart, so that (1+2k) r cannot overflow
    return (1.0 + 2.0 * k) ** e * r ** e * (k / (np.pi * (k + 1.0))) ** (2.0 * k / (2 * k + 1))


def upsilon(spec, k):
    """Risk normalizer ((b-a) * sigma_star(S))^{-2k/(2k+1)}."""
    scale = float(spec.b - spec.a) * float(sigma_star(spec))  # Python floats: inf, not a warning
    with contextlib.suppress(OverflowError):  # a float power raises where it would round to inf
        if 0.0 < scale < math.inf:
            return scale ** (-2.0 * k / (2 * k + 1))
    raise ValidationError(f"upsilon(S) is not a finite float: (b - a) sigma_star(S) = {scale}")


def efficiency_ratio(rbar, spec, k, r, n):
    """Compare a Monte-Carlo risk to the sharp bound: (normalized risk, its ratio to l_k(r)).

    rbar is a risk in the empirical norm ||.||_d^2 on [a, b], as a cell reports
    it; the rate n^{2k/(2k+1)} and upsilon(S) normalize it.
    The ratio is a diagnostic: O(1) and shrinking toward the bound
    as n grows, with no sharp finite-n target.
    """
    normalized = float(n) ** (2.0 * k / (2 * k + 1)) * upsilon(spec, k) * rbar
    return normalized, normalized / pinsker_constant(k, r)
