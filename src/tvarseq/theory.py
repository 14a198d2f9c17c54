"""Constructive theory quantities: the noise-intensity functional, the sharp
minimax constant, and the efficiency diagnostic.

For smoothness k and radius r the sharp constant for quadratic risk is
l_k(r) = ((1+2k) r)^{1/(2k+1)} * (k/(pi*(k+1)))^{2k/(2k+1)}; the model-specific
constant divides it by upsilon(S) = ((b-a) * sigma_star(S))^{-2k/(2k+1)} with
sigma_star(S) = integral of 1 - S^2 over [a, b].
"""

from dataclasses import dataclass
import math

import numpy as np

from .signals import trig_amplitudes


def sigma_star(spec):
    """Integral of 1 - S(u)^2 over [a, b], exact: Parseval for a series; a tabulated
    S is linear on each cell of width h, where S^2 integrates to h(v0^2 + v0 v1 + v1^2)/3."""
    span = spec.b - spec.a
    if spec.kind == "tabulated":
        v0, v1 = np.asarray(spec.values[:-1]), np.asarray(spec.values[1:])
        return span - span / (3 * len(v0)) * float(np.sum(v0 * v0 + v0 * v1 + v1 * v1))
    c0, A, B = trig_amplitudes(spec)
    return span * (1.0 - c0 * c0 - 0.5 * float(A @ A + B @ B))


def check_radius(r):
    """Reject a Sobolev radius that is not a finite number > 0 (NaN included)."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"need a finite r > 0, got {r}")


def pinsker_constant(k, r):
    """Sharp asymptotic constant l_k(r) for the minimax quadratic risk."""
    if k < 1:
        raise ValueError("need k >= 1")
    check_radius(r)
    return ((1.0 + 2.0 * k) * r) ** (1.0 / (2 * k + 1)) * \
        (k / (np.pi * (k + 1.0))) ** (2.0 * k / (2 * k + 1))


def upsilon(spec, k):
    """Risk normalizer ((b-a) * sigma_star(S))^{-2k/(2k+1)}."""
    return ((spec.b - spec.a) * sigma_star(spec)) ** (-2.0 * k / (2 * k + 1))


@dataclass(frozen=True)
class EfficiencyReport:
    """Normalized empirical risk against the sharp minimax bound."""

    signal_id: str
    k: int
    r: float
    n: int
    sigma_star: float
    upsilon: float
    pinsker: float
    rate: float
    normalized_risk: float
    ratio: float

    def to_dict(self):
        return {"signal": self.signal_id, "k": self.k, "r": self.r, "n": self.n,
                "sigma_star": self.sigma_star, "upsilon": self.upsilon,
                "pinsker": self.pinsker, "rate": self.rate,
                "normalized_risk": self.normalized_risk, "ratio": self.ratio}


def efficiency_ratio(rbar, spec, k, r, n, signal_id=""):
    """Compare a Monte-Carlo risk to the sharp bound.

    rbar is the grid-averaged risk (1/d normalization); multiplying by (b-a)
    converts it to the ||.||_d scale before applying the rate and upsilon(S).
    The ratio to l_k(r) is a diagnostic: O(1) and shrinking toward the bound
    as n grows, with no sharp finite-n target.
    """
    ss = sigma_star(spec)
    ups = upsilon(spec, k)
    rate = float(n) ** (2.0 * k / (2 * k + 1))
    lk = pinsker_constant(k, r)
    normalized = rate * ups * rbar * (spec.b - spec.a)
    return EfficiencyReport(signal_id=signal_id, k=k, r=r, n=n, sigma_star=ss,
                            upsilon=ups, pinsker=lk, rate=rate,
                            normalized_risk=normalized, ratio=normalized / lk)
