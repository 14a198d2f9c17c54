"""Signal functions, the admissible noise families, and AR(1) path generation.

The observation model is y_j = S(x_j) * y_{j-1} + xi_j on design points
x_j = a + (b-a)*j/n.  S must lie in the stability set: |S| <= 1 - eps and
|S'| <= L on [a, b].  The noise is zero mean, unit variance, with factorially
bounded even moments E|xi|^{2l} <= l! * varsigma^l.
"""

from dataclasses import dataclass, field
import json
import math

import numpy as np

S2_SERIES_CUTOFF = 100000
_CERT_SLACK = 1e-3          # certificate slack slope_u/(2N) as a share of eps
_CERT_MAX_POINTS = 1 << 20  # cap on the certification grid

_SIGNAL_KINDS = ("closed_form_S1", "closed_form_S2", "series", "tabulated")
_NOISE_FAMILIES = ("gaussian_std", "uniform_unit_variance", "bounded_symmetric", "none")


class ValidationError(ValueError):
    """A spec violates one of its declared invariants."""


def _from_dict(cls, cfg):
    """cls from a JSON object (lists become tuples); a bad or missing key is named."""
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in dict(cfg).items()})
    except TypeError as exc:
        raise ValidationError(f"bad {cls.__name__}: {exc}") from None


@dataclass(frozen=True)
class SignalSpec:
    """A coefficient function S on [a, b] with stability parameters.

    kind "series" is sum_i coefficients[i] * psi_i(x) over the trigonometric
    basis; "tabulated" interpolates the given values on a uniform x grid.  The
    closed forms S1 and S2 are functions of u = (x-a)/(b-a), which is x on [0, 1].
    """

    kind: str
    a: float = 0.0
    b: float = 1.0
    stability_eps: float = 0.1
    lipschitz_L: float = 100.0
    coefficients: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in _SIGNAL_KINDS:
            raise ValidationError(f"unknown signal kind {self.kind!r}; valid: {_SIGNAL_KINDS}")
        if not np.isfinite(np.array([self.a, self.b, self.stability_eps, self.lipschitz_L,
                                     *self.coefficients, *self.values], float)).all():
            raise ValidationError("signal parameters must be finite (no NaN or inf)")
        if not self.b > self.a:
            raise ValidationError("need b > a")
        if not 0.0 < self.stability_eps < 1.0:
            raise ValidationError("stability_eps must be in (0, 1)")
        if self.lipschitz_L <= 0:
            raise ValidationError("lipschitz_L must be positive")
        if self.kind == "series" and len(self.coefficients) == 0:
            raise ValidationError("series kind needs coefficients")
        if self.kind == "tabulated" and len(self.values) < 2:
            raise ValidationError("tabulated kind needs at least 2 values")

    def to_dict(self):
        cfg = {"kind": self.kind, "a": self.a, "b": self.b,
               "stability_eps": self.stability_eps, "lipschitz_L": self.lipschitz_L}
        if self.kind == "series":
            cfg["coefficients"] = list(self.coefficients)
        if self.kind == "tabulated":
            cfg["values"] = list(self.values)
        return cfg

    from_dict = classmethod(_from_dict)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def signal_s1(stability_eps=0.4):
    """S(x) = 0.5 * cos(2*pi*x) on [0, 1]."""
    return SignalSpec(kind="closed_form_S1", a=0.0, b=1.0,
                      stability_eps=stability_eps, lipschitz_L=1.1 * np.pi)


def signal_s2(stability_eps=0.5):
    """S(x) = 0.1 + sum_{j<=100000} cos(2*pi*j*x)/(j+3)^2 on [0, 1]."""
    # |S2'| <= 2*pi*sum j/(j+3)^2 = 59.1; leave headroom
    return SignalSpec(kind="closed_form_S2", a=0.0, b=1.0,
                      stability_eps=stability_eps, lipschitz_L=70.0)


def trig_amplitudes(spec):
    """(c0, A, B) with S = c0 + sum_m A[m-1] cos(2 pi m u) + B[m-1] sin(2 pi m u).

    u = (x-a)/(b-a).  Every kind but "tabulated" is such a series.
    """
    if spec.kind == "closed_form_S1":
        return 0.0, np.array([0.5]), np.zeros(1)
    if spec.kind == "closed_form_S2":
        m = np.arange(1, S2_SERIES_CUTOFF + 1)
        return 0.1, (m + 3.0) ** -2.0, np.zeros(S2_SERIES_CUTOFF)
    if spec.kind == "series":  # psi_1 = 1/sqrt(b-a), psi_2m | psi_2m+1 = sqrt(2/(b-a)) cos | sin
        beta = np.append(spec.coefficients, np.zeros(1 - len(spec.coefficients) % 2))
        span = spec.b - spec.a
        scale = math.sqrt(2.0 / span)
        return beta[0] / math.sqrt(span), scale * beta[1::2], scale * beta[2::2]
    raise ValidationError("a tabulated signal has no trigonometric amplitudes")


def evaluate_signal(spec, x):
    """S(x) for scalar or array x inside [a, b]; a series is summed in chunks of terms."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < spec.a - 1e-12) or np.any(x > spec.b + 1e-12):
        raise ValidationError(f"x outside [{spec.a}, {spec.b}]")
    if spec.kind == "tabulated":
        out = np.interp(x, np.linspace(spec.a, spec.b, len(spec.values)), spec.values)
    else:
        c0, A, B = trig_amplitudes(spec)
        u = (x - spec.a) / (spec.b - spec.a)
        out = np.full(x.shape, c0)
        block = max(1, (1 << 20) // max(x.size, 1))
        for start in range(0, len(A), block):
            m = np.arange(start + 1, min(start + block, len(A)) + 1)
            arg = 2.0 * np.pi * np.outer(u, m)
            out += np.cos(arg) @ A[m - 1] + np.sin(arg) @ B[m - 1]
    return float(out[0]) if scalar else out


def signal_values_uniform(spec, N):
    """S at the N+1 uniform points a + (b-a)*i/N, i = 0..N.

    For a series, term m at u = i/N depends on m only through m mod N: the
    amplitudes fold into an N-point spectrum A + iB, and one FFT sums the
    series exactly, as Re((A + iB) e^{-i theta}) = A cos(theta) + B sin(theta).
    """
    if spec.kind == "tabulated":
        return evaluate_signal(spec, spec.a + (spec.b - spec.a) * np.arange(N + 1) / N)
    c0, A, B = trig_amplitudes(spec)
    k = np.arange(1, len(A) + 1) % N
    vals = c0 + np.fft.fft(np.bincount(k, A, N) + 1j * np.bincount(k, B, N)).real
    return np.append(vals, vals[0])  # u = 1 wraps to u = 0


def validate_stability(spec, n):
    """Certify sup|S| <= 1-eps on all of [a, b], hence for every n; check |S'| <= L.

    Exact for piecewise-linear tabulated S.  A series has |dS/du| <= slope_u =
    2 pi sum_m m(|A_m| + |B_m|), so sup|S| <= max|S(i/N)| + slope_u/(2N), with
    N a power of two keeping that slack within _CERT_SLACK * eps.  |S'| is
    checked by finite differences on that grid.  Returns the bound on sup|S|.
    """
    if spec.kind == "tabulated":
        vals = np.asarray(spec.values, dtype=float)
        bound = float(np.max(np.abs(vals)))
    else:
        _, A, B = trig_amplitudes(spec)
        slope_u = 2.0 * np.pi * float(np.arange(1, len(A) + 1) @ (np.abs(A) + np.abs(B)))
        need = min(slope_u / (2.0 * _CERT_SLACK * spec.stability_eps), _CERT_MAX_POINTS)
        vals = signal_values_uniform(spec, 1 << (math.ceil(need) - 1).bit_length())
        bound = float(np.max(np.abs(vals))) + slope_u / (2 * (len(vals) - 1))
    if not bound <= 1.0 - spec.stability_eps + 1e-12:
        raise ValidationError(f"signal violates stability: sup|S| <= {bound:.6g} is not"
                              f" within 1-eps={1 - spec.stability_eps:.6g}")
    deriv = float(np.max(np.abs(np.diff(vals)))) * (len(vals) - 1) / (spec.b - spec.a)
    if not deriv <= spec.lipschitz_L * (1.0 + 1e-6):
        raise ValidationError(
            f"signal violates Lipschitz bound: |S'| ~ {deriv:.6g} > L={spec.lipschitz_L:.6g}")
    return bound


@dataclass(frozen=True)
class NoiseSpec:
    """An i.i.d. noise family: zero mean, unit variance, bounded even moments.

    family "none" injects xi = 0 exactly (the noise-free limit, not a member
    of the admissible class).  bounded_symmetric draws radius*(2*B - 1) with
    B ~ Beta(s, s) and s = (radius^2-1)/2, which has unit variance; radius
    sqrt(3) recovers the uniform law.
    """

    family: str
    varsigma: float = None
    radius: float = math.sqrt(6.0)

    def __post_init__(self):
        if self.family not in _NOISE_FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}; valid: {_NOISE_FAMILIES}")
        if self.varsigma is None:
            object.__setattr__(self, "varsigma", self.default_varsigma())
        if not np.isfinite(np.array([self.varsigma, self.radius], float)).all():
            raise ValidationError("varsigma and radius must be finite (no NaN or inf)")
        if self.family != "none" and self.varsigma < 1.0:
            raise ValidationError("varsigma must be >= 1")
        if self.family == "bounded_symmetric" and self.radius <= 1.0:
            raise ValidationError("bounded_symmetric needs radius > 1 for unit variance")

    def default_varsigma(self):
        # smallest varsigma for which E|xi|^{2l} <= l! varsigma^l holds per family
        return {"gaussian_std": 2.0,
                "uniform_unit_variance": 3.0,
                "bounded_symmetric": max(self.radius ** 2, 1.0),
                "none": 1.0}[self.family]

    def draw(self, rng, size):
        if self.family == "gaussian_std":
            return rng.standard_normal(size)
        if self.family == "uniform_unit_variance":
            return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
        if self.family == "bounded_symmetric":
            s = (self.radius ** 2 - 1.0) / 2.0
            return self.radius * (2.0 * rng.beta(s, s, size) - 1.0)
        return np.zeros(size)

    def to_dict(self):
        cfg = {"family": self.family, "varsigma": self.varsigma}
        if self.family == "bounded_symmetric":
            cfg["radius"] = self.radius
        return cfg

    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class Trajectory:
    """One simulated AR(1) path y_0 = 0, y_1..y_n on design points x_j = a + (b-a)*j/n."""

    n: int
    a: float
    b: float
    y: np.ndarray = field(repr=False)

    @property
    def x(self):
        return self.a + (self.b - self.a) * np.arange(self.n + 1) / self.n


def replication_seed(base_seed, r):
    """Deterministic, independent seed stream for replication r."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(r,))


def generate_trajectory(spec, noise, n, seed, signal_values=None):
    """Simulate y_j = S(x_j) y_{j-1} + xi_j for j = 1..n from y_0 = 0.

    signal_values may carry S(x_j) for j = 0..n (the j = 0 entry is unused),
    as a context holds them; without it S is checked for stability and
    evaluated here.
    """
    if n < 10:
        raise ValidationError(f"need n >= 10, got {n}")
    if signal_values is None:
        validate_stability(spec, n)
        signal_values = signal_values_uniform(spec, n)
    s = np.asarray(signal_values, dtype=float)
    if s.shape != (n + 1,):
        raise ValidationError(f"signal_values must have length n+1={n + 1}")
    xi = noise.draw(np.random.default_rng(seed), n)
    return Trajectory(n=n, a=spec.a, b=spec.b, y=np.append(0.0, _linear_scan(s[1:], xi)))


def _linear_scan(s, xi):
    """y_j = s_j y_{j-1} + xi_j from y_0 = 0, as a two-level scan (Blelloch 1990).

    The steps are cut into blocks of w = [sqrt(n)].  The recurrence runs from 0
    in every block at once, one column at a time, giving z; a scalar loop over
    the blocks carries the value c_b that each block starts from; then
    y = z + c_b * (running product of s within the block).  The first block is
    the plain recurrence; later ones differ from it by rounding only.
    """
    n = len(xi)
    w = math.isqrt(n)
    blocks = -(-n // w)
    pad = blocks * w - n
    # column i of the (w, blocks) arrays holds block i: rows are in-block steps
    s = np.append(s, np.ones(pad)).reshape(blocks, w).T
    z = np.ascontiguousarray(np.append(xi, np.zeros(pad)).reshape(blocks, w).T)
    for r in range(1, w):
        z[r] += s[r] * z[r - 1]
    prod = np.cumprod(s, axis=0)
    carry, c = [], 0.0
    for z_end, p_end in zip(z[-1].tolist(), prod[-1].tolist()):
        carry.append(c)
        c = z_end + c * p_end
    prod *= carry
    z += prod
    return z.T.reshape(-1)[:n]
