"""Signal functions, the admissible noise families, and AR(1) path generation.

The observation model is y_j = S(x_j) * y_{j-1} + xi_j on design points
x_j = a + (b-a)*j/n.  S must lie in the stability set: |S| <= 1 - eps and
|S'| <= L on [a, b].  The noise is zero mean, unit variance, with factorially
bounded even moments E|xi|^{2l} <= l! * varsigma^l: Gaussian or uniform here,
the robust risk being the max over the two.
"""

from dataclasses import dataclass, field
import functools
import json
import math
import numbers

import numpy as np

S2_SERIES_CUTOFF = 100000
_CERT_SLACK = 1e-3          # certificate slack slope_u/(2N) as a share of eps
_CERT_MAX_POINTS = 1 << 20  # cap on the certification grid
# the scan and the window gather run on groups of about this many bytes per array
GROUP_BYTES = 1 << 21

_SIGNAL_KINDS = ("closed_form_S1", "closed_form_S2", "series", "tabulated")
# per family, a varsigma for which the bound E|xi|^{2l} <= l! varsigma^l holds
_NOISE_VARSIGMA = {"gaussian_std": 2.0, "uniform_unit_variance": 3.0, "none": 1.0}


class ValidationError(ValueError):
    """Bad input: a spec, an argument or a combination of them breaks a declared invariant.

    It is the one error class the package raises on purpose."""


@dataclass(frozen=True)
class SignalSpec:
    """A coefficient function S on [a, b] with stability parameters.

    kind "series" is sum_i coefficients[i] * psi_i(x) over the trigonometric
    basis; "tabulated" interpolates the given values on a uniform x grid.  The
    closed forms S1 and S2 are functions of u = (x-a)/(b-a), which is x on [0, 1].
    A spec is certified stable when it is built (validate_stability), so every
    SignalSpec that exists satisfies |S| <= 1 - eps and |S'| <= L on [a, b].
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
        real = lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
        for name in ("a", "b", "stability_eps", "lipschitz_L"):
            if not real(getattr(self, name)):
                raise ValidationError(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name, kind in (("coefficients", "series"), ("values", "tabulated")):
            seq = getattr(self, name)
            if not isinstance(seq, (tuple, list)) or not all(map(real, seq)):
                raise ValidationError(f"{name} must be a list of real numbers, got {seq!r}")
            if seq and self.kind != kind:
                raise ValidationError(f"{name} is read by kind {kind!r} only, not {self.kind!r}")
        if not np.isfinite(np.array([self.a, self.b, self.stability_eps, self.lipschitz_L,
                                     *self.coefficients, *self.values], float)).all():
            raise ValidationError("signal parameters must be finite (no NaN or inf)")
        if not self.b > self.a:
            raise ValidationError("need b > a")
        if not math.isfinite(self.b - self.a):
            raise ValidationError(f"interval width b - a overflows: [{self.a}, {self.b}]")
        if not 0.0 < self.stability_eps < 1.0:
            raise ValidationError("stability_eps must be in (0, 1)")
        if self.lipschitz_L <= 0:
            raise ValidationError("lipschitz_L must be positive")
        if self.kind == "series" and len(self.coefficients) == 0:
            raise ValidationError("series kind needs coefficients")
        if self.kind == "tabulated" and len(self.values) < 2:
            raise ValidationError("tabulated kind needs at least 2 values")
        validate_stability(self, 0)

    def to_dict(self):
        cfg = {"kind": self.kind, "a": self.a, "b": self.b,
               "stability_eps": self.stability_eps, "lipschitz_L": self.lipschitz_L}
        if self.kind == "series":
            cfg["coefficients"] = list(self.coefficients)
        if self.kind == "tabulated":
            cfg["values"] = list(self.values)
        return cfg

    @functools.cached_property
    def amplitudes(self):
        """(c0, A, B) with S = c0 + sum_m A[m-1] cos(2 pi m u) + B[m-1] sin(2 pi m u).

        u = (x-a)/(b-a).  Every kind but "tabulated" is such a series.  A spec
        computes them once, when its certificate reads them, and holds them
        read-only: the context's two evaluations of S reuse them.
        """
        if self.kind == "tabulated":
            raise ValidationError("a tabulated signal has no trigonometric amplitudes")
        if self.kind == "closed_form_S1":
            c0, A, B = 0.0, np.array([0.5]), np.zeros(1)
        elif self.kind == "closed_form_S2":
            m = np.arange(1, S2_SERIES_CUTOFF + 1)
            c0, A, B = 0.1, (m + 3.0) ** -2.0, np.zeros(S2_SERIES_CUTOFF)
        else:
            c0, A, B = _psi_amplitudes(self.coefficients, self.a, self.b)
        A.setflags(write=False)
        B.setflags(write=False)
        return c0, A, B

    @classmethod
    def from_dict(cls, cfg):
        """A spec from a JSON object (lists become tuples); a bad or missing key is named."""
        if not isinstance(cfg, dict):
            raise ValidationError(f"a {cls.__name__} must be a JSON object, "
                                  f"got {type(cfg).__name__}")
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()})
        except TypeError as exc:
            raise ValidationError(f"bad {cls.__name__}: {exc}") from None

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def signal_s1():
    """S(x) = 0.5 * cos(2*pi*x) on [0, 1]."""
    return SignalSpec(kind="closed_form_S1", a=0.0, b=1.0,
                      stability_eps=0.4, lipschitz_L=1.1 * np.pi)


def signal_s2():
    """S(x) = 0.1 + sum_{j<=100000} cos(2*pi*j*x)/(j+3)^2 on [0, 1]."""
    # |S2'| <= 2*pi*sum j/(j+3)^2 = 59.1; leave headroom
    return SignalSpec(kind="closed_form_S2", a=0.0, b=1.0,
                      stability_eps=0.5, lipschitz_L=70.0)


def _psi_amplitudes(c, a, b):
    """(c0, A, B) of sum_j c_j psi_j on [a, b], along the last axis of c (one row per
    leading index): psi_1 = 1/sqrt(b-a), psi_2m | psi_2m+1 = sqrt(2/(b-a)) cos | sin."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1] % 2 == 0:
        c = np.concatenate((c, np.zeros(c.shape[:-1] + (1,))), axis=-1)
    span, scale = b - a, math.sqrt(2.0 / (b - a))
    return c[..., 0] / math.sqrt(span), scale * c[..., 1::2], scale * c[..., 2::2]


def signal_values_uniform(spec, N):
    """S at the N+1 uniform points a + (b-a)*i/N, i = 0..N.

    For a series, term m at u = i/N depends on m only through k = m mod N, and
    term k equals term N - k with the sign of its sine flipped: the amplitudes
    fold into the N/2 + 1 bins of a Hermitian half spectrum, and one inverse
    real FFT sums the series exactly.
    """
    if spec.kind == "tabulated":
        return np.interp(spec.a + (spec.b - spec.a) * np.arange(N + 1) / N,
                         np.linspace(spec.a, spec.b, len(spec.values)), spec.values)
    return _series_values(*spec.amplitudes, N)


def _series_values(c0, A, B, N):
    """The series c0 + sum_m A_m cos(2 pi m u) + B_m sin(2 pi m u) at u = i/N, i = 0..N,
    along the last axis (one series per leading index of c0, A and B).

    Term m acts as term k = m mod N (_fold), and term k > N/2 as term N - k with
    its sine negated.  So bin j = min(k, N - k) of a half spectrum takes
    (A_k - iB_k)/2, or (A_k + iB_k)/2 for k > N/2; bins 0 and N/2 (N even) take
    their terms whole.  The unnormalized inverse real FFT then gives
    bin_0 + sum_j 2 Re(bin_j e^{2 pi i j u}) (+ bin_{N/2} (-1)^i): the series.
    """
    bins = N // 2 + 1
    a, b = _fold(c0, A, N), _fold(np.zeros(np.shape(c0)), B, N)
    spec = np.zeros(a.shape[:-1] + (bins,), complex)
    spec.real[..., :a.shape[-1]] = a[..., :bins]
    spec.imag[..., :b.shape[-1]] = -b[..., :bins]
    mirror = slice(N - bins, N - a.shape[-1], -1)  # bins N - k for k = bins, bins + 1, ..
    spec.real[..., mirror] += a[..., bins:]
    spec.imag[..., mirror] += b[..., bins:]
    spec[..., 1:(N + 1) // 2] *= 0.5
    vals = np.empty(a.shape[:-1] + (N + 1,))
    np.fft.irfft(spec, N, norm="forward", out=vals[..., :N])
    vals[..., N] = vals[..., 0]  # u = 1 wraps to u = 0
    return vals


def _fold(c0, amp, N):
    """t_k = sum of the terms m = 0..L (term 0 is c0, term m is amp[m-1]) with
    m = k mod N, for k < min(N, L + 1), summed in the order of m: one sum over
    the rows of the terms laid out N to a row (per leading index)."""
    terms = np.concatenate((np.expand_dims(c0, -1), amp), axis=-1)
    rows, rest = divmod(terms.shape[-1], N)
    if rows == 0:
        return terms
    folded = terms[..., :rows * N].reshape(terms.shape[:-1] + (rows, N)).sum(axis=-2)
    folded[..., :rest] += terms[..., rows * N:]
    return folded


def validate_stability(spec, n):
    """Certify sup|S| <= 1-eps on all of [a, b], hence for every n; check |S'| <= L.
    n is unread: SignalSpec runs this once, with n = 0, when it is built.

    Exact for piecewise-linear tabulated S.  A series has |dS/du| <= slope_u =
    2 pi sum_m m(|A_m| + |B_m|), so sup|S| <= max|S(i/N)| + slope_u/(2N), with
    N a power of two keeping that slack within _CERT_SLACK * eps.  |S'| is
    checked by finite differences on that grid.  Returns the bound on sup|S|.
    Amplitudes too large for a float overflow to inf or nan, which the bound
    check rejects.
    """
    if spec.kind == "tabulated":
        vals = np.asarray(spec.values, dtype=float)
        bound = float(np.max(np.abs(vals)))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            c0, A, B = spec.amplitudes
            slope_u = 2.0 * np.pi * float(np.arange(1, len(A) + 1) @ (np.abs(A) + np.abs(B)))
            need = min(slope_u / (2.0 * _CERT_SLACK * spec.stability_eps), _CERT_MAX_POINTS)
            vals = _series_values(c0, A, B, 1 << (math.ceil(need) - 1).bit_length())
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
    """An i.i.d. noise law: gaussian_std, uniform_unit_variance or none.

    family "none" injects xi = 0 exactly (the noise-free limit, not a member
    of the admissible class).  varsigma is read off the family.
    """

    family: str

    def __post_init__(self):
        if self.family not in _NOISE_VARSIGMA:
            raise ValidationError(f"unknown noise family {self.family!r}; valid: {[*_NOISE_VARSIGMA]}")

    @property
    def varsigma(self):
        return _NOISE_VARSIGMA[self.family]

    def draw_into(self, rng, out):
        """Write the next len(out) draws of rng into out, a contiguous float64 array;
        returns out.  Consecutive fills give the values of one draw of their total
        length.  The uniform draw is -sqrt3 + 2 sqrt3 * random(), rounded as
        rng.uniform(-sqrt3, sqrt3) rounds it."""
        if self.family == "gaussian_std":
            rng.standard_normal(out=out)
        elif self.family == "uniform_unit_variance":
            rng.random(out=out)
            out *= 2.0 * math.sqrt(3.0)
            out += -math.sqrt(3.0)
        else:
            out[...] = 0.0
        return out

    def to_dict(self):
        return {"family": self.family, "varsigma": self.varsigma}


@dataclass(frozen=True)
class Trajectory:
    """A simulated AR(1) path y_0 = 0, y_1..y_n on design points x_j = a + (b-a)*j/n,
    or a stack of such paths: y has shape (n+1,) or (paths, n+1)."""

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


def _check_span(n, a, b):
    """Reject n points on [a, b] when 2 pi n (b-a) overflows: it bounds every product
    that the partition, the design points and the trigonometric basis form."""
    try:
        finite = math.isfinite(2.0 * math.pi * n * (b - a))
    except OverflowError:  # an int n beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"n={n} points on [{a}, {b}] overflow: 2 pi n (b-a) is not finite")


def path_groups(paths, n):
    """Slices of a stack of paths of n steps, one per group: as many whole paths
    as fit GROUP_BYTES per array, and at least one."""
    per = max(1, GROUP_BYTES // (8 * (n + 1)))
    return [slice(p, p + per) for p in range(0, paths, per)]


def generate_trajectory(spec, noise, n, seed, signal_values=None):
    """Simulate y_j = S(x_j) y_{j-1} + xi_j for j = 1..n from y_0 = 0: one path,
    drawn from numpy's generator of seed (anything np.random.default_rng takes).

    signal_values may carry S(x_j) for j = 0..n (the j = 0 entry is unused), as
    a context holds them; without it S is evaluated here.  The spec was
    certified stable when it was built.  This is trajectory_groups of [seed],
    whose one group is the one path.
    """
    [y] = trajectory_groups(spec, noise, n, [seed], lambda traj: traj.y[0], signal_values)
    return Trajectory(n=n, a=spec.a, b=spec.b, y=y)


def trajectory_groups(spec, noise, n, seeds, stage, signal_values=None):
    """The paths of seeds, one group of them at a time (path_groups): returns
    [stage(Trajectory of the group's (paths, n+1) stack) for each group].

    Path i is drawn from seed i's own generator and gets the bits that it gets
    on its own.  A group's stack is dropped once stage returns, before the next
    group's is made, so one group's paths are alive at a time.  signal_values
    is read as by generate_trajectory.

    The simulation is a two-level scan of the recurrence (Blelloch 1990).  The
    indices j = 1..n are cut into blocks of w = [sqrt(n)].  The recurrence runs
    from 0 in every block at once, one row at a time, giving z; a scalar loop
    over the blocks carries the value c that each block starts from; then
    y = z + c * (running product of s within the block).  The first block is
    the plain recurrence; later ones differ from it by rounding only.

    Every block is independent but for its carry, so the blocks run a step at
    a time, about GROUP_BYTES per array.  A step is one group of blocks of one
    group of paths: the blocks of all its paths side by side, or, for a path
    too long to fit a group alone, a group of its blocks, c running on across
    them.  Each path draws its noise one step at a time from its own
    generator, which gives the values of one draw.

    The first step draws its noise on the calling thread, so a call of one
    step never starts a second one.  While step i is scanned, and while stage
    runs on a group just finished, one worker thread draws step i+1 and lays
    it out as that step's z: numpy releases the interpreter lock for both the
    draw and the copy.  The worker is the call's own: it starts when the
    second step is handed to it and has ended when the call returns or
    raises.  It allocates nothing.  It writes into the step's z, made on the
    calling thread as the step is handed over, and into one draw buffer of
    one path's step, made once per call.  So the overlap
    holds one more z and no more, and the worker thread never grows an
    allocator arena of its own.  From n of about 2.7e5, a step's rows are
    narrower than the 500 elements above which numpy's ufuncs release the
    lock: the row loop then holds it, and the worker waits for the 5 ms
    switch interval (one n = 10^6 S1 cell of M = 4 waited about 45 ms over
    its 15 drawn steps).
    """
    if n < 10:
        raise ValidationError(f"need n >= 10, got {n}")
    _check_span(n, spec.a, spec.b)
    if signal_values is None:
        signal_values = signal_values_uniform(spec, n)
    s = np.asarray(signal_values, dtype=float)
    if s.shape != (n + 1,):
        raise ValidationError(f"signal_values must have length n+1={n + 1}")
    w = math.isqrt(n)
    per = w * -(-GROUP_BYTES // (8 * w))  # indices j per step of one path: whole blocks
    rngs = [np.random.default_rng(sd) for sd in seeds]
    steps = [(rngs[paths], start, min(per, n + 1 - start))
             for paths in path_groups(len(rngs), n) for start in range(1, n + 1, per)]
    xi = np.empty(w * -(-min(per, n) // w))

    def draw_args(i):  # step i's arguments to _draw_blocks; its z is made on this thread
        group, _, m = steps[i]
        blocks = -(-m // w)
        return noise, group, m, xi[:blocks * w], np.empty((w, len(group) * blocks))

    # imported here, not at the top: about 5 ms that every import of tvarseq would pay
    from concurrent.futures import ThreadPoolExecutor
    out = []
    # leaving the block waits for a draw still writing into this call's buffers
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tvarseq-draw") as worker:
        for i, (group, start, m) in enumerate(steps):
            z = pending.result() if i else _draw_blocks(*draw_args(0))
            pending = (worker.submit(_draw_blocks, *draw_args(i + 1))
                       if i + 1 < len(steps) else None)
            if start == 1:
                y = np.empty((len(group), n + 1))
                y[:, 0] = 0.0
                c = [0.0] * len(group)
            c = _scan_group(s[start:start + m], z, c, y[:, start:start + m])
            z = None  # a stage runs with the next step's z alive, not this one's too
            if start + m > n:
                out.append(stage(Trajectory(n=n, a=spec.a, b=spec.b, y=y)))
                y = None
    return out


def _draw_blocks(noise, rngs, m, xi, z):
    """The next m noise values of each generator of rngs, laid out in z: column
    i * blocks + j of the (w, len(rngs) * blocks) z holds block j of path i, rows
    being in-block steps, the last block padded with zeros.  xi is the buffer
    of one path's blocks."""
    w = len(z)
    blocks = len(xi) // w
    xi[m:] = 0.0
    for i, rng in enumerate(rngs):
        noise.draw_into(rng, xi[:m])
        z.T[i * blocks:(i + 1) * blocks] = xi.reshape(blocks, w)
    return z


def _scan_group(s, z, c, out):
    """The two-level scan over one step, into out: row i of out is path i, whose
    blocks z holds as _draw_blocks lays them out, run from carry c[i]; returns
    the carries after the step.  s holds the step's s_j."""
    paths, m = out.shape
    w, cols = z.shape
    blocks = cols // paths
    pad = blocks * w - m
    if pad:
        s = np.append(s, np.ones(pad))
    # every path's blocks read the same s: a view for one path, a copy for more
    s = np.broadcast_to(s.reshape(blocks, w), (paths, blocks, w)).reshape(-1, w).T
    for r in range(1, w):
        z[r] += s[r] * z[r - 1]
    prod = np.cumprod(s, axis=0)
    z_end, p_end = z[-1].tolist(), prod[-1].tolist()
    carry, ends = [], []
    for c_i, i in zip(c, range(0, paths * blocks, blocks)):  # each path from its own carry
        for z_e, p_e in zip(z_end[i:i + blocks], p_end[i:i + blocks]):
            carry.append(c_i)
            c_i = z_e + c_i * p_e
        ends.append(c_i)
    prod *= carry
    z += prod
    full = m // w  # blocks written in full; a padded last block gives its head
    out[:, :full * w].reshape(paths, full, w)[...] = z.T.reshape(paths, blocks, w)[:, :full]
    out[:, full * w:] = z[:m - full * w, blocks - 1::blocks].T
    return ends
