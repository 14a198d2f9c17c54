"""Signal evaluation, noise families, and trajectory generation."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tvarseq as tv
from tvarseq import signals
from tvarseq.signals import (
    NoiseSpec,
    SignalSpec,
    ValidationError,
    generate_trajectory,
    replication_seed,
    signal_values_uniform,
    validate_stability,
)

# Frozen reference: 0.1 + sum_{j=1}^{100000} (j+3)^{-2}, direct summation.
S2_AT_ZERO = 0.38381295608710325

ZERO_SIGNAL = SignalSpec(kind="tabulated", values=(0.0, 0.0), stability_eps=0.5,
                         lipschitz_L=1.0)


def const_signal(c):
    return SignalSpec(kind="tabulated", values=(c, c), stability_eps=1.0 - abs(c) - 1e-9,
                      lipschitz_L=1.0)


def scattered_series(spec, x):
    """Reference for the FFT fold: S at scattered points x of [a, b], with the
    trigonometric series summed term by term, in chunks of terms."""
    x = np.asarray(x, dtype=float)
    c0, A, B = spec.amplitudes
    u = (x - spec.a) / (spec.b - spec.a)
    out = np.full(x.shape, c0)
    block = max(1, (1 << 20) // max(x.size, 1))
    for start in range(0, len(A), block):
        m = np.arange(start + 1, min(start + block, len(A)) + 1)
        arg = 2.0 * np.pi * np.outer(u, m)
        out += np.cos(arg) @ A[m - 1] + np.sin(arg) @ B[m - 1]
    return out


def direct_series(c0, A, B, N):
    """Reference for the half-spectrum fold: the series at u = i/N, i = 0..N, summed
    term by term.  m i is reduced mod N in integers, so that each argument is
    exact before it is scaled by 2 pi / N."""
    i = np.arange(N + 1)[:, None]
    m = np.arange(1, len(A) + 1)[None, :]
    arg = 2.0 * np.pi * (i * m % N) / N
    return c0 + np.cos(arg) @ np.asarray(A) + np.sin(arg) @ np.asarray(B)


class TestSeriesValues:
    """_series_values, the one evaluator of a series on a uniform grid, against direct sums."""

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 64, 101])
    @pytest.mark.parametrize("terms", [1, 2, 7, 250])  # 250 > N: terms wrap around mod N
    def test_matches_direct_sum(self, rng, N, terms):
        c0, A, B = rng.standard_normal(), rng.standard_normal(terms), rng.standard_normal(terms)
        got, want = signals._series_values(c0, A, B, N), direct_series(c0, A, B, N)
        assert got.shape == (N + 1,) and got[N] == got[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [2, 3, 16, 45])
    def test_sine_terms_off_the_unit_interval(self, N):
        # psi_3 and psi_5 are sines on [1, 3]: nonzero B, read through the spec
        spec = SignalSpec(kind="series", a=1.0, b=3.0, coefficients=(0.1, 0.2, -0.3, 0.05, 0.15),
                          stability_eps=0.2, lipschitz_L=10.0)
        x = spec.a + (spec.b - spec.a) * np.arange(N + 1) / N
        want = sum(beta * tv.trig_fn(i, x, spec.a, spec.b)
                   for i, beta in enumerate(spec.coefficients, start=1))
        assert np.any(spec.amplitudes[2] != 0.0)
        got = signal_values_uniform(spec, N)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestEvaluateSignal:
    """S at chosen points, read off the uniform grid a + (b-a) i/N that holds them."""

    def test_s1_at_zero(self, s1):
        assert signal_values_uniform(s1, 4)[0] == pytest.approx(0.5, abs=1e-15)

    def test_s1_at_quarter(self, s1):
        assert signal_values_uniform(s1, 4)[1] == pytest.approx(0.0, abs=1e-15)

    def test_s2_at_zero(self, s2):
        assert signal_values_uniform(s2, 8)[0] == pytest.approx(S2_AT_ZERO, abs=1e-10)

    def test_s2_uniform_grid_matches_scattered(self, s2):
        # the folded evaluation on uniform grids must agree with direct summation
        vals = signal_values_uniform(s2, 8)
        np.testing.assert_allclose(vals[[0, 3, 8]], scattered_series(s2, [0.0, 3 / 8, 1.0]),
                                   rtol=0, atol=1e-9)

    def test_series_kind(self):
        spec = SignalSpec(kind="series", coefficients=(0.0, 0.3), stability_eps=0.4,
                          lipschitz_L=10.0)
        # 0.3 * psi_2(x) = 0.3*sqrt(2)*cos(2*pi*x)
        assert signal_values_uniform(spec, 4)[0] == pytest.approx(0.3 * math.sqrt(2), abs=1e-12)

    def test_tabulated_interpolates(self):
        spec = SignalSpec(kind="tabulated", a=1.0, b=3.0, values=(0.1, -0.3, 0.2),
                          stability_eps=0.25)
        # knots at 1, 2, 3; the grid 1 + i/2 adds the midpoints
        np.testing.assert_allclose(signal_values_uniform(spec, 4), [0.1, -0.1, -0.3, -0.05, 0.2],
                                   rtol=0, atol=1e-15)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            SignalSpec(kind="mystery")

    def test_spec_roundtrip(self, s2):
        assert SignalSpec.from_dict(s2.to_dict()) == s2


def moment_2l(family, l):
    """Analytic E|xi|^{2l} of the Gaussian and uniform unit-variance laws."""
    if family == "gaussian_std":
        return float(math.factorial(2 * l)) / (2 ** l * math.factorial(l))
    return 3.0 ** l / (2 * l + 1)


class TestNoise:
    @pytest.mark.parametrize("family,varsigma", [("gaussian_std", 2.0),
                                                 ("uniform_unit_variance", 3.0),
                                                 ("none", 1.0)])
    def test_analytic_moments(self, family, varsigma):
        noise = NoiseSpec(family)
        assert noise.varsigma == varsigma
        # the config echo that every artifact hashes
        assert noise.to_dict() == {"family": family, "varsigma": varsigma}
        if family == "none":
            return
        assert moment_2l(family, 1) == pytest.approx(1.0)  # unit variance
        # class condition E|xi|^{2l} <= l! varsigma^l
        for l in range(1, 8):
            assert moment_2l(family, l) <= math.factorial(l) * varsigma ** l + 1e-12

    @pytest.mark.parametrize("family", ["gaussian_std", "uniform_unit_variance"])
    def test_empirical_moments(self, family, rng):
        m = 10 ** 6
        x = NoiseSpec(family).draw_into(rng, np.empty(m))
        assert abs(x.mean()) < 4 / math.sqrt(m)
        assert abs(x.var() - 1.0) < 4 / math.sqrt(m)
        analytic4 = moment_2l(family, 2)
        assert np.mean(x ** 4) == pytest.approx(analytic4, rel=0.10)

    def test_unknown_family_named(self):
        # the valid families are listed, so the message says what to write instead
        with pytest.raises(ValidationError, match="'cauchy'.*gaussian_std"):
            NoiseSpec("cauchy")


@pytest.mark.parametrize("spec", [
    tv.signal_s1(),
    tv.signal_s2(),
    SignalSpec(kind="series", a=-1.0, b=2.5, coefficients=(0.1, 0.2, -0.05)),
    SignalSpec(kind="tabulated", values=(0.1, -0.3, 0.2), stability_eps=0.25),
], ids=lambda spec: spec.kind)
def test_spec_json_roundtrip(spec):
    # defaults such as stability_eps survive the trip through JSON text
    assert SignalSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_amplitudes_are_computed_once_and_read_only(s2):
    # the certificate computed them when the spec was built; every later read
    # gets the same arrays, which no caller can write through
    series = SignalSpec(kind="series", coefficients=(0.1, 0.2, -0.1), stability_eps=0.3)
    for spec in (s2, series):
        assert spec.amplitudes is spec.amplitudes
        _, A, B = spec.amplitudes
        assert not A.flags.writeable and not B.flags.writeable
    with pytest.raises(ValidationError, match="tabulated"):
        ZERO_SIGNAL.amplitudes


class TestTrajectory:
    def test_zero_signal_gives_pure_noise(self, gaussian):
        # with S = 0 the observations are exactly the noise draws, so a second
        # run with constant S = 0.5 and the same seed satisfies the recursion
        # against them term by term
        n, seed = 500, 42
        pure = generate_trajectory(ZERO_SIGNAL, gaussian, n, seed)
        traj = generate_trajectory(const_signal(0.5), gaussian, n, seed)
        assert pure.y[0] == 0.0
        recon = np.empty(n + 1)
        recon[0] = 0.0
        for j in range(1, n + 1):
            recon[j] = 0.5 * recon[j - 1] + pure.y[j]
        np.testing.assert_allclose(traj.y, recon, rtol=0, atol=1e-12)

    def test_shapes_and_design(self, s1, gaussian):
        traj = generate_trajectory(s1, gaussian, 200, 1)
        assert len(traj.y) == 201
        assert traj.x[-1] == pytest.approx(1.0)
        assert traj.x[0] == 0.0
        assert traj.x[1] == pytest.approx(1.0 / 200)

    def test_determinism(self, s1, gaussian):
        t1 = generate_trajectory(s1, gaussian, 300, 7)
        t2 = generate_trajectory(s1, gaussian, 300, 7)
        np.testing.assert_array_equal(t1.y, t2.y)

    def test_stationary_variance(self, gaussian):
        n = 10 ** 6
        traj = generate_trajectory(const_signal(0.5), gaussian, n, 2024)
        var = float(np.var(traj.y[n // 10:]))
        assert var == pytest.approx(4.0 / 3.0, rel=0.01)

    def test_s1_path_sane(self, s1, gaussian):
        traj = generate_trajectory(s1, gaussian, 200, 5)
        assert np.all(np.isfinite(traj.y))
        assert 0.8 <= float(np.var(traj.y)) <= 2.0

    def test_unstable_spec_rejected(self, gaussian):
        # the spec is certified when it is built, so no unstable path is simulated
        with pytest.raises(ValidationError):
            bad = SignalSpec(kind="tabulated", values=(0.99, 0.99), stability_eps=0.5,
                             lipschitz_L=1.0)
            generate_trajectory(bad, gaussian, 200, 1)

    def test_replication_seeds_differ(self, s1, gaussian):
        t1 = generate_trajectory(s1, gaussian, 200, replication_seed(9, 1))
        t2 = generate_trajectory(s1, gaussian, 200, replication_seed(9, 2))
        assert not np.array_equal(t1.y, t2.y)

    def test_stability_validation_passes_corpus(self, s1, s2):
        validate_stability(s1, 1000)
        validate_stability(s2, 1000)


PRIMES = (11, 13, 101, 997, 1009, 4001, 4999)


@st.composite
def recurrences(draw):
    """n, S(x_j) for j = 0..n and a noise family; S has exact zeros and +-(1-eps)."""
    n = draw(st.one_of(st.integers(10, 5000), st.sampled_from(PRIMES),
                       st.integers(4, 70).map(lambda k: k * k)))
    eps = draw(st.sampled_from([1e-12, 1e-6, 1e-3, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = rng.uniform(-(1.0 - eps), 1.0 - eps, n + 1)
    u = rng.random(n + 1)
    s[u < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    edge = u > 1.0 - draw(st.sampled_from([0.0, 0.1, 0.9, 1.0]))
    s[edge] = (1.0 - eps) * rng.choice([-1.0, 1.0], int(edge.sum()))
    family = draw(st.sampled_from(["gaussian_std", "uniform_unit_variance", "none"]))
    return n, s, NoiseSpec(family), draw(st.integers(0, 2 ** 32 - 1))


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(recurrences())
@example((10, np.full(11, 1.0 - 1e-12), NoiseSpec("gaussian_std"), 0))
@example((4900, np.zeros(4901), NoiseSpec("uniform_unit_variance"), 1))
def test_scan_matches_scalar_recurrence(case):
    n, s, noise, seed = case
    traj = generate_trajectory(ZERO_SIGNAL, noise, n, seed, signal_values=s)
    xi = noise.draw_into(np.random.default_rng(seed), np.empty(n))
    y = [0.0]
    for j in range(1, n + 1):
        y.append(s[j] * y[-1] + xi[j - 1])
    y = np.asarray(y)
    assert traj.y.shape == (n + 1,) and traj.y[0] == 0.0
    assert np.max(np.abs(traj.y - y)) <= 1e-12 * np.max(np.abs(y))
    if noise.family == "none":
        assert np.all(traj.y == 0.0)


ADMISSIBLE = [NoiseSpec("gaussian_std"), NoiseSpec("uniform_unit_variance")]


# numpy's own sampler of each law: the values that draw_into must give
SAMPLER = {"gaussian_std": lambda rng, m: rng.standard_normal(m),
           "uniform_unit_variance": lambda rng, m: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), m)}


@pytest.mark.parametrize("noise", ADMISSIBLE, ids=lambda noise: noise.family)
def test_draw_in_uneven_chunks_is_one_draw(noise):
    # the scan draws its noise a step at a time from the one generator, into a
    # buffer that it reuses: uneven fills of one buffer, one after another, and
    # consecutive fills of the slices of one array, are each one draw
    one = SAMPLER[noise.family](np.random.default_rng(5), 10_007)
    cuts = [0, 1, 100, 101, 3_000, 9_999, 10_007]
    rng, buf = np.random.default_rng(5), np.full(10_007, np.nan)
    chunks = [noise.draw_into(rng, buf[:hi - lo]).copy() for lo, hi in zip(cuts, cuts[1:])]
    assert np.concatenate(chunks).tobytes() == one.tobytes()
    rng, whole = np.random.default_rng(5), np.full(10_007, np.nan)
    for lo, hi in zip(cuts, cuts[1:]):
        noise.draw_into(rng, whole[lo:hi])
    assert whole.tobytes() == one.tobytes()


def test_noise_free_draw_overwrites_the_buffer():
    buf = np.full(7, np.nan)
    assert NoiseSpec("none").draw_into(np.random.default_rng(0), buf) is buf
    assert np.all(buf == 0.0)


@pytest.mark.parametrize("noise", ADMISSIBLE, ids=lambda noise: noise.family)
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("spec", [tv.signal_s1(), tv.signal_s2()], ids=["S1", "S2"])
def test_scan_groups_keep_every_bit(spec, blocks, noise, monkeypatch):
    # n = 10007 has blocks of w = 100 steps and a last block of 7: with 1 or 3
    # blocks per group the path is 101 or 34 groups, the last one padded
    n, w = 10_007, 100
    s = signal_values_uniform(spec, n)
    whole = generate_trajectory(spec, noise, n, 3, signal_values=s).y
    monkeypatch.setattr(signals, "GROUP_BYTES", 8 * w * blocks)
    assert generate_trajectory(spec, noise, n, 3, signal_values=s).y.tobytes() == whole.tobytes()


def as_int64(a):
    """The bits of a float64 array as int64, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def path_stack(noise, n, seeds, s):
    """The paths of seeds as a Monte-Carlo chunk makes them: the groups of one
    trajectory_groups call, joined."""
    return np.concatenate(signals.trajectory_groups(tv.signal_s1(), noise, n, seeds,
                                                    lambda traj: traj.y, s))


def path_stack_and_paths(noise, n, paths, seed=12345):
    """A stack of paths from one call, and the same seeds' paths one call each."""
    s = signal_values_uniform(tv.signal_s1(), n)
    seeds = [replication_seed(seed, r) for r in range(1, paths + 1)]
    stack = path_stack(noise, n, seeds, s)
    one = np.stack([generate_trajectory(tv.signal_s1(), noise, n, sd, signal_values=s).y
                    for sd in seeds])
    return stack, one


@pytest.mark.parametrize("noise", ADMISSIBLE, ids=lambda noise: noise.family)
@pytest.mark.parametrize("n, paths, sizes", [(200, 50, [50]), (500, 50, [50]),
                                             (10_007, 30, [26, 4]), (70_000, 7, [3, 3, 1])])
def test_path_stack_keeps_every_bit(n, paths, sizes, noise):
    # a group holds as many whole paths of n + 1 floats as fit GROUP_BYTES
    assert [len(range(paths)[g]) for g in signals.path_groups(paths, n)] == sizes
    stack, one = path_stack_and_paths(noise, n, paths)
    assert stack.shape == (paths, n + 1)
    assert np.array_equal(as_int64(stack), as_int64(one))


@pytest.mark.parametrize("noise", ADMISSIBLE, ids=lambda noise: noise.family)
@pytest.mark.parametrize("group_bytes", [8 * 3 * 10_008, 8 * 100 * 3],
                         ids=["3-paths", "3-blocks"])
def test_path_groups_keep_every_bit(group_bytes, noise, monkeypatch):
    # 7 paths of n = 10007 in groups of 3, 3 and 1 whole paths, or one path at
    # a time, each in 34 groups of 3 blocks of w = 100 steps
    n, paths = 10_007, 7
    _, one = path_stack_and_paths(noise, n, paths)
    monkeypatch.setattr(signals, "GROUP_BYTES", group_bytes)
    grouped, _ = path_stack_and_paths(noise, n, paths)
    assert len(signals.path_groups(paths, n)) == (3 if group_bytes > 8 * n else 7)
    assert np.array_equal(as_int64(grouped), as_int64(one))


@pytest.mark.parametrize("noise", ADMISSIBLE, ids=lambda noise: noise.family)
def test_step_stream_keeps_every_bit(noise, monkeypatch):
    # 7 paths of n = 10007 in groups of 3, 3 and 1, each path in 34 steps of 3
    # blocks of w = 100: the worker draws every step but the first, across
    # paths and across groups, each into its own z
    n, paths = 10_007, 7
    _, one = path_stack_and_paths(noise, n, paths)
    monkeypatch.setattr(signals, "GROUP_BYTES", 8 * 100 * 3)
    monkeypatch.setattr(signals, "path_groups",
                        lambda count, n: [slice(p, p + 3) for p in range(0, count, 3)])
    s = signal_values_uniform(tv.signal_s1(), n)
    seeds = [replication_seed(12345, r) for r in range(1, paths + 1)]
    groups = signals.trajectory_groups(tv.signal_s1(), noise, n, seeds,
                                       lambda traj: traj.y.copy(), s)
    assert [len(y) for y in groups] == [3, 3, 1]
    assert np.array_equal(as_int64(np.concatenate(groups)), as_int64(one))
    stack, _ = path_stack_and_paths(noise, n, paths)
    assert np.array_equal(as_int64(stack), as_int64(one))


class Boom(Exception):
    pass


def patched_draw(monkeypatch, fail_at=None, error=None):
    """Record the thread of each draw_into call, and make call number fail_at raise
    error; returns the list of threads."""
    threads, real = [], NoiseSpec.draw_into

    def draw_into(self, rng, out):
        threads.append(threading.current_thread())
        if len(threads) == fail_at:
            raise error
        return real(self, rng, out)

    monkeypatch.setattr(NoiseSpec, "draw_into", draw_into)
    return threads


def test_worker_error_reaches_the_caller(s1, gaussian, monkeypatch):
    # n = 300000 is one path of two steps: the first drawn on the calling
    # thread, the second on the worker, which raises
    n = 300_000
    whole = generate_trajectory(s1, gaussian, n, 7).y
    error = Boom("step 2")
    with monkeypatch.context() as patch:
        threads = patched_draw(patch, 2, error)
        with pytest.raises(Boom) as raised:
            generate_trajectory(s1, gaussian, n, 7)
    assert raised.value is error
    assert threads[0] is threading.main_thread() and threads[1] is not threading.main_thread()
    # the next call, on a worker of its own, keeps every bit
    assert generate_trajectory(s1, gaussian, n, 7).y.tobytes() == whole.tobytes()


def test_worker_error_reaches_run_cell(s1, gaussian, monkeypatch):
    # at n = 10^4 a chunk of 50 paths is two steps of 26 and 24 paths: draw 27
    # is the worker's first
    cell = tv.run_cell(s1, gaussian, 10_000, 50, 7)
    error = Boom("step 2")
    with monkeypatch.context() as patch:
        threads = patched_draw(patch, 27, error)
        with pytest.raises(Boom) as raised:
            tv.run_cell(s1, gaussian, 10_000, 50, 7)
    assert raised.value is error and threads[-1] is not threading.main_thread()
    assert tv.run_cell(s1, gaussian, 10_000, 50, 7).rbar == cell.rbar


def test_concurrent_callers_keep_their_bits(monkeypatch):
    # three callers at once, under a short switch interval, each drawing on a
    # worker of its own; each call keeps the bits that it gets alone
    monkeypatch.setattr(signals, "GROUP_BYTES", 8 * 100 * 3)
    n, noise = 10_007, NoiseSpec("uniform_unit_variance")
    s = signal_values_uniform(tv.signal_s1(), n)
    alone = [path_stack(noise, n, [k, k + 1], s) for k in range(3)]
    together = {}

    def call(k):
        together[k] = path_stack(noise, n, [k, k + 1], s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for k in range(3):
        assert np.array_equal(as_int64(together[k]), as_int64(alone[k]))


def path_bytes(n, seed):
    return generate_trajectory(tv.signal_s1(), NoiseSpec("gaussian_std"), n, seed).y.tobytes()


def test_forked_child_makes_its_own_worker():
    # a child made by fork has no copy of the parent's threads: were the worker
    # kept across calls in the process, the child would hand its steps to an
    # executor whose thread it lacks and wait for them for ever
    whole = path_bytes(300_000, 7)  # two steps: the parent has run a worker
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(path_bytes, (300_000, 7)).get(timeout=60) == whole


def test_one_step_call_draws_on_the_calling_thread(s1, gaussian, monkeypatch):
    threads, count = patched_draw(monkeypatch), threading.active_count()
    signals.trajectory_groups(s1, gaussian, 10_000, [1, 2, 3], lambda traj: None)
    assert threads == [threading.main_thread()] * 3
    assert threading.active_count() == count


def draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tvarseq-draw")]


def test_no_draw_thread_outlives_its_call(s1, gaussian, monkeypatch):
    # a path of two steps, a Monte-Carlo chunk of two steps, and a call whose
    # worker raises each end with their worker gone
    generate_trajectory(s1, gaussian, 300_000, 7)
    assert draw_threads() == []
    tv.run_cell(s1, gaussian, 10_000, 50, 7)
    assert draw_threads() == []
    threads = patched_draw(monkeypatch, 2, Boom("step 2"))
    with pytest.raises(Boom):
        generate_trajectory(s1, gaussian, 300_000, 7)
    assert threads[1].name.startswith("tvarseq-draw") and not threads[1].is_alive()
    assert draw_threads() == []


def test_stage_error_waits_for_the_pending_draw(monkeypatch):
    # 7 paths of n = 10007, one at a time in 34 steps of 3 blocks: the first
    # path's stage raises while the worker makes draw 35, the second path's
    # first, which is slowed so that it is still running
    n, paths, noise = 10_007, 7, NoiseSpec("gaussian_std")
    _, one = path_stack_and_paths(noise, n, paths)
    monkeypatch.setattr(signals, "GROUP_BYTES", 8 * 100 * 3)
    s = signal_values_uniform(tv.signal_s1(), n)
    seeds = [replication_seed(12345, r) for r in range(1, paths + 1)]
    entries, exits, real = [], [], NoiseSpec.draw_into

    def draw_into(self, rng, out):
        entries.append(threading.current_thread())
        try:
            if len(entries) == 35:
                time.sleep(0.1)
            return real(self, rng, out)
        finally:
            exits.append(threading.current_thread())

    def stage(traj):
        raise Boom("stage")

    with monkeypatch.context() as patch:
        patch.setattr(NoiseSpec, "draw_into", draw_into)
        with pytest.raises(Boom):
            signals.trajectory_groups(tv.signal_s1(), noise, n, seeds, stage, s)
        assert len(entries) == len(exits) == 35
    assert entries[-1] is not threading.main_thread()
    assert np.array_equal(as_int64(path_stack(noise, n, seeds, s)), as_int64(one))


def test_one_seed_list_is_a_stack_of_one(s1, gaussian):
    traj = generate_trajectory(s1, gaussian, 300, 7)
    [stack] = signals.trajectory_groups(s1, gaussian, 300, [7], lambda traj: traj)
    assert stack.y.shape == (1, 301)
    assert np.array_equal(as_int64(stack.y[0]), as_int64(traj.y))


def test_empty_seed_list_is_no_group(s1, gaussian, monkeypatch):
    threads, staged = patched_draw(monkeypatch), []
    assert signals.trajectory_groups(s1, gaussian, 300, [], staged.append) == []
    assert staged == [] and threads == []


def test_seed_list_is_the_entropy_of_one_path(s1, gaussian):
    # generate_trajectory simulates one path: a list seeds numpy's generator
    traj = generate_trajectory(s1, gaussian, 300, [7, 8])
    assert traj.y.shape == (301,)
    entropy = generate_trajectory(s1, gaussian, 300, np.random.SeedSequence([7, 8]))
    assert np.array_equal(as_int64(traj.y), as_int64(entropy.y))


def random_series(rng, a=-1.0, b=2.0, n_freq=40, eps=0.5):
    """A cos+sin series on [a, b] with frequencies 1..n_freq and a constant term."""
    beta = rng.normal(scale=0.01, size=2 * n_freq + 1)
    return SignalSpec(kind="series", a=a, b=b, coefficients=tuple(beta.tolist()),
                      stability_eps=eps, lipschitz_L=1e3)


class TestSeriesEngine:
    def test_fold_matches_scattered_with_aliasing(self):
        # frequencies up to 40 on a 16-point grid: every m >= 16 aliases onto m mod 16
        spec = random_series(np.random.default_rng(3))
        N = 16
        x = spec.a + (spec.b - spec.a) * np.arange(N + 1) / N
        np.testing.assert_allclose(signal_values_uniform(spec, N), scattered_series(spec, x),
                                   rtol=0, atol=1e-13)

    def test_s1_fold_is_the_cosine(self, s1):
        for N in (200, 501, 10 ** 4):
            x = np.arange(N + 1) / N
            np.testing.assert_allclose(signal_values_uniform(s1, N), 0.5 * np.cos(2 * np.pi * x),
                                       rtol=0, atol=1e-15)

    def test_series_matches_basis_functions(self):
        spec = random_series(np.random.default_rng(4), n_freq=3)
        x = np.linspace(spec.a, spec.b, 7)
        expected = sum(beta * tv.trig_fn(i, x, spec.a, spec.b)
                       for i, beta in enumerate(spec.coefficients, start=1))
        np.testing.assert_allclose(scattered_series(spec, x), expected, rtol=0, atol=1e-15)


def peaked_between_grid_points(stability_eps):
    """S = 0.605 cos(2 pi 50 (x - 0.0005)): the peak 0.605 lies midway between the
    points i/1000, where |S| is at most 0.5976."""
    phi = 2 * math.pi * 50 * 0.0005
    beta = [0.0] * 101
    beta[99] = 0.605 * math.cos(phi) / math.sqrt(2)
    beta[100] = 0.605 * math.sin(phi) / math.sqrt(2)
    return SignalSpec(kind="series", coefficients=tuple(beta), stability_eps=stability_eps,
                      lipschitz_L=400.0)


class TestStabilityCertificate:
    def test_rejects_peak_between_scan_points(self):
        # at eps = 0.39 the peak 0.605 is within 1 - eps, so the spec can be built
        scanned = peaked_between_grid_points(0.39)
        assert np.max(np.abs(signal_values_uniform(scanned, 1000))) < 0.6
        with pytest.raises(ValidationError, match="stability"):
            validate_stability(peaked_between_grid_points(0.4), 100)

    def test_bound_is_certified_and_tight(self, s1, s2):
        bound = validate_stability(s1, 1000)
        assert 0.5 <= bound <= 0.5 + 1e-3 * s1.stability_eps
        bound = validate_stability(s2, 1000)
        assert S2_AT_ZERO <= bound <= S2_AT_ZERO + 1e-3 * s2.stability_eps

    def test_bound_is_the_scan_of_the_public_evaluator(self, s1, s2):
        # the certificate reads the amplitudes once, yet gives the same bits as
        # max|S| on signal_values_uniform's grid plus the slope slack
        shifted = SignalSpec(kind="series", coefficients=(0.1, 0.2, -0.1, 0.05, 0.03),
                             a=1.0, b=3.0, stability_eps=0.3, lipschitz_L=50.0)
        for spec in (s1, s2, shifted):
            _, A, B = spec.amplitudes
            slope_u = 2.0 * np.pi * float(np.arange(1, len(A) + 1) @ (np.abs(A) + np.abs(B)))
            need = min(slope_u / (2e-3 * spec.stability_eps), 1 << 20)
            N = 1 << (math.ceil(need) - 1).bit_length()
            scan = float(np.max(np.abs(signal_values_uniform(spec, N))))
            assert validate_stability(spec, 0) == scan + slope_u / (2 * N)

    def test_tabulated_is_exact(self):
        tent = dict(kind="tabulated", values=(0.0, 0.9, 0.0), lipschitz_L=1.8)
        assert validate_stability(SignalSpec(stability_eps=0.1, **tent), 200) == 0.9
        with pytest.raises(ValidationError, match="stability"):
            validate_stability(SignalSpec(stability_eps=0.11, **tent), 200)
        with pytest.raises(ValidationError, match="Lipschitz"):
            validate_stability(SignalSpec(stability_eps=0.1, **{**tent, "lipschitz_L": 1.79}),
                               200)

    def test_lipschitz_checked_for_series(self):
        # 0.3 psi_2 has |S'| = 0.3 sqrt(2) 2 pi = 2.67
        with pytest.raises(ValidationError, match="Lipschitz"):
            steep = SignalSpec(kind="series", coefficients=(0.0, 0.3), stability_eps=0.4,
                               lipschitz_L=2.6)
            validate_stability(steep, 200)


class TestSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("coefficients", (math.nan, 0.1)), ("coefficients", (0.0, math.inf)),
        ("a", -math.inf), ("b", math.inf), ("stability_eps", math.nan),
        ("lipschitz_L", math.nan), ("lipschitz_L", math.inf)])
    def test_non_finite_series_rejected(self, field, value):
        cfg = {"kind": "series", "coefficients": (0.0, 0.1), field: value}
        with pytest.raises(ValidationError, match="finite"):
            SignalSpec(**cfg)

    def test_non_finite_tabulated_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            SignalSpec(kind="tabulated", values=(0.0, math.nan))

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="bogus"):
            SignalSpec.from_dict({"kind": "series", "coefficients": [0.1], "bogus": 1})

    def test_missing_kind_named(self):
        with pytest.raises(ValidationError, match="kind"):
            SignalSpec.from_dict({"coefficients": [0.1]})


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(tv.__file__))
    code = "import sys, tvarseq; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"
