"""Grid partition and the two-stage sequential pointwise estimator."""

import dataclasses
import math

import numpy as np
import pytest

import tvarseq as tv
from tvarseq import signals
from tvarseq.sequential import (
    MU0,
    POINT_FIELDS,
    _running_sum,
    build_regression,
    compute_partition,
    eps_tilde,
    grid_size,
    preliminary_estimate,
    project_estimate,
    regression_columns,
    run_stopping_rule,
    sequential_estimate,
    threshold,
)
from tvarseq.signals import NoiseSpec, ValidationError, generate_trajectory, replication_seed


class TestPartition:
    def test_n200_shape(self):
        part = compute_partition(200)
        assert part.d == 15
        assert 1.0 / (2 * part.d) == pytest.approx(1.0 / 30)  # h = (b-a)/(2d) on [0, 1]
        assert part.k1[0] == 7 and part.k2[0] == 20

    def test_n200_preliminary_window(self):
        part = compute_partition(200)
        assert MU0 == 0.5
        assert part.q_pre == 2
        assert part.iota[0] == 9

    def test_d_odd_and_formula(self):
        for n in (100, 200, 500, 10000, 70000):
            d = grid_size(n)
            assert d % 2 == 1
            assert d == 2 * int(math.sqrt(n) / 2) + 1

    def test_windows_disjoint(self):
        for n in (100, 500, 10000):
            part = compute_partition(n)
            assert np.all(part.k2[:-1] < part.k1[1:])
            assert np.all(part.iota < part.k2)
            assert part.z[-1] == pytest.approx(1.0)

    def test_windows_adjacent_for_every_n(self):
        # no n is rejected, and no window shifted, by rounding at a window boundary
        for n in (118, 580, 2048, 8372, *range(100, 3001, 7)):
            part = compute_partition(n)
            np.testing.assert_array_equal(part.k1[1:], part.k2[:-1] + 1)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            compute_partition(50)


class TestPreliminary:
    def test_exact_ratio(self):
        # geometric stream y_j = 0.3 y_{j-1}: the ratio is exactly 0.3
        y = 0.3 ** np.arange(5)
        assert preliminary_estimate(y[:-1], y[1:]) == pytest.approx(0.3, abs=1e-14)

    def test_degenerate_zero(self):
        y = np.zeros(10)
        assert preliminary_estimate(y[1:5], y[2:6]) == 0.0

    def test_hand_ratio(self):
        # window values y = (1, 2, 4) at indices (k1-1, k1, iota = k1+1)
        y = np.array([1.0, 2.0, 4.0])
        assert preliminary_estimate(y[:2], y[1:]) == pytest.approx(2.0, abs=1e-14)


class TestProjection:
    def test_clamp_upper(self):
        eps = 1.0 / (2.0 + math.log(200))
        assert project_estimate(2.0, 200) == pytest.approx(1.0 - eps, abs=1e-12)
        assert project_estimate(2.0, 200) == pytest.approx(0.862990, abs=1e-5)

    def test_interior(self):
        assert project_estimate(0.0, 200) == 0.0

    def test_clamp_lower(self):
        assert project_estimate(-5.0, 200) == pytest.approx(-0.862990, abs=1e-5)


class TestThreshold:
    def test_arithmetic(self):
        H = threshold(0.0, 20, 9, 200)
        eps = 1.0 / (2.0 + math.log(200))
        assert H == pytest.approx((1.0 - eps) * 11, abs=1e-12)
        assert H == pytest.approx(9.4929, abs=5e-4)

    def test_unit_denominator_shape(self):
        # the clamp margin vanishes with n and H -> k2 - iota for s = 0
        prev = 0.0
        for n in (200, 10 ** 4, 10 ** 8, 10 ** 12):
            H = threshold(0.0, 20, 9, n)
            assert prev < H < 11.0
            prev = H
        assert threshold(0.0, 20, 9, 10 ** 12) == pytest.approx(11.0, rel=0.04)

    def test_monotone_in_s(self):
        assert threshold(0.5, 20, 9, 200) > threshold(0.2, 20, 9, 200) > threshold(0.0, 20, 9, 200)


class TestStoppingRule:
    # x = y_iota, y_{iota+1}, ..., last = k2 - iota - 1 and tau = iota + 1 + step

    def test_constant_stream(self):
        # u = (4, 4, 4, ...), H = 9 -> stop at the third term, kappa = 0.5
        x = np.full(6, 2.0)
        step, kappa, gamma = run_stopping_rule(x, last=4, H=9.0)
        assert step == 2
        assert kappa == pytest.approx(0.5, abs=1e-14)
        assert gamma

    def test_immediate_stop(self):
        x = np.array([4.0, 1.0, 1.0, 1.0])
        H = 9.0
        step, kappa, gamma = run_stopping_rule(x, last=2, H=H)
        assert step == 0
        assert kappa == pytest.approx(math.sqrt(H / 16.0), abs=1e-14)
        assert gamma

    def test_forced_terminal(self):
        x = np.zeros(7)
        step, kappa, gamma = run_stopping_rule(x, last=5, H=5.0)
        assert step == 5
        assert kappa == 1.0
        assert not gamma

    def test_entries_after_last_not_counted(self):
        # 10^2 would cross H, but it lies after last, in the next window
        x = np.array([0.1, 0.1, 10.0, 10.0])
        step, kappa, gamma = run_stopping_rule(x, last=1, H=5.0)
        assert step == 1
        assert not gamma

    def test_noiseless_symbolic(self):
        # y_j = c y_{j-1}: S* = c (H - kappa^2 u_tau + kappa u_tau) / H
        c = 0.6
        x = 2.0 * c ** np.arange(7)
        H = 2.0
        step, kappa, gamma = run_stopping_rule(x, last=5, H=H)
        u_tau = x[step] ** 2
        expected = c * (H - kappa ** 2 * u_tau + kappa * u_tau) / H
        got = sequential_estimate(x, H, step, kappa, gamma)
        assert got == pytest.approx(expected, abs=1e-12)
        if kappa == 1.0:
            assert got == pytest.approx(c, abs=1e-12)

    def test_gated_zero(self):
        x = np.zeros(7)
        step, kappa, gamma = run_stopping_rule(x, last=5, H=5.0)
        assert sequential_estimate(x, H=5.0, step=step, kappa=kappa, gamma=gamma) == 0.0


def bits(a):
    """The bits of a float64 array as int64, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("shape", [(1,), (10,), (1, 5), (10, 5)], ids=str)
def test_running_sum_is_cumsum(shape):
    # in place, with the bits of np.cumsum: -0.0 terms (the first term in 1-D,
    # a column of them in 2-D) and, past length 1, a +inf term halfway down
    u = np.random.default_rng(4).standard_normal(shape)
    u.reshape(len(u), -1)[len(u) // 2, -1] = np.inf
    u.flat[::3] = -0.0
    u[..., 0] = -0.0
    expected = np.cumsum(u, axis=0)
    assert _running_sum(u) is u
    assert np.array_equal(bits(u), bits(expected))


def test_window_stack_is_each_window():
    # column i of a (C, k) stack gives, bit for bit, the 1-D call on window i.
    # Window 0 is all zero; window 1 stops on a signed-zero head, the + 0.0 case
    # of sequential_estimate; last runs from 0 to C - 1
    C, k = 12, 7
    rng = np.random.default_rng(6)
    x = rng.standard_normal((C + 1, k))  # sequential_estimate reads x up to last + 1
    x[:, 0] = 0.0
    x[:, 1] = [-0.0, 0.0, -0.0, 3.0, -0.0, *rng.standard_normal(C - 4)]
    last = np.array([5, 6, 0, C - 1, 3, C - 1, 0])
    H = np.array([5.0, 5.0, *rng.uniform(0.5, 6.0, k - 2)])
    stack = run_stopping_rule(x[:C], last, H)
    est = sequential_estimate(x, H, *stack)
    assert list(stack[0][:2]) == [5, 3] and stack[2][1] and est[1] == 0.0
    for i in range(k):
        step, kappa, gamma = run_stopping_rule(x[:C, i], last[i], H[i])
        assert (stack[0][i], stack[2][i]) == (step, gamma)
        assert bits(stack[1][i]) == bits(kappa)
        assert bits(est[i]) == bits(sequential_estimate(x[:, i], H[i], step, kappa, gamma))


class TestPipelineInvariants:
    @staticmethod
    @pytest.fixture(scope="class")
    def samples(s1, gaussian, ctx_1000):
        part = ctx_1000.part
        out = []
        for r in range(1, 21):
            traj = generate_trajectory(s1, gaussian, part.n, replication_seed(11, r),
                                       signal_values=ctx_1000.S_design)
            out.append((traj, build_regression(traj, part).points))
        return part, out

    def test_stopping_identity(self, samples):
        part, out = samples
        for traj, points in out:
            for p in points:
                iota, k2 = int(part.iota[p.l - 1]), int(part.k2[p.l - 1])
                u = traj.y[iota:k2 - 1] ** 2
                u = np.concatenate([u, [p.H]])  # forced terminal term
                mass = float(np.sum(u[:p.tau - iota - 1])) + p.kappa ** 2 * u[p.tau - iota - 1]
                assert mass == pytest.approx(p.H, rel=1e-9)

    def test_tau_kappa_ranges(self, samples):
        part, out = samples
        for _, points in out:
            for p in points:
                assert part.iota[p.l - 1] < p.tau <= part.k2[p.l - 1]
                assert 0.0 < p.kappa <= 1.0

    def test_variance_proxy_bounds(self, samples):
        part, out = samples
        eps = eps_tilde(part.n)
        for _, points in out:
            for p in points:  # sigma2_l = 1/H_l
                span = (1.0 - eps) * (part.k2[p.l - 1] - part.iota[p.l - 1])
                assert 1.0 / p.H <= 1.0 / span + 1e-12
                assert 1.0 / p.H >= (1.0 - (1.0 - eps) ** 2) / span - 1e-12

    def test_preliminary_clamped(self, samples):
        part, out = samples
        for _, points in out:
            for p in points:
                assert abs(p.s_pre) <= 1.0 - eps_tilde(part.n) + 1e-12

    def test_window_locality(self, samples):
        # perturbing observations outside [k1-1, k2] leaves the point untouched,
        # although the gathered row runs on into the next window
        part, out = samples
        traj, points = out[0]
        l = part.d // 2
        k1, k2 = int(part.k1[l - 1]), int(part.k2[l - 1])
        y = traj.y.copy()
        y[:k1 - 1] += 100.0
        y[k2 + 1:] -= 100.0
        assert build_regression(dataclasses.replace(traj, y=y), part).points[l - 1] == points[l - 1]


class TestBuildRegression:
    @pytest.mark.parametrize("family", ["gaussian_std", "uniform_unit_variance"])
    @pytest.mark.parametrize("per", [1, 7])
    def test_window_groups_keep_every_bit(self, family, per, monkeypatch):
        # n = 10007 has d = 101 windows: groups of 1 or 7 windows, the last
        # group of 1 or 3 padded past y_n
        n = 10_007
        part = compute_partition(n)
        traj = generate_trajectory(tv.signal_s2(), NoiseSpec(family), n, 4)
        whole = build_regression(traj, part)
        monkeypatch.setattr(signals, "GROUP_BYTES", 8 * n * per // part.d)
        grouped = build_regression(traj, part)
        assert grouped.points.tobytes() == whole.points.tobytes()
        assert grouped.points.dtype == whole.points.dtype
        assert grouped.gamma_all == whole.gamma_all

    @staticmethod
    def assert_stack_is_the_paths(n, family, paths):
        """regression_columns of a stack of paths holds, bit for bit, each path's
        build_regression: every POINT_FIELDS column after l, and gamma_all."""
        noise, part = NoiseSpec(family), compute_partition(n)
        seeds = [replication_seed(5, r) for r in range(1, paths + 1)]
        # as a Monte-Carlo chunk composes them: each group staged, the groups joined
        groups = signals.trajectory_groups(signals.signal_values_uniform(tv.signal_s1(), n),
                                           noise, seeds, lambda y: regression_columns(y, part))
        cols = list(map(np.concatenate, zip(*groups)))
        regs = [build_regression(generate_trajectory(tv.signal_s1(), noise, n, sd), part)
                for sd in seeds]
        for name, col in zip(POINT_FIELDS[1:], cols, strict=True):
            one = np.stack([reg.points[name] for reg in regs])
            assert col.shape == (paths, part.d) and col.dtype == one.dtype, name
            # floats compare by their bits as int64, so that -0.0 and 0.0 differ
            if one.dtype == np.float64:
                col, one = np.ascontiguousarray(col).view(np.int64), one.view(np.int64)
            assert np.array_equal(col, one), name
        assert [bool(g.all()) for g in cols[POINT_FIELDS.index("gamma") - 1]] == \
            [reg.gamma_all for reg in regs]

    @pytest.mark.parametrize("family", ["gaussian_std", "uniform_unit_variance"])
    @pytest.mark.parametrize("n, paths", [(200, 50), (500, 50), (10_007, 30), (70_000, 7)])
    def test_path_stack_keeps_every_bit(self, n, paths, family):
        # one group of 50 paths at n = 200 and 500, groups of 26 and 4 at
        # n = 10007, of 3, 3 and 1 at n = 70000
        self.assert_stack_is_the_paths(n, family, paths)

    @pytest.mark.parametrize("family", ["gaussian_std", "uniform_unit_variance"])
    @pytest.mark.parametrize("group_bytes", [8 * 3 * 10_008, 8 * 10_007 * 7 // 101],
                             ids=["3-paths", "7-windows"])
    def test_path_groups_keep_every_bit(self, group_bytes, family, monkeypatch):
        # 7 paths of n = 10007 in groups of 3, 3 and 1 whole paths, or one path at
        # a time, each in groups of 7 of its d = 101 windows
        monkeypatch.setattr(signals, "GROUP_BYTES", group_bytes)
        self.assert_stack_is_the_paths(10_007, family, 7)

    def test_one_path_only(self, s1, gaussian, ctx_1000):
        # a Trajectory is one path: one holding a stack is made by hand
        [y] = signals.trajectory_groups(ctx_1000.S_design, gaussian, [1, 2], lambda y: y)
        traj = signals.Trajectory(n=1000, a=s1.a, b=s1.b, y=y)
        with pytest.raises(ValidationError, match="one path"):
            build_regression(traj, ctx_1000.part)

    def test_gating_modes(self, s1, gaussian, ctx_1000):
        traj = generate_trajectory(s1, gaussian, 1000, replication_seed(3, 1),
                                   signal_values=ctx_1000.S_design)
        reg = build_regression(traj, ctx_1000.part)
        assert reg.gamma_all == all(p.gamma for p in reg.points)
        # the per-point estimates are kept, already zeroed where the stopping
        # rule only hit the forced boundary
        for p in reg.points:
            assert reg.Y[p.l - 1] == p.s_star
            assert p.gamma or p.s_star == 0.0

    def test_zero_signal_mean(self, gaussian, ctx_1000):
        from tvarseq.signals import SignalSpec
        zero = SignalSpec(kind="tabulated", values=(0.0, 0.0), stability_eps=0.5,
                          lipschitz_L=1.0)
        part = ctx_1000.part
        vals = []
        for r in range(1, 41):
            traj = generate_trajectory(zero, gaussian, 1000, replication_seed(17, r))
            reg = build_regression(traj, part)
            vals.extend(reg.Y)
        vals = np.asarray(vals)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean()) < 4 * se + 1e-3


@pytest.mark.xfail(reason="measured miss rate 0.538 at n=10000: the preliminary "
                          "window has q_pre = 7 observations, the same short "
                          "window that keeps the all-points event Gamma rare "
                          "(criterion 07); the 0.2-band concentration only "
                          "emerges at much larger n",
                   strict=True)
def test_preliminary_concentration(s1, gaussian, ctx_10000):
    from tvarseq.signals import signal_values_uniform
    part = ctx_10000.part
    S_grid = signal_values_uniform(s1, part.d)[1:]
    bad = total = 0
    for r in range(1, 31):
        traj = generate_trajectory(s1, gaussian, part.n, replication_seed(9, r),
                                   signal_values=ctx_10000.S_design)
        bad += np.sum(np.abs(build_regression(traj, part).points.s_pre - S_grid) > 0.2)
        total += part.d
    assert bad / total < 0.05
