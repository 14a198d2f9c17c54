"""Grid partition and the two-stage sequential pointwise estimator."""

import dataclasses
import math

import numpy as np
import pytest

from tvarseq.sequential import (
    ConfigurationError,
    build_regression,
    compute_partition,
    grid_size,
    preliminary_estimate,
    project_estimate,
    run_stopping_rule,
    sequential_estimate,
    threshold,
)
from tvarseq.signals import generate_trajectory, replication_seed


class TestPartition:
    def test_n200_shape(self):
        part = compute_partition(200)
        assert part.d == 15
        assert part.h == pytest.approx(1.0 / 30)
        assert part.k1[0] == 7 and part.k2[0] == 20

    def test_n200_preliminary_window(self):
        part = compute_partition(200, mu0=0.5)
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
        with pytest.raises(ConfigurationError):
            compute_partition(50)

    def test_bad_mu0_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_partition(200, mu0=1.5)


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
        eps = part.eps_tilde
        for _, points in out:
            for p in points:
                span = (1.0 - eps) * (part.k2[p.l - 1] - part.iota[p.l - 1])
                assert p.sigma2 <= 1.0 / span + 1e-12
                assert p.sigma2 >= (1.0 - (1.0 - eps) ** 2) / span - 1e-12

    def test_preliminary_clamped(self, samples):
        part, out = samples
        for _, points in out:
            for p in points:
                assert abs(p.s_pre) <= 1.0 - part.eps_tilde + 1e-12

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
