"""Weight grid construction, penalized criterion, and model selection."""

import math

import numpy as np
import pytest

from tvarseq.basis import FourierCoeffs, TrigBasis, fourier_coefficients
from tvarseq.selection import (
    build_weight_grid,
    criterion,
    default_delta,
    empirical_error,
    select,
    weighted_estimate_values,
)
from tvarseq.sequential import grid_size
from tvarseq.signals import ValidationError


class TestWeightGrid:
    def test_n10000_dimensions(self):
        grid = build_weight_grid(10000)
        assert grid.k[-1] == 153  # k_star
        assert np.unique(grid.t).size == 84  # m
        assert grid.t[0] == pytest.approx(0.108574, abs=1e-6)  # eps
        assert grid.nu == 153 * 84

    def test_weight_range_and_monotonicity(self):
        grid = build_weight_grid(1000)
        lam = grid.lam
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert np.all(np.diff(lam, axis=1) <= 1e-14)

    def test_head_indicator(self):
        grid = build_weight_grid(1000)
        # lam(j) == 1 exactly on j < j_star (vacuous rows allowed: j_star
        # stays below 1 until n is astronomically large)
        j = np.arange(1, grid.lam.shape[1] + 1)
        head = j[None, :] < grid.j_star[:, None]
        np.testing.assert_allclose(grid.lam[head], 1.0, atol=1e-14)
        interior = (~head) & (j[None, :] <= grid.omega[:, None])
        expected = 1.0 - (j[None, :] / grid.omega[:, None]) ** grid.k[:, None]
        np.testing.assert_allclose(grid.lam[interior], expected[interior], atol=1e-12)

    def test_tail_cutoff(self):
        grid = build_weight_grid(1000)
        W = grid.lam.shape[1]
        j = np.arange(1, W + 1)
        beyond = j[None, :] > grid.omega[:, None]
        assert np.all(grid.lam[beyond] == 0.0)
        # the columns W+1..d left out of the band lie beyond every omega
        assert W <= grid_size(1000) and np.all(grid.omega < W + 1)

    @pytest.mark.parametrize("n", [200, 10000, 70000])
    def test_band_matches_dense_closed_form(self, n, rng):
        grid = build_weight_grid(n)
        W, d = grid.lam.shape[1], grid_size(n)
        j = np.arange(1, d + 1)[None, :]
        ks = grid.k.astype(float)[:, None]
        dense = np.where(j < grid.j_star[:, None], 1.0,
                         np.maximum(1.0 - (j / grid.omega[:, None]) ** ks, 0.0))
        assert W < d
        assert np.max(np.abs(grid.lam - dense[:, :W])) <= 1e-15
        assert np.all(dense[:, W:] == 0.0)
        for _ in range(5):
            coeffs = FourierCoeffs(theta_hat=rng.normal(size=d) / j[0],
                                   s_jd=rng.uniform(0.01, 1.0, d))
            delta = default_delta(n)
            band = criterion(grid.lam, grid.lam_sq, coeffs, delta, 0.0, 1.0, d)
            full = criterion(dense, dense * dense, coeffs, delta, 0.0, 1.0, d)
            np.testing.assert_allclose(band, full, rtol=1e-12, atol=0.0)
            assert np.argmin(band) == np.argmin(full)

    def test_declared_alphas(self):
        grid = build_weight_grid(200)
        eps = 1.0 / math.log(200)
        k, t = grid.k[0], grid.t[0]
        assert k == 1 and t == pytest.approx(eps, abs=1e-12)
        # outer loop over k, inner loop over t
        assert grid.k[1] == 1
        m = np.unique(grid.t).size
        assert grid.k[m] == 2
        assert grid.t.tolist() == [eps * ti for _ in range(grid.k[-1])
                                   for ti in range(1, m + 1)]


class TestPenaltyAndCriterion:
    @staticmethod
    def coeffs(theta, s):
        return FourierCoeffs(theta_hat=np.asarray(theta, float),
                             s_jd=np.asarray(s, float))

    @classmethod
    def penalty(cls, lam, s, d):
        """P_d read off the criterion: J(delta1) - J(delta2) = (delta1 - delta2) P_d."""
        c = cls.coeffs(np.zeros(d), s)
        return 24.0 * (criterion(lam, lam * lam, c, 1.0 / 12, 0.0, 1.0, d)
                       - criterion(lam, lam * lam, c, 1.0 / 24, 0.0, 1.0, d))

    def test_penalty_zero(self):
        assert self.penalty(np.zeros(15), np.full(15, 0.3), 15) == 0.0

    def test_penalty_all_ones(self):
        v = 0.02
        assert self.penalty(np.ones(15), np.full(15, v), 15) == pytest.approx(v, abs=1e-14)

    def test_penalty_single_entry(self):
        lam = np.zeros(15)
        lam[0] = 1.0
        s = np.zeros(15)
        s[0] = 0.01
        assert self.penalty(lam, s, 15) == pytest.approx(0.01 / 15, abs=1e-10)

    def test_criterion_zero_lambda(self):
        c = self.coeffs(np.ones(5), np.ones(5))
        assert criterion(np.zeros(5), np.zeros(5), c, 0.05, 0.0, 1.0, 5) == 0.0

    def test_criterion_zero_theta_nonnegative(self, rng):
        # with theta_hat = 0 the criterion is 2 sum lam s (b-a)/d + delta P >= 0,
        # P = (b-a)/d sum lam^2 s
        s = rng.uniform(0.01, 0.1, 9)
        c = self.coeffs(np.zeros(9), s)
        for _ in range(20):
            lam = rng.uniform(0.0, 1.0, 9)
            J = criterion(lam, lam * lam, c, 0.05, 0.0, 1.0, 9)
            expected = 2.0 / 9 * float(lam @ s) + 0.05 / 9 * float(lam ** 2 @ s)
            assert J == pytest.approx(expected, abs=1e-12)
            assert J >= 0.0

    def test_single_coefficient_minimum(self):
        c = self.coeffs([1.0], [0.0])
        ws = np.linspace(0.0, 1.0, 101)
        J = np.array([criterion(np.array([w]), np.array([w * w]), c, 0.05, 0.0, 1.0, 1)
                      for w in ws])
        assert ws[np.argmin(J)] == pytest.approx(1.0)
        assert J.min() == pytest.approx(-1.0, abs=1e-12)

    def test_delta_validation(self):
        c = self.coeffs(np.ones(3), np.zeros(3))
        for bad in (0.0, -0.1, 0.2, 1.0 / 12 + 1e-9):
            with pytest.raises(ValidationError):
                criterion(np.ones(3), np.ones(3), c, bad, 0.0, 1.0, 3)

    def test_default_delta(self):
        assert 0.0 < default_delta(10 ** 9) <= default_delta(100) <= 1.0 / 12

    def test_criterion_identity_random_instances(self, rng):
        # Er_d(lam) - sum theta_d^2 == sum lam^2 th^2 - 2 sum lam th theta_d
        d = 5
        basis = TrigBasis(0.0, 1.0, d)
        for _ in range(25):
            theta_d = rng.normal(size=d)
            zeta = rng.normal(size=d) * 0.1
            theta_hat = theta_d + zeta
            lam = rng.uniform(0.0, 1.0, d)
            S_vals = basis.phi @ theta_d
            est = basis.phi @ (lam * theta_hat)
            lhs = empirical_error(S_vals, est, 0.0, 1.0, d) - float(theta_d @ theta_d)
            rhs = float((lam ** 2) @ theta_hat ** 2) - 2.0 * float(lam @ (theta_hat * theta_d))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSelect:
    def test_tie_break_first(self, ctx_200):
        d = ctx_200.part.d
        coeffs = FourierCoeffs(theta_hat=np.zeros(d), s_jd=np.zeros(d))
        grid = ctx_200.grid
        res = select(coeffs, grid, ctx_200.delta, ctx_200.basis)
        # all-zero coefficients make every J equal: first alpha wins
        assert np.ptp(res.J_values) == 0.0
        assert res.alpha_index == 0
        assert res.alpha_hat == (grid.k[0], grid.t[0])
        # Python scalars, so that selection.json writes numbers, not strings
        assert [type(v) for v in res.alpha_hat] == [int, float]

    def test_noiseless_selection_near_oracle(self, s1, ctx_1000):
        # noiseless coefficients with zero variance proxies: the criterion is
        # the empirical risk minus a constant, so the selected weights cannot
        # do worse than the best grid element
        from tvarseq.pipeline import signal_values_on_grid
        d = ctx_1000.part.d
        basis = ctx_1000.basis
        S_grid = signal_values_on_grid(s1, ctx_1000.part)
        coeffs = fourier_coefficients(basis, S_grid, np.zeros(d))
        grid = ctx_1000.grid
        res = select(coeffs, grid, 1e-6, basis)
        W = grid.lam.shape[1]  # every weight beyond the band is 0
        errors = np.array([
            empirical_error(S_grid, basis.phi[:, :W] @ (grid.lam[i] * coeffs.theta_hat[:W]),
                            0.0, 1.0, d)
            for i in range(grid.nu)
        ])
        got = empirical_error(S_grid, res.S_star, 0.0, 1.0, d)
        assert got <= errors.min() + 1e-12

    def test_invariance_to_criterion_shift(self, ctx_200, rng):
        d = ctx_200.part.d
        coeffs = FourierCoeffs(theta_hat=rng.normal(size=d),
                               s_jd=rng.uniform(0.01, 0.05, d))
        res = select(coeffs, ctx_200.grid, ctx_200.delta, ctx_200.basis)
        shifted = res.J_values + 42.0
        assert int(np.argmin(shifted)) == res.alpha_index


class TestEmpiricalError:
    def test_identical(self):
        v = np.arange(15.0)
        assert empirical_error(v, v, 0.0, 1.0, 15) == 0.0

    def test_unit_difference(self):
        assert empirical_error(np.zeros(15), np.ones(15), 0.0, 1.0, 15) == pytest.approx(1.0)

    def test_basis_mode_difference(self):
        basis = TrigBasis(0.0, 1.0, 15)
        assert empirical_error(np.zeros(15), basis.phi[:, 1], 0.0, 1.0, 15) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            empirical_error(np.zeros(4), np.zeros(5), 0.0, 1.0, 5)


def test_shared_definitions(ctx_10000):
    from tvarseq import sequential
    # bad input raises the one validation error class, in every module
    for bad_input in (lambda: sequential.compute_partition(50),
                      lambda: build_weight_grid(50),
                      lambda: criterion(np.ones(3), np.ones(3), None, 0.2, 0.0, 1.0, 3)):
        with pytest.raises(ValidationError) as info:
            bad_input()
        assert type(info.value) is ValidationError
    assert not hasattr(sequential, "ConfigurationError")
    assert ctx_10000.basis.d == ctx_10000.part.d == sequential.grid_size(10000)
