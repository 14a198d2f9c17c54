"""Weight grid construction, penalized criterion, and model selection."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tvarseq
from tvarseq import harness, pipeline
from tvarseq.basis import FourierCoeffs, TrigBasis, fourier_coefficients
from tvarseq.selection import (
    BLOCK_ROWS,
    WeightGrid,
    build_weight_grid,
    criterion,
    default_delta,
    empirical_error,
    select,
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
        lam = grid.lam
        W, d = lam.shape[1], grid_size(n)
        j = np.arange(1, d + 1)[None, :]
        ks = grid.k.astype(float)[:, None]
        dense = np.where(j < grid.j_star[:, None], 1.0,
                         np.maximum(1.0 - (j / grid.omega[:, None]) ** ks, 0.0))
        assert W < d
        assert np.max(np.abs(lam - dense[:, :W])) <= 1e-15
        assert np.all(dense[:, W:] == 0.0)
        for _ in range(5):
            coeffs = FourierCoeffs(theta_hat=rng.normal(size=d) / j[0],
                                   s_jd=rng.uniform(0.01, 1.0, d))
            delta = default_delta(n)
            band = criterion(lam, lam * lam, coeffs, delta, 0.0, 1.0, d)
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


def one_shot_lam(grid):
    """The (nu, W) profiles in one pass of the ufuncs over the whole grid, the
    way the grid once stored them: the reference the blocks must match bit for bit."""
    k_star = grid.k[-1]
    m = grid.nu // k_star
    k = np.arange(1, k_star + 1, dtype=float)[:, None]
    omega, j_star = grid.omega.reshape(k_star, m), grid.j_star.reshape(k_star, m)
    j = np.arange(1, grid.width + 1, dtype=float)
    lam = np.empty((k_star, m, grid.width))
    np.divide(j, omega[:, :, None], out=lam)
    np.power(lam, k[:, :, None], out=lam)
    np.subtract(1.0, lam, out=lam)
    np.maximum(lam, 0.0, out=lam)
    np.copyto(lam, 1.0, where=j < j_star[:, :, None])
    return lam.reshape(k_star * m, grid.width)


# select on the streamed blocks against the criterion on the dense stack, in a
# process whose BLAS runs on one thread: the products then split no differently
SELECT_EQUALS_DENSE = """
import numpy as np
from tvarseq.basis import FourierCoeffs, TrigBasis
from tvarseq.selection import build_weight_grid, criterion, default_delta, select
from tvarseq.sequential import grid_size

rng = np.random.default_rng(7)
for n in (10000, 70000):
    grid, d = build_weight_grid(n), grid_size(n)
    basis, delta, lam = TrigBasis(0.0, 1.0, d), default_delta(n), grid.lam
    starts = np.cumsum([len(block) for block, _ in grid.blocks()])
    for shape in ((d,), (2, d), (50, d)):
        # flat spectra up to a cut-off, at noise levels over four decades: the
        # rows select profiles of small and of large k, from several blocks
        cut = rng.uniform(2.0, 20.0, shape[:-1] + (1,))
        theta = np.where(np.arange(1, d + 1) < cut, 1.0, 0.0) * rng.choice([-1.0, 1.0], shape)
        noise = 10.0 ** rng.uniform(-4.0, 0.0, shape[:-1] + (1,))
        coeffs = FourierCoeffs(theta_hat=theta, s_jd=noise * rng.uniform(0.5, 1.0, shape))
        got = select(coeffs, grid, delta, basis)
        J = criterion(lam, lam * lam, coeffs, delta, 0.0, 1.0, d)
        idx = np.argmin(J, axis=-1)
        lam_hat = np.zeros(shape)
        lam_hat[..., :grid.width] = lam[idx]
        assert np.array_equal(got.J_values, J), (n, shape)
        assert np.array_equal(got.alpha_index, idx), (n, shape)
        assert np.array_equal(got.lambda_hat, lam_hat), (n, shape)
        print(n, shape[0], len(np.unique(np.searchsorted(starts, idx, side="right"))))
"""


class TestStreamedGrid:
    """The profiles are built block by block, never stored: the blocks, the
    criterion and the selection keep the bits of one pass over a stored grid."""

    @pytest.mark.parametrize("n", [200, 10000, 70000])
    def test_blocks_equal_one_shot_formula(self, n):
        grid = build_weight_grid(n)
        lam = grid.lam
        assert np.array_equal(lam, one_shot_lam(grid))
        # the rows of k = 2 are among them: pow's bits there depend on how its exponent broadcasts
        assert np.count_nonzero(grid.k == 2) > 0
        rows = [len(block) for block, _ in grid.blocks()]
        assert sum(rows) == grid.nu and len(rows) > 1
        assert all(r >= BLOCK_ROWS and r % 16 == 0 for r in rows[:-1])
        assert all(np.array_equal(sq, block * block) for block, sq in grid.blocks())

    def test_select_equals_dense_criterion_bitwise(self):
        src = os.path.dirname(os.path.dirname(tvarseq.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", SELECT_EQUALS_DENSE], capture_output=True,
                             text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        # the 50-sample stacks select from more than one block
        assert [int(line.split()[2]) > 1 for line in out.stdout.splitlines()[2::3]] == [True] * 2

    def test_tie_across_block_boundary_goes_to_earlier_block(self):
        # theta = e_1 and s = 0 give J = lam_1^2 - 2 lam_1: -1 where lam_1 = 1, else 0
        # for these profiles (omega = j_star + 1/2 makes lam = 1 on j < j_star, 0
        # beyond).  The last alpha of the first block (flat on j = 1) and the first
        # of the second (flat on j = 1, 2) tie exactly.
        grid = build_weight_grid(10000)
        last = len(next(grid.blocks())[0]) - 1
        j_star = np.full(grid.nu, 0.5)
        j_star[last], j_star[last + 1] = 1.5, 2.5
        grid = dataclasses.replace(grid, j_star=j_star, omega=j_star + 0.5)
        d = grid_size(10000)
        theta = np.zeros(d)
        theta[0] = 1.0
        one = FourierCoeffs(theta_hat=theta, s_jd=np.zeros(d))
        stack = FourierCoeffs(theta_hat=np.stack([theta, 2.0 * theta]), s_jd=np.zeros((2, d)))
        for coeffs in (one, stack):
            res = select(coeffs, grid, 0.05, TrigBasis(0.0, 1.0, d))
            J = res.J_values.reshape(-1, grid.nu)
            assert np.all(J[:, last] == J[:, last + 1]) and np.all(J[:, last] == J.min(axis=1))
            assert np.all(res.alpha_index == last)
            lam_hat = res.lambda_hat.reshape(-1, d)
            assert np.all(lam_hat[:, 0] == 1.0) and np.all(lam_hat[:, 1:] == 0.0)

    def test_context_grid_holds_per_alpha_arrays_only(self, s1):
        grid = pipeline.make_context(s1, 70000).grid
        held = sum(getattr(grid, f.name).nbytes for f in dataclasses.fields(grid)
                   if isinstance(getattr(grid, f.name), np.ndarray))
        assert held == 4 * grid.nu * 8  # k, t, j_star, omega; no (nu, W) stack

    def test_hot_paths_never_read_the_dense_stack(self, monkeypatch, s1, gaussian):
        def refuse(grid):
            raise AssertionError("the dense (nu, W) stack was read")
        monkeypatch.setattr(WeightGrid, "lam", property(refuse))
        cell = harness.run_cell(s1, gaussian, 1000, 3, 12345)
        assert cell.M == 3 and np.isfinite(cell.rbar)
        ctx = pipeline.make_context(s1, 1000)
        res = pipeline.estimate_signal(ctx, gaussian, 0)
        assert res.selection.lambda_hat.shape == (ctx.part.d,)


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
        phi = TrigBasis(0.0, 1.0, d).phi
        for _ in range(25):
            theta_d = rng.normal(size=d)
            zeta = rng.normal(size=d) * 0.1
            theta_hat = theta_d + zeta
            lam = rng.uniform(0.0, 1.0, d)
            S_vals = phi @ theta_d
            est = phi @ (lam * theta_hat)
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

    def test_noiseless_selection_near_oracle(self, ctx_1000):
        # noiseless coefficients with zero variance proxies: the criterion is
        # the empirical risk minus a constant, so the selected weights cannot
        # do worse than the best grid element
        d = ctx_1000.part.d
        basis = ctx_1000.basis
        S_grid = ctx_1000.S_grid
        coeffs = fourier_coefficients(basis, S_grid, np.zeros(d))
        grid = ctx_1000.grid
        res = select(coeffs, grid, 1e-6, basis)
        lam = grid.lam
        W = lam.shape[1]  # every weight beyond the band is 0
        phi = basis.phi[:, :W]
        errors = np.array([
            empirical_error(S_grid, phi @ (lam[i] * coeffs.theta_hat[:W]),
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


def test_shared_definitions(ctx_10000, monkeypatch):
    from tvarseq import sequential, signals
    basis, part = TrigBasis(0.0, 1.0, 3), sequential.compute_partition(100)
    empty = WeightGrid(k=np.array([], int), t=np.array([]), j_star=np.array([]),
                       omega=np.array([]), width=1)
    tabulated = signals.SignalSpec(kind="tabulated", values=(0.0, 0.0), stability_eps=0.5)
    path = signals.Trajectory(n=200, a=0.0, b=1.0, y=np.zeros(201))

    def exhausted():
        # at MU0 = 1/2, k2 - iota >= 2 for every n in [100, 2e5] and at 1e6..1e9
        with monkeypatch.context() as patch:
            patch.setattr(sequential, "MU0", 1.0)
            sequential.compute_partition(100)

    # bad input raises the one validation error class, in every module, saying what is wrong
    for bad_input, word in (
            (lambda: sequential.compute_partition(50), "n >= 100"),
            (lambda: build_weight_grid(50), "n >= 100"),
            (lambda: criterion(np.ones(3), np.ones(3), None, 0.2, 0.0, 1.0, 3), "delta"),
            (lambda: TrigBasis(0.0, 1.0, 4), "odd"),
            (lambda: TrigBasis(1.0, 0.0, 3), "b > a"),
            (lambda: fourier_coefficients(basis, np.ones(4), np.ones(4)), "length"),
            (lambda: select(None, empty, 0.05, basis), "empty"),
            (exhausted, "exhausts"),
            (lambda: sequential.project_estimate(0.0, 2), "n >= 3"),
            (lambda: sequential.threshold(0.0, 5, 5, 100), "k2 > iota"),
            (lambda: sequential.threshold(0.95, 10, 5, 100), "clamped"),
            (lambda: sequential.run_stopping_rule(np.ones(3), 2, 0.0), "positive"),
            (lambda: sequential.build_regression(path, part), "disagree"),
            (lambda: tabulated.amplitudes, "tabulated"),
            (lambda: signals.generate_trajectory(signals.signal_s1(), signals.NoiseSpec("none"),
                                                 100, 0, signal_values=np.zeros(5)), "length"),
            *((lambda v=v: signals.generate_trajectory(
                signals.signal_s1(), signals.NoiseSpec("none"), 100, 0,
                signal_values=np.full(101, v)), "[-1, 1]") for v in (np.nan, np.inf, 2.0)),
            (lambda: sequential.regression_columns(np.zeros(201), part), "one path"),
            (lambda: sequential.regression_columns(np.zeros((1, 1, 101)), part), "one path")):
        with pytest.raises(ValidationError) as info:
            bad_input()
        assert type(info.value) is ValidationError and word in str(info.value), info.value
    assert not hasattr(sequential, "ConfigurationError")
    assert ctx_10000.basis.d == ctx_10000.part.d == sequential.grid_size(10000)
