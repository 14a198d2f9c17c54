"""Trigonometric basis, discrete inner product, and Fourier coefficients."""

import math

import numpy as np
import pytest

from tvarseq import harness, pipeline
from tvarseq.basis import FourierCoeffs, TrigBasis, fourier_coefficients, trig_fn
from tvarseq.signals import SignalSpec, ValidationError, signal_values_uniform


class TestBasisEval:
    def test_constant(self):
        for x in (0.0, 0.3, 1.0):
            assert trig_fn(1, x, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_branch(self):
        assert trig_fn(2, 0.0, 0.0, 1.0) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_sine_branch(self):
        assert trig_fn(3, 0.25, 0.0, 1.0) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_general_interval(self):
        # normalization scales with the interval length
        assert trig_fn(1, 2.0, 1.0, 3.0) == pytest.approx(1.0 / math.sqrt(2), abs=1e-14)
        assert trig_fn(2, 1.0, 1.0, 3.0) == pytest.approx(1.0, abs=1e-14)  # sqrt(2/2)*cos 0

    def test_index_below_one_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            trig_fn(0, 0.5)

    def test_trig_fn_matches_basis(self):
        # the cached grid values are trig_fn at z_l = a + l (b-a)/d
        phi = TrigBasis(1.0, 3.0, 15).phi
        z = 1.0 + 2.0 * np.arange(1, 16) / 15
        for j in (1, 2, 3, 8, 15):
            np.testing.assert_allclose(phi[:, j - 1], trig_fn(j, z, 1.0, 3.0),
                                       atol=1e-14)

    @pytest.mark.parametrize("a, b, d", [(0.0, 1.0, 101), (1.0, 3.0, 15), (-2.5, 7.0, 1001)])
    def test_phi_bits_match_column_stack(self, a, b, d):
        # phi is filled in place: same bits and the same C layout as stacking
        # the d columns, so every product with phi keeps its BLAS kernel
        offset = (b - a) * np.arange(1, d + 1) / d
        stacked = np.column_stack([trig_fn(j, offset, 0.0, b - a) for j in range(1, d + 1)])
        phi = TrigBasis(a, b, d).phi
        assert phi.flags.c_contiguous and phi.dtype == np.float64
        assert phi.tobytes() == stacked.tobytes()


class TestInnerProduct:
    def test_normalization(self):
        basis = TrigBasis(0.0, 1.0, 15)
        assert basis.gram()[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cross_orthogonality(self):
        basis = TrigBasis(0.0, 1.0, 15)
        assert abs(basis.gram()[1, 2]) < 1e-10

    def test_constant_one(self):
        basis = TrigBasis(0.0, 1.0, 15)
        ones = np.ones(15)
        w = (basis.b - basis.a) / basis.d
        assert w * float(ones @ ones) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d", [5, 15, 201])
    def test_gram_identity(self, d):
        basis = TrigBasis(0.0, 1.0, d)
        assert np.max(np.abs(basis.gram() - np.eye(d))) < 1e-10

    def test_gram_identity_shifted_interval(self):
        basis = TrigBasis(-1.0, 2.0, 31)
        assert np.max(np.abs(basis.gram() - np.eye(31))) < 1e-10


class TestFourierCoefficients:
    def test_constant_signal(self):
        basis = TrigBasis(0.0, 1.0, 15)
        c = fourier_coefficients(basis, np.full(15, 0.7), np.zeros(15))
        assert c.theta_hat[0] == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(c.theta_hat[1:])) < 1e-12

    def test_pure_mode(self):
        basis = TrigBasis(0.0, 1.0, 15)
        c = fourier_coefficients(basis, basis.phi[:, 1], np.zeros(15))
        assert c.theta_hat[1] == pytest.approx(1.0, abs=1e-12)
        mask = np.ones(15, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(c.theta_hat[mask])) < 1e-12

    def test_constant_variance_proxy(self):
        basis = TrigBasis(0.0, 1.0, 15)
        v = 0.031
        c = fourier_coefficients(basis, np.zeros(15), np.full(15, v))
        np.testing.assert_allclose(c.s_jd, v, atol=1e-14)

    def test_s_jd_convex_range(self, rng):
        basis = TrigBasis(0.0, 1.0, 21)
        sigma2 = rng.uniform(0.01, 0.05, 21)
        c = fourier_coefficients(basis, np.zeros(21), sigma2)
        assert np.all(c.s_jd >= sigma2.min() - 1e-14)
        assert np.all(c.s_jd <= sigma2.max() + 1e-14)

    def test_parseval_and_reconstruction(self, rng):
        d = 41
        basis = TrigBasis(0.0, 1.0, d)
        Y = rng.normal(size=d)
        c = fourier_coefficients(basis, Y, np.zeros(d))
        norm_d = float(Y @ Y) / d
        assert float(c.theta_hat @ c.theta_hat) == pytest.approx(norm_d, rel=1e-9)
        recon = basis.phi @ c.theta_hat
        np.testing.assert_allclose(recon, Y, atol=1e-8)

    def test_noiseless_decomposition(self, ctx_1000):
        # with Y the true signal on the grid, theta_hat equals (S, phi_j)_d
        basis = ctx_1000.basis
        S_grid = ctx_1000.S_grid
        c = fourier_coefficients(basis, S_grid, np.zeros(len(S_grid)))
        w = (basis.b - basis.a) / basis.d
        phi = basis.phi
        direct = np.array([w * float(S_grid @ phi[:, j]) for j in range(basis.d)])
        np.testing.assert_allclose(c.theta_hat, direct, atol=1e-12)


class TestRealFFT:
    """The rfft analysis (theta_hat, s_jd) and the irfft synthesis (S*) against the
    phi products that define them."""

    @pytest.mark.parametrize("d", [15, 101, 1001])
    @pytest.mark.parametrize("rows", [(), (4,)], ids=["one", "stack"])
    def test_matches_phi_products(self, rng, d, rows):
        basis = TrigBasis(1.0, 3.0, d)
        phi, w = basis.phi, 2.0 / d
        Y = rng.standard_normal(rows + (d,))
        sigma2 = rng.random(rows + (d,))
        lam = rng.random(rows + (d,))
        c = fourier_coefficients(basis, Y, sigma2)
        S_star = basis.values(lam * c.theta_hat)
        for got, want in ((c.theta_hat, w * (Y @ phi)), (c.s_jd, w * (sigma2 @ phi ** 2)),
                          (S_star, (lam * c.theta_hat) @ phi.T)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [15, 101])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 3.0)])
    def test_values_is_the_series_synthesis(self, rng, a, b, d):
        # S* and a series signal S are summed by one code: the same bits
        c = 0.05 * rng.standard_normal(d) / np.arange(1, d + 1)
        spec = SignalSpec(kind="series", a=a, b=b, coefficients=tuple(c.tolist()),
                          stability_eps=0.5, lipschitz_L=1e3)
        basis = TrigBasis(a, b, d)
        assert np.array_equal(basis.values(c), signal_values_uniform(spec, d)[1:])
        stack = np.vstack([rng.standard_normal((2, d)), c])
        values = basis.values(stack)
        assert all(np.array_equal(values[i], basis.values(row)) for i, row in enumerate(stack))

    def test_no_estimate_reads_phi(self, monkeypatch, s1, gaussian):
        def refuse(basis):
            raise AssertionError("the d x d basis matrix was built")
        monkeypatch.setattr(TrigBasis, "phi", property(refuse))
        cell = harness.run_cell(s1, gaussian, 1000, 3, 12345)
        assert cell.M == 3 and np.isfinite(cell.rbar)
        ctx = pipeline.make_context(s1, 1000)
        assert set(vars(ctx.basis)) == {"a", "b", "d"}  # the context holds no matrix
        res = pipeline.estimate_signal(ctx, gaussian, 0)
        assert res.selection.S_star.shape == (ctx.part.d,)
