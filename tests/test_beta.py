"""Projection of the step-function estimate onto series coefficients."""

import numpy as np
import pytest

from tvarseq.basis import trig_fn
from tvarseq.beta import beta_error, project_coefficients


def quadrature_cell_integrals(i_max, d, a, b, points=32):
    """Gauss-Legendre integral of trig_fn(i) over each cell ]z_{l-1}, z_l]."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    edges = a + (b - a) * np.arange(d + 1) / d
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * nodes
    return np.array([half * (trig_fn(i, x, a, b) @ weights) for i in range(1, i_max + 1)])


class TestProjection:
    def test_constant_estimate(self):
        est = project_coefficients(np.full(15, 0.7), 0.0, 1.0, i_max=10)
        assert est.coefficients[0] == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(est.coefficients[1:])) < 1e-12

    def test_zero_estimate(self):
        est = project_coefficients(np.zeros(15), 0.0, 1.0, i_max=10)
        assert np.all(est.coefficients == 0.0)

    def test_linearity(self, rng):
        d, i_max = 21, 12
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        a, b = 0.7, -1.3
        combo = project_coefficients(a * u + b * v, 0.0, 1.0, i_max=i_max)
        parts = (a * project_coefficients(u, 0.0, 1.0, i_max=i_max).coefficients
                 + b * project_coefficients(v, 0.0, 1.0, i_max=i_max).coefficients)
        np.testing.assert_allclose(combo.coefficients, parts, atol=1e-12)

    def test_closed_form_matches_quadrature(self, rng):
        d, i_max = 15, 8
        S_star = rng.normal(size=d)
        exact = project_coefficients(S_star, 0.0, 1.0, i_max=i_max)
        quad = quadrature_cell_integrals(i_max, d, 0.0, 1.0) @ S_star
        np.testing.assert_allclose(exact.coefficients, quad, atol=1e-12)

    def test_bessel(self, rng):
        d = 31
        S_star = rng.normal(size=d)
        est = project_coefficients(S_star, 0.0, 1.0, i_max=200)
        norm2 = float(S_star @ S_star) / d  # L2 norm of the step function
        assert float(est.coefficients @ est.coefficients) <= norm2 + 1e-9

    def test_i_max_validation(self):
        with pytest.raises(ValueError):
            project_coefficients(np.zeros(5), 0.0, 1.0, i_max=0)


class TestBetaError:
    def test_exact_match(self):
        est = project_coefficients(np.full(15, 0.7), 0.0, 1.0, i_max=3)
        truth = np.array([0.7, 0.0, 0.0])
        assert beta_error(est, truth) == pytest.approx(0.0, abs=1e-20)

    def test_single_mismatch(self):
        assert beta_error(np.array([0.5, 0.2]), np.array([0.5, 0.3])) == pytest.approx(0.01)

    def test_zero_padding(self):
        assert beta_error(np.array([0.5]), np.array([0.5, 0.3])) == pytest.approx(0.09)


def test_noiseless_series_recovery():
    # true S = 0.3 psi_2 + 0.1 psi_5; the noiseless pipeline projects back to
    # the series coefficients up to the step-function discretization error
    from tvarseq.pipeline import estimate_signal, make_context
    from tvarseq.signals import NoiseSpec, SignalSpec

    spec = SignalSpec(kind="series", coefficients=(0.0, 0.3, 0.0, 0.0, 0.1),
                      stability_eps=0.3, lipschitz_L=10.0)
    ctx = make_context(spec, 10000)
    res = estimate_signal(ctx, NoiseSpec("none"), 0)
    d = ctx.part.d
    est = project_coefficients(res.selection.S_star, 0.0, 1.0, i_max=d)
    assert abs(est.coefficients[1] - 0.3) < 2.0 / d
    assert abs(est.coefficients[4] - 0.1) < 2.0 / d
