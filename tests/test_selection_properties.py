"""Property tests of the selection criterion and the trigonometric basis.

Each example draws an odd d, an interval [a, b] and random inputs, then
checks that the criterion J_d equals its expanded sums (the weights given on a
band 1..W of the d coefficients, zero beyond), that the coefficients of a
random Y reconstruct Y and satisfy Parseval, and that coefficients and
selection on an (m, d) stack of samples equal the calls on each row alone.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tvarseq.basis import FourierCoeffs, TrigBasis, fourier_coefficients
from tvarseq.selection import DELTA_MAX, criterion, select

PROPERTY = settings(deadline=None, max_examples=50, derandomize=True, database=None)


@st.composite
def intervals(draw):
    a = draw(st.floats(-10.0, 10.0))
    return a, a + draw(st.floats(1e-2, 1e2))


@st.composite
def criterion_inputs(draw):
    d = 2 * draw(st.integers(0, 150)) + 1
    width = draw(st.integers(1, d))
    nu = draw(st.integers(1, 6))
    a, b = draw(intervals())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = rng.random((nu, width))
    lam[rng.random((nu, width)) < 0.2] = 1.0
    lam[rng.random((nu, width)) < 0.2] = 0.0
    theta_hat = draw(st.floats(1e-3, 1e3)) * rng.standard_normal(d)
    s_jd = draw(st.floats(1e-3, 1e3)) * rng.random(d)
    delta = draw(st.floats(0.0, DELTA_MAX, exclude_min=True))
    return lam, FourierCoeffs(theta_hat=theta_hat, s_jd=s_jd), delta, a, b, d


@PROPERTY
@given(criterion_inputs())
def test_criterion_equals_expanded_sums(inputs):
    # J_d = sum lam^2 th^2 - 2 sum lam (th^2 - w s) + delta w sum lam^2 s, w = (b-a)/d,
    # summed over all d coefficients with lam = 0 beyond the band
    lam, coeffs, delta, a, b, d = inputs
    J = criterion(lam, lam * lam, coeffs, delta, a, b, d)
    assert J.shape == (len(lam),)
    w = (b - a) / d
    th2, s = coeffs.theta_hat ** 2, coeffs.s_jd
    for row, got in zip(lam, J):
        row = np.append(row, np.zeros(d - len(row)))
        terms = [*(row ** 2 * th2), *(-2.0 * row * th2), *(2.0 * w * row * s),
                 *(delta * w * row ** 2 * s)]
        assert abs(got - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


@PROPERTY
@given(st.integers(0, 150), intervals(), st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1))
@example(66, (8.0, 8.25), 1.0, 2)  # |a| >> b - a, where recomputing z_l - a cancels digits
def test_parseval_and_reconstruction(half_d, interval, scale, seed):
    d = 2 * half_d + 1
    basis = TrigBasis(*interval, d)
    Y = scale * np.random.default_rng(seed).standard_normal(d)
    theta_hat = fourier_coefficients(basis, Y, np.zeros(d)).theta_hat
    assert np.max(np.abs(basis.phi @ theta_hat - Y)) <= 1e-12 * np.max(np.abs(Y))
    energy = (basis.b - basis.a) / d * float(Y @ Y)
    assert abs(float(theta_hat @ theta_hat) - energy) <= 1e-12 * energy


def hand_grid(lam):
    """A weight grid stand-in: the given (nu, W) profiles in one block, alpha = (row + 1, 1.0)."""
    nu = len(lam)
    return SimpleNamespace(k=np.arange(1, nu + 1), t=np.ones(nu), nu=nu,
                           blocks=lambda: iter([(lam, lam * lam)]))


def assert_close(got, want, scale):
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@PROPERTY
@given(criterion_inputs(), st.integers(1, 8), st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1))
def test_stack_equals_rows(inputs, m, scale, seed):
    lam, _, delta, a, b, d = inputs
    rng = np.random.default_rng(seed)
    basis, grid = TrigBasis(a, b, d), hand_grid(lam)
    phi_max = np.max(np.abs(basis.phi))
    Y = scale * rng.standard_normal((m, d))
    sigma2 = scale * scale * rng.random((m, d))
    stack = fourier_coefficients(basis, Y, sigma2)
    chosen = select(stack, grid, delta, basis)
    assert chosen.J_values.shape == (m, grid.nu) and chosen.S_star.shape == (m, d)
    assert len(chosen.alpha_hat) == m
    for i in range(m):
        row = fourier_coefficients(basis, Y[i], sigma2[i])
        assert_close(stack.theta_hat[i], row.theta_hat, np.max(np.abs(row.theta_hat)))
        assert_close(stack.s_jd[i], row.s_jd, np.max(row.s_jd))
        one = select(row, grid, delta, basis)
        assert isinstance(one.alpha_index, int)
        # scale of J's terms: sum over j of (th2 + w s)(lam^2 + 2 lam)
        W = lam.shape[1]
        terms = (row.theta_hat[:W] ** 2 + (b - a) / d * row.s_jd[:W]) @ (lam * lam + 2 * lam).T
        assert_close(chosen.J_values[i], one.J_values, np.max(terms))
        best, second = np.sort(one.J_values)[:2] if grid.nu > 1 else (0.0, np.inf)
        if second - best > 1e-12 * np.max(terms):
            assert chosen.alpha_index[i] == one.alpha_index
        if chosen.alpha_index[i] == one.alpha_index:
            assert chosen.alpha_hat[i] == one.alpha_hat
            np.testing.assert_array_equal(chosen.lambda_hat[i], one.lambda_hat)
            assert_close(chosen.S_star[i], one.S_star,
                         np.sum(np.abs(one.lambda_hat * row.theta_hat)) * phi_max)


def test_exact_tie_picks_smaller_index_in_every_row():
    # theta in {1, 2, 3}, s = 0: J = sum theta^2 (lam^2 - 2 lam) is exact, and
    # profiles 1 and 2 (both lam = 1) tie below profile 0 (lam = 1/2) in every row
    d = 7
    basis = TrigBasis(0.0, 1.0, d)
    grid = hand_grid(np.array([[0.5] * 4, [1.0] * 4, [1.0] * 4]))
    theta = np.array([[1.0] * d, [2.0] * d, [3.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0]])
    coeffs = FourierCoeffs(theta_hat=theta, s_jd=np.zeros((3, d)))
    chosen = select(coeffs, grid, 0.05, basis)
    assert np.all(chosen.J_values[:, 1] == chosen.J_values[:, 2])
    assert chosen.alpha_index.tolist() == [1, 1, 1]
    assert chosen.alpha_hat == ((2, 1.0),) * 3
