"""Property tests of the selection criterion and the trigonometric basis.

Each example draws an odd d, an interval [a, b] and random inputs, then
checks that the criterion J_d equals its expanded sums (the weights given on a
band 1..W of the d coefficients, zero beyond), and that the coefficients of a
random Y reconstruct Y and satisfy Parseval.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tvarseq.basis import FourierCoeffs, TrigBasis, fourier_coefficients
from tvarseq.selection import DELTA_MAX, criterion

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
