"""Signal evaluation, noise families, and trajectory generation."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tvarseq as tv
from tvarseq.signals import (
    NoiseSpec,
    SignalSpec,
    ValidationError,
    evaluate_signal,
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


class TestEvaluateSignal:
    def test_s1_at_zero(self, s1):
        assert evaluate_signal(s1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_s1_at_quarter(self, s1):
        assert evaluate_signal(s1, 0.25) == pytest.approx(0.0, abs=1e-15)

    def test_s2_at_zero(self, s2):
        assert evaluate_signal(s2, 0.0) == pytest.approx(S2_AT_ZERO, abs=1e-10)

    def test_s2_uniform_grid_matches_scattered(self, s2):
        # the folded evaluation on uniform grids must agree with direct summation
        vals = signal_values_uniform(s2, 8)
        for i in (0, 3, 8):
            assert vals[i] == pytest.approx(evaluate_signal(s2, i / 8), abs=1e-9)

    def test_series_kind(self):
        spec = SignalSpec(kind="series", coefficients=(0.0, 0.3), stability_eps=0.4,
                          lipschitz_L=10.0)
        # 0.3 * psi_2(x) = 0.3*sqrt(2)*cos(2*pi*x)
        assert evaluate_signal(spec, 0.0) == pytest.approx(0.3 * math.sqrt(2), abs=1e-12)

    def test_domain_error(self, s1):
        with pytest.raises((ValidationError, ValueError)):
            evaluate_signal(s1, 1.5)

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
                                                 ("uniform_unit_variance", 3.0)])
    def test_analytic_moments(self, family, varsigma):
        noise = NoiseSpec(family)
        assert noise.varsigma == varsigma
        assert moment_2l(family, 1) == pytest.approx(1.0)  # unit variance
        # class condition E|xi|^{2l} <= l! varsigma^l
        for l in range(1, 8):
            assert moment_2l(family, l) <= math.factorial(l) * varsigma ** l + 1e-12

    @pytest.mark.parametrize("family", ["gaussian_std", "uniform_unit_variance"])
    def test_empirical_moments(self, family, rng):
        m = 10 ** 6
        x = NoiseSpec(family).draw(rng, m)
        assert abs(x.mean()) < 4 / math.sqrt(m)
        assert abs(x.var() - 1.0) < 4 / math.sqrt(m)
        analytic4 = moment_2l(family, 2)
        assert np.mean(x ** 4) == pytest.approx(analytic4, rel=0.10)

    def test_noise_roundtrip(self):
        noise = NoiseSpec("bounded_symmetric", radius=2.0)
        assert NoiseSpec.from_dict(noise.to_dict()) == noise


@pytest.mark.parametrize("spec", [
    tv.signal_s1(),
    tv.signal_s2(),
    SignalSpec(kind="series", a=-1.0, b=2.5, coefficients=(0.1, 0.2, -0.05)),
    SignalSpec(kind="tabulated", values=(0.1, -0.3, 0.2), stability_eps=0.25),
    NoiseSpec("gaussian_std"),
    NoiseSpec("uniform_unit_variance"),
    NoiseSpec("bounded_symmetric"),
    NoiseSpec("bounded_symmetric", radius=2.0, varsigma=7.5),
    NoiseSpec("none"),
], ids=lambda spec: getattr(spec, "kind", None) or spec.family)
def test_spec_json_roundtrip(spec):
    # defaults such as varsigma and radius survive the trip through JSON text
    assert type(spec).from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


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
        bad = SignalSpec(kind="tabulated", values=(0.99, 0.99), stability_eps=0.5,
                         lipschitz_L=1.0)
        with pytest.raises(ValidationError):
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
    family = draw(st.sampled_from(["gaussian_std", "uniform_unit_variance",
                                   "bounded_symmetric", "none"]))
    return n, s, NoiseSpec(family), draw(st.integers(0, 2 ** 32 - 1))


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(recurrences())
@example((10, np.full(11, 1.0 - 1e-12), NoiseSpec("gaussian_std"), 0))
@example((4900, np.zeros(4901), NoiseSpec("uniform_unit_variance"), 1))
def test_scan_matches_scalar_recurrence(case):
    n, s, noise, seed = case
    traj = generate_trajectory(ZERO_SIGNAL, noise, n, seed, signal_values=s)
    xi = noise.draw(np.random.default_rng(seed), n)
    y = [0.0]
    for j in range(1, n + 1):
        y.append(s[j] * y[-1] + xi[j - 1])
    y = np.asarray(y)
    assert traj.y.shape == (n + 1,) and traj.y[0] == 0.0
    assert np.max(np.abs(traj.y - y)) <= 1e-12 * np.max(np.abs(y))
    if noise.family == "none":
        assert np.all(traj.y == 0.0)


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
        np.testing.assert_allclose(signal_values_uniform(spec, N), evaluate_signal(spec, x),
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
        np.testing.assert_allclose(evaluate_signal(spec, x), expected, rtol=0, atol=1e-15)


def peaked_between_grid_points():
    """S = 0.605 cos(2 pi 50 (x - 0.0005)): the peak 0.605 lies midway between the
    points i/1000, where |S| is at most 0.5976."""
    phi = 2 * math.pi * 50 * 0.0005
    beta = [0.0] * 101
    beta[99] = 0.605 * math.cos(phi) / math.sqrt(2)
    beta[100] = 0.605 * math.sin(phi) / math.sqrt(2)
    return SignalSpec(kind="series", coefficients=tuple(beta), stability_eps=0.4,
                      lipschitz_L=400.0)


class TestStabilityCertificate:
    def test_rejects_peak_between_scan_points(self):
        spec = peaked_between_grid_points()
        assert np.max(np.abs(signal_values_uniform(spec, 1000))) < 0.6
        with pytest.raises(ValidationError, match="stability"):
            validate_stability(spec, 100)

    def test_bound_is_certified_and_tight(self, s1, s2):
        bound = validate_stability(s1, 1000)
        assert 0.5 <= bound <= 0.5 + 1e-3 * s1.stability_eps
        bound = validate_stability(s2, 1000)
        assert S2_AT_ZERO <= bound <= S2_AT_ZERO + 1e-3 * s2.stability_eps

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
        steep = SignalSpec(kind="series", coefficients=(0.0, 0.3), stability_eps=0.4,
                           lipschitz_L=2.6)
        with pytest.raises(ValidationError, match="Lipschitz"):
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

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            NoiseSpec("bounded_symmetric", radius=math.nan)

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="bogus"):
            SignalSpec.from_dict({"kind": "series", "coefficients": [0.1], "bogus": 1})
        with pytest.raises(ValidationError, match="bogus"):
            NoiseSpec.from_dict({"family": "gaussian_std", "bogus": 1})

    def test_missing_kind_named(self):
        with pytest.raises(ValidationError, match="kind"):
            SignalSpec.from_dict({"coefficients": [0.1]})


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(tv.__file__))
    code = "import sys, tvarseq; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"
