"""Pinsker constant and signal functionals."""

import math

import numpy as np
import pytest

from tvarseq.signals import SignalSpec
from tvarseq.theory import efficiency_ratio, pinsker_constant, sigma_star, upsilon

PINSKER_1_1 = 0.4235654288187097  # ((1+2)·1)^{1/3} (1/(2π))^{2/3}, frozen


def const_signal(c, a=0.0, b=1.0):
    return SignalSpec(kind="tabulated", a=a, b=b, values=(c, c),
                      stability_eps=1.0 - abs(c) - 1e-9 if c else 0.5,
                      lipschitz_L=1.0)


class TestSigmaStar:
    def test_zero_signal(self):
        assert sigma_star(const_signal(0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_s1(self, s1):
        assert sigma_star(s1) == pytest.approx(0.875, abs=1e-6)

    def test_constant(self):
        c = 0.6
        assert sigma_star(const_signal(c)) == pytest.approx(1.0 - c ** 2, abs=1e-9)

    def test_series_by_parseval(self):
        beta = np.random.default_rng(5).normal(scale=0.05, size=9)
        spec = SignalSpec(kind="series", a=-1.0, b=2.0, coefficients=tuple(beta.tolist()),
                          stability_eps=0.5, lipschitz_L=100.0)
        assert sigma_star(spec) == pytest.approx(3.0 - float(beta @ beta), rel=0, abs=1e-14)

    def test_s2_closed_form(self, s2):
        j = np.arange(1, 100001, dtype=float)
        exact = 1.0 - 0.01 - 0.5 * float(np.sum((j + 3.0) ** -4))
        assert sigma_star(s2) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_tabulated_exact(self):
        # S is linear on [0, 1/2] and [1/2, 1]: int S^2 = (1/2)(0.25 + (0.25 - 0.1 + 0.04))/3
        spec = SignalSpec(kind="tabulated", values=(0.0, 0.5, -0.2), stability_eps=0.5,
                          lipschitz_L=2.0)
        assert sigma_star(spec) == pytest.approx(1.0 - 0.5 * 0.44 / 3.0, rel=0, abs=1e-14)

    def test_bounds_on_corpus(self, s1, s2):
        for spec in (s1, s2, const_signal(0.3)):
            v = sigma_star(spec)
            span = spec.b - spec.a
            assert spec.stability_eps ** 2 * span - 1e-9 <= v <= span + 1e-9


class TestPinskerConstant:
    def test_k1_r1(self):
        assert pinsker_constant(1, 1.0) == pytest.approx(PINSKER_1_1, abs=1e-12)
        assert pinsker_constant(1, 1.0) == pytest.approx(0.423565, abs=1e-5)

    def test_scaling_identity(self):
        for k in (1, 2, 5):
            for rho in (0.5, 2.0, 10.0):
                lhs = pinsker_constant(k, rho * 1.3)
                rhs = rho ** (1.0 / (2 * k + 1)) * pinsker_constant(k, 1.3)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_vanishes_at_zero_radius(self):
        assert pinsker_constant(2, 1e-30) < 1e-5

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError, match="finite r"):
            pinsker_constant(2, r)

    def test_monotone_in_r(self):
        rs = np.linspace(0.1, 5.0, 20)
        vals = [pinsker_constant(2, r) for r in rs]
        assert np.all(np.diff(vals) > 0)


class TestUpsilon:
    def test_unit_base(self):
        assert upsilon(const_signal(0.0), 1) == pytest.approx(1.0, abs=1e-9)

    def test_s1(self, s1):
        assert upsilon(s1, 1) == pytest.approx(0.875 ** (-2.0 / 3.0), abs=1e-6)
        assert upsilon(s1, 1) == pytest.approx(1.09310, abs=1e-5)

    def test_wider_interval(self):
        spec = const_signal(0.0, a=0.0, b=2.0)
        assert upsilon(spec, 1) == pytest.approx(4.0 ** (-2.0 / 3.0), abs=1e-9)
        assert upsilon(spec, 1) == pytest.approx(0.39685, abs=1e-5)

    def test_roundtrip(self, s1, s2):
        for spec in (s1, s2):
            for k in (1, 2, 3):
                span = spec.b - spec.a
                prod = upsilon(spec, k) * (span * sigma_star(spec)) ** (2.0 * k / (2 * k + 1))
                assert prod == pytest.approx(1.0, abs=1e-12)


class TestEfficiencyReport:
    def test_exact_efficiency_is_one(self, s1):
        k, r, n = 2, 1.0, 70000
        rate = n ** (2.0 * k / (2 * k + 1))
        ups = upsilon(s1, k)
        # a hypothetical estimator meeting the bound exactly
        rbar = pinsker_constant(k, r) / (rate * ups)
        rep = efficiency_ratio(rbar, s1, k, r, n, signal_id="s1")
        assert rep.ratio == pytest.approx(1.0, abs=1e-10)

    def test_report_fields(self, s1):
        rep = efficiency_ratio(0.05, s1, 2, 1.0, 10000, signal_id="s1")
        d = rep.to_dict()
        assert d["sigma_star"] == pytest.approx(0.875, abs=1e-6)
        assert rep.normalized_risk > 0
        assert math.isfinite(rep.ratio)
