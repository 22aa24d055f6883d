"""Exact curves, power maximizer search, and the simulation-table protocol."""

import math
from dataclasses import replace

import numpy as np
import pytest

from equilab import (BetaPrior, CurveSpec, EquivalenceMargin, NormalPrior,
                     SignificanceLevels, binom_evidence_values,
                     binom_measure_cdf, binom_power, binom_power_curve,
                     binomial_pmf_vector,
                     normal_curves, table_simulation, theta_max)
from equilab.power import _argmax_toward_center


def spec_binom(n, margin, prior=None, levels=None, theta=0.5):
    return CurveSpec(model="binomial", n=n, margin=EquivalenceMargin(*margin),
                     prior=prior, levels=levels or SignificanceLevels(),
                     theta_true=theta)


class TestMeasureCdf:
    def test_full_support_at_one(self):
        point = binom_measure_cdf(spec_binom(20, (0.2, 0.8), BetaPrior(1, 1)), 1.0)
        assert point.y_frequentist == pytest.approx(1.0, abs=1e-10)
        assert point.y_bayes == pytest.approx(1.0, abs=1e-10)

    def test_zero_below_smallest_value(self):
        point = binom_measure_cdf(spec_binom(10, (0.2, 0.8), BetaPrior(1, 1)), 1e-12)
        assert point.y_frequentist == 0.0
        assert point.y_bayes == 0.0

    def test_small_prior_less_conservative_than_pvalue(self):
        spec = spec_binom(50, (0.25, 0.75), BetaPrior(0.5, 0.5), theta=0.25)
        for t in np.arange(0.1, 0.95, 0.1):
            point = binom_measure_cdf(spec, float(t))
            assert point.y_bayes >= point.y_frequentist - 1e-12

    def test_matches_direct_enumeration(self):
        spec = spec_binom(30, (0.2, 0.8), BetaPrior(2, 5), theta=0.4)
        pf, pb = binom_evidence_values(30, spec.margin, spec.prior)
        pmf = binomial_pmf_vector(30, 0.4)
        point = binom_measure_cdf(spec, 0.3)
        assert point.y_frequentist == pytest.approx(float(pmf @ (pf <= 0.3)), abs=1e-14)
        assert point.y_bayes == pytest.approx(float(pmf @ (pb <= 0.3)), abs=1e-14)


class TestPower:
    def test_size_bounded_at_boundary(self):
        for n in (10, 35, 60):
            spec = spec_binom(n, (0.25, 0.75))
            point = binom_power(spec, 0.25)
            assert point.y_frequentist <= 0.05 + 1e-12

    def test_small_prior_at_least_as_powerful(self):
        spec = spec_binom(50, (0.25, 0.75), BetaPrior(0.5, 0.5))
        for theta in (0.3, 0.4, 0.5, 0.6):
            point = binom_power(spec, theta)
            assert point.y_bayes >= point.y_frequentist - 1e-12
        # strict somewhere: the posterior region is a proper superset here
        assert binom_power(spec, 0.4).y_bayes > binom_power(spec, 0.4).y_frequentist

    def test_symmetric_configuration_symmetric_curve(self):
        spec = spec_binom(24, (0.2, 0.8), BetaPrior(2, 2))
        for theta in (0.1, 0.23, 0.4):
            left = binom_power(spec, theta)
            right = binom_power(spec, 1.0 - theta)
            assert left.y_frequentist == pytest.approx(right.y_frequentist, abs=1e-12)
            assert left.y_bayes == pytest.approx(right.y_bayes, abs=1e-12)

    def test_pvalue_power_unimodal(self):
        for n in (10, 30):
            spec = replace(spec_binom(n, (0.2, 0.8)), grid=np.arange(1, 1000) * 1e-3)
            power = np.array([p.y_frequentist for p in binom_power_curve(spec)])
            peak = int(np.argmax(power))
            assert np.all(np.diff(power[: peak + 1]) >= -1e-12)
            assert np.all(np.diff(power[peak:]) <= 1e-12)


class TestThetaMax:
    def test_pvalue_maximizer_at_half(self):
        for n in (10, 30, 50):
            theta_f, _ = theta_max(spec_binom(n, (0.2, 0.8)))
            assert theta_f == pytest.approx(0.5, abs=1e-3)

    def test_strong_symmetric_prior_ties_to_half(self):
        # Beta(50, 50) swamps n=10 data: evidence is tiny for every count,
        # the power curve is flat at 1, and the tie resolves to the center
        _, theta_b = theta_max(spec_binom(10, (0.2, 0.8), BetaPrior(50, 50)))
        assert theta_b == pytest.approx(0.5, abs=1e-3)

    def test_unequal_levels_shift_pvalue_but_not_posterior(self):
        levels = SignificanceLevels(alpha_upper=0.025, alpha_lower=0.1)
        spec = spec_binom(20, (0.2, 0.8), BetaPrior(0.5, 0.5), levels=levels)
        theta_f, theta_b = theta_max(spec)
        assert abs(theta_f - 0.5) > 1e-3
        assert theta_b == pytest.approx(0.5, abs=1e-3)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            theta_max(spec_binom(10, (0.2, 0.8)), resolution=0.01)

    def test_tie_breaking_rules(self):
        thetas = np.array([0.2, 0.4, 0.5, 0.6, 0.8])
        flat = np.ones(5)
        assert _argmax_toward_center(thetas, flat) == 0.5
        bimodal = np.array([0.1, 1.0, 0.5, 1.0, 0.1])
        assert _argmax_toward_center(thetas, bimodal) == 0.4  # equidistant: smaller


class TestNormalCurves:
    def test_cdf_curve_nondecreasing(self):
        spec = CurveSpec(model="normal", n=30, margin=EquivalenceMargin(1.0, 4.0),
                         prior=NormalPrior(0.5), grid=np.linspace(0.05, 0.95, 19),
                         theta_true=2.0, sigma=2.0)
        points = normal_curves(spec, mc_reps=20_000, seed=5)
        yf = [p.y_frequentist for p in points]
        yb = [p.y_bayes for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(yf, yf[1:]))
        assert all(b >= a - 0.02 for a, b in zip(yb, yb[1:]))

    def test_flat_prior_posterior_curve_is_uniform_at_boundary(self):
        # with tau huge and a wide margin, the combined posterior measure at
        # the lower boundary reduces to the (uniform) one-sided p-value
        margin = EquivalenceMargin(0.0, 10.0)
        grid = np.arange(0.1, 0.95, 0.1)
        spec = CurveSpec(model="normal", n=25, margin=margin,
                         prior=NormalPrior(1e6), grid=grid, theta_true=0.0,
                         sigma=1.0)
        reps = 100_000
        points = normal_curves(spec, mc_reps=reps, seed=11)
        for point in points:
            se = math.sqrt(point.x * (1 - point.x) / reps)
            assert abs(point.y_bayes - point.x) <= 3 * se

    def test_no_prior_gives_nan_bayes_column(self):
        spec = CurveSpec(model="normal", n=10, margin=EquivalenceMargin(0.0, 2.0),
                         grid=[0.2, 0.5], theta_true=1.0, sigma=1.0)
        points = normal_curves(spec, mc_reps=10, seed=0)
        assert math.isnan(points[0].y_bayes)
        assert 0.0 <= points[0].y_frequentist <= 1.0


class TestTableSimulation:
    def test_mc_agrees_with_exact_enumeration(self):
        for prior in (None, BetaPrior(0.5, 0.5), BetaPrior(3, 3)):
            spec = spec_binom(50, (0.25, 0.75), prior)
            res = table_simulation(spec, reps=10_000, seed=42)
            for mc, exact in ((res.mc_type1, res.exact_type1),
                              (res.mc_power, res.exact_power)):
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / res.reps)
                assert abs(mc - exact) <= 3 * se + 1e-9

    def test_deterministic_given_seed(self):
        spec = spec_binom(40, (0.25, 0.75), BetaPrior(1, 1))
        a = table_simulation(spec, reps=2000, seed=7)
        b = table_simulation(spec, reps=2000, seed=7)
        assert a == b

    def test_requires_binomial_model(self):
        spec = CurveSpec(model="normal", n=10, margin=EquivalenceMargin(0.0, 1.0))
        with pytest.raises(ValueError):
            table_simulation(spec, reps=10, seed=0)
