"""Normal-model evidence: critical constants, folded combined p-value,
conjugate posterior tails, evidence CDF.  Oracles: direct quantile algebra,
Monte Carlo at the boundary parameter, quadrature of the posterior density."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from equilab import (EquivalenceMargin, NormalPrior, NormalSampling,
                     normal_critical_constants, normal_onesided_pvalues,
                     normal_posterior_probs, normal_pvalue_cdf,
                     normal_tost_pvalue, posterior_coefficient)
from equilab.normal import _combined_pvalue_values
from equilab.special import normal_cdf, normal_quantile


class TestCriticalConstants:
    def test_approximate_matches_quantile_formulas(self):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        c, d = normal_critical_constants(samp, margin, 0.05, mode="approximate")
        scale = 2.0 * math.sqrt(30)
        assert c == pytest.approx(30 * 1.0 + scale * normal_quantile(0.95), rel=1e-12)
        assert d == pytest.approx(30 * 4.0 + scale * normal_quantile(0.05), rel=1e-12)

    @pytest.mark.parametrize("mode", ["approximate", "exact_symmetric"])
    def test_symmetric_margin_gives_opposite_constants(self, mode):
        samp = NormalSampling(sigma=1.5, n=12)
        margin = EquivalenceMargin(-0.7, 0.7)
        c, d = normal_critical_constants(samp, margin, 0.1, mode=mode)
        assert c == pytest.approx(-d, abs=1e-8)

    def test_exact_mode_attains_level(self):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        level = 0.05
        c, d = normal_critical_constants(samp, margin, level, mode="exact_symmetric")
        scale = samp.sigma * math.sqrt(samp.n)
        attained = (normal_cdf((d - samp.n * margin.theta1) / scale)
                    - normal_cdf((c - samp.n * margin.theta1) / scale))
        assert attained == pytest.approx(level, abs=1e-10)
        assert c + d == pytest.approx(samp.n * (margin.theta1 + margin.theta2), rel=1e-12)

    @pytest.mark.parametrize("sigma, n, margin", [(2.0, 30, (1.0, 4.0)), (1.0, 5, (0.0, 0.3)),
                                                  (0.5, 400, (-2.0, -1.9))])
    def test_exact_mode_attains_level_to_rounding(self, sigma, n, margin):
        samp = NormalSampling(sigma=sigma, n=n)
        margin = EquivalenceMargin(*margin)
        levels = np.concatenate(([1e-3, 0.005], np.arange(1, 100) / 100, [0.995, 0.999]))
        c, d = normal_critical_constants(samp, margin, levels, mode="exact_symmetric")
        scale = samp.sigma * math.sqrt(samp.n)
        attained = (normal_cdf((d - samp.n * margin.theta1) / scale)
                    - normal_cdf((c - samp.n * margin.theta1) / scale))
        assert np.abs(attained - levels).max() <= 1e-13

    @pytest.mark.parametrize("mode", ["approximate", "exact_symmetric"])
    def test_level_array_equals_scalar_calls(self, mode):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        levels = np.concatenate(([1e-6, 1e-3], np.arange(1, 100) / 100, [0.999]))
        c, d = normal_critical_constants(samp, margin, levels, mode=mode)
        each = np.array([normal_critical_constants(samp, margin, t, mode=mode)
                         for t in levels])
        assert np.array_equal(c, each[:, 0]) and np.array_equal(d, each[:, 1])
        for theta in (0.5, 2.5):
            cdf = normal_pvalue_cdf(samp, theta, margin, levels, mode=mode)
            each = [normal_pvalue_cdf(samp, theta, margin, t, mode=mode) for t in levels]
            assert all(isinstance(value, float) for value in each)
            assert np.array_equal(cdf, each)

    def test_wide_margin_modes_agree(self):
        # tails decouple when sigma*sqrt(n) << n * margin width
        samp = NormalSampling(sigma=0.5, n=100)
        margin = EquivalenceMargin(0.0, 10.0)
        ca, da = normal_critical_constants(samp, margin, 0.5, mode="approximate")
        ce, de = normal_critical_constants(samp, margin, 0.5, mode="exact_symmetric")
        assert ce == pytest.approx(ca, abs=1e-6 * max(1.0, abs(ca)))
        assert de == pytest.approx(da, abs=1e-6 * abs(da))

    def test_empty_region_possible_in_approximate_mode(self):
        samp = NormalSampling(sigma=3.0, n=5)
        c, d = normal_critical_constants(samp, EquivalenceMargin(0.0, 0.5), 0.05)
        assert c > d


class TestCombinedPvalue:
    def test_zero_at_margin_center(self):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        assert normal_tost_pvalue(samp, 2.5, margin).value == 0.0

    def test_degenerate_margin_collapses_to_two_sided_form(self):
        samp = NormalSampling(sigma=1.0, n=4)
        margin = EquivalenceMargin(0.5 - 1e-13, 0.5 + 1e-13)
        for xbar in (0.2, 0.7, 1.5):
            t_abs = abs(2.0 * (xbar - 0.5))
            expected = 2.0 * normal_cdf(t_abs) - 1.0
            assert normal_tost_pvalue(samp, xbar, margin).value == pytest.approx(
                expected, abs=1e-9)

    def test_boundary_observation_monte_carlo_oracle(self):
        # at xbar = theta1 the formula gives ~1/2; cross-check against the
        # boundary-parameter probability P(|T| <= |t_obs|) by simulation
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        xbar = 1.0
        p = normal_tost_pvalue(samp, xbar, margin).value
        t_obs = math.sqrt(30) * (xbar - margin.center) / samp.sigma
        rng = np.random.default_rng(2024)
        draws = margin.theta1 + samp.sigma / math.sqrt(30) * rng.standard_normal(10**6)
        t_sim = math.sqrt(30) * (draws - margin.center) / samp.sigma
        est = float(np.mean(np.abs(t_sim) <= abs(t_obs)))
        se = math.sqrt(est * (1 - est) / 10**6)
        assert abs(p - est) <= 3 * se
        assert p == pytest.approx(0.5, abs=1e-4)

    def test_sign_resolution_identity(self):
        # for xbar at or above the center the folded form equals
        # Phi(z1) + Phi(z2) - 1 with per-boundary standardizations; the
        # mirrored identity holds below the center
        samp = NormalSampling(sigma=1.3, n=17)
        margin = EquivalenceMargin(-0.4, 1.0)
        rn = math.sqrt(17)
        for xbar in np.linspace(margin.center, 3.0, 25):
            direct = (normal_cdf(rn * (xbar - margin.theta1) / 1.3)
                      + normal_cdf(rn * (xbar - margin.theta2) / 1.3) - 1.0)
            assert normal_tost_pvalue(samp, xbar, margin).value == pytest.approx(
                direct, abs=1e-12)
        for xbar in np.linspace(-3.0, margin.center, 25):
            mirrored = 2 * margin.center - xbar
            assert normal_tost_pvalue(samp, xbar, margin).value == pytest.approx(
                normal_tost_pvalue(samp, mirrored, margin).value, abs=1e-12)

    def test_monotone_in_distance_from_center(self):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        dists = np.linspace(0.0, 5.0, 200)
        vals = _combined_pvalue_values(samp, margin.center + dists, margin)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] > 0.999

    def test_onesided_uniform_at_boundary(self):
        # upper-tail p-value is exactly U(0,1) when xbar sits at theta1
        samp = NormalSampling(sigma=1.0, n=20)
        margin = EquivalenceMargin(0.0, 2.0)
        rng = np.random.default_rng(77)
        draws = margin.theta1 + 1.0 / math.sqrt(20) * rng.standard_normal(10**5)
        pvals = np.array([normal_onesided_pvalues(samp, x, margin)[0].value
                          for x in draws[:2000]])
        # vectorized path for the full sample
        z = math.sqrt(20) * (draws - margin.theta1)
        pvals_full = 1.0 - normal_cdf(z)
        ks = stats.kstest(pvals_full, "uniform").statistic
        assert ks < 1.5 * 1.36 / math.sqrt(10**5)
        assert np.allclose(pvals, pvals_full[:2000])


class TestPosteriorProbs:
    def test_half_at_lower_boundary(self):
        samp = NormalSampling(sigma=1.0, n=10)
        upper, _, _ = normal_posterior_probs(samp, NormalPrior(0.7), 0.0,
                                             EquivalenceMargin(0.0, 1.0))
        assert upper.value == pytest.approx(0.5, rel=1e-12)

    def test_flat_prior_limit_equals_pvalues(self):
        samp = NormalSampling(sigma=2.0, n=25)
        margin = EquivalenceMargin(0.5, 3.5)
        prior = NormalPrior(1e8)
        for xbar in np.linspace(-1, 5, 13):
            up, lo, _ = normal_posterior_probs(samp, prior, xbar, margin)
            pu, pl = normal_onesided_pvalues(samp, xbar, margin)
            assert up.value == pytest.approx(pu.value, abs=1e-6)
            assert lo.value == pytest.approx(pl.value, abs=1e-6)

    def test_quadrature_oracle(self):
        # combined posterior evidence vs quadrature of the two posterior
        # normal densities over their null regions
        samp = NormalSampling(sigma=1.0, n=20)
        prior = NormalPrior(0.25)
        margin = EquivalenceMargin(0.0, 2.0)
        xbar = 1.0
        up, lo, combined = normal_posterior_probs(samp, prior, xbar, margin)

        def posterior_density(theta, prior_mean):
            var = prior.tau**2 * samp.sigma**2 / (samp.sigma**2 + samp.n * prior.tau**2)
            mean = ((prior_mean * samp.sigma**2 + samp.n * prior.tau**2 * xbar)
                    / (samp.sigma**2 + samp.n * prior.tau**2))
            return math.exp(-0.5 * (theta - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)

        up_ref, err1 = integrate.quad(posterior_density, -np.inf, margin.theta1,
                                      args=(margin.theta1,), epsabs=1e-12)
        lo_ref, err2 = integrate.quad(posterior_density, margin.theta2, np.inf,
                                      args=(margin.theta2,), epsabs=1e-12)
        assert max(err1, err2) < 1e-10
        assert up.value == pytest.approx(up_ref, abs=1e-10)
        assert lo.value == pytest.approx(lo_ref, abs=1e-10)
        assert combined.value == pytest.approx(up_ref + lo_ref, abs=1e-10)

    def test_limit_gap_decreases_with_tau(self):
        samp = NormalSampling(sigma=1.0, n=20)
        margin = EquivalenceMargin(0.0, 2.0)
        grid = np.linspace(-2.0, 4.0, 81)
        gaps = []
        for tau in (1.0, 10.0, 1e3, 1e6):
            prior = NormalPrior(tau)
            sup = 0.0
            for xbar in grid:
                up, lo, _ = normal_posterior_probs(samp, prior, xbar, margin)
                pu, pl = normal_onesided_pvalues(samp, xbar, margin)
                sup = max(sup, abs(up.value - pu.value), abs(lo.value - pl.value))
            gaps.append(sup)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5


class TestPosteriorCoefficient:
    def test_finite_designs_keep_the_expression(self):
        rng = np.random.default_rng(4)
        for sigma, tau, n in zip(10.0 ** rng.uniform(-3, 3, 500), 10.0 ** rng.uniform(-3, 3, 500),
                                 rng.integers(1, 10**4, 500)):
            samp, prior = NormalSampling(float(sigma), int(n)), NormalPrior(float(tau))
            expected = n * tau / (sigma * math.sqrt(sigma ** 2 + n * tau ** 2))
            assert posterior_coefficient(samp, prior).hex() == float(expected).hex()

    @pytest.mark.parametrize("tau", [1e150, 1e154, 1e155, 1e300])
    def test_flat_limit_past_overflow(self, tau):
        # n tau^2 overflows from tau = 1e154 at n = 30; the scale keeps its
        # limit sqrt(n) / sigma
        got = posterior_coefficient(NormalSampling(2.0, 30), NormalPrior(tau))
        assert got == pytest.approx(math.sqrt(30) / 2.0, rel=1e-15)

    def test_vanishing_prior_past_overflow(self):
        # sigma^2 overflows; the prior dominates and the scale tends to 0
        assert posterior_coefficient(NormalSampling(1e300, 30), NormalPrior(1e-300)) == 0.0


class TestPvalueCdf:
    def test_empty_region_gives_zero(self):
        samp = NormalSampling(sigma=3.0, n=5)
        assert normal_pvalue_cdf(samp, 0.25, EquivalenceMargin(0.0, 0.5), 0.05) == 0.0

    def test_full_mass_limit(self):
        samp = NormalSampling(sigma=1.0, n=50)
        margin = EquivalenceMargin(0.0, 4.0)
        assert normal_pvalue_cdf(samp, 2.0, margin, 0.999) > 0.99

    def test_more_noise_moves_curves_toward_diagonal(self):
        # under both the outside parameter (0.5) and the inside one (1.5),
        # doubling sigma pulls the evidence CDF toward uniformity
        margin = EquivalenceMargin(1.0, 4.0)
        for theta in (0.5, 1.5):
            for t in np.arange(0.1, 0.91, 0.1):
                y2 = normal_pvalue_cdf(NormalSampling(2.0, 30), theta, margin, t)
                y4 = normal_pvalue_cdf(NormalSampling(4.0, 30), theta, margin, t)
                assert abs(y4 - t) <= abs(y2 - t) + 1e-12

    def test_monotone_in_t_inside_margin(self):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        vals = [normal_pvalue_cdf(samp, 2.0, margin, t)
                for t in np.linspace(0.01, 0.99, 50)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mode, thresholded, other, other_value", [
        ("approximate", "tost", "folded", 0.1009),
        ("exact_symmetric", "folded", "tost", 0.4210),
    ])
    def test_each_mode_thresholds_its_own_pvalue(self, mode, thresholded, other,
                                                 other_value):
        # the region's end points are where the thresholded p-value equals
        # t: the larger one-sided (TOST) one by default, the folded one of
        # normal_tost_pvalue under exact_symmetric
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 1.5)
        t = 0.3

        def pvalues(xbar):
            upper, lower = normal_onesided_pvalues(samp, xbar, margin)
            return {"tost": max(upper.value, lower.value),
                    "folded": normal_tost_pvalue(samp, xbar, margin).value}

        for bound in normal_critical_constants(samp, margin, t, mode=mode):
            values = pvalues(bound / samp.n)
            assert values[thresholded] == pytest.approx(t, abs=1e-9)
            assert values[other] == pytest.approx(other_value, abs=1e-4)
