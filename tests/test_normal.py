"""Normal-model evidence: critical constants, folded combined p-value,
conjugate posterior tails, evidence CDF.  Oracles: direct quantile algebra,
Monte Carlo at the boundary parameter, quadrature of the posterior density."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from equilab import (EquivalenceMargin, NormalPrior, NormalSampling,
                     normal_critical_constants, normal_onesided_pvalues,
                     normal_posterior_probs, normal_pvalue_cdf,
                     normal_tost_pvalue, posterior_coefficient)
from equilab.normal import (CONSTANT_MODES, _bisect, _boundary_tails, _combined_pvalue_values,
                            _combined_tails, _posterior_cdf)
from equilab.special import SLICE_ELEMENTS, normal_cdf, normal_quantile


class TestCriticalConstants:
    def test_approximate_matches_quantile_formulas(self):
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        c, d = normal_critical_constants(samp, margin, 0.05, mode="approximate")
        scale = 2.0 * math.sqrt(30)
        assert c == pytest.approx(30 * 1.0 + scale * normal_quantile(0.95), rel=1e-12)
        assert d == pytest.approx(30 * 4.0 + scale * normal_quantile(0.05), rel=1e-12)

    def test_level_below_the_spacing_at_one(self):
        # 1 - level rounds to 1 below 2^-53: the upper quantile is -q(level)
        samp = NormalSampling(sigma=2.0, n=30)
        margin = EquivalenceMargin(1.0, 4.0)
        c, d = normal_critical_constants(samp, margin, np.array([1e-300, 0.05]))
        scale = 2.0 * math.sqrt(30)
        assert c[0] == 30 * 1.0 - scale * normal_quantile(1e-300)
        assert d[0] == 30 * 4.0 + scale * normal_quantile(1e-300)
        assert (c[1], d[1]) == normal_critical_constants(samp, margin, 0.05)

    @pytest.mark.parametrize("mode", ["approximate", "exact_symmetric"])
    def test_symmetric_margin_gives_opposite_constants(self, mode):
        samp = NormalSampling(sigma=1.5, n=12)
        margin = EquivalenceMargin(-0.7, 0.7)
        c, d = normal_critical_constants(samp, margin, 0.1, mode=mode)
        assert c == pytest.approx(-d, abs=1e-8)
        if mode == "approximate":
            # both tails from the one quantile q(level): exact mirror images
            # at every level, from 1e-300 up to 1 - 2^-53
            levels = np.concatenate((10.0 ** -np.arange(300, 0, -10), np.arange(1, 64) / 64,
                                     1.0 - 2.0 ** -np.arange(7, 54, 4), [1.0 - 2.0 ** -53]))
            c, d = normal_critical_constants(samp, margin, levels, mode=mode)
            assert np.array_equal(c, -d)

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


def bits(values):
    """The float64 bit patterns of ``values``, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).view(np.int64)


class TestBoundaryKernel:
    """Every normal-model tail pair is a :func:`_boundary_tails` pair."""

    @staticmethod
    def designs():
        rng = np.random.default_rng(7)
        for _ in range(20):
            samp = NormalSampling(float(10.0 ** rng.uniform(-2, 2)), int(rng.integers(1, 500)))
            theta1 = float(rng.uniform(-3, 3))
            margin = EquivalenceMargin(theta1, theta1 + float(10.0 ** rng.uniform(-2, 1)))
            xbar = rng.normal(margin.center, 3 * margin.half_width + samp.sigma, 25)
            yield samp, NormalPrior(float(10.0 ** rng.uniform(-2, 2))), margin, xbar

    def test_onesided_pvalues_are_the_kernel_elements(self):
        for samp, _, margin, xbar in self.designs():
            z_scale = samp.root_n / samp.sigma
            first, second = _boundary_tails(xbar, margin.theta1, margin.theta2, z_scale)
            for x, phi1, phi2 in zip(xbar.tolist(), first.tolist(), second.tolist()):
                upper, lower = normal_onesided_pvalues(samp, x, margin)
                assert upper.value.hex() == phi1.hex()
                assert lower.value.hex() == phi2.hex()
                # the bits of the plain expressions, each tail Phi of its own signed z
                z1 = (margin.theta1 - x) * z_scale
                z2 = (x - margin.theta2) * z_scale
                assert upper.value.hex() == normal_cdf(z1).hex()
                assert lower.value.hex() == normal_cdf(z2).hex()

    def test_posterior_probs_are_the_kernel_elements(self):
        for samp, prior, margin, xbar in self.designs():
            coef = posterior_coefficient(samp, prior)
            first, second = _boundary_tails(xbar, margin.theta1, margin.theta2, coef)
            evidence = np.clip(_combined_tails(xbar.copy(), margin.theta1, margin.theta2,
                                               coef, np.add), 0.0, 1.0)
            for x, phi1, phi2, pb in zip(xbar.tolist(), first.tolist(), second.tolist(),
                                         evidence.tolist()):
                upper, lower, combined = normal_posterior_probs(samp, prior, x, margin)
                assert upper.value.hex() == phi1.hex()
                assert lower.value.hex() == phi2.hex()
                assert upper.value.hex() == normal_cdf(coef * (margin.theta1 - x)).hex()
                assert lower.value.hex() == normal_cdf(coef * (x - margin.theta2)).hex()
                assert combined.value.hex() == pb.hex()

    def test_kernel_rows_are_new_and_the_combination_in_place(self):
        xbar = np.linspace(-1.0, 2.0, 7)
        before = xbar.copy()
        tails = _boundary_tails(xbar, 0.0, 1.0, 2.0)
        assert tails.shape == (2, 7) and not np.shares_memory(tails, xbar)
        assert np.array_equal(xbar, before)
        assert _combined_tails(xbar, 0.0, 1.0, 2.0, np.add) is xbar

    def test_zero_dimensional_input(self):
        # a 0-d level makes 0-d brackets: the rows are two 0-d values
        tails = _boundary_tails(np.asarray(0.25), -1.0, 0.5, 1.5)
        assert tails.shape == (2,)
        assert bits(tails).tolist() == bits([normal_cdf(-1.875), normal_cdf(-0.375)]).tolist()

    @pytest.mark.parametrize("combine", [np.add, np.subtract])
    @pytest.mark.parametrize("size", [1, SLICE_ELEMENTS - 1, SLICE_ELEMENTS, SLICE_ELEMENTS + 1,
                                      2 * SLICE_ELEMENTS + 3])
    def test_slice_loop_is_the_elementwise_kernel_combined(self, combine, size):
        rng = np.random.default_rng(size)
        x = rng.normal(0.5, 2.0, size)
        theta1, theta2, scale = -0.25, 1.5, 3.0
        got = _combined_tails(x.copy(), theta1, theta2, scale, combine)
        upper, lower = _boundary_tails(x, theta1, theta2, scale)
        assert np.array_equal(bits(got), bits(combine(lower, upper)))
        # the one-element kernel at every slice edge and at random elements
        edges = [i for start in range(0, size, SLICE_ELEMENTS) for i in (start - 1, start)]
        for i in sorted({i for i in edges if 0 <= i < size} | {size - 1}
                        | set(rng.integers(0, size, 50).tolist())):
            one_upper, one_lower = _boundary_tails(x[i], theta1, theta2, scale)
            assert bits(got[i]) == bits(combine(one_lower, one_upper))

    @staticmethod
    def brackets(rng, lo, hi, size=200):
        """Points spread over each bracket [lo, hi], the ends among them."""
        share = rng.uniform(0.0, 1.0, (size,) + np.shape(lo))
        share[0], share[1] = 0.0, 1.0
        return lo + share * (hi - lo)

    def test_folded_predicate_is_the_plain_phi_pair(self):
        # exact_symmetric bisects F(x) = Phi(x - h) - Phi(-x - h) >= level
        rng = np.random.default_rng(11)
        for h in (0.0, 1e-12, 0.3, 2.5, 40.0):
            level = rng.uniform(1e-9, 0.99, 8)
            x = self.brackets(rng, np.maximum(0.0, h + normal_quantile(level)),
                              h + normal_quantile(0.5 * (1.0 + level)))
            for point in (x, x[0, 0]):
                upper, lower = _boundary_tails(point, -h, h, 1.0)
                plain = normal_cdf(point - h) - normal_cdf(-point - h)
                assert np.array_equal(bits(lower - upper), bits(plain))

    def test_posterior_predicate_is_the_plain_phi_pair(self):
        # the posterior region bisects Phi(u) + Phi(-u - 2k) > t
        rng = np.random.default_rng(12)
        for k in (0.0, 1e-9, 0.4, 3.0, 1e10, math.inf):
            t = rng.uniform(1e-12, 0.99, 8)
            u = self.brackets(rng, np.maximum(-k, normal_quantile(0.5 * t)), normal_quantile(t))
            for point in (u, u[1, 0]):
                pair = np.add(*_boundary_tails(point, -2.0 * k, 0.0, 1.0))
                plain = normal_cdf(point) + normal_cdf(-point - 2.0 * k)
                assert np.array_equal(bits(pair), bits(plain))

    def test_bisections_match_the_plain_phi_pairs(self):
        # each region end is bit for bit the bisection of the plain expression
        samp, margin = NormalSampling(2.0, 30), EquivalenceMargin(1.0, 4.0)
        level = np.array([1e-12, 1e-6, 0.05, 0.5, 0.9])
        h = margin.half_width * samp.root_n / samp.sigma
        _, x = _bisect(lambda x: normal_cdf(x - h) - normal_cdf(-x - h) >= level,
                       np.maximum(0.0, h + normal_quantile(level)),
                       h + normal_quantile(0.5 * (1.0 + level)))
        c = samp.n * margin.center - samp.sigma * samp.root_n * x
        got_c, _ = normal_critical_constants(samp, margin, level, mode="exact_symmetric")
        assert np.array_equal(bits(got_c), bits(c))
        for tau in (0.5, 5e-324):
            prior = NormalPrior(tau)
            coef = posterior_coefficient(samp, prior)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                k = coef * margin.half_width
                u, _ = _bisect(lambda u: normal_cdf(u) + normal_cdf(-u - 2.0 * k) > level,
                               np.maximum(-k, normal_quantile(0.5 * level)),
                               normal_quantile(level))
                e = np.where(2.0 * normal_cdf(-k) > level, -np.inf, u / coef)
            theta = 1.5
            lo, hi = margin.theta1 - e, margin.theta2 + e
            a = (lo - theta) * (samp.root_n / samp.sigma)
            b = (hi - theta) * (samp.root_n / samp.sigma)
            with np.errstate(over="ignore", invalid="ignore"):
                a, b = np.where(a + b > 0.0, (-b, -a), (a, b))
            plain = np.where(lo > hi, 0.0, np.maximum(normal_cdf(b) - normal_cdf(a), 0.0))
            got = _posterior_cdf(samp, prior, margin, theta, level)
            assert np.array_equal(bits(got), bits(plain))

    def test_distance_past_the_float_range(self):
        # (xbar - theta) sqrt(n) / sigma overflows: Phi of +-inf, no warning
        samp = NormalSampling(1e-200, 30)
        upper, lower = normal_onesided_pvalues(samp, 1e200, EquivalenceMargin(-1.0, 1.0))
        assert (upper.value, lower.value) == (0.0, 1.0)

    def test_distance_past_the_float_range_with_a_moderate_z(self):
        # (theta1 - xbar) sqrt(n) overflows, its z = -2 does not: Phi(-2)
        samp = NormalSampling(1e308, 4)
        upper, lower = normal_onesided_pvalues(samp, 1e308, EquivalenceMargin(-1.0, 0.0))
        assert upper.value == pytest.approx(normal_cdf(-2.0), rel=1e-15)
        assert lower.value == pytest.approx(normal_cdf(2.0), rel=1e-15)


class TestSamplingDomain:
    def test_sd_of_the_mean_must_be_a_normal_float(self):
        NormalSampling(1e-300, 30)
        for sigma, n in ((5e-324, 1), (1e-310, 1), (3e-308, 30)):
            with pytest.raises(ValueError, match="sigma / sqrt"):
                NormalSampling(sigma, n)


def coefficient_ulps(got, sigma, tau, n):
    """Distance of ``got`` from the exact posterior coefficient, in ulp of
    the exact value; None where that is not a normal float."""
    with mpmath.workdps(50):
        sigma, tau = mpmath.mpf(sigma), mpmath.mpf(tau)
        exact = n * tau / (sigma * mpmath.sqrt(sigma ** 2 + n * tau ** 2))
        if exact < sys.float_info.min:
            return None
        return float(abs(got - exact) / math.ulp(float(exact)))


class TestPosteriorCoefficient:
    @pytest.mark.parametrize("sigma, tau, n", [(1e-200, 2.5e-200, 1), (1e-200, 1e-200, 7),
                                               (1e-300, 1e-15, 7), (1e-160, 5e-324, 1)])
    def test_past_underflow(self, sigma, tau, n):
        # sigma^2 + n tau^2 or sigma times its root underflows; the scale is
        # invariant under sigma, tau -> s sigma, s tau up to the factor 1/s
        got = posterior_coefficient(NormalSampling(sigma, n), NormalPrior(tau))
        scaled = mpmath.mpf(tau) / mpmath.mpf(sigma)
        expected = n * scaled / (mpmath.mpf(sigma) * mpmath.sqrt(1 + n * scaled ** 2))
        assert got == pytest.approx(float(expected), rel=1e-14)

    def test_finite_designs_keep_the_expression(self):
        # the value of n tau / (sigma sqrt(sigma^2 + n tau^2)) to 3 ulp
        rng = np.random.default_rng(4)
        for sigma, tau, n in zip(10.0 ** rng.uniform(-3, 3, 500), 10.0 ** rng.uniform(-3, 3, 500),
                                 rng.integers(1, 10**4, 500)):
            sigma, tau, n = float(sigma), float(tau), int(n)
            got = posterior_coefficient(NormalSampling(sigma, n), NormalPrior(tau))
            assert coefficient_ulps(got, sigma, tau, n) <= 3.0, (sigma, tau, n)

    @pytest.mark.parametrize("tau", [1e150, 1e154, 1e155, 1e300])
    def test_flat_limit_past_overflow(self, tau):
        # n tau^2 overflows from tau = 1e154 at n = 30; the scale keeps its
        # limit sqrt(n) / sigma
        got = posterior_coefficient(NormalSampling(2.0, 30), NormalPrior(tau))
        assert got == pytest.approx(math.sqrt(30) / 2.0, rel=1e-15)

    def test_vanishing_prior_past_overflow(self):
        # sigma^2 overflows; the prior dominates and the scale tends to 0
        assert posterior_coefficient(NormalSampling(1e300, 30), NormalPrior(1e-300)) == 0.0


class TestEvidenceOverTheFloatRange:
    """Every normal-model evidence value, and the posterior coefficient, is a
    value with no floating-point warning for sigma and tau in [1e-300,
    1e300], n up to 1e6, and xbar and the margin anywhere in +-1e308."""

    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(sigma=st.floats(-300, 300).map(lambda e: 10.0 ** e),
           tau=st.floats(-300, 300).map(lambda e: 10.0 ** e),
           n=st.integers(1, 10**6), xbar=st.floats(-1e308, 1e308),
           bounds=st.lists(st.floats(-1e308, 1e308), min_size=2, max_size=2, unique=True))
    # a folded p-value of inf - inf, a z scale past the float range, and a
    # boundary difference past it
    @example(sigma=1e-300, tau=1.0, n=1, xbar=1e308, bounds=[-1e300, 1e300])
    @example(sigma=1e-300, tau=1.0, n=1, xbar=1e300, bounds=[0.0, 1.0])
    @example(sigma=1.0, tau=1.0, n=1, xbar=1e308, bounds=[-1e308, 0.0])
    # sigma times hypot(sigma / tau, sqrt n) overflows; the scale is 5.7e-306
    @example(sigma=1.0697439634546093e+148, tau=2.1267990189581272e-13, n=3064, xbar=1.0,
             bounds=[0.0, 1.0])
    def test_values_without_warnings(self, sigma, tau, n, xbar, bounds):
        samp, prior = NormalSampling(sigma, n), NormalPrior(tau)
        margin = EquivalenceMargin(*sorted(bounds))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # EvidenceMeasure holds each value to [0, 1], so a NaN raises
            normal_onesided_pvalues(samp, xbar, margin)
            normal_tost_pvalue(samp, xbar, margin)
            normal_posterior_probs(samp, prior, xbar, margin)
            coef = posterior_coefficient(samp, prior)
        assert 0.0 <= coef < math.inf
        ulps = coefficient_ulps(coef, sigma, tau, n)
        assert ulps is None or ulps <= 3.0


class TestRelativeAccuracy:
    """Every normal-model evidence value is within 1e-12 relative of its
    40-digit value, tails down to 1e-300 included: each tail is Phi of its
    own signed distance, never 1 - Phi."""

    @staticmethod
    def cases():
        """Random designs, each with sample means that put the upper, the
        lower and neither tail anywhere from Phi(-37.5) ~ 5e-308 up to Phi(3)."""
        rng = np.random.default_rng(2024)
        for _ in range(300):
            samp = NormalSampling(float(10.0 ** rng.uniform(-2, 2)), int(rng.integers(1, 10**4)))
            prior = NormalPrior(float(10.0 ** rng.uniform(-2, 2)))
            theta1 = float(rng.uniform(-3, 3))
            margin = EquivalenceMargin(theta1, theta1 + float(10.0 ** rng.uniform(-3, 1)))
            sd = samp.sigma / samp.root_n
            z = rng.uniform(-37.5, 3.0, 4)
            xbar = np.concatenate((margin.theta1 - z * sd, margin.theta2 + z * sd,
                                   margin.center + rng.normal(0.0, 3.0, 2) * sd))
            yield samp, prior, margin, xbar.tolist()

    @staticmethod
    def exact(samp, prior, margin, xbar):
        """(p upper, p lower, folded p, posterior upper, lower, combined) in 40 digits."""
        with mpmath.workdps(40):
            n, sigma, tau = mpmath.mpf(samp.n), mpmath.mpf(samp.sigma), mpmath.mpf(prior.tau)
            x, t1, t2 = (mpmath.mpf(v) for v in (xbar, margin.theta1, margin.theta2))
            values = []
            for scale in (mpmath.sqrt(n) / sigma,
                          n * tau / (sigma * mpmath.sqrt(sigma ** 2 + n * tau ** 2))):
                upper, lower = mpmath.ncdf((t1 - x) * scale), mpmath.ncdf((x - t2) * scale)
                values.append((upper, lower))
            (p_up, p_lo), (b_up, b_lo) = values
            return p_up, p_lo, abs(p_lo - p_up), b_up, b_lo, min(1, b_up + b_lo)

    def test_against_mpmath(self):
        smallest, folded_checked = 1.0, 0
        for samp, prior, margin, xbars in self.cases():
            for x in xbars:
                p_up, p_lo = normal_onesided_pvalues(samp, x, margin)
                b_up, b_lo, b_comb = normal_posterior_probs(samp, prior, x, margin)
                folded = normal_tost_pvalue(samp, x, margin)
                got = (p_up, p_lo, folded, b_up, b_lo, b_comb)
                want = self.exact(samp, prior, margin, x)
                for index, (g, w) in enumerate(zip(got, want)):
                    if index == 2 and w < 1e-3 * max(want[0], want[1]):
                        continue  # the folded p-value cancels there
                    folded_checked += index == 2
                    if w < 1e-300:
                        assert g.value <= 1e-300
                        continue
                    smallest = min(smallest, float(w))
                    assert abs(g.value - w) <= 1e-12 * w, (samp, prior, margin, x, index)
        assert smallest < 1e-290 and folded_checked > 1000


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


class TestCdfAccuracy:
    """Both evidence CDFs against 40-digit mpmath: each is an interval
    probability, within 1e-10 of the larger of its value and the normal tail
    beyond the interval end nearest theta (0.5 where the interval straddles
    theta)."""

    @staticmethod
    def cases():
        """Random designs with theta within 5 half-widths of the centre and
        levels from 1e-12 up."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            samp = NormalSampling(float(10.0 ** rng.uniform(-2, 2)), int(rng.integers(1, 10**4)))
            prior = NormalPrior(float(10.0 ** rng.uniform(-2, 2)))
            theta1 = float(rng.uniform(-3, 3))
            margin = EquivalenceMargin(theta1, theta1 + float(10.0 ** rng.uniform(-3, 1)))
            theta = margin.center + float(rng.uniform(-5, 5)) * margin.half_width
            levels = np.sort(np.concatenate(([1e-12], 10.0 ** rng.uniform(-12, 0, 3))))
            yield samp, prior, margin, theta, levels

    @staticmethod
    def interval_prob(samp, theta, lo, hi):
        """(P_theta(lo <= xbar <= hi), the tail T of the tolerance), each
        Phi taken on the small-tail side: a 40-digit Phi(b) - Phi(a) near 1
        would itself be wrong."""
        if lo > hi:
            return mpmath.mpf(0), mpmath.mpf(0)
        scale = mpmath.sqrt(samp.n) / mpmath.mpf(samp.sigma)
        a, b = (lo - mpmath.mpf(theta)) * scale, (hi - mpmath.mpf(theta)) * scale
        if a + b > 0:
            a, b = -b, -a
        return mpmath.ncdf(b) - mpmath.ncdf(a), (mpmath.ncdf(b) if b < 0 else mpmath.mpf(0.5))

    @staticmethod
    def posterior_region(samp, prior, margin, t):
        """The level-t region (theta1 - e, theta2 + e) of the combined
        posterior evidence, e from a 40-digit root of Phi(c e) +
        Phi(-c e - 2 c eps) = t; None where it is empty."""
        n, sigma, tau = mpmath.mpf(samp.n), mpmath.mpf(samp.sigma), mpmath.mpf(prior.tau)
        theta1, theta2 = mpmath.mpf(margin.theta1), mpmath.mpf(margin.theta2)
        coef = n * tau / (sigma * mpmath.sqrt(sigma ** 2 + n * tau ** 2))
        k, t = coef * (theta2 - theta1) / 2, mpmath.mpf(t)
        if 2 * mpmath.ncdf(-k) > t:
            return None

        def quantile(p):
            return -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * p)

        u = mpmath.findroot(lambda u: mpmath.ncdf(u) + mpmath.ncdf(-u - 2 * k) - t,
                            (max(-k, quantile(t / 2)), quantile(t)), solver="anderson")
        return theta1 - u / coef, theta2 + u / coef

    def test_against_mpmath(self):
        tiny = straddling = 0
        with mpmath.workdps(40):
            for samp, prior, margin, theta, levels in self.cases():
                got = {"posterior": _posterior_cdf(samp, prior, margin, theta, levels)}
                for mode in CONSTANT_MODES:
                    got["pvalue"] = normal_pvalue_cdf(samp, theta, margin, levels, mode=mode)
                    c, d = normal_critical_constants(samp, margin, levels, mode=mode)
                    for index, t in enumerate(levels):
                        bounds = {"pvalue": (mpmath.mpf(c[index]) / samp.n,
                                             mpmath.mpf(d[index]) / samp.n)}
                        if mode == "approximate":
                            bounds["posterior"] = (self.posterior_region(samp, prior, margin, t)
                                                   or (mpmath.inf, -mpmath.inf))
                        for name, (lo, hi) in bounds.items():
                            want, tail = self.interval_prob(samp, theta, lo, hi)
                            error = abs(got[name][index] - want)
                            assert error <= max(1e-10 * max(want, tail), 1e-300), \
                                (name, mode, samp, prior, margin, theta, t)
                            tiny += 1e-300 < want < 1e-100
                            straddling += tail == 0.5
        assert tiny >= 50 and straddling >= 200, (tiny, straddling)

    def test_folded_pvalue_cdf_at_a_tiny_level(self):
        # the region is narrow and 4 sds from theta: at the parent the two
        # Phi near 1 left 2.2e-5 relative error here
        samp, margin = NormalSampling(2.0, 30), EquivalenceMargin(1.0, 4.0)
        c, d = normal_critical_constants(samp, margin, 1e-12, mode="exact_symmetric")
        with mpmath.workdps(40):
            want, _ = self.interval_prob(samp, 1.0, mpmath.mpf(c) / 30, mpmath.mpf(d) / 30)
        got = normal_pvalue_cdf(samp, 1.0, margin, 1e-12, mode="exact_symmetric")
        assert abs(got - want) <= 1e-7 * want
