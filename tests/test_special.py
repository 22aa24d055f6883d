"""Kernel accuracy tests against independent oracles (mpmath, exact
rationals, quadrature, brute-force enumeration)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from equilab import EquivalenceMargin, binom_tost_pvalue
from equilab.special import (binomial_cdf, binomial_pmf, binomial_pmf_vector,
                             binomial_quantile, binomial_sf,
                             binomial_tail_vectors, log_gamma, normal_cdf,
                             normal_quantile, reg_inc_beta)

mpmath.mp.dps = 40


class TestLogGamma:
    def test_exact_points(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_against_mpmath_grid(self):
        # absolute 1e-12 where float spacing allows; relative 1e-13 else
        for x in [1e-3, 0.02, 0.5, 1.5, 7.0, 20.0, 123.456, 5e3, 1e6]:
            ref = float(mpmath.loggamma(mpmath.mpf(x)).real)
            err = abs(log_gamma(x) - ref)
            assert err <= max(1e-12, 1e-13 * abs(ref)), f"x={x}: err={err}"

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)


class TestRegIncBeta:
    def test_uniform_is_identity(self):
        assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-12)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_quadrature_oracle(self):
        # adaptive quadrature of the Beta(3.5, 47.5) density
        a, b = 3.5, 47.5
        norm = math.exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b))
        density = lambda u: norm * u ** (a - 1) * (1 - u) ** (b - 1)
        ref, est_err = integrate.quad(density, 0.0, 0.25, epsabs=1e-12, epsrel=1e-12)
        assert est_err < 1e-10
        value = reg_inc_beta(a, b, 0.25)
        assert value == pytest.approx(ref, rel=1e-10)
        assert value == pytest.approx(0.9997825023932758, rel=1e-12)

    def test_against_mpmath_wide_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = 10 ** rng.uniform(-1, 3.7)
            b = 10 ** rng.uniform(-1, 3.7)
            x = rng.uniform(0.001, 0.999)
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
            got = reg_inc_beta(a, b, x)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-300), (a, b, x)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.05, 500), b=st.floats(0.05, 500),
           x=st.floats(0.001, 0.999))
    def test_symmetry_identity(self, a, b, x):
        # x kept away from the endpoints: rounding of 1 - x is amplified
        # there by the unbounded Beta density when a shape is below 1
        assert reg_inc_beta(a, b, x) == pytest.approx(
            1.0 - reg_inc_beta(b, a, 1.0 - x), abs=1e-10)
        assert reg_inc_beta(a, b, 0.0) == 0.0
        assert reg_inc_beta(a, b, 1.0) == 1.0

    def test_binomial_duality_exhaustive(self):
        # I_x(a, b) = P(Bin(a+b-1, x) >= a) for integer shapes, m <= 60
        for m in range(1, 61):
            for a in range(1, m + 1):
                b = m - a + 1
                for x in (0.2, 0.5, 0.75):
                    tail = math.fsum(math.comb(m, y) * x ** y * (1 - x) ** (m - y)
                                     for y in range(a, m + 1))
                    assert reg_inc_beta(a, b, x) == pytest.approx(tail, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, 1.5)


class TestNormal:
    def test_cdf_center_and_symmetry(self):
        assert normal_cdf(0.0) == 0.5
        for z in (0.1, 1.0, 3.7):
            assert normal_cdf(-z) + normal_cdf(z) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_against_erf_reference(self):
        for z in np.linspace(-8, 8, 33):
            ref = float(mpmath.ncdf(z))
            assert abs(normal_cdf(z) - ref) <= 1e-15

    def test_cdf_vectorized(self):
        z = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(normal_cdf(z),
                                   [normal_cdf(v) for v in z], rtol=0, atol=0)

    def test_quantile_bisection_oracle(self):
        # bisection on normal_cdf, tolerance 1e-9
        u = 0.975
        lo, hi = -10.0, 10.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < u:
                lo = mid
            else:
                hi = mid
        assert normal_quantile(u) == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert normal_quantile(u) == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_roundtrip(self):
        for u in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-9]:
            assert abs(normal_cdf(normal_quantile(u)) - u) <= 1e-12

    def test_quantile_of_cdf_identity(self):
        # near u = 1 the spacing of representable u itself limits the
        # roundtrip: one ulp of u moves z by ulp/pdf(z), ~1.8e-8 at z = 6
        for z in np.linspace(-6, 6, 49):
            u = normal_cdf(z)
            pdf = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            info_limit = 2.0 * math.ulp(u) / pdf
            assert normal_quantile(u) == pytest.approx(z, abs=max(1e-9, info_limit))

    def test_quantile_domain(self):
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(u)


class TestBinomial:
    def test_cdf_exact_rational(self):
        ref = Fraction(sum(math.comb(10, s) for s in range(6)), 2 ** 10)
        assert ref == Fraction(319, 512)
        assert binomial_cdf(10, 0.5, 5) == pytest.approx(float(ref), rel=1e-12)

    def test_quantile_enumeration_oracle(self):
        # smallest s with F(s) >= u; F(0) = 2^-10 < 0.001 so the answer is 1
        u = 0.001
        running = 0.0
        expected = None
        for s in range(11):
            running += math.comb(10, s) / 2 ** 10
            if running >= u:
                expected = s
                break
        assert expected == 1
        assert binomial_quantile(10, 0.5, u) == expected

    def test_pmf_normalization(self):
        total = math.fsum(binomial_pmf(50, 0.25, s) for s in range(51))
        assert total == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(binomial_pmf_vector(50, 0.25).sum(), 1.0, atol=1e-10)

    def test_cdf_sf_complement(self):
        for s in range(0, 40, 5):
            assert binomial_cdf(40, 0.3, s) + binomial_sf(40, 0.3, s + 1) \
                == pytest.approx(1.0, abs=1e-12)

    def test_cdf_relative_accuracy_deep_tail(self):
        # shorter-tail summation keeps relative accuracy in the far tail
        ref = Fraction(0)
        for s in range(4):
            ref += Fraction(math.comb(60, s)) * Fraction(3, 4) ** s * Fraction(1, 4) ** (60 - s)
        assert binomial_cdf(60, 0.75, 3) == pytest.approx(float(ref), rel=1e-12)

    def test_large_n_log_space(self):
        n = 10_000
        pmf = binomial_pmf(n, 0.3, 3000)
        assert 0.0 < pmf < 1.0
        assert binomial_cdf(n, 0.3, 3000) == pytest.approx(0.5, abs=0.02)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 80), theta=st.floats(0.05, 0.95),
           u=st.floats(1e-6, 1 - 1e-6))
    def test_quantile_is_generalized_inverse(self, n, theta, u):
        q = binomial_quantile(n, theta, u)
        assert binomial_cdf(n, theta, q) >= u
        if q > 0:
            assert binomial_cdf(n, theta, q - 1) < u

    def test_quantile_nondecreasing_in_u(self):
        qs = [binomial_quantile(30, 0.4, u) for u in np.linspace(0.01, 0.99, 50)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_pmf(0, 0.5, 0)
        with pytest.raises(ValueError):
            binomial_pmf(10, 1.0, 5)
        with pytest.raises(ValueError):
            binomial_cdf(10, 0.5, 11)
        with pytest.raises(ValueError):
            binomial_quantile(10, 0.5, 0.0)


def assert_relative(got, ref, rel=1e-10):
    """Relative error at most ``rel`` wherever the reference exceeds 1e-300."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    keep = ref > 1e-300
    err = np.abs(got[keep] - ref[keep]) / ref[keep]
    assert err.max() <= rel, f"worst relative error {err.max():.3g}"


class TestBinomialTailAccuracy:
    """Both tails and the TOST p-value against scipy in relative terms,
    including the far tails near the margin centre."""

    margin = EquivalenceMargin(0.25, 0.75)

    @pytest.mark.parametrize("n", [50, 1000, 10_000])
    def test_tail_vectors_whole_support(self, n):
        counts = np.arange(n + 1)
        for theta in (0.25, 0.5, 0.75):
            cdf, sf = binomial_tail_vectors(n, theta)
            assert_relative(cdf, stats.binom.cdf(counts, n, theta))
            assert_relative(sf, stats.binom.sf(counts - 1, n, theta))

    # every count at n <= 1000; every 97th at n = 1e4, where each scalar
    # call builds an O(n) vector (the whole support is checked above)
    @pytest.mark.parametrize("n, step", [(50, 1), (1000, 1), (10_000, 97)])
    def test_scalar_tails_and_tost_pvalue(self, n, step):
        counts = np.arange(0, n + 1, step)
        for theta in (self.margin.theta1, self.margin.theta2):
            assert_relative([binomial_cdf(n, theta, int(s)) for s in counts],
                            stats.binom.cdf(counts, n, theta))
            assert_relative([binomial_sf(n, theta, int(s)) for s in counts],
                            stats.binom.sf(counts - 1, n, theta))
        ref = np.maximum(stats.binom.sf(counts - 1, n, self.margin.theta1),
                         stats.binom.cdf(counts, n, self.margin.theta2))
        assert_relative([binom_tost_pvalue(n, int(s), self.margin).value for s in counts], ref)
