"""Correlation structure of the evidence measures: closed forms vs seeded
Monte Carlo, and properties of the correlation estimator itself."""

import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from equilab import (EquivalenceMargin, NormalPrior, NormalSampling,
                     corr_equivalence_closed, corr_equivalence_mc,
                     corr_partial_closed, corr_partial_pvalues, corr_two_sided,
                     corr_two_sided_mc,
                     equivalence_covariance_terms, expected_phi_product,
                     sample_correlation, spawn_rng)
from equilab import correlation
from equilab.correlation import CorrelationResult
from equilab.special import SLICE_ELEMENTS, normal_cdf


class TestExpectedPhiProduct:
    def test_zero_arguments(self):
        assert expected_phi_product(0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_equal_arguments_formula(self):
        for a in (0.3, 1.7, 4.0):
            expected = 0.25 + math.asin(a * a / (1 + a * a)) / (2 * math.pi)
            assert expected_phi_product(a, a) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("a, b, expected", [
        (math.inf, math.inf, 0.5), (1e200, 1e200, 0.5), (1e300, 1e10, 0.5),
        (math.inf, 1.0, 0.375), (1e200, 1.0, 0.375)])
    def test_arguments_past_the_float_range(self, a, b, expected):
        # the root overflows: the product of the factors a / sqrt(1 + a^2)
        assert expected_phi_product(a, b) == pytest.approx(expected, rel=1e-15)

    def test_unit_arguments_equal_one_third(self):
        value = expected_phi_product(1.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
        rng = spawn_rng(314, 0)
        z = rng.standard_normal(10**7)
        phi2 = normal_cdf(z) ** 2
        se = float(phi2.std() / math.sqrt(z.size))
        assert abs(float(phi2.mean()) - value) <= 3 * se

    def test_phi_variance_matches_arcsin_half(self):
        # Var(Phi(Z)) = arcsin(1/2) / (2 pi) = 1/12
        rng = spawn_rng(9, 0)
        z = rng.standard_normal(10**6)
        v = float(normal_cdf(z).var())
        assert math.asin(0.5) / (2 * math.pi) == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert abs(v - 1.0 / 12.0) <= 3 * 0.001  # loose moment SE


class TestSampleCorrelation:
    def test_scale_invariance(self):
        rng = spawn_rng(21, 0)
        x = rng.standard_normal(5000)
        y = 0.3 * x + rng.standard_normal(5000)
        base = sample_correlation(x, y)
        for a, b in ((2.0, 5.0), (0.01, 300.0)):
            scaled = sample_correlation(a * x, b * y)
            assert scaled.rho == pytest.approx(base.rho, abs=1e-12)
            assert scaled.std_error == pytest.approx(base.std_error, rel=1e-9)

    def test_se_present_only_for_mc(self):
        res = sample_correlation(np.arange(10.0), np.arange(10.0) ** 2)
        assert res.method == "monte_carlo" and res.std_error is not None
        closed = corr_two_sided(0.5)
        assert closed.method == "closed_form" and closed.std_error is None

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            sample_correlation(np.ones(10), np.arange(10.0))

    @pytest.mark.parametrize("call, message", [
        (lambda: CorrelationResult(1.5, "closed_form"), "correlation must lie in [-1, 1]"),
        (lambda: CorrelationResult(-1.5, "closed_form"), "correlation must lie in [-1, 1]"),
        (lambda: CorrelationResult(0.5, "bootstrap"), "unknown method 'bootstrap'"),
        (lambda: CorrelationResult(0.5, "closed_form", 0.1),
         "std_error must be present iff method is monte_carlo"),
        (lambda: CorrelationResult(0.5, "monte_carlo"),
         "std_error must be present iff method is monte_carlo"),
        (lambda: sample_correlation(np.arange(10.0), np.arange(9.0)),
         "two equal-length 1-d samples"),
        (lambda: corr_two_sided_mc(0.0, draws=100), "w must lie in (0, 1]"),
        (lambda: corr_two_sided_mc(1.5, draws=100), "w must lie in (0, 1]"),
    ])
    def test_invalid_argument_is_refused(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_place_equals_expression_form(self, seed):
        # the estimator builds its arrays in place; the plain expressions,
        # with each mean the fsum of numpy's per-slice sums, stay here as
        # the reference, and the results must agree bit for bit
        def mean(a):
            return math.fsum(a[lo:lo + SLICE_ELEMENTS].sum()
                             for lo in range(0, a.size, SLICE_ELEMENTS)) / a.size

        rng = spawn_rng(seed, 0)
        x = rng.standard_normal(20_000)
        y = normal_cdf(0.7 * x + rng.standard_normal(20_000)) * 3.0 - x
        xc, yc = x - x.mean(), y - y.mean()
        zx = xc / math.sqrt(mean(xc * xc))
        zy = yc / math.sqrt(mean(yc * yc))
        r = max(-1.0, min(1.0, mean(zx * zy)))
        psi = zx * zy - 0.5 * r * (zx * zx + zy * zy)
        se = math.sqrt(mean(psi * psi) / x.size)
        res = sample_correlation(x, y)
        assert (res.rho, res.std_error) == (r, se)


    def test_inputs_left_unchanged(self):
        rng = spawn_rng(4, 0)
        x = rng.standard_normal(1000)
        y = x + rng.standard_normal(1000)
        kept_x, kept_y = x.copy(), y.copy()
        assert sample_correlation(x, y).rho > 0.5
        assert sample_correlation(x, x).rho == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(x, kept_x) and np.array_equal(y, kept_y)


class TestEquivalenceCorrelation:
    def test_four_terms_cancel_exactly(self):
        samp = NormalSampling(sigma=1.0, n=20)
        prior = NormalPrior(0.5)
        t1, t2, t3, t4 = equivalence_covariance_terms(samp, prior)
        assert t1 > 0
        assert t1 == t2 == t3 == t4
        result = corr_equivalence_closed(samp, prior, EquivalenceMargin(0.0, 2.0))
        assert result.rho == 0.0
        assert result.method == "closed_form"

    def test_term_value_formula(self):
        samp = NormalSampling(sigma=2.0, n=30)
        prior = NormalPrior(1.0)
        t1, *_ = equivalence_covariance_terms(samp, prior)
        arg = math.sqrt(30) * 1.0 / math.sqrt(30 * 1.0 + 2 * 4.0)
        assert t1 == pytest.approx(math.asin(arg) / (2 * math.pi), rel=1e-12)

    def test_mc_estimate_consistent_with_zero(self):
        samp = NormalSampling(sigma=1.0, n=20)
        res = corr_equivalence_mc(samp, NormalPrior(0.5),
                                  EquivalenceMargin(0.0, 2.0),
                                  draws=200_000, seed=3)
        assert abs(res.rho) <= 3 * res.std_error

    @pytest.mark.parametrize("sigma, tau, n", [(1e-200, 1e200, 10), (1e-200, 1e-200, 7),
                                               (1e200, 1e200, 30), (1e300, 1e-300, 3)])
    def test_past_the_float_range(self, sigma, tau, n):
        # sigma^2 + n tau^2 over- or underflows: a = sqrt(1 + b^2) and the
        # term is asin(b / sqrt(2 + b^2)) / (2 pi)
        samp, prior = NormalSampling(sigma, n), NormalPrior(tau)
        t1, t2, t3, t4 = equivalence_covariance_terms(samp, prior)
        b = mpmath.sqrt(n) * mpmath.mpf(tau) / mpmath.mpf(sigma)
        expected = float(mpmath.asin(b / mpmath.sqrt(2 + b ** 2)) / (2 * mpmath.pi))
        assert t1 == t2 == t3 == t4 == pytest.approx(expected, rel=1e-14, abs=1e-300)
        assert corr_equivalence_closed(samp, prior, EquivalenceMargin(0.0, 1.0)).rho == 0.0

    def test_scale_change_keeps_zero(self):
        for sigma in (1.0, 2.0):
            res = corr_equivalence_closed(NormalSampling(sigma, 20),
                                          NormalPrior(0.5),
                                          EquivalenceMargin(0.0, 2.0))
            assert res.rho == 0.0


def _partial_by_mpmath(c):
    """The partial correlation's arcsine-integral ratio by mpmath quadrature."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        cov = mpmath.quad(lambda t: mpmath.exp(-c ** 2 / (2 * (1 - mpmath.sin(t)))),
                          [0, mpmath.pi / 6])
        var = mpmath.quad(lambda t: mpmath.exp(-c ** 2 / (2 * (1 + mpmath.sin(t)))),
                          [0, mpmath.pi / 6])
        return float(-cov / var)


class TestPartialClosedForm:
    # n = 1 and sigma = 1 make the half-width equal to c
    UNIT = NormalSampling(sigma=1.0, n=1)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 1.9, 2.5, 4.0, 6.0, 10.0])
    def test_against_mpmath(self, c):
        res = corr_partial_closed(self.UNIT, half_width=c)
        assert res.method == "closed_form" and res.std_error is None
        assert res.rho == pytest.approx(_partial_by_mpmath(c), rel=1e-12)

    @pytest.mark.parametrize("c, rho", [(0.447, -0.94301), (1.342, -0.60372)])
    def test_bivariate_normal_values(self, c, rho):
        # Phi2-ratio values, checked against scipy's multivariate_normal
        assert corr_partial_closed(self.UNIT, half_width=c).rho == pytest.approx(rho, abs=1e-5)

    def test_degenerate_margin_is_minus_one(self):
        assert corr_partial_closed(NormalSampling(1.0, 10), half_width=0.0).rho == -1.0

    def test_margin_and_half_width_agree(self):
        samp = NormalSampling(sigma=2.0, n=30)
        assert (corr_partial_closed(samp, EquivalenceMargin(1.0, 4.0))
                == corr_partial_closed(samp, half_width=1.5))

    def test_increasing_in_c(self):
        values = [corr_partial_closed(self.UNIT, half_width=c).rho
                  for c in np.linspace(0.0, 12.0, 61)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(-1.0 <= v <= 0.0 for v in values)

    def test_wide_margin_is_positive_zero(self):
        rho = corr_partial_closed(self.UNIT, half_width=400.0).rho
        assert rho == 0.0 and math.copysign(1.0, rho) == 1.0

    @pytest.mark.parametrize("half_width", [67.0, 1e10, 1e197, 1e300])
    def test_past_the_underflow_is_positive_zero(self, half_width):
        # exp(-c^2 / 6) underflows from c = 66.9 and c^2 overflows from 1.3e154
        rho = corr_partial_closed(self.UNIT, half_width=half_width).rho
        assert rho == 0.0 and math.copysign(1.0, rho) == 1.0

    def test_tiny_sigma_is_positive_zero(self):
        rho = corr_partial_closed(NormalSampling(1e-150, 10), EquivalenceMargin(0.0, 1.0)).rho
        assert rho == 0.0 and math.copysign(1.0, rho) == 1.0

    def test_continuous_at_the_underflow(self):
        values = [corr_partial_closed(self.UNIT, half_width=c).rho
                  for c in np.linspace(60.0, 70.0, 41)]
        assert all(-1e-250 < v <= 0.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("sigma, n, margin, seed", [
        (1.0, 25, (-1.0, 1.0), 23),   # c = 5, acceptance criterion 7's design
        (2.0, 30, (1.0, 4.0), 4),     # c = 4.11
        (1.5, 20, (0.0, 0.6), 5),     # c = 0.89
    ])
    def test_monte_carlo_within_five_se(self, sigma, n, margin, seed):
        samp = NormalSampling(sigma, n)
        closed = corr_partial_closed(samp, EquivalenceMargin(*margin))
        mc = corr_partial_pvalues(samp, EquivalenceMargin(*margin), draws=10**6, seed=seed)
        assert abs(mc.rho - closed.rho) <= 5 * mc.std_error

    def test_rule_built_once_per_process(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda deg: built.append(deg) or leggauss(deg))
        correlation._partial_rule.cache_clear()
        first = corr_partial_closed(self.UNIT, half_width=1.0)
        corr_partial_closed(self.UNIT, half_width=2.0)
        assert built == [correlation._PARTIAL_NODES]
        assert corr_partial_closed(self.UNIT, half_width=1.0) == first

    def test_rule_not_built_at_import(self):
        code = ("import equilab.cli, equilab.correlation as c; "
                "print(c._partial_rule.cache_info().currsize)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert result.stdout.strip() == "0"

    def test_requires_exactly_one_margin_spec(self):
        with pytest.raises(ValueError):
            corr_partial_closed(self.UNIT)
        with pytest.raises(ValueError):
            corr_partial_closed(self.UNIT, EquivalenceMargin(0, 1), half_width=0.5)
        with pytest.raises(ValueError, match="half_width"):
            corr_partial_closed(self.UNIT, half_width=-0.5)


class TestMonteCarloPaths:
    SAMP = NormalSampling(sigma=2.0, n=30)
    PRIOR = NormalPrior(0.5)
    MARGIN = EquivalenceMargin(1.0, 4.0)

    @pytest.mark.parametrize("draws", [-5, 0, 3])
    def test_too_few_draws_rejected(self, draws):
        calls = [lambda: corr_two_sided_mc(0.5, draws=draws),
                 lambda: corr_equivalence_mc(self.SAMP, self.PRIOR, self.MARGIN, draws=draws),
                 lambda: corr_partial_pvalues(self.SAMP, self.MARGIN, draws=draws)]
        for call in calls:
            with pytest.raises(ValueError, match="draws"):
                call()

    @pytest.mark.parametrize("seed, hexes", [
        (5, {"equivalence": ("-0x1.f62b2ede633d7p-1", "0x1.82b289f7aa1eep-13"),
             "two_sided": ("0x1.feb578a133ccbp-1", "0x1.03a557e7ec285p-17")}),
        (11, {"equivalence": ("-0x1.f5bd233591ba1p-1", "0x1.ea4d20fa7e5aep-12"),
              "two_sided": ("0x1.feb788936f9bap-1", "0x1.03ae13fbd2a6dp-17")}),
    ])
    def test_pinned_bits(self, seed, hexes):
        # the in-place evaluation keeps every operation and its order, so
        # these values are the ones the expression form gave, bit for bit
        results = {
            "equivalence": corr_equivalence_mc(self.SAMP, self.PRIOR, self.MARGIN,
                                               draws=100_000, seed=seed, theta=2.0),
            "two_sided": corr_two_sided_mc(0.6, draws=100_000, seed=seed),
        }
        for name, res in results.items():
            assert (res.rho.hex(), res.std_error.hex()) == hexes[name]


def _traced_peak(call):
    """call()'s result, the tracemalloc peak of what it allocates and what
    of that is still allocated on return, in bytes, with the garbage
    collector off: what a reference cycle keeps alive counts as left."""
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        left, peak = (v - start for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        gc.enable()
    return result, peak, left


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, SLICE_ELEMENTS - 1, SLICE_ELEMENTS,
                               SLICE_ELEMENTS + 1, 2 * SLICE_ELEMENTS + 9, 999_999, 10**6])
def test_slice_sum_is_the_sum(n):
    # numpy sums each slice, fsum adds the slice sums: within a few ulp of
    # the sum of magnitudes of the exact sum, numpy's own sum for one slice
    rng = np.random.default_rng(n)
    values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 6.0, n)
    written = []

    def term(lo, hi, out):
        written.append((lo, hi))
        out[:] = values[lo:hi]

    got = correlation._slice_sum(term, n)
    assert abs(got - math.fsum(values)) <= 1e-14 * math.fsum(np.abs(values))
    if n <= SLICE_ELEMENTS:
        assert got == float(np.sum(values))
    assert [lo for lo, _ in written] == [0] + [hi for _, hi in written[:-1]]
    assert written[-1][1] == n and max(hi - lo for lo, hi in written) <= SLICE_ELEMENTS


class TestMonteCarloMemory:
    """Each MC path works in place: the two evidence arrays are the only
    draw-sized arrays, with the bits the expression form gave."""

    SAMP = NormalSampling(sigma=2.0, n=30)
    PRIOR = NormalPrior(0.5)
    MARGIN = EquivalenceMargin(1.0, 4.0)
    DRAWS = 10**6

    @pytest.mark.parametrize("name, hexes", [
        ("two_sided", ("0x1.fdcdf9c9793fdp-1", "0x1.4e9a8db9400d1p-18")),
        ("two_sided_flat", ("0x1.fffffffffffffp-1", "0x1.9e7b38980f109p-63")),
        ("equivalence", ("-0x1.f602d65b934adp-1", "0x1.419798be473b2p-14")),
        ("partial", ("-0x1.c2b169c00cbfap-6", "0x1.46390e7ddfb94p-12")),
    ])
    def test_two_arrays_same_bits(self, name, hexes):
        calls = {
            "two_sided": lambda draws: corr_two_sided_mc(0.5, draws=draws, seed=8),
            "two_sided_flat": lambda draws: corr_two_sided_mc(1.0, draws=draws, seed=8),
            "equivalence": lambda draws: corr_equivalence_mc(
                self.SAMP, self.PRIOR, self.MARGIN, draws=draws, seed=5, theta=2.0),
            "partial": lambda draws: corr_partial_pvalues(self.SAMP, self.MARGIN,
                                                          draws=draws, seed=5),
        }
        calls[name](16)  # first-use set-up is not part of the working set
        res, peak, left = _traced_peak(lambda: calls[name](self.DRAWS))
        assert peak <= 2.25 * 8 * self.DRAWS
        assert left <= 0.01 * 8 * self.DRAWS
        assert (res.rho.hex(), res.std_error.hex()) == hexes


class TestPartialPvalueCorrelation:
    def test_degenerate_margin_is_minus_one(self):
        res = corr_partial_pvalues(NormalSampling(1.0, 10), half_width=0.0)
        assert res.rho == -1.0 and res.method == "closed_form"

    def test_wide_margin_near_zero(self):
        # half_width * sqrt(n) / sigma = 5
        samp = NormalSampling(sigma=1.0, n=25)
        res = corr_partial_pvalues(samp, EquivalenceMargin(-1.0, 1.0),
                                   draws=10**6, seed=0)
        assert -0.1 < res.rho < 0.0

    def test_tiny_margin_continuity(self):
        # the two tails are numerically a linear reflection at this width,
        # so the sample correlation is -1 up to float rounding
        samp = NormalSampling(sigma=1.0, n=25)
        res = corr_partial_pvalues(samp, half_width=1e-8 / 5.0, draws=10**5, seed=1)
        assert res.rho <= -1.0 + 1e-9

    def test_requires_exactly_one_margin_spec(self):
        samp = NormalSampling(1.0, 4)
        with pytest.raises(ValueError):
            corr_partial_pvalues(samp)
        with pytest.raises(ValueError):
            corr_partial_pvalues(samp, EquivalenceMargin(0, 1), half_width=0.5)


class TestTwoSidedCorrelation:
    def test_flat_prior_limit_is_one(self):
        assert corr_two_sided(1.0).rho == 1.0

    def test_half_weight_value(self):
        w = 0.5
        expected = (math.asin(math.sqrt(w / (2 - w)))
                    / math.sqrt(math.asin(w) * math.asin(1 / (2 - w))))
        res = corr_two_sided(w)
        assert res.rho == pytest.approx(expected, rel=1e-14)
        assert res.rho == pytest.approx(0.9957126516461483, rel=1e-10)

    def test_mc_cross_check(self):
        closed = corr_two_sided(0.5).rho
        mc = corr_two_sided_mc(0.5, draws=10**6, seed=8)
        assert abs(mc.rho - closed) <= 3 * mc.std_error

    def test_mc_degenerate_limit(self):
        # at w = 1 both measures are one array, which the in-place estimator
        # gets in two buffers, so neither is centred twice
        for seed in (2, 8):
            mc = corr_two_sided_mc(1.0, draws=10**4, seed=seed)
            p = 2.0 * (spawn_rng(seed, 0).standard_normal(10**4) < 0.0).astype(float)
            assert mc == sample_correlation(p, p.copy())
            assert mc.rho == pytest.approx(1.0, abs=1e-12)
            assert mc.std_error <= 1e-17

    def test_monotone_in_weight(self):
        values = [corr_two_sided(w).rho for w in np.arange(0.1, 1.01, 0.1)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(-1.0 <= v <= 1.0 for v in values)

    def test_domain(self):
        for w in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                corr_two_sided(w)
