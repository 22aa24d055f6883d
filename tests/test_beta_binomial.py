"""Beta-prior posterior evidence: conjugate updates, tail probabilities
against quadrature and exact binomial-sum oracles, structural identities."""

import decimal
import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from equilab import (BetaPrior, EquivalenceMargin, SignificanceLevels, beta_binomial,
                     binom_tost_pvalue, binomial_pmf_vector, decide, posterior_prob_equiv,
                     posterior_prob_lower, posterior_prob_upper, posterior_update)
from equilab.beta_binomial import MAX_PRIOR_SHAPE, posterior_values
from equilab.cli import T_GRID
from equilab.power import CurveSpec, _bayes_region, bayes_combined_level
from equilab.special import reg_inc_beta, reg_inc_beta_pair
from test_golden import bench_module


def beta_tail_by_quadrature(a, b, lo, hi):
    norm = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    val, err = integrate.quad(lambda u: norm * u ** (a - 1) * (1 - u) ** (b - 1),
                              lo, hi, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


class TestPriorAndUpdate:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaPrior(1.0, -3.0)

    def test_prior_shape_domain(self):
        # the continued fraction converges for shapes up to the bound plus n
        BetaPrior(MAX_PRIOR_SHAPE, MAX_PRIOR_SHAPE)
        for p, q in ((1e100, 0.3), (0.3, 1e100), (MAX_PRIOR_SHAPE * 2, 1.0)):
            with pytest.raises(ValueError, match="Beta prior needs"):
                BetaPrior(p, q)
        values = posterior_values(30, EquivalenceMargin(0.2, 0.8),
                                  BetaPrior(MAX_PRIOR_SHAPE, 0.3))
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_prior_variance(self):
        assert BetaPrior(0.5, 0.5).prior_variance() == pytest.approx(0.125)
        assert BetaPrior(3, 3).prior_variance() == pytest.approx(9 / (36 * 7))

    @pytest.mark.parametrize("p,q,n,s,a,b", [
        (1, 1, 10, 4, 5, 7),
        (0.5, 0.5, 0, 0, 0.5, 0.5),
        (3, 3, 50, 25, 28, 28),
    ])
    def test_update(self, p, q, n, s, a, b):
        post = posterior_update(BetaPrior(p, q), n, s)
        assert (post.a, post.b) == (a, b)

    @pytest.mark.parametrize("n, s", [(10, 11), (10, -1), (-1, 0)])
    def test_update_range_check(self, n, s):
        with pytest.raises(ValueError, match="need 0 <= s <= n"):
            posterior_update(BetaPrior(1, 1), n, s)


class TestTailProbabilities:
    def test_uniform_posterior(self):
        post = posterior_update(BetaPrior(1, 1), 0, 0)
        assert posterior_prob_upper(post, 0.25).value == pytest.approx(0.25, rel=1e-12)
        combined = posterior_prob_equiv(post, EquivalenceMargin(0.25, 0.75))
        assert combined.value == pytest.approx(0.5, rel=1e-12)

    def test_integer_prior_binomial_sum_oracle(self):
        # flat prior, n=10, s=6: the lower tail equals the exact finite
        # binomial sum with n+p+q-1 trials evaluated below p+s
        post = posterior_update(BetaPrior(1, 1), 10, 6)
        x_m, n_m = 7, 11
        ref = Fraction(0)
        for y in range(x_m):
            ref += Fraction(math.comb(n_m, y)) * Fraction(3, 4) ** y * Fraction(1, 4) ** (n_m - y)
        assert ref == Fraction(240389, 2097152)
        lower = posterior_prob_lower(post, 0.75)
        assert lower.value == pytest.approx(float(ref), rel=1e-10)

    def test_half_integer_prior_quadrature_oracle(self):
        post = posterior_update(BetaPrior(0.5, 0.5), 50, 25)
        upper = posterior_prob_upper(post, 0.25)
        assert upper.value == pytest.approx(
            beta_tail_by_quadrature(25.5, 25.5, 0.0, 0.25), rel=1e-10)
        assert upper.value == pytest.approx(6.8895755534834875e-05, rel=1e-10)
        combined = posterior_prob_equiv(post, EquivalenceMargin(0.25, 0.75))
        assert combined.value == pytest.approx(1.3779151106966975e-04, rel=1e-10)

    def test_disjoint_tail_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            prior = BetaPrior(10 ** rng.uniform(-1, 2), 10 ** rng.uniform(-1, 2))
            n = int(rng.integers(0, 200))
            s = int(rng.integers(0, n + 1))
            t1 = rng.uniform(0.05, 0.45)
            t2 = rng.uniform(t1 + 0.05, 0.95)
            post = posterior_update(prior, n, s)
            combined = posterior_prob_equiv(post, EquivalenceMargin(t1, t2))
            interval = reg_inc_beta(post.a, post.b, t2) - reg_inc_beta(post.a, post.b, t1)
            assert combined.value == pytest.approx(1.0 - interval, abs=1e-12)

    def test_integer_parameter_agreement_sampled(self):
        # spot check of the exhaustive duality exercised in the acceptance run
        for n in (7, 23, 60):
            for (p, q) in ((1, 1), (2, 3), (3, 1)):
                prior = BetaPrior(p, q)
                n_m = n + p + q - 1
                for s in range(0, n + 1, 3):
                    post = posterior_update(prior, n, s)
                    x_m = p + s
                    ref = math.fsum(math.comb(n_m, y) * 0.75 ** y * 0.25 ** (n_m - y)
                                    for y in range(x_m))
                    assert posterior_prob_lower(post, 0.75).value == pytest.approx(
                        ref, abs=1e-10)

    def test_monotone_in_count(self):
        prior = BetaPrior(0.5, 0.5)
        ups = [posterior_prob_upper(posterior_update(prior, 40, s), 0.3).value
               for s in range(41)]
        los = [posterior_prob_lower(posterior_update(prior, 40, s), 0.7).value
               for s in range(41)]
        assert all(b <= a for a, b in zip(ups, ups[1:]))
        assert all(b >= a for a, b in zip(los, los[1:]))

    def test_far_tail_relative_accuracy(self):
        # Beta(0.5, 0.5), n = 1000, s = 520: both tails lie far below 1e-16,
        # where 1 - I_x(a, b) cancels to nothing
        margin = EquivalenceMargin(0.25, 0.75)
        post = posterior_update(BetaPrior(0.5, 0.5), 1000, 520)
        lower = posterior_prob_lower(post, margin.theta2).value
        assert lower == pytest.approx(special.betaincc(post.a, post.b, 0.75), rel=1e-10, abs=0)
        ref = special.betainc(post.a, post.b, 0.25) + special.betaincc(post.a, post.b, 0.75)
        combined = posterior_prob_equiv(post, margin).value
        assert combined == pytest.approx(ref, rel=1e-10, abs=0)
        assert combined == pytest.approx(1.257e-55, rel=1e-3, abs=0)

    def test_domain_checks(self):
        post = posterior_update(BetaPrior(1, 1), 10, 5)
        with pytest.raises(ValueError):
            posterior_prob_upper(post, 0.0)
        with pytest.raises(ValueError):
            posterior_prob_lower(post, 1.0)


class TestConservativityDirection:
    def test_small_prior_cdf_dominates_pvalue_cdf(self):
        # exact enumeration at the lower boundary parameter: the posterior
        # measure with a Beta(0.5, 0.5) prior rejects at least as often as
        # the p-value at every level, and sits above the diagonal for
        # mid-to-large levels
        n, margin = 50, EquivalenceMargin(0.25, 0.75)
        prior = BetaPrior(0.5, 0.5)
        pf = np.array([binom_tost_pvalue(n, s, margin).value for s in range(n + 1)])
        pb = np.array([posterior_prob_equiv(posterior_update(prior, n, s), margin).value
                       for s in range(n + 1)])
        pmf = binomial_pmf_vector(n, margin.theta1)
        for t in np.arange(0.05, 0.95, 0.05):
            cdf_b = float(pmf @ (pb <= t))
            cdf_f = float(pmf @ (pf <= t))
            assert cdf_b >= cdf_f - 1e-12
        # the CDF is a step function, so compare with the diagonal on a
        # coarse grid rather than between jumps
        for t in (0.6, 0.7, 0.8, 0.9):
            assert float(pmf @ (pb <= t)) >= t


def mp_inc_beta(a, b, x):
    """I_x(a, b) to about 30 digits for exact rationals a, b, x: the positive
    series x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x) on the side of the
    mean where its terms fall from the first, the complement on the other.
    The series sums in 34-digit decimals, the front factor in mpmath."""
    with mpmath.workdps(30):
        if x > (a + 1) / (a + b + 2):
            return 1 - mp_inc_beta(b, a, 1 - x)
        with decimal.localcontext(decimal.Context(prec=34)):
            up, down, ratio = (decimal.Decimal(v.numerator) / v.denominator
                               for v in (a + b, a + 1, x))
            term = total = decimal.Decimal(1)
            while term > total * decimal.Decimal("1e-32"):
                term = term * ratio * up / down
                total += term
                up, down = up + 1, down + 1
        a, b, x = (mpmath.mpf(v.numerator) / v.denominator for v in (a, b, x))
        return mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a)
                          - mpmath.log(mpmath.beta(a, b))) * mpmath.mpf(str(total))


def mp_posterior(n, s, prior, margin):
    """Posterior probability outside the margin after s of n: the lower tail
    and the complementary upper tail, each on its own."""
    a, b = Fraction(prior.p) + s, Fraction(prior.q) + (n - s)
    with mpmath.workdps(30):
        return (mp_inc_beta(a, b, Fraction(margin.theta1))
                + mp_inc_beta(b, a, 1 - Fraction(margin.theta2)))


def per_count_kernel(n, margin, prior):
    """Both tails of every posterior from one incomplete-beta call, count by count."""
    s = np.arange(n + 1)
    a, b = prior.p + s, prior.q + (n - s)
    both = reg_inc_beta_pair(np.concatenate((a, b)), np.concatenate((b, a)),
                             np.repeat((margin.theta1, 1.0 - margin.theta2), n + 1))[0]
    return np.clip(both[:n + 1] + both[n + 1:], 0.0, 1.0)


def integer_prior_oracle(n, margin, prior):
    """The posterior vector for integer (p, q) from exact binomial sums, each
    rounded once: with N = n + p + q - 1, I_x(p+s, q+n-s) = P(Bin(N, x) >= p+s)."""
    big_n = n + prior.p + prior.q - 1

    def scaled_pmf(x):
        """The PMF of Bin(N, x) times den^N, x = num / den exactly, and den^N."""
        num, den = x.as_integer_ratio()
        return [math.comb(big_n, y) * num ** y * (den - num) ** (big_n - y)
                for y in range(big_n + 1)], den ** big_n

    (low, low_den), (high, high_den) = scaled_pmf(margin.theta1), scaled_pmf(margin.theta2)
    at_least = list(accumulate(reversed(low)))[::-1]  # at_least[y] = sum(low[y:])
    below = [0, *accumulate(high)]  # below[y] = sum(high[:y])
    return [(at_least[prior.p + s] * high_den + below[prior.p + s] * low_den)
            / (low_den * high_den) for s in range(n + 1)]


class TestPosteriorVector:
    """:func:`posterior_values` against the scalar rule, mpmath, exact
    rationals and the per-count kernel it replaced."""

    def test_equals_the_scalar_update(self):
        # 300 designs, both ends of the support and 10 random counts of each:
        # the single test is the vector's element, bit for bit, within 1e-12
        # of mpmath
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(5, 201))
            prior = BetaPrior(*rng.uniform(0.1, 5.0, 2).tolist())
            theta1 = float(rng.uniform(0.01, 0.6))
            margin = EquivalenceMargin(theta1, float(rng.uniform(theta1 + 0.01, 0.99)))
            values = posterior_values(n, margin, prior)
            assert values.shape == (n + 1,)
            for s in {0, n, *rng.integers(0, n + 1, 10).tolist()}:
                value = float(values[s])
                scalar = posterior_prob_equiv(posterior_update(prior, n, s), margin).value
                assert scalar.hex() == value.hex(), (n, prior, margin, s)
                ref = mp_posterior(n, s, prior, margin)
                assert abs(value - ref) <= 1e-12 * ref, (n, prior, margin, s)

    MARGINS = (EquivalenceMargin(0.3, 0.7), EquivalenceMargin(0.05, 0.3),
               EquivalenceMargin(0.48, 0.52))

    @pytest.mark.parametrize("n", [0, 1, 10, 300, 10_000])
    @pytest.mark.parametrize("p, q", [(5e-324, 1.0), (1.0, 5e-324), (1e-300, 0.5), (0.5, 0.5),
                                      (0.05, 50.0), (2.7, 15.0), (1e6, 0.3)])
    def test_relative_accuracy_against_mpmath(self, n, p, q):
        # every count up to n = 300; at n = 1e4 the ends, a spread and the
        # counts where each margin's posterior mass turns over; the vector
        # and the sum of the two scalar tail rules alike
        prior = BetaPrior(p, q)
        for margin in self.MARGINS:
            values = posterior_values(n, margin, prior)
            counts = range(n + 1)
            if n > 300:
                edges = (n * t for t in (margin.theta1, margin.theta2))
                counts = sorted({*range(0, n + 1, n // 20),
                                 *(int(e) + d for e in edges for d in (-60, -7, 0, 7, 60))})
            for s in counts:
                ref = mp_posterior(n, s, prior, margin)
                if ref >= 1e-290:
                    post = posterior_update(prior, n, s)
                    scalar = (posterior_prob_upper(post, margin.theta1).value
                              + posterior_prob_lower(post, margin.theta2).value)
                    for got in (values[s], scalar):
                        assert abs(got - ref) <= 1e-12 * ref, (n, prior, margin, s, got)

    @pytest.mark.parametrize("n", [1, 7, 60, 300])
    @pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (3, 1), (1, 12)])
    def test_integer_priors_match_exact_binomial_sums(self, n, p, q):
        prior = BetaPrior(p, q)
        for margin in self.MARGINS:
            ref = integer_prior_oracle(n, margin, prior)
            values = posterior_values(n, margin, prior)
            for got, want in zip(values, ref):
                assert got == pytest.approx(want, rel=1e-12, abs=0), (n, prior, margin)

    @pytest.mark.parametrize("n", [0, 1, 2, 25, 300, 10_000])
    def test_one_two_element_kernel_call(self, monkeypatch, n):
        sizes = []

        def counting(a, b, x):
            sizes.append(np.broadcast(a, b, x).size)
            return reg_inc_beta_pair(a, b, x)

        monkeypatch.setattr(beta_binomial, "reg_inc_beta_pair", counting)
        values = posterior_values(n, EquivalenceMargin(0.3, 0.7), BetaPrior(0.5, 2.0))
        assert values.shape == (n + 1,)
        assert sizes == [2]

    @staticmethod
    def benchmark_prior_designs():
        workloads = bench_module("workloads")
        for seed in (1, 2, 3):
            for study in workloads.build("exact-binomial", seed, "."):
                params = study["params"]
                if params["prior"]:
                    yield (params["n"], EquivalenceMargin(*params["margin"]),
                           BetaPrior(*params["prior"]), SignificanceLevels(*params["levels"]))

    def test_decisions_match_the_per_count_kernel(self):
        # Bayesian rejection regions and conservativity masks {pb <= t} on the
        # CLI's default level grid: 2000 random designs and every prior
        # design of the benchmark's seeds 1-3
        rng = np.random.default_rng(27)
        designs = list(self.benchmark_prior_designs())
        for _ in range(2000):
            theta1 = float(rng.uniform(0.01, 0.6))
            designs.append((int(rng.integers(1, 1001)),
                            EquivalenceMargin(theta1, float(rng.uniform(theta1 + 0.01, 0.99))),
                            BetaPrior(*(10.0 ** rng.uniform(-2, 2, 2)).tolist()),
                            SignificanceLevels(*rng.uniform(0.01, 0.2, 2).tolist())))
        t_grid = np.array(T_GRID)[:, None]
        for n, margin, prior, levels in designs:
            pb, ref = posterior_values(n, margin, prior), per_count_kernel(n, margin, prior)
            assert np.array_equal(pb <= t_grid, ref <= t_grid), (n, margin, prior)
            counts = np.flatnonzero(ref <= bayes_combined_level(levels))
            want = (int(counts[0]), int(counts[-1])) if counts.size else (0, -1)
            spec = CurveSpec(n=n, margin=margin, prior=prior, levels=levels)
            assert _bayes_region(spec) == want, (n, margin, prior, levels)

    @pytest.mark.parametrize("p, q", [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)])
    def test_single_test_decides_as_the_region(self, p, q):
        # dyadic margins and levels, where a posterior value can equal a level
        # exactly (Beta(1, 1), n = 1, margin (1/4, 3/4): 1/2 at both counts):
        # the single test is the study's element, so it falls on the region's
        # side of every tie
        prior = BetaPrior(p, q)
        eighths = [k / 8 for k in range(1, 8)]
        levels = [SignificanceLevels(k / 16, k / 16) for k in range(1, 16)]
        for margin in (EquivalenceMargin(t1, t2) for t1 in eighths for t2 in eighths if t1 < t2):
            for n in range(1, 4):
                values = posterior_values(n, margin, prior)
                singles = [posterior_prob_equiv(posterior_update(prior, n, s), margin)
                           for s in range(n + 1)]
                assert [v.value.hex() for v in singles] == [v.hex() for v in values.tolist()]
                for level in levels:
                    c, d = _bayes_region(CurveSpec(n=n, margin=margin, prior=prior, levels=level))
                    assert ([decide(v, bayes_combined_level(level)) for v in singles]
                            == [c <= s <= d for s in range(n + 1)]), (n, margin, level)

    def test_tiny_prior_shape_survives_the_update(self):
        # q + (n - s) keeps q = 1e-15 at s = n, where q + n - s rounds it away
        margin, prior = EquivalenceMargin(0.2, 0.8), BetaPrior(1.0, 1e-15)
        post = posterior_update(prior, 30, 30)
        assert post.b == 1e-15
        tails = (posterior_prob_upper(post, margin.theta1).value
                 + posterior_prob_lower(post, margin.theta2).value)
        assert posterior_values(30, margin, prior)[-1] == tails

    def test_margin_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="binomial margin must lie inside"):
            posterior_values(10, EquivalenceMargin(-0.1, 0.5), BetaPrior(1.0, 1.0))
