"""Beta-prior posterior evidence: conjugate updates, tail probabilities
against quadrature and exact binomial-sum oracles, structural identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from equilab import (BetaPrior, EquivalenceMargin, binom_tost_pvalue,
                     binomial_pmf_vector, posterior_prob_equiv,
                     posterior_prob_lower, posterior_prob_upper,
                     posterior_update)
from equilab.beta_binomial import MAX_PRIOR_SHAPE, posterior_values
from equilab.special import log_gamma, reg_inc_beta


def beta_tail_by_quadrature(a, b, lo, hi):
    norm = math.exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b))
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

    def test_update_range_check(self):
        with pytest.raises(ValueError):
            posterior_update(BetaPrior(1, 1), 10, 11)


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


class TestPosteriorVector:
    """:func:`posterior_values` is the scalar rule at every count, bit for bit."""

    def test_equals_the_scalar_update(self):
        # 300 designs, both ends of the support and 10 random counts of each
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
                assert value.hex() == scalar.hex(), (n, prior, margin, s)

    def test_tiny_prior_shape_survives_the_update(self):
        # q + (n - s) keeps q = 1e-15 at s = n, where q + n - s rounds it away
        values = posterior_values(30, EquivalenceMargin(0.2, 0.8), BetaPrior(1.0, 1e-15))
        last = posterior_prob_equiv(posterior_update(BetaPrior(1.0, 1e-15), 30, 30),
                                    EquivalenceMargin(0.2, 0.8)).value
        assert values[-1] == last

    def test_margin_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="binomial margin must lie inside"):
            posterior_values(10, EquivalenceMargin(-0.1, 0.5), BetaPrior(1.0, 1.0))
