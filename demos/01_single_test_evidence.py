"""Walkthrough: both evidence measures for a single equivalence test.

A clinic observes 28 responders of 50 on a new formulation and must show
the response probability is practically equivalent to the reference range
(0.25, 0.75).  We compute the two one-sided p-values, their TOST
combination, the conjugate-posterior tail probabilities, and the decisions
at the 5% level.  Then the same exercise for a normal mean with known
noise level.
"""

from equilab import (BetaPrior, EquivalenceMargin, NormalPrior, NormalSampling,
                     binom_critical_constants, binom_onesided_pvalues,
                     binom_tost_pvalue, binomial_interval_prob, decide,
                     normal_posterior_probs,
                     normal_tost_pvalue, posterior_prob_equiv, posterior_update,
                     SignificanceLevels)

# --- binomial data -----------------------------------------------------
n, s = 50, 28
margin = EquivalenceMargin(0.25, 0.75)

upper, lower = binom_onesided_pvalues(n, s, margin)
combined = binom_tost_pvalue(n, s, margin)
print(f"observed {s}/{n} successes, margin ({margin.theta1}, {margin.theta2})")
print(f"  upper-tailed p-value  {upper.value:.6f}")
print(f"  lower-tailed p-value  {lower.value:.6f}")
print(f"  combined (max)        {combined.value:.6f}"
      f"  -> equivalent at 5%? {decide(combined, 0.05)}")

# the count-based rejection region for the same test, and its exact size
# (rejection probability) at each margin boundary, at most 5% by design
c, d = binom_critical_constants(n, margin, SignificanceLevels(0.05, 0.05))
size1, size2 = binomial_interval_prob(n, c, d, [margin.theta1, margin.theta2])
print(f"  count rejection region: {c} <= s <= {d}")
print(f"  exact size            {size1:.6f} at theta1 = {margin.theta1}, "
      f"{size2:.6f} at theta2 = {margin.theta2}")

# Bayesian route: a lightly informative Jeffreys-type prior
prior = BetaPrior(0.5, 0.5)
post = posterior_update(prior, n, s)
evidence = posterior_prob_equiv(post, margin)
print(f"  posterior Beta({post.a}, {post.b}); "
      f"P(outside margin | data) = {evidence.value:.6f}"
      f"  -> equivalent at 5%? {decide(evidence, 0.05)}")

# --- normal-mean data --------------------------------------------------
samp = NormalSampling(sigma=2.0, n=30)
margin_n = EquivalenceMargin(1.0, 4.0)
xbar = 2.1

p = normal_tost_pvalue(samp, xbar, margin_n)
up, lo, comb = normal_posterior_probs(samp, NormalPrior(tau=0.8), xbar, margin_n)
print(f"\nnormal mean: xbar={xbar}, sigma={samp.sigma}, n={samp.n}, "
      f"margin ({margin_n.theta1}, {margin_n.theta2})")
print(f"  combined p-value      {p.value:.6f}  -> {decide(p, 0.05)}")
print(f"  posterior tails       {up.value:.6f} + {lo.value:.6f} "
      f"= {comb.value:.6f}  -> {decide(comb, 0.05)}")
