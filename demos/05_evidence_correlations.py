"""How correlated are the two evidence measures?

Three closed-form facts, each cross-checked by seeded Monte Carlo:

* the combined posterior probability and the signed combined p-value are
  exactly uncorrelated (their four covariance terms cancel);
* the two one-sided p-values are perfectly negatively correlated for a
  zero-width margin and drift toward zero correlation as the margin widens,
  a ratio of two arcsine integrals of the bivariate normal CDF;
* in the two-sided problem the correlation depends only on the posterior
  shrinkage weight w and rises to 1 in the flat-prior limit.
"""

import numpy as np

from equilab import (EquivalenceMargin, NormalPrior, NormalSampling,
                     corr_equivalence_closed, corr_equivalence_mc,
                     corr_partial_closed, corr_partial_pvalues, corr_two_sided,
                     corr_two_sided_mc,
                     equivalence_covariance_terms)

samp = NormalSampling(sigma=1.0, n=20)
prior = NormalPrior(0.5)
margin = EquivalenceMargin(0.0, 2.0)

terms = equivalence_covariance_terms(samp, prior)
closed = corr_equivalence_closed(samp, prior, margin)
mc = corr_equivalence_mc(samp, prior, margin, draws=400_000, seed=1)
print("combined measures (posterior sum vs signed p-value):")
print(f"  covariance terms {terms[0]:.6f} - {terms[1]:.6f} + {terms[2]:.6f} "
      f"- {terms[3]:.6f} = {closed.rho:.1e}")
print(f"  MC correlation   {mc.rho:+.4f}  (se {mc.std_error:.4f})\n")

print("one-sided p-values, correlation vs margin half-width (n=25, sigma=1):")
samp25 = NormalSampling(sigma=1.0, n=25)
for eps in (0.0, 0.1, 0.2, 0.4):
    closed = corr_partial_closed(samp25, half_width=eps)
    if eps == 0.0:
        print(f"  eps={eps:4.1f}: closed {closed.rho:+.6f}")
    else:
        mc = corr_partial_pvalues(samp25, half_width=eps, draws=400_000, seed=2)
        print(f"  eps={eps:4.1f}: closed {closed.rho:+.6f}   mc {mc.rho:+.6f} "
              f"(se {mc.std_error:.6f})")
# acceptance criterion 7's design: margin (-1, 1), half-width * sqrt(n) / sigma = 5
wide = EquivalenceMargin(-1.0, 1.0)
closed = corr_partial_closed(samp25, wide)
mc = corr_partial_pvalues(samp25, wide, draws=10**6, seed=23)
print(f"  eps= 1.0: closed {closed.rho:+.6f}   mc {mc.rho:+.6f} (se {mc.std_error:.6f})")

print("\ntwo-sided problem, correlation vs shrinkage weight w:")
for w in np.arange(0.2, 1.01, 0.2):
    closed = corr_two_sided(float(w))
    mc = corr_two_sided_mc(float(w), draws=400_000, seed=3)
    print(f"  w={w:3.1f}: closed {closed.rho:.6f}   mc {mc.rho:.6f} "
          f"(se {mc.std_error:.6f})")
