"""Where is each test most powerful?

Grid search over the true success probability for the parameter value that
maximizes exact power.  Symmetric designs put the p-value's maximizer at
0.5; the posterior measure's maximizer follows the prior: symmetric priors
keep it centered, skewed priors drag the rejection region (and with it the
maximizer) toward the side the prior disfavors.  Unequal per-tail levels
shift the p-value's maximizer but not the symmetric-prior posterior's.
"""

from equilab import (BetaPrior, CurveSpec, EquivalenceMargin,
                     SignificanceLevels, theta_max)

margin = EquivalenceMargin(0.2, 0.8)

print("p-value maximizer, equal 5% tails:")
for n in (10, 30, 50):
    spec = CurveSpec(n=n, margin=margin)
    theta_f, _ = theta_max(spec)
    print(f"  n={n:3d}: theta_max = {theta_f:.3f}")

print("\nposterior maximizer at n=30 for a family of skewed priors:")
for q in (1, 5, 10, 15):
    spec = CurveSpec(n=30, margin=margin, prior=BetaPrior(1, q))
    theta_f, theta_b = theta_max(spec)
    side = "right of" if theta_b > theta_f else ("left of" if theta_b < theta_f
                                                 else "at")
    print(f"  Beta(1,{q:2d}): theta_b = {theta_b:.3f} ({side} the p-value's "
          f"{theta_f:.3f})")

print("\nunequal tail levels (2.5% upper / 10% lower), Beta(0.5,0.5), n=20:")
spec = CurveSpec(n=20, margin=margin, prior=BetaPrior(0.5, 0.5),
                 levels=SignificanceLevels(alpha_upper=0.025, alpha_lower=0.1))
theta_f, theta_b = theta_max(spec)
print(f"  p-value maximizer moves to {theta_f:.3f}; posterior stays at "
      f"{theta_b:.3f}")
