"""Where is each test most powerful, and how large is its size?

Both tests reject on an interval of success counts, and the power of a
count interval is unimodal: `theta_max` reports its grid maximizer, and the
closed-form peak theta* (`equilab.power._maximizer`) sits between that grid
point's neighbours.  Symmetric designs put the p-value's maximizer at 0.5;
the posterior measure's maximizer follows the prior's rejection region.
Unequal per-tail levels shift the p-value's maximizer but not the
symmetric-prior posterior's.  `exact_size` is the largest rejection
probability over the whole null (theta <= theta1 or theta >= theta2).
"""

from equilab import (BetaPrior, CurveSpec, EquivalenceMargin,
                     SignificanceLevels, exact_size, theta_max)
from equilab.power import _maximizer, _reject_regions

margin = EquivalenceMargin(0.2, 0.8)


def peaks(spec):
    """theta* of each measure's rejection region ('-' for an empty one)."""
    return ["-" if c > d else f"{_maximizer(spec.n, c, d):.4f}"
            for c, d in _reject_regions(spec)]


print("p-value maximizer, equal 5% tails:")
for n in (10, 30, 50):
    spec = CurveSpec(n=n, margin=margin)
    theta_f, _ = theta_max(spec)
    size_f, _ = exact_size(spec)
    print(f"  n={n:3d}: theta_max = {theta_f:.3f}, theta* = {peaks(spec)[0]}, "
          f"size = {size_f:.4f}")

print("\nposterior maximizer at n=30 for a family of skewed priors:")
for q in (1, 5, 10, 15):
    spec = CurveSpec(n=30, margin=margin, prior=BetaPrior(1, q))
    theta_f, theta_b = theta_max(spec)
    side = "right of" if theta_b > theta_f else ("left of" if theta_b < theta_f
                                                 else "at")
    region = _reject_regions(spec)[1]
    print(f"  Beta(1,{q:2d}): theta_b = {theta_b:.3f} ({side} the p-value's "
          f"{theta_f:.3f}), region {region}, theta* = {peaks(spec)[1]}, "
          f"size = {exact_size(spec)[1]:.4f}")
print("  (theta* = 1.0000: the region reaches count n, so the power rises to 1;"
      " theta_b is the first grid point within 1e-12 of the top)")

print("\nunequal tail levels (2.5% upper / 10% lower), Beta(0.5,0.5), n=20:")
spec = CurveSpec(n=20, margin=margin, prior=BetaPrior(0.5, 0.5),
                 levels=SignificanceLevels(alpha_upper=0.025, alpha_lower=0.1))
theta_f, theta_b = theta_max(spec)
star_f, star_b = peaks(spec)
size_f, size_b = exact_size(spec)
print(f"  p-value maximizer moves to {theta_f:.3f} (theta* = {star_f}, size {size_f:.4f}); "
      f"posterior stays at {theta_b:.3f} (theta* = {star_b}, size {size_b:.4f})")
