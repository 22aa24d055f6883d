"""Type I error and power tables: seeded simulation vs exact enumeration.

The binomial model is fully enumerable, so the Monte Carlo column is only a
protocol check: with 10,000 replications it must sit within a few binomial
standard errors of the exact value.  Rows sweep the sample size at a fixed
margin; the alternative sits at 0.4.
"""

from equilab import (BetaPrior, CurveSpec, EquivalenceMargin,
                     table_simulation)

margin = EquivalenceMargin(0.25, 0.75)
measures = [("p-value", None), ("Beta(0.5,0.5)", BetaPrior(0.5, 0.5)),
            ("Beta(1,1)", BetaPrior(1, 1)), ("Beta(3,3)", BetaPrior(3, 3))]

print(f"margin ({margin.theta1}, {margin.theta2}), alpha=0.05, "
      "alternative theta=0.4, 10000 replications")
print(f"{'n':>4} {'measure':>14} | {'type1 mc':>9} {'type1 exact':>11} |"
      f" {'power mc':>9} {'power exact':>11}")
print("-" * 68)
for n in range(20, 81, 10):
    for label, prior in measures:
        spec = CurveSpec(n=n, margin=margin, prior=prior)
        res = table_simulation(spec, reps=10_000, seed=42, theta_alt=0.4)
        print(f"{n:>4} {label:>14} | {res.mc_type1:9.4f} {res.exact_type1:11.4f} |"
              f" {res.mc_power:9.4f} {res.exact_power:11.4f}")
    print()

print("notes: the p-value rows stay below the 5% level by construction;")
print("small-parameter priors reject more often (less conservative, more")
print("power), and the effect fades as n grows and the data dominate.")
