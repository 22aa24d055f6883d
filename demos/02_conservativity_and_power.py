"""Conservativity and power of the two evidence measures, exactly.

For the binomial model everything is enumerable: the CDF of each evidence
measure under the boundary parameter shows conservativity (a curve below
the diagonal rejects less often than the nominal level), and the same CDF
under an interior parameter is the power at each level.  We tabulate both
for the p-value and for posterior probabilities under two priors, then
optionally draw the panels when matplotlib is available.
"""

import numpy as np

from equilab import BetaPrior, CurveSpec, EquivalenceMargin, binom_cdf_curve

n = 50
margin = EquivalenceMargin(0.25, 0.75)
priors = {"Beta(0.5,0.5)": BetaPrior(0.5, 0.5), "Beta(3,3)": BetaPrior(3, 3)}
t_grid = np.round(np.arange(0.05, 0.96, 0.05), 2)

curves = {}
for label, prior in priors.items():
    spec = CurveSpec(n=n, margin=margin, prior=prior)
    for theta, panel in ((margin.theta1, "null"), (0.4, "alternative")):
        curves[(label, panel)] = binom_cdf_curve(spec, theta, t_grid)

print(f"evidence-measure CDFs, n={n}, margin ({margin.theta1}, {margin.theta2})")
print("null panel at theta = lower boundary; alternative panel at theta = 0.4\n")
header = f"{'t':>5} | {'p-val null':>10} {'B(.5) null':>10} {'B(3) null':>10} |" \
         f" {'p-val alt':>10} {'B(.5) alt':>10} {'B(3) alt':>10}"
print(header)
print("-" * len(header))
for i, t in enumerate(t_grid):
    pn = curves[("Beta(0.5,0.5)", "null")][i]
    bn = curves[("Beta(3,3)", "null")][i]
    pa = curves[("Beta(0.5,0.5)", "alternative")][i]
    ba = curves[("Beta(3,3)", "alternative")][i]
    print(f"{t:5.2f} | {pn.y_frequentist:10.4f} {pn.y_bayes:10.4f} "
          f"{bn.y_bayes:10.4f} | {pa.y_frequentist:10.4f} {pa.y_bayes:10.4f} "
          f"{ba.y_bayes:10.4f}")

print("\nreading the table: under the null, a column below t is conservative;")
print("for this margin the Beta(0.5,0.5) measure tracks the p-value at small t")
print("and rejects more often at larger t, and Beta(3,3) rejects more often")
print("than both (its prior concentrates inside the margin).")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    for ax, panel in zip(axes, ("null", "alternative")):
        ax.plot(t_grid, [p.y_frequentist for p in curves[("Beta(0.5,0.5)", panel)]],
                "k--", label="p-value")
        for label in priors:
            ax.plot(t_grid, [p.y_bayes for p in curves[(label, panel)]],
                    label=label)
        ax.plot([0, 1], [0, 1], color="grey", lw=0.5)
        ax.set_title(f"{panel} CDF")
        ax.set_xlabel("level t")
        ax.legend()
    fig.tight_layout()
    fig.savefig("conservativity_and_power.png", dpi=120)
    print("\nwrote conservativity_and_power.png")
except ImportError:
    print("\n(matplotlib not installed; skipped the figure)")
