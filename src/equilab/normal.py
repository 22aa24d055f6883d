"""Equivalence evidence for the one-sample normal model with known variance.

The sufficient statistic is the sum T = n * xbar.  Per-tail normal
quantiles (``approximate``) give the exact level-t region of the TOST
p-value, the larger one-sided one; a bisection for exact size under the
symmetric constants C + D = n (theta1 + theta2) (``exact_symmetric``)
gives that of the folded p-value

    Phi(|t| + eps sqrt(n)/sigma) + Phi(|t| - eps sqrt(n)/sigma) - 1,

with t the standardized distance of xbar from the margin center; it is 0 at
the center and increases to 1, and :func:`normal_tost_pvalue` reports it.
Conjugate normal priors are centered at the tested boundary for each tail,
which makes every posterior tail probability a single Phi evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .equivalence import EquivalenceMargin, EvidenceMeasure
from .special import normal_cdf, normal_quantile

CONSTANT_MODES = ("approximate", "exact_symmetric")


@dataclass(frozen=True)
class NormalSampling:
    """Known-variance sampling design: data sd ``sigma`` and sample size ``n``."""

    sigma: float
    n: int

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")

    @property
    def root_n(self) -> float:
        return math.sqrt(self.n)


@dataclass(frozen=True)
class NormalPrior:
    """Conjugate normal prior sd; means are pinned at the tested boundaries."""

    tau: float

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def posterior_coefficient(samp: NormalSampling, prior: NormalPrior) -> float:
    """Scale n*tau / (sigma * sqrt(sigma^2 + n tau^2)) applied to (xbar - boundary).

    Tends to sqrt(n)/sigma as tau grows, where the posterior tails become
    the one-sided p-values.
    """
    return (samp.n * prior.tau
            / (samp.sigma * math.sqrt(samp.sigma ** 2 + samp.n * prior.tau ** 2)))


def normal_critical_constants(samp: NormalSampling, margin: EquivalenceMargin,
                              level: float, mode: str = "approximate"):
    """Critical constants (C, D) for the sum statistic at the given level.

    ``approximate`` takes per-tail quantiles, the exact TOST region (C > D,
    empty, when the margin is narrow relative to sigma * sqrt(n));
    ``exact_symmetric``, the folded p-value's region, has exact size under
    C + D = n(theta1+theta2) by bisection (1e-10 on the attained level).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if mode not in CONSTANT_MODES:
        raise ValueError(f"mode must be one of {CONSTANT_MODES}, got {mode!r}")
    scale = samp.sigma * samp.root_n
    if mode == "approximate":
        c = samp.n * margin.theta1 + scale * normal_quantile(1.0 - level)
        d = samp.n * margin.theta2 + scale * normal_quantile(level)
        return c, d

    total = samp.n * (margin.theta1 + margin.theta2)

    def attained(c0: float) -> float:
        return (normal_cdf((samp.n * margin.theta2 - c0) / scale)
                - normal_cdf((c0 - samp.n * margin.theta1) / scale))

    # attained() decreases from 1 toward -1 as c0 sweeps left to right and
    # equals 0 at the margin center, so a root below the center always
    # exists; widen the bracket defensively all the same.
    hi = 0.5 * total
    lo = hi - 8.0 * scale
    for _ in range(60):
        at_lo = attained(lo)
        if at_lo >= level:
            break
        lo -= 8.0 * scale
    else:
        raise ValueError(f"level {level} not attainable in the search bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        at_mid = attained(mid)
        if at_mid >= level:
            lo, at_lo = mid, at_mid
        else:
            hi = mid
        if abs(at_lo - level) <= 1e-10:
            break
    c = lo
    return c, total - c


def normal_onesided_pvalues(samp: NormalSampling, xbar: float,
                            margin: EquivalenceMargin):
    """One-sided LFC p-values at the observed mean.

    Upper-tailed test of theta <= theta1: 1 - Phi(sqrt(n)(xbar - theta1)/sigma);
    lower-tailed test of theta >= theta2: Phi(sqrt(n)(xbar - theta2)/sigma).
    """
    z1 = samp.root_n * (xbar - margin.theta1) / samp.sigma
    z2 = samp.root_n * (xbar - margin.theta2) / samp.sigma
    return (EvidenceMeasure(1.0 - normal_cdf(z1), "upper", "frequentist"),
            EvidenceMeasure(normal_cdf(z2), "lower", "frequentist"))


def _combined_pvalue_values(samp: NormalSampling, xbar, margin: EquivalenceMargin):
    """Vectorized folded equivalence p-value; returns plain floats/arrays."""
    t_abs = np.abs(samp.root_n * (np.asarray(xbar, dtype=float) - margin.center)
                   / samp.sigma)
    c = margin.half_width * samp.root_n / samp.sigma
    vals = normal_cdf(t_abs + c) + normal_cdf(t_abs - c) - 1.0
    return np.clip(vals, 0.0, 1.0)


def normal_tost_pvalue(samp: NormalSampling, xbar: float,
                       margin: EquivalenceMargin) -> EvidenceMeasure:
    """Combined equivalence p-value for the observed mean (folded form)."""
    value = float(_combined_pvalue_values(samp, xbar, margin))
    return EvidenceMeasure(value, "combined", "frequentist")


def _posterior_tail_values(samp: NormalSampling, prior: NormalPrior, xbar,
                           margin: EquivalenceMargin):
    """Vectorized posterior tail probabilities (upper, lower)."""
    coef = posterior_coefficient(samp, prior)
    x = np.asarray(xbar, dtype=float)
    upper = 1.0 - normal_cdf(coef * (x - margin.theta1))
    lower = normal_cdf(coef * (x - margin.theta2))
    return upper, lower


def normal_posterior_probs(samp: NormalSampling, prior: NormalPrior, xbar: float,
                           margin: EquivalenceMargin):
    """Posterior tail probabilities and their sum for the observed mean.

    Returns
    -------
    (upper, lower, combined) : tuple of EvidenceMeasure
        ``upper`` = P(theta <= theta1 | xbar) under the prior centered at
        theta1, ``lower`` = P(theta >= theta2 | xbar) under the prior
        centered at theta2, ``combined`` their (clamped) sum.
    """
    up, lo = _posterior_tail_values(samp, prior, xbar, margin)
    up, lo = float(up), float(lo)
    return (EvidenceMeasure(up, "upper", "bayesian"),
            EvidenceMeasure(lo, "lower", "bayesian"),
            EvidenceMeasure(min(1.0, max(0.0, up + lo)), "combined", "bayesian"))


def normal_pvalue_cdf(samp: NormalSampling, theta: float, margin: EquivalenceMargin,
                      t: float, mode: str = "approximate") -> float:
    """P_theta(p-value <= t): the TOST (larger one-sided) p-value's CDF at
    level t, or the folded p-value's under ``exact_symmetric``.

    Equals the probability that the sum statistic lands between the
    level-t critical constants; 0 whenever that region is empty.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    c, d = normal_critical_constants(samp, margin, t, mode=mode)
    if c > d:
        return 0.0
    scale = samp.sigma * samp.root_n
    value = (normal_cdf((d - samp.n * theta) / scale)
             - normal_cdf((c - samp.n * theta) / scale))
    return max(0.0, value)
