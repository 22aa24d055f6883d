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
                              level, mode: str = "approximate"):
    """Critical constants (C, D) for the sum statistic at a level or an array of them.

    ``approximate`` takes per-tail quantiles, the exact TOST region (C > D,
    empty, when the margin is narrow relative to sigma * sqrt(n));
    ``exact_symmetric``, the folded p-value's region, has exact size under
    C + D = n(theta1+theta2): C = n center - sigma sqrt(n) x, where the size
    at theta1, F(x) = Phi(x + h) + Phi(x - h) - 1 with h = eps sqrt(n)/sigma,
    increases from F(0) = 0 to the level.  Phi(x - h) >= F(x) >=
    2 Phi(x - h) - 1 brackets x in [max(0, h + q(level)), h + q((1+level)/2)],
    bisected until it stops shrinking; the end where F >= level is kept.
    """
    level = np.asarray(level, dtype=float)
    if not ((level > 0.0) & (level < 1.0)).all():
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if mode not in CONSTANT_MODES:
        raise ValueError(f"mode must be one of {CONSTANT_MODES}, got {mode!r}")
    scale = samp.sigma * samp.root_n
    if mode == "approximate":
        c = samp.n * margin.theta1 + scale * normal_quantile(1.0 - level)
        d = samp.n * margin.theta2 + scale * normal_quantile(level)
        return c, d

    h = margin.half_width * samp.root_n / samp.sigma
    lo = np.maximum(0.0, h + normal_quantile(level))
    hi = h + normal_quantile(0.5 * (1.0 + level))
    mid = 0.5 * (lo + hi)
    while (inside := (lo < mid) & (mid < hi)).any():
        attained = normal_cdf(mid + h) + normal_cdf(mid - h) - 1.0 >= level
        lo, hi = np.where(inside & ~attained, mid, lo), np.where(inside & attained, mid, hi)
        mid = 0.5 * (lo + hi)
    c = samp.n * margin.center - scale * hi
    return c, samp.n * (margin.theta1 + margin.theta2) - c


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


def _posterior_tail_values(samp: NormalSampling, prior: NormalPrior, xbar: np.ndarray,
                           margin: EquivalenceMargin):
    """Posterior tail probabilities (upper, lower) at the sample means in the
    float64 array ``xbar``: the upper tail in a new array and the lower tail
    in place over ``xbar``.  The bits are those of
    1 - Phi(coef (xbar - theta1)) and Phi(coef (xbar - theta2))."""
    coef = posterior_coefficient(samp, prior)
    upper = np.subtract(xbar, margin.theta1)
    upper *= coef
    normal_cdf(upper, out=upper)
    np.subtract(1.0, upper, out=upper)
    xbar -= margin.theta2
    xbar *= coef
    return upper, normal_cdf(xbar, out=xbar)


def _posterior_evidence(samp: NormalSampling, prior: NormalPrior, xbar: np.ndarray,
                        margin: EquivalenceMargin) -> np.ndarray:
    """Combined posterior probability of non-equivalence, lower + upper tail
    clamped to [0, 1], at the sample means in the float64 array ``xbar``,
    in place over ``xbar``; the upper tail's array is freed on return."""
    upper, lower = _posterior_tail_values(samp, prior, xbar, margin)
    lower += upper
    del upper
    return np.clip(lower, 0.0, 1.0, out=lower)


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
    up, lo = _posterior_tail_values(samp, prior, np.array([xbar], dtype=float), margin)
    up, lo = float(up[0]), float(lo[0])
    return (EvidenceMeasure(up, "upper", "bayesian"),
            EvidenceMeasure(lo, "lower", "bayesian"),
            EvidenceMeasure(min(1.0, max(0.0, up + lo)), "combined", "bayesian"))


def normal_pvalue_cdf(samp: NormalSampling, theta: float, margin: EquivalenceMargin,
                      t, mode: str = "approximate"):
    """P_theta(p-value <= t) at a level t or an array of them: the TOST (larger
    one-sided) p-value's CDF, or the folded p-value's under ``exact_symmetric``.

    Equals the probability that the sum statistic lands between the
    level-t critical constants; 0 wherever that region is empty.
    """
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & (t < 1.0)).all():
        raise ValueError(f"t must lie in (0, 1), got {t}")
    c, d = normal_critical_constants(samp, margin, t, mode=mode)
    scale = samp.sigma * samp.root_n
    value = (normal_cdf((d - samp.n * theta) / scale)
             - normal_cdf((c - samp.n * theta) / scale))
    return np.where(c > d, 0.0, np.maximum(value, 0.0))[()]
