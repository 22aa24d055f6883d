"""Equivalence evidence for the one-sample normal model with known variance.

The sufficient statistic is the sum T = n * xbar.  Per-tail normal
quantiles (``approximate``) give the exact level-t region of the TOST
p-value, the larger one-sided one; a bisection for exact size under the
symmetric constants C + D = n (theta1 + theta2) (``exact_symmetric``)
gives that of the folded p-value, the distance |p_upper - p_lower| of the two
one-sided p-values; with t the standardized distance of xbar from the margin
center and h = eps sqrt(n)/sigma it is Phi(|t| + h) + Phi(|t| - h) - 1, 0 at
the center and increasing to 1, and :func:`normal_tost_pvalue` reports it.
Conjugate normal priors are centered at the tested boundary for each tail,
which makes every posterior tail probability a single Phi evaluation.  One
kernel, :func:`_boundary_cdfs`, gives every tail as Phi of its own signed
distance, so none is taken as 1 - Phi and each keeps its relative accuracy
down to the underflow.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .equivalence import EquivalenceMargin, EvidenceMeasure
from .special import SLICE_ELEMENTS, normal_cdf, normal_quantile

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
        # the sd of the mean and its reciprocal, the z scale, stay in range
        if self.sigma / self.root_n < sys.float_info.min:
            raise ValueError(f"sigma / sqrt(n) must be at least {sys.float_info.min:g}, "
                             f"got sigma={self.sigma}, n={self.n}")

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
    the one-sided p-values.  Taken as n / hypot(sigma / tau, sqrt n) / sigma:
    the quotient by the hypot is at most sqrt n and the scale at most
    sqrt(n) / sigma, which :class:`NormalSampling` keeps finite, so no step
    overflows.  Within 3 ulp of the exact scale wherever sigma / tau is
    finite; where a subnormal tau takes it past the range, the scale is 0.
    """
    return samp.n / math.hypot(samp.sigma / prior.tau, samp.root_n) / samp.sigma


def normal_critical_constants(samp: NormalSampling, margin: EquivalenceMargin,
                              level, mode: str = "approximate"):
    """Critical constants (C, D) for the sum statistic at a level or an array of them.

    ``approximate`` takes per-tail quantiles, the exact TOST region (C > D,
    empty, when the margin is narrow relative to sigma * sqrt(n));
    ``exact_symmetric``, the folded p-value's region, has exact size under
    C + D = n(theta1+theta2): C = n center - sigma sqrt(n) x, where the size
    at theta1, F(x) = Phi(x - h) - Phi(-x - h) with h = eps sqrt(n)/sigma,
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
        # q(1 - level) = -q(level), also where 1 - level rounds to 1
        q_level = normal_quantile(level)
        return samp.n * margin.theta1 - scale * q_level, samp.n * margin.theta2 + scale * q_level

    h = margin.half_width * samp.root_n / samp.sigma
    lo = np.maximum(0.0, h + normal_quantile(level))
    hi = h + normal_quantile(0.5 * (1.0 + level))
    mid = 0.5 * (lo + hi)
    while (inside := (lo < mid) & (mid < hi)).any():
        attained = normal_cdf(mid - h) - normal_cdf(-mid - h) >= level
        lo, hi = np.where(inside & ~attained, mid, lo), np.where(inside & attained, mid, hi)
        mid = 0.5 * (lo + hi)
    c = samp.n * margin.center - scale * hi
    return c, samp.n * (margin.theta1 + margin.theta2) - c


def _boundary_cdfs(xbar: np.ndarray, margin: EquivalenceMargin, scale: float):
    """The upper tail Phi((theta1 - xbar) scale) and the lower tail
    Phi((xbar - theta2) scale) over the 1-d float64 array ``xbar``: the
    upper in a new array, the lower in place.  The p-values pass the z
    scale sqrt(n) / sigma, the posterior tails :func:`posterior_coefficient`;
    both are finite, so a distance overflows only where its z does."""
    with np.errstate(over="ignore"):  # a distance past the float range is +-inf
        upper = np.subtract(margin.theta1, xbar)
        xbar -= margin.theta2
        for z in (upper, xbar):
            z *= scale
            normal_cdf(z, out=z)
    return upper, xbar


def normal_onesided_pvalues(samp: NormalSampling, xbar: float,
                            margin: EquivalenceMargin):
    """One-sided LFC p-values at the observed mean.

    Upper-tailed test of theta <= theta1: Phi((theta1 - xbar) sqrt(n)/sigma);
    lower-tailed test of theta >= theta2: Phi((xbar - theta2) sqrt(n)/sigma).
    """
    upper, lower = _boundary_cdfs(np.array([xbar], dtype=float), margin,
                                  samp.root_n / samp.sigma)
    return (EvidenceMeasure(float(upper[0]), "upper", "frequentist"),
            EvidenceMeasure(float(lower[0]), "lower", "frequentist"))


def _combined_pvalue_values(samp: NormalSampling, xbar, margin: EquivalenceMargin):
    """Vectorized folded equivalence p-value |p_lower - p_upper| of the
    :func:`_boundary_cdfs` tails at the z scale; a float for a scalar
    ``xbar``, an array of its shape otherwise."""
    xbar = np.array(xbar, dtype=float)
    upper, lower = _boundary_cdfs(xbar.ravel(), margin, samp.root_n / samp.sigma)
    return np.abs(lower - upper).reshape(xbar.shape)[()]


def normal_tost_pvalue(samp: NormalSampling, xbar: float,
                       margin: EquivalenceMargin) -> EvidenceMeasure:
    """Combined equivalence p-value for the observed mean (folded form)."""
    value = float(_combined_pvalue_values(samp, xbar, margin))
    return EvidenceMeasure(value, "combined", "frequentist")


def _posterior_evidence(samp: NormalSampling, prior: NormalPrior, xbar: np.ndarray,
                        margin: EquivalenceMargin) -> np.ndarray:
    """Combined posterior probability of non-equivalence, lower + upper tail
    clamped to [0, 1], at the sample means in the 1-d float64 array
    ``xbar``, in place over ``xbar``: the tails are taken one slice at a
    time, so the upper tail never takes an array of the sample's size."""
    coef = posterior_coefficient(samp, prior)
    for start in range(0, xbar.size, SLICE_ELEMENTS):
        upper, lower = _boundary_cdfs(xbar[start:start + SLICE_ELEMENTS], margin, coef)
        lower += upper
    return np.clip(xbar, 0.0, 1.0, out=xbar)


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
    upper, lower = _boundary_cdfs(np.array([xbar], dtype=float), margin,
                                  posterior_coefficient(samp, prior))
    up, lo = float(upper[0]), float(lower[0])
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
    with np.errstate(over="ignore"):  # a distance past the float range is +-inf
        value = (normal_cdf((d - samp.n * theta) / scale)
                 - normal_cdf((c - samp.n * theta) / scale))
    return np.where(c > d, 0.0, np.maximum(value, 0.0))[()]
