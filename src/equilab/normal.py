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
which makes every posterior tail probability a single Phi evaluation: one
kernel, :func:`_boundary_cdfs`, serves the one-sided p-values and the tails.
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
        # q(1 - level) = -q(level), also where 1 - level rounds to 1
        q_level = normal_quantile(level)
        return samp.n * margin.theta1 - scale * q_level, samp.n * margin.theta2 + scale * q_level

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


def _boundary_cdfs(xbar: np.ndarray, margin: EquivalenceMargin, scale: float):
    """Phi((xbar - theta_i) scale) over the 1-d float64 array ``xbar``:
    theta1's in a new array, theta2's in place.  The p-values pass the z
    scale sqrt(n) / sigma, the posterior tails :func:`posterior_coefficient`;
    both are finite, so a distance overflows only where its z does."""
    with np.errstate(over="ignore"):  # a distance past the float range is +-inf
        first = np.subtract(xbar, margin.theta1)
        xbar -= margin.theta2
        for z in (first, xbar):
            z *= scale
            normal_cdf(z, out=z)
    return first, xbar


def normal_onesided_pvalues(samp: NormalSampling, xbar: float,
                            margin: EquivalenceMargin):
    """One-sided LFC p-values at the observed mean.

    Upper-tailed test of theta <= theta1: 1 - Phi((xbar - theta1) sqrt(n)/sigma);
    lower-tailed test of theta >= theta2: Phi((xbar - theta2) sqrt(n)/sigma).
    """
    first, second = _boundary_cdfs(np.array([xbar], dtype=float), margin,
                                   samp.root_n / samp.sigma)
    return (EvidenceMeasure(1.0 - float(first[0]), "upper", "frequentist"),
            EvidenceMeasure(float(second[0]), "lower", "frequentist"))


def _combined_pvalue_values(samp: NormalSampling, xbar, margin: EquivalenceMargin):
    """Vectorized folded equivalence p-value; returns plain floats/arrays.
    |xbar - center| -+ eps are taken as the distances to the near and the
    far boundary, which overflow only to +-inf, never to inf - inf."""
    xbar = np.asarray(xbar, dtype=float)
    z_scale = samp.root_n / samp.sigma  # finite: sigma / sqrt(n) is a normal float
    with np.errstate(over="ignore"):  # a distance past the float range is +-inf
        near = np.maximum(xbar - margin.theta2, margin.theta1 - xbar) * z_scale
        far = np.maximum(xbar - margin.theta1, margin.theta2 - xbar) * z_scale
    vals = normal_cdf(far) + normal_cdf(near) - 1.0
    return np.clip(vals, 0.0, 1.0)


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
        lower += np.subtract(1.0, upper, out=upper)
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
    first, second = _boundary_cdfs(np.array([xbar], dtype=float), margin,
                                   posterior_coefficient(samp, prior))
    up, lo = 1.0 - float(first[0]), float(second[0])
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
