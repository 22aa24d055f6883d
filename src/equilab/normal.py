"""Equivalence evidence for the one-sample normal model with known variance.

Conjugate normal priors are centered at the tested boundary for each tail,
so every posterior tail probability is one Phi.  One kernel,
:func:`_boundary_tails`, gives every pair of tails, each Phi of its own
signed distance, never 1 - Phi, so accurate down to the underflow, and
one function, :func:`_tail_evidence`, combines a pair into each evidence
value by name: the clipped posterior sum, the signed and the folded
difference, and the TOST max; the correlation Monte Carlo and the FDR
simulation take theirs from it too.  The folded p-value
|p_upper - p_lower| = Phi(|t| + h) + Phi(|t| - h) - 1 (t the standardized
distance of xbar from the margin center, h = eps sqrt(n)/sigma) rises
from 0 there to 1.  Each measure's level-t region of
xbar is an interval: per-tail quantiles give the TOST (larger one-sided)
p-value's, a bisection for exact size under C + D = n (theta1 + theta2)
(``exact_symmetric``) the folded one's, and a bisection around the center
the posterior evidence's; one kernel, :func:`_interval_prob`, gives each CDF,
relatively accurate also where the interval is narrow and far from theta.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .equivalence import EquivalenceMargin, EvidenceMeasure
from .special import SLICE_ELEMENTS, gauss_legendre, normal_cdf, normal_quantile

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
    # F is the lower tail less the upper, both at theta1 = -h, theta2 = h
    _, x = _bisect(lambda x: np.subtract(*_boundary_tails(x, -h, h, 1.0)[::-1]) >= level,
                   np.maximum(0.0, h + normal_quantile(level)),
                   h + normal_quantile(0.5 * (1.0 + level)))
    c = samp.n * margin.center - scale * x
    return c, samp.n * (margin.theta1 + margin.theta2) - c


def _bisect(past, lo, hi):
    """Elementwise bisection of ``past``, false below a root and true above
    it, until [lo, hi] stops shrinking; an element whose root lies outside
    its bracket takes no step and ends at the nearer end, lo = hi."""
    lo, hi = np.where(past(hi), lo, hi), np.where(past(lo), lo, hi)
    mid = 0.5 * (lo + hi)
    while (inside := (lo < mid) & (mid < hi)).any():
        crossed = past(mid)
        lo, hi = np.where(inside & ~crossed, mid, lo), np.where(inside & crossed, mid, hi)
        mid = 0.5 * (lo + hi)
    return lo, hi


def _boundary_args(x, theta1: float, theta2: float, scale: float) -> np.ndarray:
    """The signed distances (theta1 - x) scale of the upper tail and
    (x - theta2) scale of the lower, the rows of one new array; a distance
    past the float range is +-inf."""
    z = np.empty((2,) + np.shape(x))
    with np.errstate(over="ignore"):
        np.subtract(theta1, x, out=z[0, ...])
        np.subtract(x, theta2, out=z[1, ...])
        z *= scale
    return z


def _boundary_tails(x, theta1: float, theta2: float, scale: float) -> np.ndarray:
    """Upper tail Phi((theta1 - x) scale) and lower tail Phi((x - theta2) scale),
    the rows of one new array."""
    z = _boundary_args(x, theta1, theta2, scale)
    return normal_cdf(z, out=z)


# the TOST max evaluates only its larger argument's tail, the larger value
# wherever normal_cdf is nondecreasing; where the arguments lie within this
# relative distance of a tie it evaluates both, so that no rounding step of
# the kernel can decide
_TIE = 1e-9


def _tail_evidence(z: np.ndarray, rule: str) -> np.ndarray:
    """The evidence value of the combination ``rule`` of the upper tail
    Phi(z[0]) and the lower tail Phi(z[1]), given the C-contiguous (2, m)
    float64 array z of their arguments, which it overwrites; the value is
    the view z[0].

    ``sum``: the posterior evidence, clipped to [0, 1]; ``signed``:
    p_lower - p_upper; ``folded``: |p_lower - p_upper|; ``max``: the TOST
    p-value, Phi(max(z)) alone, with a second normal_cdf call on the other
    tail of any near-tie (see ``_TIE``).
    """
    upper, lower = z
    if rule == "max":
        tie = np.flatnonzero(np.abs(upper - lower) <= _TIE * np.abs(np.maximum(upper, lower)))
        low = np.minimum(upper[tie], lower[tie])
        p = normal_cdf(np.maximum(upper, lower, out=upper), out=upper)
        if tie.size:
            p[tie] = np.maximum(p[tie], normal_cdf(low))
        return p
    normal_cdf(z, out=z)
    if rule == "sum":
        np.add(upper, lower, out=upper)
        return np.clip(upper, 0.0, 1.0, out=upper)
    np.subtract(lower, upper, out=upper)
    return np.abs(upper, out=upper) if rule == "folded" else upper


def _combined_tails(x: np.ndarray, theta1: float, theta2: float, scale: float, rule: str):
    """The ``rule`` combination (:func:`_tail_evidence`) of the
    :func:`_boundary_tails` pair, in place over the 1-d float64 array ``x``,
    one slice at a time."""
    for start in range(0, x.size, SLICE_ELEMENTS):
        part = x[start:start + SLICE_ELEMENTS]
        part[...] = _tail_evidence(_boundary_args(part, theta1, theta2, scale), rule)
    return x


def normal_onesided_pvalues(samp: NormalSampling, xbar: float,
                            margin: EquivalenceMargin):
    """One-sided LFC p-values at the observed mean.

    Upper-tailed test of theta <= theta1: Phi((theta1 - xbar) sqrt(n)/sigma);
    lower-tailed test of theta >= theta2: Phi((xbar - theta2) sqrt(n)/sigma).
    """
    upper, lower = _boundary_tails(xbar, margin.theta1, margin.theta2,
                                   samp.root_n / samp.sigma)
    return (EvidenceMeasure(float(upper), "upper", "frequentist"),
            EvidenceMeasure(float(lower), "lower", "frequentist"))


def _combined_pvalue_values(samp: NormalSampling, xbar, margin: EquivalenceMargin):
    """Vectorized folded equivalence p-value |p_lower - p_upper| at the z
    scale; a float for a scalar ``xbar``, an array of its shape otherwise."""
    xbar = np.array(xbar, dtype=float)
    _combined_tails(xbar.reshape(-1), margin.theta1, margin.theta2,
                    samp.root_n / samp.sigma, "folded")
    return xbar[()]


def normal_tost_pvalue(samp: NormalSampling, xbar: float,
                       margin: EquivalenceMargin) -> EvidenceMeasure:
    """Combined equivalence p-value for the observed mean (folded form)."""
    value = float(_combined_pvalue_values(samp, xbar, margin))
    return EvidenceMeasure(value, "combined", "frequentist")


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
    upper, lower = _boundary_tails(xbar, margin.theta1, margin.theta2,
                                   posterior_coefficient(samp, prior))
    up, lo = float(upper), float(lower)
    return (EvidenceMeasure(up, "upper", "bayesian"),
            EvidenceMeasure(lo, "lower", "bayesian"),
            EvidenceMeasure(min(1.0, max(0.0, up + lo)), "combined", "bayesian"))


# Gauss-Legendre nodes of a narrow interval's probability (see _interval_prob)
_NARROW_NODES = 8


def _interval_prob(samp: NormalSampling, theta: float, lo, hi, count: int = 1):
    """P_theta(lo <= count xbar <= hi) elementwise, 0 where lo > hi.

    The interval is first reflected about theta to lie mostly below it, at
    a <= b in z.  Where Phi(a) <= Phi(b) / 2 the probability is the
    difference of those small tails, which loses at most a bit.  Elsewhere
    the interval is narrow against its distance from theta, and the
    difference would cancel: the probability is then its width
    w = (hi - lo) / count in z, exact in hi - lo where the ends are close,
    times the mean of phi over it, phi(b) taken out first, a fixed
    Gauss-Legendre rule on exp(w s (b - w s / 2)) over s in [0, 1].
    """
    scale = samp.root_n / samp.sigma
    with np.errstate(over="ignore", invalid="ignore"):  # +-inf distances and bounds
        a, b = (np.array((lo / count, hi / count)) - theta) * scale
        ends = np.where(a + b > 0.0, (-b, -a), (a, b))
        phi_a, phi_b = normal_cdf(ends)
        p = np.array(phi_b - phi_a)
        narrow = (phi_a > 0.5 * phi_b) & np.less(lo, hi)
        if narrow.any():
            nodes, weights = gauss_legendre(_NARROW_NODES)
            s, weights = 0.5 * (nodes + 1.0), 0.5 * weights  # the rule on [0, 1]
            w = np.broadcast_to((hi - lo) / count * scale, p.shape)[narrow]
            b = ends[1][narrow]
            ws = np.multiply.outer(w, s)
            mean = np.exp(ws * (b[:, np.newaxis] - 0.5 * ws)) @ weights
            p[narrow] = w * np.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi) * mean
    return np.where(lo > hi, 0.0, np.maximum(p, 0.0))[()]


def normal_pvalue_cdf(samp: NormalSampling, theta: float, margin: EquivalenceMargin,
                      t, mode: str = "approximate"):
    """P_theta(p-value <= t) at a level t or an array of them: the TOST (larger
    one-sided) p-value's CDF, or the folded p-value's under ``exact_symmetric``:
    the probability of the interval between the level-t critical constants."""
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & (t < 1.0)).all():
        raise ValueError(f"t must lie in (0, 1), got {t}")
    c, d = normal_critical_constants(samp, margin, t, mode=mode)
    return _interval_prob(samp, theta, c, d, samp.n)


def _posterior_cdf(samp: NormalSampling, prior: NormalPrior, margin: EquivalenceMargin,
                   theta: float, t: np.ndarray) -> np.ndarray:
    """P_theta(combined posterior evidence <= t) at each level of the array t.

    At xbar = theta2 + e or theta1 - e the evidence is Phi(u) + Phi(-u - 2k),
    u = c e, k = c eps, c = :func:`posterior_coefficient`, rising from 2 Phi(-k)
    at the center: the region [theta1 - e_t, theta2 + e_t] has u_t in
    [max(-k, q(t/2)), q(t)] and is empty where 2 Phi(-k) > t: at every t
    where c is 0 (sigma / tau past the range), which leaves u / c unread."""
    coef = posterior_coefficient(samp, prior)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # k, e may be inf
        k = coef * margin.half_width
        half = np.maximum(0.5 * t, np.finfo(float).smallest_subnormal)  # 0.5 * 5e-324 is 0
        # the evidence Phi(-2k - u) + Phi(u) is the tails at theta1 = -2k, theta2 = 0
        u, _ = _bisect(lambda u: np.add(*_boundary_tails(u, -2.0 * k, 0.0, 1.0)) > t,
                       np.maximum(-k, normal_quantile(half)), normal_quantile(t))
        e = np.where(2.0 * normal_cdf(-k) > t, -np.inf, u / coef)
    return _interval_prob(samp, theta, margin.theta1 - e, margin.theta2 + e)
