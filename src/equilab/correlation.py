"""Correlation structure between the two evidence measures in the normal model.

Closed forms rest on the identity

    E[Phi(a Z) Phi(b Z)] = 1/4 + arcsin(ab / sqrt((1+a^2)(1+b^2))) / (2 pi),

for Z standard normal.  A Monte Carlo correlation estimator with a
moment-based standard error serves as the universal numeric oracle; the
evidence pairs here are deterministic transforms of a single normal draw,
so the naive 1/sqrt(N) error badly understates the real uncertainty and
the influence-function estimate is used instead.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equivalence import EquivalenceMargin
from .normal import NormalPrior, NormalSampling, _posterior_tail_values
from .rng import spawn_rng
from .special import normal_cdf

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation value with its provenance and (for MC) standard error."""

    rho: float
    method: str  # "closed_form" or "monte_carlo"
    std_error: Optional[float] = None

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")
        if self.method not in ("closed_form", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if (self.std_error is not None) != (self.method == "monte_carlo"):
            raise ValueError("std_error must be present iff method is monte_carlo")


def expected_phi_product(a: float, b: float) -> float:
    """E[Phi(aZ) Phi(bZ)] for standard normal Z, in closed form."""
    arg = a * b / math.sqrt((1.0 + a * a) * (1.0 + b * b))
    return 0.25 + math.asin(arg) / _TWO_PI


def sample_correlation(x, y) -> CorrelationResult:
    """Pearson correlation of paired draws with an influence-function SE.

    The SE uses the asymptotic variance of the sample correlation for
    general (non-normal) bivariate data, which stays honest when the pair
    is a deterministic curve in the plane.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 4:
        raise ValueError("sample_correlation needs two equal-length 1-d samples")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant sample")
    zx = x - x.mean()
    zx /= sx
    zy = y - y.mean()
    zy /= sy
    prod = zx * zy
    r = float(np.mean(prod))
    r = max(-1.0, min(1.0, r))
    # psi = zx zy - 0.5 r (zx^2 + zy^2) in place, in the same operation order
    zx *= zx
    zy *= zy
    zx += zy
    zx *= 0.5 * r
    prod -= zx
    prod *= prod
    se = float(np.sqrt(np.mean(prod) / x.size))
    return CorrelationResult(r, "monte_carlo", se)


def equivalence_covariance_terms(samp: NormalSampling, prior: NormalPrior):
    """The four covariance terms of the equivalence correlation at the center.

    Each term is Cov(Phi(aZ), Phi(bZ)) under the marginal standardization
    with a = sqrt(sigma^2 + n tau^2)/sigma and b = sqrt(n) tau / sigma; the
    covariance of the two combined measures is t1 - t2 + t3 - t4 = 0.
    """
    a = math.sqrt(samp.sigma ** 2 + samp.n * prior.tau ** 2) / samp.sigma
    b = samp.root_n * prior.tau / samp.sigma
    term = expected_phi_product(a, b) - 0.25
    return term, term, term, term


def corr_equivalence_closed(samp: NormalSampling, prior: NormalPrior,
                            margin: EquivalenceMargin) -> CorrelationResult:
    """Correlation between combined posterior evidence and the signed
    combined p-value at the margin center: zero.

    Four equal covariance terms make t1 - t2 + t3 - t4 zero by construction;
    off the center it is not zero (open item 1 of ROADMAP.md).
    """
    del margin  # the value at the center does not depend on the margin
    t1, t2, t3, t4 = equivalence_covariance_terms(samp, prior)
    cov = t1 - t2 + t3 - t4
    return CorrelationResult(cov, "closed_form")


def _signed_combined_pvalue(samp: NormalSampling, xbar, margin: EquivalenceMargin):
    """Phi(z1) + Phi(z2) - 1 with z_i the per-boundary standardized means.

    This signed combination (negative on the lower half, positive on the
    upper) is the quantity whose covariance with the posterior evidence
    cancels; the reported equivalence p-value is its absolute value.
    """
    x = np.asarray(xbar, dtype=float)
    z1 = samp.root_n * (x - margin.theta1) / samp.sigma
    z2 = samp.root_n * (x - margin.theta2) / samp.sigma
    return normal_cdf(z1) + normal_cdf(z2) - 1.0


def corr_equivalence_mc(samp: NormalSampling, prior: NormalPrior,
                        margin: EquivalenceMargin, draws: int = 1_000_000,
                        seed: int = 0, theta: Optional[float] = None) -> CorrelationResult:
    """Monte Carlo correlation of (posterior evidence, signed p-value).

    The sample mean is drawn from N(theta, sigma^2/n) with theta defaulting
    to the margin center, where the exact value is the 0 of
    :func:`corr_equivalence_closed` and this estimate is noise with an SE
    that understates it (the signed p-value is within 1e-8 of 0 on nearly
    every draw): n = 30, sigma = 1, tau = 0.25, margin (1, 4) and 1e6 draws
    give 0.357 +- 0.302, -0.764 +- 0.181 and -0.018 +- 0.333 at seeds 0-2.
    """
    center = margin.center if theta is None else float(theta)
    rng = spawn_rng(seed, 0)
    xbar = center + samp.sigma / samp.root_n * rng.standard_normal(draws)
    up, lo = _posterior_tail_values(samp, prior, xbar, margin)
    p_bayes = np.clip(up + lo, 0.0, 1.0)
    p_signed = _signed_combined_pvalue(samp, xbar, margin)
    return sample_correlation(p_bayes, p_signed)


def corr_partial_pvalues(samp: NormalSampling, margin: Optional[EquivalenceMargin] = None,
                         *, half_width: Optional[float] = None,
                         draws: int = 1_000_000, seed: int = 0) -> CorrelationResult:
    """Correlation between the two one-sided p-values.

    Exactly -1 for a degenerate (zero-width) margin, where the tails are
    mirror images; for a positive half-width a seeded Monte Carlo estimate
    at the margin center is returned, with its standard error (the closed
    form through the bivariate normal CDF is open item 1 of ROADMAP.md).
    Pass either a margin or a bare ``half_width`` (the latter admits the
    degenerate width 0, which no margin can represent).
    """
    if (margin is None) == (half_width is None):
        raise ValueError("pass exactly one of margin or half_width")
    eps = margin.half_width if margin is not None else float(half_width)
    if eps < 0.0:
        raise ValueError(f"half_width must be nonnegative, got {eps}")
    if eps == 0.0:
        return CorrelationResult(-1.0, "closed_form")
    rng = spawn_rng(seed, 0)
    z = rng.standard_normal(draws)
    c = eps * samp.root_n / samp.sigma
    p_r = 1.0 - normal_cdf(z + c)
    p_l = normal_cdf(z - c)
    return sample_correlation(p_r, p_l)


def corr_two_sided(w: float) -> CorrelationResult:
    """Closed-form correlation of the two-sided evidence measures.

    ``w = n tau^2 / (sigma^2 + n tau^2)`` is the posterior shrinkage
    weight; the correlation rises to 1 in the flat-prior limit w = 1.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must lie in (0, 1], got {w}")
    rho = (math.asin(math.sqrt(w / (2.0 - w)))
           / math.sqrt(math.asin(w) * math.asin(1.0 / (2.0 - w))))
    return CorrelationResult(min(1.0, rho), "closed_form")


def corr_two_sided_mc(w: float, draws: int = 1_000_000, seed: int = 0) -> CorrelationResult:
    """Monte Carlo cross-check of :func:`corr_two_sided`.

    Draws the sample mean from its marginal (prior-predictive) law under
    the centered prior, which is the standardization the closed form
    integrates over; both measures are the signed two-sided forms
    2 (1 - Phi(.)).
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must lie in (0, 1], got {w}")
    rng = spawn_rng(seed, 0)
    z = rng.standard_normal(draws)
    if w == 1.0:
        p_f = p_b = 2.0 * (z < 0.0).astype(float)
    else:
        a = 1.0 / math.sqrt(1.0 - w)
        b = math.sqrt(w / (1.0 - w))
        p_f = 2.0 * (1.0 - normal_cdf(a * z))
        p_b = 2.0 * (1.0 - normal_cdf(b * z))
    return sample_correlation(p_b, p_f)
