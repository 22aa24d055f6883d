"""Correlation structure between the two evidence measures in the normal model.

Closed forms rest on the identity

    E[Phi(a Z) Phi(b Z)] = 1/4 + arcsin(ab / sqrt((1+a^2)(1+b^2))) / (2 pi),

for Z standard normal, and on its bivariate form

    Phi2(h, h; r) - Phi(h)^2 = (1 / 2 pi) int_0^arcsin(r) exp(-h^2 / (1 + sin t)) dt.

Each closed form has a seeded Monte Carlo twin (``*_mc``, or
:func:`corr_partial_pvalues`) as its cross-check, which draws nothing
where the measures are one array or its mirror image.  The MC correlation
estimator carries a moment-based standard error: the evidence pairs here
are deterministic transforms of a single normal draw, so the naive
1/sqrt(N) error badly understates the real uncertainty and the
influence-function estimate is used instead.

Memory: each Monte Carlo path turns its draws into its two evidence arrays
in place, building any further term one slice at a time, and the estimator
centres and scales those in their own buffers and takes every mean of a
product slice by slice (:func:`_slice_sum`), so a path holds two
draw-sized float arrays, the two evidence arrays (16 MB at 1e6 draws).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equivalence import EquivalenceMargin
from .normal import NormalPrior, NormalSampling, _combined_tails, posterior_coefficient
from .rng import spawn_rng
from .special import SLICE_ELEMENTS, gauss_legendre, normal_cdf

_TWO_PI = 2.0 * math.pi
# Gauss-Legendre nodes of the partial correlation's two integrals over
# [0, pi/6]: relative error within 1.3e-14 for c <= 10 against mpmath
_PARTIAL_NODES = 20
# past this c, exp(-c^2 / 6) underflows to 0 (and c^2 overflows from 1.3e154):
# the ratio of the integrals stays finite, so rho is its limit +0
_PARTIAL_C_ZERO = math.sqrt(6.0 * 746.0)
_MIN_PAIRS = 4  # the fewest pairs a sample correlation is estimated from


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


def _unit_ratio(x: float) -> float:
    """x / sqrt(1 + x^2), +-1 at +-inf."""
    return x / math.hypot(1.0, x) if math.isfinite(x) else math.copysign(1.0, x)


def expected_phi_product(a: float, b: float) -> float:
    """E[Phi(aZ) Phi(bZ)] for standard normal Z, in closed form: the arcsine's
    argument ab / sqrt((1+a^2)(1+b^2)) is the product of a's and b's
    :func:`_unit_ratio`, in range for every a and b."""
    return 0.25 + math.asin(_unit_ratio(a) * _unit_ratio(b)) / _TWO_PI


def check_draws(draws: int) -> int:
    """``draws`` when a sample correlation can be estimated from that many
    Monte Carlo pairs; a ValueError naming ``draws`` otherwise."""
    if draws < _MIN_PAIRS:
        raise ValueError(f"draws must be at least {_MIN_PAIRS}, got {draws}")
    return draws


def _standard_normal_draws(draws: int, seed: int):
    """``draws`` standard normal variates from stream 0 of ``seed``."""
    return spawn_rng(seed, 0).standard_normal(check_draws(draws))


def sample_correlation(x, y) -> CorrelationResult:
    """Pearson correlation of paired draws with an influence-function SE.

    The SE uses the asymptotic variance of the sample correlation for
    general (non-normal) bivariate data, which stays honest when the pair
    is a deterministic curve in the plane.  The inputs are copied once and
    left unchanged.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < _MIN_PAIRS:
        raise ValueError("sample_correlation needs two equal-length 1-d samples")
    return _correlation_in_place(x, y)


def _slice_sum(term, n: int) -> float:
    """The sum of the n-element float64 array whose slice [lo, hi)
    ``term(lo, hi, out)`` writes into ``out``, without that array: each
    slice of at most ``SLICE_ELEMENTS`` is written into one slice-sized
    scratch and summed by numpy, and ``math.fsum`` adds the slice sums."""
    scratch = np.empty(min(n, SLICE_ELEMENTS))
    sums = []
    for lo in range(0, n, SLICE_ELEMENTS):
        out = scratch[:min(n - lo, SLICE_ELEMENTS)]
        term(lo, lo + out.size, out)
        sums.append(out.sum())
    return math.fsum(sums)


def _correlation_in_place(x: np.ndarray, y: np.ndarray) -> CorrelationResult:
    """:func:`sample_correlation` of two distinct equal-length 1-d float
    arrays that it overwrites: each is centred and scaled in its own buffer,
    and every mean of a product is a :func:`_slice_sum` over slices, so no
    further array of the sample's size is allocated.  Each sd is the root
    of the mean of the centred squares."""
    n = x.size

    def mean_product(u, v):
        return _slice_sum(lambda lo, hi, out: np.multiply(u[lo:hi], v[lo:hi], out=out), n) / n

    x -= x.mean()
    sx = math.sqrt(mean_product(x, x))
    y -= y.mean()
    sy = math.sqrt(mean_product(y, y))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant sample")
    x /= sx
    y /= sy
    r = max(-1.0, min(1.0, mean_product(x, y)))

    def psi_squared(lo, hi, out):
        # psi = zx zy - 0.5 r (zx^2 + zy^2), the squares over the slices of x and y
        zx, zy = x[lo:hi], y[lo:hi]
        np.multiply(zx, zy, out=out)
        zx *= zx
        zy *= zy
        zx += zy
        zx *= 0.5 * r
        out -= zx
        out *= out

    se = math.sqrt(_slice_sum(psi_squared, n) / n / n)
    return CorrelationResult(r, "monte_carlo", se)


def equivalence_covariance_terms(samp: NormalSampling, prior: NormalPrior):
    """The four covariance terms of the equivalence correlation at the center.

    Each term is Cov(Phi(aZ), Phi(bZ)) under the marginal standardization
    with a = sqrt(sigma^2 + n tau^2)/sigma and b = sqrt(n) tau / sigma; the
    covariance of the two combined measures is t1 - t2 + t3 - t4 = 0.
    """
    b = samp.root_n * prior.tau / samp.sigma
    a = math.hypot(1.0, b)  # a^2 = 1 + b^2
    term = expected_phi_product(a, b) - 0.25
    return term, term, term, term


def corr_equivalence_closed(samp: NormalSampling, prior: NormalPrior,
                            margin: EquivalenceMargin) -> CorrelationResult:
    """Correlation between combined posterior evidence and the signed
    combined p-value at the margin center: zero, whatever the design.

    The four covariance terms of :func:`equivalence_covariance_terms` are
    equal, so t1 - t2 + t3 - t4 is zero by construction; off the center it
    is not zero (open item 2 of ROADMAP.md).
    """
    del samp, prior, margin  # the value at the center does not depend on the design
    return CorrelationResult(0.0, "closed_form")


def corr_equivalence_mc(samp: NormalSampling, prior: NormalPrior,
                        margin: EquivalenceMargin, draws: int = 1_000_000,
                        seed: int = 0, theta: Optional[float] = None) -> CorrelationResult:
    """Monte Carlo correlation of (posterior evidence, signed p-value).

    The signed p-value is p_lower - p_upper, the difference of the two
    one-sided p-values of :func:`_combined_tails`: negative on the lower
    half, positive on the upper, it is the quantity whose covariance with
    the posterior evidence cancels (the reported equivalence p-value is its
    absolute value).  The sample mean is drawn from N(theta, sigma^2/n)
    with theta defaulting to the margin center, where the exact value is
    the 0 of :func:`corr_equivalence_closed` and this estimate is noise
    with an SE that understates it (the signed p-value is within 1e-8 of 0
    on nearly every draw): n = 30, sigma = 1, tau = 0.25, margin (1, 4) and
    1e6 draws give -0.619 +- 0.265, -0.371 +- 0.306 and 0.037 +- 0.209 at
    seeds 0-2.
    """
    center = margin.center if theta is None else float(theta)
    xbar = _standard_normal_draws(draws, seed)
    xbar *= samp.sigma / samp.root_n
    xbar += center
    p_signed = _combined_tails(xbar.copy(), margin.theta1, margin.theta2,
                               samp.root_n / samp.sigma, "signed")
    p_b = _combined_tails(xbar, margin.theta1, margin.theta2,
                          posterior_coefficient(samp, prior), "sum")
    return _correlation_in_place(p_b, p_signed)


def _partial_c(samp: NormalSampling, margin: Optional[EquivalenceMargin],
               half_width: Optional[float]) -> float:
    """c = half-width sqrt(n) / sigma, from a margin or a bare half-width."""
    if (margin is None) == (half_width is None):
        raise ValueError("pass exactly one of margin or half_width")
    eps = margin.half_width if margin is not None else float(half_width)
    if eps < 0.0:
        raise ValueError(f"half_width must be nonnegative, got {eps}")
    return eps * samp.root_n / samp.sigma


def corr_partial_closed(samp: NormalSampling, margin: Optional[EquivalenceMargin] = None,
                        *, half_width: Optional[float] = None) -> CorrelationResult:
    """Correlation between the two one-sided p-values, in closed form.

    With c = half-width sqrt(n) / sigma and h = -c / sqrt 2 it is
    [Phi2(h, h; -1/2) - Phi(h)^2] / [Phi2(h, h; 1/2) - Phi(h)^2], which the
    arcsine-integral form of Phi2 turns into

        rho = -int_0^(pi/6) exp(-c^2 / (2 (1 - sin t))) dt
               / int_0^(pi/6) exp(-c^2 / (2 (1 + sin t))) dt,

    a ratio with nothing subtracted: exactly -1 at c = 0, where the tails
    are mirror images, and rising to 0 as the margin widens.  Each
    integrand's maximum, exp(-c^2/2) at t = 0 and exp(-c^2/3) at t = pi/6,
    is taken out first, so neither integral underflows; a fixed
    Gauss-Legendre rule evaluates what is left.  Pass either a margin or a
    bare ``half_width`` (the latter admits the degenerate width 0).
    """
    c = _partial_c(samp, margin, half_width)
    if c > _PARTIAL_C_ZERO:
        return CorrelationResult(0.0, "closed_form")
    k = 0.5 * c ** 2
    nodes, weights = gauss_legendre(_PARTIAL_NODES)
    s = np.sin((nodes + 1.0) * (math.pi / 12.0))  # sin t at the nodes t of [0, pi/6]
    # the covariance and variance integrals, each over its integrand's maximum
    cov = weights @ np.exp(-k * s / (1.0 - s))
    var = weights @ np.exp(-k * (1.0 - 2.0 * s) / (3.0 * (1.0 + s)))
    # 0.0 - x rather than -x: a ratio that underflows gives +0, not -0
    return CorrelationResult(0.0 - math.exp(-k / 3.0) * float(cov / var), "closed_form")


def corr_partial_pvalues(samp: NormalSampling, margin: Optional[EquivalenceMargin] = None,
                         *, half_width: Optional[float] = None,
                         draws: int = 1_000_000, seed: int = 0) -> CorrelationResult:
    """Monte Carlo correlation between the two one-sided p-values, the
    cross-check of :func:`corr_partial_closed`.

    Exactly -1 for a degenerate (zero-width) margin, where the tails are
    mirror images; for a positive half-width a seeded Monte Carlo estimate
    at the margin center is returned, with its standard error.  Pass either
    a margin or a bare ``half_width`` (the latter admits the degenerate
    width 0, which no margin can represent).
    """
    c = _partial_c(samp, margin, half_width)
    if c == 0.0:
        return CorrelationResult(-1.0, "closed_form")
    z = _standard_normal_draws(draws, seed)
    p_r = np.subtract(-c, z)  # Phi(-z - c)
    normal_cdf(p_r, out=p_r)
    z -= c
    return _correlation_in_place(p_r, normal_cdf(z, out=z))


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
    integrates over.  Both measures are taken as the tails Phi(-a z) and
    Phi(-b z): the signed two-sided forms 2 Phi(-.) are the same positive
    multiple of them, which changes neither the correlation nor its SE.
    At w = 1 both are the one indicator z < 0, so nothing is drawn and the
    closed form's exact 1 is returned.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must lie in (0, 1], got {w}")
    if w == 1.0:
        check_draws(draws)
        return corr_two_sided(w)
    # p_f = Phi(-a z) and p_b = Phi(-b z), the latter in the draws
    z = _standard_normal_draws(draws, seed)
    p_f = np.multiply(z, -1.0 / math.sqrt(1.0 - w))
    p_b = z
    p_b *= -math.sqrt(w / (1.0 - w))
    for p in (p_f, p_b):
        normal_cdf(p, out=p)
    return _correlation_in_place(p_b, p_f)
