"""Power analysis: exact CDF and power curves for both evidence measures,
the power-maximizing parameter and the exact size over the whole null, and
the simulation-table protocol.  A single level or parameter is a
one-point grid of the curve functions.
The binomial studies take a :class:`CurveSpec`; :func:`normal_curves` takes
the normal model's ``NormalSampling`` and ``NormalPrior``.

Every curve is exact; Monte Carlo appears only where it mirrors a
simulation protocol (and then against seeded, replayable streams).  The
evidence vectors and rejection regions are built once per curve over the
support s = 0..n, the posterior vector by
:func:`~equilab.beta_binomial.posterior_values`; a study builds only the
regions it reads.  Both tests reject on an interval of counts {C..D} (the
p-value's by its monotone tails, the posterior's because it falls and then
rises in s; see :func:`_bayes_region`), so a power curve or an exact table
rate is P_theta(C <= T <= D) over the whole grid, one kernel call for every
region of a curve (:func:`~equilab.special.binomial_interval_prob`).  The
power of a count interval is unimodal with a closed-form maximizer
(:func:`_maximizer`), so :func:`theta_max` evaluates it only from the grid
points around that peak toward 0.5 and :func:`exact_size` only at theta1,
theta2 and the peak.  Decision rules:

* frequentist evidence rejects when each one-sided p-value is at or below
  its own tail level (for equal tails this is "max p-value <= alpha");
* Bayesian evidence rejects when the combined posterior probability of
  non-equivalence is at or below the mean of the two tail levels (which
  reduces to alpha when the tails agree).
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .beta_binomial import BetaPrior, posterior_values
from .equivalence import (EquivalenceMargin, SignificanceLevels, _pvalue_tails,
                          binom_critical_constants)
from .normal import NormalPrior, NormalSampling, _posterior_cdf, normal_pvalue_cdf
from .rng import spawn_rng
from .special import binomial_interval_prob, binomial_pmf_vector


def _check_grid(grid) -> np.ndarray:
    """The grid as a float array, refused unless strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class CurveSpec:
    """One binomial study: n, margin, optional Beta prior (None leaves the
    Bayesian column NaN), tail levels, grid and the CDF curve's true theta."""

    n: int
    margin: EquivalenceMargin
    prior: Optional[BetaPrior] = None
    levels: SignificanceLevels = field(default_factory=SignificanceLevels)
    grid: Sequence[float] = ()
    theta_true: float = 0.5

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        _check_grid(self.grid)


@dataclass(frozen=True)
class CurvePoint:
    """One evaluated grid point with both measures' values."""

    x: float
    y_frequentist: float
    y_bayes: float


@dataclass(frozen=True)
class TableResult:
    """Monte Carlo and exact-enumeration type I / power rates for one config."""

    mc_type1: float
    mc_power: float
    exact_type1: float
    exact_power: float
    reps: int


def binom_evidence_values(n: int, margin: EquivalenceMargin,
                          prior: Optional[BetaPrior] = None):
    """Evidence value per success count s = 0..n.

    Returns (pf, pb): combined p-values and, when a prior is supplied,
    combined posterior probabilities (otherwise None).
    """
    upper, lower = _pvalue_tails(n, margin)
    return (np.maximum(upper, lower),
            None if prior is None else posterior_values(n, margin, prior))


def bayes_combined_level(levels: SignificanceLevels) -> float:
    """Threshold for the combined posterior rule: the mean of the tail levels."""
    return 0.5 * (levels.alpha_upper + levels.alpha_lower)


def _bayes_region(spec: CurveSpec):
    """The Bayesian rejection region as a count interval (C, D), empty when
    C > D; the spec must carry a prior.

    From the chain of :func:`~equilab.beta_binomial.posterior_values`,
    pb(s+1) - pb(s) = g_s(theta2) - g_s(theta1), and g_s(theta2) / g_s(theta1)
    = (theta2/theta1)^(p+s) ((1-theta2)/(1-theta1))^(q+n-s-1) rises strictly
    with s.  So pb falls and then rises, and every {pb <= t} is one run of
    counts.
    """
    pb = posterior_values(spec.n, spec.margin, spec.prior)
    counts = np.flatnonzero(pb <= bayes_combined_level(spec.levels))
    return (int(counts[0]), int(counts[-1])) if counts.size else (0, -1)


def _reject_regions(spec: CurveSpec):
    """Rejection regions as count intervals (C, D), empty when C > D: the
    frequentist one, then the Bayesian one when the spec carries a prior."""
    regions = [binom_critical_constants(spec.n, spec.margin, spec.levels)]
    return regions if spec.prior is None else regions + [_bayes_region(spec)]


def _power_arrays(spec: CurveSpec, thetas):
    """Exact rejection probability of each measure at each theta (NaN for
    the Bayesian one without a prior)."""
    y = binomial_interval_prob(spec.n, *np.transpose(_reject_regions(spec)), thetas)
    return y[0], (y[1] if len(y) > 1 else np.full(np.shape(thetas), math.nan))


def binom_cdf_curve(spec: CurveSpec):
    """Exact P_theta(measure <= t) at theta_true for each t of the grid."""
    pf, pb = binom_evidence_values(spec.n, spec.margin, spec.prior)
    pmf = binomial_pmf_vector(spec.n, spec.theta_true)
    return [CurvePoint(float(t), float(pmf @ (pf <= t)),
                       math.nan if pb is None else float(pmf @ (pb <= t)))
            for t in spec.grid]


def binom_power_curve(spec: CurveSpec):
    """Exact rejection probability at each parameter theta of the grid."""
    y_f, y_b = _power_arrays(spec, spec.grid)
    return [CurvePoint(float(theta), float(f), float(b))
            for theta, f, b in zip(spec.grid, y_f, y_b)]


TIE_TOL = 1e-12  # grid powers this close to the top tie


def _argmax_toward_center(thetas: np.ndarray, values: np.ndarray) -> float:
    """Grid argmax; ties (within TIE_TOL) resolve toward 0.5, then smaller theta."""
    tied = thetas[values >= values.max() - TIE_TOL]
    order = np.lexsort((tied, np.abs(tied - 0.5)))
    return float(tied[order[0]])


def _maximizer(n: int, c: int, d: int) -> float:
    """The theta that maximizes P_theta(c <= T <= d) for T ~ Bin(n, theta).

    With b(j; m, theta) the Bin(m, theta) PMF, the derivative is
    n [b(c-1; n-1, theta) - b(d; n-1, theta)].  For 1 <= c <= d <= n-1 the
    ratio of its terms, C(n-1, c-1) / C(n-1, d) (theta / (1-theta))^(c-1-d),
    strictly decreases, so the power has one maximizer, where the ratio is 1:
    logit theta* = (log C(n-1, c-1) - log C(n-1, d)) / (d - c + 1).  A region
    from count 0 (c <= 0) has falling power, peaked at 0; one up to count n
    (d >= n) rising power, peaked at 1; an empty one (c > d) power 0, taken
    as peaked at 0.5.
    """
    if c > d:
        return 0.5
    if c <= 0:
        return 0.0
    if d >= n:
        return 1.0
    log_ratio = (math.lgamma(d + 1) + math.lgamma(n - d)
                 - math.lgamma(c) - math.lgamma(n - c + 1))
    return 1.0 / (1.0 + math.exp(-log_ratio / (d - c + 1)))


def _tied_point(n: int, c: int, d: int, thetas: np.ndarray) -> float:
    """:func:`_argmax_toward_center` of P_theta(c <= T <= d) on the grid
    thetas, from a segment of it.

    The power is unimodal (:func:`_maximizer`): its grid maximum is at one of
    the two points around theta*, the points tied with it form one run, and
    the answer is that run's end nearest 0.5, or 0.5's own point.  The segment
    holds those two points (the grid's end for a monotone region) and, unless
    0.5's point is among them, one more toward 0.5; while its end toward 0.5
    is tied, that end grows by the segment's width, up to 0.5's point.  An
    empty region (power 0) or the whole support (power 1) answers 0.5's
    point with no kernel call.
    """
    half = int(np.argmin(np.abs(thetas - 0.5)))  # the first of equidistant points
    if c > d or (c <= 0 and d >= n):
        return float(thetas[half])
    j = int(np.searchsorted(thetas, _maximizer(n, c, d)))
    lo, hi = max(j - 1, 0), min(j, thetas.size - 1)
    if hi < half:
        hi += 1
    elif lo > half:
        lo -= 1
    while True:
        v = binomial_interval_prob(n, c, d, thetas[lo:hi + 1])
        floor = v.max() - TIE_TOL
        if hi < half and v[-1] >= floor:
            hi = min(hi + (hi - lo + 1), half)
        elif lo > half and v[0] >= floor:
            lo = max(lo - (hi - lo + 1), half)
        else:
            return _argmax_toward_center(thetas[lo:hi + 1], v)


def theta_max(spec: CurveSpec, resolution: float = 1e-3):
    """The power-maximizing parameter of each measure on the grid
    i * resolution, i = 1 .. ceil(1/resolution)-1, resolution in
    [1e-5, 1e-3]: the grid argmax of the exact power, ties within
    ``TIE_TOL`` of the top resolved toward 0.5, then toward the smaller
    theta.

    Returns (theta_f, theta_b); theta_b is NaN when the spec carries no
    prior.  Each region is searched on its own, from its peak toward 0.5
    (:func:`_tied_point`): one kernel call of at most 3 points unless the
    top is flat or the region monotone.  Such a region can still evaluate
    much of the grid, so the resolution stays at or above 1e-5.
    """
    if not 1e-5 <= resolution <= 1e-3:
        raise ValueError(f"resolution must lie in [1e-5, 1e-3], got {resolution}")
    steps = int(math.ceil(1.0 / resolution))
    thetas = np.arange(1, steps) * resolution
    thetas = thetas[(thetas > 0.0) & (thetas < 1.0)]
    answers = [_tied_point(spec.n, c, d, thetas) for c, d in _reject_regions(spec)]
    return answers[0], (answers[1] if len(answers) > 1 else math.nan)


def exact_size(spec: CurveSpec):
    """Exact size of each measure's test: the supremum of its rejection
    probability over the whole null {theta <= theta1} and {theta >= theta2}.

    Returns (size_f, size_b); size_b is NaN when the spec carries no prior.
    The power is unimodal with its peak at theta* (:func:`_maximizer`), so
    the supremum over each side of the null is the power at the side's
    point nearest theta*: max(P(theta1), P(theta2)) when theta* lies in
    [theta1, theta2], P(theta*) when it lies outside, 1 when a monotone
    region reaches the end of the support on the null side and 0 for an
    empty region; one kernel call at {theta1, theta2, theta*}.
    """
    theta1, theta2 = spec.margin.theta1, spec.margin.theta2
    regions = _reject_regions(spec)
    peaks = [_maximizer(spec.n, c, d) for c, d in regions]
    points = np.array([theta1, theta2] + peaks)
    values = binomial_interval_prob(spec.n, *np.transpose(regions), points)
    sizes = [float(max(row[2 + k] if peak < theta1 else row[0],
                       row[2 + k] if peak > theta2 else row[1]))
             for k, (row, peak) in enumerate(zip(values, peaks))]
    return sizes[0], (sizes[1] if len(sizes) > 1 else math.nan)


def normal_curves(samp: NormalSampling, prior: Optional[NormalPrior],
                  margin: EquivalenceMargin, theta: float, grid: Sequence[float]):
    """Exact evidence-CDF curves of the normal model at the true mean theta
    across the t-grid: each measure's probability of its level-t interval of
    the sample mean; the posterior one is NaN at every t when prior is None.
    """
    grid = _check_grid(grid)
    y_f = normal_pvalue_cdf(samp, theta, margin, grid)
    y_b = (np.full(grid.shape, math.nan) if prior is None
           else _posterior_cdf(samp, prior, margin, theta, grid))
    return [CurvePoint(float(t), float(f), float(b)) for t, f, b in zip(grid, y_f, y_b)]


def table_simulation(spec: CurveSpec, reps: int, seed: int,
                     theta_alt: float = 0.4) -> TableResult:
    """Monte Carlo type I error (at the lower LFC) and power (at theta_alt).

    Follows the seeded-replication protocol with the deterministic
    decision rule at the spec's levels; the exact enumeration values are
    returned alongside so simulation noise can be checked directly.
    """
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    if not 0.0 <= theta_alt <= 1.0:
        raise ValueError(f"theta_alt must lie in [0, 1], got {theta_alt}")
    c, d = (binom_critical_constants(spec.n, spec.margin, spec.levels) if spec.prior is None
            else _bayes_region(spec))
    s_null = spawn_rng(seed, 0).binomial(spec.n, spec.margin.theta1, size=reps)
    s_alt = spawn_rng(seed, 1).binomial(spec.n, theta_alt, size=reps)
    exact_type1, exact_power = binomial_interval_prob(spec.n, c, d,
                                                      (spec.margin.theta1, theta_alt))
    return TableResult(
        mc_type1=float(np.mean((c <= s_null) & (s_null <= d))),
        mc_power=float(np.mean((c <= s_alt) & (s_alt <= d))),
        exact_type1=float(exact_type1),
        exact_power=float(exact_power),
        reps=reps,
    )
