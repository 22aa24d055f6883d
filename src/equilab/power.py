"""Power analysis: exact CDF and power curves for both evidence measures,
maximum-power parameter search, and the simulation-table protocol.  A
single level or parameter is a one-point grid of the curve functions.
The binomial studies take a :class:`CurveSpec`; :func:`normal_curves` takes
the normal model's ``NormalSampling`` and ``NormalPrior``.

Binomial quantities are exact; Monte Carlo appears only where it mirrors a
simulation protocol (and then against seeded, replayable streams).  The
evidence vectors and rejection regions are built once per curve over the
support s = 0..n, the posterior vector by
:func:`~equilab.beta_binomial.posterior_values`.  Both tests reject on an interval of counts {C..D} (the p-value's
by its monotone tails, the posterior's by total positivity; see
:func:`_reject_regions`), so a power curve or an exact table rate is
P_theta(C <= T <= D) over the whole grid, one kernel call for every region
of a curve (:func:`~equilab.special.binomial_interval_prob`).  Decision rules:

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
from .normal import NormalPrior, NormalSampling, normal_pvalue_cdf, _posterior_evidence
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


def _reject_regions(spec: CurveSpec):
    """Rejection regions as count intervals (C, D), empty when C > D:
    (frequentist, Bayesian or None without a prior).

    The Beta(p+s, q+n-s) posterior density is (theta / (1-theta))^s
    theta^(p-1) (1-theta)^(q+n-1) up to a factor in s, a totally positive
    kernel in (s, theta).  By the variation-diminishing property (S. Karlin,
    Total Positivity, 1968) P(theta1 < theta < theta2 | s) - (1 - t) changes
    sign at most twice, and then as - + -, so {pb <= t} is one run of counts.
    """
    region_b = None
    if spec.prior is not None:
        pb = posterior_values(spec.n, spec.margin, spec.prior)
        counts = np.flatnonzero(pb <= bayes_combined_level(spec.levels))
        region_b = (int(counts[0]), int(counts[-1])) if counts.size else (0, -1)
    return binom_critical_constants(spec.n, spec.margin, spec.levels), region_b


def _power_arrays(spec: CurveSpec, thetas):
    """Exact rejection probability of each measure at each theta (NaN for
    the Bayesian one without a prior)."""
    regions = [region for region in _reject_regions(spec) if region is not None]
    y = binomial_interval_prob(spec.n, *np.transpose(regions), thetas)
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


def _argmax_toward_center(thetas: np.ndarray, values: np.ndarray,
                          tie_tol: float = 1e-12) -> float:
    """Grid argmax; ties (within tie_tol) resolve toward 0.5, then smaller theta."""
    top = values.max()
    tied = thetas[values >= top - tie_tol]
    order = np.lexsort((tied, np.abs(tied - 0.5)))
    return float(tied[order[0]])


def theta_max(spec: CurveSpec, resolution: float = 1e-3):
    """Grid search for the power-maximizing parameter of each measure.

    Returns (theta_f, theta_b); theta_b is NaN when the spec carries no
    prior.  The grid is i * resolution for i = 1 .. ceil(1/resolution)-1;
    resolution lies in [1e-5, 1e-3] (1e-6 takes 0.9 GB at n = 300).
    """
    if not 1e-5 <= resolution <= 1e-3:
        raise ValueError(f"resolution must lie in [1e-5, 1e-3], got {resolution}")
    steps = int(math.ceil(1.0 / resolution))
    thetas = np.arange(1, steps) * resolution
    thetas = thetas[(thetas > 0.0) & (thetas < 1.0)]
    y_f, y_b = _power_arrays(spec, thetas)
    theta_f = _argmax_toward_center(thetas, y_f)
    if spec.prior is None:
        return theta_f, math.nan
    return theta_f, _argmax_toward_center(thetas, y_b)


def normal_curves(samp: NormalSampling, prior: Optional[NormalPrior],
                  margin: EquivalenceMargin, theta: float, grid: Sequence[float],
                  mc_reps: int = 100_000, seed: int = 0):
    """Evidence-CDF curve of the normal model at the true mean theta across
    the t-grid.

    The p-value CDF is analytic; the posterior-measure CDF is a seeded
    Monte Carlo estimate (mc_reps draws of the sample mean at theta), and
    NaN at every t when prior is None.
    """
    if mc_reps < 1:
        raise ValueError(f"mc_reps must be positive, got {mc_reps}")
    grid = _check_grid(grid)
    y_b = np.full(grid.shape, math.nan)
    if prior is not None:
        xbar = spawn_rng(seed, 0).standard_normal(mc_reps)
        xbar *= samp.sigma / math.sqrt(samp.n)
        xbar += theta
        pb = _posterior_evidence(samp, prior, xbar, margin)
        pb.sort()
        y_b = np.searchsorted(pb, grid, side="right") / mc_reps  # the share at or below t
    y_f = normal_pvalue_cdf(samp, theta, margin, grid)
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
    region_f, region_b = _reject_regions(spec)
    c, d = region_f if region_b is None else region_b
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
