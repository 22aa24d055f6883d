"""Power analysis: exact CDF and power curves for both evidence measures,
maximum-power parameter search, and the simulation-table protocol.

Binomial quantities are computed by exact enumeration over the support
s = 0..n; Monte Carlo appears only where it mirrors a simulation protocol
(and then against seeded, replayable streams).  Decision rules:

* frequentist evidence rejects when each one-sided p-value is at or below
  its own tail level (for equal tails this is "max p-value <= alpha");
* Bayesian evidence rejects when the combined posterior probability of
  non-equivalence is at or below the mean of the two tail levels (which
  reduces to alpha when the tails agree).
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .beta_binomial import BetaPrior, posterior_update, posterior_prob_equiv
from .equivalence import EquivalenceMargin, SignificanceLevels, _check_binom_margin
from .normal import NormalPrior, NormalSampling, normal_pvalue_cdf, \
    _posterior_tail_values
from .rng import spawn_rng
from .special import binomial_pmf_vector, binomial_tail_vectors

MODELS = ("binomial", "normal")


@dataclass(frozen=True)
class CurveSpec:
    """One curve configuration: model, design, margin, prior and grid."""

    model: str
    n: int
    margin: EquivalenceMargin
    prior: Optional[Union[BetaPrior, NormalPrior]] = None
    levels: SignificanceLevels = field(default_factory=SignificanceLevels)
    grid: Sequence[float] = ()
    theta_true: float = 0.5
    sigma: float = 1.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        g = np.asarray(self.grid, dtype=float)
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")


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


def _pvalue_tails(n: int, margin: EquivalenceMargin):
    """One-sided p-values per count: P_theta1(T >= s) and P_theta2(T <= s)."""
    _check_binom_margin(margin)
    upper = binomial_tail_vectors(n, margin.theta1)[1]
    lower = binomial_tail_vectors(n, margin.theta2)[0]
    return upper, lower


def _posterior_values(n: int, margin: EquivalenceMargin,
                      prior: Optional[BetaPrior]) -> Optional[np.ndarray]:
    if prior is None:
        return None
    return np.array([posterior_prob_equiv(posterior_update(prior, n, s), margin).value
                     for s in range(n + 1)])


def binom_evidence_values(n: int, margin: EquivalenceMargin,
                          prior: Optional[BetaPrior] = None):
    """Evidence value per success count s = 0..n.

    Returns (pf, pb): combined p-values and, when a prior is supplied,
    combined posterior probabilities (otherwise None).
    """
    upper, lower = _pvalue_tails(n, margin)
    return np.maximum(upper, lower), _posterior_values(n, margin, prior)


def bayes_combined_level(levels: SignificanceLevels) -> float:
    """Threshold for the combined posterior rule: the mean of the tail levels."""
    return 0.5 * (levels.alpha_upper + levels.alpha_lower)


def _reject_masks(spec: CurveSpec):
    """Rejection masks over s = 0..n: (frequentist, Bayesian or None)."""
    upper, lower = _pvalue_tails(spec.n, spec.margin)
    mask_f = (upper <= spec.levels.alpha_upper) & (lower <= spec.levels.alpha_lower)
    pb = _posterior_values(spec.n, spec.margin, spec.prior)
    mask_b = None if pb is None else pb <= bayes_combined_level(spec.levels)
    return mask_f, mask_b


def _require_model(spec: CurveSpec, model: str, name: str) -> None:
    if spec.model != model:
        raise ValueError(f"{name} needs a {model} CurveSpec")


def _point(x: float, pmf: np.ndarray, sel_f: np.ndarray, sel_b) -> CurvePoint:
    """Probability under pmf of each measure's selected counts."""
    y_b = float(pmf @ sel_b) if sel_b is not None else math.nan
    return CurvePoint(x, float(pmf @ sel_f), y_b)


def binom_cdf_curve(spec: CurveSpec):
    """Exact P_theta(measure <= t) at theta_true for each t of the grid."""
    _require_model(spec, "binomial", "binom_cdf_curve")
    pf, pb = binom_evidence_values(spec.n, spec.margin, spec.prior)
    pmf = binomial_pmf_vector(spec.n, spec.theta_true)
    return [_point(float(t), pmf, pf <= t, None if pb is None else pb <= t)
            for t in spec.grid]


def binom_power_curve(spec: CurveSpec):
    """Exact rejection probability at each parameter theta of the grid."""
    _require_model(spec, "binomial", "binom_power_curve")
    mask_f, mask_b = _reject_masks(spec)
    return [_point(float(theta), binomial_pmf_vector(spec.n, float(theta)), mask_f, mask_b)
            for theta in spec.grid]


def binom_measure_cdf(spec: CurveSpec, t: float) -> CurvePoint:
    """Exact P_theta(measure <= t) at theta_true, for both measures."""
    return binom_cdf_curve(replace(spec, grid=(t,)))[0]


def binom_power(spec: CurveSpec, theta: float) -> CurvePoint:
    """Exact rejection probability at parameter theta, for both measures."""
    return binom_power_curve(replace(spec, grid=(theta,)))[0]


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
    prior.  The grid is i * resolution for i = 1 .. ceil(1/resolution)-1.
    """
    _require_model(spec, "binomial", "theta_max")
    if not 0.0 < resolution <= 1e-3:
        raise ValueError(f"resolution must lie in (0, 1e-3], got {resolution}")
    steps = int(math.ceil(1.0 / resolution))
    thetas = np.arange(1, steps) * resolution
    thetas = thetas[(thetas > 0.0) & (thetas < 1.0)]
    points = binom_power_curve(replace(spec, grid=thetas))
    theta_f = _argmax_toward_center(thetas, np.array([p.y_frequentist for p in points]))
    if spec.prior is None:
        return theta_f, math.nan
    return theta_f, _argmax_toward_center(thetas, np.array([p.y_bayes for p in points]))


def normal_curves(spec: CurveSpec, mc_reps: int = 100_000, seed: int = 0):
    """Evidence-CDF curve for the normal model across the t-grid.

    The p-value CDF is analytic; the posterior-measure CDF is a seeded
    Monte Carlo estimate (mc_reps draws of the sample mean at theta_true).
    """
    _require_model(spec, "normal", "normal_curves")
    if mc_reps < 1:
        raise ValueError(f"mc_reps must be positive, got {mc_reps}")
    samp = NormalSampling(sigma=spec.sigma, n=spec.n)
    points = []
    pb = None
    if spec.prior is not None:
        if not isinstance(spec.prior, NormalPrior):
            raise ValueError("normal model requires a NormalPrior")
        rng = spawn_rng(seed, 0)
        xbar = spec.theta_true + spec.sigma / math.sqrt(spec.n) * \
            rng.standard_normal(mc_reps)
        up, lo = _posterior_tail_values(samp, spec.prior, xbar, spec.margin)
        pb = np.clip(up + lo, 0.0, 1.0)
    for t in spec.grid:
        y_f = normal_pvalue_cdf(samp, spec.theta_true, spec.margin, float(t))
        y_b = float(np.mean(pb <= t)) if pb is not None else math.nan
        points.append(CurvePoint(float(t), y_f, y_b))
    return points


def table_simulation(spec: CurveSpec, reps: int, seed: int,
                     theta_alt: float = 0.4) -> TableResult:
    """Monte Carlo type I error (at the lower LFC) and power (at theta_alt).

    Follows the seeded-replication protocol with the deterministic
    decision rule at the spec's levels; the exact enumeration values are
    returned alongside so simulation noise can be checked directly.
    """
    _require_model(spec, "binomial", "table_simulation")
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    mask_f, mask_b = _reject_masks(spec)
    mask = mask_f if mask_b is None else mask_b
    s_null = spawn_rng(seed, 0).binomial(spec.n, spec.margin.theta1, size=reps)
    s_alt = spawn_rng(seed, 1).binomial(spec.n, theta_alt, size=reps)
    return TableResult(
        mc_type1=float(np.mean(mask[s_null])),
        mc_power=float(np.mean(mask[s_alt])),
        exact_type1=float(binomial_pmf_vector(spec.n, spec.margin.theta1) @ mask),
        exact_power=float(binomial_pmf_vector(spec.n, theta_alt) @ mask),
        reps=reps,
    )
