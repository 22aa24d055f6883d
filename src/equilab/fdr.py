"""Multiple testing: step-up false-discovery-rate procedures over vectors of
evidence values, decision-table bookkeeping, and the FDR power simulation
for both evidence measures.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equivalence import EquivalenceMargin
from .normal import NormalPrior, NormalSampling, posterior_coefficient
from .rng import spawn_rng
from .special import SLICE_ELEMENTS, _acklam_quantile, normal_cdf

EVIDENCE_KINDS = ("frequentist", "bayesian")
SAMPLING_MODES = ("per_tail", "per_tail_literal", "shared")
COMBINATIONS = ("max", "difference")


@dataclass(frozen=True)
class DecisionTable:
    """Outcome counts for k hypotheses: U/V (true nulls kept/rejected),
    T/S (false nulls kept/rejected), with R = V+S rejections and W = k-R."""

    k: int
    k0: int
    V: int
    S: int

    def __post_init__(self):
        if not (0 <= self.k0 <= self.k and 0 <= self.V <= self.k0
                and 0 <= self.S <= self.k - self.k0):
            raise ValueError("inconsistent decision counts")

    @property
    def k1(self) -> int:
        return self.k - self.k0

    @property
    def R(self) -> int:
        return self.V + self.S

    @property
    def U(self) -> int:
        return self.k0 - self.V

    @property
    def T(self) -> int:
        return self.k1 - self.S

    @property
    def W(self) -> int:
        return self.k - self.R

    def fdp(self) -> float:
        """False discovery proportion V / max(R, 1); 0 with no rejections."""
        return self.V / max(self.R, 1)

    def power(self) -> float:
        """Proportion of false nulls rejected: (R - V) / max(k1, 1)."""
        return self.S / max(self.k1, 1)


def _first_ranks(p, alpha: float, k0, k: int) -> np.ndarray:
    """Each value's first passing rank: the least j in 1..k with
    p <= alpha j / k0, or k + 1 for none (elementwise, k0 broadcast).

    The guess ceil(p k0 / alpha) can round across an integer; one step down
    and one step up against the thresholds themselves settle it.
    """
    j = np.clip(np.ceil(p * k0 / alpha), 1, k + 1).astype(np.int64)
    j -= (j > 1) & (p <= alpha * (j - 1) / k0)
    j += (j <= k) & (p > alpha * j / k0)
    return j


def _deciding_counts(rank: np.ndarray) -> np.ndarray:
    """D per row of a (rows x k) matrix of first passing ranks.

    A value passes at every rank from its first on, D is the largest j at
    which at least j values pass (0 if none), and exactly D values pass
    there, so a row rejects ``rank <= D`` without sorting.
    """
    rows, k = rank.shape
    # passing[r, j - 1]: values of row r that pass at rank j (a bincount per row)
    offsets = (k + 2) * np.arange(rows)[:, np.newaxis]
    counts = np.bincount((rank + offsets).ravel(), minlength=rows * (k + 2))
    passing = np.cumsum(counts.reshape(rows, k + 2), axis=1)[:, 1:k + 1]
    qualifies = passing >= np.arange(1, k + 1)
    # the last qualifying rank, 0 where none qualifies
    return np.where(qualifies.any(axis=1), k - np.argmax(qualifies[:, ::-1], axis=1), 0)


def _plug_in_k0(k: int, above_lam: np.ndarray, lam: float) -> np.ndarray:
    """k0_hat = min(k, (1 + #{p > lam}) / (1 - lam)) from the counts above lam."""
    return np.minimum(float(k), (1.0 + above_lam) / (1.0 - lam))


def _step_up(p: np.ndarray, alpha: float, lam=None):
    """Row-wise step-up over a (rows x k) matrix of evidence values.

    Each row rejects its D smallest values, D = max{j : p_(j) <= alpha j / k0}
    (0 if no j qualifies), where k0 is k or, when ``lam`` is given, the
    plug-in k0_hat = min(k, (1 + #{p > lam}) / (1 - lam)).  Returns
    (rank, d, k0) per row: each value's first passing rank (k + 1 for none,
    see :func:`_first_ranks`), so a row rejects ``rank <= d``
    (:func:`_deciding_counts`), and the k0 used.  NaN is rejected with the
    values outside [0, 1].  The FDR simulation reaches the same ranks and D
    from partly evaluated evidence (:func:`_screened_step_up`).
    """
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError("need a non-empty 1-d vector of evidence values")
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("evidence values must lie in [0, 1]")
    rows, k = p.shape
    if lam is None:
        k0 = np.full(rows, float(k))
    else:
        k0 = _plug_in_k0(k, np.sum(p > lam, axis=1), lam)
    rank = _first_ranks(p, alpha, k0[:, np.newaxis], k)
    return rank, _deciding_counts(rank), k0


def bh_procedure(pvals: Sequence[float], alpha: float):
    """Step-up procedure: reject the D smallest values where
    D = max{j : p_(j) <= j alpha / k} (0 if no j qualifies).

    Tied values are rejected together.  Returns (D, rejected) with
    ``rejected`` the sorted array of rejected indices; indices ranked
    below a qualifying j are rejected even if their own inequality fails.
    """
    rank, d, _ = _step_up(np.asarray(pvals, dtype=float)[np.newaxis], alpha)
    return int(d[0]), np.flatnonzero(rank[0] <= d[0])


def adaptive_bh(pvals: Sequence[float], alpha: float, lam: float = 0.5):
    """Step-up procedure with a plug-in estimate of the number of true nulls.

    k0_hat = (1 + #{p_i > lam}) / (1 - lam), capped at k, replaces k in the
    thresholds; since k0_hat <= k the rejection set always contains the
    plain step-up one.  Returns (D, rejected, k0_hat).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    rank, d, k0 = _step_up(np.asarray(pvals, dtype=float)[np.newaxis], alpha, lam)
    return int(d[0]), np.flatnonzero(rank[0] <= d[0]), float(k0[0])


def score_decisions(rejected: Sequence[int], truth: Sequence[bool]) -> DecisionTable:
    """Tabulate rejections against ground truth (True = null is false)."""
    truth = np.asarray(truth, dtype=bool)
    rej = np.asarray(rejected, dtype=int)
    if rej.size and (rej.min() < 0 or rej.max() >= truth.size):
        raise ValueError("rejected indices out of range")
    k = int(truth.size)
    k0 = int(np.sum(~truth))
    v = int(np.sum(~truth[rej])) if rej.size else 0
    s = int(rej.size) - v
    return DecisionTable(k=k, k0=k0, V=v, S=s)


@dataclass(frozen=True)
class FdrExperiment:
    """One simulation sweep of the step-up procedure over a grid of k1.

    Each hypothesis carries one truth label; the two tails draw
    independent sample means centered at boundary +/- epsilon_star
    (alternatives) or at the boundary itself (nulls).  ``per_tail`` scales
    the noise as sigma/sqrt(n); ``per_tail_literal`` draws with sd sigma
    and skips the sqrt(n) standardization; ``shared`` drives both tails
    from a single mean drawn near one boundary, so the opposite tail feels
    the full margin width.
    """

    k: int
    k1_grid: Sequence[int]
    n: int
    margin: EquivalenceMargin
    sigma: float
    tau: float
    epsilon_star: float
    alpha: float
    reps: int
    seed: int
    evidence: str = "frequentist"
    sampling: str = "per_tail"
    combination: str = "max"
    adaptive: bool = False
    storey_lambda: float = 0.5

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.reps < 1:
            raise ValueError("k, n and reps must be positive")
        if any(not 0 <= k1 <= self.k for k1 in self.k1_grid):
            raise ValueError("every k1 must lie in [0, k]")
        if self.sigma <= 0 or self.tau <= 0:
            raise ValueError("sigma and tau must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.epsilon_star <= 0:
            raise ValueError("epsilon_star must be positive")
        if not 0 < self.storey_lambda < 1:
            raise ValueError(f"storey_lambda must lie in (0, 1), got {self.storey_lambda}")
        if self.margin.theta1 + self.epsilon_star >= self.margin.theta2 - self.epsilon_star:
            raise ValueError("epsilon_star too large for the margin")
        if self.evidence not in EVIDENCE_KINDS:
            raise ValueError(f"evidence must be one of {EVIDENCE_KINDS}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.combination not in COMBINATIONS:
            raise ValueError(f"combination must be one of {COMBINATIONS}")


@dataclass(frozen=True)
class FdrPoint:
    """Averages over replications at one k1 grid point."""

    k1: int
    mean_power: float
    mean_fdr: float
    se_power: float
    se_fdr: float


def _tail_z_stats(exp: FdrExperiment, truth: np.ndarray, rngs) -> tuple:
    """Standardized per-tail statistics, one row per replication stream."""
    t1, t2 = exp.margin.theta1, exp.margin.theta2
    first = np.empty((len(rngs), exp.k))
    second = np.empty_like(first)
    shared = exp.sampling == "shared"
    for rng, row_1, row_2 in zip(rngs, first, second):
        (rng.random if shared else rng.standard_normal)(out=row_1)
        rng.standard_normal(out=row_2)
    if shared:
        # one latent mean per hypothesis; nulls sit on a randomly chosen boundary
        boundary = np.where(first < 0.5, t1, t2)
        theta = np.where(truth, t1 + exp.epsilon_star, boundary)
        xbar = theta + exp.sigma / math.sqrt(exp.n) * second
        z_r = math.sqrt(exp.n) * (xbar - t1) / exp.sigma
        z_l = math.sqrt(exp.n) * (xbar - t2) / exp.sigma
        return z_r, z_l
    mu_r = np.where(truth, t1 + exp.epsilon_star, t1)
    mu_l = np.where(truth, t2 - exp.epsilon_star, t2)
    if exp.sampling == "per_tail":
        sd = exp.sigma / math.sqrt(exp.n)
        scale = math.sqrt(exp.n) / exp.sigma
    else:  # per_tail_literal
        sd = exp.sigma
        scale = 1.0 / exp.sigma
    x_r = mu_r + sd * first
    x_l = mu_l + sd * second
    return scale * (x_r - t1), scale * (x_l - t2)


def _combine_evidence(exp: FdrExperiment, p_r: np.ndarray, p_l: np.ndarray) -> np.ndarray:
    """The evidence value from its two one-sided tail values."""
    if exp.evidence == "bayesian":
        return np.clip(p_r + p_l, 0.0, 1.0)
    if exp.combination == "max":
        return np.maximum(p_r, p_l)
    return np.abs(p_l - p_r)


# z margin of the screen: a tail whose z lies within it of a cutoff is
# evaluated, so neither the rounding of normal_cdf nor the error of the
# quantile approximation (below 1e-8 in z) ever decides.  It moves a tail
# value by a relative 1e-3 or more, but the right tail 1 - normal_cdf(z)
# carries an absolute rounding error near 1e-15, so thresholds below
# _SCREEN_FLOOR (a move of 1e-11 or less) are not screened.
_Z_SLACK = 1e-3
_SCREEN_FLOOR = 1e-9


def _z_cutoff(t, side):
    """q(t) + side * slack elementwise, q the normal quantile: a tail whose
    z lies beyond it (side +1: above, -1: below) is certainly above t (at or
    below t).  +-inf where nothing is settled: t >= 1, or t under the floor."""
    settled = (_SCREEN_FLOOR <= t) & (t < 1.0)
    z = _acklam_quantile(np.where(settled, t, 0.5)) + side * _Z_SLACK
    return np.where(settled, z, side * math.inf)[()]


def _screen_cutoffs(exp: FdrExperiment):
    """The screen's z cutoffs, once per experiment: (at_lam, k0, table).

    ``k0`` holds every k0 a row can use: _plug_in_k0(k, 0..k, lam), indexed
    by the row's count above lam, or k alone without lam.  Column j of
    ``table`` is the (low, high) pair of alpha / k0[j] and alpha k / k0[j],
    ``at_lam`` that of lam (None without lam); every pair of the unscreened
    ``difference`` is (-inf, inf).
    """
    factor = 2.0 if exp.evidence == "bayesian" else 1.0
    lam = exp.storey_lambda
    k0 = (_plug_in_k0(exp.k, np.arange(exp.k + 1), lam) if exp.adaptive
          else np.full(1, float(exp.k)))
    t_low, t_high = np.append(lam, exp.alpha / k0), np.append(lam, exp.alpha * exp.k / k0)
    sides = np.array([[-1.0], [1.0]])
    pairs = _z_cutoff(np.stack((t_low / factor, t_high)), sides)  # column 0 at lam
    if exp.evidence != "bayesian" and exp.combination != "max":
        pairs = np.broadcast_to(sides * math.inf, pairs.shape)
    return (pairs[:, 0] if exp.adaptive else None), k0, pairs[:, 1:]


def _screened_step_up(exp: FdrExperiment, z_r: np.ndarray, z_l: np.ndarray,
                      shrink: float, cutoffs):
    """(rank, d) of :func:`_step_up` on one block's evidence matrix, with the
    evidence evaluated only where a z cutoff cannot settle it.

    With u_r = -shrink z_r and u_l = shrink z_l the tail values are
    Phi(u_r) and Phi(u_l) up to rounding.  The evidence is at least its
    larger tail, at u = max(u_r, u_l), and at most ``factor`` times it (1
    for the max, 2 for the clipped sum), so it is certainly above t for
    u > q(t) + slack and at or below t for u < q(t / factor) - slack.  The
    |p_l - p_r| of ``difference`` has no lower bound: its band is everything.
    """
    rows, k = z_r.shape
    u = np.maximum(-z_r, z_l)
    u *= shrink  # shrink > 0: the max of the scaled values, bit for bit
    p = np.full((rows, k), np.nan)  # the exact evidence, filled where needed

    def screen(lo, hi):
        """The mask of values certainly above their row's high threshold and
        the flat indices of the band: neither that nor certainly at or below the low one."""
        above = u > hi
        return above, np.flatnonzero((u >= lo) & ~above)

    def exact(band):
        todo = band[np.isnan(p.take(band))]
        cdf = normal_cdf(shrink * np.concatenate((z_r.take(todo), z_l.take(todo))))
        p.put(todo, _combine_evidence(exp, 1.0 - cdf[:todo.size], cdf[todo.size:]))
        return p.take(band)

    at_lam, k0, table = cutoffs
    count = np.zeros(rows, dtype=np.intp)  # each row's index into k0 and table
    if at_lam is not None:
        above, band = screen(*at_lam)
        np.put(above, band, exact(band) > exp.storey_lambda)
        count = np.sum(above, axis=1)
    above, band = screen(*table[:, count, np.newaxis])
    rank = np.where(above, k + 1, 1)
    np.put(rank, band, _first_ranks(exact(band), exp.alpha, k0[count][band // k], k))
    return rank, _deciding_counts(rank)


def fdr_power_simulation(exp: FdrExperiment):
    """Average step-up power and FDR across the k1 grid.

    Streams derive from (seed, k1-index, replication-index), so results are
    reproducible and identical under any work scheduling; running the same
    seed with the other evidence kind reuses the very same draws, giving
    paired comparisons.  Replications run in blocks of up to
    ``SLICE_ELEMENTS // k`` rows, each row filled from its own stream, so
    a block is one row-wise step-up.

    A rank depends on p only through p <= alpha j / k0, so a value above
    the largest threshold never ranks and one at or below the smallest has
    rank 1; the exact p matters only in the band between (and, adaptively,
    near lam).  Each tail value is monotone in its z, so z cutoffs at the
    normal quantiles of those thresholds, widened by a z slack far beyond
    any rounding and computed once per experiment (:func:`_screen_cutoffs`),
    settle every value outside the band (:func:`_screened_step_up`).  The
    values inside are evaluated with the expressions of the full evaluation,
    in one gathered normal_cdf call per stage
    (erfc works elementwise, so they are bit-identical), and ranked exactly:
    every result equals that of the full evaluation.
    """
    block = max(1, SLICE_ELEMENTS // exp.k)
    cutoffs = _screen_cutoffs(exp)
    shrink = 1.0  # the factor on z inside the tail values
    if exp.evidence == "bayesian":
        samp = NormalSampling(sigma=exp.sigma, n=exp.n)
        shrink = posterior_coefficient(samp, NormalPrior(exp.tau)) * exp.sigma / math.sqrt(exp.n)
    results = []
    for k1_idx, k1 in enumerate(exp.k1_grid):
        truth = np.zeros(exp.k, dtype=bool)
        truth[:k1] = True
        powers = np.empty(exp.reps)
        fdps = np.empty(exp.reps)
        for start in range(0, exp.reps, block):
            reps = range(start, min(start + block, exp.reps))
            z_r, z_l = _tail_z_stats(exp, truth, [spawn_rng(exp.seed, k1_idx, rep)
                                                  for rep in reps])
            rank, d = _screened_step_up(exp, z_r, z_l, shrink, cutoffs)
            # S: rejected false nulls, the first k1 hypotheses
            s = np.sum(rank[:, :k1] <= d[:, np.newaxis], axis=1)
            powers[reps.start:reps.stop] = s / max(k1, 1)
            fdps[reps.start:reps.stop] = (d - s) / np.maximum(d, 1)
        results.append(FdrPoint(
            k1=int(k1),
            mean_power=float(powers.mean()),
            mean_fdr=float(fdps.mean()),
            se_power=float(powers.std() / math.sqrt(exp.reps)),
            se_fdr=float(fdps.std() / math.sqrt(exp.reps)),
        ))
    return results
