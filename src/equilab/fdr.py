"""Multiple testing: step-up false-discovery-rate procedures over vectors of
evidence values, with D from each row's sorted first passing ranks,
decision-table bookkeeping, and the FDR power simulation for both evidence
measures, which draws the replications of each k1 grid point in order from
one numpy stream and decides each from the values its z cutoffs cannot
settle, the values near the Storey lambda among them, evaluated in one
evidence call per batch of blocks.
"""

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equivalence import EquivalenceMargin
from .normal import NormalPrior, NormalSampling, _tail_evidence, posterior_coefficient
from .rng import spawn_rng
from .special import SLICE_ELEMENTS, _acklam_quantile

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
    with np.errstate(over="ignore"):  # past the float range the guess is k + 1
        j = np.clip(np.ceil(p * k0 / alpha), 1, k + 1).astype(np.int64)
    j -= (j > 1) & (p <= alpha * (j - 1) / k0)
    j += (j <= k) & (p > alpha * j / k0)
    return j


def _deciding_counts(n1: np.ndarray, row: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """D per row from the count ``n1`` of its values of first passing rank 1
    and the first passing ranks ``rank`` of its other values, ``row`` their
    rows; values that never pass may be left out.

    A value passes at every rank from its first on, and D is the largest j
    at which at least j values pass (0 if none).  Exactly D values pass at
    D (else D + 1 would qualify), so D = n1 + i with i the other values
    passing there: D = max(n1, max{n1 + i : s_i <= n1 + i}), s_1 <= s_2 <=
    ... a row's other ranks sorted.  A row rejects its values of rank <= D.
    """
    key = np.sort(row * (k + 2) + rank)
    row, s = np.divmod(key, k + 2)
    # n1 plus each sorted rank's place within its row, counted from 1
    per_row = np.bincount(row, minlength=n1.size)
    size = np.arange(1, key.size + 1) + (n1 + per_row - np.cumsum(per_row))[row]
    hit = s <= size
    d = n1.copy()
    np.maximum.at(d, row[hit], size[hit])
    return d


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
    values outside [0, 1].  The FDR simulation reaches the same D from
    partly evaluated evidence (:func:`_screen_block`, :func:`_decide`).
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
    d = _deciding_counts(np.zeros(rows, dtype=np.intp), np.repeat(np.arange(rows), k),
                         rank.ravel(), k)
    return rank, d, k0


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
        NormalSampling(self.sigma, self.n)  # the normal model's range of sigma
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


@np.errstate(over="ignore")  # a z past the float range is +-inf
def _tail_z_stats(exp: FdrExperiment, truth: np.ndarray, rng, rows: int) -> tuple:
    """Standardized per-tail statistics of the next ``rows`` replications
    drawn from ``rng``, one row each: a replication takes 2k standard
    normals, the first tail's k, then the second's.

    Each z is (mu + sd x - t) scale, taken in place as x sd; += mu; -= t;
    *= scale, so the bits are those of the expression.
    """
    t1, t2 = exp.margin.theta1, exp.margin.theta2
    draws = rng.standard_normal((rows, 2, exp.k))
    if exp.sampling == "shared":
        # one sample mean drives both tails; a null sits on theta1 where its
        # first draw is negative, on theta2 elsewhere
        mu = np.where(truth, t1 + exp.epsilon_star, np.where(draws[:, 0] < 0.0, t1, t2))
        tails = ((draws[:, 1], mu, t1), (draws[:, 1], mu, t2))
    else:
        tails = ((draws[:, 0], np.where(truth, t1 + exp.epsilon_star, t1), t1),
                 (draws[:, 1], np.where(truth, t2 - exp.epsilon_star, t2), t2))
    root_n = math.sqrt(exp.n)
    if exp.sampling == "per_tail_literal":
        sd, scale = exp.sigma, 1.0 / exp.sigma
    else:
        sd, scale = exp.sigma / root_n, root_n / exp.sigma
    stats = []
    for x, mu, t in tails:
        z = x * sd  # a new C-contiguous (rows, k) array
        z += mu
        z -= t
        z *= scale
        stats.append(z)
    return stats[0], stats[1]


def _evidence(exp: FdrExperiment, tails: np.ndarray) -> np.ndarray:
    """The evidence value from the C-contiguous (2, m) array of its tail
    arguments (upper, lower), which it overwrites (:func:`_tail_evidence`)."""
    return _tail_evidence(tails, "sum" if exp.evidence == "bayesian" else
                          "max" if exp.combination == "max" else "folded")


# z margin of the screen: a tail whose z lies within it of a cutoff is
# evaluated, so neither the rounding of normal_cdf nor the error of the
# quantile approximation (at most 3.8e-8 in z on [1e-300, 0.1]) ever
# decides.  It moves a tail value by a relative 1e-3 or more, and both tails
# are normal_cdf of their own signed z, accurate in relative terms, so every
# threshold from the smallest normal float on is screened.
_Z_SLACK = 1e-3
_SCREEN_FLOOR = sys.float_info.min


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


def _screen_block(exp: FdrExperiment, z_r: np.ndarray, z_l: np.ndarray, shrink: float,
                  cutoffs, k1: int):
    """The step-up inputs of one block of replications, with no evidence
    evaluated: per row the count n1 of values of rank 1 and n1_alt of those
    among the first k1, and, adaptively, the count of values settled above
    lam; then the flat indices of the values left to evaluate and their
    (2, m) tail arguments (:func:`_evidence`).

    With u_r = -shrink z_r and u_l = shrink z_l the tail values are
    Phi(u_r) and Phi(u_l).  The evidence is at least its larger tail, at
    u = max(u_r, u_l), and at most ``factor`` times it (1 for the max, 2 for
    the clipped sum), so it is certainly above t for u > q(t) + slack and at
    or below t for u < q(t / factor) - slack.  A value above its row's
    highest threshold never passes and one at or below the lowest (or NaN)
    has rank 1; the band between is ranked by :func:`_decide`.  Adaptively
    the thresholds rest on the row's count above lam, known here only to lie
    between the values settled above lam and those plus the unsure ones
    near it (the lam band): the lowest cutoff is taken at the larger count
    and the highest at the smaller, so the band holds the row's true band.
    A value left to evaluate, in the band or the lam band, counts in
    neither n1 nor the settled count.  The |p_l - p_r| of ``difference`` has
    no lower bound: every value is left to evaluate.
    """
    rows, k = z_r.shape
    u = np.maximum(-z_r, z_l)
    u *= shrink  # shrink > 0: the max of the scaled values, bit for bit
    at_lam, _, table = cutoffs
    above = unsure = np.zeros(rows, dtype=np.intp)
    if at_lam is not None:
        lo, hi = at_lam
        settled = u > hi
        near_lam = (u >= lo) & ~settled
        above, unsure = np.count_nonzero(settled, axis=1), np.count_nonzero(near_lam, axis=1)
    lo, hi = table[0, above + unsure, np.newaxis], table[1, above, np.newaxis]
    kept = u >= lo  # the values not settled at rank 1
    left = kept & (u <= hi)
    if at_lam is not None:
        above -= np.count_nonzero(settled & left, axis=1)
        kept |= near_lam
        left |= near_lam
    values = np.flatnonzero(left)
    return (k - np.count_nonzero(kept, axis=1), k1 - np.count_nonzero(kept[:, :k1], axis=1),
            above, values, shrink * np.stack((-z_r.take(values), z_l.take(values))))


def _decide(exp: FdrExperiment, k1: int, k0: np.ndarray, blocks: list):
    """(d, s) per row of ``blocks``, the :func:`_screen_block` outputs of
    consecutive blocks, which it empties so that their arrays are freed
    once joined: the step-up's D and its rejections S among the first k1
    hypotheses, from one evidence call over the joined values left to
    evaluate.  ``k0`` is indexed by a row's count above lam
    (:func:`_screen_cutoffs`); without lam it holds k alone and the count
    is 0.

    D >= n1, so a row rejects all its values of rank 1 and its evaluated
    values of rank <= D, and never the values above its band.
    """
    offsets = exp.k * np.cumsum([0] + [blk[0].size for blk in blocks[:-1]])
    sizes = [blk[3].size for blk in blocks]
    n1, n1_alt, above, values, tails = (np.concatenate(part, axis=-1) for part in zip(*blocks))
    blocks.clear()
    values += np.repeat(offsets, sizes)  # flat indices into the joined rows
    p = _evidence(exp, tails)
    row = values // exp.k
    if exp.adaptive:
        above += np.bincount(row[p > exp.storey_lambda], minlength=n1.size)
    rank = _first_ranks(p, exp.alpha, k0[above][row], exp.k)
    d = _deciding_counts(n1, row, rank, exp.k)
    alt = (values % exp.k < k1) & (rank <= d[row])
    return d, n1_alt + np.bincount(row[alt], minlength=n1.size)


def fdr_power_simulation(exp: FdrExperiment):
    """Average step-up power and FDR across the k1 grid.

    The k1 point of grid index i draws from the stream
    ``spawn_rng(seed, i)``, one replication after another, each taking the
    next 2k standard normals (see :func:`_tail_z_stats`), so results are
    reproducible; running the same seed with the other evidence kind, or
    adaptively, reuses the very same draws, giving paired comparisons.
    Replications run in blocks of up to ``SLICE_ELEMENTS // k`` rows, one
    draw call a block; the draws, and so the results, do not depend on the
    block size.

    A rank depends on p only through p <= alpha j / k0, so a value above
    the largest threshold never ranks and one at or below the smallest has
    rank 1; the exact p matters only in the band between (and, adaptively,
    near lam).  Each tail value is monotone in its z, so z cutoffs at the
    normal quantiles of those thresholds, widened by a z slack far beyond
    any rounding and computed once per experiment (:func:`_screen_cutoffs`),
    settle every value outside the band and, adaptively, outside the lam
    band (:func:`_screen_block`): a row keeps only its counts of rank-1
    values and of values above lam, and the values left to evaluate.  The
    values of consecutive blocks are held until they and their rows reach
    ``SLICE_ELEMENTS // 2`` elements, or the point's last block, then
    evaluated with the expressions of the full evaluation in one
    normal_cdf call (erfc works elementwise, so they are bit-identical),
    counted above lam, ranked exactly at the row's k0, and decided from the
    rows' sorted band ranks (:func:`_decide`): every result equals that of
    the full evaluation.
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
        rng = spawn_rng(exp.seed, k1_idx)
        d = np.empty(exp.reps, dtype=np.intp)
        s = np.empty(exp.reps, dtype=np.intp)
        held = []  # blocks whose values await evaluation
        for start in range(0, exp.reps, block):
            stop = min(start + block, exp.reps)
            held.append(_screen_block(exp, *_tail_z_stats(exp, truth, rng, stop - start),
                                      shrink, cutoffs, k1))
            # bounding the held rows and values keeps memory independent of reps
            rows = sum(blk[0].size for blk in held)
            if rows + sum(blk[3].size for blk in held) >= SLICE_ELEMENTS // 2 or stop == exp.reps:
                d[stop - rows:stop], s[stop - rows:stop] = _decide(exp, k1, cutoffs[1], held)
        powers = s / max(k1, 1)
        fdps = (d - s) / np.maximum(d, 1)
        results.append(FdrPoint(
            k1=int(k1),
            mean_power=float(powers.mean()),
            mean_fdr=float(fdps.mean()),
            se_power=float(powers.std() / math.sqrt(exp.reps)),
            se_fdr=float(fdps.std() / math.sqrt(exp.reps)),
        ))
    return results
