"""Bayesian evidence for the binomial model under a conjugate Beta prior.

The posterior of theta given s successes in n trials is Beta(p+s, q+n-s),
so the two tail probabilities P(theta <= theta1 | data) and
P(theta >= theta2 | data) are regularized incomplete beta values, valid for
any positive (p, q); one rule, :func:`_tail`, takes one incomplete beta and
one saddle-point term per tail.
:func:`posterior_values` takes every count at once: neighbouring posteriors'
tails differ by one saddle-point term (DLMF 8.17(iv)), so each tail over
the support is a cumulative sum from its own small end, as the binomial
tails are, from one :func:`_tail` at the end of the support, and a single
test's :func:`posterior_prob_equiv` is one element of it.  For integer
priors the tails coincide with finite binomial sums (the Beta/binomial
duality), which the tests use as an independent oracle.
"""

from dataclasses import dataclass

import numpy as np

from .equivalence import EquivalenceMargin, EvidenceMeasure, _check_binom_margin
from .special import _beta_front, reg_inc_beta_pair

# The largest prior shape.  The incomplete beta's continued fraction runs in
# the tail rule and, in posterior_values, only at the two anchors, whose
# first shapes are p + n + 1 and q + n + 1.  Near the posterior mean it
# takes about the root of the shapes in steps: measured against scipy's
# betainc, it converges within its 1000 for shapes up to 5e6 (to 1e-9
# relative) and fails from about 1e7, so n up to 4e6 stays inside.
MAX_PRIOR_SHAPE = 1e6


@dataclass(frozen=True)
class BetaPrior:
    """Beta(p, q) prior for the binomial success probability."""

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.p <= MAX_PRIOR_SHAPE and 0.0 < self.q <= MAX_PRIOR_SHAPE):
            raise ValueError(f"Beta prior needs 0 < p, q <= {MAX_PRIOR_SHAPE:g}, "
                             f"got ({self.p}, {self.q})")

    def prior_variance(self) -> float:
        """Variance pq / ((p+q)^2 (p+q+1)) of the prior."""
        t = self.p + self.q
        return self.p * self.q / (t * t * (t + 1.0))


@dataclass(frozen=True)
class BetaPosterior:
    """The Beta(a, b) posterior of a Beta(p, q) prior after s successes in n
    trials: a = p + s, b = q + (n - s)."""

    prior: BetaPrior
    n: int
    s: int

    def __post_init__(self):
        if not 0 <= self.s <= self.n:
            raise ValueError(f"need 0 <= s <= n, got s={self.s}, n={self.n}")

    @property
    def a(self) -> float:
        return self.prior.p + self.s

    @property
    def b(self) -> float:
        return self.prior.q + (self.n - self.s)


def posterior_update(prior: BetaPrior, n: int, s: int) -> BetaPosterior:
    """Conjugate update: Beta(p, q) with s successes in n trials -> Beta(p+s, q+n-s)."""
    return BetaPosterior(prior, n, s)


def posterior_values(n: int, margin: EquivalenceMargin, prior: BetaPrior) -> np.ndarray:
    """:func:`posterior_prob_equiv` of :func:`posterior_update` at every count
    s = 0..n as one array, each tail a cumulative sum from its own small end.

    With g_j(x) = I_x(p+j, q+n-j) - I_x(p+j+1, q+n-j-1), a saddle-point
    term x^(p+j) (1-x)^(q+n-j-1) / ((p+q+n) B(p+j+1, q+n-j)) for j < n,
    the lower tail is I_theta1(p+n, q) + sum_{j >= s} g_j(theta1) and the
    upper tail I_{1-theta2}(q+n, p) + sum_{j < s} g_j(theta2): one
    :func:`~equilab.special._beta_front` call, whose shapes are all at
    least 1, and the two anchors from :func:`_tail`.  Against mpmath the
    worst relative error is 7e-14 up to n = 1000, 4e-13 at 1e4.
    """
    _check_binom_margin(margin)
    p, q = prior.p, prior.q
    j = np.arange(n)
    x = np.array([[margin.theta1], [margin.theta2]])
    g = _beta_front(p + j + 1, q + n - j, x) / (x * (1.0 - x) * (p + q + n))
    anchors = _tail([p + n, q + n], [q, p], [margin.theta1, 1.0 - margin.theta2])
    lower = np.cumsum(np.append(anchors[0], g[0, ::-1]))[::-1]
    upper = np.cumsum(np.append(anchors[1], g[1]))
    return np.clip(lower + upper, 0.0, 1.0)


def _tail(a, b, x):
    """I_x(a, b) elementwise, one chain step up, the step :func:`posterior_values`
    takes: I_x(a+1, b) plus x^a (1-x)^b / (a B(a, b)) = _beta_front(a+1, b, x)
    / (x (a+b)), clamped to 1 against rounding.  The kernel's first shape is
    then at least 1; at a subnormal one its front factor underflows."""
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    step = _beta_front(a + 1.0, b, x) / (x * (a + b))
    return np.minimum(1.0, reg_inc_beta_pair(a + 1.0, b, x)[0] + step)


def posterior_prob_upper(post: BetaPosterior, theta1: float) -> EvidenceMeasure:
    """P(theta <= theta1 | data): posterior evidence for the upper-tailed null."""
    if not 0.0 < theta1 < 1.0:
        raise ValueError(f"theta1 must lie in (0, 1), got {theta1}")
    return EvidenceMeasure(float(_tail(post.a, post.b, theta1)), "upper", "bayesian")


def posterior_prob_lower(post: BetaPosterior, theta2: float) -> EvidenceMeasure:
    """P(theta >= theta2 | data): posterior evidence for the lower-tailed null."""
    if not 0.0 < theta2 < 1.0:
        raise ValueError(f"theta2 must lie in (0, 1), got {theta2}")
    # I_{1-x}(b, a) rather than 1 - I_x(a, b), which cancels in the far tail
    return EvidenceMeasure(float(_tail(post.b, post.a, 1.0 - theta2)), "lower", "bayesian")


def posterior_prob_equiv(post: BetaPosterior, margin: EquivalenceMargin) -> EvidenceMeasure:
    """Posterior probability that theta lies outside the margin: element s of
    :func:`posterior_values`, so a single test decides as the study's
    rejection region does."""
    value = posterior_values(post.n, margin, post.prior)[post.s]
    return EvidenceMeasure(float(value), "combined", "bayesian")
