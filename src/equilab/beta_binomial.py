"""Bayesian evidence for the binomial model under a conjugate Beta prior.

The posterior of theta given s successes in n trials is Beta(p+s, q+n-s),
so the two tail probabilities P(theta <= theta1 | data) and
P(theta >= theta2 | data) are regularized incomplete beta values, valid for
any positive (p, q).  For integer priors they coincide with finite binomial
sums (the Beta/binomial duality), which the tests use as an independent
oracle.
"""

from dataclasses import dataclass

from .equivalence import EquivalenceMargin, EvidenceMeasure, _check_binom_margin
from .special import reg_inc_beta


@dataclass(frozen=True)
class BetaPrior:
    """Beta(p, q) prior for the binomial success probability."""

    p: float
    q: float

    def __post_init__(self):
        if self.p <= 0.0 or self.q <= 0.0:
            raise ValueError(f"Beta prior needs p, q > 0, got ({self.p}, {self.q})")

    def prior_variance(self) -> float:
        """Variance pq / ((p+q)^2 (p+q+1)) of the prior."""
        t = self.p + self.q
        return self.p * self.q / (t * t * (t + 1.0))


@dataclass(frozen=True)
class BetaPosterior:
    """Beta(a, b) posterior shape parameters after a binomial update."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(f"posterior needs a, b > 0, got ({self.a}, {self.b})")


def posterior_update(prior: BetaPrior, n: int, s: int) -> BetaPosterior:
    """Conjugate update: Beta(p, q) with s successes in n trials -> Beta(p+s, q+n-s)."""
    if n < 0 or not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    return BetaPosterior(prior.p + s, prior.q + (n - s))


def posterior_prob_upper(post: BetaPosterior, theta1: float) -> EvidenceMeasure:
    """P(theta <= theta1 | data): posterior evidence for the upper-tailed null."""
    if not 0.0 < theta1 < 1.0:
        raise ValueError(f"theta1 must lie in (0, 1), got {theta1}")
    return EvidenceMeasure(reg_inc_beta(post.a, post.b, theta1), "upper", "bayesian")


def posterior_prob_lower(post: BetaPosterior, theta2: float) -> EvidenceMeasure:
    """P(theta >= theta2 | data): posterior evidence for the lower-tailed null."""
    if not 0.0 < theta2 < 1.0:
        raise ValueError(f"theta2 must lie in (0, 1), got {theta2}")
    # I_{1-x}(b, a) rather than 1 - I_x(a, b), which cancels in the far tail
    return EvidenceMeasure(reg_inc_beta(post.b, post.a, 1.0 - theta2), "lower", "bayesian")


def posterior_prob_equiv(post: BetaPosterior, margin: EquivalenceMargin) -> EvidenceMeasure:
    """Posterior probability that theta lies outside the margin.

    The two tail events are disjoint, so this is the plain sum of the
    upper and lower tail probabilities (equivalently one minus the
    posterior mass on the margin interval); clamped to [0, 1] against
    rounding.
    """
    _check_binom_margin(margin)
    upper = posterior_prob_upper(post, margin.theta1)
    lower = posterior_prob_lower(post, margin.theta2)
    total = min(1.0, max(0.0, upper.value + lower.value))
    return EvidenceMeasure(total, "combined", "bayesian")
