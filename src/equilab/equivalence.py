"""Equivalence hypotheses and frequentist TOST evidence for the binomial model.

The tested hypothesis is that a parameter lies outside a fixed interval
(theta1, theta2); equivalence is declared only when both one-sided tests
reject.  One-sided p-values are computed at the observed statistic under
the least favorable configuration (the margin boundary for each tail), and
the combined equivalence p-value is their maximum.  The rejection region
{C..D} of :func:`binom_critical_constants` is read off the same p-values.
"""

from dataclasses import dataclass

from .special import binomial_tail_vectors

TAILS = ("upper", "lower", "combined")
METHODS = ("frequentist", "bayesian")


@dataclass(frozen=True)
class EquivalenceMargin:
    """The interval (theta1, theta2) forming the equivalence alternative."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not self.theta1 < self.theta2:
            raise ValueError(
                f"margin requires theta1 < theta2, got ({self.theta1}, {self.theta2})"
            )

    @property
    def center(self) -> float:
        """Midpoint of the margin."""
        return 0.5 * (self.theta1 + self.theta2)

    @property
    def half_width(self) -> float:
        """Half the margin width (the tolerance epsilon)."""
        return 0.5 * (self.theta2 - self.theta1)


@dataclass(frozen=True)
class SignificanceLevels:
    """Per-tail significance levels; equal by default, may differ."""

    alpha_upper: float = 0.05
    alpha_lower: float = 0.05

    def __post_init__(self):
        for name, a in (("alpha_upper", self.alpha_upper),
                        ("alpha_lower", self.alpha_lower)):
            if not 0.0 < a < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {a}")


@dataclass(frozen=True)
class EvidenceMeasure:
    """A p-value or posterior probability with its provenance."""

    value: float
    tail: str
    method: str

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"evidence value must lie in [0, 1], got {self.value}")
        if self.tail not in TAILS:
            raise ValueError(f"tail must be one of {TAILS}, got {self.tail!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def _check_binom_margin(margin: EquivalenceMargin) -> None:
    if not (0.0 < margin.theta1 and margin.theta2 < 1.0):
        raise ValueError(
            f"binomial margin must lie inside (0, 1), got "
            f"({margin.theta1}, {margin.theta2})"
        )


def binom_onesided_pvalues(n: int, s: int, margin: EquivalenceMargin):
    """One-sided LFC p-values at a count s in 0..n, elements of :func:`_pvalue_tails`.

    Returns
    -------
    (upper, lower) : tuple of EvidenceMeasure
        ``upper`` is P_{theta1}(T >= s), the p-value of the upper-tailed
        test of theta <= theta1; ``lower`` is P_{theta2}(T <= s) for the
        lower-tailed test of theta >= theta2.
    """
    upper, lower = _pvalue_tails(n, margin)
    if not 0 <= s <= n:
        raise ValueError(f"s must lie in [0, {n}], got {s}")
    return (EvidenceMeasure(float(upper[s]), "upper", "frequentist"),
            EvidenceMeasure(float(lower[s]), "lower", "frequentist"))


def binom_tost_pvalue(n: int, s: int, margin: EquivalenceMargin) -> EvidenceMeasure:
    """Combined equivalence p-value: the maximum of the two one-sided p-values."""
    upper, lower = binom_onesided_pvalues(n, s, margin)
    return EvidenceMeasure(max(upper.value, lower.value), "combined", "frequentist")


def _pvalue_tails(n: int, margin: EquivalenceMargin):
    """One-sided p-values per count: P_theta1(T >= s) and P_theta2(T <= s)."""
    _check_binom_margin(margin)
    cdf, sf = binomial_tail_vectors(n, (margin.theta1, margin.theta2))
    return sf[0], cdf[1]


def binom_critical_constants(n: int, margin: EquivalenceMargin,
                             levels: SignificanceLevels):
    """Critical constants (C, D) of the count-based rejection region.

    C is the first count whose upper p-value is at most alpha_upper and D
    the last whose lower p-value is at most alpha_lower.  Both p-value
    vectors are monotone cumulative sums, so {C..D} is exactly the set of
    counts where each one-sided p-value is at or below its own level.  The
    region may be empty (C > D); the test then never rejects at these levels.
    """
    upper, lower = _pvalue_tails(n, margin)
    c = int((upper > levels.alpha_upper).sum())
    d = int((lower <= levels.alpha_lower).sum()) - 1
    return c, d


def decide(evidence: EvidenceMeasure, level: float) -> bool:
    """Declare equivalence (reject non-equivalence) iff value <= level."""
    return evidence.value <= level
