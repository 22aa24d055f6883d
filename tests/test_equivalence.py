"""Frequentist TOST core: margins, one-sided/combined p-values, critical
constants, decision rule.  Expected values come from exact enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest

from equilab import (EquivalenceMargin, SignificanceLevels, binomial_pmf_vector,
                     binom_critical_constants, binom_evidence_values,
                     binom_onesided_pvalues, binom_tost_pvalue, decide)
from equilab.equivalence import EvidenceMeasure, _pvalue_tails


def exact_upper_tail(n, theta, s):
    """P(T >= s) as an exact rational, via math.comb."""
    num = Fraction(theta).limit_denominator(10**6)
    acc = Fraction(0)
    for j in range(s, n + 1):
        acc += Fraction(math.comb(n, j)) * num ** j * (1 - num) ** (n - j)
    return acc


class TestTypes:
    def test_margin_validation(self):
        with pytest.raises(ValueError):
            EquivalenceMargin(0.5, 0.5)
        with pytest.raises(ValueError):
            EquivalenceMargin(0.8, 0.2)

    def test_margin_derived_fields(self):
        m = EquivalenceMargin(1.0, 4.0)
        assert m.center == 2.5
        assert m.half_width == 1.5

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            SignificanceLevels(0.0, 0.05)
        assert SignificanceLevels(0.1, 0.1).alpha_lower == 0.1

    def test_evidence_validation(self):
        with pytest.raises(ValueError):
            EvidenceMeasure(1.2, "upper", "frequentist")
        with pytest.raises(ValueError):
            EvidenceMeasure(0.5, "sideways", "frequentist")
        with pytest.raises(ValueError):
            EvidenceMeasure(0.5, "upper", "exact")


class TestTostPvalue:
    def test_symmetric_midpoint_observation(self):
        margin = EquivalenceMargin(0.25, 0.75)
        upper, lower = binom_onesided_pvalues(50, 25, margin)
        ref = float(exact_upper_tail(50, 0.25, 25))
        assert upper.value == pytest.approx(ref, rel=1e-10)
        assert lower.value == pytest.approx(ref, rel=1e-10)  # mirror symmetry
        combined = binom_tost_pvalue(50, 25, margin)
        assert combined.value == pytest.approx(ref, rel=1e-10)
        assert combined.tail == "combined" and combined.method == "frequentist"

    def test_extreme_observations_give_one(self):
        margin = EquivalenceMargin(0.2, 0.8)
        assert binom_tost_pvalue(10, 0, margin).value == 1.0
        assert binom_tost_pvalue(10, 10, margin).value == 1.0

    def test_margin_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            binom_tost_pvalue(10, 5, EquivalenceMargin(-0.1, 0.5))
        with pytest.raises(ValueError):
            binom_tost_pvalue(10, 5, EquivalenceMargin(0.2, 1.0))

    def test_tail_monotonicity(self):
        margin = EquivalenceMargin(0.3, 0.7)
        uppers, lowers = zip(*[(u.value, l.value)
                               for u, l in (binom_onesided_pvalues(37, s, margin)
                                            for s in range(38))])
        assert all(b <= a + 1e-15 for a, b in zip(uppers, uppers[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(lowers, lowers[1:]))

    def test_symmetric_margin_reflection_invariance(self):
        for n in range(1, 61):
            margin = EquivalenceMargin(0.25, 0.75)
            vals = [binom_tost_pvalue(n, s, margin).value for s in range(n + 1)]
            for s in range(n + 1):
                assert vals[s] == pytest.approx(vals[n - s], rel=1e-10)

    def test_intersection_union_consistency(self):
        # combined rejects iff both one-sided tests reject, all n <= 60
        for margin in (EquivalenceMargin(0.25, 0.75), EquivalenceMargin(0.2, 0.8)):
            for n in range(1, 61):
                for s in range(n + 1):
                    upper, lower = binom_onesided_pvalues(n, s, margin)
                    combined = binom_tost_pvalue(n, s, margin)
                    for alpha in (0.01, 0.05, 0.2):
                        assert decide(combined, alpha) == (
                            decide(upper, alpha) and decide(lower, alpha))

    def test_validity_at_lfc(self):
        # exact size of the level-alpha test never exceeds alpha at either
        # boundary parameter
        margin = EquivalenceMargin(0.25, 0.75)
        for n in (10, 35, 60):
            combined = np.array([binom_tost_pvalue(n, s, margin).value
                                 for s in range(n + 1)])
            for theta in (margin.theta1, margin.theta2):
                pmf = binomial_pmf_vector(n, theta)
                for alpha in np.arange(0.01, 0.201, 0.01):
                    assert float(pmf @ (combined <= alpha)) <= alpha + 1e-12


class TestScalarIsVectorElement:
    """The scalar p-values are elements of the per-count vectors, bit for bit."""

    @pytest.mark.parametrize("n", [1, 50, 1000])
    @pytest.mark.parametrize("margin", [(0.25, 0.75), (0.1, 0.35)])
    def test_bitwise_equal_at_every_count(self, n, margin):
        margin = EquivalenceMargin(*margin)
        upper, lower = _pvalue_tails(n, margin)
        combined = binom_evidence_values(n, margin)[0]
        for s in range(n + 1):
            got_upper, got_lower = binom_onesided_pvalues(n, s, margin)
            assert got_upper.value.hex() == float(upper[s]).hex()
            assert got_lower.value.hex() == float(lower[s]).hex()
            assert binom_tost_pvalue(n, s, margin).value.hex() == float(combined[s]).hex()

    @pytest.mark.parametrize("n", [1, 50, 1000])
    def test_count_outside_support_rejected(self, n):
        margin = EquivalenceMargin(0.25, 0.75)
        for s in (-1, n + 1):
            with pytest.raises(ValueError, match="s must lie"):
                binom_onesided_pvalues(n, s, margin)
            with pytest.raises(ValueError, match="s must lie"):
                binom_tost_pvalue(n, s, margin)


class TestCriticalConstants:
    @pytest.mark.parametrize("levels", [(0.05, 0.05), (0.025, 0.1), (0.1, 0.01)])
    @pytest.mark.parametrize("margin", [(0.25, 0.75), (0.2, 0.8), (0.3, 0.6)])
    def test_region_is_where_both_pvalues_pass(self, margin, levels):
        # {C..D} is exactly the set of counts whose one-sided p-values are each
        # at or below their own level, so its exact size at theta1 (theta2) is
        # at most alpha_upper (alpha_lower)
        margin, levels = EquivalenceMargin(*margin), SignificanceLevels(*levels)
        for n in range(1, 61):
            c, d = binom_critical_constants(n, margin, levels)
            passing = []
            for s in range(n + 1):
                upper, lower = binom_onesided_pvalues(n, s, margin)
                if upper.value <= levels.alpha_upper and lower.value <= levels.alpha_lower:
                    passing.append(s)
            assert passing == list(range(c, d + 1)), n
            for theta, alpha in ((margin.theta1, levels.alpha_upper),
                                 (margin.theta2, levels.alpha_lower)):
                size = exact_upper_tail(n, theta, c) - exact_upper_tail(n, theta, d + 1)
                assert size <= alpha + 1e-12, (n, theta, float(size))

    def test_size_overshooting_quantile_constants(self):
        # the (1 - alpha) quantile of Bin(50, 0.25) is 18, but {18..32} has
        # size 0.0551 at theta1 = 0.25; the level-0.05 test rejects on {19..31}
        c, d = binom_critical_constants(50, EquivalenceMargin(0.25, 0.75),
                                        SignificanceLevels(0.05, 0.05))
        assert (c, d) == (19, 31)

    @pytest.mark.parametrize("margin", [(0.25, 0.5), (0.5, 0.75)])
    def test_region_agrees_with_decide_at_a_tied_level(self, margin):
        # at n = 55 and a boundary of 0.5, P(T <= 27) = P(T >= 28) = 1/2
        # exactly: a level of 0.5 equals a p-value, so a region and a scalar
        # p-value computed two ways could fall on opposite sides of it
        n, margin = 55, EquivalenceMargin(*margin)
        c, d = binom_critical_constants(n, margin, SignificanceLevels(0.5, 0.5))
        for s in range(n + 1):
            assert decide(binom_tost_pvalue(n, s, margin), 0.5) == (c <= s <= d), s

    def test_narrow_margin_empty_region(self):
        c, d = binom_critical_constants(5, EquivalenceMargin(0.45, 0.55),
                                        SignificanceLevels(0.05, 0.05))
        assert c > d  # legal: the test never rejects

    def test_wide_levels_nonempty(self):
        c, d = binom_critical_constants(50, EquivalenceMargin(0.25, 0.75),
                                        SignificanceLevels(0.5, 0.5))
        assert c <= d


class TestDecide:
    @pytest.mark.parametrize("value,expected", [(0.049, True), (0.05, True),
                                                (0.051, False)])
    def test_boundary_inclusive(self, value, expected):
        ev = EvidenceMeasure(value, "combined", "frequentist")
        assert decide(ev, 0.05) is expected
