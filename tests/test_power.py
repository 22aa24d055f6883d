"""Exact curves, power maximizer search, and the simulation-table protocol."""

import math
import random
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from conftest import numpy_stream
from scipy import optimize, stats

from equilab import (BetaPrior, CurveSpec, EquivalenceMargin, NormalPrior,
                     NormalSampling, SignificanceLevels, binom_evidence_values,
                     binom_cdf_curve, binom_power_curve,
                     binomial_interval_prob, binomial_pmf_vector, exact_size,
                     normal_curves, posterior_coefficient, table_simulation, theta_max)
from equilab import power
from equilab.beta_binomial import posterior_values
from equilab.power import _argmax_toward_center, _maximizer, _power_arrays, _reject_regions
from equilab.rng import spawn_rng
from test_golden import bench_module

mpmath.mp.dps = 40


def spec_binom(n, margin, prior=None, levels=None, theta=0.5):
    return CurveSpec(n=n, margin=EquivalenceMargin(*margin),
                     prior=prior, levels=levels or SignificanceLevels(),
                     theta_true=theta)


def cdf_at(spec, t):
    """The conservativity curve on the one-point grid (t,)."""
    return binom_cdf_curve(replace(spec, grid=(t,)))[0]


def power_at(spec, theta):
    """The power curve on the one-point grid (theta,)."""
    return binom_power_curve(replace(spec, grid=(theta,)))[0]


class TestMeasureCdf:
    def test_full_support_at_one(self):
        point = cdf_at(spec_binom(20, (0.2, 0.8), BetaPrior(1, 1)), 1.0)
        assert point.y_frequentist == pytest.approx(1.0, abs=1e-10)
        assert point.y_bayes == pytest.approx(1.0, abs=1e-10)

    def test_zero_below_smallest_value(self):
        point = cdf_at(spec_binom(10, (0.2, 0.8), BetaPrior(1, 1)), 1e-12)
        assert point.y_frequentist == 0.0
        assert point.y_bayes == 0.0

    def test_small_prior_less_conservative_than_pvalue(self):
        spec = spec_binom(50, (0.25, 0.75), BetaPrior(0.5, 0.5), theta=0.25)
        for t in np.arange(0.1, 0.95, 0.1):
            point = cdf_at(spec, float(t))
            assert point.y_bayes >= point.y_frequentist - 1e-12

    def test_matches_direct_enumeration(self):
        spec = spec_binom(30, (0.2, 0.8), BetaPrior(2, 5), theta=0.4)
        pf, pb = binom_evidence_values(30, spec.margin, spec.prior)
        pmf = binomial_pmf_vector(30, 0.4)
        point = cdf_at(spec, 0.3)
        assert point.y_frequentist == pytest.approx(float(pmf @ (pf <= 0.3)), abs=1e-14)
        assert point.y_bayes == pytest.approx(float(pmf @ (pb <= 0.3)), abs=1e-14)


class TestPower:
    @pytest.mark.parametrize("grid", [[0.5, 0.2], [0.2, 0.2], [0.1, 0.3, 0.2]])
    def test_grid_not_increasing_is_refused(self, grid):
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            CurveSpec(n=10, margin=EquivalenceMargin(0.2, 0.8), grid=grid)

    def test_size_bounded_at_boundary(self):
        for n in (10, 35, 60):
            spec = spec_binom(n, (0.25, 0.75))
            point = power_at(spec, 0.25)
            assert point.y_frequentist <= 0.05 + 1e-12

    def test_small_prior_at_least_as_powerful(self):
        spec = spec_binom(50, (0.25, 0.75), BetaPrior(0.5, 0.5))
        for theta in (0.3, 0.4, 0.5, 0.6):
            point = power_at(spec, theta)
            assert point.y_bayes >= point.y_frequentist - 1e-12
        # strict somewhere: the posterior region is a proper superset here
        assert power_at(spec, 0.4).y_bayes > power_at(spec, 0.4).y_frequentist

    def test_symmetric_configuration_symmetric_curve(self):
        spec = spec_binom(24, (0.2, 0.8), BetaPrior(2, 2))
        for theta in (0.1, 0.23, 0.4):
            left = power_at(spec, theta)
            right = power_at(spec, 1.0 - theta)
            assert left.y_frequentist == pytest.approx(right.y_frequentist, abs=1e-12)
            assert left.y_bayes == pytest.approx(right.y_bayes, abs=1e-12)

    def test_pvalue_power_unimodal(self):
        for n in (10, 30):
            spec = replace(spec_binom(n, (0.2, 0.8)), grid=np.arange(1, 1000) * 1e-3)
            power = np.array([p.y_frequentist for p in binom_power_curve(spec)])
            peak = int(np.argmax(power))
            assert np.all(np.diff(power[: peak + 1]) >= -1e-12)
            assert np.all(np.diff(power[peak:]) <= 1e-12)


class TestIntervalEngine:
    """Power from the interval form P(C <= T <= D), its accuracy, and the
    interval shape of both rejection regions."""

    def test_tiny_powers_match_mpmath(self):
        spec = spec_binom(20, (0.2, 0.8), BetaPrior(2, 3))
        thetas = [0.01, 0.02, 0.1, 0.5, 0.9, 0.99]
        points = binom_power_curve(replace(spec, grid=thetas))
        for (c, d), column in zip(_reject_regions(spec), ("y_frequentist", "y_bayes")):
            for point in points:
                t = mpmath.mpf(point.x)
                ref = mpmath.fsum(mpmath.binomial(20, k) * t ** k * (1 - t) ** (20 - k)
                                  for k in range(c, d + 1))
                assert abs(getattr(point, column) - ref) <= 1e-12 * ref, (column, point.x)

    def test_posterior_sublevel_sets_are_one_run_of_counts(self):
        # the chain argument behind _reject_regions (pb(s+1) - pb(s) =
        # g_s(theta2) - g_s(theta1), a ratio rising in s), over a sweep of n,
        # priors, margins and thresholds t in (0, 0.99]
        ts = np.concatenate([[1e-12, 1e-6, 1e-3], np.linspace(0.01, 0.99, 99)])
        for n in (1, 2, 5, 10, 30, 100, 300, 1000):
            for p, q in ((0.01, 0.01), (0.5, 0.5), (1, 1), (3, 3), (2, 5), (1, 15),
                         (15, 1), (50, 2)):
                for margin in ((0.25, 0.75), (0.2, 0.8), (0.3, 0.6), (0.05, 0.15),
                               (0.45, 0.55)):
                    pb = posterior_values(n, EquivalenceMargin(*margin), BetaPrior(p, q))
                    inside = pb[None, :] <= ts[:, None]
                    runs = inside[:, 0] + np.count_nonzero(inside[:, 1:] & ~inside[:, :-1],
                                                           axis=1)
                    assert runs.max() <= 1, (n, p, q, margin)

    def test_empty_bayesian_region(self):
        # Beta(50, 50) at margin (0.05, 0.15): no count reaches the level
        spec = replace(spec_binom(10, (0.05, 0.15), BetaPrior(50, 50)), grid=[0.1, 0.5])
        c, d = _reject_regions(spec)[1]
        assert c > d
        assert [p.y_bayes for p in binom_power_curve(spec)] == [0.0, 0.0]
        result = table_simulation(spec, reps=50, seed=0)
        assert result.mc_type1 == result.mc_power == result.exact_power == 0.0

    def test_empty_grid_gives_no_points(self):
        assert binom_power_curve(spec_binom(10, (0.2, 0.8), BetaPrior(1, 1))) == []

    def test_theta_max_large_n_ties_resolve_to_center(self):
        # power is 1 to double precision all around the centre at n = 1e4
        spec = spec_binom(10_000, (0.25, 0.75))
        theta_f, theta_b = theta_max(spec)
        assert theta_f == 0.5 and math.isnan(theta_b)
        assert theta_max(replace(spec, prior=BetaPrior(0.5, 0.5))) == (0.5, 0.5)


class TestThetaMax:
    def test_pvalue_maximizer_at_half(self):
        for n in (10, 30, 50):
            theta_f, _ = theta_max(spec_binom(n, (0.2, 0.8)))
            assert theta_f == pytest.approx(0.5, abs=1e-3)

    def test_strong_symmetric_prior_ties_to_half(self):
        # Beta(50, 50) swamps n=10 data: evidence is tiny for every count,
        # the power curve is flat at 1, and the tie resolves to the center
        _, theta_b = theta_max(spec_binom(10, (0.2, 0.8), BetaPrior(50, 50)))
        assert theta_b == pytest.approx(0.5, abs=1e-3)

    def test_unequal_levels_shift_pvalue_but_not_posterior(self):
        levels = SignificanceLevels(alpha_upper=0.025, alpha_lower=0.1)
        spec = spec_binom(20, (0.2, 0.8), BetaPrior(0.5, 0.5), levels=levels)
        theta_f, theta_b = theta_max(spec)
        assert abs(theta_f - 0.5) > 1e-3
        assert theta_b == pytest.approx(0.5, abs=1e-3)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            theta_max(spec_binom(10, (0.2, 0.8)), resolution=0.01)

    def test_tie_breaking_rules(self):
        thetas = np.array([0.2, 0.4, 0.5, 0.6, 0.8])
        flat = np.ones(5)
        assert _argmax_toward_center(thetas, flat) == 0.5
        bimodal = np.array([0.1, 1.0, 0.5, 1.0, 0.1])
        assert _argmax_toward_center(thetas, bimodal) == 0.4  # equidistant: smaller


def theta_max_full_grid(spec, resolution=1e-3):
    """The grid search that theta_max replaced: the power at every grid
    point, then the tie rule; kept as the reference."""
    steps = int(math.ceil(1.0 / resolution))
    thetas = np.arange(1, steps) * resolution
    thetas = thetas[(thetas > 0.0) & (thetas < 1.0)]
    y_f, y_b = _power_arrays(spec, thetas)
    theta_f = _argmax_toward_center(thetas, y_f)
    if spec.prior is None:
        return theta_f, math.nan
    return theta_f, _argmax_toward_center(thetas, y_b)


def benchmark_theta_max_specs(seeds):
    """The designs of the benchmark's theta-max studies, from their params."""
    workloads = bench_module("workloads")
    specs = []
    for seed in seeds:
        for study in workloads.build("exact-binomial", seed, "unused"):
            p = study["params"]
            if study["kind"] == "theta-max":
                specs.append(spec_binom(p["n"], p["margin"],
                                        BetaPrior(*p["prior"]) if p["prior"] else None,
                                        SignificanceLevels(*p["levels"])))
    return specs


def edge_specs():
    """Empty, whole-support, monotone and flat-topped regions."""
    specs = [spec_binom(30, (0.2, 0.8), prior) for q in (1, 5, 10, 15)
             for prior in (BetaPrior(1, q), BetaPrior(q, 1))]
    specs.append(spec_binom(10, (0.2, 0.8), BetaPrior(50, 50)))  # whole support, flat at 1
    specs.append(spec_binom(10, (0.3, 0.7)))  # empty
    specs += [spec_binom(10_000, (0.25, 0.75), prior) for prior in (None, BetaPrior(0.5, 0.5))]
    return specs


def random_specs(count, seed, max_n=1000):
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        lo = round(rng.uniform(0.02, 0.9), 3)
        hi = round(rng.uniform(lo + 0.01, 0.98), 3)
        prior = (BetaPrior(round(rng.uniform(0.3, 20), 2), round(rng.uniform(0.3, 20), 2))
                 if rng.random() < 0.6 else None)
        levels = SignificanceLevels(rng.choice((0.025, 0.05, 0.1)), rng.choice((0.025, 0.05, 0.1)))
        specs.append(spec_binom(rng.randint(2, max_n), (lo, hi), prior, levels))
    return specs


class TestMaximizer:
    """The closed-form maximizer of P_theta(C <= T <= D) against scipy."""

    @staticmethod
    def interior_regions(count=250):
        rng = random.Random(24)
        for _ in range(count):
            n = rng.randint(2, 1000)
            c = rng.randint(1, n - 1)
            yield n, c, rng.randint(c, n - 1)

    def test_agrees_with_scipy_minimize_scalar(self):
        # the power is flat at its peak, so minimize_scalar on it locates the
        # peak only to about sqrt(eps) / curvature; the log ratio of the
        # derivative's two PMF terms crosses zero there with a nonzero slope,
        # so its absolute value pins theta* to rounding
        for n, c, d in self.interior_regions():
            theta_star = _maximizer(n, c, d)

            def log_ratio_gap(x):
                theta = 1.0 / (1.0 + math.exp(-min(max(x, -30.0), 30.0)))
                return abs(stats.binom.logpmf(c - 1, n - 1, theta)
                           - stats.binom.logpmf(d, n - 1, theta))

            found = optimize.minimize_scalar(log_ratio_gap, bracket=(-1.0, 1.0),
                                             method="brent", tol=1e-12)
            assert 1.0 / (1.0 + math.exp(-found.x)) == pytest.approx(theta_star, abs=1e-9)

            def neg_power(theta):
                return -(stats.binom.cdf(d, n, theta) - stats.binom.cdf(c - 1, n, theta))

            best = optimize.minimize_scalar(neg_power, bounds=(0.0, 1.0), method="bounded",
                                            options={"xatol": 1e-12})
            assert -best.fun <= -neg_power(theta_star) + 1e-14, (n, c, d)

    def test_derivative_changes_sign_once(self):
        thetas = np.linspace(1e-4, 1 - 1e-4, 20_001)
        for n, c, d in self.interior_regions(200):
            theta_star = _maximizer(n, c, d)
            # the derivative n [b(c-1; n-1) - b(d; n-1)] has the sign of the log ratio
            sign = np.sign(stats.binom.logpmf(c - 1, n - 1, thetas)
                           - stats.binom.logpmf(d, n - 1, thetas))
            rising, falling = thetas[sign > 0], thetas[sign < 0]
            # one flip, from + to -, at most one grid point exactly on the root
            assert rising.size and falling.size and rising.max() < falling.min(), (n, c, d)
            assert np.count_nonzero(sign == 0) <= 1
            assert rising.max() <= theta_star <= falling.min()

    def test_monotone_regions_peak_at_the_support_ends(self):
        assert _maximizer(30, 0, 12) == 0.0
        assert _maximizer(30, 14, 30) == 1.0


def region_kind(n, c, d):
    if c > d:
        return "empty"
    if c <= 0 and d >= n:
        return "whole"
    return "monotone" if c <= 0 or d >= n else "interior"


# designs per resolution, one non-dividing
REFERENCE_DESIGNS = {
    1e-3: lambda: benchmark_theta_max_specs((1, 2, 3)) + edge_specs() + random_specs(200, 1),
    7.3e-4: lambda: edge_specs() + random_specs(150, 2),
    1e-5: lambda: edge_specs() + random_specs(20, 3, max_n=300),
}


class TestThetaMaxAgainstFullGrid:
    """theta_max evaluates only the grid points around the peak; its answer
    is the full-grid search's, repr for repr."""

    @pytest.mark.parametrize("resolution", sorted(REFERENCE_DESIGNS))
    def test_same_answer_as_full_grid_search(self, resolution):
        cases = [(spec, theta_max_full_grid(spec, resolution), theta_max(spec, resolution))
                 for spec in REFERENCE_DESIGNS[resolution]()]
        assert [case for case in cases if repr(case[1]) != repr(case[2])] == []

    def test_designs_cover_every_region_kind(self):
        assert sum(len(specs()) for specs in REFERENCE_DESIGNS.values()) >= 400
        kinds = {region_kind(spec.n, c, d) for spec in edge_specs()
                 for c, d in filter(None, _reject_regions(spec))}
        assert kinds == {"empty", "whole", "monotone", "interior"}
        for spec in benchmark_theta_max_specs((1, 2, 3)):
            if spec.n == 10:
                assert {region_kind(10, c, d) for c, d in filter(None, _reject_regions(spec))} \
                    == {"empty"}


class TestThetaMaxWork:
    """The kernel work theta_max does, counted through its kernel name."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counting(n, lo, hi, theta):
            calls.append(np.size(theta))
            return binomial_interval_prob(n, lo, hi, theta)

        monkeypatch.setattr(power, "binomial_interval_prob", counting)
        return calls

    def test_interior_design_makes_one_small_call_per_region(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        spec = spec_binom(50, (0.2, 0.8), BetaPrior(2, 3))
        assert all(0 < c <= d < 50 for c, d in _reject_regions(spec))
        theta_max(spec, 1e-5)
        assert len(calls) == 2 and max(calls) <= 3

    @pytest.mark.parametrize("prior", [None, BetaPrior(0.5, 0.5)])
    def test_centred_flat_top_makes_one_call_per_region(self, monkeypatch, prior):
        # the power is 1 to double precision all around 0.5, whose point the
        # first segment already holds
        calls = self.count_calls(monkeypatch)
        spec = spec_binom(10_000, (0.25, 0.75), prior)
        assert theta_max(spec)[0] == 0.5
        assert len(calls) == len(_reject_regions(spec))

    def test_monotone_region_evaluates_a_fraction_of_the_grid(self, monkeypatch):
        # Beta(1, 15) rejects on counts 14..30: the power rises to 1, and the
        # points tied with the top reach from the grid's end down to about 0.93
        calls = self.count_calls(monkeypatch)
        spec = spec_binom(30, (0.2, 0.8), BetaPrior(1, 15))
        assert _reject_regions(spec)[1] == (14, 30)
        theta_max(spec, 1e-5)
        assert sum(calls) < 20_000

    def test_empty_region_makes_no_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        spec = spec_binom(10, (0.3, 0.7), BetaPrior(1, 1))
        assert all(c > d for c, d in _reject_regions(spec))
        assert theta_max(spec) == (0.5, 0.5)
        assert calls == []


class TestExactSize:
    """The supremum of the rejection probability over the whole null."""

    @staticmethod
    def brute_force(spec, step=1e-4):
        """(max over a null grid of step 1e-4 with theta1, theta2, 0 and 1;
        whether the region's peak lies in the margin or at a support end, so
        that the supremum is attained at a grid point)."""
        theta1, theta2 = spec.margin.theta1, spec.margin.theta2
        grid = np.concatenate((np.arange(0.0, theta1, step), [theta1, theta2],
                               np.arange(1.0, theta2, -step)[::-1]))
        y_f, y_b = _power_arrays(spec, grid)
        on_grid = [c > d or _maximizer(spec.n, c, d) in (0.0, 1.0)
                   or theta1 <= _maximizer(spec.n, c, d) <= theta2
                   for c, d in filter(None, _reject_regions(spec))]
        return (y_f.max(), y_b.max()), on_grid

    def test_at_least_the_null_grid_maximum(self):
        for spec in random_specs(80, 4, max_n=400) + edge_specs()[:10]:
            sizes = [s for s in exact_size(spec) if not math.isnan(s)]
            maxima, on_grid = self.brute_force(spec)
            for size, grid_max, attained in zip(sizes, maxima, on_grid):
                assert size >= grid_max - 1e-15, spec
                if attained:
                    assert size == pytest.approx(grid_max, abs=1e-9), spec

    def test_no_prior_gives_nan(self):
        size_f, size_b = exact_size(spec_binom(50, (0.25, 0.75)))
        assert 0.0 < size_f <= 0.05 and math.isnan(size_b)

    def test_skewed_prior_has_size_one(self):
        # Beta(1,15) rejects on counts 14..30: power rises to 1 past theta2
        spec = spec_binom(30, (0.2, 0.8), BetaPrior(1, 15))
        assert _reject_regions(spec)[1] == (14, 30)
        assert exact_size(spec)[1] == 1.0

    def test_benchmark_table_design_is_largest_at_theta2(self):
        # seed 1's tables-n100-beta: the table's type I rate at theta1 is
        # 0.038, the rejection probability at theta2 is 0.074
        study, = [s for s in bench_module("workloads").build("exact-binomial", 1, "unused")
                  if s["id"] == "tables-n100-beta"]
        p = study["params"]
        spec = spec_binom(p["n"], p["margin"], BetaPrior(*p["prior"]),
                          SignificanceLevels(*p["levels"]))
        assert round(table_simulation(spec, reps=1, seed=0).exact_type1, 3) == 0.038
        assert round(exact_size(spec)[1], 3) == 0.074

    def test_empty_region_has_size_zero(self):
        assert exact_size(spec_binom(10, (0.3, 0.7), BetaPrior(1, 1))) == (0.0, 0.0)


class TestNormalCurves:
    def test_cdf_curve_nondecreasing(self):
        points = normal_curves(NormalSampling(2.0, 30), NormalPrior(0.5),
                               EquivalenceMargin(1.0, 4.0), 2.0, np.linspace(0.05, 0.95, 19))
        yf = [p.y_frequentist for p in points]
        yb = [p.y_bayes for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(yf, yf[1:]))
        assert all(b >= a for a, b in zip(yb, yb[1:]))

    def test_flat_prior_posterior_curve_is_uniform_at_boundary(self):
        # with tau huge and a wide margin, the combined posterior measure at
        # the lower boundary reduces to the (uniform) one-sided p-value
        margin = EquivalenceMargin(0.0, 10.0)
        grid = np.arange(0.1, 0.95, 0.1)
        points = normal_curves(NormalSampling(1.0, 25), NormalPrior(1e6), margin, 0.0, grid)
        for point in points:
            assert abs(point.y_bayes - point.x) <= 1e-12

    @pytest.mark.parametrize("design", [
        # the noise-cdf golden config
        (NormalSampling(2.0, 30), NormalPrior(0.5), EquivalenceMargin(1.0, 4.0), 1.5),
        (NormalSampling(1.0, 10), NormalPrior(0.2), EquivalenceMargin(0.0, 0.8), 0.9),
        (NormalSampling(2.4, 45), NormalPrior(2.0), EquivalenceMargin(1.5, 2.2), 1.85),
        # 2 Phi(-k) = 0.96: every region of the grid is empty
        (NormalSampling(1.0, 10), NormalPrior(0.1), EquivalenceMargin(0.0, 0.1), 0.0),
    ])
    def test_posterior_column_matches_monte_carlo(self, design):
        # the share of seeded sample means whose posterior evidence is at
        # or below t lies within 5 binomial SEs of the exact column
        samp, prior, margin, theta = design
        grid = np.linspace(0.05, 0.95, 19)
        reps = 40_000
        xbar = spawn_rng(2024, 0).standard_normal(reps) * (samp.sigma / samp.root_n) + theta
        coef = posterior_coefficient(samp, prior)
        evidence = np.sort(np.clip(stats.norm.cdf(coef * (margin.theta1 - xbar))
                                   + stats.norm.cdf(coef * (xbar - margin.theta2)), 0.0, 1.0))
        share = np.searchsorted(evidence, grid, side="right") / reps
        exact = np.array([p.y_bayes for p in normal_curves(samp, prior, margin, theta, grid)])
        se = np.sqrt(exact * (1.0 - exact) / reps)
        assert np.all(np.abs(share - exact) <= 5.0 * se)

    def test_subnormal_prior_sd_gives_zero_cdf(self):
        # sigma / tau overflows, so the coefficient is 0 and the evidence 1
        points = normal_curves(NormalSampling(1e-15, 30), NormalPrior(5e-324),
                               EquivalenceMargin(1.0, 4.0), 1.5, [0.05, 0.5, 0.95])
        assert [p.y_bayes for p in points] == [0.0, 0.0, 0.0]

    def test_no_prior_gives_nan_bayes_column(self):
        points = normal_curves(NormalSampling(1.0, 10), None, EquivalenceMargin(0.0, 2.0), 1.0,
                               [0.2, 0.5])
        assert math.isnan(points[0].y_bayes)
        assert 0.0 <= points[0].y_frequentist <= 1.0


class TestTableSimulation:
    def test_mc_agrees_with_exact_enumeration(self):
        for prior in (None, BetaPrior(0.5, 0.5), BetaPrior(3, 3)):
            spec = spec_binom(50, (0.25, 0.75), prior)
            res = table_simulation(spec, reps=10_000, seed=42)
            for mc, exact in ((res.mc_type1, res.exact_type1),
                              (res.mc_power, res.exact_power)):
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / res.reps)
                assert abs(mc - exact) <= 3 * se + 1e-9

    def test_deterministic_given_seed(self):
        spec = spec_binom(40, (0.25, 0.75), BetaPrior(1, 1))
        a = table_simulation(spec, reps=2000, seed=7)
        b = table_simulation(spec, reps=2000, seed=7)
        assert a == b

    @pytest.mark.parametrize("row", [0, 3])
    def test_streams_are_numpys_seed_sequence_streams(self, row):
        # the null and alternative draws of table row r are the streams
        # (seed, 2r) and (seed, 2r + 1), built here straight from numpy's
        # SeedSequence
        spec = spec_binom(40, (0.25, 0.75))
        res = table_simulation(spec, reps=3000, seed=11, theta_alt=0.45, row=row)
        c, d = _reject_regions(spec)[0]
        for rate, path, theta in ((res.mc_type1, 2 * row, 0.25),
                                  (res.mc_power, 2 * row + 1, 0.45)):
            s = numpy_stream(11, path).binomial(40, theta, size=3000)
            assert rate == float(np.mean((c <= s) & (s <= d)))

    def test_builds_only_the_region_it_reads(self, monkeypatch):
        # with a prior only the Bayesian region, without one only the
        # frequentist region; the rates are those of that region
        for prior, unread in ((BetaPrior(0.5, 1.2), "binom_critical_constants"),
                              (None, "posterior_values")):
            spec = spec_binom(60, (0.3, 0.7), prior)
            c, d = _reject_regions(spec)[0 if prior is None else 1]
            want = binomial_interval_prob(60, c, d, (0.3, 0.4))
            with monkeypatch.context() as patch:
                patch.setattr(power, unread, lambda *args: pytest.fail(f"{unread} called"))
                res = table_simulation(spec, reps=500, seed=3)
            assert (res.exact_type1, res.exact_power) == tuple(want.tolist())

    @pytest.mark.parametrize("theta_alt", [1.5, -0.5, math.nan])
    def test_theta_alt_outside_unit_interval_is_refused(self, theta_alt):
        spec = spec_binom(10, (0.25, 0.75))
        with pytest.raises(ValueError, match=r"theta_alt must lie in \[0, 1\]"):
            table_simulation(spec, reps=10, seed=0, theta_alt=theta_alt)
