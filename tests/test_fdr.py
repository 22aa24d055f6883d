"""Step-up procedures, decision bookkeeping, and the power simulation."""

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import numpy_stream
from hypothesis import strategies as st

from equilab import (DecisionTable, EquivalenceMargin, FdrExperiment, NormalPrior,
                     NormalSampling, adaptive_bh, bh_procedure, fdr_power_simulation,
                     normal_cdf, posterior_coefficient, score_decisions, spawn_rng)
from equilab import fdr, normal, special
from equilab.fdr import COMBINATIONS, EVIDENCE_KINDS, SAMPLING_MODES
from equilab.special import SLICE_ELEMENTS


def brute_force_deciding_point(pvals, alpha, k0=None):
    p = np.sort(np.asarray(pvals, float))
    k = p.size
    k0 = k if k0 is None else k0
    d = 0
    for j in range(1, k + 1):
        if p[j - 1] <= j * alpha / k0:
            d = j
    return d


class TestBhProcedure:
    def test_hand_worked_example(self):
        pvals = [0.001, 0.002] + [0.9] * 8
        d, rejected = bh_procedure(pvals, 0.05)
        assert d == 2
        assert list(rejected) == [0, 1]

    def test_all_ones_rejects_nothing(self):
        d, rejected = bh_procedure(np.ones(10), 0.05)
        assert d == 0 and rejected.size == 0

    def test_all_zeros_rejects_everything(self):
        d, rejected = bh_procedure(np.zeros(10), 0.05)
        assert d == 10 and list(rejected) == list(range(10))

    def test_step_up_rescues_failing_smaller_pvalue(self):
        # p_(1)=0.017 fails its own threshold 0.0167 but is rejected because
        # ranks 2 and 3 qualify
        d, rejected = bh_procedure([0.017, 0.032, 0.05], 0.05)
        assert d == 3
        assert list(rejected) == [0, 1, 2]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
           st.floats(0.01, 0.3))
    def test_matches_brute_force(self, pvals, alpha):
        d, rejected = bh_procedure(pvals, alpha)
        assert d == brute_force_deciding_point(pvals, alpha)
        assert rejected.size == d
        if d:
            cutoff = np.sort(np.asarray(pvals))[d - 1]
            assert all(pvals[i] <= cutoff for i in rejected)
        assert list(rejected) == sorted(np.argsort(pvals, kind="stable")[:d])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bh_procedure([], 0.05)
        with pytest.raises(ValueError):
            bh_procedure([0.5, 1.2], 0.05)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            bh_procedure([np.nan, 0.001, 0.002], 0.05)


class TestFirstRanks:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-6, 0.999), st.integers(1, 3000), st.data())
    def test_matches_searchsorted(self, alpha, k, data):
        # k0 as the plain procedure (an integer up to k) or the plug-in
        # estimate (1 + m) / (1 - lam) capped at k uses it
        if data.draw(st.booleans()):
            lam = data.draw(st.floats(0.01, 0.99))
            k0 = min(float(k), (1 + data.draw(st.integers(0, k))) / (1 - lam))
        else:
            k0 = float(data.draw(st.integers(1, k)))
        thresholds = alpha * np.arange(1, k + 1) / k0
        t = thresholds[data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=20))]
        p = np.concatenate((t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                            data.draw(st.lists(st.floats(0.0, 1.0), max_size=20))))
        p = p[(p >= 0.0) & (p <= 1.0)]
        expected = 1 + np.searchsorted(thresholds, p)
        assert np.array_equal(fdr._first_ranks(p, alpha, k0, k), expected)


class TestAdaptiveBh:
    def test_uniform_pvalues_estimate_full_null(self):
        rng = spawn_rng(123, 0)
        pvals = rng.random(1000)
        _, _, k0_hat = adaptive_bh(pvals, 0.05, lam=0.5)
        assert k0_hat == pytest.approx(1000, abs=60)  # binomial noise, capped

    def test_cap_at_k(self):
        _, _, k0_hat = adaptive_bh(np.ones(20), 0.05, lam=0.5)
        assert k0_hat == 20

    def test_small_pvalues_reject_at_least_bh(self):
        rng = spawn_rng(5, 0)
        pvals = rng.random(50) * 0.01
        d_plain, _ = bh_procedure(pvals, 0.05)
        d_adapt, _, k0_hat = adaptive_bh(pvals, 0.05, lam=0.5)
        assert k0_hat < 50
        assert d_adapt >= d_plain

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_dominates_plain_step_up(self, pvals):
        _, rej_plain = bh_procedure(pvals, 0.05)
        _, rej_adapt, _ = adaptive_bh(pvals, 0.05)
        assert set(rej_plain) <= set(rej_adapt)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
           st.floats(0.01, 0.3), st.floats(0.05, 0.95))
    def test_matches_brute_force(self, pvals, alpha, lam):
        d, rejected, k0_hat = adaptive_bh(pvals, alpha, lam)
        k = len(pvals)
        assert k0_hat == min(k, (1 + sum(p > lam for p in pvals)) / (1 - lam))
        assert d == brute_force_deciding_point(pvals, alpha, k0_hat)
        assert list(rejected) == sorted(np.argsort(pvals, kind="stable")[:d])

    def test_fdr_control_under_full_null(self):
        # all-null configuration; average false discovery proportion stays
        # at or below the nominal level (Storey-type estimator with +1)
        reps, k, alpha = 1000, 100, 0.05
        fdps = np.empty(reps)
        for rep in range(reps):
            rng = spawn_rng(2718, rep)
            pvals = rng.random(k)
            _, rejected, _ = adaptive_bh(pvals, alpha, lam=0.5)
            fdps[rep] = 1.0 if rejected.size else 0.0
        mc_se = fdps.std() / np.sqrt(reps)
        assert fdps.mean() <= alpha + 3 * mc_se

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            adaptive_bh([0.5], 0.05, lam=1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            adaptive_bh([np.nan, 0.001, 0.9], 0.05)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            adaptive_bh([], 0.05)
        with pytest.raises(ValueError):
            adaptive_bh([1.5, -0.2, 0.01], 0.05)
        with pytest.raises(ValueError):
            adaptive_bh([[0.1, 0.2]], 0.05)


class TestScoreDecisions:
    def test_no_rejections(self):
        table = score_decisions([], [True, False, True])
        assert table.fdp() == 0.0
        assert table.R == 0 and table.W == 3

    def test_perfect_rejection(self):
        truth = [True] * 4 + [False] * 6
        table = score_decisions([0, 1, 2, 3], truth)
        assert table.power() == 1.0 and table.fdp() == 0.0
        assert (table.U, table.V, table.T, table.S) == (6, 0, 0, 4)

    def test_reject_everything_counts(self):
        truth = [True] * 500 + [False] * 500
        table = score_decisions(list(range(1000)), truth)
        assert table.fdp() == 0.5 and table.power() == 1.0
        assert table.k0 == 500 and table.R == 1000

    def test_margins_add_up(self):
        table = score_decisions([0, 2, 5], [True, True, False, False, True, False])
        assert table.U + table.V == table.k0
        assert table.T + table.S == table.k1
        assert table.W + table.R == table.k

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            score_decisions([5], [True, False])

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            DecisionTable(k=3, k0=2, V=3, S=0)


def desk_experiment(**overrides):
    base = dict(k=100, k1_grid=(10, 50, 90), n=30, margin=EquivalenceMargin(0.0, 2.0),
                sigma=1.0, tau=0.25, epsilon_star=0.5, alpha=0.05, reps=60,
                seed=99, evidence="frequentist")
    base.update(overrides)
    return FdrExperiment(**base)


class TestExperimentValidation:
    def test_k1_out_of_range(self):
        with pytest.raises(ValueError):
            desk_experiment(k1_grid=(10, 200))

    def test_epsilon_too_large(self):
        with pytest.raises(ValueError):
            desk_experiment(epsilon_star=1.0)

    @pytest.mark.parametrize("lam", [1.5, 1.0, 0.0, -0.5, float("nan")])
    def test_storey_lambda_outside_unit_interval(self, lam):
        with pytest.raises(ValueError, match="storey_lambda"):
            desk_experiment(adaptive=True, storey_lambda=lam)

    def test_bad_enums(self):
        with pytest.raises(ValueError):
            desk_experiment(evidence="fiducial")
        with pytest.raises(ValueError):
            desk_experiment(sampling="resample")
        with pytest.raises(ValueError):
            desk_experiment(combination="sum")


class TestPowerSimulation:
    def test_no_true_nulls_gives_zero_fdr(self):
        res = fdr_power_simulation(desk_experiment(k1_grid=(100,)))
        assert res[0].mean_fdr == 0.0
        assert res[0].k1 == 100

    def test_deterministic_for_fixed_seed(self):
        a = fdr_power_simulation(desk_experiment())
        b = fdr_power_simulation(desk_experiment())
        assert a == b

    def test_seed_changes_output(self):
        a = fdr_power_simulation(desk_experiment())
        b = fdr_power_simulation(desk_experiment(seed=100))
        assert a != b

    def test_frequentist_at_least_bayesian_small_tau(self):
        freq = fdr_power_simulation(desk_experiment())
        bayes = fdr_power_simulation(desk_experiment(evidence="bayesian"))
        for f, b in zip(freq, bayes):
            assert f.mean_power >= b.mean_power - 3 * (f.se_power + b.se_power)

    def test_fdr_controlled(self):
        for point in fdr_power_simulation(desk_experiment()):
            bound = 0.05 * (100 - point.k1) / 100
            assert point.mean_fdr <= bound + 3 * point.se_fdr + 1e-12

    def test_adaptive_at_least_plain_power(self):
        plain = fdr_power_simulation(desk_experiment())
        adaptive = fdr_power_simulation(desk_experiment(adaptive=True))
        for p, a in zip(plain, adaptive):
            assert a.mean_power >= p.mean_power - 1e-12

    def test_per_tail_evidence_ignores_margin_width(self):
        # each tail is generated around its own boundary, so widening the
        # margin changes nothing in this sampling mode
        wide = fdr_power_simulation(desk_experiment(margin=EquivalenceMargin(0.0, 6.0)))
        narrow = fdr_power_simulation(desk_experiment(margin=EquivalenceMargin(0.0, 2.0)))
        assert wide == narrow

    def test_shared_mode_power_grows_with_margin(self):
        # a single latent mean per hypothesis makes the opposite tail feel
        # the full margin width, so wider margins are strictly easier
        narrow = fdr_power_simulation(desk_experiment(sampling="shared",
                                                      margin=EquivalenceMargin(0.0, 1.5)))
        wide = fdr_power_simulation(desk_experiment(sampling="shared",
                                                    margin=EquivalenceMargin(0.0, 4.5)))
        for lo, hi in zip(narrow, wide):
            assert hi.mean_power >= lo.mean_power - 3 * (hi.se_power + lo.se_power)
        assert sum(p.mean_power for p in wide) > sum(p.mean_power for p in narrow)

    def test_literal_variance_mode_runs(self):
        res = fdr_power_simulation(desk_experiment(sampling="per_tail_literal",
                                                   k1_grid=(50,), reps=20))
        assert 0.0 <= res[0].mean_power <= 1.0

    def test_difference_combination_mode(self):
        res = fdr_power_simulation(desk_experiment(combination="difference",
                                                   k1_grid=(50,), reps=20))
        assert 0.0 <= res[0].mean_power <= 1.0


def reference_simulation(exp):
    """One replication at a time: grid point i draws from numpy's own
    SFC64 stream of SeedSequence(seed, spawn_key=(i,)), each replication taking
    the next k normals for the first tail and the next k for the second,
    then the public step-up procedures and score_decisions."""
    t1, t2, root_n = exp.margin.theta1, exp.margin.theta2, math.sqrt(exp.n)
    results = []
    for k1_idx, k1 in enumerate(exp.k1_grid):
        truth = np.arange(exp.k) < k1
        powers, fdps = np.empty(exp.reps), np.empty(exp.reps)
        rng = numpy_stream(exp.seed, k1_idx)
        for rep in range(exp.reps):
            first, second = rng.standard_normal(exp.k), rng.standard_normal(exp.k)
            if exp.sampling == "shared":
                boundary = np.where(first < 0.0, t1, t2)
                theta = np.where(truth, t1 + exp.epsilon_star, boundary)
                xbar = theta + exp.sigma / root_n * second
                z_r = root_n / exp.sigma * (xbar - t1)
                z_l = root_n / exp.sigma * (xbar - t2)
            else:
                literal = exp.sampling == "per_tail_literal"
                sd = exp.sigma if literal else exp.sigma / root_n
                scale = 1.0 / exp.sigma if literal else root_n / exp.sigma
                x_r = np.where(truth, t1 + exp.epsilon_star, t1) + sd * first
                x_l = np.where(truth, t2 - exp.epsilon_star, t2) + sd * second
                z_r, z_l = scale * (x_r - t1), scale * (x_l - t2)
            if exp.evidence == "bayesian":
                shrink = posterior_coefficient(NormalSampling(exp.sigma, exp.n),
                                               NormalPrior(exp.tau)) * exp.sigma / root_n
                evidence = np.clip(normal_cdf(shrink * -z_r) + normal_cdf(shrink * z_l),
                                   0.0, 1.0)
            elif exp.combination == "max":
                evidence = np.maximum(normal_cdf(-z_r), normal_cdf(z_l))
            else:
                evidence = np.abs(normal_cdf(z_l) - normal_cdf(-z_r))
            if exp.adaptive:
                _, rejected, _ = adaptive_bh(evidence, exp.alpha, exp.storey_lambda)
            else:
                _, rejected = bh_procedure(evidence, exp.alpha)
            table = score_decisions(rejected, truth)
            powers[rep], fdps[rep] = table.power(), table.fdp()
        results.append((int(k1), float(powers.mean()), float(fdps.mean()),
                        float(powers.std() / math.sqrt(exp.reps)),
                        float(fdps.std() / math.sqrt(exp.reps))))
    return results


DESK_DESIGN = {"alpha": 0.1, "n": 40}
SWEEP_DESIGN = {"alpha": 0.05, "n": 100}  # the fdr-sweep benchmark studies


class TestBlockBatching:
    """The block-batched simulation equals the one-replication-at-a-time
    reference exactly, field for field, in every mode."""

    K, REPS = 1000, 21  # blocks of SLICE_ELEMENTS // K rows: 16 + 5

    @pytest.mark.parametrize(
        "evidence, sampling, combination, adaptive, design",
        [pytest.param(*mode, DESK_DESIGN, id="-".join(map(str, mode)))
         for mode in itertools.product(EVIDENCE_KINDS, SAMPLING_MODES, COMBINATIONS,
                                       (False, True))]
        + [pytest.param(evidence, "per_tail", "max", adaptive, SWEEP_DESIGN,
                        id=f"fdr-sweep-{name}")
           for name, evidence, adaptive in (("frequentist", "frequentist", False),
                                            ("bayesian", "bayesian", False),
                                            ("adaptive", "frequentist", True))])
    def test_equals_per_replication_reference(self, evidence, sampling, combination,
                                              adaptive, design):
        assert self.REPS % max(1, SLICE_ELEMENTS // self.K) != 0
        exp = FdrExperiment(k=self.K, k1_grid=(0, 370, self.K), n=design["n"],
                            margin=EquivalenceMargin(0.0, 1.5), sigma=1.0, tau=0.25,
                            epsilon_star=0.5, alpha=design["alpha"], reps=self.REPS, seed=4242,
                            evidence=evidence, sampling=sampling,
                            combination=combination, adaptive=adaptive)
        got = [(p.k1, p.mean_power, p.mean_fdr, p.se_power, p.se_fdr)
               for p in fdr_power_simulation(exp)]
        assert got == reference_simulation(exp)

    @pytest.mark.parametrize("evidence", EVIDENCE_KINDS)
    def test_adaptive_thresholds_above_lam(self, evidence):
        # few hypotheses, a large alpha and a small lam: a row's smallest
        # threshold alpha / k0 can lie above lam, so values near lam can also
        # lie below the rank-1 cutoff
        exp = FdrExperiment(k=4, k1_grid=(0, 2, 4), n=40, margin=EquivalenceMargin(0.0, 1.5),
                            sigma=1.0, tau=0.25, epsilon_star=0.5, alpha=0.6, reps=300,
                            seed=17, evidence=evidence, adaptive=True, storey_lambda=0.2)
        got = [(p.k1, p.mean_power, p.mean_fdr, p.se_power, p.se_fdr)
               for p in fdr_power_simulation(exp)]
        assert got == reference_simulation(exp)

    def test_single_row_blocks(self):
        # k beyond the block bound: one replication per block
        exp = FdrExperiment(k=SLICE_ELEMENTS + 1, k1_grid=(0, 4000), n=40,
                            margin=EquivalenceMargin(0.0, 1.5), sigma=1.0, tau=0.25,
                            epsilon_star=0.5, alpha=0.1, reps=3, seed=9, adaptive=True)
        got = [(p.k1, p.mean_power, p.mean_fdr, p.se_power, p.se_fdr)
               for p in fdr_power_simulation(exp)]
        assert got == reference_simulation(exp)

    @pytest.mark.parametrize("evidence, sampling, combination, adaptive",
                             list(itertools.product(EVIDENCE_KINDS, SAMPLING_MODES,
                                                    COMBINATIONS, (False, True))))
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, evidence, sampling,
                                                     combination, adaptive):
        exp = FdrExperiment(k=300, k1_grid=(0, 111, 300), n=40,
                            margin=EquivalenceMargin(0.0, 1.5), sigma=1.0, tau=0.25,
                            epsilon_star=0.5, alpha=0.1, reps=13, seed=77,
                            evidence=evidence, sampling=sampling,
                            combination=combination, adaptive=adaptive)
        want = fdr_power_simulation(exp)
        # blocks of 1, 4, 10 and all 13 rows
        for elements in (1, 4 * exp.k + 1, 3000, 10**6):
            monkeypatch.setattr(fdr, "SLICE_ELEMENTS", elements)
            assert fdr_power_simulation(exp) == want


class TestScreen:
    """The simulation's screened step-up equals the step-up on fully
    evaluated evidence, also for tail statistics placed on the screen's
    z cutoffs, at the slack either side and one ulp either side."""

    LAM = 0.5

    @staticmethod
    def evidence(kind, z_r, z_l):
        p_r, p_l = normal_cdf(-z_r), normal_cdf(z_l)
        if kind == "bayesian":
            return np.clip(p_r + p_l, 0.0, 1.0)
        return np.maximum(p_r, p_l)

    @staticmethod
    def probes(t, factor):
        """Larger-tail z values around both cutoffs of threshold t, also
        where thresholds under the screen's floor leave them unused."""
        values = []
        q = special._acklam_quantile
        for cutoff in (q(t / factor) - fdr._Z_SLACK, q(t) + fdr._Z_SLACK):
            values += [cutoff - fdr._Z_SLACK, np.nextafter(cutoff, -np.inf), cutoff,
                       np.nextafter(cutoff, np.inf), cutoff + fdr._Z_SLACK]
        return np.array(values)

    @staticmethod
    def pairs(u):
        """(z_r, z_l) with the left tail, the right tail or both at u; the
        other tail is negligible."""
        far = np.full_like(u, 40.0)
        return np.concatenate((far, -u, -u)), np.concatenate((u, -far, u))

    @pytest.mark.parametrize("evidence, combination, adaptive",
                             [("bayesian", "max", False), ("bayesian", "max", True),
                              *itertools.product(["frequentist"], COMBINATIONS, (False, True))])
    def test_screen_evaluates_nothing(self, monkeypatch, evidence, combination, adaptive):
        def refuse(*args, **kwargs):
            raise AssertionError("the screen evaluated evidence")

        monkeypatch.setattr(normal, "normal_cdf", refuse)
        monkeypatch.setattr(fdr, "_evidence", refuse)
        exp = desk_experiment(evidence=evidence, combination=combination, adaptive=adaptive)
        z_r, z_l = spawn_rng(5, 0).standard_normal((2, 16, exp.k))
        n1, _, _, values, tails = fdr._screen_block(exp, z_r, z_l, 1.0,
                                                    fdr._screen_cutoffs(exp), 10)
        assert tails.shape == (2, values.size) and n1.shape == (16,)

    @pytest.mark.parametrize("evidence", EVIDENCE_KINDS)
    def test_adaptive_cutoff_table_equals_per_row_cutoffs(self, evidence):
        # the table, indexed by a row's count above lam, holds the cutoffs
        # at that row's own plug-in k0
        exp = desk_experiment(evidence=evidence, adaptive=True, storey_lambda=self.LAM)
        factor = 2.0 if evidence == "bayesian" else 1.0
        at_lam, k0, table = fdr._screen_cutoffs(exp)
        assert np.array_equal(at_lam, [fdr._z_cutoff(self.LAM / factor, -1.0),
                                       fdr._z_cutoff(self.LAM, 1.0)])
        assert k0.size == table.shape[1] == exp.k + 1
        for count in range(exp.k + 1):
            row_k0 = fdr._plug_in_k0(exp.k, np.array([count]), self.LAM)[0]
            assert k0[count] == row_k0
            assert table[0, count] == fdr._z_cutoff(exp.alpha / row_k0 / factor, -1.0)
            assert table[1, count] == fdr._z_cutoff(exp.alpha * exp.k / row_k0, 1.0)

    @pytest.mark.parametrize("alpha", [0.05, 1e-15, 1e-100, 1e-300, 1e-320])
    @pytest.mark.parametrize("evidence, adaptive", [("frequentist", False),
                                                    ("bayesian", False),
                                                    ("frequentist", True),
                                                    ("bayesian", True)])
    def test_equals_full_evaluation_on_cutoffs(self, evidence, adaptive, alpha):
        exp = desk_experiment(alpha=alpha, evidence=evidence, adaptive=adaptive,
                              storey_lambda=self.LAM)
        lam = self.LAM if adaptive else None
        factor = 2.0 if evidence == "bayesian" else 1.0
        rows_r, rows_l = [], []
        for row, nulls in enumerate((60, 150, 240)):
            rng = spawn_rng(31, row)
            # nulls sit on the boundaries, alternatives well inside the margin
            shift = np.where(np.arange(300) < nulls, 0.0, 4.0)
            z_r = shift + rng.standard_normal(300)
            z_l = -shift + rng.standard_normal(300)
            lam_r, lam_l = self.pairs(self.probes(self.LAM, factor))
            z_r, z_l = np.concatenate((z_r, lam_r)), np.concatenate((z_l, lam_l))
            # every value placed below carries evidence under alpha <= lam, so
            # the count above lam, and k0, are those of the values so far;
            # two thresholds, ten probes each, three pairs per probe
            k = z_r.size + 2 * 10 * 3
            k0 = float(k)
            if adaptive:
                above = np.sum(self.evidence(evidence, z_r, z_l) > self.LAM)
                k0 = min(float(k), (1.0 + above) / (1.0 - self.LAM))
            probe = np.concatenate((self.probes(alpha / k0, factor),
                                    self.probes(alpha * k / k0, factor)))
            probe_r, probe_l = self.pairs(probe)
            assert np.all(self.evidence(evidence, probe_r, probe_l) <= self.LAM)
            rows_r.append(np.concatenate((z_r, probe_r)))
            rows_l.append(np.concatenate((z_l, probe_l)))
            assert rows_r[-1].size == k
        z_r, z_l = np.array(rows_r), np.array(rows_l)
        p = self.evidence(evidence, z_r, z_l)
        rank, d, _ = fdr._step_up(p, alpha, lam)
        exp = replace(exp, k=k)
        cutoffs = fdr._screen_cutoffs(exp)
        for k1 in (0, 1, k // 2, k):
            block = fdr._screen_block(exp, z_r, z_l, 1.0, cutoffs, k1)
            # every value that can pass after rank 1 is evaluated, n1 counts
            # true rank-1 values, and the count above lam splits exactly
            n1, _, above, values, _ = block
            evaluated = np.isin(np.arange(p.size), values).reshape(p.shape)
            assert not np.any((rank > 1) & (rank <= k) & ~evaluated)
            assert np.array_equal(n1, np.sum((rank == 1) & ~evaluated, axis=1))
            if adaptive:
                assert np.array_equal(above, np.sum((p > lam) & ~evaluated, axis=1))
            got_d, got_s = fdr._decide(exp, k1, cutoffs[1], [block])
            assert np.array_equal(got_d, d)
            assert np.array_equal(got_s, np.sum(rank[:, :k1] <= d[:, np.newaxis], axis=1))
        assert d.min() > 0 and np.any((rank > 1) & (rank <= k))


@st.composite
def evidence_rows(draw):
    """(p, alpha, lam): a (rows x k) evidence matrix with ties, values at
    their row's thresholds alpha j / k0 and one ulp either side, zeros and
    ones; lam is None or a Storey lambda, with values at lam and one ulp
    either side."""
    rows, k = draw(st.integers(1, 4)), draw(st.integers(1, 25))
    alpha = draw(st.floats(0.01, 0.9))
    lam = draw(st.none() | st.floats(0.05, 0.95))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))  # repeats tie
    p = np.array(draw(st.lists(st.sampled_from(pool + [0.0, 1.0]) | st.floats(0.0, 1.0),
                               min_size=rows * k, max_size=rows * k))).reshape(rows, k)
    ulps = st.sampled_from((-1.0, 0.0, 1.0))
    if lam is not None:
        for _ in range(draw(st.integers(0, k))):
            r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, k - 1))
            p[r, c] = np.nextafter(lam, lam + draw(ulps))
    # values at or below lam keep the count above lam, and so k0, when they
    # move to a threshold at or below lam
    k0 = (np.full(rows, float(k)) if lam is None
          else fdr._plug_in_k0(k, np.sum(p > lam, axis=1), lam))
    for _ in range(draw(st.integers(0, 2 * k))):
        r, c, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, k - 1)), draw(
            st.integers(1, k))
        t = alpha * j / k0[r]
        t = np.nextafter(t, t + draw(ulps))
        if t <= 1.0 and (lam is None or (p[r, c] <= lam and t <= lam)):
            p[r, c] = t
    return p, alpha, lam


class TestBandDecisions:
    """D and S from rank-1 counts, counts above lam and the evaluated values
    equal the step-up's over the whole matrix, with the evidence of
    :func:`fdr._decide` taken as given."""

    @settings(max_examples=300, deadline=None)
    @given(evidence_rows(), st.data())
    def test_equals_step_up(self, case, data):
        p, alpha, lam = case
        rows, k = p.shape
        rank, d, _ = fdr._step_up(p, alpha, lam)
        # the evaluated values hold every one that can pass after rank 1, and
        # any others; a rank-1 value outside them counts in n1, a value above
        # lam outside them is settled there, a never-passing one is left out
        evaluated = np.array(data.draw(st.lists(st.booleans(), min_size=p.size,
                                                max_size=p.size))).reshape(p.shape)
        evaluated |= (rank > 1) & (rank <= k)
        exp = FdrExperiment(k=k, k1_grid=(), n=10, margin=EquivalenceMargin(0.0, 2.0),
                            sigma=1.0, tau=0.25, epsilon_star=0.5, alpha=alpha, reps=1,
                            seed=1, adaptive=lam is not None, storey_lambda=lam or 0.5)
        k0 = fdr._screen_cutoffs(exp)[1]
        above = (np.zeros(rows, dtype=np.intp) if lam is None
                 else np.sum((p > lam) & ~evaluated, axis=1))
        values = np.flatnonzero(evaluated)
        first = (rank == 1) & ~evaluated
        with mock.patch.object(fdr, "_evidence", lambda exp, tails: tails[0]):
            for k1 in sorted({0, data.draw(st.integers(0, k)), k}):
                block = (first.sum(axis=1), first[:, :k1].sum(axis=1), above, values,
                         np.stack((p.ravel()[values],) * 2))
                got_d, got_s = fdr._decide(exp, k1, k0, [block])
                assert np.array_equal(got_d, d)
                assert np.array_equal(got_s, np.sum(rank[:, :k1] <= d[:, np.newaxis], axis=1))


def freq_max_experiment():
    return desk_experiment(evidence="frequentist", combination="max")


class TestOneTailMax:
    """The frequentist max from its larger argument's tail alone equals the
    max of both tails bit for bit."""

    @staticmethod
    def both_tails(a, b):
        return np.maximum(normal_cdf(a), normal_cdf(b))

    def test_across_erfc_branch_edges(self):
        # erfc switches branch at |x| = 0.84375, 1.25, 1/0.35 and 28, x = -z / sqrt 2
        steps = np.concatenate((np.arange(-40, 41), [-1e6, -1e3, 1e3, 1e6]))
        z = []
        for edge in (0.84375, 1.25, 1 / 0.35, 28.0):
            for sign in (-1.0, 1.0):
                centre = sign * edge * math.sqrt(2.0)
                z.append(centre + steps * math.ulp(centre))
        z = np.concatenate(z)
        a, b = np.meshgrid(z, z)  # every pair of neighbours, on both sides of each edge
        a, b = a.ravel(), b.ravel()
        got = fdr._evidence(freq_max_experiment(), np.stack((a, b)))
        assert np.array_equal(got, self.both_tails(a, b))

    def test_near_ties(self):
        a = np.concatenate((-np.geomspace(1e-300, 40.0, 2000), [0.0],
                            np.geomspace(1e-300, 40.0, 2000)))
        for b in (a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf),
                  a * (1.0 + 0.999e-9), a * (1.0 - 0.999e-9),
                  a * (1.0 + 1.001e-9), a * (1.0 - 1.001e-9), a * (1.0 + 1e-6)):
            for pair in ((a, b), (b, a)):
                got = fdr._evidence(freq_max_experiment(), np.stack(pair))
                assert np.array_equal(got, self.both_tails(*pair))


class TestEvidenceBatches:
    """Consecutive blocks of a k1 point share one evidence call, the values
    near lam among them, and the calls do not grow with the replications:
    the blocks held before a call stay under ``SLICE_ELEMENTS // 2`` rows
    and values, and the last adds at most one block's values, two tail
    arguments a value."""

    @staticmethod
    def sweep(monkeypatch, reps, k1_grid, evidence="frequentist", adaptive=False):
        sizes = []

        def counted(z, out=None):
            sizes.append(z.size)
            return normal_cdf(z, out=out)

        monkeypatch.setattr(normal, "normal_cdf", counted)
        exp = FdrExperiment(k=1000, k1_grid=k1_grid, n=100, margin=EquivalenceMargin(0.0, 1.5),
                            sigma=1.0, tau=0.25, epsilon_star=0.5, alpha=0.05, reps=reps,
                            seed=2024, evidence=evidence, adaptive=adaptive)
        fdr_power_simulation(exp)
        return sizes

    def test_fdr_sweep_shape_calls_per_point(self, monkeypatch):
        # five blocks of 16 replications at each of the 20 points; the
        # adaptive values near lam join the band's call, none is evaluated
        # per block
        grid = tuple(range(10, 991, 50))
        for adaptive in (False, True):
            calls = len(self.sweep(monkeypatch, 80, grid, adaptive=adaptive))
            assert len(grid) <= calls <= 2 * len(grid)

    @pytest.mark.parametrize("evidence", EVIDENCE_KINDS)
    def test_largest_call_does_not_grow_with_reps(self, monkeypatch, evidence):
        grid = (10, 510, 960)
        bound = 2 * (SLICE_ELEMENTS // 2 + SLICE_ELEMENTS // 1000 * 1000)
        few = self.sweep(monkeypatch, 80, grid, evidence)
        many = self.sweep(monkeypatch, 1000, grid, evidence)
        assert len(many) > len(few)
        assert max(few) <= bound and max(many) <= bound
