"""Seeded study lists for the benchmark workloads.

A workload is a list of studies, each one ``equilab`` command line.  The
workload seed fixes every drawn parameter (margins, priors, levels, Monte
Carlo seeds); the sizes that set the cost (n, grid lengths, replications,
draws) are fixed, so runs with different seeds do the same amount of work.

Each study is a dict with ``id``, ``kind`` (the subcommand), ``params``
(what the output checks need) and ``argv`` (what the program receives).
"""

import math
import random

N_VALUES = (10, 50, 100, 300)
# the CLI's default grids, 0.05:0.95:0.05 and 0.01:0.99:0.01, so every curve
# repeats its per-grid-point work as often as a default run does
T_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
THETA_GRID = tuple(round(0.01 * i, 2) for i in range(1, 100))
# n = 300 takes 5-point grids: at the default grids its two curves alone
# take about 30 s per pass (27 s of it the 99-point power curves)
LARGE_N = 300
LARGE_T_GRID = T_GRID[::4]
LARGE_CURVE_POINTS = 5
TABLE_REPS = 10_000
FDR_REPS = 80
FDR_K1_GRID = "10:990:50"   # 20 points, the CLI default
MC_DRAWS = 1_000_000
NOISE_REPS = 100_000
NOISE_T_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def _num(value) -> str:
    return repr(float(value))


def _csv(values) -> str:
    return ",".join(_num(v) for v in values)


def _study(kind, study_id, params, flags):
    return {"id": study_id, "kind": kind, "params": params,
            "argv": [kind] + [str(part) for part in flags]}


def _exact_binomial(rng: random.Random):
    """Every binomial study kind over small and large n, with and without a
    Beta prior, on the default grids up to n = 100; the n = 100 prior power
    curve uses unequal tail levels."""
    studies = []
    for n in N_VALUES:
        for with_prior in (False, True):
            for kind in ("conservativity", "power-curve", "theta-max", "tables"):
                lo = round(rng.uniform(0.15, 0.35), 2)
                hi = round(lo + rng.uniform(0.3, 0.45), 2)
                prior = ((round(rng.uniform(0.5, 3.0), 1), round(rng.uniform(0.5, 3.0), 1))
                         if with_prior else None)
                levels = (0.05, 0.025) if (n, with_prior, kind) == (100, True, "power-curve") \
                    else (0.05, 0.05)
                params = {"n": n, "margin": [lo, hi], "prior": prior, "levels": levels}
                flags = ["--n", n, "--margin", _csv((lo, hi)),
                         "--alpha-upper", _num(levels[0]), "--alpha-lower", _num(levels[1])]
                if prior:
                    flags += ["--prior-beta", _csv(prior)]
                if kind == "conservativity":
                    grid = list(LARGE_T_GRID if n == LARGE_N else T_GRID)
                    params.update(theta=lo, grid=grid)
                    flags += ["--theta", _num(lo), "--t-grid", _csv(grid)]
                elif kind == "power-curve":
                    grid = list(THETA_GRID)
                    if n == LARGE_N:
                        step = (hi - lo + 0.2) / (LARGE_CURVE_POINTS - 1)
                        grid = [round(lo - 0.1 + i * step, 3)
                                for i in range(LARGE_CURVE_POINTS)]
                    params["grid"] = grid
                    flags += ["--theta-grid", _csv(grid)]
                elif kind == "theta-max":
                    params["resolution"] = 1e-3
                    flags += ["--resolution", "0.001"]
                else:
                    theta_alt = round(rng.uniform(lo + 0.05, hi - 0.05), 3)
                    seed = rng.randrange(1, 2 ** 31)
                    params.update(theta_alt=theta_alt, reps=TABLE_REPS, seed=seed)
                    flags = ["--row", f"n={n}"] + flags[2:] + [
                        "--theta-alt", _num(theta_alt), "--reps", TABLE_REPS, "--seed", seed]
                tag = "beta" if prior else "p"
                studies.append(_study(kind, f"{kind}-n{n}-{tag}", params, flags))
    return studies


def _fdr_sweep(rng: random.Random):
    """The README ``fdr-power`` shape with frequentist, Bayesian and adaptive
    evidence on one shared seed (paired draws)."""
    seed = rng.randrange(1, 2 ** 31)
    base = {"k": 1000, "n": 100, "margin": [0.0, 1.5], "sigma": 1.0, "epsilon_star": 0.5,
            "tau": 0.25, "alpha": 0.05, "storey_lambda": 0.5, "reps": FDR_REPS,
            "seed": seed, "k1_grid": list(range(10, 991, 50))}
    flags = ["--k", 1000, "--k1-grid", FDR_K1_GRID, "--n", 100, "--margin", "0,1.5",
             "--sigma", 1.0, "--epsilon-star", 0.5, "--tau", 0.25, "--alpha", 0.05,
             "--storey-lambda", 0.5, "--reps", FDR_REPS, "--seed", seed]
    return [
        _study("fdr-power", "fdr-frequentist", dict(base, evidence="frequentist",
                                                    adaptive=False),
               flags + ["--evidence", "frequentist"]),
        _study("fdr-power", "fdr-bayesian", dict(base, evidence="bayesian", adaptive=False),
               flags + ["--evidence", "bayesian"]),
        _study("fdr-power", "fdr-adaptive", dict(base, evidence="frequentist", adaptive=True),
               flags + ["--evidence", "frequentist", "--adaptive"]),
    ]


def _normal_bulk(rng: random.Random):
    """Million-draw correlation Monte Carlo in all three modes plus the
    noise-model evidence CDF with its posterior column."""
    w = round(rng.uniform(0.2, 0.9), 3)
    n = rng.randrange(20, 61)
    sigma = round(rng.uniform(1.0, 3.0), 2)
    tau = round(rng.uniform(0.2, 1.0), 2)
    center = round(rng.uniform(1.0, 3.0), 2)
    # half-width at 0.5..2.5 standard errors keeps both one-sided p-values
    # away from constant samples, where a correlation is undefined
    eps = round(rng.uniform(0.5, 2.5) * sigma / math.sqrt(n), 4)
    margin = [round(center - eps, 4), round(center + eps, 4)]
    theta = round(rng.uniform(margin[0] - eps, margin[1] + eps), 4)
    design = ["--n", n, "--sigma", _num(sigma), "--margin", _csv(margin)]
    seeds = [rng.randrange(1, 2 ** 31) for _ in range(4)]
    common = {"n": n, "sigma": sigma, "margin": margin}
    return [
        _study("correlation", "corr-two-sided", {"mode": "two_sided", "w": w},
               ["--two-sided", "--w", _num(w), "--mc", "--draws", MC_DRAWS,
                "--seed", seeds[0]]),
        _study("correlation", "corr-equivalence", dict(common, mode="equivalence", tau=tau),
               ["--equivalence"] + design + ["--tau", _num(tau), "--mc",
                                             "--draws", MC_DRAWS, "--seed", seeds[1]]),
        _study("correlation", "corr-partial", dict(common, mode="partial"),
               ["--partial"] + design + ["--draws", MC_DRAWS, "--seed", seeds[2]]),
        _study("noise-cdf", "noise-cdf", dict(common, theta=theta, tau=tau,
                                              grid=list(NOISE_T_GRID)),
               design + ["--theta", _num(theta), "--tau", _num(tau),
                         "--t-grid", _csv(NOISE_T_GRID), "--reps", NOISE_REPS,
                         "--seed", seeds[3]]),
    ]


WORKLOADS = {
    "exact-binomial": _exact_binomial,
    "fdr-sweep": _fdr_sweep,
    "normal-bulk": _normal_bulk,
}


def support_size(study) -> int:
    """(n + 1) times the evidence measures a binomial study reports, 0 for
    other studies: the per-count evidence evaluations an ideal engine
    makes, once per measure.  Tables report one measure, the Bayesian one
    when a prior is given."""
    params = study["params"]
    if study["kind"] not in ("conservativity", "power-curve", "theta-max", "tables"):
        return 0
    measures = 2 if params["prior"] and study["kind"] != "tables" else 1
    return (params["n"] + 1) * measures


def build(workload: str, seed: int, out_dir: str):
    """The workload's studies for ``seed``, each writing ``<out_dir>/<id>.csv``."""
    studies = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for study in studies:
        study["out"] = f"{out_dir}/{study['id']}.csv"
        study["argv"] += ["--out", study["out"]]
    return studies
