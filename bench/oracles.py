"""Independent checks of each study's data file, with scipy as the oracle.

``check(study)`` returns a list of problems (empty when the output is
right).  The tolerances are stated here once:

* ``VALUE_TOL``: absolute tolerance on exact probabilities (curve values,
  exact table cells, normal-model CDF values).  The CSV keeps 12
  significant digits, so quantization alone is below 5e-13.
* ``EVIDENCE_BAND``: evidence values within this distance of a decision
  threshold may fall on either side; the oracle accepts any value between
  the two resulting answers.
* ``MC_SIGMAS``: Monte Carlo figures must lie within this many standard
  errors of the exact value (binomial standard error plus one count for
  the simulation tables, the reported ``std_error``/``se_fdr`` otherwise).
  ``fdr-power`` has no exact value: at the ``FDR_REF_K1`` grid points its
  mean power and FDR must lie within this many combined standard errors
  (the study's and those of a reference simulation of ``FDR_REF_REPS``
  replications, plus one decision of the study) of the reference.
"""

import csv
import functools
import math

import numpy as np
from scipy import integrate, special, stats

VALUE_TOL = 1e-10
EVIDENCE_BAND = 1e-10
CORR_TOL = 1e-8
MC_SIGMAS = 5.0
FDR_REF_K1 = (10, 510)
FDR_REF_REPS = 1000


def _read(path):
    """(header, rows as dicts) of a CSV data file."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *body = csv.reader(handle)
    return header, [dict(zip(header, row)) for row in body]


def _binomial_evidence(p):
    """Per-count one-sided p-values and (with a prior) the posterior
    probability of non-equivalence, s = 0..n."""
    n, (lo, hi) = p["n"], p["margin"]
    s = np.arange(n + 1)
    upper = stats.binom.sf(s - 1, n, lo)     # P_theta1(T >= s)
    lower = stats.binom.cdf(s, n, hi)        # P_theta2(T <= s)
    post = None
    if p["prior"]:
        a, b = p["prior"][0] + s, p["prior"][1] + n - s
        post = np.clip(special.betainc(a, b, lo) + special.betaincc(a, b, hi), 0.0, 1.0)
    return upper, lower, post


def _reject_masks(p, band):
    """(frequentist, Bayesian) rejection masks with thresholds moved by band."""
    upper, lower, post = _binomial_evidence(p)
    a_up, a_lo = p["levels"]
    freq = (upper <= a_up + band) & (lower <= a_lo + band)
    bayes = None if post is None else post <= 0.5 * (a_up + a_lo) + band
    return freq, bayes


def _in_band(value, low, high):
    return low - VALUE_TOL <= value <= high + VALUE_TOL


def _pmf(n, theta):
    return stats.binom.pmf(np.arange(n + 1), n, theta)


def _check_nan(problems, label, value):
    if not math.isnan(value):
        problems.append(f"{label}: expected nan without a prior, got {value}")


def _check_conservativity(p, rows):
    problems = []
    upper, lower, post = _binomial_evidence(p)
    freq = np.maximum(upper, lower)
    pmf = _pmf(p["n"], p["theta"])
    for t, row in zip(p["grid"], rows):
        for column, values in (("y_frequentist", freq), ("y_bayes", post)):
            got = float(row[column])
            if values is None:
                _check_nan(problems, f"t={t} {column}", got)
                continue
            low = pmf @ (values <= t - EVIDENCE_BAND)
            high = pmf @ (values <= t + EVIDENCE_BAND)
            if not _in_band(got, low, high):
                problems.append(f"t={t} {column}={got} outside [{low}, {high}]")
    return problems


def _check_power_curve(p, rows):
    problems = []
    strict, loose = _reject_masks(p, -EVIDENCE_BAND), _reject_masks(p, EVIDENCE_BAND)
    for theta, row in zip(p["grid"], rows):
        pmf = _pmf(p["n"], theta)
        for column, i in (("y_frequentist", 0), ("y_bayes", 1)):
            got = float(row[column])
            if strict[i] is None:
                _check_nan(problems, f"theta={theta} {column}", got)
            elif not _in_band(got, pmf @ strict[i], pmf @ loose[i]):
                problems.append(f"theta={theta} {column}={got} outside "
                                f"[{pmf @ strict[i]}, {pmf @ loose[i]}]")
    return problems


def _check_theta_max(p, rows):
    problems = []
    res = p["resolution"]
    thetas = np.arange(1, int(math.ceil(1.0 / res))) * res
    pmf = stats.binom.pmf(np.arange(p["n"] + 1)[None, :], p["n"], thetas[:, None])
    strict, loose = _reject_masks(p, -EVIDENCE_BAND), _reject_masks(p, EVIDENCE_BAND)
    for column, i in (("theta_f", 0), ("theta_b", 1)):
        got = float(rows[0][column])
        if strict[i] is None:
            _check_nan(problems, column, got)
            continue
        index = int(round(got / res)) - 1
        if not (0 <= index < thetas.size and abs(thetas[index] - got) <= 1e-9):
            problems.append(f"{column}={got} is not on the search grid")
            continue
        best = float((pmf @ strict[i]).max())
        attained = float(pmf[index] @ loose[i])
        if attained < best - VALUE_TOL:
            problems.append(f"{column}={got} has power {attained}, grid maximum {best}")
    return problems


def _check_tables(p, rows):
    problems = []
    row = rows[0]
    measure = "p_value" if p["prior"] is None else "beta_{:g}_{:g}".format(*p["prior"])
    if int(row["n"]) != p["n"] or row["measure"] != measure:
        problems.append(f"row n={row['n']} {row['measure']}, expected {p['n']} {measure}")
    strict, loose = _reject_masks(p, -EVIDENCE_BAND), _reject_masks(p, EVIDENCE_BAND)
    i = 0 if p["prior"] is None else 1
    reps = p["reps"]
    for label, theta in (("type1", p["margin"][0]), ("power", p["theta_alt"])):
        pmf = _pmf(p["n"], theta)
        low, high = pmf @ strict[i], pmf @ loose[i]
        exact = float(row[f"{label}_exact"])
        if not _in_band(exact, low, high):
            problems.append(f"{label}_exact={exact} outside [{low}, {high}]")
        mc = float(row[f"{label}_mc"])
        slack = MC_SIGMAS * math.sqrt(exact * (1.0 - exact) / reps) + 1.0 / reps
        if abs(mc - exact) > slack:
            problems.append(f"{label}_mc={mc} is more than {slack} from exact {exact}")
    return problems


def _expect(f):
    """E[f(Z)] for standard normal Z, by adaptive quadrature."""
    value, _ = integrate.quad(lambda z: f(z) * stats.norm.pdf(z), -np.inf, np.inf,
                              epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def _corr(f, g):
    mf, mg = _expect(f), _expect(g)
    cov = _expect(lambda z: f(z) * g(z)) - mf * mg
    return cov / math.sqrt((_expect(lambda z: f(z) ** 2) - mf ** 2)
                           * (_expect(lambda z: g(z) ** 2) - mg ** 2))


def _check_correlation(p, rows):
    Phi = stats.norm.cdf
    if p["mode"] == "two_sided":
        w = p["w"]
        a, b = 1.0 / math.sqrt(1.0 - w), math.sqrt(w / (1.0 - w))
        truth = {"two_sided": _corr(lambda z: Phi(a * z), lambda z: Phi(b * z))}
        truth["two_sided_mc"] = truth["two_sided"]
    elif p["mode"] == "equivalence":
        truth = {"equivalence": 0.0, "equivalence_mc": 0.0}
    else:
        c = 0.5 * (p["margin"][1] - p["margin"][0]) * math.sqrt(p["n"]) / p["sigma"]
        truth = {"partial": _corr(lambda z: Phi(-(z + c)), lambda z: Phi(z - c))}
    problems = []
    if [row["mode"] for row in rows] != list(truth):
        return [f"modes {[row['mode'] for row in rows]}, expected {list(truth)}"]
    for row in rows:
        rho, mode = float(row["rho"]), row["mode"]
        if row["method"] == "closed_form":
            if abs(rho - truth[mode]) > CORR_TOL:
                problems.append(f"{mode} rho={rho}, closed form {truth[mode]}")
            continue
        se = float(row["std_error"])
        if not se > 0.0 or abs(rho - truth[mode]) > MC_SIGMAS * se:
            problems.append(f"{mode} rho={rho} (se {se}), expected {truth[mode]}")
    return problems


def _check_noise_cdf(p, rows):
    problems = []
    n, sigma, (lo, hi), theta = p["n"], p["sigma"], p["margin"], p["theta"]
    scale = sigma * math.sqrt(n)
    previous = 0.0
    for t, row in zip(p["grid"], rows):
        c = n * lo + scale * stats.norm.ppf(1.0 - t)
        d = n * hi + scale * stats.norm.ppf(t)
        expected = 0.0 if c > d else max(
            0.0, stats.norm.cdf((d - n * theta) / scale) - stats.norm.cdf((c - n * theta) / scale))
        got = float(row["y_frequentist"])
        if abs(got - expected) > VALUE_TOL:
            problems.append(f"t={t} y_frequentist={got}, expected {expected}")
        bayes = float(row["y_bayes"])
        if not previous <= bayes <= 1.0:
            problems.append(f"t={t} y_bayes={bayes} is not a CDF value above {previous}")
        previous = bayes
    return problems


@functools.lru_cache(maxsize=None)
def _fdr_reference(k, k1, n, sigma, epsilon_star, tau, alpha, lam, seed):
    """Mean power and FDR, with standard errors, of the step-up procedure
    by an independent simulation: numpy's default generator, scipy's normal
    distribution and scipy's Benjamini-Hochberg adjustment.  Each tail
    gets a sample mean with sd sigma/sqrt(n), at boundary +/- epsilon_star
    for the k1 false nulls and at the boundary for the rest.  The posterior
    tail under a N(boundary, tau^2) prior is Phi of -(xbar - boundary) tau /
    (sd sqrt(tau^2 + sd^2)).  Keys: (evidence, adaptive)."""
    rng = np.random.default_rng(seed)
    sd = sigma / math.sqrt(n)
    truth = np.arange(k) < k1
    shift = np.where(truth, epsilon_star / sd, 0.0)
    z_r = shift + rng.standard_normal((FDR_REF_REPS, k))
    z_l = -shift + rng.standard_normal((FDR_REF_REPS, k))
    shrink = tau / math.sqrt(tau ** 2 + sd ** 2)
    evidence = {
        "frequentist": np.maximum(stats.norm.sf(z_r), stats.norm.cdf(z_l)),
        "bayesian": np.clip(stats.norm.sf(shrink * z_r) + stats.norm.cdf(shrink * z_l),
                            0.0, 1.0),
    }
    out = {}
    for (kind, adaptive) in (("frequentist", False), ("bayesian", False),
                             ("frequentist", True)):
        pvals = evidence[kind]
        adjusted = stats.false_discovery_control(pvals, axis=1, method="bh")
        if adaptive:
            # Storey's plug-in: k0_hat replaces k in the step-up thresholds
            k0_hat = np.minimum(k, (1.0 + np.sum(pvals > lam, axis=1)) / (1.0 - lam))
            reject = adjusted * (k0_hat / k)[:, None] <= alpha
        else:
            reject = adjusted <= alpha
        s = np.sum(reject & truth, axis=1)
        v = np.sum(reject & ~truth, axis=1)
        power, fdp = s / max(k1, 1), v / np.maximum(s + v, 1)
        root = math.sqrt(FDR_REF_REPS)
        out[kind, adaptive] = (power.mean(), power.std() / root, fdp.mean(), fdp.std() / root)
    return out


def _check_fdr_reference(p, row):
    k1 = int(row["k1"])
    ref = _fdr_reference(p["k"], k1, p["n"], p["sigma"], p["epsilon_star"], p["tau"],
                         p["alpha"], p["storey_lambda"], p["seed"])[p["evidence"], p["adaptive"]]
    one_decision = 1.0 / (p["reps"] * k1)
    problems = []
    for column, se_column, (mean, se) in (("mean_power", "se_power", ref[:2]),
                                          ("mean_fdr", "se_fdr", ref[2:])):
        got, got_se = float(row[column]), float(row[se_column])
        slack = MC_SIGMAS * math.hypot(got_se, se) + one_decision
        if abs(got - mean) > slack:
            problems.append(f"k1={k1}: {column}={got} (se {got_se}), "
                            f"reference {mean} (se {se})")
    return problems


def _check_fdr_power(p, rows):
    problems = []
    k, alpha, reps = p["k"], p["alpha"], p["reps"]
    if [int(row["k1"]) for row in rows] != p["k1_grid"]:
        return [f"k1 column differs from the grid {p['k1_grid']}"]
    for row in rows:
        k1 = int(row["k1"])
        if k1 in FDR_REF_K1:
            problems += _check_fdr_reference(p, row)
        power, fdr = float(row["mean_power"]), float(row["mean_fdr"])
        se_power, se_fdr = float(row["se_power"]), float(row["se_fdr"])
        if not (0.0 <= power <= 1.0 and 0.0 <= fdr <= 1.0
                and 0.0 <= se_power <= 0.5 / math.sqrt(reps) + VALUE_TOL
                and 0.0 <= se_fdr <= 0.5 / math.sqrt(reps) + VALUE_TOL):
            problems.append(f"k1={k1}: values out of range")
        if p["evidence"] != "frequentist":
            continue
        # step-up FDR under independence: alpha k0/k (Benjamini-Hochberg 1995);
        # the adaptive plug-in keeps alpha (Storey, Taylor and Siegmund 2004)
        bound = alpha if p["adaptive"] else alpha * (k - k1) / k
        if fdr > bound + MC_SIGMAS * se_fdr + VALUE_TOL:
            problems.append(f"k1={k1}: mean_fdr={fdr} (se {se_fdr}) above {bound}")
    return problems


CHECKS = {
    "conservativity": (_check_conservativity, ["x", "y_frequentist", "y_bayes"]),
    "power-curve": (_check_power_curve, ["x", "y_frequentist", "y_bayes"]),
    "theta-max": (_check_theta_max, ["theta_f", "theta_b"]),
    "tables": (_check_tables,
               ["n", "measure", "type1_mc", "power_mc", "type1_exact", "power_exact"]),
    "correlation": (_check_correlation, ["mode", "rho", "method", "std_error"]),
    "noise-cdf": (_check_noise_cdf, ["x", "y_frequentist", "y_bayes"]),
    "fdr-power": (_check_fdr_power, ["k1", "mean_power", "mean_fdr", "se_power", "se_fdr"]),
}


def check(study) -> list:
    """Problems found in the study's data file; empty when it is right."""
    check_rows, header = CHECKS[study["kind"]]
    try:
        found, rows = _read(study["out"])
        if found != header:
            return [f"header {found}, expected {header}"]
        grid = study["params"].get("grid")
        if grid is not None:
            if [float(row["x"]) for row in rows] != [float(f"{x:.12g}") for x in grid]:
                return ["x column differs from the requested grid"]
        return check_rows(study["params"], rows)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
