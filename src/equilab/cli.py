"""Batch command-line front end.

Subcommands compute curve/table/simulation records and write them as CSV
(default) or JSON, plus a ``<output>.manifest.json`` sidecar recording the
command, a platform-stable digest of the resolved configuration, the seed,
the tool version and timestamps.

Determinism contract: identical subcommand, flags and seed produce a
byte-identical data file.  Floats are quantized to 12 significant digits
when records are built, so the file is the canonical form of the record
and re-serializing a parsed file reproduces it exactly.

Config precedence: command-line flags > ``--config`` file (``key = value``
lines, keys matching the long flag names with underscores) > built-in
defaults.  Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .beta_binomial import BetaPrior
from .correlation import (corr_equivalence_closed, corr_equivalence_mc,
                          corr_partial_pvalues, corr_two_sided, corr_two_sided_mc)
from .equivalence import EquivalenceMargin, SignificanceLevels
from .fdr import FdrExperiment, fdr_power_simulation
from .normal import NormalPrior, NormalSampling
from .power import CurveSpec, binom_cdf_curve, binom_power_curve, normal_curves, \
    table_simulation, theta_max

RNG_NOTE = "philox counter-based; streams via SeedSequence(seed, spawn_key=path)"


class ConfigError(Exception):
    """Invalid configuration (maps to exit code 2)."""


def _q(value):
    """Quantize a float to 12 significant digits (the CSV serialization)."""
    return float(f"{float(value):.12g}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def parse_margin(text: str) -> EquivalenceMargin:
    try:
        lo, hi = (float(part) for part in text.split(","))
        return EquivalenceMargin(lo, hi)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid margin {text!r}: {exc}") from None


def parse_beta_prior(text: str) -> BetaPrior:
    try:
        p, q = (float(part) for part in text.split(","))
        return BetaPrior(p, q)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid beta prior {text!r}: {exc}") from None


def parse_grid(text: str):
    """A grid given either as 'start:stop:step' (inclusive) or 'a,b,c'."""
    try:
        if ":" in text:
            start, stop, step = (float(part) for part in text.split(":"))
            if step <= 0:
                raise ValueError("step must be positive")
            values = []
            x = start
            while x <= stop + 1e-12:
                values.append(round(x, 12))
                x += step
            return values
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"invalid grid {text!r}: {exc}") from None


def load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r} in {path}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def resolve_options(args: argparse.Namespace, option_names) -> dict:
    """Apply precedence flags > config file > parser defaults."""
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for name in option_names:
        cli_value = getattr(args, name)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in file_values:
            resolved[name] = file_values[name]
        else:
            resolved[name] = None
    return resolved


def _digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_output(records, fieldnames, out_path: str, fmt: str, manifest: dict) -> None:
    if fmt == "csv":
        with open(out_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(fieldnames)
            for record in records:
                writer.writerow([_fmt(record[name]) for name in fieldnames])
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2)
            handle.write("\n")
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _require(resolved: dict, key: str):
    if resolved.get(key) is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return resolved[key]


def _opt(resolved: dict, key: str, default, convert=float):
    """The option converted, or ``default`` only when it was not given at all."""
    value = resolved.get(key)
    return default if value is None else convert(value)


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _flag(resolved: dict, key: str) -> bool:
    """A store-const flag: True from the command line, or a true/false,
    1/0, yes/no word (any case) from a config file; absent means False."""
    value = resolved.get(key)
    if value is None or isinstance(value, bool):
        return bool(value)
    word = str(value).strip().lower()
    if word not in _BOOLEANS:
        raise ConfigError(f"invalid value {value!r} for {key}: use true/false, 1/0 or yes/no")
    return _BOOLEANS[word]


def _levels(resolved: dict) -> SignificanceLevels:
    alpha = _opt(resolved, "alpha", 0.05)
    return SignificanceLevels(_opt(resolved, "alpha_upper", alpha),
                              _opt(resolved, "alpha_lower", alpha))


def _curve_records(points):
    records = [{"x": _q(point.x), "y_frequentist": _q(point.y_frequentist),
                "y_bayes": _q(point.y_bayes)} for point in points]
    return records, ["x", "y_frequentist", "y_bayes"]


# ---------------------------------------------------------------------------
# subcommand runners: each returns (records, fieldnames, resolved-config)
# ---------------------------------------------------------------------------

def run_conservativity(resolved):
    margin = parse_margin(_require(resolved, "margin"))
    prior = _opt(resolved, "prior_beta", None, parse_beta_prior)
    n = int(_require(resolved, "n"))
    theta = _opt(resolved, "theta", margin.theta1)
    grid = parse_grid(_opt(resolved, "t_grid", "0.05:0.95:0.05", str))
    spec = CurveSpec(model="binomial", n=n, margin=margin, prior=prior,
                     levels=_levels(resolved), grid=grid, theta_true=theta)
    return _curve_records(binom_cdf_curve(spec))


def run_power_curve(resolved):
    margin = parse_margin(_require(resolved, "margin"))
    prior = _opt(resolved, "prior_beta", None, parse_beta_prior)
    n = int(_require(resolved, "n"))
    grid = parse_grid(_opt(resolved, "theta_grid", "0.01:0.99:0.01", str))
    spec = CurveSpec(model="binomial", n=n, margin=margin, prior=prior,
                     levels=_levels(resolved), grid=grid)
    return _curve_records(binom_power_curve(spec))


def run_theta_max(resolved):
    margin = parse_margin(_require(resolved, "margin"))
    prior = _opt(resolved, "prior_beta", None, parse_beta_prior)
    spec = CurveSpec(model="binomial", n=int(_require(resolved, "n")), margin=margin,
                     prior=prior, levels=_levels(resolved))
    resolution = _opt(resolved, "resolution", 1e-3)
    theta_f, theta_b = theta_max(spec, resolution)
    record = {"theta_f": _q(theta_f), "theta_b": _q(theta_b)}
    return [record], ["theta_f", "theta_b"]


def run_noise_cdf(resolved):
    margin = parse_margin(_require(resolved, "margin"))
    n = int(_require(resolved, "n"))
    sigma = float(_require(resolved, "sigma"))
    theta = float(_require(resolved, "theta"))
    grid = parse_grid(_opt(resolved, "t_grid", "0.05:0.95:0.05", str))
    prior = _opt(resolved, "tau", None, lambda tau: NormalPrior(float(tau)))
    spec = CurveSpec(model="normal", n=n, margin=margin, prior=prior,
                     grid=grid, theta_true=theta, sigma=sigma)
    return _curve_records(normal_curves(spec, mc_reps=_opt(resolved, "reps", 100_000, int),
                                        seed=_opt(resolved, "seed", 0, int)))


def run_correlation(resolved):
    draws = _opt(resolved, "draws", 1_000_000, int)
    seed = _opt(resolved, "seed", 0, int)
    want_mc = _flag(resolved, "mc")
    records = []

    def add(mode, result):
        records.append({
            "mode": mode,
            "rho": _q(result.rho),
            "method": result.method,
            "std_error": _q(result.std_error) if result.std_error is not None else "",
        })

    if _flag(resolved, "two_sided"):
        w = float(_require(resolved, "w"))
        add("two_sided", corr_two_sided(w))
        if want_mc:
            add("two_sided_mc", corr_two_sided_mc(w, draws=draws, seed=seed))
    elif _flag(resolved, "equivalence"):
        samp = NormalSampling(float(_require(resolved, "sigma")), int(_require(resolved, "n")))
        prior = NormalPrior(float(_require(resolved, "tau")))
        margin = parse_margin(_require(resolved, "margin"))
        add("equivalence", corr_equivalence_closed(samp, prior, margin))
        if want_mc:
            add("equivalence_mc",
                corr_equivalence_mc(samp, prior, margin, draws=draws, seed=seed))
    elif _flag(resolved, "partial"):
        samp = NormalSampling(float(_require(resolved, "sigma")), int(_require(resolved, "n")))
        margin = parse_margin(_require(resolved, "margin"))
        add("partial", corr_partial_pvalues(samp, margin, draws=draws, seed=seed))
    else:
        raise ConfigError("choose one of --two-sided, --equivalence, --partial")
    return records, ["mode", "rho", "method", "std_error"]


def run_fdr_power(resolved):
    margin = parse_margin(_require(resolved, "margin"))
    k1_grid = [int(v) for v in parse_grid(_opt(resolved, "k1_grid", "10:990:50", str))]
    exp = FdrExperiment(
        k=_opt(resolved, "k", 1000, int),
        k1_grid=k1_grid,
        n=int(_require(resolved, "n")),
        margin=margin,
        sigma=_opt(resolved, "sigma", 1.0),
        tau=_opt(resolved, "tau", 0.25),
        epsilon_star=_opt(resolved, "epsilon_star", 0.5),
        alpha=_opt(resolved, "alpha", 0.05),
        reps=_opt(resolved, "reps", 1000, int),
        seed=_opt(resolved, "seed", 0, int),
        evidence=_opt(resolved, "evidence", "frequentist", str),
        sampling=_opt(resolved, "sampling", "per_tail", str),
        combination=_opt(resolved, "combination", "max", str),
        adaptive=_flag(resolved, "adaptive"),
        storey_lambda=_opt(resolved, "storey_lambda", 0.5),
    )
    records = []
    for point in fdr_power_simulation(exp):
        records.append({"k1": point.k1, "mean_power": _q(point.mean_power),
                        "mean_fdr": _q(point.mean_fdr),
                        "se_power": _q(point.se_power), "se_fdr": _q(point.se_fdr)})
    return records, ["k1", "mean_power", "mean_fdr", "se_power", "se_fdr"]


def run_tables(resolved):
    margin = parse_margin(_require(resolved, "margin"))
    prior = _opt(resolved, "prior_beta", None, parse_beta_prior)
    rows = resolved.get("row") or []
    if isinstance(rows, str):
        rows = [rows]
    if not rows:
        raise ConfigError("pass at least one --row n=<value>")
    reps = _opt(resolved, "reps", 10_000, int)
    seed = _opt(resolved, "seed", 0, int)
    theta_alt = _opt(resolved, "theta_alt", 0.4)
    measure = "p_value" if prior is None else f"beta_{prior.p:g}_{prior.q:g}"
    records = []
    for row_idx, row in enumerate(rows):
        key, _, value = row.partition("=")
        if key.strip() != "n":
            raise ConfigError(f"unsupported --row key {key!r} (only n=<int>)")
        n = int(value)
        spec = CurveSpec(model="binomial", n=n, margin=margin, prior=prior,
                         levels=_levels(resolved))
        result = table_simulation(spec, reps=reps, seed=seed + row_idx,
                                  theta_alt=theta_alt)
        records.append({
            "n": n, "measure": measure,
            "type1_mc": _q(result.mc_type1), "power_mc": _q(result.mc_power),
            "type1_exact": _q(result.exact_type1), "power_exact": _q(result.exact_power),
        })
    return records, ["n", "measure", "type1_mc", "power_mc", "type1_exact", "power_exact"]


RUNNERS = {
    "conservativity": run_conservativity,
    "power-curve": run_power_curve,
    "theta-max": run_theta_max,
    "noise-cdf": run_noise_cdf,
    "correlation": run_correlation,
    "fdr-power": run_fdr_power,
    "tables": run_tables,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equilab",
        description="Equivalence-testing evidence curves, tables and FDR simulations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def levels(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--alpha-upper", dest="alpha_upper", type=float)
        p.add_argument("--alpha-lower", dest="alpha_lower", type=float)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="key = value file supplying defaults for any flag")

    p = sub.add_parser("conservativity", help="evidence-CDF curve, binomial model")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--margin")
    p.add_argument("--prior-beta", dest="prior_beta")
    p.add_argument("--theta", type=float, help="true parameter (default: lower margin)")
    p.add_argument("--t-grid", dest="t_grid")
    levels(p)

    p = sub.add_parser("power-curve", help="exact power curve, binomial model")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--margin")
    p.add_argument("--prior-beta", dest="prior_beta")
    p.add_argument("--theta-grid", dest="theta_grid")
    levels(p)

    p = sub.add_parser("theta-max", help="power-maximizing parameter search")
    common(p)
    p.add_argument("--model", choices=("binomial",), default="binomial")
    p.add_argument("--n", type=int)
    p.add_argument("--margin")
    p.add_argument("--prior-beta", dest="prior_beta")
    p.add_argument("--resolution", type=float)
    levels(p)

    p = sub.add_parser("noise-cdf", help="p-value CDF curve, normal model")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--margin")
    p.add_argument("--theta", type=float)
    p.add_argument("--tau", type=float, help="add the posterior-measure MC column")
    p.add_argument("--t-grid", dest="t_grid")

    p = sub.add_parser("correlation", help="evidence correlations")
    common(p)
    p.add_argument("--two-sided", dest="two_sided", action="store_const", const=True)
    p.add_argument("--equivalence", action="store_const", const=True)
    p.add_argument("--partial", action="store_const", const=True)
    p.add_argument("--w", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--margin")
    p.add_argument("--draws", type=int)
    p.add_argument("--mc", action="store_const", const=True,
                   help="also report the Monte Carlo estimate")

    p = sub.add_parser("fdr-power", help="step-up FDR power simulation")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--k1-grid", dest="k1_grid")
    p.add_argument("--n", type=int)
    p.add_argument("--margin")
    p.add_argument("--sigma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--epsilon-star", dest="epsilon_star", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--evidence", choices=("frequentist", "bayesian"))
    p.add_argument("--sampling", choices=("per_tail", "per_tail_literal", "shared"))
    p.add_argument("--combination", choices=("max", "difference"))
    p.add_argument("--adaptive", action="store_const", const=True)
    p.add_argument("--storey-lambda", dest="storey_lambda", type=float)

    p = sub.add_parser("tables", help="type I / power simulation rows")
    common(p)
    p.add_argument("--row", action="append")
    p.add_argument("--margin")
    p.add_argument("--prior-beta", dest="prior_beta")
    p.add_argument("--theta-alt", dest="theta_alt", type=float)
    levels(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = datetime.now(timezone.utc).isoformat()
    option_names = [name for name in vars(args) if name != "command"]
    try:
        resolved = resolve_options(args, option_names)
        runner = RUNNERS[args.command]
        records, fieldnames = runner(resolved)
        out_path = resolved.get("out") or f"{args.command}.csv"
        fmt = resolved.get("format") or "csv"
        config_for_digest = {k: v for k, v in sorted(resolved.items())
                             if k not in ("out", "format", "config")}
        manifest = {
            "command": args.command,
            "config": config_for_digest,
            "config_digest": _digest(config_for_digest),
            "seed": _opt(resolved, "seed", 0, int),
            "tool_version": __version__,
            "rng": RNG_NOTE,
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
        }
        write_output(records, fieldnames, out_path, fmt, manifest)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
