"""Batch command-line front end.

``SUBCOMMANDS`` gives each subcommand its runner, help text and the flags it
reads; it accepts exactly those.  Precedence: flags > ``--config`` file
(``key = value`` lines, keys the long flag names with underscores; a key
not read is an error) > defaults, both sources through the flag's converter
in ``FLAG_TYPES``.  Records go to CSV (default) or JSON, in
``<subcommand>.<format>`` unless ``--out`` names the file, plus a
``<output>.manifest.json`` sidecar with the command, the effective value of
every flag but ``--out``/``--format`` (null for a flag the run accepts but
does not read, listed in ``UNREAD``) and a digest of them, the seed (null
where nothing is drawn), the bit generator of the streams (``RNG_NOTE``),
the tool version, timestamps and the environment (Python and numpy
versions, operating system, release, machine and CPU count).

Determinism contract: identical subcommand, flags and seed produce a
byte-identical data file.  Floats are written to 12 significant digits:
the CSV formats each value once, and JSON writes the float those digits
parse to, which formats back to the same digits.  So the file is the
canonical form of the record, and re-serializing a parsed file reproduces
it exactly.  Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import astuple, fields, is_dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .beta_binomial import BetaPrior
from .correlation import (check_draws, corr_equivalence_closed, corr_equivalence_mc,
                          corr_partial_closed, corr_partial_pvalues, corr_two_sided,
                          corr_two_sided_mc)
from .equivalence import EquivalenceMargin, SignificanceLevels
from .fdr import COMBINATIONS, EVIDENCE_KINDS, SAMPLING_MODES, FdrExperiment, \
    fdr_power_simulation
from .normal import NormalPrior, NormalSampling
from .power import CurveSpec, binom_cdf_curve, binom_power_curve, normal_curves, \
    table_simulation, theta_max
from .rng import spawn_rng

MAX_GRID_POINTS = 100_000  # the theta-max grid at its finest resolution, 1e-5
RNG_NOTE = (f"{type(spawn_rng(0).bit_generator).__name__}; "
            "streams via SeedSequence(seed, spawn_key=path)")


class ConfigError(Exception):
    """Invalid configuration (maps to exit code 2)."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def parse_float(text) -> float:
    """A finite number; NaN and +-inf are rejected like any other bad text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_pair(text: str, make, what: str):
    try:
        first, second = (parse_float(part) for part in text.split(","))
        return make(first, second)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {what} {text!r}: {exc}") from None


def parse_margin(text: str) -> EquivalenceMargin:
    return _parse_pair(text, EquivalenceMargin, "margin")


def parse_beta_prior(text: str) -> BetaPrior:
    return _parse_pair(text, BetaPrior, "beta prior")


def parse_grid(text: str):
    """A grid given either as 'start:stop:step' (inclusive) or 'a,b,c', of
    at most ``MAX_GRID_POINTS`` values."""
    try:
        if ":" in text:
            start, stop, step = (parse_float(part) for part in text.split(":"))
            if step <= 0:
                raise ValueError("step must be positive")
            values = []
            x = start
            while x <= stop + 1e-12:
                if len(values) == MAX_GRID_POINTS:  # also a step lost in rounding
                    raise ValueError(f"more than {MAX_GRID_POINTS} values")
                values.append(round(x, 12))
                x += step
            if not values:
                raise ValueError("no values from start to stop")
            return values
        parts = text.split(",")
        if len(parts) > MAX_GRID_POINTS:
            raise ValueError(f"more than {MAX_GRID_POINTS} values")
        return [parse_float(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"invalid grid {text!r}: {exc}") from None


def _unit_grid(text: str, inside, interval: str):
    """A strictly increasing grid whose values all pass ``inside``."""
    values = parse_grid(text)
    if not all(map(inside, values)):
        raise ConfigError(f"invalid grid {text!r}: every value must lie in {interval}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"invalid grid {text!r}: grid must be strictly increasing")
    return values


def parse_level_grid(text: str):
    """Levels t of an evidence CDF: a strictly increasing grid in (0, 1)."""
    return _unit_grid(text, lambda t: 0.0 < t < 1.0, "(0, 1)")


def parse_theta_grid(text: str):
    """Binomial parameters: a strictly increasing grid in [0, 1]."""
    return _unit_grid(text, lambda t: 0.0 <= t <= 1.0, "[0, 1]")


def parse_count_grid(text: str):
    """A grid of whole numbers, such as the k1 values of ``fdr-power``."""
    values = parse_grid(text)
    if not all(value.is_integer() for value in values):
        raise ConfigError(f"invalid grid {text!r}: every value must be a whole number")
    return [int(value) for value in values]


def parse_rows(texts):
    """The n of each ``tables`` row from its ``n=<int>`` texts, one per
    repeated flag or config line."""
    rows = []
    for text in texts:
        key, _, value = text.partition("=")
        if key.strip() != "n":
            raise ConfigError(f"unsupported row key {key!r} (only n=<int>)")
        n = int(value)
        if n < 1:
            raise ConfigError(f"row n must be positive, got {n}")
        rows.append(n)
    return rows


def parse_seed(text) -> int:
    """A stream seed: a non-negative integer, refused even where nothing is drawn."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def parse_draws(text) -> int:
    """A Monte Carlo draw count, at least the pairs a sample correlation needs."""
    return check_draws(int(text))


def parse_switch(value) -> bool:
    """A switch: True from the command line, or a true/false, 1/0, yes/no
    word (any case) from a config file."""
    if value is True:
        return True
    word = value.strip().lower()
    if word not in ("true", "1", "yes", "false", "0", "no"):
        raise ConfigError(f"invalid value {value!r}: use true/false, 1/0 or yes/no")
    return word in ("true", "1", "yes")


def load_config_file(path: str) -> dict:
    """``key = value`` lines by key; a repeated key is an error, except that
    ``row`` lines collect into a list as the repeated flag does."""
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
                key = key.strip().replace("-", "_")
                if FLAG_TYPES.get(key) is parse_rows:
                    values.setdefault(key, []).append(val.strip())
                elif key in values:
                    raise ConfigError(f"config key {key!r} is repeated in {path}")
                else:
                    values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def _digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _environment() -> dict:
    """The interpreter, numpy and host of this process, for the manifest.
    The platform module caches what it reads; ``platform.platform()`` is
    left out, as its first call reads the interpreter binary."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpu_count": os.cpu_count()}


def write_output(records, fieldnames, out_path: str, fmt: str, manifest: dict) -> None:
    if fmt == "csv":
        with open(out_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(fieldnames)
            for record in records:
                writer.writerow([_fmt(record[name]) for name in fieldnames])
    else:
        # the float the CSV's 12 digits parse to; JSON has no NaN
        records = [{name: (None if math.isnan(value) else float(f"{value:.12g}"))
                    if isinstance(value, float) else value
                    for name, value in record.items()} for record in records]
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2, allow_nan=False)
            handle.write("\n")
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _binomial_spec(opts) -> CurveSpec:
    levels = SignificanceLevels(opts["alpha_upper"], opts["alpha_lower"])
    return CurveSpec(opts["n"], opts["margin"], opts["prior_beta"], levels)


def _curve_records(points):
    # a record dataclass's vars() is its field dict; asdict would deep-copy it
    return [dict(vars(point)) for point in points], ["x", "y_frequentist", "y_bayes"]


# subcommand runners: each takes the resolved options, returns (records, fieldnames)

def run_conservativity(opts):
    return _curve_records(binom_cdf_curve(_binomial_spec(opts), opts["theta"], opts["t_grid"]))


def run_power_curve(opts):
    return _curve_records(binom_power_curve(_binomial_spec(opts), opts["theta_grid"]))


def run_theta_max(opts):
    theta_f, theta_b = theta_max(_binomial_spec(opts), opts["resolution"])
    return [{"theta_f": theta_f, "theta_b": theta_b}], ["theta_f", "theta_b"]


def run_noise_cdf(opts):
    if opts["reps"] < 1:  # accepted although the exact curves do not read it
        raise ConfigError(f"--reps must be positive, got {opts['reps']}")
    prior = None if opts["tau"] is None else NormalPrior(opts["tau"])
    return _curve_records(normal_curves(NormalSampling(opts["sigma"], opts["n"]), prior,
                                        opts["margin"], opts["theta"], opts["t_grid"]))


# correlation mode -> (the design flags it reads, all required; closed form;
# Monte Carlo twin; the design both take, from the options)
CORRELATION_MODES = {
    "two_sided": (("w",), corr_two_sided, corr_two_sided_mc, lambda opts: (opts["w"],)),
    "equivalence": (("n", "sigma", "tau", "margin"), corr_equivalence_closed,
                    corr_equivalence_mc,
                    lambda opts: (NormalSampling(opts["sigma"], opts["n"]),
                                  NormalPrior(opts["tau"]), opts["margin"])),
    "partial": (("n", "sigma", "margin"), corr_partial_closed, corr_partial_pvalues,
                lambda opts: (NormalSampling(opts["sigma"], opts["n"]), opts["margin"])),
}


def run_correlation(opts):
    modes = [mode for mode in CORRELATION_MODES if opts[mode]]
    if len(modes) != 1:
        raise ConfigError("choose exactly one of --two-sided, --equivalence, --partial")
    mode = modes[0]
    reads, closed, twin, make_design = CORRELATION_MODES[mode]
    for name in ("w", "n", "sigma", "tau", "margin"):
        if opts[name] is not None and name not in reads:
            raise ConfigError(f"{_flag(mode)} does not read {_flag(name)}")
        if opts[name] is None and name in reads:
            raise ConfigError(f"missing required option {_flag(name)} for {_flag(mode)}")
    design = make_design(opts)
    rows = [(mode, closed(*design))]
    if opts["mc"]:
        try:
            rows.append((f"{mode}_mc", twin(*design, draws=opts["draws"], seed=opts["seed"])))
        except ValueError as exc:  # no estimate from these draws, e.g. a constant sample
            raise ConfigError(f"--mc: {exc}") from None
    records = [{"mode": row_mode, **vars(result),
                "std_error": "" if result.std_error is None else result.std_error}
               for row_mode, result in rows]
    return records, ["mode", "rho", "method", "std_error"]


def run_fdr_power(opts):
    if opts["evidence"] == "bayesian" and opts["combination"] is not None:
        raise ConfigError("--evidence bayesian does not read --combination")
    exp = FdrExperiment(**{field.name: opts[field.name] for field in fields(FdrExperiment)
                           if opts[field.name] is not None})
    records = [dict(vars(point)) for point in fdr_power_simulation(exp)]
    return records, ["k1", "mean_power", "mean_fdr", "se_power", "se_fdr"]


def run_tables(opts):
    prior = opts["prior_beta"]
    measure = "p_value" if prior is None else f"beta_{prior.p:g}_{prior.q:g}"
    records = []
    for row, n in enumerate(opts["row"]):
        result = table_simulation(_binomial_spec(dict(opts, n=n)), reps=opts["reps"],
                                  seed=opts["seed"], theta_alt=opts["theta_alt"], row=row)
        records.append({
            "n": n, "measure": measure,
            "type1_mc": result.mc_type1, "power_mc": result.mc_power,
            "type1_exact": result.exact_type1, "power_exact": result.exact_power,
        })
    return records, ["n", "measure", "type1_mc", "power_mc", "type1_exact", "power_exact"]


REQUIRED = object()

# converter of each flag's text; a tuple lists the allowed words
FLAG_TYPES = {
    **dict.fromkeys(("n", "k", "reps"), int),
    "seed": parse_seed,
    "draws": parse_draws,
    **dict.fromkeys(("alpha", "alpha_upper", "alpha_lower", "theta", "theta_alt", "resolution",
                     "sigma", "tau", "w", "epsilon_star", "storey_lambda"), parse_float),
    **dict.fromkeys(("two_sided", "equivalence", "partial", "mc", "adaptive"), parse_switch),
    "margin": parse_margin,
    "prior_beta": parse_beta_prior,
    "t_grid": parse_level_grid,
    "theta_grid": parse_theta_grid,
    "k1_grid": parse_count_grid,
    "row": parse_rows,
    "out": str,
    "format": ("csv", "json"),
    "evidence": EVIDENCE_KINDS,
    "sampling": SAMPLING_MODES,
    "combination": COMBINATIONS,
}

OUTPUT = {"format": "csv", "out": None}
LEVELS = {"alpha": 0.05, "alpha_upper": lambda opts: opts["alpha"],
          "alpha_lower": lambda opts: opts["alpha"]}
T_GRID = parse_level_grid("0.05:0.95:0.05")

# subcommand -> (runner, help, {flag: default or REQUIRED}); a callable default
# is computed from the flags resolved before it
SUBCOMMANDS = {
    "conservativity": (run_conservativity, "evidence-CDF curve, binomial model", {
        "margin": REQUIRED, "n": REQUIRED, "prior_beta": None,
        "theta": lambda opts: opts["margin"].theta1, "t_grid": T_GRID, **LEVELS, **OUTPUT}),
    "power-curve": (run_power_curve, "exact power curve, binomial model", {
        "margin": REQUIRED, "n": REQUIRED, "prior_beta": None,
        "theta_grid": parse_theta_grid("0.01:0.99:0.01"), **LEVELS, **OUTPUT}),
    "theta-max": (run_theta_max, "power-maximizing parameter search", {
        "margin": REQUIRED, "n": REQUIRED, "prior_beta": None, "resolution": 1e-3,
        **LEVELS, **OUTPUT}),
    "noise-cdf": (run_noise_cdf, "TOST (larger one-sided) p-value CDF curve, normal model", {
        "margin": REQUIRED, "n": REQUIRED, "sigma": REQUIRED, "theta": REQUIRED,
        "tau": None, "t_grid": T_GRID, "reps": 100_000, "seed": 0, **OUTPUT}),
    "correlation": (run_correlation, "evidence correlations", {
        "two_sided": False, "equivalence": False, "partial": False, "margin": None,
        "w": None, "n": None, "sigma": None, "tau": None, "mc": False,
        "draws": 1_000_000, "seed": 0, **OUTPUT}),
    "fdr-power": (run_fdr_power, "step-up FDR power simulation", {
        "margin": REQUIRED, "n": REQUIRED, "k": 1000, "k1_grid": parse_count_grid("10:990:50"),
        "sigma": 1.0, "tau": 0.25, "epsilon_star": 0.5, "alpha": 0.05,
        "evidence": "frequentist", "sampling": "per_tail",
        "combination": lambda opts: "max" if opts["evidence"] == "frequentist" else None,
        "adaptive": False, "storey_lambda": 0.5, "reps": 1000, "seed": 0, **OUTPUT}),
    "tables": (run_tables, "type I / power simulation rows", {
        "margin": REQUIRED, "row": REQUIRED, "prior_beta": None, "theta_alt": 0.4,
        "reps": 10_000, "seed": 0, **LEVELS, **OUTPUT}),
}


# subcommand -> the flags that a run with these options accepts (and checks)
# but does not read; the manifest records each as null, so one data file has
# one config digest
UNREAD = {
    "conservativity": lambda opts: ("alpha", "alpha_upper", "alpha_lower"),
    "noise-cdf": lambda opts: ("reps", "seed"),
    # the flat-prior (w = 1) twin is its closed form
    "correlation": lambda opts: () if opts["mc"] and opts["w"] != 1.0 else ("draws", "seed"),
    "fdr-power": lambda opts: ((("tau",) if opts["evidence"] == "frequentist" else ())
                               + (() if opts["adaptive"] else ("storey_lambda",))),
}


def resolve_options(args: argparse.Namespace) -> dict:
    """The typed value of every flag ``args.command`` reads: flag > config
    file > default, both sources through the same converter."""
    flags = SUBCOMMANDS[args.command][2]
    file_values = load_config_file(args.config) if args.config else {}
    unread = sorted(set(file_values) - set(flags))
    if unread:
        raise ConfigError(f"{args.command} does not read config key(s) {', '.join(unread)}")
    given = dict(file_values, **{name: value for name, value in vars(args).items()
                                 if value is not None})
    opts = {}
    for name, default in flags.items():
        kind = FLAG_TYPES[name]
        if name not in given:
            if default is REQUIRED:
                raise ConfigError(f"missing required option {_flag(name)}")
            opts[name] = default(opts) if callable(default) else default
        elif isinstance(kind, tuple):
            if given[name] not in kind:
                raise ConfigError(f"{_flag(name)}: {given[name]!r} is not one of "
                                  f"{', '.join(kind)}")
            opts[name] = given[name]
        else:
            try:
                opts[name] = kind(given[name])
            except (ConfigError, ValueError, TypeError) as exc:
                raise ConfigError(f"{_flag(name)}: {exc}") from None
    return opts


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand and its flags.

    Memoized: every caller shares the parser, so treat it as read-only
    (parse with it, never add to or change it)."""
    parser = argparse.ArgumentParser(
        prog="equilab",
        description="Equivalence-testing evidence curves, tables and FDR simulations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, default in flags.items():
            kind = FLAG_TYPES[flag]
            if kind is parse_switch:
                p.add_argument(_flag(flag), action="store_const", const=True)
                continue
            p.add_argument(_flag(flag), action="append" if kind is parse_rows else "store",
                           metavar="{%s}" % ",".join(kind) if isinstance(kind, tuple) else None,
                           help="required" if default is REQUIRED else None)
        p.add_argument("--config", help="key = value file supplying any flag above")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = datetime.now(timezone.utc).isoformat()
    try:
        opts = resolve_options(args)
        records, fieldnames = SUBCOMMANDS[args.command][0](opts)
        # margins and priors go into the manifest as their two numbers
        unread = UNREAD.get(args.command, lambda opts: ())(opts)
        config = {name: None if name in unread else
                  list(astuple(value)) if is_dataclass(value) else value
                  for name, value in opts.items() if name not in OUTPUT}
        manifest = {
            "command": args.command,
            "config": config,
            "config_digest": _digest(config),
            "environment": _environment(),
            "seed": config.get("seed"),
            "tool_version": __version__,
            "rng": RNG_NOTE,
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
        }
        write_output(records, fieldnames, opts["out"] or f"{args.command}.{opts['format']}",
                     opts["format"], manifest)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
