"""Command-line front end: record schemas, determinism, manifests, config
precedence, exit codes."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import numpy_stream
from hypothesis import strategies as st

from equilab import correlation, fdr, power
from equilab.cli import (SUBCOMMANDS, ConfigError, build_parser, main, parse_grid,
                         resolve_options)
from equilab.rng import spawn_rng
from equilab.special import reg_inc_beta_pair


def run(tmp_path, name, args):
    out = tmp_path / f"{name}.csv"
    code = main(args + ["--out", str(out)])
    return code, out


def read_manifest(path):
    with open(str(path) + ".manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestSubcommands:
    def test_theta_max_symmetric_pvalue(self, tmp_path):
        code, out = run(tmp_path, "tm", [
            "theta-max", "--n", "10",
            "--margin", "0.2,0.8", "--prior-beta", "0.5,0.5",
            "--resolution", "0.001"])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["theta_f"]) == pytest.approx(0.5, abs=1e-3)

    def test_correlation_two_sided_flat_limit(self, tmp_path):
        code, out = run(tmp_path, "corr", ["correlation", "--two-sided", "--w", "1.0"])
        assert code == 0
        rows = read_csv(out)
        assert float(rows[0]["rho"]) == 1.0
        assert rows[0]["method"] == "closed_form"

    def test_correlation_two_sided_with_mc_adds_mc_row(self, tmp_path):
        code, out = run(tmp_path, "corr", ["correlation", "--two-sided", "--w", "0.5",
                                           "--mc", "--draws", "2000", "--seed", "1"])
        assert code == 0
        rows = read_csv(out)
        assert [r["mode"] for r in rows] == ["two_sided", "two_sided_mc"]
        assert [r["method"] for r in rows] == ["closed_form", "monte_carlo"]
        assert rows[0]["std_error"] == "" and float(rows[1]["std_error"]) > 0.0

    def test_correlation_partial_monte_carlo(self, tmp_path):
        code, out = run(tmp_path, "corr", ["correlation", "--partial", "--n", "30",
                                           "--sigma", "1", "--margin", "1,4", "--mc",
                                           "--draws", "2000", "--seed", "1"])
        assert code == 0
        rows = read_csv(out)
        assert [r["mode"] for r in rows] == ["partial", "partial_mc"]
        assert [r["method"] for r in rows] == ["closed_form", "monte_carlo"]
        assert float(rows[1]["std_error"]) > 0.0

    def test_correlation_partial_default_is_the_closed_form(self, tmp_path):
        code, out = run(tmp_path, "corr", ["correlation", "--partial", "--n", "30",
                                           "--sigma", "2", "--margin", "1,4"])
        assert code == 0
        rows = read_csv(out)
        assert [(r["mode"], r["method"], r["std_error"]) for r in rows] == [
            ("partial", "closed_form", "")]
        assert -1.0 < float(rows[0]["rho"]) < 0.0

    def test_correlation_partial_wide_margin(self, tmp_path):
        # every draw would give a constant p-value; the closed form is 0
        code, out = run(tmp_path, "corr", ["correlation", "--partial", "--n", "30",
                                           "--sigma", "1", "--margin", "1,400"])
        assert code == 0
        (row,) = read_csv(out)
        assert not row["rho"].startswith("-0")
        assert math.isfinite(float(row["rho"])) and -1.0 <= float(row["rho"]) <= 0.0

    def test_tables_row(self, tmp_path):
        code, out = run(tmp_path, "tab", [
            "tables", "--row", "n=50", "--margin", "0.25,0.75",
            "--prior-beta", "0.5,0.5", "--reps", "2000", "--seed", "42"])
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["measure"] == "beta_0.5_0.5"
        exact_t1 = float(rows[0]["type1_exact"])
        mc_t1 = float(rows[0]["type1_mc"])
        assert abs(mc_t1 - exact_t1) < 0.02
        assert 0.0 < float(rows[0]["power_exact"]) <= 1.0

    def test_table_rows_draw_their_own_streams(self, tmp_path, monkeypatch):
        # row 1 of seed 1 once drew the streams of row 0 of seed 2
        base = ["tables", "--margin", "0.25,0.75", "--reps", "2000"]
        code, two_rows = run(tmp_path, "two", base + ["--row", "n=20", "--row", "n=50",
                                                      "--seed", "1"])
        assert code == 0
        code, one_row = run(tmp_path, "one", base + ["--row", "n=50", "--seed", "2"])
        assert code == 0
        second, only = read_csv(two_rows)[1], read_csv(one_row)[0]
        assert second["n"] == only["n"] == "50"
        assert (second["type1_mc"], second["power_mc"]) != (only["type1_mc"], only["power_mc"])
        # row r draws streams 2r and 2r + 1 of the one seed
        keys = []

        def recording_spawn(seed, *path):
            keys.append((seed, *path))
            return spawn_rng(seed, *path)

        monkeypatch.setattr(power, "spawn_rng", recording_spawn)
        assert run(tmp_path, "three", base + ["--row", "n=20", "--row", "n=30", "--row", "n=40",
                                              "--seed", "1"])[0] == 0
        assert keys == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]

    def test_decided_row_leaves_the_open_rows_bytes(self, tmp_path, monkeypatch):
        # n = 10's empty region draws nothing; n = 50's row reads what it
        # reads after a row that draws
        base = ["tables", "--margin", "0.25,0.75", "--reps", "2000", "--seed", "5"]
        keys = []

        def recording_spawn(seed, *path):
            keys.append((seed, *path))
            return spawn_rng(seed, *path)

        monkeypatch.setattr(power, "spawn_rng", recording_spawn)
        code, mixed = run(tmp_path, "mixed", base + ["--row", "n=10", "--row", "n=50"])
        assert code == 0 and keys == [(5, 2), (5, 3)]
        code, drawn = run(tmp_path, "drawn", base + ["--row", "n=20", "--row", "n=50"])
        assert code == 0
        decided, open_row = read_csv(mixed)
        assert [decided[name] for name in ("type1_mc", "power_mc", "type1_exact",
                                           "power_exact")] == ["0"] * 4
        assert open_row == read_csv(drawn)[1]

    def test_conservativity_defaults_to_lower_boundary(self, tmp_path):
        code, out = run(tmp_path, "cons", [
            "conservativity", "--n", "20", "--margin", "0.25,0.75",
            "--prior-beta", "0.5,0.5", "--t-grid", "0.1,0.5,0.9"])
        assert code == 0
        rows = read_csv(out)
        assert [float(r["x"]) for r in rows] == [0.1, 0.5, 0.9]
        ys = [float(r["y_frequentist"]) for r in rows]
        assert ys == sorted(ys)

    def test_power_curve_columns(self, tmp_path):
        code, out = run(tmp_path, "pc", [
            "power-curve", "--n", "10", "--margin", "0.2,0.8",
            "--theta-grid", "0.3,0.5,0.7"])
        assert code == 0
        rows = read_csv(out)
        assert set(rows[0]) == {"x", "y_frequentist", "y_bayes"}
        assert rows[0]["y_bayes"] == "nan"  # no prior supplied

    def test_noise_cdf(self, tmp_path):
        code, out = run(tmp_path, "nc", [
            "noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4",
            "--theta", "1.5", "--t-grid", "0.1:0.9:0.2", "--reps", "1000"])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 5

    def test_fdr_power_records(self, tmp_path):
        code, out = run(tmp_path, "fp", [
            "fdr-power", "--k", "50", "--k1-grid", "10,40", "--n", "20",
            "--margin", "0,2", "--tau", "0.5", "--reps", "10", "--seed", "1"])
        assert code == 0
        rows = read_csv(out)
        assert [int(r["k1"]) for r in rows] == [10, 40]
        assert all(0.0 <= float(r["mean_fdr"]) <= 1.0 for r in rows)


class TestPastFloatRange:
    NOISE = ["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4", "--theta", "2",
             "--reps", "1000", "--seed", "3"]
    FDR = ["fdr-power", "--k", "50", "--k1-grid", "10,40", "--n", "30", "--margin", "0,2",
           "--evidence", "bayesian", "--reps", "10", "--seed", "1"]

    @pytest.mark.parametrize("args", [NOISE, FDR], ids=["noise-cdf", "fdr-power"])
    def test_prior_sd_past_overflow_is_the_flat_limit(self, tmp_path, args):
        # n tau^2 overflows from tau = 1e154 at n = 30: the Bayesian evidence
        # must stay that of tau = 1e150, not collapse to 0 or fail
        outputs = []
        for tau in ("1e150", "1e154", "1e155"):
            code, out = run(tmp_path, f"t{tau}", args + ["--tau", tau])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        if args is self.NOISE:
            assert any(float(row["y_bayes"]) > 0.0 for row in read_csv(out))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_convergence_message_is_bounded(self):
        # the kernel names the count of unconverged elements and the first,
        # not every element; the CLI no longer reaches it (the next test)
        with pytest.raises(RuntimeError) as info:
            reg_inc_beta_pair(np.full(62, 1e300), 1.0, np.linspace(0.2, 0.8, 62))
        message = str(info.value)
        assert "did not converge for 62 element(s), the first at a=1e+300" in message
        assert len(message) < 200

    @pytest.mark.parametrize("prior, code", [("1e300,1", 2), ("1e100,0.3", 2), ("0.3,2e6", 2),
                                             ("1e6,0.3", 0)])
    def test_prior_shape_domain(self, tmp_path, capsys, prior, code):
        # past 1e6 a prior shape exits 2 naming the flag, not 1 from the kernel
        assert run(tmp_path, "x", ["theta-max", "--n", "30", "--margin", "0.2,0.8",
                                   "--prior-beta", prior])[0] == code
        assert ("--prior-beta" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("args", [
        ["noise-cdf", "--margin=-3,3", "--n", "1", "--sigma", "1e-200", "--theta", "0",
         "--tau", "2.5e-200", "--reps", "50"],
        ["fdr-power", "--margin", "0,1.5", "--n", "7", "--sigma", "1e-200", "--tau", "1e-200",
         "--evidence", "bayesian", "--k", "20", "--k1-grid", "5", "--reps", "3"],
    ], ids=["noise-cdf", "fdr-power"])
    def test_variance_sum_past_underflow(self, tmp_path, args):
        # sigma^2 + n tau^2 underflows to 0; the posterior scale stays finite
        code, out = run(tmp_path, "x", args)
        assert code == 0
        if args[0] == "noise-cdf":
            # x-bar is within 1e-199 of 0, deep inside (-3, 3): the evidence is
            # 0, so its CDF is 1 at every level
            assert all(float(row["y_bayes"]) == 1.0 for row in read_csv(out))

    @pytest.mark.parametrize("args", [
        ["--partial", "--n", "7", "--sigma", "2500", "--margin=-1e200,1e200"],
        ["--partial", "--n", "10", "--sigma", "1e-150", "--margin", "0,1"],
        ["--equivalence", "--n", "10", "--sigma", "1e-200", "--tau", "1e200",
         "--margin", "0,1"],
    ])
    def test_correlation_closed_form_limits(self, tmp_path, args):
        code, out = run(tmp_path, "x", ["correlation"] + args)
        assert code == 0
        assert read_csv(out)[0]["rho"] == "0"

    def test_constant_monte_carlo_sample_names_mc(self, tmp_path, capsys):
        code, out = run(tmp_path, "x", ["correlation", "--equivalence", "--n", "10",
                                        "--sigma", "1", "--tau", "1", "--margin=-1e10,1e10",
                                        "--mc", "--draws", "40"])
        assert code == 2
        assert "--mc: correlation undefined for a constant sample" in capsys.readouterr().err
        assert not out.exists()


class TestPosteriorVectorThroughCli:
    def test_tiny_prior_shape_runs(self, tmp_path):
        # q = 1e-15 is lost in q + n - s; q + (n - s) keeps it
        assert run(tmp_path, "x", ["power-curve", "--n", "30", "--margin", "0.2,0.8",
                                   "--prior-beta", "1,1e-15"])[0] == 0

    @pytest.mark.parametrize("command", ["power-curve", "theta-max", "conservativity"])
    def test_margin_outside_unit_interval_with_prior(self, tmp_path, capsys, command):
        code, out = run(tmp_path, "x", [command, "--n", "10", "--margin=-0.1,0.5",
                                        "--prior-beta", "1,1"])
        assert code == 2
        assert "binomial margin must lie inside (0, 1)" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminismAndManifest:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["fdr-power", "--k", "40", "--k1-grid", "5,20", "--n", "15",
                "--margin", "0,2", "--tau", "0.25", "--reps", "8", "--seed", "7"]
        _, out1 = run(tmp_path, "a", args)
        _, out2 = run(tmp_path, "b", args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        # at 8 reps, 14 to 18 of the 39 adjacent seed pairs in 1..40 write the
        # same CSV (power near 1, FDR near 0); at 128 none does
        base = ["fdr-power", "--k", "40", "--k1-grid", "20", "--n", "100",
                "--margin", "0,2", "--reps", "128"]
        _, out1 = run(tmp_path, "a", base + ["--seed", "7"])
        _, out2 = run(tmp_path, "b", base + ["--seed", "8"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_round_trip_reserialization(self, tmp_path):
        _, out = run(tmp_path, "rt", [
            "conservativity", "--n", "35", "--margin", "0.25,0.75",
            "--prior-beta", "3,3", "--t-grid", "0.05:0.95:0.05"])
        rows = read_csv(out)
        header = out.read_text().splitlines()[0].split(",")
        lines = [",".join(f"{float(row[c]):.12g}" for c in header) for row in rows]
        assert out.read_text().splitlines()[1:] == lines

    @given(st.floats() | st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
    @settings(max_examples=2000)
    @example(5e-324)
    @example(-0.0)
    @example(1.7976931348623157e308)
    def test_twelve_digits_format_back_to_themselves(self, value):
        # the CSV formats a float once and JSON writes the float its 12
        # digits parse to: the identity makes both the same digits
        digits = f"{value:.12g}"
        assert f"{float(digits):.12g}" == digits

    def test_json_holds_the_csvs_digits(self, tmp_path):
        args = ["power-curve", "--n", "40", "--margin", "0.25,0.75", "--prior-beta", "0.5,2"]
        _, csv_out = run(tmp_path, "q", args)
        out = tmp_path / "q.json"
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        rows = read_csv(csv_out)
        records = json.loads(out.read_text())
        assert len(records) == len(rows) == 99
        for record, row in zip(records, rows):
            for name, text in row.items():
                assert record[name] == float(text) and f"{record[name]:.12g}" == text

    def test_manifest_sidecar(self, tmp_path):
        args = ["tables", "--row", "n=20", "--margin", "0.25,0.75", "--reps", "50",
                "--seed", "3"]
        _, out = run(tmp_path, "m", args)
        manifest = read_manifest(out)
        assert manifest["command"] == "tables"
        assert manifest["seed"] == 3
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64
        assert manifest["started"] <= manifest["finished"]
        _, out = run(tmp_path, "tm", ["theta-max", "--n", "10", "--margin", "0.2,0.8"])
        assert read_manifest(out)["seed"] is None

    @pytest.mark.parametrize("evidence, combination", [("frequentist", "max"),
                                                       ("bayesian", None)])
    def test_manifest_records_combination_only_where_read(self, tmp_path, evidence,
                                                          combination):
        code, out = run(tmp_path, "fdr", ["fdr-power", "--n", "20", "--margin", "0,2",
                                          "--k", "20", "--k1-grid", "5", "--reps", "2",
                                          "--evidence", evidence])
        assert code == 0
        assert read_manifest(out)["config"]["combination"] == combination

    def test_manifest_names_the_bit_generator(self, tmp_path):
        _, out = run(tmp_path, "g", ["tables", "--row", "n=20", "--margin", "0.25,0.75",
                                     "--reps", "50"])
        assert read_manifest(out)["rng"].split(";")[0] == "SFC64"

    NOISE_RUN = ["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4", "--theta", "1.5"]
    FDR_RUN = ["fdr-power", "--n", "20", "--margin", "0,2", "--k", "20", "--k1-grid", "5",
               "--reps", "2"]

    # (run, unread flags it accepts, the config keys they leave null, the
    # seed recorded at the top level)
    @pytest.mark.parametrize("args, unread, nulls, seed", [
        (["conservativity", "--n", "20", "--margin", "0.2,0.8"],
         ["--alpha", "0.1", "--alpha-upper", "0.04", "--alpha-lower", "0.02"],
         ["alpha", "alpha_upper", "alpha_lower"], None),
        (NOISE_RUN, ["--reps", "50", "--seed", "9"], ["reps", "seed"], None),
        (NOISE_RUN + ["--tau", "0.5"], ["--reps", "7", "--seed", "2"], ["reps", "seed"], None),
        (["correlation", "--partial", "--n", "30", "--sigma", "2", "--margin", "1,4"],
         ["--draws", "1000", "--seed", "2"], ["draws", "seed"], None),
        (["correlation", "--two-sided", "--w", "1", "--mc"],
         ["--draws", "1000", "--seed", "2"], ["draws", "seed"], None),
        (FDR_RUN, ["--tau", "3", "--storey-lambda", "0.2"], ["tau", "storey_lambda"], 0),
        (FDR_RUN + ["--adaptive"], ["--tau", "3"], ["tau"], 0),
        (FDR_RUN + ["--evidence", "bayesian"], ["--storey-lambda", "0.2"],
         ["storey_lambda", "combination"], 0),
    ])
    def test_manifest_records_unread_flags_as_null(self, tmp_path, args, unread, nulls,
                                                    seed):
        # a flag the run accepts but does not read changes neither the data
        # file nor the config and its digest
        _, plain = run(tmp_path, "plain", args)
        code, given = run(tmp_path, "given", args + unread)
        assert code == 0
        assert given.read_bytes() == plain.read_bytes()
        manifests = read_manifest(plain), read_manifest(given)
        assert manifests[0]["config"] == manifests[1]["config"]
        assert manifests[0]["config_digest"] == manifests[1]["config_digest"]
        assert all(manifests[1]["config"][name] is None for name in nulls)
        assert manifests[1]["seed"] == seed

    @pytest.mark.parametrize("args, read", [
        (["power-curve", "--n", "20", "--margin", "0.2,0.8", "--alpha", "0.1"],
         {"alpha": 0.1, "alpha_upper": 0.1}),
        (["correlation", "--two-sided", "--w", "0.5", "--mc", "--draws", "500",
          "--seed", "4"], {"draws": 500, "seed": 4}),
        (FDR_RUN + ["--evidence", "bayesian", "--tau", "3"], {"tau": 3.0}),
        (FDR_RUN + ["--adaptive", "--storey-lambda", "0.2"], {"storey_lambda": 0.2}),
    ])
    def test_manifest_records_flags_where_read(self, tmp_path, args, read):
        code, out = run(tmp_path, "read", args)
        assert code == 0
        manifest = read_manifest(out)
        assert {name: manifest["config"][name] for name in read} == read
        assert manifest["seed"] == manifest["config"].get("seed")

    def test_manifest_environment_outside_the_digest(self, tmp_path):
        args = ["theta-max", "--n", "10", "--margin", "0.2,0.8"]
        _, out = run(tmp_path, "env", args)
        manifest = read_manifest(out)
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpu_count": os.cpu_count()}
        # the digest covers the config alone, and the data file is unchanged
        canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
        assert manifest["config_digest"] == hashlib.sha256(canonical.encode()).hexdigest()
        _, again = run(tmp_path, "env2", args)
        assert again.read_bytes() == out.read_bytes()

    def test_same_effective_config_same_digest(self, tmp_path):
        cfg = tmp_path / "tm.cfg"
        cfg.write_text("n = 10\nmargin = 0.2,0.8\nresolution = 0.001\n")
        sources = {
            "defaults": ["--n", "10", "--margin", "0.2,0.8"],
            "flags": ["--n", "10", "--margin", "0.2,0.8", "--resolution", "0.001",
                      "--alpha", "0.05", "--alpha-upper", "0.05", "--alpha-lower", "0.05"],
            "file": ["--config", str(cfg)],
        }
        manifests = {}
        for name, args in sources.items():
            code, out = run(tmp_path, name, ["theta-max"] + args)
            assert code == 0
            manifests[name] = read_manifest(out)
        assert len({m["config_digest"] for m in manifests.values()}) == 1
        assert manifests["defaults"]["config"]["resolution"] == 0.001

    def test_digest_stable_across_runs(self, tmp_path):
        args = ["theta-max", "--n", "10", "--margin", "0.2,0.8"]
        _, out1 = run(tmp_path, "d1", args)
        _, out2 = run(tmp_path, "d2", args)
        m1 = read_manifest(out1)
        m2 = read_manifest(out2)
        assert m1["config_digest"] == m2["config_digest"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["correlation", "--two-sided", "--w", "0.5",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        records = json.loads(out.read_text())
        assert records[0]["rho"] == pytest.approx(0.995712651646, rel=1e-9)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_output_is_named_for_the_format(self, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        assert main(["theta-max", "--n", "10", "--margin", "0.2,0.8", "--format", fmt]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"theta-max.{fmt}", f"theta-max.{fmt}.manifest.json"]
        if fmt == "json":
            assert "theta_f" in json.loads((tmp_path / "theta-max.json").read_text())[0]

    @pytest.mark.parametrize("args, bayes, frequentist", [
        (["conservativity", "--n", "10", "--margin", "0.2,0.8"], "y_bayes", "y_frequentist"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8"], "y_bayes", "y_frequentist"),
        (["theta-max", "--n", "10", "--margin", "0.2,0.8"], "theta_b", "theta_f"),
    ], ids=["conservativity", "power-curve", "theta-max"])
    def test_json_without_prior_is_strict_json(self, tmp_path, args, bayes, frequentist):
        # the Bayesian value does not exist without a prior: null in JSON, nan in CSV

        def reject(word):
            raise ValueError(f"non-standard JSON constant {word}")

        out = tmp_path / "r.json"
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        records = json.loads(out.read_text(), parse_constant=reject)
        assert records and all(record[bayes] is None for record in records)
        assert all(isinstance(record[frequentist], float) for record in records)
        json.loads(Path(str(out) + ".manifest.json").read_text(), parse_constant=reject)
        code, csv_out = run(tmp_path, "r", args)
        assert code == 0
        assert all(row[bayes] == "nan" for row in read_csv(csv_out))


class TestConfigAndErrors:
    def test_config_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 10\nmargin = 0.2,0.8\nresolution = 0.001\n")
        out = tmp_path / "c.csv"
        assert main(["theta-max", "--config", str(cfg), "--out", str(out)]) == 0
        with open(str(out) + ".manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["config"]["n"] == 10
        out2 = tmp_path / "c2.csv"
        assert main(["theta-max", "--config", str(cfg), "--n", "30",
                     "--out", str(out2)]) == 0
        with open(str(out2) + ".manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["config"]["n"] == 30  # flag wins

    FDR = ["fdr-power", "--k", "100", "--k1-grid", "50", "--n", "50", "--margin", "0,1.5",
           "--reps", "20", "--seed", "1"]

    def test_config_false_keeps_a_flag_off(self, tmp_path):
        cfg = tmp_path / "off.cfg"
        cfg.write_text("adaptive = False\n")
        code, plain = run(tmp_path, "plain", self.FDR)
        assert code == 0
        code, off = run(tmp_path, "off", self.FDR + ["--config", str(cfg)])
        assert code == 0
        code, on = run(tmp_path, "on", self.FDR + ["--adaptive"])
        assert code == 0
        assert off.read_bytes() == plain.read_bytes() != on.read_bytes()
        cfg.write_text("adaptive = yes\n")
        code, on_cfg = run(tmp_path, "on_cfg", self.FDR + ["--config", str(cfg)])
        assert code == 0 and on_cfg.read_bytes() == on.read_bytes()

    def test_config_mc_false_skips_monte_carlo(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("mc = false\ntwo_sided = 1\nw = 0.5\ndraws = 1000\n")
        code, out = run(tmp_path, "corr", ["correlation", "--config", str(cfg)])
        assert code == 0
        assert [row["mode"] for row in read_csv(out)] == ["two_sided"]

    def test_config_bad_boolean_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "maybe.cfg"
        cfg.write_text("adaptive = maybe\n")
        code, out = run(tmp_path, "x", self.FDR + ["--config", str(cfg)])
        assert code == 2
        assert "adaptive" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["theta-max", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_invalid_margin_exits_2(self, tmp_path, capsys):
        code = main(["theta-max", "--n", "10", "--margin", "0.8,0.2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_exits_2(self, tmp_path, capsys):
        code = main(["conservativity", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "margin" in capsys.readouterr().err

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "notes.cfg"
        cfg.write_text("# a theta-max run\n\nn = 10  # trials\n   \nmargin = 0.2,0.8\n")
        code, out = run(tmp_path, "c", ["theta-max", "--config", str(cfg)])
        assert code == 0
        assert read_manifest(out)["config"]["n"] == 10

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, name):
        code, out = run(tmp_path, "x", ["theta-max", "--config", str(tmp_path / name)])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(opts):
            raise RuntimeError("kernel failed")

        _, help_text, flags = SUBCOMMANDS["theta-max"]
        monkeypatch.setitem(SUBCOMMANDS, "theta-max", (fail, help_text, flags))
        code, out = run(tmp_path, "x", ["theta-max", "--n", "10", "--margin", "0.2,0.8"])
        assert code == 1
        assert "runtime error: kernel failed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        code = main(["theta-max", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args, flag", [
        (["tables", "--row", "n=20", "--margin", "0.25,0.75", "--reps", "0"], "reps"),
        (["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4",
          "--theta", "1.5", "--tau", "0"], "tau"),
        (["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4",
          "--theta", "1.5", "--tau", "0.5", "--reps", "0"], "reps"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--alpha", "0"], "alpha"),
    ])
    def test_zero_values_are_not_replaced_by_defaults(self, tmp_path, capsys, args, flag):
        code = main(args + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["tables", "--row", "n=20", "--margin", "0.25,0.75", "--theta-alt", "1.5"],
         "theta_alt must lie in [0, 1], got 1.5"),
        (["tables", "--row", "n=20", "--margin", "0.25,0.75", "--theta-alt", "-0.5"],
         "theta_alt must lie in [0, 1], got -0.5"),
        (["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4", "--theta", "1.5",
          "--t-grid", "0.5,0.2"], "grid must be strictly increasing"),
        (["tables", "--row", "n=0", "--margin", "0.25,0.75"],
         "--row: row n must be positive, got 0"),
        (["tables", "--row", "m=5", "--margin", "0.25,0.75"],
         "--row: unsupported row key 'm' (only n=<int>)"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--theta-grid", "0:1:0"],
         "--theta-grid: invalid grid '0:1:0': step must be positive"),
        (["conservativity", "--n", "10", "--margin", "0.2,0.8", "--t-grid", "0.1:0.9:-0.1"],
         "--t-grid: invalid grid '0.1:0.9:-0.1': step must be positive"),
        (["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4", "--theta", "1.5",
          "--t-grid", "0.5,1.5"],
         "--t-grid: invalid grid '0.5,1.5': every value must lie in (0, 1)"),
        (["conservativity", "--n", "30", "--margin", "0.25,0.75", "--t-grid", "0,0.5"],
         "--t-grid: invalid grid '0,0.5': every value must lie in (0, 1)"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--theta-grid", "0.5,1.5"],
         "--theta-grid: invalid grid '0.5,1.5': every value must lie in [0, 1]"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--theta-grid", "0:1e-11:1e-13"],
         "--theta-grid: invalid grid '0:1e-11:1e-13': grid must be strictly increasing"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--theta-grid", "0:1:1e-7"],
         "--theta-grid: invalid grid '0:1:1e-7': more than 100000 values"),
        # a step lost in rounding never reaches the stop
        (["conservativity", "--n", "10", "--margin", "0.2,0.8", "--t-grid", "1e300:1e300:1"],
         "--t-grid: invalid grid '1e300:1e300:1': more than 100000 values"),
        # the same bound for a comma list
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--theta-grid",
          ",".join(str(i / 200_000) for i in range(200_000))], "more than 100000 values"),
        (["theta-max", "--n", "10", "--margin", "0.2,0.8", "--resolution", "1e-6"],
         "resolution must lie in [1e-5, 1e-3], got 1e-06"),
        (["noise-cdf", "--n", "30", "--sigma", "1e-310", "--margin", "1,4", "--theta", "1.5"],
         "sigma / sqrt(n) must be at least 2.22507e-308"),
        (["fdr-power", "--n", "30", "--sigma", "1e-310", "--margin", "0,2", "--k", "20",
          "--k1-grid", "5", "--reps", "2"], "sigma / sqrt(n) must be at least 2.22507e-308"),
    ])
    def test_value_outside_its_domain_exits_2(self, tmp_path, capsys, args, message):
        code, out = run(tmp_path, "x", args)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("n = 10\nmargin = 0.2,0.8\nn = 30\n")
        code, out = run(tmp_path, "x", ["theta-max", "--config", str(cfg)])
        assert code == 2
        assert "'n'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_row_lines_collect_like_the_repeated_flag(self, tmp_path):
        cfg = tmp_path / "rows.cfg"
        cfg.write_text("row = n=20\nrow = n=50\nmargin = 0.25,0.75\nreps = 200\n")
        code, from_file = run(tmp_path, "file", ["tables", "--config", str(cfg)])
        assert code == 0
        code, from_flags = run(tmp_path, "flags", [
            "tables", "--row", "n=20", "--row", "n=50", "--margin", "0.25,0.75",
            "--reps", "200"])
        assert code == 0
        assert [row["n"] for row in read_csv(from_file)] == ["20", "50"]
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_correlation_without_mode_exits_2(self, tmp_path, capsys):
        code = main(["correlation", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()


class TestClosedFlagSets:
    """Each subcommand accepts exactly the flags and config keys it reads."""

    @pytest.mark.parametrize("args, flag", [
        (["theta-max", "--n", "10", "--margin", "0.2,0.8", "--seed", "9"], "--seed"),
        (["theta-max", "--n", "10", "--margin", "0.2,0.8", "--reps", "5"], "--reps"),
        (["theta-max", "--n", "10", "--margin", "0.2,0.8", "--model", "binomial"], "--model"),
        (["conservativity", "--n", "10", "--margin", "0.2,0.8", "--reps", "0"], "--reps"),
        (["conservativity", "--n", "10", "--margin", "0.2,0.8", "--seed", "3"], "--seed"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--seed", "3"], "--seed"),
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--reps", "5"], "--reps"),
        (["correlation", "--two-sided", "--w", "0.5", "--reps", "7"], "--reps"),
        # a prefix of a flag the subcommand reads is not that flag
        (["power-curve", "--n", "10", "--margin", "0.2,0.8", "--theta", "0.5"], "--theta"),
    ])
    def test_flag_not_read_exits_2(self, tmp_path, capsys, args, flag):
        code, out = run(tmp_path, "x", args)
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("aplha = 0.01\n")
        code, out = run(tmp_path, "x", ["power-curve", "--n", "10", "--margin", "0.2,0.8",
                                        "--config", str(cfg)])
        assert code == 2
        assert "aplha" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_goes_through_the_flag_check(self, tmp_path, capsys):
        cfg = tmp_path / "xml.cfg"
        cfg.write_text("format = xml\n")
        code, out = run(tmp_path, "x", ["power-curve", "--n", "10", "--margin", "0.2,0.8",
                                        "--config", str(cfg)])
        assert code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_correlation_needs_exactly_one_mode(self, tmp_path, capsys):
        code, out = run(tmp_path, "x", ["correlation", "--two-sided", "--partial",
                                        "--w", "0.5"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        assert not out.exists()

    DESIGN = ["--n", "30", "--sigma", "2", "--margin", "1,4"]

    @pytest.mark.parametrize("args, flag", [
        (["--partial"] + DESIGN + ["--tau", "9"], "--tau"),
        (["--partial"] + DESIGN + ["--w", "0.5"], "--w"),
        (["--equivalence"] + DESIGN + ["--tau", "0.5", "--w", "0.5"], "--w"),
        (["--two-sided", "--w", "0.5", "--n", "30"], "--n"),
        (["--two-sided", "--w", "0.5", "--margin", "1,4"], "--margin"),
    ])
    def test_correlation_mode_rejects_flags_it_does_not_read(self, tmp_path, capsys,
                                                             args, flag):
        code, out = run(tmp_path, "x", ["correlation", "--draws", "1000"] + args)
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("draws", ["-5", "0", "3"])
    @pytest.mark.parametrize("mode", [
        ["--two-sided", "--w", "0.5"],
        ["--equivalence"] + DESIGN + ["--tau", "0.5"],
        ["--partial"] + DESIGN,
    ])
    def test_correlation_too_few_draws_exits_2(self, tmp_path, capsys, mode, draws):
        code, out = run(tmp_path, "x", ["correlation", "--mc", "--draws", draws] + mode)
        assert code == 2
        assert "--draws" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_k1_exits_2(self, tmp_path, capsys):
        code, out = run(tmp_path, "x", ["fdr-power", "--k", "50", "--k1-grid", "10.7,40",
                                        "--n", "20", "--margin", "0,2", "--reps", "5"])
        assert code == 2
        assert "--k1-grid" in capsys.readouterr().err
        assert not out.exists()

    NOISE = ["noise-cdf", "--n", "30", "--margin", "1,4", "--reps", "100"]
    FDR = ["fdr-power", "--n", "20", "--margin", "0,2", "--k", "50", "--k1-grid", "10,40",
           "--reps", "5"]
    BINOMIAL = ["--n", "10", "--margin", "0.2,0.8"]

    @pytest.mark.parametrize("args, flag", [
        (NOISE + ["--sigma", "nan", "--theta", "1.5"], "--sigma"),
        (NOISE + ["--sigma", "2", "--theta", "nan"], "--theta"),
        (NOISE + ["--sigma", "2", "--theta", "1.5", "--tau", "nan"], "--tau"),
        (["conservativity"] + BINOMIAL + ["--t-grid", "nan"], "--t-grid"),
        (["conservativity"] + BINOMIAL + ["--t-grid", "inf"], "--t-grid"),
        (FDR + ["--sigma", "nan"], "--sigma"),
        (FDR + ["--epsilon-star", "nan"], "--epsilon-star"),
        (["power-curve"] + BINOMIAL + ["--prior-beta", "inf,1"], "--prior-beta"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, args, flag):
        code, out = run(tmp_path, "x", args)
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    SEEDED = {
        "fdr-power": FDR,
        "tables": ["tables", "--margin", "0.25,0.75", "--row", "n=20", "--reps", "50"],
        "correlation-mc": ["correlation", "--two-sided", "--w", "0.5", "--mc",
                           "--draws", "2000"],
    }

    # closed-form runs that read --seed but draw nothing
    DRAWLESS = {
        "correlation-closed": ["correlation", "--two-sided", "--w", "0.5"],
        "noise-cdf-closed": ["noise-cdf", "--n", "5", "--sigma", "1", "--margin", "0,1",
                             "--theta", "0.5"],
    }

    @pytest.mark.parametrize("command", [*SEEDED, *DRAWLESS])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        argv = {**self.SEEDED, **self.DRAWLESS}[command] + ["--seed", "-1"]
        code, out = run(tmp_path, "x", argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "seed must be a non-negative integer, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, module, name", [
        ("fdr-power", fdr, "spawn_rng"),
        ("tables", power, "spawn_rng"),
        ("correlation-mc", correlation, "spawn_rng"),
    ])
    def test_seed_past_64_bits_draws_numpys_streams(self, tmp_path, monkeypatch,
                                                    command, module, name):
        argv = self.SEEDED[command] + ["--seed", str(2**64 + 5)]
        code, out = run(tmp_path, "ours", argv)
        assert code == 0
        assert read_manifest(out)["seed"] == 2**64 + 5

        monkeypatch.setattr(module, name, numpy_stream)
        code, reference = run(tmp_path, "numpy", argv)
        assert code == 0
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("args, message", [
        (["--k", "0"], "k, n and reps must be positive"),
        (["--reps", "0"], "k, n and reps must be positive"),
        (["--sigma", "-1"], "sigma and tau must be positive"),
        (["--tau", "0"], "sigma and tau must be positive"),
        (["--alpha", "1"], "alpha must lie in (0, 1)"),
        (["--epsilon-star", "0"], "epsilon_star must be positive"),
        (["--adaptive", "--storey-lambda", "1.5"], "storey_lambda must lie in (0, 1), got 1.5"),
        (["--adaptive", "--storey-lambda", "1"], "storey_lambda must lie in (0, 1), got 1.0"),
        (["--adaptive", "--storey-lambda", "0"], "storey_lambda must lie in (0, 1), got 0.0"),
        (["--adaptive", "--storey-lambda", "-0.5"], "storey_lambda must lie in (0, 1), got -0.5"),
    ])
    def test_invalid_fdr_experiment_exits_2(self, tmp_path, capsys, args, message):
        code, out = run(tmp_path, "x", self.FDR + args)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            parse_grid("0.9:0.1:0.1")
        code, out = run(tmp_path, "x", ["power-curve", "--n", "10", "--margin", "0.2,0.8",
                                        "--theta-grid", "0.9:0.1:0.1"])
        assert code == 2
        assert "--theta-grid" in capsys.readouterr().err
        assert not out.exists()


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_commands():
    """The ``equilab ...`` lines of the README's command-line block."""
    section = readme_text().split("## Command-line interface", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("equilab ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(SUBCOMMANDS)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_python_examples_run():
    # both python blocks, in order and in one namespace, as a reader runs them
    blocks = [part.split("```", 1)[0] for part in readme_text().split("```python")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    spec = namespace["spec"]
    assert namespace["theta_max"](spec, 1e-3) == (0.5, 0.5)
    assert [p.x for p in namespace["binom_power_curve"](spec, [0.4, 0.5])] == [0.4, 0.5]


def benchmark_workloads():
    """``bench/workloads.py``, loaded from its file (``bench`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_command_lines_resolve(tmp_path, seed):
    # every flag the benchmark passes must still parse and resolve; the
    # studies themselves are not run
    workloads = benchmark_workloads()
    parser = build_parser()
    for workload in workloads.WORKLOADS:
        for study in workloads.build(workload, seed, str(tmp_path)):
            opts = resolve_options(parser.parse_args(study["argv"]))
            assert opts["out"] == study["out"]


def test_parser_builds_every_subcommands_flags(capsys):
    parser = build_parser()
    args = parser.parse_args(["tables", "--row", "n=20", "--margin", "0.25,0.75"])
    assert args.row == ["n=20"] and args.margin == "0.25,0.75"
    args = parser.parse_args(["power-curve", "--n", "10", "--theta-grid", "0.5"])
    assert args.command == "power-curve" and args.n == "10" and args.theta_grid == "0.5"
    with pytest.raises(SystemExit):
        parser.parse_args(["power-curve", "--row", "n=20"])
    capsys.readouterr()
    assert main(["power-curve", "--help"]) == 0
    assert "--theta-grid" in capsys.readouterr().out


class TestMemoizedParser:
    """``build_parser`` is shared between calls: repeated ``main`` calls in
    one process must not see each other."""

    TABLES = ["tables", "--margin", "0.25,0.75", "--reps", "200", "--seed", "3"]

    def test_one_shared_parser(self, tmp_path):
        parser = build_parser()
        assert run(tmp_path, "tables", self.TABLES + ["--row", "n=20"])[0] == 0
        assert main(["power-curve", "--help"]) == 0
        assert build_parser() is parser and build_parser.cache_info().currsize == 1

    def test_repeated_rows_do_not_accumulate(self, tmp_path):
        for n in ("20", "30"):
            code, out = run(tmp_path, f"rows{n}", self.TABLES + ["--row", f"n={n}"])
            assert code == 0
            assert [row["n"] for row in read_csv(out)] == [n]

    def test_failed_call_leaves_no_trace(self, tmp_path, capsys):
        argv = self.TABLES + ["--row", "n=20", "--row", "n=40"]
        code, first = run(tmp_path, "first", argv)
        assert code == 0
        assert main(argv + ["--no-such-flag", "1"]) == 2
        code, second = run(tmp_path, "second", argv)
        assert code == 0
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()

    def test_top_level_help_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert len(SUBCOMMANDS) == 7
        for name in SUBCOMMANDS:
            assert name in out
