"""Command-line front end: record schemas, determinism, manifests, config
precedence, exit codes."""

import csv
import json

import pytest

from equilab.cli import main


def run(tmp_path, name, args):
    out = tmp_path / f"{name}.csv"
    code = main(args + ["--out", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestSubcommands:
    def test_theta_max_symmetric_pvalue(self, tmp_path):
        code, out = run(tmp_path, "tm", [
            "theta-max", "--model", "binomial", "--n", "10",
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


class TestDeterminismAndManifest:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["fdr-power", "--k", "40", "--k1-grid", "5,20", "--n", "15",
                "--margin", "0,2", "--tau", "0.25", "--reps", "8", "--seed", "7"]
        _, out1 = run(tmp_path, "a", args)
        _, out2 = run(tmp_path, "b", args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        base = ["fdr-power", "--k", "40", "--k1-grid", "20", "--n", "100",
                "--margin", "0,2", "--reps", "8"]
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

    def test_manifest_sidecar(self, tmp_path):
        args = ["theta-max", "--n", "10", "--margin", "0.2,0.8", "--seed", "3"]
        _, out = run(tmp_path, "m", args)
        with open(str(out) + ".manifest.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "theta-max"
        assert manifest["seed"] == 3
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64
        assert manifest["started"] <= manifest["finished"]

    def test_digest_stable_across_runs(self, tmp_path):
        args = ["theta-max", "--n", "10", "--margin", "0.2,0.8"]
        _, out1 = run(tmp_path, "d1", args)
        _, out2 = run(tmp_path, "d2", args)
        m1 = json.loads(open(str(out1) + ".manifest.json").read())
        m2 = json.loads(open(str(out2) + ".manifest.json").read())
        assert m1["config_digest"] == m2["config_digest"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["correlation", "--two-sided", "--w", "0.5",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        records = json.loads(out.read_text())
        assert records[0]["rho"] == pytest.approx(0.995712651646, rel=1e-9)


class TestConfigAndErrors:
    def test_config_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 10\nmargin = 0.2,0.8\nresolution = 0.001\n")
        out = tmp_path / "c.csv"
        assert main(["theta-max", "--config", str(cfg), "--out", str(out)]) == 0
        with open(str(out) + ".manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["config"]["n"] == "10"
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
        assert "margin" in capsys.readouterr().err or True

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

    def test_correlation_without_mode_exits_2(self, tmp_path, capsys):
        code = main(["correlation", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()
