"""Golden outputs: every CLI subcommand at one small fixed configuration must
reproduce its stored CSV byte for byte, and every study of the benchmark's
three workloads at seed 1 must pass the benchmark's own oracles and
reproduce the SHA-256 of its data file stored in ``bench-seed1.sha256``.

An intended numeric change regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and explains the diff in
CHANGES.md.
"""

import hashlib
import importlib.util
import os
import sys
import tempfile

import pytest

from equilab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
BENCH_DIR = os.path.join(os.path.dirname(GOLDEN_DIR), os.pardir, "bench")
BENCH_DIGESTS = os.path.join(GOLDEN_DIR, "bench-seed1.sha256")
BENCH_SEED = 1

CONFIGS = {
    "conservativity": [
        "conservativity", "--n", "30", "--margin", "0.25,0.75",
        "--prior-beta", "0.5,0.5"],
    "power-curve": [
        "power-curve", "--n", "20", "--margin", "0.2,0.8", "--prior-beta", "2,3",
        "--alpha-upper", "0.05", "--alpha-lower", "0.025"],
    "theta-max": [
        "theta-max", "--n", "20", "--margin", "0.2,0.8", "--prior-beta", "0.5,0.5",
        "--resolution", "0.001"],
    "noise-cdf": [
        "noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4",
        "--theta", "1.5", "--tau", "0.5", "--reps", "2000", "--seed", "3"],
    "correlation": [
        "correlation", "--equivalence", "--n", "30", "--sigma", "2", "--tau", "0.5",
        "--margin", "1,4", "--mc", "--draws", "20000", "--seed", "5"],
    "fdr-power": [
        "fdr-power", "--k", "100", "--k1-grid", "10,50,90", "--n", "50",
        "--margin", "0,1.5", "--tau", "0.25", "--reps", "20", "--seed", "1"],
    "tables": [
        "tables", "--row", "n=20", "--row", "n=50", "--margin", "0.25,0.75",
        "--reps", "2000", "--seed", "42"],
}


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.csv")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(CONFIGS[name] + ["--out", str(out)]) == 0
    with open(golden_path(name), "rb") as handle:
        assert out.read_bytes() == handle.read()


def bench_module(name):
    """``bench/<name>.py``, loaded from its file (``bench`` is no package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_outputs(out_dir):
    """Run every study of the three workloads at ``BENCH_SEED`` into
    ``out_dir``; return {file name: SHA-256} and {study id: problems}."""
    workloads, oracles = bench_module("workloads"), bench_module("oracles")
    digests, problems = {}, {}
    for workload in workloads.WORKLOADS:
        for study in workloads.build(workload, BENCH_SEED, str(out_dir)):
            code = main(list(study["argv"]))
            found = oracles.check(study) if code == 0 else [f"exit code {code}"]
            if found:
                problems[study["id"]] = found
            with open(study["out"], "rb") as handle:
                digests[os.path.basename(study["out"])] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests, problems


def read_bench_digests():
    with open(BENCH_DIGESTS, encoding="utf-8") as handle:
        return dict(reversed(line.split("  ")) for line in handle.read().splitlines())


def test_benchmark_studies_pass_oracles_with_golden_digests(tmp_path):
    digests, problems = bench_outputs(tmp_path)
    assert problems == {}
    assert len(digests) == 39
    assert digests == read_bench_digests()


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in CONFIGS.items():
        path = golden_path(name)
        if main(argv + ["--out", path]) != 0:
            raise SystemExit(f"{name} failed")
        os.remove(path + ".manifest.json")
    with tempfile.TemporaryDirectory() as scratch:
        digests, problems = bench_outputs(scratch)
    if problems:
        raise SystemExit(f"benchmark oracles failed: {problems}")
    with open(BENCH_DIGESTS, "w", encoding="utf-8") as handle:
        handle.writelines(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
