"""Golden outputs: every CLI subcommand at one small fixed configuration must
reproduce its stored CSV byte for byte, and every study of the benchmark's
three workloads at seeds 1, 2 and 3 must pass the benchmark's own oracles
and reproduce the SHA-256 of its data file stored in
``bench-seed<seed>.sha256``.

An intended numeric change regenerates the files with
``PYTHONPATH=src python tests/test_golden.py``, which prints each golden
CSV and each digest line that moved, and explains the diff in CHANGES.md.
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
BENCH_SEEDS = (1, 2, 3)

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


def bench_digests_path(seed):
    return os.path.join(GOLDEN_DIR, f"bench-seed{seed}.sha256")


def bench_outputs(seed, out_dir):
    """Run every study of the three workloads at ``seed`` into ``out_dir``;
    return {file name: SHA-256} and {study id: problems}."""
    workloads, oracles = bench_module("workloads"), bench_module("oracles")
    digests, problems = {}, {}
    for workload in workloads.WORKLOADS:
        for study in workloads.build(workload, seed, str(out_dir)):
            code = main(list(study["argv"]))
            found = oracles.check(study) if code == 0 else [f"exit code {code}"]
            if found:
                problems[study["id"]] = found
            with open(study["out"], "rb") as handle:
                digests[os.path.basename(study["out"])] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests, problems


def read_bench_digests(seed):
    with open(bench_digests_path(seed), encoding="utf-8") as handle:
        return dict(reversed(line.split("  ")) for line in handle.read().splitlines())


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_benchmark_studies_pass_oracles_with_golden_digests(tmp_path, seed):
    digests, problems = bench_outputs(seed, tmp_path)
    assert problems == {}
    assert len(digests) == 39
    assert digests == read_bench_digests(seed)


def _read_bytes(path):
    """The bytes of ``path``, or None where it does not exist yet."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def regenerate():
    """Rewrite every golden CSV and digest file, and print each golden CSV
    whose bytes changed and each digest line that changed, was added or
    went."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in CONFIGS.items():
        path = golden_path(name)
        old = _read_bytes(path)
        if main(argv + ["--out", path]) != 0:
            raise SystemExit(f"{name} failed")
        os.remove(path + ".manifest.json")
        if _read_bytes(path) != old:
            print(f"changed: {os.path.relpath(path)}")
    for seed in BENCH_SEEDS:
        with tempfile.TemporaryDirectory() as scratch:
            digests, problems = bench_outputs(seed, scratch)
        if problems:
            raise SystemExit(f"benchmark oracles failed at seed {seed}: {problems}")
        path = bench_digests_path(seed)
        old = read_bench_digests(seed) if os.path.exists(path) else {}
        for name in sorted(set(old) | set(digests)):
            if old.get(name) != digests.get(name):
                print(f"changed: {os.path.relpath(path)} {name}: "
                      f"{old.get(name, '(none)')} -> {digests.get(name, '(none)')}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
