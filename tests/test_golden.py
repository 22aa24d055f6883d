"""Golden outputs: every CLI subcommand at one small fixed configuration must
reproduce its stored CSV byte for byte.

An intended numeric change regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and explains the diff in
CHANGES.md.
"""

import os
import sys

import pytest

from equilab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

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


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in CONFIGS.items():
        path = golden_path(name)
        if main(argv + ["--out", path]) != 0:
            raise SystemExit(f"{name} failed")
        os.remove(path + ".manifest.json")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
