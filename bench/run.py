"""End-to-end and per-layer benchmark of the equilab command line.

Usage, from the repository root::

    python3 bench/run.py --workload exact-binomial --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A workload is a seeded list of studies (see ``workloads.py``), run as a
closed loop with one client: one ``equilab.cli.main(argv)`` call after
another, in one worker process with single-threaded numpy.  Each study is
one operation.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
``SETUP_LAUNCHES`` fresh interpreters of the time to ``import
equilab.cli``), ``wall_s`` (time of one pass over the studies, each study
at its median over the passes, after a warm-up), ``peak_rss_mb`` (peak
resident memory of the worker) and ``ok_ratio`` (studies that pass every
check / studies attempted).  Both times are scaled to a reference host
speed measured around and during each timed operation (``hostspeed.py``),
because the speed of a shared host drifts over minutes; the record keeps
them unscaled as well.  ``--trace 1`` wraps the package's layer
boundaries (``tracing.py``) and reports the per-layer metrics that
``BENCHMARK.json`` lists, plus the tracing overhead against untraced
passes of the same run; ``predictions.json`` says where each should move.
``--workload all`` runs every workload both ways and prints every metric.

A study fails when it exits non-zero, when its data file differs between
passes, or when the file disagrees with the oracle in ``oracles.py``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a record with the environment
and every study's outcome goes to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 30
# the worker may overrun the measuring time by its start-up, warm-up, last
# pass and its write-out
WORKER_MARGIN_S = 120.0
SETUP_CODE = "import equilab.cli, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
COUNT_UNITS = ("count", "B")


def _declared_metrics():
    """(end-to-end, per-layer) metrics as (name, unit) pairs, from the
    benchmark declaration next to the benchmark's directory."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return tuple([(m["name"], m["unit"]) for m in declared[key]]
                 for key in ("end_to_end", "per_layer"))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(env):
    """Median time from launching a fresh interpreter to ``import equilab.cli``
    done, at the reference host speed (``hostspeed``), and the same median
    unscaled; one discarded launch first fills the bytecode cache."""
    def launch():
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout) - start

    meter = hostspeed.Meter()
    times, raw = [], []
    for launch_index in range(SETUP_LAUNCHES + 1):
        seconds, _, round_s = meter.measure(launch)
        if launch_index:
            times.append(hostspeed.scaled(seconds, round_s))
            raw.append(seconds)
    return statistics.median(times), statistics.median(raw)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "equilab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(worker, workload, seed):
    return {
        "python": worker["python"], "numpy": worker["numpy"], "platform": worker["platform"],
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload, "seed": seed,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def study_problems(studies, passes):
    """Per study: the reasons it failed (empty when it passed)."""
    problems = []
    for i, study in enumerate(studies):
        codes = sorted({p["codes"][i] for p in passes})
        digests = {p["digests"][i] for p in passes}
        if codes != [0]:
            problems.append([f"exit codes {codes}"])
        elif len(digests) != 1:
            problems.append([f"data file differs between passes ({len(digests)} digests)"])
        else:
            problems.append(oracles.check(study))
    return problems


def pass_seconds(passes, scale=True):
    """Time of one pass with each study at its median over ``passes``, at the
    reference host speed (``hostspeed``) unless ``scale`` is false."""
    def study_times(p):
        if not scale:
            return p["study_seconds"]
        return [hostspeed.scaled(*pair) for pair in zip(p["study_seconds"], p["round_seconds"])]
    return sum(statistics.median(times) for times in zip(*map(study_times, passes)))


def layer_metrics(studies, passes, per_layer):
    """Per-layer metrics from the traced passes, and any count that did not
    repeat exactly between them."""
    traced = [p["layers"] for p in passes if p["traced"]]
    first = traced[0]
    metrics, unstable = {}, []
    for name, unit in per_layer:
        if name == "trace.overhead_s":
            value = (pass_seconds([p for p in passes if p["traced"]])
                     - pass_seconds([p for p in passes if not p["traced"]]))
        elif name == "power.support_passes_per_study":
            support = sum(workloads.support_size(study) for study in studies)
            calls = (first.get("equivalence.binom_onesided_pvalues.calls", 0)
                     + first.get("beta_binomial.posterior_prob_equiv.calls", 0))
            value = calls / support if support else 0.0
        elif unit in COUNT_UNITS:
            value = first.get(name, 0)
            if any(layers.get(name, 0) != value for layers in traced):
                unstable.append(name)
        else:
            value = statistics.median(layers.get(name, 0.0) for layers in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, unstable


def run_workload(workload, seed, seconds, trace, declared):
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        return _measure(workload, seed, seconds, trace, declared, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, declared, work):
    studies = workloads.build(workload, seed, str(work))
    env = _child_env()
    setup, setup_raw = (None, None) if trace else measure_setup(env)
    spec = {"src": str(SRC), "seconds": seconds, "trace": bool(trace),
            "spans": str(OUT / f"{workload}-seed{seed}.spans.jsonl"),
            "studies": [{"argv": s["argv"], "out": s["out"]} for s in studies]}
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                   env=env, stdout=sys.stderr, check=True, timeout=seconds + WORKER_MARGIN_S)
    worker = json.loads(result_path.read_text(encoding="utf-8"))
    passes = worker["passes"]
    problems = study_problems(studies, passes)
    failed = sum(1 for reasons in problems if reasons)
    untraced = [p for p in passes if not p["traced"]]
    end_to_end, per_layer = declared
    unstable = []
    if trace:
        metrics, unstable = layer_metrics(studies, passes, per_layer)
    else:
        values = {"setup_s": setup, "wall_s": pass_seconds(untraced),
                  "peak_rss_mb": worker["peak_rss_kb"] * 1024 / 1e6,
                  "ok_ratio": (len(studies) - failed) / len(studies)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
    record = {
        "environment": environment(worker, workload, seed),
        "trace": trace, "seconds": seconds,
        "correct": failed == 0 and not unstable,
        "attempted": len(studies), "failed": failed, "metrics": metrics,
        "unstable_counts": unstable, "unpatched": worker["unpatched"],
        "pass_seconds": [p["seconds"] for p in passes],
        "unscaled": {"setup_s": setup_raw, "wall_s": pass_seconds(untraced, scale=False)},
        # CPU time (with the host-speed probe's) next to wall time tells
        # slow code from a busy host
        "pass_cpu_seconds": [p["cpu_seconds"] for p in passes],
        "traced_passes": [p["traced"] for p in passes],
        "studies": [{"id": s["id"], "argv": s["argv"], "problems": reasons,
                     "seconds": [p["study_seconds"][i] for p in untraced],
                     "round_seconds": [p["round_seconds"][i] for p in untraced]}
                    for i, (s, reasons) in enumerate(zip(studies, problems))],
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record):
    """Print a record's failures and metrics, one per line."""
    workload = record["environment"]["workload"]
    for study in record["studies"]:
        if study["problems"]:
            print(f"FAILED {workload} {study['id']}: {'; '.join(study['problems'])}")
    for name in record["unstable_counts"]:
        print(f"UNSTABLE {workload} {name}: differs between traced passes")
    for name in record["unpatched"]:
        print(f"note: {name} is no longer there to trace")
    for name, metric in record["metrics"].items():
        print(f"{workload:15s} {name:45s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "equilab" / "cli.py").is_file():
        print(f"error: no equilab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    declared = _declared_metrics()
    if args.workload == "all":
        records = [run_workload(name, args.seed, args.seconds, trace, declared)
                   for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        records = [run_workload(args.workload, args.seed, args.seconds, args.trace, declared)]
    print("environment " + json.dumps(records[0]["environment"], sort_keys=True))
    for record in records:
        report(record)
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for name, metric in record["metrics"].items():
            workload = record["environment"]["workload"]
            metrics[f"{workload}.{name}" if prefix else name] = metric
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
