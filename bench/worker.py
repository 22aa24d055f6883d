"""Runs one workload's studies in a fresh process and reports what it saw.

Usage: ``python worker.py <spec.json> <result.json>``.  The spec names the
package source directory, the studies (argv lists and output files), the
measuring time and whether to trace.  The worker warms up on the first
study of each subcommand, then runs passes for the measuring time, at least
``MIN_PASSES`` of them; when tracing, every other pass is traced and at
least ``MIN_PASSES_TRACED`` run.  Every pass runs every study once, one
after another, through ``equilab.cli.main``, timed by a
``hostspeed.Meter`` that also samples the host's speed; each study's data
file is hashed after every pass.  The spans of the last traced pass are
written to the spec's ``spans`` file as JSON lines.
"""

import hashlib
import json
import platform
import resource
import sys
import time
import traceback

from hostspeed import Meter
from tracing import Tracer, summarize

MIN_PASSES = 3
MIN_PASSES_TRACED = 4


def _digest(path):
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def peak_rss_kb():
    """High-water resident set of this process image.  ``ru_maxrss`` would
    also count the parent's memory copied in by fork before exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_study(cli, argv):
    try:
        return cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashing study is a failed study
        traceback.print_exc()
        return -1


def run_pass(cli, studies):
    meter = Meter()
    seconds, rounds, cpu, codes, digests = [], [], 0.0, [], []
    for study in studies:
        start_cpu = time.process_time()
        code, study_s, round_s = meter.measure(lambda: _run_study(cli, study["argv"]))
        cpu += time.process_time() - start_cpu
        seconds.append(study_s)
        rounds.append(round_s)
        codes.append(code)
        digests.append(_digest(study["out"]))
    return {"seconds": sum(seconds), "cpu_seconds": cpu, "study_seconds": seconds,
            "round_seconds": rounds, "codes": codes, "digests": digests}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import numpy
    import equilab.cli as cli

    studies = spec["studies"]
    # the first study of each subcommand loads what a first call loads
    # (lazy imports, numpy's first-call set-up) at a fraction of a pass
    firsts = {study["argv"][0]: study for study in reversed(studies)}
    run_pass(cli, list(firsts.values()))
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    # traced and untraced passes alternate, so drift during the run does
    # not show up as tracing overhead
    min_passes = MIN_PASSES_TRACED if spec["trace"] else MIN_PASSES
    while len(passes) < min_passes \
            or time.perf_counter() - start < spec["seconds"]:
        traced = spec["trace"] and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        record = run_pass(cli, studies)
        record["traced"] = traced
        if traced:
            tracer.uninstall()
            record["layers"] = summarize(tracer.spans)
        passes.append(record)
    if spec["trace"]:
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for name, begin, end, parent, size in tracer.spans:
                handle.write(json.dumps({"name": name, "start": begin - origin,
                                         "end": end - origin, "parent": parent,
                                         "size": size}) + "\n")
    result = {
        "passes": passes,
        "peak_rss_kb": peak_rss_kb(),
        "unpatched": tracer.missing,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])
