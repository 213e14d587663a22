"""Run one benchmark workload against the suprahmm sources of this checkout.

    python3 perfbench/run.py --workload desk|prosody|wav --seed N \
        --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 repeats the same
phases with every layer wrapped in spans and prints the per-layer
metrics instead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds
the run's provenance.  A JSON document with both, every check and the
phase timings is written to perfbench/out/, and a traced run also writes
its spans there as JSON lines.

The program under test is imported from ./src of the checkout that holds
this file; the run exits with code 2 if it is not there, and with code 1
if a check fails.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS threads are fixed before numpy loads: one thread per process keeps
# small-matrix timings steady on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "suprahmm")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "prosody", "wav"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_suprahmm_lines": lines,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print("no suprahmm sources at %s; run from a full checkout" % PACKAGE,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import suprahmm
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(suprahmm.__file__)) != PACKAGE:
        print("imported suprahmm from %s, not from this checkout" % suprahmm.__file__,
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(HERE, "work", "%s-s%d-p%d" % (args.workload, args.seed,
                                                         os.getpid()))
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(suprahmm, args.seed, args.seconds, workdir, tracer)
    try:
        workloads.WORKLOADS[args.workload](run)
        bank_bytes = sum(os.path.getsize(os.path.join(d, f))
                         for d in run.bank_dirs for f in os.listdir(d))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        span_cost, count_cost = tracing.per_call_overhead()
        overhead = span_cost * len(tracer.spans) + count_cost * tracer.counted_calls
        metrics = tracer.layer_metrics({
            "classifiers.bank_bytes": (bank_bytes, "bytes"),
            "trace.overhead_s": (overhead, "s"),
        })
    else:
        metrics = run.metrics()
    failed_checks = sorted(n for n, c in run.checks.items() if not c["ok"])
    result = {
        "correct": not failed_checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    prov = provenance()
    stem = "%s-s%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": prov, "checks": run.checks,
                   "phases_s": run.phases, "info": run.info,
                   "classify_calls": len(run.latencies_ms) + run.failed,
                   "finished": time.time()}, fh, indent=2, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(out_dir, stem + ".spans.jsonl"))
    for name in failed_checks:
        print("check failed: %s: %s" % (name, run.checks[name]["detail"]),
              file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
