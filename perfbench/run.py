"""Run one workload of the ropekit benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ropekit source checkout; it imports ropekit from
``src/`` there.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a value
and a unit); the line before it holds the details: environment, sample
counts, tail percentile and, for traced runs, where the spans were written.

This launcher uses the standard library only.  It pins the BLAS and OpenMP
thread counts to one in the environment of the processes it starts (never
in its own or the machine's), times set-up as the median of several fresh
processes that import ropekit and build the workload, half of them before
and half after the measurement, which runs in one more process.  It exits
non-zero, printing no result, when anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pattern-raster", "grid-attention", "liere-grid")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROCESSES = 11
HELD_OUT_SEED = 7919   # never used while tuning; a claimed gain must also hold on it


def unit_of(metric):
    if metric.endswith(".us"):
        return "us"
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith(".flop"):
        return "flop"
    if metric.endswith((".calls", "checks_failed")):
        return "count"
    return "s"


def child(args, env, timeout):
    """Run measure.py with ``args``; returns its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "measure.py"), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ropekit" / "__init__.py").is_file():
        print(f"run.py: no ropekit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining():  # every process ends in time for the whole run to take under S + 120 s
        return args.seconds + 120 - (time.monotonic() - started)

    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up is timed on either side of the measurement, about S seconds
    # apart, so that its median does not rest on one slow spell of the host
    before = 0 if args.trace else (SETUP_PROCESSES + 1) // 2
    after = 0 if args.trace else SETUP_PROCESSES // 2
    try:
        setup = [child(["--setup", *common], env, remaining())["setup_s"] for _ in range(before)]
        res = child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env,
                    remaining())
        setup += [child(["--setup", *common], env, remaining())["setup_s"] for _ in range(after)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    details = dict(res["details"], seed=args.seed, held_out_seed=HELD_OUT_SEED,
                   run_seconds=args.seconds, trace=args.trace, setup_samples_s=setup,
                   caller_thread_env={v: os.environ.get(v) for v in THREAD_VARS})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
