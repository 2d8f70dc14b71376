"""Measuring process of the ropekit benchmark (started by ``run.py``).

    python3 perfbench/measure.py --setup --workload NAME --seed N
    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1

With ``--setup`` it imports ropekit, builds the workload and prints the
seconds that took, so the caller can time set-up in fresh processes.
Otherwise it prints one JSON object: ``attempted``, ``failed``, ``metrics``
(name -> value) and ``details``.

Untraced (``--trace 0``) the whole budget is one closed loop of workload
rounds, with every ropekit call timed on its own and tracing off.  Traced
(``--trace 1``) a quarter of the budget is spent untraced and a quarter
traced, which gives the tracing overhead; the per-layer probes then run
under the same tracer and take about the other half.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from run import ROOT, THREAD_VARS

SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
LAYERS = ("linalg", "encodings", "attention", "grid", "bench")
TAIL_BEYOND = 10


def import_ropekit():
    sys.path.insert(0, str(SRC))
    import ropekit
    if not Path(ropekit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ropekit imported from {ropekit.__file__}, not from {SRC}")
    return ropekit


class Tracer:
    """Spans (name, layer, start_ns, end_ns, parent index) kept in memory.

    Called as ``tracer(layer, name, fn, *args)`` it stands in for
    ``workloads.direct`` and wraps the call in a span.
    """

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    def open(self, name, layer):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent])

    def close(self):
        self.spans[self._open.pop()][3] = time.perf_counter_ns()

    def begin(self, label):
        """Open the root span of one operation."""
        self.open(f"op.{label}", "bench")

    def end(self):
        self.close()

    def open_layer(self):
        return self.spans[self._open[-1]][1] if self._open else None

    def __call__(self, layer, name, fn, *args):
        self.open(name, layer)
        try:
            return fn(*args)
        finally:
            self.close()

    def durations(self, name, start=0):
        """Seconds of every span called ``name`` from index ``start`` on."""
        return [(s[3] - s[2]) * 1e-9 for s in self.spans[start:] if s[0] == name]

    def self_seconds(self, stop):
        """Per-layer self time (span minus its children) over spans[:stop]."""
        child = [0] * stop
        for s in self.spans[:stop]:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        totals = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, t0, t1, _), inner in zip(self.spans, child):
            totals[layer] += (t1 - t0 - inner) * 1e-9
        return totals

    def write(self, path):
        """One header line, then one JSON array per span; a span's id is its
        line number after the header, which ``parent`` refers to."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"workload": self.workload,
                                "fields": ["name", "layer", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class CallTimer:
    """The untraced ``call``: times each ropekit call of an operation on its
    own, keyed by the operation's label and the call's place in it."""

    def __init__(self):
        self.samples = {}
        self.label, self.index = None, 0

    def begin(self, label):
        self.label, self.index = label, 0

    def end(self):
        pass

    def __call__(self, layer, name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.samples.setdefault((self.label, self.index), []).append(t1 - t0)
        self.index += 1
        return out

    def fastest(self, label):
        """Sum over the calls of one operation of each call's fastest time."""
        return sum(min(v) for (lab, _), v in self.samples.items() if lab == label)


class InnerSpans:
    """Spans around the calls ropekit makes into its own layers, for the
    traced rounds only, and an exact count of ``Encoder.encode`` calls.

    The workloads only see the public call they make (``run_checks``,
    ``render_pattern``, ...); this patches the names through which ropekit
    reaches ``Encoder.encode``, ``matrix_exp``, ``canonical_form`` and
    ``make_grid``, so their time is charged to their own layer.  A call
    made inside a span of its own layer gets no span of its own, which
    leaves the self times unchanged and keeps the spans few.
    """

    def __init__(self, tracer, rk):
        from ropekit import attention, linalg
        self.targets = [(rk.Encoder, "encode", "encodings", "encodings.encode"),
                        (linalg, "matrix_exp", "linalg", "linalg.matrix_exp"),
                        (linalg, "canonical_form", "linalg", "linalg.canonical_form"),
                        (attention, "make_grid", "grid", "grid.make_grid")]
        self.tracer = tracer
        self.encodes = 0
        self.saved = []

    def wrap(self, fn, layer, name):
        tracer = self.tracer

        def inner(*args, **kwargs):
            if name == "encodings.encode":
                self.encodes += 1
            if tracer.open_layer() == layer:
                return fn(*args, **kwargs)
            tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return inner

    def __enter__(self):
        for owner, attr, layer, name in self.targets:
            fn = getattr(owner, attr)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, layer, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()


def run_rounds(wl, call, budget):
    """Closed loop of workload rounds for about ``budget`` seconds.

    Each operation is timed whole, and ``call`` sees each ropekit call it
    makes; its output is checked after its timer stops.  A new round starts
    only if the last one would still fit in the budget, and at least one
    round always runs.  Returns ({label: [seconds]}, rounds, attempted,
    failed).
    """
    samples, rounds, attempted, failed = {}, 0, 0, 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in wl.ops():
            call.begin(op.label)
            t0 = time.perf_counter()
            out = op.run(call)
            t1 = time.perf_counter()
            call.end()
            samples.setdefault(op.label, []).append(t1 - t0)
            attempted += 1
            failed += not op.check(out)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - r0) > budget:
            break
    return samples, rounds, attempted, failed


def median_op(samples):
    """Mean over the kinds of operation of each kind's median time."""
    return statistics.mean(statistics.median(v) for v in samples.values())


def tail(samples):
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it.  With 2 * TAIL_BEYOND samples or
    fewer that percentile would be at or below the median, so it is the
    maximum instead."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > 2 * TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def measure(wl, seed, seconds, trace, probe_kwargs=None):
    """Run one workload; returns (attempted, failed, metrics, details).

    ``op_s`` is seconds per operation, averaged over its kinds (schemes or
    generator pairs), each kind's time being the sum over its ropekit calls
    of that call's fastest time across the rounds.  The k-th call of a kind
    does the same work in every round, so its fastest time is its cost with
    the host at full speed.  On a shared host the speed switches between
    levels up to 2x apart: spells at full speed last milliseconds and slow
    spells up to tens of seconds, so a whole operation of a second or more
    almost never runs at full speed, while a call of a few milliseconds
    often does.  The whole-operation median and tail are in the details.
    """
    import layers
    import workloads

    static = wl.static_checks()
    attempted, failed = len(static), static.count(False)
    details = {"workload": wl.name}
    if not trace:
        timer = CallTimer()
        samples, rounds, ran, bad = run_rounds(wl, timer, seconds)
        everything = [x for v in samples.values() for x in v]
        tail_s, pct, beyond = tail(everything)
        metrics = {"op_s": statistics.mean(timer.fastest(label) for label in samples)}
        details.update(op_median_s=median_op(samples), op_tail_s=tail_s, tail_percentile=pct,
                       tail_samples_beyond=beyond, ops=len(everything), rounds=rounds,
                       calls_per_round=len(timer.samples), samples=samples)
        return attempted + ran, failed + bad, metrics, details

    untraced, _, ran_u, bad_u = run_rounds(wl, CallTimer(), seconds / 4)
    tracer = Tracer(wl.name)
    with InnerSpans(tracer, workloads.rk) as inner:
        traced, _, ran_t, bad_t = run_rounds(wl, tracer, seconds / 4)
    n_ops = sum(len(v) for v in traced.values())
    traced_spans = len(tracer.spans)
    metrics = {f"self.{layer}.s": t / n_ops
               for layer, t in tracer.self_seconds(traced_spans).items()}
    metrics["trace.overhead_s"] = median_op(traced) - median_op(untraced)
    metrics["encodings.encode.calls"] = inner.encodes / n_ops
    ran_p, bad_p = layers.probe(tracer, seed, metrics, **(probe_kwargs or {}))
    trace_file = TRACE_DIR / f"{wl.name}.jsonl"
    tracer.write(trace_file)
    details.update(untraced_median_op_s=median_op(untraced), traced_median_op_s=median_op(traced),
                   traced_ops=n_ops, traced_spans=traced_spans, spans=len(tracer.spans),
                   trace_file=str(trace_file.relative_to(ROOT)),
                   computed=["attention.render_pattern.self_s", "attention.softmax_attention.flop"])
    return (attempted + ran_u + ran_t + ran_p, failed + bad_u + bad_t + bad_p, metrics, details)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_ropekit()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    attempted, failed, metrics, details = measure(wl, args.seed, args.seconds, args.trace)
    details["in_process_setup_s"] = setup_s
    details["environment"] = environment(np)
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
