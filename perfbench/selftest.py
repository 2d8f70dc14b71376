"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit (an
untraced run of each workload and one traced run, all at tiny sizes; the
traced run still makes all the default checks once, about as long as one
``ropekit verify``), that each oracle accepts the true output and rejects
a corrupted one, and that the timing and tracing see every call.  Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import os
import sys

import measure
import run

measure.import_ropekit()
import numpy as np  # noqa: E402

import workloads as w  # noqa: E402

SEED = 5
TINY = {
    "pattern-raster": dict(size=8, dim=12),
    "grid-attention": dict(side=4, train=2, dim=12),
    "liere-grid": dict(side=2, dim=4),
}
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def tiny(name):
    return w.WORKLOADS[name](SEED, **TINY[name])


def check_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(wl["name"] for wl in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json names the launcher's workloads")
    setup_s = run.child(["--setup", "--workload", "liere-grid", "--seed", str(SEED)], os.environ, 60)["setup_s"]

    def emitted(res, trace):
        metrics = dict(res[2]) if trace else dict(res[2], setup_s=setup_s)
        return {k: run.unit_of(k) for k in metrics}

    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in run.WORKLOADS:
        res = measure.measure(tiny(name), SEED, 0.01, 0)
        expect(emitted(res, 0) == want, f"{name}: untraced run emits every end-to-end metric with its unit")
        expect(res[1] == 0 and res[0] >= 1, f"{name}: no failed operations")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    res = measure.measure(tiny("pattern-raster"), SEED, 0.01, 1, dict(reps=0.05, raster=8, dim=12))
    got = emitted(res, 1)
    expect(got == want, "traced run emits every per-layer metric with its unit"
           + (f" (missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})"
              if got != want else ""))
    expect(res[1] == 0, "traced run: no failed operations")


def first_op(wl, label):
    return next(op for op in wl.ops() if op.label == label)


def check_oracles():
    wl = tiny("pattern-raster")
    expect(all(wl.static_checks()), "pattern-raster: per-block rasters sum to the combined raster")
    for label in ("mixed", "spherical.block"):
        op = first_op(wl, label)
        values = np.array(op.run(w.direct))
        expect(op.check(values), f"pattern-raster: true {label} raster passes")
        values[3, 5] += 1e-6
        expect(not op.check(values), f"pattern-raster: {label} raster with one altered pixel fails")
    op = first_op(wl, "axial")
    expect(not op.check(np.array(op.run(w.direct)).T), "pattern-raster: transposed raster fails")

    for name, label in (("grid-attention", "axial"), ("grid-attention", "spherical"),
                        ("liere-grid", "liere-random"), ("liere-grid", "liere-commuting")):
        op = first_op(tiny(name), label)
        q, k, out = op.run(w.direct)
        expect(op.check((q, k, out)), f"{name}: true {label} head passes")
        expect(not op.check((q[::-1], k, out)), f"{name}: {label} with swapped query rows fails")
        expect(not op.check((q, k.T.reshape(k.shape), out)), f"{name}: {label} with transposed keys fails")
        bent = q.copy()
        bent[1, 2] += 1e-7
        expect(not op.check((bent, k, out)), f"{name}: {label} with one encoding entry off by 1e-7 fails")
        skewed = out.copy()
        skewed[0] *= 1.001
        expect(not op.check((q, k, skewed)), f"{name}: {label} attention row not summing to 1 fails")

    reports = w.rk.run_checks(["separability:axial"], SEED)
    expect(w.check_reports(["separability:axial"], reports), "checks: a passing check passes")
    broken = [w.rk.CheckReport(r.name, False, r.residual, r.trials, r.seed) for r in reports]
    expect(not w.check_reports(["separability:axial"], broken), "checks: a failed check fails")
    expect(not w.check_reports(["separability:axial"], []), "checks: a missing check fails")
    other = w.rk.run_checks(["equivariance:rope1d"], SEED)
    expect(not w.check_reports(["separability:axial"], other), "checks: another check's report fails")


def check_tracing():
    """ropekit's inner calls get spans of their own layer; every call of an
    operation is timed; tails never fall below the median."""
    for name, label, layers in (("pattern-raster", "rope1d", {"attention", "grid", "encodings"}),
                                ("liere-grid", "liere-random", {"encodings", "linalg", "attention"})):
        tracer = measure.Tracer(name)
        with measure.InnerSpans(tracer, w.rk) as inner:
            first_op(tiny(name), label).run(tracer)
        got = {s[1] for s in tracer.spans}
        expect(got == layers, f"{name}: traced {label} has spans in layers {sorted(layers)} (got {sorted(got)})")
        expect(inner.encodes > 0, f"{name}: traced {label} counts its encodes")
    wl = tiny("grid-attention")
    timer = measure.CallTimer()
    samples, rounds, _, _ = measure.run_rounds(wl, timer, 0.0)
    calls = 2 * len(wl.pos) + 1
    expect(rounds == 1 and len(timer.samples) == len(samples) * calls,
           f"grid-attention: one round times each head's {calls} calls on their own")
    expect(all(0 < timer.fastest(label) <= min(v) for label, v in samples.items()),
           "grid-attention: a head's summed fastest calls take no longer than the head")
    expect(measure.tail(range(15))[0] == 14, "tail of 15 samples is their maximum")
    expect(measure.tail(range(30))[0] == 19, "tail of 30 samples has 10 beyond it")


if __name__ == "__main__":
    check_oracles()
    check_tracing()
    check_metrics()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
