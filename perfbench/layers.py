"""Per-layer probes of the traced run.

Each probe calls one public ropekit function a fixed number of times under
the tracer and reports the median span (or, for per-token encodes, the
median call).  Probe inputs come from the run's seed, like the workloads'.
Sizes follow the workloads: d8 is the default checks' liere dimension and
d16 liere-grid's, table schemes run at pattern-raster's dim 48, softmax at
grid-attention's (n1024, d96) and liere-grid's (n64, d16) head shapes.
"""

from __future__ import annotations

import statistics
from functools import partial

import numpy as np

import ropekit as rk
import workloads as w


def median_call(tr, layer, name, fn, arg_list):
    """Median seconds of ``fn(*args)`` over ``arg_list``, one span per call."""
    start = len(tr.spans)
    for args in arg_list:
        tr(layer, name, fn, *args)
    return statistics.median(tr.durations(name, start))


def probe(tr, seed, m, reps=1.0, raster=64, dim=48):
    """Fill ``m`` with every per-layer metric the workload loop does not give.

    Returns (attempted, failed) for the default checks it ran, one
    ``run_checks([name], seed)`` each: that reproduces the full
    ``run_checks(seed=seed)`` run exactly, because checks are seeded by their
    registry index.
    """
    rng = np.random.default_rng([seed, 1])

    def n(k):
        return max(1, round(k * reps))

    for d in (8, 16):
        a = w.random_skew(rng, d)
        pairs = (("liere-commuting", w.commuting_pair(rng, d)),
                 ("liere-random", (w.random_skew(rng, d), w.random_skew(rng, d))))
        for fn, k in ((rk.canonical_form, 9), (rk.matrix_exp, 9), (rk.matrix_exp_series, 30)):
            m[f"linalg.{fn.__name__}.d{d}.us"] = 1e6 * median_call(
                tr, "linalg", f"linalg.{fn.__name__}.d{d}", fn, [(a,)] * n(k))
        for label, gens in pairs:
            enc = rk.make_encoder("liere", generators=gens)
            args = [(rng.standard_normal(d), rng.uniform(-np.pi, np.pi, 2)) for _ in range(n(9))]
            m[f"encodings.encode.{label}.d{d}.us"] = 1e6 * median_call(
                tr, "encodings", f"encodings.encode.{label}.d{d}", enc.encode, args)
        for fn, gens in ((rk.reduce_liere_1d, (a,)), (rk.reduce_liere_mixed, pairs[0][1])):
            m[f"verify.{fn.__name__}.d{d}.us"] = 1e6 * median_call(
                tr, "verify", f"verify.{fn.__name__}.d{d}", fn, [gens] * n(9))

    pos = w.lattice(raster, raster)
    encoders = {s: w.table_encoder(s, dim)[0] for s in w.TABLE_SCHEMES}
    for scheme, enc in encoders.items():
        z = rng.standard_normal((n(300), dim))
        p = pos[rng.integers(len(pos), size=len(z)), :enc.axes]
        m[f"encodings.encode.{scheme}.us"] = 1e6 * median_call(
            tr, "encodings", f"encodings.encode.{scheme}", enc.encode, zip(z, p))

    tokens = [(rng.standard_normal(dim), rng.uniform(-np.pi, np.pi, 2)) for _ in range(n(300))]
    table = encoders["spherical"].table
    m["encodings.spherical_fast.us"] = 1e6 * median_call(
        tr, "encodings", "encodings.spherical_fast", rk.spherical_fast,
        [(z, p, table) for z, p in tokens])
    table = encoders["mixed"].table
    m["encodings.grad_frequencies.us"] = 1e6 * median_call(
        tr, "encodings", "encodings.grad_frequencies", rk.grad_frequencies,
        [("mixed", zq, zk, pq, pk, table) for (zq, pq), (zk, pk) in zip(tokens, tokens[1:] + tokens[:1])])
    m["encodings.make_encoder.table.us"] = 1e6 * median_call(
        tr, "encodings", "encodings.make_encoder.table", partial(rk.make_encoder, table=table),
        [("mixed", dim)] * n(200))
    m["encodings.make_encoder.liere.us"] = 1e6 * median_call(
        tr, "encodings", "encodings.make_encoder.liere", partial(rk.make_encoder, generators=pairs[1][1]),
        [("liere",)] * n(100))

    # render_pattern's own cost: each raster minus the same encodes made directly
    self_s = []
    for scheme, enc, _, zq, zk, _ in w.PatternRaster(seed, raster, dim).cases:
        raster_s = median_call(tr, "attention", f"attention.render_pattern.{scheme}",
                               rk.render_pattern, [(enc, zq, zk, raster, raster)] * n(2))
        m[f"attention.render_pattern.{scheme}.s"] = raster_s
        name = f"encodings.encode.{scheme}.raster"
        start = len(tr.spans)
        tr("encodings", name, enc.encode, zk, np.zeros(enc.axes))
        for p in pos[:, :enc.axes]:
            tr("encodings", name, enc.encode, zq, p)
        self_s.append(raster_s - sum(tr.durations(name, start)))
    m["attention.render_pattern.self_s"] = statistics.mean(self_s)

    for (heads, d), k in (((64, 16), 30), ((1024, 96), 7)):
        qkv = rng.standard_normal((3, heads, d))
        m[f"attention.softmax_attention.n{heads}.ms"] = 1e3 * median_call(
            tr, "attention", f"attention.softmax_attention.n{heads}", rk.softmax_attention, [qkv] * n(k))
    m["attention.attention_weights.n1024.ms"] = 1e3 * median_call(
        tr, "attention", "attention.attention_weights.n1024", rk.attention_weights, [qkv[:2]] * n(7))
    # computed: N*N*d multiply-adds (two flops each) for each of QK^T and PV,
    # and five elementwise passes over the N*N logits
    m["attention.softmax_attention.flop"] = 4 * 1024 * 1024 * 96 + 5 * 1024 * 1024

    m["grid.make_grid.us"] = 1e6 * median_call(
        tr, "grid", "grid.make_grid", rk.make_grid, [(32, 32, 16, 16)] * n(200))

    failed = 0
    for c in rk.check_names():
        name = f"verify.check.{w.metric_name(c)}"
        start = len(tr.spans)
        failed += not w.check_reports([c], tr("verify", name, rk.run_checks, [c], seed))
        (m[f"{name}.s"],) = tr.durations(name, start)
    m["verify.checks_failed"] = failed
    return len(rk.check_names()), failed
