"""Command-line surface: pattern rasters, schedule dumps, checks, benchmarks.

Every subcommand is deterministic for a fixed seed (bench timing columns
excepted).  Exit codes: 0 success / all checks passed, 1 check failure,
2 usage error (bad flags, malformed config, invalid block, unknown check,
unwritable path).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .attention import render_pattern
from .encodings import SCHEMES, encoder_from_config, frequency_schedule, make_encoder, parse_config
from .linalg import _integer
from .verify import check_names, commuting_generators, run_checks

_BENCH_LIERE_DIM_CAP = 256


def _table_schemes() -> list[str]:
    return [s for s, spec in SCHEMES.items() if spec.table is not None]


def _pattern_rng(seed: int) -> np.random.Generator:
    # counter-based generator: same seed, same draws, on every platform; a
    # Philox key is below 2**128
    seed = _integer("--seed", seed, 0, 2**128, "a non-negative integer below 2**128")
    return np.random.Generator(np.random.Philox(key=seed))


def _unit_draw(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _load_encoder(args):
    if args.config is not None:
        if args.scheme is not None:
            raise ValueError("--config and --scheme are mutually exclusive")
        return encoder_from_config(parse_config(Path(args.config).read_text()))
    if args.scheme is None:
        raise ValueError("either --scheme or --config is required")
    return make_encoder(args.scheme, args.dim, base=args.base)


def _write_pgm(path: str, values: np.ndarray) -> None:
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax > vmin:
        scaled = np.rint((values - vmin) / (vmax - vmin) * 255.0)
    else:
        scaled = np.zeros_like(values)
    payload = scaled.astype(np.uint8).tobytes()
    h, w = values.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + payload)


def _cmd_pattern(args) -> int:
    if args.width < 1 or args.height < 1:
        raise ValueError("--width and --height must be at least 1")
    enc = _load_encoder(args)
    rng = _pattern_rng(args.seed)
    z_q = _unit_draw(rng, enc.dim)
    z_k = _unit_draw(rng, enc.dim)
    pat = render_pattern(enc, z_q, z_k, args.width, args.height, args.block)
    _write_pgm(args.out, pat.values)
    if args.raw is not None:
        lines = [",".join(repr(float(v)) for v in row) for row in pat.values]
        Path(args.raw).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_freqs(args) -> int:
    sched = frequency_schedule(args.blocks, args.base)
    for d, omega in enumerate(sched):
        print(f"{d},{float(omega)!r}")
    return 0


def _cmd_verify(args) -> int:
    names = None
    if args.only is not None:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise ValueError("--only got no check names")
    reports = run_checks(names, seed=args.seed)
    for r in reports:
        print(r.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _bench_callables(dim: int, include_liere: bool, rng: np.random.Generator):
    jobs = []
    for scheme in _table_schemes():
        try:
            enc = make_encoder(scheme, dim)
        except ValueError as exc:
            print(f"skipping {scheme}: {exc}", file=sys.stderr)
            continue
        jobs.append((scheme, enc.encode, enc.axes))
    if include_liere:
        enc = make_encoder("liere", generators=commuting_generators(dim, rng))
        jobs.append(("liere", enc.encode, enc.axes))
    return jobs


def _cmd_bench(args) -> int:
    for name in ("batch", "tokens", "dim", "reps"):
        _integer(f"--{name}", getattr(args, name), 1, what="at least 1")
    rng = _pattern_rng(args.seed)
    include_liere = args.include_liere or args.dim <= _BENCH_LIERE_DIM_CAP
    jobs = _bench_callables(args.dim, include_liere, rng)
    n_tok = args.batch * args.tokens
    vecs = rng.standard_normal((n_tok, args.dim))
    positions = rng.uniform(-np.pi, np.pi, (n_tok, 2))
    print("scheme,median_ns_per_token,iqr")
    for name, fn, axes in jobs:
        pos = positions[:, :axes]
        per_rep = []
        for _ in range(args.reps):
            t0 = time.perf_counter_ns()
            for i in range(n_tok):
                fn(vecs[i], pos[i])
            per_rep.append((time.perf_counter_ns() - t0) / n_tok)
        q25, med, q75 = np.percentile(per_rep, (25, 50, 75))
        print(f"{name},{med:.1f},{q75 - q25:.1f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropekit",
        description="Rotary positional-encoding toolkit: patterns, schedules, checks, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="render an attention-pattern raster to PGM")
    p.add_argument("--scheme", choices=_table_schemes())
    p.add_argument("--dim", type=int, default=24,
                   help="token dimension; the default 24 splits into pairs, triples or quadruples")
    p.add_argument("--base", type=float)
    p.add_argument("--config", help="encoder JSON config file (instead of flags)")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--block", type=int, help="restrict to one block's contribution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw", help="also write unnormalized values as CSV here")
    p.add_argument("-o", "--out", default="pattern.pgm")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("freqs", help="print the geometric frequency schedule as CSV")
    p.add_argument("--blocks", type=int, default=8, help="number of schedule entries")
    p.add_argument("--base", type=float, default=100.0,
                   help="schedule base, positive and finite: entry d is base ** (-2d / blocks)")
    p.set_defaults(func=_cmd_freqs)

    p = sub.add_parser("verify", help="run the property-check suite (JSON lines)")
    p.add_argument("--only", help="comma-separated check names; default: full suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--list", action="store_true", help="list check names and exit")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="micro-benchmark encoders (CSV)")
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--tokens", type=int, default=64)
    p.add_argument("--dim", type=int, default=24)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-liere", action="store_true",
                   help="bench the generator scheme even at large dims")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "list", False):
        for n in check_names(include_hidden=True):
            print(n)
        return 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # KeyError str() wraps the message in quotes; OSError str() is the
        # readable form (args[0] would be the bare errno)
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
