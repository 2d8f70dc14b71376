"""Compare the outputs of the working tree with those of a git revision, bit for bit.

Usage: ``python tools/bitdiff.py --parent REV``

Extracts ``src/`` of revision ``REV`` into a temporary directory with
``git archive`` (local git only), then runs the probe set below once under
that tree and once under the working tree's ``src/``, each in its own Python
process with one BLAS thread.  Every array that moved is printed with its
largest absolute difference (or with both texts, for an error or a text
output), and the exit code is 1 if anything moved, 0 if nothing did.

The probes, every one on fixed draws:

* per-token encodes, fresh and repeated (the second pass reads the store),
  batched, broadcast and empty (``(0, dim)`` tokens at ``(0, axes)``
  positions) encodes, of every table scheme at dims 12, 48 and 96 (and on
  a random dim-12 table), and of reduced (commuting) and exponential
  (random) liere at n = 5, 8, 16, 17 and 48;
* one-position encodes of every input kind that ``Encoder.encode`` hands
  to ``_inputs`` (lists, tuples, float32, int and bool tokens, an int
  position, F-order and strided tokens, an ndarray subclass, 0-d and
  Python-float positions, a ``(1, axes)`` position, a token batch, and the
  kinds it rejects), each twice on a fresh encoder, a store miss and then
  a hit, of every table scheme at dim 12 and of reduced and exponential
  liere at n = 8 and 17;
* the free functions ``rope1d``, ``trivial2d``, ``axial``, ``mixed``,
  ``spherical_fast`` and the ``spherical`` reference, per token and
  batched at dims 12 and 48 on their encoders' tables, ``uniform`` at two
  frequencies, and ``liere`` on both liere pairs at n = 5, 8 and 17;
* combined and every block raster at 1x1, 7x3, 5x4, 16x16 and 64x64, of
  every table scheme at dims 12 and 48 and of both liere encoders at n = 5
  and 8;
* ``make_grid(...).positions`` at (16, 16), (32, 32, 16, 16), (7, 5),
  (5, 7, 3, 2), (1, 9) and (9, 1);
* ``attention_weights`` and ``softmax_attention`` at N = 64, d = 16 and on
  48 queries against 80 keys, by the default scale and by 0.3;
* ``grad_frequencies`` per token and batched, every table scheme at dims 12
  and 48;
* config text of every table scheme, by default, by table and by base (or
  uniform frequency), and after a round trip;
* a pickle round trip of each record: a table's frequencies, an
  encoder's encodes, a grid's positions, a pattern's values and the arrays
  of a canonical form at n = 17;
* the output and exit code of default ``ropekit verify``, of
  ``verify --seed 3`` and of ``verify --list``.

A probe that raises records its error text, so an error that appears or
goes away shows as a moved array.  No digest file is kept: BLAS bits can
differ between machines, so the comparison is always of two trees on one
machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# the probe set, run in a child process under one tree
# ---------------------------------------------------------------------------


def _text(s: str) -> np.ndarray:
    return np.frombuffer(s.encode(), np.uint8)


def _generators(n: int, commuting: bool, rng: np.random.Generator) -> list:
    """Two skew n x n generators: block-diagonal in one random orthogonal
    basis when ``commuting``, else with independent normal entries."""
    if not commuting:
        return [u - u.T for u in (np.triu(rng.standard_normal((n, n)), k=1) for _ in range(2))]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gens = []
    for _ in range(2):
        b = np.zeros((n, n))
        b[:n - n % 2, :n - n % 2] = np.kron(np.diag(rng.standard_normal(n // 2)), [[0.0, -1.0], [1.0, 0.0]])
        gens.append(q @ b @ q.T)
    return gens


class _Subclass(np.ndarray):
    pass


def _fallback_kinds(z, batch, p, strided) -> dict:
    """Tokens and a position of every kind that ``Encoder.encode`` hands to
    ``_inputs``, from a token ``z``, a token ``batch``, a position ``p``
    and ``z`` as a strided view."""
    return {
        "list": (z.tolist(), p.tolist()),
        "tuple": (tuple(z), tuple(p)),
        "float32-tokens": (z.astype(np.float32), p),
        "int-tokens": (batch.astype(int), p),
        "bool-tokens": (batch > 0, p),
        "int-position": (z, np.arange(1, len(p) + 1)),
        "f-order-token-batch": (np.asfortranarray(batch), p),
        "strided-token-view": (strided, p),
        "ndarray-subclass": (z.view(_Subclass), p.view(_Subclass)),
        "0-d-position": (z, np.array(p[0])),
        "python-float-position": (z, float(p[0])),
        "1-by-axes-position": (z, p[None]),
        "token-batch-at-one-position": (batch, p),
        "wrong-dim": (z[:-1], p),
        "wrong-axes-count": (z, np.append(p, 0.5)),
        "complex-tokens": (z.astype(complex), p),
        "none-token-entry": ([None, *z.tolist()[1:]], p),
        "none-position-entry": (z, [None, *p.tolist()[1:]]),
    }


def probe() -> dict:
    """Every probe's name and output array, under the ``ropekit`` on the path."""
    from ropekit import cli, encodings as E
    from ropekit.attention import attention_weights, render_pattern, softmax_attention
    from ropekit.grid import make_grid
    from ropekit.linalg import canonical_form

    out = {}

    def record(name, fn):
        try:
            out[name] = np.asarray(fn())
        except Exception as exc:  # an error is an output too
            out[name] = _text(f"{type(exc).__name__}: {exc}")

    rng = np.random.default_rng(20260)
    tables = [s for s, spec in E.SCHEMES.items() if spec.table]
    encoders = {}
    for scheme in tables:
        for dim in (12, 48, 96):
            encoders[f"{scheme}.d{dim}"] = lambda s=scheme, d=dim: E.make_encoder(s, d)
        layout = E.SCHEMES[scheme].table
        freqs = rng.uniform(-2.0, 2.0, (12 // E.SCHEMES[scheme].block, E.SCHEMES[layout].axes))
        if E.SCHEMES[scheme].shared:
            freqs[:] = freqs[0, 0]
        encoders[f"{scheme}.random-table.d12"] = lambda s=scheme, t=E.FrequencyTable(layout, freqs): E.Encoder(s, 12, t)
    for n in (5, 8, 16, 17, 48):
        for kind, commuting in (("reduced", True), ("exponential", False)):
            gens = _generators(n, commuting, rng)
            encoders[f"liere-{kind}.n{n}"] = lambda g=gens: E.make_encoder("liere", generators=g)

    for name, make in encoders.items():
        fresh = make()
        z = rng.standard_normal((6, fresh.dim))
        p = rng.uniform(-4.0, 4.0, (6, fresh.axes))
        record(f"encode.{name}.fresh", lambda: np.stack([fresh.encode(z[i], p[i]) for i in range(6)]))
        record(f"encode.{name}.repeated", lambda: np.stack([fresh.encode(z[i], p[i]) for i in range(6)]))
        record(f"encode.{name}.batched", lambda: make().encode(z, p))
        record(f"encode.{name}.shared-token", lambda: make().encode(z[0], p))
        record(f"encode.{name}.shared-position", lambda: make().encode(z, p[0]))
        record(f"encode.{name}.empty", lambda: make().encode(z[:0], p[:0]))

    # the free functions on their encoders' parameters, and the spherical reference
    free = {"rope1d": E.rope1d, "trivial2d": E.trivial2d, "axial": E.axial, "mixed": E.mixed,
            "spherical": E.spherical_fast, "spherical-reference": E.spherical}
    for dim in (12, 48):
        for fn_name, fn in free.items():
            enc = encoders[f"{fn_name.split('-')[0]}.d{dim}"]()
            z = rng.standard_normal((6, dim))
            p = rng.uniform(-4.0, 4.0, (6, enc.axes))
            record(f"free.{fn_name}.d{dim}.batched", lambda: fn(z, p, enc.table))
            record(f"free.{fn_name}.d{dim}.token", lambda: fn(z[0], p[0], enc.table))
        z, p = rng.standard_normal((6, dim)), rng.uniform(-4.0, 4.0, (6, 2))
        for freq in (1.0, 0.37):
            record(f"free.uniform.d{dim}.freq-{freq}", lambda: E.uniform(z, p, freq))
    for n in (5, 8, 17):
        for kind in ("reduced", "exponential"):
            gens = encoders[f"liere-{kind}.n{n}"]().generators
            z, p = rng.standard_normal((6, n)), rng.uniform(-4.0, 4.0, (6, 2))
            record(f"free.liere-{kind}.n{n}.batched", lambda: E.liere(z, p, gens))
            record(f"free.liere-{kind}.n{n}.token", lambda: E.liere(z[0], p[0], gens))

    rasters = [f"{s}.d{d}" for d in (12, 48) for s in tables]
    rasters += [f"liere-{k}.n{n}" for k in ("reduced", "exponential") for n in (5, 8)]
    for name in rasters:
        enc = encoders[name]()
        zq, zk = rng.standard_normal((2, enc.dim))
        for w, h in ((1, 1), (7, 3), (5, 4), (16, 16), (64, 64)):
            for block in (None, *range(enc.pattern_blocks)):
                record(f"raster.{name}.{w}x{h}.{'all' if block is None else block}",
                       lambda: render_pattern(enc, zq, zk, w, h, block).values)

    for size in ((16, 16), (32, 32, 16, 16), (7, 5), (5, 7, 3, 2), (1, 9), (9, 1)):
        record(f"grid.{'x'.join(map(str, size))}", lambda: make_grid(*size).positions)

    for n, m in ((64, 64), (48, 80)):
        q, k, v = rng.standard_normal((n, 16)), rng.standard_normal((m, 16)), rng.standard_normal((m, 16))
        for scale in (None, 0.3):
            record(f"attention_weights.{n}x{m}.scale-{scale}", lambda: attention_weights(q, k, scale))
            record(f"softmax_attention.{n}x{m}.scale-{scale}", lambda: softmax_attention(q, k, v, scale))

    for scheme in tables:
        for dim in (12, 48):
            table = encoders[f"{scheme}.d{dim}"]().table
            axes = E.SCHEMES[scheme].axes
            zq, zk = rng.standard_normal((2, 5, dim))
            pq, pk = rng.uniform(-4.0, 4.0, (2, 5, axes))
            record(f"grad.{scheme}.d{dim}.token",
                   lambda: E.grad_frequencies(scheme, zq[0], zk[0], pq[0], pk[0], table))
            record(f"grad.{scheme}.d{dim}.batched", lambda: E.grad_frequencies(scheme, zq, zk, pq, pk, table))

    def config(enc):
        return E.dump_config(E.encoder_to_config(enc))

    for scheme in tables:
        given = {"uniform_freq": 2.5} if E.SCHEMES[scheme].shared else {"base": 37.5}
        built = {"default": encoders[f"{scheme}.d12"], "table": encoders[f"{scheme}.random-table.d12"],
                 "parameter": lambda: E.make_encoder(scheme, 12, **given)}
        for how, make in built.items():
            record(f"config.{scheme}.{how}", lambda: _text(config(make())))
            record(f"config.{scheme}.{how}.round-trip",
                   lambda: _text(config(E.encoder_from_config(E.parse_config(config(make()))))))

    def round_trip(x):
        return pickle.loads(pickle.dumps(x))

    # what each of the five records gives after a pickle round trip: a
    # table's frequencies, an encoder's encodes (the second reads the store),
    # a grid's positions, a pattern's values and a canonical form's arrays
    for name in ("mixed.d12", "spherical.random-table.d12", "liere-reduced.n8", "liere-exponential.n8"):
        enc = encoders[name]()
        z, p = rng.standard_normal((2, enc.dim)), rng.uniform(-4.0, 4.0, enc.axes)
        dup = round_trip(enc)
        record(f"pickle.encoder.{name}", lambda: np.stack([dup.encode(z[0], p), dup.encode(z[1], p)]))
        if enc.table is not None:
            record(f"pickle.table.{name}", lambda: round_trip(enc.table).freqs)
    for size in ((16, 16), (5, 7, 3, 2)):
        record(f"pickle.grid.{'x'.join(map(str, size))}", lambda: round_trip(make_grid(*size)).positions)
    enc = encoders["mixed.d12"]()
    zq, zk = rng.standard_normal((2, 12))
    record("pickle.pattern.mixed.d12.16x16", lambda: round_trip(render_pattern(enc, zq, zk, 16, 16)).values)
    for kind in ("reduced", "exponential"):
        gen = encoders[f"liere-{kind}.n17"]().generators[0]
        record(f"pickle.canonical-form.liere-{kind}.n17.frequencies",
               lambda: round_trip(canonical_form(gen)).frequencies)
        record(f"pickle.canonical-form.liere-{kind}.n17.basis", lambda: round_trip(canonical_form(gen)).basis)

    # one-position encodes of every input kind that Encoder.encode converts
    # or rejects through _inputs, each on a fresh encoder twice: a store
    # miss, then a hit
    for name in [f"{s}.d12" for s in tables] + [f"liere-{k}.n{n}" for k in ("reduced", "exponential") for n in (8, 17)]:
        make = encoders[name]
        dim, axes = make().dim, make().axes
        z = rng.integers(-4, 5, dim) / 4.0  # exact in float32, int and bool casts
        batch, p = rng.integers(-4, 5, (3, dim)) / 4.0, rng.uniform(-4.0, 4.0, axes)
        wide = np.empty((dim, 2))
        wide[:, 0] = z
        for kind, (zk, pk) in _fallback_kinds(z, batch, p, wide[:, 0]).items():
            enc = make()
            record(f"fallback.{name}.{kind}", lambda: np.stack([enc.encode(zk, pk), enc.encode(zk, pk)]))

    for argv in (["verify"], ["verify", "--seed", "3"], ["verify", "--list"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out[" ".join(argv)] = _text(f"exit {code}\n{buf.getvalue()}")
    return out


# ---------------------------------------------------------------------------
# the driver: extract, run under each tree, compare
# ---------------------------------------------------------------------------


def _run(src: Path, work: Path, label: str) -> dict:
    """``probe()`` in a new process with ``src`` first on the path."""
    path = work / f"{label}.pkl"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, __file__, "--probe", str(path), "--src", str(src)],
                   cwd=work, env=env, check=True)
    with open(path, "rb") as f:
        return pickle.load(f)


def _lines(a: np.ndarray) -> list:
    """A text output's lines, or a numeric array's dtype and shape as one line."""
    return a.tobytes().decode(errors="replace").splitlines() if a.dtype == np.uint8 else [f"{a.dtype}{a.shape}"]


def compare(parent: dict, change: dict) -> list:
    """One line per probe whose output differs between the two runs: a
    numeric array's largest absolute difference, else the first line that
    differs (an error's or a text's, or an array's dtype and shape)."""
    moved = []
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None:
            moved.append(f"{name}: only in the {'parent' if b is None else 'change'}")
        elif a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            continue
        elif a.dtype == b.dtype != np.uint8 and a.shape == b.shape:
            with np.errstate(invalid="ignore"):
                diff = np.abs(a.astype(float) - b.astype(float))
            moved.append(f"{name}: max |diff| {np.nanmax(diff, initial=0.0):.3e}")
        else:
            pairs = itertools.zip_longest(_lines(a), _lines(b), fillvalue="(no line)")
            x, y = next(((x, y) for x, y in pairs if x != y), ("(same lines)", "(other bytes)"))
            moved.append(f"{name}: {x!r} -> {y!r}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the git revision to compare the working tree with")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        import ropekit

        if Path(args.src).resolve() not in Path(ropekit.__file__).resolve().parents:
            sys.exit(f"bitdiff: imported {ropekit.__file__}, not the tree under {args.src}")
        with open(args.probe, "wb") as f:
            pickle.dump(probe(), f)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        work = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.parent, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(work / "parent", **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        parent = _run(work / "parent" / "src", work, "parent")
        change = _run(ROOT / "src", work, "change")
    moved = compare(parent, change)
    for line in moved:
        print(f"moved  {line}")
    print(f"bitdiff: {len(change)} probes, {len(moved)} moved (parent {args.parent}, change: the working tree)")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
