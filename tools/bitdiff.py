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
  and one batched encode, of every table scheme at dims 12 and 48 (and on
  a random dim-12 table), and of reduced (commuting) and exponential
  (random) liere at n = 5, 8, 16 and 48;
* combined and every block raster at 5x4 and 16x16, of every table scheme
  at dim 12 and of both liere encoders at n = 5 and 8;
* ``grad_frequencies`` per token and batched, every table scheme at dims 12
  and 48;
* config text of every table scheme, by default, by table and by base (or
  uniform frequency), and after a round trip;
* the output and exit code of default ``ropekit verify`` and of
  ``verify --seed 3``.

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


def probe() -> dict:
    """Every probe's name and output array, under the ``ropekit`` on the path."""
    from ropekit import cli, encodings as E
    from ropekit.attention import render_pattern

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
        for dim in (12, 48):
            encoders[f"{scheme}.d{dim}"] = lambda s=scheme, d=dim: E.make_encoder(s, d)
        layout = E.SCHEMES[scheme].table
        freqs = rng.uniform(-2.0, 2.0, (12 // E.SCHEMES[scheme].block, E.SCHEMES[layout].axes))
        if E.SCHEMES[scheme].shared:
            freqs[:] = freqs[0, 0]
        encoders[f"{scheme}.random-table.d12"] = lambda s=scheme, t=E.FrequencyTable(layout, freqs): E.Encoder(s, 12, t)
    for n in (5, 8, 16, 48):
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

    rasters = [f"{s}.d12" for s in tables] + [f"liere-{k}.n{n}" for k in ("reduced", "exponential") for n in (5, 8)]
    for name in rasters:
        enc = encoders[name]()
        zq, zk = rng.standard_normal((2, enc.dim))
        for w, h in ((5, 4), (16, 16)):
            for block in (None, *range(enc.pattern_blocks)):
                record(f"raster.{name}.{w}x{h}.{'all' if block is None else block}",
                       lambda: render_pattern(enc, zq, zk, w, h, block).values)

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

    for argv in (["verify"], ["verify", "--seed", "3"]):
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
