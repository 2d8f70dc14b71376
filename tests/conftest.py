"""The suite's wall time, and what its modules share.

``ENCODERS`` is the one encoder catalogue: every table scheme at dim 12,
commuting liere at an odd and an even dim (the reduced route) and
non-commuting liere (the exponential route); ``test_encodings`` holds it to
every scheme and route.  A module adds only the encoders that it needs
beyond these.  ``COPIES`` are the three ways to copy a record,
``input_kinds`` the inputs of every kind that one encode takes, and
``encode_in_threads`` runs one encoder from several threads at once.
"""

import copy
import pickle
import sys
import threading
import time

import numpy as np

from ropekit import encodings as E, verify as V

TABLE_SCHEMES = sorted(s for s, spec in E.SCHEMES.items() if spec.table)


def commuting_family(n, count, rng):
    """``count`` commuting skew generators of size ``n``: block-diagonal
    frequency matrices in one random orthogonal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gens = []
    for _ in range(count):
        b = np.zeros((n, n))
        for d, f in enumerate(rng.standard_normal(n // 2)):
            b[2 * d, 2 * d + 1], b[2 * d + 1, 2 * d] = -f, f
        a = q @ b @ q.T
        gens.append(0.5 * (a - a.T))
    return gens


def _encoders():
    rng = np.random.default_rng(59)
    encoders = {s: E.make_encoder(s, 12) for s in TABLE_SCHEMES}
    encoders["liere-commuting"] = E.make_encoder("liere", generators=commuting_family(7, 2, rng))
    encoders["liere-random"] = E.make_encoder("liere", generators=[V.random_skew(5, rng) for _ in range(2)])
    encoders["liere-commuting-even"] = E.make_encoder(
        "liere", generators=commuting_family(8, 2, np.random.default_rng(61)))
    return encoders


ENCODERS = _encoders()

COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


class _Subclass(np.ndarray):
    pass


def input_kinds(enc):
    """Inputs of every kind that ``Encoder.encode`` takes at one position,
    each with its canonical float64 C-order form, or None where it raises."""
    rng = np.random.default_rng(89)
    z = rng.integers(-4, 5, enc.dim) / 4.0  # exact in float32, int and bool casts
    batch = rng.integers(-4, 5, (3, enc.dim)) / 4.0
    p = rng.uniform(-2.0, 2.0, enc.axes)
    wide = np.empty((enc.dim, 2))
    wide[:, 0] = z
    strided = wide[:, 0]
    scalar = (z, p[:1]) if enc.axes == 1 else (None, None)  # one coordinate, or too few
    kinds = {
        "list": (z.tolist(), p.tolist(), z, p),
        "tuple": (tuple(z), tuple(p), z, p),
        "float32 tokens": (z.astype(np.float32), p, z, p),
        "int tokens": (batch.astype(int), p, batch.astype(int).astype(float), p),
        "bool tokens": (batch > 0, p, (batch > 0).astype(float), p),
        "int position": (z, np.arange(1, enc.axes + 1), z, np.arange(1.0, enc.axes + 1)),
        "F-order token batch": (np.asfortranarray(batch), p, batch, p),
        "strided token view": (strided, p, z, p),
        "ndarray subclass": (z.view(_Subclass), p.view(_Subclass), z, p),
        "0-d position": (z, np.array(p[0]), *scalar),
        "Python-float position": (z, float(p[0]), *scalar),
        "(1, axes) position": (z, p[None], z, p[None]),
        "token batch at one position": (batch, p, batch, p),
        "wrong dim": (z[:-1], p, None, None),
        "wrong axes count": (z, np.append(p, 0.5), None, None),
        "complex tokens": (z.astype(complex), p, None, None),
        "complex position": (z, p.astype(complex), None, None),
        "None token entry": ([None, *z.tolist()[1:]], p, None, None),
        "None position entry": (z, [None, *p.tolist()[1:]], None, None),
    }
    assert not strided.flags.c_contiguous and strided.flags.writeable
    return kinds


def encode_in_threads(enc, z, pool):
    """Four threads, more than the cores, each encode ``z`` at 150 positions
    of ``pool`` on the one encoder ``enc``, switching often; returns each
    thread's ``(index, bytes)`` pairs."""
    interval = sys.getswitchinterval()
    got = [[] for _ in range(4)]

    def work(out, order):
        for j in order:
            out.append((j, enc.encode(z, pool[j]).tobytes()))

    try:
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=work, args=(got[t], np.random.default_rng(t).integers(0, len(pool), 150)))
                   for t in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert all(len(out) == 150 for out in got)
    return got


def pytest_sessionstart(session):
    session.config._wall_t0 = time.perf_counter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - getattr(config, "_wall_t0", time.perf_counter())
    terminalreporter.write_line(f"total suite wall time: {elapsed:.2f} s")
