"""Benchmark workloads: seeded inputs, timed operations and output oracles.

A workload is built once from its seed; building it (plus importing
ropekit) is the set-up that ``setup_s`` times.  It then yields rounds of
operations, one of each kind (a raster or an attention head per scheme).
Each operation makes its calls into ropekit through
``call(layer, name, fn, *args)``, so the harness can time every public call
on its own and the traced run can put a span around it, and it carries an
oracle that the harness evaluates after the operation's timer has stopped.
Every round repeats the same calls in the same order with the same cost,
so the k-th call of an operation can be compared across rounds.  ropekit
only ever receives arrays built here from the seed; every oracle is
computed by this module's own code (``liere-grid`` uses ropekit's
independent series exponential, as the README promises it can be used).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

import ropekit as rk

TABLE_SCHEMES = ("rope1d", "trivial2d", "axial", "mixed", "spherical", "uniform")
BLOCK_SIZE = {"rope1d": 2, "trivial2d": 2, "axial": 4, "mixed": 2, "spherical": 3, "uniform": 4}
BASE = 100.0

RASTER_TOL = 1e-9       # raster pixel against the closed-form block scores
BLOCK_SUM_TOL = 1e-12   # per-block rasters summed against the combined raster
ENCODE_TOL = 1e-10      # table-scheme encoding against the closed form
ATTENTION_TOL = 1e-9    # attention output against the reference softmax
ROW_SUM_TOL = 1e-12     # attention rows sum to one
LIERE_TOL = 1e-8        # liere encoding against matrix_exp_series(sum p_m A_m) @ z
GENERATOR_SEED = 0      # liere-grid's generator pairs, the same for every run seed


class Op(NamedTuple):
    label: str
    run: Callable    # run(call) -> output
    check: Callable  # check(output) -> bool


def direct(layer, name, fn, *args):
    """The untraced ``call``: no span, just the call."""
    return fn(*args)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def table_freqs(scheme, dim):
    """(blocks, axes) frequencies: the geometric ladder, halved on the y axis."""
    blocks = dim // BLOCK_SIZE[scheme]
    if scheme == "uniform":
        return np.ones((blocks, 2))
    ladder = BASE ** (-2.0 * np.arange(blocks) / blocks)
    if scheme in ("rope1d", "trivial2d"):
        return ladder[:, None]
    return np.column_stack([ladder, 0.5 * ladder])


def table_encoder(scheme, dim):
    freqs = table_freqs(scheme, dim)
    if scheme == "uniform":
        return rk.make_encoder("uniform", dim, uniform_freq=1.0), freqs
    table = rk.FrequencyTable("rope1d" if scheme == "trivial2d" else scheme, freqs)
    return rk.make_encoder(scheme, dim, table=table), freqs


def random_skew(rng, dim):
    upper = np.triu(rng.standard_normal((dim, dim)), k=1)
    return upper - upper.T


def commuting_pair(rng, dim):
    """Two skew generators sharing one random orthogonal eigenbasis."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    pairs = np.arange(dim // 2)

    def generator():
        b = np.zeros((dim, dim))
        f = rng.standard_normal(dim // 2)
        b[2 * pairs + 1, 2 * pairs] = f
        b[2 * pairs, 2 * pairs + 1] = -f
        a = q @ b @ q.T
        return 0.5 * (a - a.T)

    return generator(), generator()


def lattice(rows, cols, train_rows=None, train_cols=None):
    """(rows*cols, 2) row-major (p_x, p_y) positions, each axis spanning
    [-pi, pi] * size / training size (a single patch sits at 0)."""
    def axis(n, train):
        if n == 1:
            return np.zeros(1)
        extent = np.pi * n / (train or n)
        return np.linspace(-extent, extent, n)

    xs, ys = axis(cols, train_cols), axis(rows, train_rows)
    return np.column_stack([np.tile(xs, rows), np.repeat(ys, cols)])


def encode_all(call, enc, name, z, pos):
    """Encode the rows of ``z`` at ``pos`` one token per call."""
    return np.stack([call("encodings", name, enc.encode, zi, pi) for zi, pi in zip(z, pos)])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def reference_encode(scheme, freqs, z, pos):
    """Closed-form encodings of the rows of ``z`` (N, dim) at ``pos`` (N, 2)."""
    px, py = pos[:, :1], pos[:, 1:2]
    if scheme == "spherical":
        t = z.reshape(len(z), -1, 3)
        cy, sy = np.cos(py * freqs[:, 1]), np.sin(py * freqs[:, 1])
        cx, sx = np.cos(px * freqs[:, 0]), np.sin(px * freqs[:, 0])
        r1 = cy * t[..., 1] - sy * t[..., 2]          # roll acts first ...
        r2 = sy * t[..., 1] + cy * t[..., 2]
        out = np.stack([cx * t[..., 0] - sx * r1,     # ... then yaw
                        sx * t[..., 0] + cx * r1, r2], axis=-1)
        return out.reshape(len(z), -1)
    if scheme == "rope1d":
        angles = px * freqs[:, 0]
    elif scheme == "trivial2d":
        angles = (px + py) * freqs[:, 0]
    elif scheme == "mixed":
        angles = px * freqs[:, 0] + py * freqs[:, 1]
    else:  # axial, uniform: pair 2b turns with p_x, pair 2b+1 with p_y
        angles = np.empty((len(pos), 2 * len(freqs)))
        angles[:, 0::2] = px * freqs[:, 0]
        angles[:, 1::2] = py * freqs[:, 1]
    c, s = np.cos(angles), np.sin(angles)
    a, b = z[:, 0::2], z[:, 1::2]
    out = np.empty_like(z)
    out[:, 0::2] = c * a - s * b
    out[:, 1::2] = s * a + c * b
    return out


def reference_block_scores(scheme, freqs, zq, zk, pos):
    """(N, blocks) per-block scores of query ``zq`` at each position against
    key ``zk`` at the origin; blocks are pairs, or triples for spherical."""
    rotated = reference_encode(scheme, freqs, np.tile(zq, (len(pos), 1)), pos)
    width = 3 if scheme == "spherical" else 2
    return (rotated * zk).reshape(len(pos), -1, width).sum(axis=2)


def close(actual, expected, tol):
    actual = np.asarray(actual)
    return actual.shape == expected.shape and bool(np.all(np.abs(actual - expected) <= tol))


def check_raster(values, block_scores, block, size):
    expected = block_scores.sum(axis=1) if block is None else block_scores[:, block]
    return close(values, expected.reshape(size, size), RASTER_TOL)


def check_attention(q, k, v, out):
    """Rows sum to one (V's last column is all ones) and the output matches
    softmax(QK^T / sqrt(dim)) V computed here."""
    out = np.asarray(out)
    if out.shape != v.shape:
        return False
    logits = q @ k.T / np.sqrt(q.shape[1])
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = (w / w.sum(axis=1, keepdims=True)) @ v
    return close(out[:, -1], np.ones(len(out)), ROW_SUM_TOL) and close(out, expected, ATTENTION_TOL)


def check_table_head(scheme, freqs, pos, zq, zk, v, output):
    q, k, out = output
    return (close(q, reference_encode(scheme, freqs, zq, pos), ENCODE_TOL)
            and close(k, reference_encode(scheme, freqs, zk, pos), ENCODE_TOL)
            and check_attention(q, k, v, out))


def liere_rotations(generators, pos):
    return np.stack([rk.matrix_exp_series(sum(c * g for c, g in zip(p, generators)))
                     for p in pos])


def check_liere_head(rotations, zq, zk, v, output):
    q, k, out = output
    return (close(q, np.einsum("nij,nj->ni", rotations, zq), LIERE_TOL)
            and close(k, np.einsum("nij,nj->ni", rotations, zk), LIERE_TOL)
            and check_attention(q, k, v, out))


def check_reports(names, reports):
    """Every named check is reported, in order, and passed."""
    return [r.name for r in reports] == list(names) and all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class PatternRaster:
    """A size x size ``render_pattern`` per table scheme, plus one per-block
    raster per scheme: one fixed query vector swept over every pixel.

    The timed rasters are 16 x 16, not the 64 x 64 of ``ropekit pattern``
    (which the traced probes time): a raster is one ropekit call, and its
    fastest time in a run settles only when the call is short enough to
    fit in one of the host's full-speed spells.  Between runs it spread by
    0.10 at 64 x 64 (60-90 ms) and by 0.09 at 32 x 32 (15 ms).
    """

    name = "pattern-raster"

    def __init__(self, seed, size=16, dim=48):
        rng = np.random.default_rng(seed)
        self.size = size
        self.cases = []
        for scheme in TABLE_SCHEMES:
            enc, freqs = table_encoder(scheme, dim)
            zq, zk = unit(rng, dim), unit(rng, dim)
            block = int(rng.integers(enc.pattern_blocks))
            self.cases.append((scheme, enc, freqs, zq, zk, block))
        self._scores = {}

    def block_scores(self, case, size):
        key = (case[0], size)
        if key not in self._scores:
            scheme, _, freqs, zq, zk, _ = case
            self._scores[key] = reference_block_scores(scheme, freqs, zq, zk, lattice(size, size))
        return self._scores[key]

    def static_checks(self):
        """Per scheme: every per-block raster of a small pattern sums to the
        combined raster, and each matches its closed-form block score."""
        size = 8
        results = [np.array_equal(rk.make_grid(size, size).positions.reshape(-1, 2),
                                  lattice(size, size))]
        for case in self.cases:
            _, enc, _, zq, zk, _ = case
            scores = self.block_scores(case, size)
            combined = rk.render_pattern(enc, zq, zk, size, size).values
            blocks = [rk.render_pattern(enc, zq, zk, size, size, b).values
                      for b in range(enc.pattern_blocks)]
            results.append(close(np.sum(blocks, axis=0), combined, BLOCK_SUM_TOL)
                           and check_raster(combined, scores, None, size)
                           and all(check_raster(v, scores, b, size) for b, v in enumerate(blocks)))
        return results

    def ops(self):
        for case in self.cases:
            scheme, enc, _, zq, zk, block = case
            for b, label in ((None, scheme), (block, f"{scheme}.block")):
                def run(call, b=b, enc=enc, zq=zq, zk=zk):
                    return call("attention", "attention.render_pattern", rk.render_pattern,
                                enc, zq, zk, self.size, self.size, b).values

                def check(values, b=b, case=case):
                    return check_raster(values, self.block_scores(case, self.size), b, self.size)

                yield Op(label, run, check)


class GridAttention:
    """One attention head per table scheme on a resolution-scaled lattice:
    encode fresh queries and keys at every lattice position, then
    ``softmax_attention``."""

    name = "grid-attention"

    def __init__(self, seed, side=32, train=16, dim=96):
        self.rng = np.random.default_rng(seed)
        self.dim = dim
        self.grid = rk.make_grid(side, side, train, train)
        self.pos = lattice(side, side, train, train)
        pos = self.grid.positions.reshape(-1, 2)
        self.heads = []
        for scheme in TABLE_SCHEMES:
            enc, freqs = table_encoder(scheme, dim)
            p = pos[:, :enc.axes]
            self.heads.append((scheme, enc, freqs, p))

    def static_checks(self):
        return [np.array_equal(self.grid.positions.reshape(-1, 2), self.pos)]

    def ops(self):
        n = len(self.pos)
        for scheme, enc, freqs, p in self.heads:
            zq, zk = self.rng.standard_normal((2, n, self.dim))
            v = np.column_stack([self.rng.standard_normal((n, self.dim)), np.ones(n)])
            yield Op(scheme,
                     partial(attention_head, enc=enc, name=f"encodings.encode.{scheme}",
                             zq=zq, zk=zk, pos=p, v=v),
                     partial(check_table_head, scheme, freqs, self.pos, zq, zk, v))


class LiereGrid:
    """The grid-attention head shape with liere encoders on a side x side
    lattice: one fixed commuting generator pair and one fixed random
    (non-commuting) pair, both built here.

    The generators come from GENERATOR_SEED, not from the run's seed: the
    Jacobi route's cost depends on the generator (one encode per lattice
    position, each at its fastest of 25, took 0.119 to 0.153 s for the
    pairs of seeds 0 to 7), so per-seed generators let the seed move the
    time by about a tenth.  The run's seed draws the queries, keys and
    values.  The lattice is 4 x 4,
    not 8 x 8, so that a run repeats each encode (about 7 ms at full speed)
    some forty times, enough for its fastest time to settle.
    """

    name = "liere-grid"

    def __init__(self, seed, side=4, dim=16):
        self.rng = np.random.default_rng(seed)
        self.side, self.dim = side, dim
        pos = rk.make_grid(side, side).positions.reshape(-1, 2)
        gen_rng = np.random.default_rng(GENERATOR_SEED)
        self.heads = []
        for label, gens in (("liere-commuting", commuting_pair(gen_rng, dim)),
                            ("liere-random", (random_skew(gen_rng, dim), random_skew(gen_rng, dim)))):
            enc = rk.make_encoder("liere", generators=gens)
            self.heads.append((label, enc, gens, pos))
        self._rotations = {}

    def static_checks(self):
        return [np.array_equal(self.heads[0][3], lattice(self.side, self.side))]

    def rotations(self, label, gens, pos):
        if label not in self._rotations:
            self._rotations[label] = liere_rotations(gens, pos)
        return self._rotations[label]

    def ops(self):
        for label, enc, gens, pos in self.heads:
            n = len(pos)
            zq, zk = self.rng.standard_normal((2, n, self.dim))
            v = np.column_stack([self.rng.standard_normal((n, self.dim)), np.ones(n)])

            def check(output, label=label, gens=gens, pos=pos, zq=zq, zk=zk, v=v):
                return check_liere_head(self.rotations(label, gens, pos), zq, zk, v, output)

            yield Op(label,
                     partial(attention_head, enc=enc, name=f"encodings.encode.{label}",
                             zq=zq, zk=zk, pos=pos, v=v),
                     check)


def attention_head(call, enc, name, zq, zk, pos, v):
    q = encode_all(call, enc, name, zq, pos)
    k = encode_all(call, enc, name, zk, pos)
    return q, k, call("attention", "attention.softmax_attention", rk.softmax_attention, q, k, v)


def metric_name(check_name):
    """Check names hold ':', which metric names may not."""
    return check_name.replace(":", ".")


WORKLOADS = {w.name: w for w in (PatternRaster, GridAttention, LiereGrid)}
