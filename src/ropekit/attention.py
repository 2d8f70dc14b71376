"""Attention scores, softmax attention, and attention-pattern rasters.

The pattern raster fixes the key at the origin and sweeps the query over a
[-pi, pi]^2 pixel grid: pixel (0, 0) is position (-pi, -pi), pixel
(height-1, width-1) is (pi, pi).  An optional block index restricts the
score to one block's contribution (one coordinate pair, or one triple for
the 3D-rotation scheme); per-block patterns sum to the combined pattern.
A table-scheme raster, and the combined raster of a liere encoder whose
generators commute, is computed from one encoded query per row and one
encoded key per column, in one turn of W + H tokens (see
``render_pattern``); any other liere raster from the query encoded at every
pixel.  A table scheme's block raster stacks and turns only its own
pattern block's coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encodings
from .encodings import Encoder
from .grid import make_grid
from .linalg import _as_real, _finite, _integer, _read_only, _real_scalar, _Record


def score(q, k) -> float:
    """Dot-product attention score between two token vectors."""
    q = _as_real(q, "score vectors")
    k = _as_real(k, "score vectors")
    if q.ndim != 1 or k.ndim != 1 or q.shape != k.shape:
        raise ValueError(f"score needs equal-length vectors, got {q.shape} and {k.shape}")
    return float(q @ k)


def _softmax_numerator(q_mat, k_mat, scale):
    """Checked ``e = exp(L - rowmax L)``, ``L = (scale Q) K^T``, the one N x M array, and its row sums."""
    q_mat = _as_real(q_mat, "attention Q")
    k_mat = _as_real(k_mat, "attention K")
    if q_mat.ndim != 2 or k_mat.ndim != 2 or q_mat.shape[1] != k_mat.shape[1]:
        raise ValueError(f"incompatible Q/K shapes {q_mat.shape} and {k_mat.shape}")
    if q_mat.size == 0 or k_mat.size == 0:
        raise ValueError(f"attention needs non-empty Q and K, got shapes {q_mat.shape} and {k_mat.shape}")
    # checked directly: an inf key whose logits are all -inf leaves the row sums finite
    if not (_finite(q_mat) and _finite(k_mat)):
        raise ValueError("attention Q and K must be finite")
    # math.sqrt and np.sqrt are both correctly rounded: the same scale,
    # without a numpy call
    scale = 1.0 / math.sqrt(k_mat.shape[1]) if scale is None else _real_scalar(scale, "scale")
    e = (scale * q_mat) @ k_mat.T
    e -= e.max(axis=1, keepdims=True)
    rowsum = np.exp(e, out=e).sum(axis=1, keepdims=True)
    if not _finite(rowsum):
        raise ValueError("attention logits overflowed")
    return e, rowsum


def attention_weights(q_mat, k_mat, scale: float | None = None) -> np.ndarray:
    """Row-softmax of scale * QK^T (default scale 1/sqrt(d), d the key width); rows sum to 1."""
    e, rowsum = _softmax_numerator(q_mat, k_mat, scale)
    return np.divide(e, rowsum, out=e)


def softmax_attention(q_mat, k_mat, v_mat, scale: float | None = None) -> np.ndarray:
    """Single-head attention softmax(scale * QK^T) V, by default scale = 1/sqrt(d) with d
    the key width; rows are normalised after the V product."""
    v_mat = _as_real(v_mat, "attention V")
    if v_mat.ndim != 2 or v_mat.shape[0] != np.shape(k_mat)[0]:
        raise ValueError(f"V shape {v_mat.shape} does not match K shape {np.shape(k_mat)}")
    if not _finite(v_mat):
        raise ValueError("attention V must be finite")
    e, rowsum = _softmax_numerator(q_mat, k_mat, scale)
    out = e @ v_mat
    out /= rowsum
    if not _finite(out):
        raise ValueError("attention output overflowed")
    return out


def scored_pair(encoder: Encoder, z_q, z_k, p_q, p_k) -> float:
    """Attention score between the encodings of (z_q, p_q) and (z_k, p_k)."""
    return score(encoder.encode(z_q, p_q), encoder.encode(z_k, p_k))


@dataclass(frozen=True, eq=False)
class AttentionPattern(_Record):
    """Raster of query-sweep scores; ``values[i, j]`` is row i, column j,
    read-only (a frozen copy of a writeable array it is given).  A value
    under ``_Record``'s rule."""

    width: int
    height: int
    values: np.ndarray  # (height, width)
    scheme: str
    block: int | None  # None = combined over all blocks

    def __post_init__(self):
        if self.values.flags.writeable:
            object.__setattr__(self, "values", _read_only(self.values))


def render_pattern(encoder: Encoder, z_q, z_k, width: int, height: int,
                   block: int | None = None) -> AttentionPattern:
    """Score raster with the key at the origin and the query at each pixel.

    ``width`` and ``height`` are positive integers, and both vectors must be
    finite, whether or not ``block`` reads their non-finite entries.
    ``block`` restricts the dot product to that block's coordinates.  A
    table scheme's rotation factors per axis, ``R(p_x, p_y) = R(p_x, 0) R(0,
    p_y)``, each factor acting inside every block, so pixel ``(r, c)`` is
    ``R(0, y_r) z_q . R(-x_c, 0) z_k`` on the block: ``height`` copies of
    the query at the row offsets stacked over ``width`` copies of the key at
    the column offsets, one encode of ``width + height`` tokens.  The
    offsets are the ``make_grid`` lattice's axes ``ys`` and ``-xs``; a table
    raster never builds the lattice's ``positions``.  Every angle, phasor
    and product is elementwise, so each factor is bit for bit the token's
    own encode, and the pixels are one ``np.vecdot`` of the rows with the
    columns: each is the dot product ``score`` takes of its two factors.
    A block raster stacks only its pattern block's coordinates (a pair, or
    a spherical triple), ``(width + height, pattern width)``, and turns
    them by that block's planes of the table's pair form: its pixels are
    bit for bit those of the combined raster's factors on the block.
    A liere encoder whose generators commute (its ``reduction`` is not
    None) is Mixed RoPE in its reduction's basis, so ``R(x, y) = R(x, 0)
    R(0, y)`` holds for it too and its combined raster takes the same
    factored route; there the basis products make each factor agree with
    the token's own encode to rounding, not bit for bit.  Its block rasters,
    and every raster of generators that do not commute, encode the query at
    every pixel and the key at the origin, in two encodes: a block of
    output coordinates is not invariant under ``R(x, 0)``, and stacked in
    one encode the reduced route's basis products round differently at the
    other batch shape.
    """
    width = _integer("width", width, 1, what="a positive integer")
    height = _integer("height", height, 1, what="a positive integer")
    if encoder.axes not in (1, 2):
        raise ValueError("pattern rendering needs a 1- or 2-axis encoder")
    z_q, z_k = _as_real(z_q, "pattern vectors"), _as_real(z_k, "pattern vectors")
    if z_q.shape != (encoder.dim,) or z_k.shape != (encoder.dim,):
        raise ValueError(f"pattern rendering takes one query and one key vector of length {encoder.dim}, "
                         f"got shapes {z_q.shape} and {z_k.shape}")
    # the encoders' finiteness test on both whole vectors, since a block
    # raster turns only its own block's coordinates
    if not (_finite(z_q) and _finite(z_k)):
        for z in (z_q, z_k):
            encodings._check_finite(encoder.scheme, z)
    grid = make_grid(height, width)
    sl = slice(None) if block is None else encoder.pattern_slice(block)
    # one dot product per pixel, not one matrix product: each pixel is the
    # dot product that scoring its two factors alone would compute, so equal
    # factors give exactly equal pixels
    if encoder.table is None and (encoder.reduction is None or block is not None):
        q = encoder.encode(z_q, grid.positions[..., :encoder.axes])
        k = encoder.encode(z_k, (0.0,) * encoder.axes)
        values = np.vecdot(q[..., sl], k[..., sl])
    else:
        # the query at each row's (0, y_r) stacked over the key at each
        # column's (-x_c, 0); a one-axis encoder has no y factor, so its
        # query rows are z_q itself
        at = np.zeros((height + width, encoder.axes))
        at[:height, 1:] = grid.ys[:, None]
        at[height:, 0] = -grid.xs
        z = np.empty((height + width, len(z_q[sl])))
        z[:height], z[height:] = z_q[sl], z_k[sl]
        f = encoder.encode(z, at) if block is None else encodings._pattern_turn(encoder, z, at, block)
        values = np.vecdot(f[:height, None], f[height:])
    if not _finite(values):
        raise ValueError("pattern values must be finite")
    values.setflags(write=False)  # so the pattern keeps it, uncopied
    return AttentionPattern(width, height, values, encoder.scheme, block)
