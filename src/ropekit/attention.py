"""Attention scores, softmax attention, and attention-pattern rasters.

The pattern raster fixes the key at the origin and sweeps the query over a
[-pi, pi]^2 pixel grid: pixel (0, 0) is position (-pi, -pi), pixel
(height-1, width-1) is (pi, pi).  An optional block index restricts the
score to one block's contribution (one coordinate pair, or one triple for
the 3D-rotation scheme); per-block patterns sum to the combined pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import Encoder
from .grid import make_grid


def score(q, k) -> float:
    """Dot-product attention score between two token vectors."""
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    if q.ndim != 1 or k.ndim != 1 or q.shape != k.shape:
        raise ValueError(f"score needs equal-length vectors, got {q.shape} and {k.shape}")
    return float(q @ k)


def attention_weights(q_mat, k_mat, scale: float | None = None) -> np.ndarray:
    """Row-softmax of scaled QK^T; rows sum to 1."""
    q_mat = np.asarray(q_mat, dtype=float)
    k_mat = np.asarray(k_mat, dtype=float)
    if q_mat.ndim != 2 or k_mat.ndim != 2 or q_mat.shape[1] != k_mat.shape[1]:
        raise ValueError(f"incompatible Q/K shapes {q_mat.shape} and {k_mat.shape}")
    if q_mat.size == 0 or k_mat.size == 0:
        raise ValueError(f"attention needs non-empty Q and K, got shapes {q_mat.shape} and {k_mat.shape}")
    if scale is None:
        scale = 1.0 / np.sqrt(k_mat.shape[1])
    logits = scale * (q_mat @ k_mat.T)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def softmax_attention(q_mat, k_mat, v_mat, scale: float | None = None) -> np.ndarray:
    """Single-head attention: softmax(QK^T / sqrt(N)) V."""
    v_mat = np.asarray(v_mat, dtype=float)
    k_mat = np.asarray(k_mat, dtype=float)
    if v_mat.ndim != 2 or v_mat.shape[0] != k_mat.shape[0]:
        raise ValueError(f"V shape {v_mat.shape} does not match K shape {k_mat.shape}")
    return attention_weights(q_mat, k_mat, scale) @ v_mat


def scored_pair(encoder: Encoder, z_q, z_k, p_q, p_k) -> float:
    """Attention score between the encodings of (z_q, p_q) and (z_k, p_k)."""
    return score(encoder.encode(z_q, p_q), encoder.encode(z_k, p_k))


@dataclass(frozen=True)
class AttentionPattern:
    """Raster of query-sweep scores; ``values[i, j]`` is row i, column j."""

    width: int
    height: int
    values: np.ndarray  # (height, width)
    scheme: str
    block: int | None  # None = combined over all blocks

    def __post_init__(self):
        self.values.setflags(write=False)


def render_pattern(encoder: Encoder, z_q, z_k, width: int, height: int,
                   block: int | None = None) -> AttentionPattern:
    """Score raster with the key at the origin and the query at each pixel.

    ``block`` restricts the dot product to that block's coordinates.  The
    query is encoded at every pixel in one batched ``encode``.
    """
    if width < 1 or height < 1:
        raise ValueError("pattern size must be at least 1x1")
    if encoder.axes not in (1, 2):
        raise ValueError("pattern rendering needs a 1- or 2-axis encoder")
    if np.ndim(z_q) != 1 or np.ndim(z_k) != 1:
        raise ValueError("pattern rendering takes one query and one key vector")
    sl = slice(None) if block is None else encoder.pattern_slice(block)
    ek = encoder.encode(z_k, (0.0,) * encoder.axes)[sl]
    positions = make_grid(height, width).positions[..., :encoder.axes]
    # a stack of (1, k) @ (k,) products: each pixel is the dot product that
    # scoring it alone would compute, so per-pixel rasters match exactly
    values = (encoder.encode(z_q, positions)[..., None, sl] @ ek)[..., 0]
    if not np.all(np.isfinite(values)):
        raise ValueError("pattern values must be finite")
    return AttentionPattern(width, height, values, encoder.scheme, block)
