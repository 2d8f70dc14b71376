"""Patch-position lattices.

A training-size grid spans [-pi, pi] per axis, endpoints inclusive: the
top-left patch sits at (-pi, -pi) and the bottom-right at (pi, pi).  Grids
built at a different size than the reference ("training") size scale each
axis by the size ratio, so a grid twice as wide covers [-2*pi, 2*pi] in x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _integer, _Record


def _axis_coords(n: int, train_n: int) -> np.ndarray:
    """``np.linspace(-extent, extent, n)``, ``extent = pi * n / train_n``,
    by linspace's own steps (``k * step - extent``, the last set to
    ``extent``), without the argument handling that makes ``linspace``
    about three times slower at grid sizes."""
    # a single patch sits at the range midpoint
    if n == 1:
        return np.zeros(1)
    extent = np.pi * n / train_n
    y = np.arange(n, dtype=float)
    y *= 2 * extent / (n - 1)
    y -= extent
    y[-1] = extent
    return y


@dataclass(frozen=True, eq=False)
class PatchGrid(_Record):
    """Immutable lattice of 2D positions, row-major with row 0 at the top.

    ``xs[j]`` is p_x of column j and ``ys[i]`` is p_y of row i, both
    read-only; a square lattice at its own size holds one array as both.
    ``positions[i, j]`` is ``(p_x, p_y)`` for the patch in row i, column j,
    a read-only (rows, cols, 2) array built from the axes on its first read
    and then kept.  A value under ``_Record``'s rule: a copy shares no
    ``positions`` with its original and builds its own on first read.
    """

    rows: int
    cols: int
    train_rows: int
    train_cols: int
    xs: np.ndarray  # (cols,)
    ys: np.ndarray  # (rows,)

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    @cached_property
    def positions(self) -> np.ndarray:
        positions = np.empty((self.rows, self.cols, 2))
        positions[:, :, 0] = self.xs[None, :]
        positions[:, :, 1] = self.ys[:, None]
        positions.setflags(write=False)
        return positions


def make_grid(rows: int, cols: int, train_rows: int | None = None,
              train_cols: int | None = None) -> PatchGrid:
    """Build a rows x cols position lattice relative to a reference size.

    The reference size defaults to the actual size, giving the plain
    [-pi, pi]^2 lattice; a reference size is checked only when it is
    passed.  Only the two axes are built: equal axes (the same size at the
    same reference size, as on a square lattice at its own size) share one
    ``_axis_coords`` array, and the (rows, cols, 2) ``positions`` array is
    filled on its first read.  The same call on the same arguments gives
    the same bits.
    """
    what = "a positive integer"
    rows, cols = _integer("rows", rows, 1, what=what), _integer("cols", cols, 1, what=what)
    train_rows = rows if train_rows is None else _integer("train_rows", train_rows, 1, what=what)
    train_cols = cols if train_cols is None else _integer("train_cols", train_cols, 1, what=what)
    xs = _axis_coords(cols, train_cols)
    ys = xs if (rows, train_rows) == (cols, train_cols) else _axis_coords(rows, train_rows)
    return PatchGrid(rows, cols, train_rows, train_cols, xs, ys)
