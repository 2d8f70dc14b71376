"""Patch-position lattices.

A training-size grid spans [-pi, pi] per axis, endpoints inclusive: the
top-left patch sits at (-pi, -pi) and the bottom-right at (pi, pi).  Grids
built at a different size than the reference ("training") size scale each
axis by the size ratio, so a grid twice as wide covers [-2*pi, 2*pi] in x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _integer


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


@dataclass(frozen=True)
class PatchGrid:
    """Immutable lattice of 2D positions, row-major with row 0 at the top.

    ``positions[i, j]`` is ``(p_x, p_y)`` for the patch in row i, column j;
    p_x varies along columns and p_y along rows.
    """

    rows: int
    cols: int
    train_rows: int
    train_cols: int
    positions: np.ndarray  # (rows, cols, 2)

    def __post_init__(self):
        self.positions.setflags(write=False)


def make_grid(rows: int, cols: int, train_rows: int | None = None,
              train_cols: int | None = None) -> PatchGrid:
    """Build a rows x cols position lattice relative to a reference size.

    The reference size defaults to the actual size, giving the plain
    [-pi, pi]^2 lattice; a reference size is checked only when it is
    passed.  Equal axes (the same size at the same reference size, as on a
    square lattice at its own size) share one ``_axis_coords`` array: the
    same call on the same arguments gives the same bits.
    """
    what = "a positive integer"
    rows, cols = _integer("rows", rows, 1, what=what), _integer("cols", cols, 1, what=what)
    train_rows = rows if train_rows is None else _integer("train_rows", train_rows, 1, what=what)
    train_cols = cols if train_cols is None else _integer("train_cols", train_cols, 1, what=what)
    xs = _axis_coords(cols, train_cols)
    ys = xs if (rows, train_rows) == (cols, train_cols) else _axis_coords(rows, train_rows)
    positions = np.empty((rows, cols, 2))
    positions[:, :, 0] = xs[None, :]
    positions[:, :, 1] = ys[:, None]
    return PatchGrid(rows, cols, train_rows, train_cols, positions)
