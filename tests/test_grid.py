"""Position-lattice construction and raster ordering."""

import numpy as np
import pytest

from ropekit.grid import PatchGrid, make_grid

SPACING_TOL = 1e-12


def test_two_by_two_corners():
    g = make_grid(2, 2)
    np.testing.assert_array_equal(g.positions[0, 0], [-np.pi, -np.pi])
    np.testing.assert_array_equal(g.positions[0, 1], [np.pi, -np.pi])
    np.testing.assert_array_equal(g.positions[1, 0], [-np.pi, np.pi])
    np.testing.assert_array_equal(g.positions[1, 1], [np.pi, np.pi])


def test_three_by_three_center():
    g = make_grid(3, 3)
    np.testing.assert_array_equal(g.positions[1, 1], [0.0, 0.0])


def test_one_by_one_midpoint():
    g = make_grid(1, 1)
    np.testing.assert_array_equal(g.positions[0, 0], [0.0, 0.0])


def test_extrapolated_range_doubles():
    g = make_grid(28, 28, 14, 14)
    assert g.positions[..., 0].min() == pytest.approx(-2 * np.pi, abs=1e-12)
    assert g.positions[..., 1].max() == pytest.approx(2 * np.pi, abs=1e-12)


def test_scaling_invariant_max_coordinate():
    for k, r in ((2, 4), (3, 5), (5, 2)):
        g = make_grid(k * r, r, r, r)
        assert abs(g.positions[..., 1].max() - k * np.pi) <= 1e-12
        assert abs(g.positions[..., 0].max() - np.pi) <= 1e-12


def test_training_size_in_range_and_even_spacing():
    g = make_grid(7, 5)
    assert g.positions.min() >= -np.pi - 1e-15
    assert g.positions.max() <= np.pi + 1e-15
    dx = np.diff(g.positions[0, :, 0])
    dy = np.diff(g.positions[:, 0, 1])
    assert np.ptp(dx) <= SPACING_TOL
    assert np.ptp(dy) <= SPACING_TOL


@pytest.mark.parametrize("train", [1, 3, 16, 64])
def test_axis_coordinates_are_linspace_bit_for_bit(train):
    # n = 76 at train 1 and 10 at train 3 need linspace's exact last step
    for n in range(1, 80):
        extent = np.pi * n / train
        want = np.zeros(1) if n == 1 else np.linspace(-extent, extent, n)
        np.testing.assert_array_equal(make_grid(1, n, 1, train).positions[0, :, 0], want)
        np.testing.assert_array_equal(make_grid(n, 1, train, 1).positions[:, 0, 1], want)


def test_non_square_axes_scale_independently():
    g = make_grid(4, 8, 4, 4)
    assert g.positions[..., 0].max() == pytest.approx(2 * np.pi, abs=1e-12)
    assert g.positions[..., 1].max() == pytest.approx(np.pi, abs=1e-12)


def test_rejects_zero_dimensions():
    with pytest.raises(ValueError):
        make_grid(0, 4)
    with pytest.raises(ValueError):
        make_grid(4, 4, 4, 0)
    for bad in (True, 2.0, np.float64(2.0), -1, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            make_grid(bad, 3)
        with pytest.raises(ValueError, match="positive integer"):
            make_grid(3, 3, 3, bad)
    g = make_grid(np.int8(2), np.int64(3))
    assert g.positions.shape == (2, 3, 2)


def test_positions_immutable():
    g = make_grid(2, 3)
    with pytest.raises(ValueError):
        g.positions[0, 0, 0] = 1.0


def _linspace(n, train):
    extent = np.pi * n / train
    return np.zeros(1) if n == 1 else np.linspace(-extent, extent, n)


@pytest.mark.parametrize("size", [(16, 16), (32, 32, 16, 16), (7, 5), (5, 7, 3, 2), (1, 9), (9, 1),
                                  (28, 28, 14, 14), (16, 16, 16, 8), (6, 6, None, 3),
                                  (np.int64(6), np.int32(6)), (np.int8(4), 4, np.int64(2), 2)])
def test_lattice_axes_are_linspace_bit_for_bit(size):
    # a square lattice at its own size shares one axis for x and y; the
    # others build each axis from its own size and reference size
    rows, cols, train_rows, train_cols = (*size, None, None)[:4]
    g = make_grid(*size)
    want_x = _linspace(int(cols), int(cols if train_cols is None else train_cols))
    want_y = _linspace(int(rows), int(rows if train_rows is None else train_rows))
    np.testing.assert_array_equal(g.positions[..., 0], np.broadcast_to(want_x, (rows, cols)))
    np.testing.assert_array_equal(g.positions[..., 1], np.broadcast_to(want_y[:, None], (rows, cols)))
    assert (g.rows, g.cols) == (rows, cols)
    assert not g.positions.flags.writeable
    with pytest.raises(ValueError):
        g.positions[-1, -1, 1] = 0.0


def test_lattice_checks_passed_sizes_and_builds_each_distinct_axis_once(monkeypatch):
    from ropekit import grid

    axes, checked = [], []
    axis_coords, integer = grid._axis_coords, grid._integer
    monkeypatch.setattr(grid, "_axis_coords", lambda n, train: axes.append((n, train)) or axis_coords(n, train))
    monkeypatch.setattr(grid, "_integer", lambda name, *a, **k: checked.append(name) or integer(name, *a, **k))
    for size, want_axes, want_checked in (
            ((16, 16), [(16, 16)], ["rows", "cols"]),
            ((16, 16, 16, 16), [(16, 16)], ["rows", "cols", "train_rows", "train_cols"]),
            ((16, 8), [(8, 8), (16, 16)], ["rows", "cols"]),
            ((16, 16, 16, 8), [(16, 8), (16, 16)], ["rows", "cols", "train_rows", "train_cols"]),
            ((4, 4, None, 2), [(4, 2), (4, 4)], ["rows", "cols", "train_cols"])):
        axes.clear()
        checked.clear()
        make_grid(*size)
        assert (axes, checked) == (want_axes, want_checked)


@pytest.mark.parametrize("size", [(16, 16), (6, 6, 3, 3), (7, 5), (5, 7, 3, 2), (1, 9), (9, 1), (1, 1)])
def test_grid_keeps_read_only_axes_and_builds_positions_once_on_first_read(size):
    # a square lattice at its own size shares one axis array for x and y
    g = make_grid(*size)
    assert (g.xs is g.ys) == ((g.rows, g.train_rows) == (g.cols, g.train_cols))
    np.testing.assert_array_equal(g.xs, _linspace(g.cols, g.train_cols))
    np.testing.assert_array_equal(g.ys, _linspace(g.rows, g.train_rows))
    assert "positions" not in vars(g)
    positions = g.positions
    assert g.positions is positions
    np.testing.assert_array_equal(positions[..., 0], np.broadcast_to(g.xs, (g.rows, g.cols)))
    np.testing.assert_array_equal(positions[..., 1], np.broadcast_to(g.ys[:, None], (g.rows, g.cols)))
    for a in (g.xs, g.ys, positions):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    for name in ("xs", "ys", "positions"):
        with pytest.raises(AttributeError):
            setattr(g, name, np.zeros(3))
