"""Scores, softmax attention, and pattern rasters."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import ENCODERS, TABLE_SCHEMES
from hypothesis import given, seed, settings, strategies as st

from ropekit import attention as A
from ropekit import encodings as E
from ropekit import verify as V
from ropekit.encodings import FrequencyTable
from ropekit.grid import make_grid

BLOCK_SUM_TOL = 1e-10
ROW_SUM_TOL = 1e-12


def test_score_self_is_norm_squared():
    z = np.array([3.0, -4.0])
    assert A.score(z, z) == 25.0


def test_score_orthogonal_basis():
    assert A.score([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_score_matches_scalar_loop():
    rng = np.random.default_rng(0)
    q, k = rng.standard_normal(16), rng.standard_normal(16)
    acc = 0.0
    for a, b in zip(q, k):
        acc += a * b
    assert abs(A.score(q, k) - acc) <= 1e-12


def test_score_dimension_mismatch():
    with pytest.raises(ValueError):
        A.score([1.0, 2.0], [1.0, 2.0, 3.0])


def test_softmax_single_query_returns_v():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((1, 4))
    k = rng.standard_normal((1, 4))
    v = rng.standard_normal((1, 4))
    np.testing.assert_array_equal(A.softmax_attention(q, k, v), v)


def test_softmax_equal_logits_uniform():
    t = 5
    q = np.zeros((t, 4))
    k = np.ones((t, 4))
    w = A.attention_weights(q, k)
    np.testing.assert_allclose(w, np.full((t, t), 1.0 / t), atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    w = A.attention_weights(rng.standard_normal((6, 8)), rng.standard_normal((6, 8)))
    np.testing.assert_allclose(w.sum(axis=1), np.ones(6), atol=ROW_SUM_TOL)


def test_softmax_shift_invariant_logits():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((4, 8))
    k = rng.standard_normal((4, 8))
    w1 = A.attention_weights(q, k, scale=1.0)
    # adding a constant vector to every query row's logits = appending the
    # same offset via a rank-one K shift is awkward; compare against the
    # naive oracle with manually shifted logits instead
    logits = q @ k.T + 7.25
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w2 = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w1, w2, atol=ROW_SUM_TOL)


def test_softmax_matches_two_loop_oracle():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((4, 8))
    k = rng.standard_normal((4, 8))
    v = rng.standard_normal((4, 8))
    got = A.softmax_attention(q, k, v)
    scale = 1.0 / np.sqrt(8)
    want = np.zeros((4, 8))
    for i in range(4):
        logits = np.array([scale * A.score(q[i], k[j]) for j in range(4)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j in range(4):
            want[i] += w[j] * v[j]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_default_scale_is_one_over_the_root_of_the_key_width_bit_for_bit():
    rng = np.random.default_rng(41)
    for d in range(1, 258):
        q, k, v = rng.standard_normal((3, 5, d))
        want = A.softmax_attention(q, k, v, scale=1 / np.sqrt(d))
        assert A.softmax_attention(q, k, v).tobytes() == want.tobytes()
        weights = A.attention_weights(q, k, scale=1 / np.sqrt(d))
        assert A.attention_weights(q, k).tobytes() == weights.tobytes()


def test_pattern_freezes_a_copy_not_the_callers_values():
    v = np.array([[0.0, 1.0]])
    pattern = A.AttentionPattern(2, 1, v, "mixed", None)
    assert v.flags.writeable and not pattern.values.flags.writeable
    assert not np.shares_memory(v, pattern.values)
    v[0, 0] = 7.0
    assert pattern.values[0, 0] == 0.0
    # render_pattern hands over values it has already frozen
    frozen = np.array([[0.5, 1.0]])
    frozen.flags.writeable = False
    assert A.AttentionPattern(2, 1, frozen, "mixed", None).values is frozen


def test_softmax_shape_mismatch():
    with pytest.raises(ValueError):
        A.softmax_attention(np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        A.attention_weights(np.zeros((2, 4)), np.zeros((2, 5)))


def test_attention_rejects_empty_queries_or_keys():
    full, empty = np.ones((3, 4)), np.ones((0, 4))
    for q, k in ((empty, full), (full, empty)):
        with pytest.raises(ValueError, match="non-empty"):
            A.attention_weights(q, k)
        with pytest.raises(ValueError, match="non-empty"):
            A.softmax_attention(q, k, np.ones((len(k), 4)))


def _with(a, index, value):
    a = a.copy()
    a[index] = value
    return a


_Q, _K = np.random.default_rng(8).standard_normal((3, 2)), np.random.default_rng(9).standard_normal((4, 2))
_BIG_Q, _BIG_K = np.array([[1e200, 1.0]]), np.array([[1e200, 0.0], [1.0, 1.0]])
NON_FINITE_QK = {  # name: (Q, K, scale, error text)
    "nan in Q": (_with(_Q, (1, 0), np.nan), _K, None, "must be finite"),
    "inf in Q": (_with(_Q, (0, 1), -np.inf), _K, None, "must be finite"),
    "nan in K": (_Q, _with(_K, (2, 1), np.nan), None, "must be finite"),
    # every query meets the inf key with a -inf logit, so no row sum is NaN
    "inf in K": (np.abs(_Q) * [-1.0, 1.0], _with(_K, (3, 0), np.inf), None, "must be finite"),
    "+inf logit": (_BIG_Q, _BIG_K, None, "logits overflowed"),
    "all -inf row": (-_BIG_Q, _BIG_K[:1], None, "logits overflowed"),
    "nan scale": (_Q, _K, np.nan, "logits overflowed"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow first
@pytest.mark.parametrize("case", sorted(NON_FINITE_QK))
def test_attention_rejects_non_finite_queries_keys_and_logits(case):
    q, k, scale, msg = NON_FINITE_QK[case]
    with pytest.raises(ValueError, match=msg):
        A.attention_weights(q, k, scale)
    with pytest.raises(ValueError, match=msg):
        A.softmax_attention(q, k, np.ones((len(k), 3)), scale)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow first
def test_attention_rejects_non_finite_values_and_output():
    rng = np.random.default_rng(9)
    q, k, v = rng.standard_normal((3, 2)), rng.standard_normal((4, 2)), rng.standard_normal((4, 5))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="V must be finite"):
            A.softmax_attention(q, k, _with(v, (2, 3), bad))
    # equal logits: the unnormalised product sums two 1e308 rows
    with pytest.raises(ValueError, match="output overflowed"):
        A.softmax_attention(np.zeros((1, 2)), np.ones((2, 2)), np.full((2, 1), 1e308))


def _naive_softmax_attention(q, k, v, scale):
    want = np.zeros((len(q), v.shape[1]))
    for i in range(len(q)):
        logits = [scale * float(q[i] @ k[j]) for j in range(len(k))]
        top = max(logits)
        w = [math.exp(x - top) for x in logits]
        total = sum(w)
        for j in range(len(k)):
            want[i] += (w[j] / total) * v[j]
    return want


@seed(4099)
@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=8),
    st.one_of(st.none(), st.floats(min_value=0.05, max_value=4.0)),
    st.floats(min_value=-700.0, max_value=700.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_softmax_matches_naive_loop(n, m, d, dv_extra, scale, shift, rs):
    rng = np.random.default_rng(rs)
    q, k = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    v = rng.standard_normal((m, d + dv_extra))
    eff = 1.0 / math.sqrt(d) if scale is None else scale
    # a last key coordinate of 1 moves every logit of a row by `shift`
    k[:, -1] = 1.0
    q[:, -1] += shift / eff
    got = A.softmax_attention(q, k, v, scale)
    assert np.max(np.abs(got - _naive_softmax_attention(q, k, v, eff))) <= 1e-10
    w = A.attention_weights(q, k, scale)
    assert np.max(np.abs(w @ v - got)) <= 1e-12
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= ROW_SUM_TOL


def test_softmax_attention_allocates_one_n_by_m_buffer():
    n, d = 512, 64
    rng = np.random.default_rng(10)
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    A.softmax_attention(q, k, v)
    tracemalloc.start()
    try:
        A.softmax_attention(q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_scored_pair_zero_positions():
    enc = E.make_encoder("mixed", 8)
    rng = np.random.default_rng(5)
    zq, zk = rng.standard_normal(8), rng.standard_normal(8)
    assert A.scored_pair(enc, zq, zk, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(
        A.score(zq, zk), abs=1e-15
    )


def test_scored_pair_rope1d_cosine():
    t = FrequencyTable("rope1d", np.array([[1.0]]))
    enc = E.make_encoder("rope1d", 2, table=t)
    z = np.array([1.0, 0.0])
    for theta in (0.0, 0.4, -1.3, 2.9):
        assert A.scored_pair(enc, z, z, 0.0, theta) == pytest.approx(np.cos(theta), abs=1e-14)


def test_scored_pair_axial_separability():
    enc = E.make_encoder("axial", 16)
    rng = np.random.default_rng(6)
    for _ in range(20):
        zq, zk = rng.standard_normal(16), rng.standard_normal(16)
        pq = rng.uniform(-np.pi, np.pi, 2)
        pk = rng.uniform(-np.pi, np.pi, 2)
        eq = enc.encode(zq, pq)
        ek = enc.encode(zk, pk)
        x_part = sum(eq[o::4] @ ek[o::4] for o in (0, 1))
        y_part = sum(eq[o::4] @ ek[o::4] for o in (2, 3))
        total = A.scored_pair(enc, zq, zk, pq, pk)
        assert abs(total - (x_part + y_part)) <= 1e-10


# ---------------------------------------------------------------------------
# pattern rasters
# ---------------------------------------------------------------------------


def test_pattern_single_pixel_is_raw_score():
    enc = E.make_encoder("axial", 8)
    rng = np.random.default_rng(7)
    zq, zk = rng.standard_normal(8), rng.standard_normal(8)
    pat = A.render_pattern(enc, zq, zk, 1, 1)
    assert pat.values.shape == (1, 1)
    assert pat.values[0, 0] == A.score(zq, zk)


def test_pattern_center_pixel_odd_grid():
    enc = E.make_encoder("mixed", 8)
    rng = np.random.default_rng(8)
    zq, zk = rng.standard_normal(8), rng.standard_normal(8)
    pat = A.render_pattern(enc, zq, zk, 9, 9)
    assert pat.values[4, 4] == pytest.approx(A.score(zq, zk), abs=1e-12)


def test_pattern_corner_positions():
    # column 0 must be p_x = -pi and the last column +pi: probe with the
    # odd component sin(0.5 p_x) so the two ends have opposite signs
    t = FrequencyTable("rope1d", np.array([[0.5]]))
    enc = E.make_encoder("rope1d", 2, table=t)
    pat = A.render_pattern(enc, [1.0, 0.0], [0.0, 1.0], 3, 1)
    np.testing.assert_allclose(pat.values[0], [-1.0, 0.0, 1.0], atol=1e-14)


def test_pattern_cauchy_schwarz_bound():
    enc = E.make_encoder("spherical", 12)
    rng = np.random.default_rng(9)
    zq, zk = rng.standard_normal(12), rng.standard_normal(12)
    pat = A.render_pattern(enc, zq, zk, 16, 16)
    bound = np.linalg.norm(zq) * np.linalg.norm(zk)
    assert np.max(np.abs(pat.values)) <= bound * (1 + 1e-12)


def test_pattern_axial_x_block_columns_constant():
    enc = E.make_encoder("axial", 16)
    rng = np.random.default_rng(10)
    zq, zk = rng.standard_normal(16), rng.standard_normal(16)
    pat = A.render_pattern(enc, zq, zk, 12, 12, block=0)
    np.testing.assert_array_equal(pat.values, np.tile(pat.values[0], (12, 1)))


def test_pattern_axial_y_block_rows_constant():
    enc = E.make_encoder("axial", 16)
    rng = np.random.default_rng(11)
    zq, zk = rng.standard_normal(16), rng.standard_normal(16)
    pat = A.render_pattern(enc, zq, zk, 12, 12, block=1)
    np.testing.assert_array_equal(pat.values, np.tile(pat.values[:, :1], (1, 12)))


@pytest.mark.parametrize("scheme,dim", [("axial", 16), ("mixed", 8), ("spherical", 12)])
def test_pattern_blocks_sum_to_combined(scheme, dim):
    enc = E.make_encoder(scheme, dim)
    rng = np.random.default_rng(12)
    zq, zk = rng.standard_normal(dim), rng.standard_normal(dim)
    combined = A.render_pattern(enc, zq, zk, 8, 8).values
    total = np.zeros_like(combined)
    for b in range(enc.pattern_blocks):
        total += A.render_pattern(enc, zq, zk, 8, 8, block=b).values
    np.testing.assert_allclose(total, combined, atol=BLOCK_SUM_TOL)


def test_pattern_mixed_single_pair_closed_form():
    t = FrequencyTable("mixed", np.array([[1.0, 1.0]]))
    enc = E.make_encoder("mixed", 2, table=t)
    z = np.array([1.0, 0.0])
    pat = A.render_pattern(enc, z, z, 64, 64)
    from ropekit.grid import make_grid

    pos = make_grid(64, 64).positions
    want = np.cos(pos[..., 0] + pos[..., 1])
    np.testing.assert_allclose(pat.values, want, atol=1e-10)


def test_pattern_block_out_of_range():
    enc = E.make_encoder("axial", 8)
    for bad in (4, -1, 1.5, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="integer index"):
            A.render_pattern(enc, np.ones(8), np.ones(8), 4, 4, block=bad)
    np.testing.assert_array_equal(A.render_pattern(enc, np.ones(8), np.ones(8), 4, 4, block=np.int64(1)).values,
                                  A.render_pattern(enc, np.ones(8), np.ones(8), 4, 4, block=1).values)


def test_pattern_bad_size():
    enc = E.make_encoder("axial", 8)
    with pytest.raises(ValueError):
        A.render_pattern(enc, np.ones(8), np.ones(8), 0, 4)


def test_pattern_one_axis_encoder_sweeps_x_only():
    enc = E.make_encoder("rope1d", 8)
    rng = np.random.default_rng(13)
    zq, zk = rng.standard_normal(8), rng.standard_normal(8)
    pat = A.render_pattern(enc, zq, zk, 6, 5)
    np.testing.assert_array_equal(pat.values, np.tile(pat.values[0], (5, 1)))


def _commuting_raster_encoders():
    rng = np.random.default_rng(19)
    encoders = {f"liere-commuting-n{n}": E.make_encoder("liere", generators=V.commuting_generators(n, rng))
                for n in (5, 8, 17)}
    assert all(enc.reduction is not None for enc in encoders.values())
    return encoders


RASTER_ENCODERS = {**ENCODERS, **_commuting_raster_encoders()}


@pytest.mark.parametrize("name, width, height", [pytest.param(name, 7, 5, id=name) for name in sorted(ENCODERS)]
                         + [pytest.param(f"liere-commuting-n{n}", w, h, id=f"liere-commuting-n{n}-{w}x{h}")
                            for n in (5, 8, 17) for w, h in ((1, 1), (7, 3), (64, 64))])
def test_pattern_matches_per_pixel_loop(name, width, height, monkeypatch):
    enc = RASTER_ENCODERS[name]
    rng = np.random.default_rng(15)
    zq, zk = rng.standard_normal(enc.dim), rng.standard_normal(enc.dim)
    encode = E.Encoder.encode
    calls = []

    def counted(self, z, p):
        calls.append(np.shape(p))
        return encode(self, z, p)

    monkeypatch.setattr(E.Encoder, "encode", counted)
    pos = make_grid(height, width).positions
    eq = np.array([[encode(enc, zq, pos[i, j, :enc.axes]) for j in range(width)] for i in range(height)])
    ek = encode(enc, zk, np.zeros(enc.axes))
    for block in [None, *range(enc.pattern_blocks)]:
        calls.clear()
        pat = A.render_pattern(enc, zq, zk, width, height, block)
        assert len(calls) <= 2
        sl = slice(None) if block is None else enc.pattern_slice(block)
        assert np.max(np.abs(pat.values - eq[..., sl] @ ek[sl])) <= 1e-12


@pytest.mark.parametrize("name", ["mixed", "liere-random"])
@pytest.mark.parametrize("size", [(4.0, 4), (4, 2.5), (0, 4)])
def test_pattern_rejects_sizes_that_are_not_whole_pixels(name, size):
    enc = ENCODERS[name]
    with pytest.raises(ValueError, match="pattern size|positive integer"):
        A.render_pattern(enc, np.ones(enc.dim), np.ones(enc.dim), *size)


@pytest.mark.parametrize("name", ["mixed", "liere-random"])
@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), 0, -2])
def test_pattern_size_errors_name_width_and_height(name, bad):
    # the integer rule names the raster's own parameters, not make_grid's
    # cols and rows
    enc = ENCODERS[name]
    z = np.ones(enc.dim)
    with pytest.raises(ValueError, match="^width must be a positive integer"):
        A.render_pattern(enc, z, z, bad, 4)
    with pytest.raises(ValueError, match="^height must be a positive integer"):
        A.render_pattern(enc, z, z, 4, bad)
    np.testing.assert_array_equal(A.render_pattern(enc, z, z, np.int64(3), np.int8(2)).values,
                                  A.render_pattern(enc, z, z, 3, 2).values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
@pytest.mark.parametrize("name", sorted(ENCODERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pattern_rejects_a_non_finite_vector_for_every_block(name, bad):
    # the combined raster and every block raster, whether or not the block
    # holds the bad entry: a block raster turns its own coordinates only
    enc = ENCODERS[name]
    z = np.linspace(-1.0, 1.0, enc.dim)
    zb = z.copy()
    zb[5 % enc.dim] = bad
    for block in [None, *range(enc.pattern_blocks)]:
        for zq, zk in ((zb, z), (z, zb)):
            with pytest.raises(ValueError, match="encoding must be finite"):
                A.render_pattern(enc, zq, zk, 5, 4, block)


def test_pattern_rejects_batched_vectors():
    enc = E.make_encoder("axial", 8)
    with pytest.raises(ValueError):
        A.render_pattern(enc, np.ones((2, 8)), np.ones(8), 4, 4)
    with pytest.raises(ValueError):
        A.render_pattern(enc, np.ones(8), np.ones((3, 8)), 4, 4)
    for zq, zk in ((np.ones(6), np.ones(8)), (np.ones(8), np.ones(6)), (np.ones(6), np.ones(6))):
        with pytest.raises(ValueError, match="vector of length 8"):
            A.render_pattern(enc, zq, zk, 4, 4)


@pytest.mark.parametrize("scheme", TABLE_SCHEMES)
def test_combined_table_raster_is_one_encode(scheme, monkeypatch):
    # Encoder.encode is the call a traced benchmark run counts
    enc = ENCODERS[scheme]
    encode, calls = E.Encoder.encode, []

    def counted(self, z, p):
        calls.append((np.shape(z), np.shape(p)))
        return encode(self, z, p)

    monkeypatch.setattr(E.Encoder, "encode", counted)
    A.render_pattern(enc, np.ones(enc.dim), np.ones(enc.dim), 7, 5)
    assert calls == [((5 + 7, enc.dim), (5 + 7, enc.axes))]


@pytest.mark.parametrize("name", ["liere-commuting", "liere-random"])
def test_liere_raster_is_the_product_of_two_encodes(name):
    # the query at every pixel and the key at the origin, each encoded on
    # its own: stacked in one call the reduced route rounds differently.
    # A commuting encoder's combined raster factors instead (the next test)
    enc = ENCODERS[name]
    rng = np.random.default_rng(17)
    zq, zk = rng.standard_normal(enc.dim), rng.standard_normal(enc.dim)
    eq = enc.encode(zq, make_grid(5, 7).positions)
    ek = enc.encode(zk, np.zeros(enc.axes))
    for block in [*range(enc.pattern_blocks)] + ([None] if enc.reduction is None else []):
        sl = slice(None) if block is None else enc.pattern_slice(block)
        want = (eq[..., None, sl] @ ek[sl, None])[..., 0, 0]
        np.testing.assert_array_equal(A.render_pattern(enc, zq, zk, 7, 5, block).values, want)


@pytest.mark.parametrize("name", sorted(n for n, enc in RASTER_ENCODERS.items() if enc.reduction is not None))
def test_commuting_liere_combined_raster_is_the_vecdot_of_one_factor_encode(name):
    # R(x, y) = R(x, 0) R(0, y) when the generators commute: pixel (r, c)
    # is the query at (0, y_r) against the key at (-x_c, 0), both from one
    # encode of the stacked W + H tokens, bit for bit
    enc = RASTER_ENCODERS[name]
    zq, zk = np.random.default_rng(20).standard_normal((2, enc.dim))
    grid = make_grid(5, 7)
    at = np.zeros((5 + 7, enc.axes))
    at[:5, 1], at[5:, 0] = grid.ys, -grid.xs
    f = enc.encode(np.vstack([np.tile(zq, (5, 1)), np.tile(zk, (7, 1))]), at)
    np.testing.assert_array_equal(A.render_pattern(enc, zq, zk, 7, 5).values, np.vecdot(f[:5, None], f[5:]))


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_table_raster_reads_the_lattice_axes_and_never_builds_its_positions(name, monkeypatch):
    # the lattice is still made through make_grid, but a table raster, and
    # a commuting liere encoder's combined raster, reads its xs and ys only;
    # any other liere raster encodes the query at every position
    enc = ENCODERS[name]
    grids = []
    monkeypatch.setattr(A, "make_grid", lambda *size: grids.append(make_grid(*size)) or grids[-1])
    for block in (None, *range(enc.pattern_blocks)):
        grids.clear()
        A.render_pattern(enc, np.ones(enc.dim), np.ones(enc.dim), 7, 3, block)
        per_pixel = enc.table is None and (enc.reduction is None or block is not None)
        assert len(grids) == 1 and ("positions" in vars(grids[0])) == per_pixel


@pytest.mark.parametrize("scheme", TABLE_SCHEMES)
@pytest.mark.parametrize("dim", [12, 48])
@pytest.mark.parametrize("width, height", [(1, 1), (7, 3)])
def test_table_raster_pixel_is_the_score_of_its_own_row_and_column_factors(scheme, dim, width, height):
    # bit for bit: the query encoded on its own at its row's (0, y_r), the
    # key at its column's (-x_c, 0), scored on the block's coordinates
    enc = E.make_encoder(scheme, dim)
    zq, zk = np.random.default_rng(18).standard_normal((2, dim))
    grid = make_grid(height, width)
    rows = [enc.encode(zq, (0.0, y)[:enc.axes]) for y in grid.ys]
    cols = [enc.encode(zk, (-x, 0.0)[:enc.axes]) for x in grid.xs]
    for block in (None, *range(enc.pattern_blocks)):
        sl = slice(None) if block is None else enc.pattern_slice(block)
        got = A.render_pattern(enc, zq, zk, width, height, block).values
        want = np.array([[A.score(r[sl], c[sl]) for c in cols] for r in rows])
        assert got.tobytes() == want.tobytes(), block
RASTER_SIZES = st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                         st.tuples(st.integers(1, 12), st.just(1)),
                         st.tuples(st.integers(1, 12), st.integers(1, 12)))


@seed(4111)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TABLE_SCHEMES), RASTER_SIZES, st.integers(1, 4), st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_property_table_raster_matches_per_pixel_loop(scheme, size, blocks, zero_y, rs):
    spec = E.SCHEMES[scheme]
    rng = np.random.default_rng(rs)
    freqs = rng.uniform(-4.0, 4.0, (blocks, E.SCHEMES[spec.table].axes))
    if spec.table == "uniform":
        freqs[:] = freqs[0, 0]
    elif zero_y and freqs.shape[1] == 2:
        freqs[:, 1] = 0.0
    enc = E.Encoder(scheme, spec.block * blocks, FrequencyTable(spec.table, freqs))
    zq, zk = rng.standard_normal((2, enc.dim))
    width, height = size
    grid = make_grid(height, width)
    pos = grid.positions[..., :enc.axes]
    eq = np.array([[enc.encode(zq, pos[i, j]) for j in range(width)] for i in range(height)])
    ek = enc.encode(zk, np.zeros(enc.axes))
    # the combined raster's factors: the query at each row's y offset, the
    # key at each column's -x offset, every table block turned
    rows = np.zeros((height, 1, enc.axes))
    rows[:, 0, 1:] = grid.positions[:, :1, 1]
    cols = np.zeros((width, enc.axes))
    cols[:, 0] = -grid.positions[0, :, 0]
    fq, fk = enc.encode(zq, rows), enc.encode(zk, cols)
    for block in [None, *range(enc.pattern_blocks)]:
        sl = slice(None) if block is None else enc.pattern_slice(block)
        got = A.render_pattern(enc, zq, zk, width, height, block).values
        want = np.array([[eq[i, j, sl] @ ek[sl] for j in range(width)] for i in range(height)])
        bound = 1e-12 * max(1.0, np.linalg.norm(zq[sl]) * np.linalg.norm(zk[sl]))
        assert got.shape == (height, width)
        assert np.max(np.abs(got - want)) <= bound
        # a block raster turns its own table block only, bit for bit
        np.testing.assert_array_equal(got, (fq[..., None, sl] @ fk[..., sl, None])[..., 0, 0])


# the dtype rule: complex, object (a None entry) and string input is
# rejected, not cast to its real part or to NaN
_QKV = np.random.default_rng(99).standard_normal((3, 4, 8))
ATTENTION_ENTRIES = {  # name: (call with one argument replaced, the good value of that argument)
    "score": (lambda v: A.score(v, _QKV[1, 0]), _QKV[0, 0]),
    "weights-q": (lambda v: A.attention_weights(v, _QKV[1]), _QKV[0]),
    "weights-k": (lambda v: A.attention_weights(_QKV[0], v), _QKV[1]),
    "softmax-v": (lambda v: A.softmax_attention(_QKV[0], _QKV[1], v), _QKV[2]),
    "pattern-q": (lambda v: A.render_pattern(E.make_encoder("axial", 8), v, _QKV[1, 0], 3, 3), _QKV[0, 0]),
    "pattern-k-liere": (lambda v: A.render_pattern(E.make_encoder("liere", generators=[np.zeros((8, 8))]),
                                                   _QKV[0, 0], v, 3, 3), _QKV[1, 0]),
}


@pytest.mark.parametrize("name", sorted(ATTENTION_ENTRIES))
def test_attention_entry_points_reject_complex_object_and_string_input(name):
    call, good = ATTENTION_ENTRIES[name]
    call(good)
    obj = good.astype(object)
    obj.flat[0] = None
    for bad in (good + 0j, obj, good.astype(str)):
        with pytest.raises(ValueError, match="must be real"):
            call(bad)
