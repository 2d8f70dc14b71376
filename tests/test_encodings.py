"""Tests for the encoding families: frozen examples, invariants, gradients, configs."""

import copy
import dataclasses
import functools
import itertools
import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from ropekit import attention as A, encodings as E, linalg, verify as V
from ropekit.encodings import FrequencyTable
from ropekit.grid import make_grid

ISO_RTOL = 1e-10
FLOW_TOL = 1e-10
FAST_TOL = 1e-12
GRAD_RTOL = 1e-5
FD_H = 1e-5


# so(3) generators: yaw rotates the (1,2)-plane, roll the (2,3)-plane
G_YAW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
G_ROLL = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def unit_table(scheme, blocks, axes):
    return FrequencyTable(scheme, np.ones((blocks, axes)))


# ---------------------------------------------------------------------------
# frequency schedule and tables
# ---------------------------------------------------------------------------


def test_schedule_frozen_values():
    s = E.frequency_schedule(8)
    assert s[0] == 1.0
    assert s[1] == pytest.approx(0.31622776601683794, rel=1e-15)
    assert s[7] == pytest.approx(3.1622776601683794e-4, rel=1e-15)
    assert np.all(np.diff(s) < 0)


def test_schedule_single_block():
    np.testing.assert_array_equal(E.frequency_schedule(1), [1.0])


def test_schedule_validation():
    with pytest.raises(ValueError):
        E.frequency_schedule(0)
    with pytest.raises(ValueError):
        E.frequency_schedule(4, base=-2.0)
    # an infinite base would zero every frequency past w_0
    for base in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            E.frequency_schedule(4, base=base)
        with pytest.raises(ValueError, match="positive and finite"):
            E.make_encoder("mixed", 8, base=base)


def test_schedule_takes_an_integer_block_count():
    # a float count would build a ladder of another length than it names
    for blocks in (2.5, 3.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="blocks must be an integer"):
            E.frequency_schedule(blocks)
    np.testing.assert_array_equal(E.frequency_schedule(np.int64(3)), E.frequency_schedule(3))


def test_table_rejects_nonfinite():
    with pytest.raises(ValueError):
        FrequencyTable("mixed", np.array([[1.0, np.inf]]))


def test_table_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        FrequencyTable("spiral", np.ones((2, 2)))


def test_uniform_table_requires_shared_value():
    with pytest.raises(ValueError):
        FrequencyTable("uniform", np.array([[1.0, 2.0]]))


def test_fixed_table_shapes():
    assert FrequencyTable.fixed("rope1d", 16).freqs.shape == (8, 1)
    assert FrequencyTable.fixed("axial", 16).freqs.shape == (4, 2)
    assert FrequencyTable.fixed("mixed", 16).freqs.shape == (8, 2)
    assert FrequencyTable.fixed("spherical", 12).freqs.shape == (4, 2)
    t = FrequencyTable.fixed("axial", 16)
    np.testing.assert_array_equal(t.freqs[:, 0], t.freqs[:, 1])


def test_fixed_table_divisibility():
    with pytest.raises(ValueError):
        FrequencyTable.fixed("spherical", 16)
    with pytest.raises(ValueError):
        FrequencyTable.fixed("axial", 6)


def test_table_is_immutable():
    t = FrequencyTable.fixed("rope1d", 8)
    with pytest.raises(ValueError):
        t.freqs[0, 0] = 5.0


# ---------------------------------------------------------------------------
# frozen encoding examples
# ---------------------------------------------------------------------------


def test_rope1d_quarter_turn():
    t = unit_table("rope1d", 1, 1)
    np.testing.assert_allclose(E.rope1d([1.0, 0.0], np.pi / 2, t), [0.0, 1.0], atol=1e-15)


def test_rope1d_zero_position_identity():
    t = FrequencyTable.fixed("rope1d", 8)
    z = np.arange(8.0)
    np.testing.assert_array_equal(E.rope1d(z, 0.0, t), z)


def test_rope1d_dimension_mismatch():
    t = FrequencyTable.fixed("rope1d", 8)
    with pytest.raises(ValueError):
        E.rope1d(np.zeros(6), 0.1, t)


def test_trivial2d_equals_rope1d_on_sum():
    t = FrequencyTable.fixed("rope1d", 8)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(8)
    np.testing.assert_array_equal(
        E.trivial2d(z, (0.4, -1.1), t), E.rope1d(z, 0.4 + -1.1, t)
    )


def test_trivial2d_antidiagonal_shift_exact():
    t = FrequencyTable.fixed("rope1d", 8)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(8)
    a, b, s = 0.37, -0.9, 0.61
    lhs = E.trivial2d(z, (a + s, b - s), t)
    rhs = E.trivial2d(z, (a, b), t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_axial_frozen_block():
    t = unit_table("axial", 1, 2)
    out = E.axial([1.0, 0.0, 1.0, 0.0], (np.pi / 2, np.pi), t)
    np.testing.assert_allclose(out, [0.0, 1.0, -1.0, 0.0], atol=1e-15)


def test_axial_x_pairs_ignore_y():
    t = FrequencyTable.fixed("axial", 16)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(16)
    a = E.axial(z, (0.3, -2.0), t)
    b = E.axial(z, (0.3, 1.4), t)
    np.testing.assert_array_equal(a.reshape(-1, 4)[:, :2], b.reshape(-1, 4)[:, :2])


def test_mixed_frozen_pair():
    t = unit_table("mixed", 1, 2)
    out = E.mixed([1.0, 0.0], (np.pi / 2, np.pi / 2), t)
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-15)


def test_mixed_zero_y_equals_rope1d():
    fx = E.frequency_schedule(4)
    tm = FrequencyTable("mixed", np.column_stack([fx, np.zeros(4)]))
    tr = FrequencyTable("rope1d", fx[:, None])
    rng = np.random.default_rng(3)
    z = rng.standard_normal(8)
    np.testing.assert_array_equal(E.mixed(z, (0.3, -1.7), tm), E.rope1d(z, 0.3, tr))


def test_spherical_frozen_examples():
    t = unit_table("spherical", 1, 2)
    np.testing.assert_allclose(
        E.spherical([0.0, 0.0, 1.0], (0.0, np.pi / 2), t), [0.0, -1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        E.spherical([1.0, 2.0, 3.0], (np.pi / 2, np.pi / 2), t), [3.0, 1.0, 2.0], atol=1e-14
    )


def test_spherical_fast_matches_matrix_route():
    t = FrequencyTable.fixed("spherical", 12)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(300):
        z = rng.standard_normal(12)
        p = rng.uniform(-np.pi, np.pi, 2)
        worst = max(worst, np.max(np.abs(E.spherical(z, p, t) - E.spherical_fast(z, p, t))))
    assert worst <= FAST_TOL


def _triple_generators(table):
    """The dim-3B block-diagonal yaw and roll generators, triple d's blocks
    scaled by the table's row d."""
    return np.kron(np.diag(table.freqs[:, 0]), G_YAW), np.kron(np.diag(table.freqs[:, 1]), G_ROLL)


@seed(2087)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_spherical_is_the_ordered_product_of_generator_exponentials(blocks, rs):
    # the paper's definition by a third route: two one-axis liere encodes,
    # the roll first, then the yaw
    rng = np.random.default_rng(rs)
    table = FrequencyTable("spherical", rng.uniform(0.1, 2.0, (blocks, 2)))
    yaw, roll = _triple_generators(table)
    z = rng.standard_normal(3 * blocks)
    p = rng.uniform(-np.pi, np.pi, 2)
    ordered = E.liere(E.liere(z, p[1], [roll]), p[0], [yaw])
    assert np.max(np.abs(E.spherical_fast(z, p, table) - ordered)) <= FAST_TOL


def test_spherical_is_not_the_exponential_of_the_generator_sum():
    table = FrequencyTable.fixed("spherical", 12)
    gens = _triple_generators(table)
    rng = np.random.default_rng(2089)
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(12)
        p = rng.uniform(-np.pi, np.pi, 2)
        worst = max(worst, np.max(np.abs(E.spherical_fast(z, p, table) - E.liere(z, p, gens))))
    assert worst > V.COUNTEREXAMPLE_TOL


def test_spherical_reference_rejects_non_finite_angles():
    # an infinite generator entry would never return from LAPACK's SVD
    table = FrequencyTable.fixed("spherical", 6)
    for p in ((np.inf, 0.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="angles must be finite"):
            E.spherical(np.ones(6), p, table)


def test_uniform_equals_axial_constant_table():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(8)
    t = FrequencyTable("uniform", np.full((2, 2), 1.0))
    np.testing.assert_array_equal(E.uniform(z, (0.2, 0.9)), E.axial(z, (0.2, 0.9), t))


def test_uniform_full_cycle_identity():
    rng = np.random.default_rng(6)
    z = rng.standard_normal(8)
    np.testing.assert_allclose(E.uniform(z, (2 * np.pi, 0.0)), z, atol=1e-12)


def test_liere_single_generator_matches_rope1d():
    omega = 0.6180339887
    gen = np.array([[0.0, -omega], [omega, 0.0]])
    t = FrequencyTable("rope1d", np.array([[omega]]))
    for p in (-2.0, 0.0, 0.25, 3.1):
        got = E.liere([1.0, 0.5], [p], [gen])
        want = E.rope1d([1.0, 0.5], p, t)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_liere_rejects_bad_inputs():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        E.liere([1.0, 0.0, 0.0], [0.5], [gen])
    with pytest.raises(ValueError):
        E.liere([1.0, 0.0], [0.5, 0.5], [gen])
    with pytest.raises(ValueError):
        E.liere([1.0, 0.0], [0.5], [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
def test_liere_rejects_non_finite_inputs():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(41)
    t = np.triu(rng.standard_normal((4, 4)), k=1)
    encoders = [E.make_encoder("liere", generators=[gen]),
                E.make_encoder("liere", generators=[G_YAW, G_ROLL])]
    assert encoders[0].reduction is not None and encoders[1].reduction is None
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            E.liere([1.0, bad], [0.5], [gen])
        with pytest.raises(ValueError, match="finite"):
            E.liere([1.0, 0.0], [bad], [gen])
        for enc in encoders:
            z, p = np.ones(enc.dim), np.zeros(enc.axes)
            with pytest.raises(ValueError, match="finite"):
                enc.encode(np.where(np.arange(enc.dim) == 0, bad, z), p)
            with pytest.raises(ValueError, match="finite"):
                enc.encode(z, np.full(enc.axes, bad))
        with pytest.raises(ValueError, match="non-finite"):
            E.make_encoder("liere", generators=[np.where(t != 0, bad, t) - t.T])
    # finite positions whose angle overflows
    commuting = E.make_encoder("liere", generators=_commuting_family(6, 2, rng))
    assert commuting.reduction is not None
    with pytest.raises(ValueError, match="finite"):
        commuting.encode(np.ones(6), [1e308, 1e308])


def test_liere_exponential_route_rejects_an_overflowing_two_norm():
    # finite positions and a finite generator sum whose 2-norm overflows:
    # entries of at most 1e308, a 2-norm of about 4.4e308
    rng = np.random.default_rng(49)
    ones = np.triu(np.ones((7, 7)), k=1)
    gens = [ones - ones.T, V.random_skew(7, rng)]
    enc = E.make_encoder("liere", generators=gens)
    assert enc.reduction is None
    z = rng.standard_normal(7)
    assert np.all(np.isfinite(E.liere(z, [1e300, 0.0], gens)))
    with pytest.raises(ValueError, match="2-norm"):
        E.liere(z, [1e308, 0.0], gens)
    with pytest.raises(ValueError, match="2-norm"):
        enc.encode(np.stack([z, z]), [[0.5, 0.5], [1e308, 0.0]])


def test_liere_accepts_a_generator_at_every_position():
    # an asymmetry under SKEW_ATOL that a position of 50 would lift above it
    h = G_YAW.copy()
    h[0, 1] += 5e-13
    skew = linalg.as_skew(h)
    assert not np.array_equal(skew, h)
    z = np.array([1.0, 2.0, 3.0])
    direct = E.Encoder(scheme="liere", dim=3, generators=(h, G_ROLL))
    np.testing.assert_array_equal(direct.generators[0], skew)
    assert direct.reduction is None
    for p in (0.5, 50.0):
        want = E.liere(z, [p], [skew])
        np.testing.assert_array_equal(E.liere(z, [p], [h]), want)
        assert np.max(np.abs(E.make_encoder("liere", generators=[h]).encode(z, [p]) - want)) <= 1e-12
        np.testing.assert_array_equal(direct.encode(z, [p, p]), E.liere(z, [p, p], [skew, G_ROLL]))


def _commuting_family(n, count, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gens = []
    for _ in range(count):
        b = np.zeros((n, n))
        for d, f in enumerate(rng.standard_normal(n // 2)):
            b[2 * d, 2 * d + 1], b[2 * d + 1, 2 * d] = -f, f
        a = q @ b @ q.T
        gens.append(0.5 * (a - a.T))
    return gens


def test_liere_encoder_three_commuting_generators_odd_dim():
    from ropekit.linalg import matrix_exp_series

    rng = np.random.default_rng(43)
    gens = _commuting_family(7, 3, rng)
    enc = E.make_encoder("liere", generators=gens)
    table = enc.reduction.table
    assert table.scheme == "mixed" and table.freqs.shape == (3, 3) and enc.axes == 3
    for _ in range(25):
        z = rng.standard_normal(7)
        p = rng.uniform(-np.pi, np.pi, 3)
        out = enc.encode(z, p)
        series = matrix_exp_series(sum(c * g for c, g in zip(p, gens))) @ z
        assert np.max(np.abs(out - series)) <= 1e-10
        assert np.max(np.abs(out - E.liere(z, p, gens))) <= 1e-12


def _theorem_encoders():
    rng = np.random.default_rng(59)
    encoders = {(m, n): E.make_encoder("liere", generators=_commuting_family(n, m, rng))
                for m in (1, 2, 3) for n in (5, 8, 16, 17, 48)}
    assert all(enc.reduction is not None for enc in encoders.values())
    return encoders


THEOREM_ENCODERS = _theorem_encoders()


@seed(2111)
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(THEOREM_ENCODERS)), st.sampled_from([(1,), (7,), (2, 3), (256,)]),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_property_a_commuting_encoder_is_its_table_in_its_basis(key, lead, rs):
    # the reduction theorem as the implementation: a batched encode is the
    # tokens rotated into the basis, turned by the public rope1d or mixed
    # on the reduction's table, and mapped back, an odd dim's last
    # coordinate fixed, bit for bit; and the per-position exponential to
    # 1e-12 of the token's norm (the off-block entries that the reduction
    # drops reach 1e-12 at n = 48 and M = 3, so a token of norm 7 moves by
    # up to about 3e-12 there)
    enc = THEOREM_ENCODERS[key]
    table, basis = enc.reduction.table, enc.reduction.basis
    assert table.scheme == ("rope1d" if enc.axes == 1 else "mixed") and table.axes == enc.axes
    rng = np.random.default_rng(rs)
    z = rng.standard_normal(lead + (enc.dim,))
    p = rng.uniform(-np.pi, np.pi, lead + (enc.axes,))
    y, k2 = z @ basis, 2 * table.blocks
    turned = (E.rope1d if table.scheme == "rope1d" else E.mixed)(y[..., :k2], p, table)
    if k2 == enc.dim:
        want = turned @ basis.T
    else:
        want = turned @ basis[:, :k2].T + y[..., k2:] @ basis[:, k2:].T
    got = enc.encode(z, p)
    assert got.tobytes() == want.tobytes()
    assert np.all(np.abs(got - E.liere(z, p, enc.generators)) <= 1e-12 * np.linalg.norm(z, axis=-1, keepdims=True))


def test_liere_encoder_derives_its_reduction():
    rng = np.random.default_rng(53)
    gens = tuple(_commuting_family(6, 2, rng))
    direct = E.Encoder(scheme="liere", dim=6, generators=gens)
    built = E.make_encoder("liere", generators=gens)
    assert direct.reduction.table == built.reduction.table
    np.testing.assert_array_equal(direct.reduction.basis, built.reduction.basis)
    with pytest.raises(TypeError):
        E.Encoder(scheme="liere", dim=6, generators=gens, reduction=None)


def test_liere_encoder_non_commuting_uses_exponential():
    rng = np.random.default_rng(47)
    gens = [np.triu(rng.standard_normal((5, 5)), k=1) for _ in range(2)]
    gens = [g - g.T for g in gens]
    enc = E.make_encoder("liere", generators=gens)
    assert enc.reduction is None
    z, p = rng.standard_normal(5), rng.uniform(-np.pi, np.pi, 2)
    np.testing.assert_array_equal(enc.encode(z, p), E.liere(z, p, gens))


# ---------------------------------------------------------------------------
# isometry and flow invariants
# ---------------------------------------------------------------------------

ROTARY_CASES = [
    ("rope1d", 16, 1),
    ("trivial2d", 16, 2),
    ("axial", 16, 2),
    ("mixed", 16, 2),
    ("spherical", 12, 2),
    ("uniform", 16, 2),
]


@pytest.mark.parametrize("scheme,dim,axes", ROTARY_CASES)
def test_isometry(scheme, dim, axes):
    enc = E.make_encoder(scheme, dim)
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.standard_normal(dim)
        p = rng.uniform(-np.pi, np.pi, axes)
        if axes == 1:
            p = p[0]
        out = enc.encode(z, p)
        assert abs(np.linalg.norm(out) - np.linalg.norm(z)) <= ISO_RTOL * np.linalg.norm(z)


@pytest.mark.parametrize("scheme,dim,axes", ROTARY_CASES[:4] + [ROTARY_CASES[5]])
def test_flow_property_abelian(scheme, dim, axes):
    enc = E.make_encoder(scheme, dim)
    rng = np.random.default_rng(8)
    for _ in range(25):
        z = rng.standard_normal(dim)
        p1 = rng.uniform(-np.pi, np.pi, axes)
        p2 = rng.uniform(-np.pi, np.pi, axes)
        if axes == 1:
            p1, p2 = p1[0], p2[0]
        lhs = enc.encode(enc.encode(z, p1), p2)
        rhs = enc.encode(z, p1 + p2)
        assert np.max(np.abs(lhs - rhs)) <= FLOW_TOL


def test_flow_property_fails_spherical():
    t = unit_table("spherical", 1, 2)
    z = np.array([1.0, 2.0, 3.0])
    p1, p2 = np.array([1.0, 0.7]), np.array([-0.3, 1.2])
    lhs = E.spherical(E.spherical(z, p1, t), p2, t)
    rhs = E.spherical(z, p1 + p2, t)
    assert np.linalg.norm(lhs - rhs) > 1e-3


@seed(77)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["rope1d", "axial", "mixed", "spherical"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_isometry(scheme, rs):
    dim = 12
    enc = E.make_encoder(scheme, dim)
    rng = np.random.default_rng(rs)
    z = rng.standard_normal(dim)
    p = rng.uniform(-np.pi, np.pi, enc.axes)
    if enc.axes == 1:
        p = p[0]
    assert abs(np.linalg.norm(enc.encode(z, p)) - np.linalg.norm(z)) <= ISO_RTOL * np.linalg.norm(z)


# ---------------------------------------------------------------------------
# batched encoding: (..., dim) tokens at (..., axes) positions
# ---------------------------------------------------------------------------


def _batch_encoders():
    rng = np.random.default_rng(59)
    encoders = {s: E.make_encoder(s, 12) for s, spec in E.SCHEMES.items() if spec.table}
    encoders["liere-commuting"] = E.make_encoder("liere", generators=_commuting_family(7, 2, rng))
    random = [np.triu(rng.standard_normal((5, 5)), k=1) for _ in range(2)]
    encoders["liere-random"] = E.make_encoder("liere", generators=[g - g.T for g in random])
    assert encoders["liere-commuting"].reduction is not None
    assert encoders["liere-random"].reduction is None
    return encoders


BATCH_ENCODERS = _batch_encoders()


def test_batch_encoders_cover_the_registry():
    assert {enc.scheme for enc in BATCH_ENCODERS.values()} == set(E.SCHEMES)


# A lead shape of more than 16384 pairs (256 KiB of complex phasors) for
# every phasor route here: numpy may reuse so large a temporary as an output
# and swap the operands of a product, which for the fused complex product
# changes its rounding.  It runs once per route, as an explicit example.
LARGE_LEAD = (2, 2800)
PHASOR_ROUTES = sorted(n for n, enc in BATCH_ENCODERS.items() if enc.table or enc.reduction)


def _large_lead_examples(names):
    def add(test):
        for name in names:
            test = example(name, LARGE_LEAD, False, np.pi, 0)(test)
        return test
    return add


@seed(2029)
@settings(max_examples=150, deadline=None)
@_large_lead_examples(PHASOR_ROUTES)
@given(
    st.sampled_from(sorted(BATCH_ENCODERS)),
    st.sampled_from([(), (0,), (5,), (2, 3)]),
    st.booleans(),
    st.sampled_from([0.0, 1.0, np.pi, 1e3, 1e6]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_batched_encode_matches_per_token(name, lead, shared_z, scale, rs):
    enc = BATCH_ENCODERS[name]
    rng = np.random.default_rng(rs)
    z = rng.standard_normal((enc.dim,) if shared_z else lead + (enc.dim,))
    p = scale * rng.uniform(-1.0, 1.0, lead + (enc.axes,))
    got = enc.encode(z, p)
    assert got.shape == lead + (enc.dim,)
    want = np.array([enc.encode(z if shared_z else z[i], p[i]) for i in np.ndindex(lead)])
    want = want.reshape(got.shape)
    if enc.reduction is not None:
        # stacking moves the rounding of the reduced route's basis products
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    else:
        np.testing.assert_array_equal(got, want)


# The stacked exponential against an independent oracle: the scaling-and-
# squaring Taylor series of the same generator sum, one position at a time.
# Both are a few roundings of |z| off the exact product at |p| <= 10.
STACKED_EXP_RTOL = 1e-12


def _series_liere(z, p, gens):
    lead = np.broadcast(z[..., 0], p[..., 0]).shape
    zs, ps = np.broadcast_to(z, lead + z.shape[-1:]), np.broadcast_to(p, lead + p.shape[-1:])
    out = np.empty(lead + z.shape[-1:])
    for i in np.ndindex(lead):
        out[i] = linalg.matrix_exp_series(sum(c * g for c, g in zip(ps[i], gens))) @ zs[i]
    return out


@seed(2063)
@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([3, 5, 8]),
    st.sampled_from([(), (0,), (5,), (2, 3)]),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_stacked_liere_matches_series(count, dim, lead, shared_z, shared_p, rs):
    rng = np.random.default_rng(rs)
    gens = [np.triu(rng.standard_normal((dim, dim)), k=1) for _ in range(count)]
    gens = [g - g.T for g in gens]
    z = rng.standard_normal((dim,) if shared_z else lead + (dim,))
    p = rng.uniform(-10.0, 10.0, (count,) if shared_p else lead + (count,))
    want = _series_liere(z, p, gens)
    bound = STACKED_EXP_RTOL * np.maximum(1.0, np.linalg.norm(z, axis=-1))[..., None]
    enc = E.make_encoder("liere", generators=gens)
    assert (enc.reduction is None) == (count > 1)
    for got in (E.liere(z, p, gens), enc.encode(z, p)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports inf * 0 first
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stacked_liere_rejects_one_non_finite_position_row(bad):
    rng = np.random.default_rng(71)
    gens = [np.triu(rng.standard_normal((5, 5)), k=1) for _ in range(2)]
    gens = [g - g.T for g in gens]
    enc = E.make_encoder("liere", generators=gens)
    assert enc.reduction is None
    z, p = rng.standard_normal((2, 3, 5)), rng.uniform(-1.0, 1.0, (2, 3, 2))
    p[1, 2] = [0.5, bad]
    for encode in (lambda z, p: E.liere(z, p, gens), enc.encode):
        with pytest.raises(ValueError, match="finite"):
            encode(z, p)
        with pytest.raises(ValueError, match="finite"):
            encode(z[0, 0], p)


# References for the phasor route: the real cos/sin pair update and the
# two-pair triple update, fed the same elementwise angles.  The bound follows
# from float64: a pair or triple turned by one or two unit phasors, or a
# basis product on either side of one, is off by a few roundings of its
# block's norm (eps = 2.2e-16), far under 1e-14 of it.
PHASOR_RTOL = 1e-14


def _ref_rotate_pairs(z, angles):
    c, s = np.cos(angles), np.sin(angles)
    a, b = z[..., 0::2], z[..., 1::2]
    even = c * a - s * b
    out = np.empty(even.shape[:-1] + z.shape[-1:])
    out[..., 0::2] = even
    out[..., 1::2] = s * a + c * b
    return out


def _ref_rotate_triples(z, angles):
    t = z.reshape(z.shape[:-1] + (z.shape[-1] // 3, 3))
    cx, sx = np.cos(angles[..., 0::2]), np.sin(angles[..., 0::2])
    cy, sy = np.cos(angles[..., 1::2]), np.sin(angles[..., 1::2])
    r1 = cy * t[..., 1] - sy * t[..., 2]
    x0 = cx * t[..., 0] - sx * r1
    out = np.empty(x0.shape + (3,))
    out[..., 0] = x0
    out[..., 1] = sx * t[..., 0] + cx * r1
    out[..., 2] = sy * t[..., 1] + cy * t[..., 2]
    return out.reshape(x0.shape[:-1] + (3 * x0.shape[-1],))


def _two_copy_rotate_triples(z, e):
    """The triple turn before it worked in place: the roll as a fresh
    product, then two strided copies into the output, then the yaw."""
    t = z.reshape(z.shape[:-1] + (z.shape[-1] // 3, 3))
    roll = t[..., 1:].view(complex)[..., 0] * e[..., 1::2]
    out = np.empty(roll.shape + (3,))
    out[..., 0] = t[..., 0]
    out[..., 1:].view(complex)[..., 0] = roll
    yaw = out[..., :2].view(complex)[..., 0]
    yaw *= e[..., 0::2]
    return out.reshape(roll.shape[:-1] + (3 * roll.shape[-1],))


TRIPLE_LEADS = [  # (tokens' leading shape, phasors' leading shape)
    ((), ()), ((0,), (0,)), ((5,), (5,)), ((2, 3), (2, 3)),  # a token per position
    ((), (0,)), ((), (5,)), ((), (2, 3)),  # one token at a batch of positions
    ((0,), ()), ((5,), ()), ((2, 3), ()),  # a batch of tokens at one position
    ((2, 1), (1, 3)), (LARGE_LEAD, LARGE_LEAD), ((), LARGE_LEAD), (LARGE_LEAD, ()),
]


@pytest.mark.parametrize("lead_z, lead_e", TRIPLE_LEADS,
                         ids=["-".join("x".join(map(str, s)) or "one" for s in leads) for leads in TRIPLE_LEADS])
def test_the_in_place_triple_turn_is_the_two_copy_turn_bit_for_bit(lead_z, lead_e):
    # one copy of the tokens at the broadcast leading shape, then the roll
    # and the yaw in place; signed zeros, subnormal and huge entries included
    rng = np.random.default_rng(91)
    for blocks in (1, 4, 32):
        shape = lead_z + (3 * blocks,)
        z = rng.standard_normal(shape) * rng.choice([0.0, -0.0, 5e-324, 1.0, 1e300], shape)
        e = E._phasors(rng.uniform(-1e3, 1e3, lead_e + (2 * blocks,)))
        got, want = E._rotate_triples(z, e), _two_copy_rotate_triples(z, e)
        assert got.shape == want.shape == np.broadcast_shapes(lead_z, lead_e) + (3 * blocks,)
        assert got.tobytes() == want.tobytes()
        assert z.flags.writeable and not np.shares_memory(got, z)


def _ref_angle_matrix(freqs, block):
    """The (axes, angles) matrix ``W`` with angle ``j = sum_m p_m W[m, j]``:
    ``freqs.T`` for pairs; an axial quadruple or a spherical triple carries
    one angle per axis, x then y, the other axis's entry zero."""
    if block == 2:
        return freqs.T
    w = np.zeros((2, 2 * len(freqs)))
    w[0, 0::2], w[1, 1::2] = freqs[:, 0], freqs[:, 1]
    return w


def _ref_angles(p, w):
    a = p[..., :1] * w[0]
    for m in range(1, len(w)):
        a += p[..., m:m + 1] * w[m]
    return a


def _ref_encode(enc, z, p):
    """``enc.encode`` through the real updates, and each entry's bound scale:
    the norm of its rotation block (the token for liere), at least 1."""
    if enc.scheme == "liere":
        freqs, basis = enc.reduction.table.freqs, enc.reduction.basis
        y = z @ basis
        k2 = 2 * len(freqs)
        out = (_ref_rotate_pairs(y[..., :k2], _ref_angles(p, freqs.T)) @ basis[:, :k2].T
               + y[..., k2:] @ basis[:, k2:].T)
        size = enc.dim
    else:
        if enc.scheme == "trivial2d":
            p = p[..., :1] + p[..., 1:]
        w = _ref_angle_matrix(enc.table.freqs, E.SCHEMES[enc.scheme].block)
        size = 3 if enc.scheme == "spherical" else 2
        out = (_ref_rotate_triples if size == 3 else _ref_rotate_pairs)(z, _ref_angles(p, w))
    norms = np.linalg.norm(z.reshape(z.shape[:-1] + (-1, size)), axis=-1)
    scale = np.maximum(1.0, np.repeat(norms, size, axis=-1))
    return out, np.broadcast_to(scale, out.shape)


def _reference_encoders():
    rng = np.random.default_rng(61)
    encoders = {name: enc for name, enc in BATCH_ENCODERS.items() if name != "liere-random"}
    encoders["liere-commuting-even"] = E.make_encoder("liere", generators=_commuting_family(8, 2, rng))
    assert encoders["liere-commuting-even"].reduction is not None
    return encoders


REFERENCE_ENCODERS = _reference_encoders()


@seed(2039)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCE_ENCODERS)),
    st.sampled_from([(), (5,), (2, 3)]),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_phasor_route_matches_real_rotations(name, lead, shared_z, scale, rs):
    enc = REFERENCE_ENCODERS[name]
    rng = np.random.default_rng(rs)
    z = rng.standard_normal((enc.dim,) if shared_z else lead + (enc.dim,))
    p = scale * rng.uniform(-1.0, 1.0, lead + (enc.axes,))
    got = enc.encode(z, p)
    want, bound = _ref_encode(enc, z, p)
    assert got.shape == want.shape == lead + (enc.dim,)
    assert np.all(np.abs(got - want) <= PHASOR_RTOL * bound)


# The reduction theorem across the registry: a commuting table scheme is
# Mixed RoPE on its dense pair table W (axes, angles), so its encode is
# liere on the block-diagonal generators of W's rows.  trivial2d's one
# table column reads both axes, so its W is that column twice.
COMMUTING_TABLE_SCHEMES = sorted(s for s, spec in E.SCHEMES.items() if spec.table and spec.equivariant)
THEOREM_TOL = 1e-12


@seed(2053)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(COMMUTING_TABLE_SCHEMES),
    st.sampled_from([12, 24]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_table_schemes_are_liere_on_their_pair_table(scheme, dim, rs):
    rng = np.random.default_rng(rs)
    spec = E.SCHEMES[scheme]
    shape = (dim // spec.block, E.SCHEMES[spec.table].axes)
    freqs = np.full(shape, rng.uniform(-2.0, 2.0)) if spec.shared else rng.uniform(-2.0, 2.0, shape)
    enc = E.Encoder(scheme, dim, FrequencyTable(spec.table, freqs))
    w = _ref_angle_matrix(enc.table.freqs, spec.block)
    if scheme == "trivial2d":
        w = np.vstack([w, w])
    gens = [linalg.block_diag_skew(row, dim) for row in w]
    z = rng.standard_normal(dim)
    p = rng.uniform(-4.0, 4.0, enc.axes)
    assert np.max(np.abs(enc.encode(z, p) - E.liere(z, p, gens))) <= THEOREM_TOL


FREE_FUNCTIONS = {"rope1d": E.rope1d, "trivial2d": E.trivial2d, "axial": E.axial, "mixed": E.mixed,
                  "spherical": E.spherical_fast}


def test_a_table_builds_its_pair_form_once(monkeypatch):
    # a table's constructor builds its form, and its first block raster one
    # form per table block; encoders, encodes, gradients and the free
    # functions only read them
    built = []
    pair_form = E._pair_form
    monkeypatch.setattr(E, "_pair_form", lambda freqs, block: built.append(block) or pair_form(freqs, block))
    schemes = [s for s, spec in E.SCHEMES.items() if spec.table]
    tables = {s: FrequencyTable.fixed(E.SCHEMES[s].table, 24) for s in schemes}
    assert len(built) == len(tables)
    built.clear()
    encoders = {s: E.Encoder(s, 24, t) if s == "uniform" else E.make_encoder(s, 24, table=t)
                for s, t in tables.items()}
    rng = np.random.default_rng(5)
    for s, enc in encoders.items():
        z, zk = rng.standard_normal((2, 3, 24))
        p, pk = rng.uniform(-1.0, 1.0, (2, 3, enc.axes))
        enc.encode(z, p)
        if s in FREE_FUNCTIONS:
            FREE_FUNCTIONS[s](z, p, enc.table)
        if s == "spherical":
            E.spherical(z, p, enc.table)
        if E.SCHEMES[s].grad is not None:
            E.grad_frequencies(s, z, zk, p, pk, enc.table)
        A.render_pattern(enc, z[0], zk[0], 5, 4)
    assert built == []
    for s, enc in encoders.items():
        zq, zk = rng.standard_normal((2, 24))
        A.render_pattern(enc, zq, zk, 5, 4, block=0)
        assert len(built) == enc.table.blocks
        A.render_pattern(enc, zq, zk, 5, 4, block=enc.pattern_blocks - 1)
        A.render_pattern(enc, zq, zk, 5, 4)
        assert len(built) == enc.table.blocks
        built.clear()
    # a uniform encode at a frequency builds that frequency's table
    E.uniform(z, p, 2.0)
    assert built == [4]
    built.clear()
    liere = E.make_encoder("liere", generators=V.commuting_generators(8, rng))
    assert liere.reduction is not None and built == [2]
    liere.encode(rng.standard_normal(8), (0.5, -0.25))
    assert built == [2]


def test_single_token_shapes_and_scalar_position():
    enc = BATCH_ENCODERS["rope1d"]
    z = np.arange(12.0)
    assert enc.encode(z, 0.7).shape == (12,)
    np.testing.assert_array_equal(enc.encode(z, 0.7), enc.encode(z, [0.7]))
    with pytest.raises(ValueError):
        enc.encode(z[:10], 0.7)
    with pytest.raises(ValueError):
        BATCH_ENCODERS["mixed"].encode(z, 0.7)


# ---------------------------------------------------------------------------
# frequency gradients vs central differences
# ---------------------------------------------------------------------------


def _score(scheme, zq, zk, pq, pk, table):
    fn = {"rope1d": E.rope1d, "axial": E.axial, "mixed": E.mixed,
          "spherical": E.spherical, "uniform": E.axial}[scheme]
    return float(fn(zq, pq, table) @ fn(zk, pk, table))


def _fd_grad(scheme, zq, zk, pq, pk, table, h=FD_H):
    f = np.asarray(table.freqs)
    if scheme == "uniform":
        up = FrequencyTable("uniform", f + h)
        dn = FrequencyTable("uniform", f - h)
        val = (_score(scheme, zq, zk, pq, pk, up) - _score(scheme, zq, zk, pq, pk, dn)) / (2 * h)
        return np.full_like(f, val)
    out = np.zeros_like(f)
    for d in range(f.shape[0]):
        for m in range(f.shape[1]):
            fp, fm = f.copy(), f.copy()
            fp[d, m] += h
            fm[d, m] -= h
            tp = FrequencyTable(table.scheme, fp)
            tm = FrequencyTable(table.scheme, fm)
            out[d, m] = (_score(scheme, zq, zk, pq, pk, tp) - _score(scheme, zq, zk, pq, pk, tm)) / (2 * h)
    return out


GRAD_CASES = [("rope1d", 8, 1), ("axial", 16, 2), ("mixed", 8, 2),
              ("spherical", 9, 2), ("uniform", 8, 2)]


@pytest.mark.parametrize("scheme,dim,axes", GRAD_CASES)
def test_grad_frequencies_matches_fd(scheme, dim, axes):
    rng = np.random.default_rng(17)
    block = E.SCHEMES[scheme][0]
    for _ in range(20):
        if scheme == "uniform":
            table = FrequencyTable("uniform", np.full((dim // block, 2), rng.uniform(0.3, 2.0)))
        else:
            table = FrequencyTable(scheme, rng.uniform(0.1, 2.0, (dim // block, axes)))
        zq, zk = rng.standard_normal(dim), rng.standard_normal(dim)
        pq = rng.uniform(-np.pi, np.pi, axes)
        pk = rng.uniform(-np.pi, np.pi, axes)
        if axes == 1:
            pq, pk = pq[0], pk[0]
        got = E.grad_frequencies(scheme, zq, zk, pq, pk, table)
        want = _fd_grad(scheme, zq, zk, pq, pk, table)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        assert np.max(err) <= GRAD_RTOL


GRAD_SCHEMES = [s for s, spec in E.SCHEMES.items() if spec.grad is not None]


@pytest.mark.parametrize("scheme", GRAD_SCHEMES)
def test_grad_zero_positions_is_zero(scheme):
    table = FrequencyTable.fixed(E.SCHEMES[scheme].table, 12)
    origin = (0.0,) * E.SCHEMES[scheme].axes
    g = E.grad_frequencies(scheme, np.ones(12), np.ones(12), origin, origin, table)
    np.testing.assert_array_equal(g, np.zeros_like(table.freqs))


def test_grad_empty_leading_shape():
    table = FrequencyTable.fixed("spherical", 12)
    g = E.grad_frequencies("spherical", np.ones((0, 12)), np.ones(12), np.ones((0, 2)), (0.5, 1.0), table)
    assert g.shape == (0,) + table.freqs.shape


def test_grad_rejects_leading_shapes_that_do_not_broadcast():
    table = FrequencyTable.fixed("mixed", 8)
    with pytest.raises(ValueError):
        E.grad_frequencies("mixed", np.ones((5, 8)), np.ones((3, 8)), (0.0, 0.0), (1.0, 1.0), table)
    with pytest.raises(ValueError):
        E.grad_frequencies("mixed", np.ones(8), np.ones(8), np.ones((5, 2)), np.ones((3, 2)), table)


def test_grad_refuses_liere():
    with pytest.raises(ValueError, match="liere"):
        E.grad_frequencies("liere", np.ones(2), np.ones(2), 0.0, 1.0, None)


def test_grad_uniform_entries_all_equal():
    table = FrequencyTable("uniform", np.full((2, 2), 0.8))
    rng = np.random.default_rng(21)
    g = E.grad_frequencies("uniform", rng.standard_normal(8), rng.standard_normal(8),
                           (0.2, -0.5), (1.0, 0.3), table)
    assert np.all(g == g.flat[0])


def test_grad_unsupported_scheme():
    table = FrequencyTable.fixed("rope1d", 8)
    with pytest.raises(ValueError):
        E.grad_frequencies("liere", np.ones(8), np.ones(8), (0, 0), (1, 1), table)


@pytest.mark.parametrize("lead_q,lead_k", [((), ()), ((5,), (5,)), ((2, 1), (3,)), ((4, 3), ())])
def test_trivial2d_grad_is_rope1d_grad_at_the_sum(lead_q, lead_k):
    # trivial2d reads rope1d's table at p_x + p_y, so its gradient is rope1d's
    # there, bit for bit, per token and batched with broadcasting leading shapes
    rng = np.random.default_rng(29)
    table = FrequencyTable("rope1d", rng.uniform(0.1, 2.0, (6, 1)))
    zq, zk = rng.standard_normal(lead_q + (12,)), rng.standard_normal(lead_k + (12,))
    pq, pk = rng.uniform(-5.0, 5.0, lead_q + (2,)), rng.uniform(-5.0, 5.0, lead_k + (2,))
    got = E.grad_frequencies("trivial2d", zq, zk, pq, pk, table)
    at_sum = E.grad_frequencies("rope1d", zq, zk, pq[..., :1] + pq[..., 1:], pk[..., :1] + pk[..., 1:], table)
    lead = np.broadcast_shapes(lead_q, lead_k)
    assert got.shape == lead + (6, 1)
    np.testing.assert_array_equal(got, at_sum)
    zq, zk = np.broadcast_to(zq, lead + (12,)), np.broadcast_to(zk, lead + (12,))
    pq, pk = np.broadcast_to(pq, lead + (2,)), np.broadcast_to(pk, lead + (2,))
    for i in np.ndindex(lead):
        one = E.grad_frequencies("trivial2d", zq[i], zk[i], pq[i], pk[i], table)
        np.testing.assert_array_equal(one, got[i])
        np.testing.assert_array_equal(one, E.grad_frequencies("rope1d", zq[i], zk[i], pq[i][0] + pq[i][1],
                                                              pk[i][0] + pk[i][1], table))


# The frequency gradients before they ran on the phasor core, kept as
# references: the real cos/sin form for pairs and the 3x3-matrix chain for
# spherical triples, one token at a time.  An entry's roundoff is a few ulps
# of the product of its block's token norms with one or two position
# coordinates, so float64 keeps it well under 1e-14 of that scale (at least
# 1).  The entry itself is no scale for it: it can cancel to near zero.
GRAD_REF_RTOL = 1e-14


def _ref_grad_pairs(zq, zk, pq, pk, f):
    d = pk - pq
    q1, q2, k1, k2 = zq[0::2], zq[1::2], zk[0::2], zk[1::2]
    theta = _ref_angles(d, _ref_angle_matrix(f, len(zq) // len(f)))
    g = -(q1 * k1 + q2 * k2) * np.sin(theta) + (q2 * k1 - q1 * k2) * np.cos(theta)
    return g.reshape(len(f), -1) * d


def _ref_grad_uniform(zq, zk, pq, pk, f):
    g = _ref_grad_pairs(zq, zk, pq, pk, f)
    return np.full_like(f, np.sum(g[:, 0]) + np.sum(g[:, 1]))


def _ref_plane_rotations(theta, i, j):
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., [0, 1, 2], [0, 1, 2]] = 1.0
    m[..., i, i] = m[..., j, j] = c
    m[..., i, j], m[..., j, i] = -s, s
    return m


def _ref_grad_spherical(zq, zk, pq, pk, f):
    # score_d = q^T roll(aqy)^T yaw(akx - aqx) roll(aky) k per triple
    zq, zk = zq.reshape(-1, 3), zk.reshape(-1, 3)
    rq = _ref_plane_rotations(f[:, 1] * pq[1], 1, 2)
    rk = _ref_plane_rotations(f[:, 1] * pk[1], 1, 2)
    yd = _ref_plane_rotations(f[:, 0] * (pk[0] - pq[0]), 0, 1)
    left = np.einsum("dij,dj->di", rq, zq)
    right = np.einsum("dij,dj->di", rk, zk)
    gx = (pk[0] - pq[0]) * np.einsum("di,dij,dj->d", left, yd @ G_YAW, right)
    left_d = np.einsum("dij,dj->di", rq @ G_ROLL, zq)
    right_d = np.einsum("dij,dj->di", rk @ G_ROLL, zk)
    gy = pq[1] * np.einsum("di,dij,dj->d", left_d, yd, right) \
        + pk[1] * np.einsum("di,dij,dj->d", left, yd, right_d)
    return np.column_stack([gx, gy])


_REF_GRADS = {"rope1d": _ref_grad_pairs, "axial": _ref_grad_pairs, "mixed": _ref_grad_pairs,
              "spherical": _ref_grad_spherical, "uniform": _ref_grad_uniform}


def _grad_scale(scheme, zq, zk, pq, pk):
    """Each gradient entry's bound scale: ``|q_b| |k_b| (|pq_m| + |pk_m|)``
    for its rotation block ``b`` and axis ``m``, summed over all entries for
    the uniform scheme's one shared parameter."""
    block = E.SCHEMES[scheme].block
    nq = np.linalg.norm(zq.reshape(-1, block), axis=-1)
    nk = np.linalg.norm(zk.reshape(-1, block), axis=-1)
    scale = np.outer(nq * nk, np.abs(pq) + np.abs(pk))
    return np.full_like(scale, scale.sum()) if scheme == "uniform" else scale


def _random_table(scheme, dim, rng):
    spec = E.SCHEMES[scheme]
    shape = (dim // spec.block, E.SCHEMES[spec.table].axes)
    if scheme == "uniform":
        return FrequencyTable("uniform", np.full(shape, rng.uniform(0.1, 2.0)))
    return FrequencyTable(spec.table, rng.uniform(0.1, 2.0, shape))


@seed(2053)
@settings(max_examples=200, deadline=None)
@_large_lead_examples(GRAD_SCHEMES)
@given(
    st.sampled_from(GRAD_SCHEMES),
    st.sampled_from([(), (5,), (2, 3)]),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_batched_grad_matches_per_token_and_reference(scheme, lead, shared_z, scale, rs):
    rng = np.random.default_rng(rs)
    table = _random_table(scheme, 12, rng)
    axes = E.SCHEMES[scheme].axes
    zq, zk = rng.standard_normal((2,) + ((12,) if shared_z else lead + (12,)))
    pq, pk = scale * rng.uniform(-1.0, 1.0, (2,) + lead + (axes,))
    got = E.grad_frequencies(scheme, zq, zk, pq, pk, table)
    assert got.shape == lead + table.freqs.shape
    want = np.empty_like(got)
    for n, i in enumerate(np.ndindex(lead)):
        zqi, zki = (zq, zk) if shared_z else (zq[i], zk[i])
        want[i] = E.grad_frequencies(scheme, zqi, zki, pq[i], pk[i], table)
        if n < 6:  # every token but the large lead's
            # trivial2d's reference is rope1d's at p_x + p_y
            layout, rq, rk = E.SCHEMES[scheme].table, pq[i], pk[i]
            if axes > table.axes:
                rq, rk = rq[:1] + rq[1:], rk[:1] + rk[1:]
            ref = _REF_GRADS[layout](zqi, zki, rq, rk, table.freqs)
            bound = GRAD_REF_RTOL * np.maximum(1.0, _grad_scale(layout, zqi, zki, rq, rk))
            assert np.all(np.abs(want[i] - ref) <= bound)
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# encoder objects and configs
# ---------------------------------------------------------------------------


def test_make_encoder_validation():
    with pytest.raises(ValueError):
        E.make_encoder("axial", 10)
    with pytest.raises(ValueError):
        E.make_encoder("nope", 8)
    with pytest.raises(ValueError):
        E.make_encoder("rope1d")
    with pytest.raises(ValueError):
        E.make_encoder("liere")
    with pytest.raises(ValueError):
        E.make_encoder("uniform", 8, table=FrequencyTable.fixed("axial", 8))


@pytest.mark.parametrize("scheme", sorted(s for s, spec in E.SCHEMES.items() if spec.table))
def test_encoder_dim_is_an_integer(scheme):
    # a whole float is refused too: its config would not round-trip
    for dim in (12.0, 12.5, True, np.float64(12.0)):
        with pytest.raises(ValueError, match="dim must be an integer"):
            E.make_encoder(scheme, dim)
        with pytest.raises(ValueError, match="dim must be an integer"):
            FrequencyTable.fixed(E.SCHEMES[scheme].table, dim)
        with pytest.raises(ValueError, match="dim must be an integer"):
            E.encoder_from_config({"scheme": scheme, "dim": dim})
    # a numpy integer is stored as an int, so its config is JSON
    enc = E.make_encoder(scheme, np.int64(12))
    assert type(enc.dim) is int
    text = E.dump_config(E.encoder_to_config(enc))
    assert text == E.dump_config(E.encoder_to_config(E.make_encoder(scheme, 12)))
    assert E.encoder_from_config(E.parse_config(text)) == enc


def test_liere_encoder_dim_is_an_integer():
    gen = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    for dim in (4.0, True, np.float64(4.0)):
        with pytest.raises(ValueError, match="dim must be an integer"):
            E.make_encoder("liere", dim, generators=[gen])
    enc = E.make_encoder("liere", np.int64(4), generators=[gen])
    assert type(enc.dim) is int and enc == E.make_encoder("liere", generators=[gen])


def test_encoder_rejects_table_that_does_not_fit():
    with pytest.raises(ValueError, match="blocks"):
        E.Encoder("mixed", 8, FrequencyTable("mixed", [[1.0, 0.5]]))
    with pytest.raises(ValueError, match="blocks"):
        E.Encoder("spherical", 9, FrequencyTable("spherical", [[1.0, 0.5]]))
    with pytest.raises(ValueError, match="divisible"):
        E.Encoder("mixed", 7, FrequencyTable("mixed", np.ones((3, 2))))
    with pytest.raises(ValueError, match="'axial'"):
        E.Encoder("axial", 8, FrequencyTable("mixed", np.ones((2, 2))))
    with pytest.raises(ValueError, match="'uniform'"):
        E.Encoder("uniform", 8, FrequencyTable("axial", np.ones((2, 2))))
    with pytest.raises(ValueError, match="'axial'"):
        E.grad_frequencies("axial", np.ones(8), np.ones(8), (0, 0), (1, 1),
                           FrequencyTable("mixed", np.ones((2, 2))))
    with pytest.raises(ValueError, match=r"\(blocks, 1\)"):
        FrequencyTable("rope1d", np.ones((2, 2)))
    # a uniform table is an axial table of one shared frequency
    assert E.Encoder("axial", 8, FrequencyTable("uniform", np.ones((2, 2)))).dim == 8


def test_spherical_fast_is_the_encoder_route():
    table = FrequencyTable.fixed("spherical", 12)
    rng = np.random.default_rng(67)
    z, p = rng.standard_normal((5, 12)), rng.uniform(-np.pi, np.pi, (5, 2))
    np.testing.assert_array_equal(E.spherical_fast(z, p, table),
                                  E.make_encoder("spherical", 12, table=table).encode(z, p))


def test_encoder_pattern_slices():
    enc = E.make_encoder("axial", 16)
    assert enc.pattern_blocks == 8
    assert enc.pattern_slice(0) == slice(0, 2)
    sph = E.make_encoder("spherical", 12)
    assert sph.pattern_blocks == 4
    assert sph.pattern_slice(3) == slice(9, 12)
    with pytest.raises(ValueError):
        sph.pattern_slice(4)
    # liere reads pairs too, the last one short at an odd dim
    odd = E.make_encoder("liere", generators=[V.random_skew(5, np.random.default_rng(61))])
    assert odd.pattern_blocks == 3
    assert odd.pattern_slice(2) == slice(4, 5)


def test_encoders_and_tables_compare_and_hash_by_value():
    a, b = E.make_encoder("rope1d", 8), E.make_encoder("rope1d", 8)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != E.make_encoder("rope1d", 8, base=50.0)
    assert a != E.make_encoder("axial", 8) and a != "rope1d"
    t1 = FrequencyTable("mixed", np.array([[0.0, 1.0]]))
    t2 = FrequencyTable("mixed", np.array([[-0.0, 1.0]]))
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != FrequencyTable("mixed", np.array([[0.5, 1.0]]))
    assert t1 != FrequencyTable("axial", np.array([[0.0, 1.0]]))
    assert E.make_encoder("mixed", 2, table=t1) == E.make_encoder("mixed", 2, table=t2)
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    lie = E.make_encoder("liere", generators=[gen, 0.5 * gen])
    same = E.make_encoder("liere", generators=[gen.copy(), 0.5 * gen])
    assert lie == same and hash(lie) == hash(same)
    assert lie != E.make_encoder("liere", generators=[gen, 0.25 * gen])
    assert lie != E.make_encoder("liere", generators=[gen])
    # the other records that hold arrays follow the same rule
    for rows, cols in ((3, 3), (2, 5)):
        grid = make_grid(rows, cols)
        assert grid == make_grid(rows, cols) and hash(grid) == hash(make_grid(rows, cols))
        assert grid != make_grid(rows + 1, cols) and grid != make_grid(rows, cols + 1)
        assert grid != make_grid(rows, cols, rows + 1) and grid != make_grid(rows, cols, rows, cols + 1)
    zero = A.AttentionPattern(2, 1, np.array([[0.0, 1.0]]), "mixed", None)
    negative_zero = A.AttentionPattern(2, 1, np.array([[-0.0, 1.0]]), "mixed", None)
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    assert zero != A.AttentionPattern(2, 1, np.array([[0.5, 1.0]]), "mixed", None)
    assert zero != A.AttentionPattern(2, 1, np.array([[0.0, 1.0]]), "axial", None)
    assert zero != A.AttentionPattern(2, 1, np.array([[0.0, 1.0]]), "mixed", 0)
    assert zero != make_grid(1, 2) and zero != "mixed"
    mixed, z = E.make_encoder("mixed", 8), np.linspace(-1.0, 1.0, 8)
    assert A.render_pattern(mixed, z, z[::-1], 4, 3) == A.render_pattern(mixed, z, z[::-1], 4, 3)
    form = linalg.canonical_form(gen)
    assert form == linalg.canonical_form(gen.copy()) and hash(form) == hash(linalg.canonical_form(gen.copy()))
    assert form != linalg.canonical_form(2 * gen)
    flat = linalg.CanonicalForm(np.array([0.0]), np.eye(2), 2)
    signed = linalg.CanonicalForm(np.array([-0.0]), np.eye(2), 2)
    assert flat == signed and hash(flat) == hash(signed)
    assert flat != linalg.CanonicalForm(np.array([0.0]), np.eye(2), 1)


def test_encoder_config_agrees_with_its_table():
    # a uniform encoder's frequency is read off its table
    direct = E.Encoder("uniform", 8, FrequencyTable.fixed("uniform", 8, uniform_freq=2.0))
    built = E.make_encoder("uniform", 8, uniform_freq=2.0)
    assert direct == built and hash(direct) == hash(built)
    assert E.encoder_to_config(direct)["uniform_freq"] == 2.0 == direct.uniform_freq
    assert E.encoder_from_config(E.encoder_to_config(direct)) == direct
    # base builds the table, so the two cannot disagree
    with pytest.raises(ValueError, match="not both"):
        E.Encoder("mixed", 8, FrequencyTable.fixed("mixed", 8), base=50.0)
    scheduled = E.Encoder("mixed", 8, base=50)
    assert scheduled == E.make_encoder("mixed", 8, base=50.0)
    assert scheduled.table == FrequencyTable.fixed("mixed", 8, base=50.0)
    assert E.encoder_from_config(E.encoder_to_config(scheduled)) == scheduled
    with pytest.raises(ValueError, match="uniform"):
        E.Encoder("uniform", 8, base=50.0)
    assert E.make_encoder("axial", 8).uniform_freq is None


def test_encoder_configs_of_make_encoder_are_unchanged():
    cases = [
        (("rope1d", 16), {}, '{"axes": 1, "base": 100.0, "dim": 16, "scheme": "rope1d"}\n'),
        (("trivial2d", 8), {"base": 50}, '{"axes": 2, "base": 50.0, "dim": 8, "scheme": "trivial2d"}\n'),
        (("uniform", 8), {}, '{"axes": 2, "dim": 8, "scheme": "uniform", "uniform_freq": 1.0}\n'),
        (("uniform", 8), {"uniform_freq": 3},
         '{"axes": 2, "dim": 8, "scheme": "uniform", "uniform_freq": 3.0}\n'),
        (("mixed", 2), {"table": FrequencyTable("mixed", [[0.5, 1.25]])},
         '{"axes": 2, "dim": 2, "freqs": [[0.5, 1.25]], "scheme": "mixed"}\n'),
    ]
    for args, kwargs, text in cases:
        assert E.dump_config(E.encoder_to_config(E.make_encoder(*args, **kwargs))) == text


def test_make_encoder_rejects_parameters_that_do_not_apply():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="uniform_freq' only"):
        E.make_encoder("uniform", 8, base=50.0)
    with pytest.raises(ValueError, match="'uniform_freq' only applies"):
        E.make_encoder("mixed", 8, uniform_freq=2.0)
    with pytest.raises(ValueError, match="'uniform_freq' only applies"):
        E.make_encoder("liere", generators=[gen], uniform_freq=2.0)
    with pytest.raises(ValueError, match="not a table or base"):
        E.make_encoder("liere", generators=[gen], base=50.0)
    with pytest.raises(ValueError, match="not a table or base"):
        E.make_encoder("liere", generators=[gen], table=FrequencyTable.fixed("rope1d", 2))
    with pytest.raises(ValueError, match="only liere"):
        E.make_encoder("rope1d", 2, generators=[gen])


def test_make_encoder_antisymmetrises_each_liere_generator_once(monkeypatch):
    rng = np.random.default_rng(31)
    as_skew, calls = linalg.as_skew, []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return as_skew(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "as_skew", counted)
    random = [np.triu(rng.standard_normal((16, 16)), k=1) for _ in range(2)]
    # a commuting pair adds one call: canonical_form of their combination
    for gens, reduced in ((_commuting_family(16, 2, rng), True), ([g - g.T for g in random], False)):
        calls.clear()
        assert (E.make_encoder("liere", generators=gens).reduction is not None) == reduced
        assert calls == [(16, 16)] * (3 if reduced else 2)


BAD_GENERATORS = {  # name: (generators, dim, error text)
    "none": (None, None, "at least one generator"),
    "empty": ([], None, "at least one generator"),
    "non-square": ([np.zeros((2, 3))], None, "square"),
    "non-finite": ([np.array([[0.0, -np.nan], [np.nan, 0.0]])], None, "non-finite"),
    "non-skew": ([np.ones((2, 2))], None, "not skew-symmetric"),
    "mixed-shapes": ([G_YAW, np.zeros((2, 2))], None, "one square shape"),
    "dim-mismatch": ([G_YAW], 4, "does not match generator size"),
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
def test_liere_encoders_reject_bad_generators(case):
    gens, dim, msg = BAD_GENERATORS[case]
    with pytest.raises(ValueError, match=msg):
        E.make_encoder("liere", dim, generators=gens)
    with pytest.raises(ValueError, match=msg):
        E.Encoder("liere", 3 if dim is None else dim, generators=gens)


@pytest.mark.parametrize("case", sorted(set(BAD_GENERATORS) - {"dim-mismatch"}))
def test_joint_canonical_form_rejects_bad_generators_like_liere(case):
    gens, _, msg = BAD_GENERATORS[case]
    with pytest.raises(ValueError, match=msg):
        linalg.joint_canonical_form(gens)


def test_config_round_trip_base():
    enc = E.make_encoder("axial", 16, base=50.0)
    cfg = E.encoder_to_config(enc)
    assert cfg == {"scheme": "axial", "dim": 16, "axes": 2, "base": 50.0}
    enc2 = E.encoder_from_config(cfg)
    assert E.encoder_to_config(enc2) == cfg
    np.testing.assert_array_equal(enc.table.freqs, enc2.table.freqs)


def test_config_round_trip_explicit_freqs():
    f = [[0.5, 1.25], [0.125, 2.0]]
    enc = E.encoder_from_config({"scheme": "mixed", "dim": 4, "freqs": f})
    cfg = E.encoder_to_config(enc)
    assert cfg["freqs"] == f
    enc2 = E.encoder_from_config(cfg)
    assert E.encoder_to_config(enc2) == cfg


def test_config_round_trip_uniform():
    cfg = {"scheme": "uniform", "dim": 8, "axes": 2, "uniform_freq": 0.75}
    enc = E.encoder_from_config(cfg)
    assert E.encoder_to_config(enc) == cfg


def test_config_dump_is_byte_stable():
    cfg = {"scheme": "rope1d", "dim": 16, "axes": 1, "base": 100.0}
    text = E.dump_config(cfg)
    assert E.dump_config(E.parse_config(text)) == text


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_mixed_table_takes_its_axis_count_from_its_columns(m):
    # pair j turns by sum_m freqs[j, m] p_m; the encoder, the free function,
    # the gradient and the config all read the axis count off the table
    rng = np.random.default_rng(97 + m)
    table = FrequencyTable("mixed", rng.uniform(-2.0, 2.0, (3, m)))
    enc = E.make_encoder("mixed", 6, table=table)
    assert enc.axes == table.axes == m
    z, p = rng.standard_normal((5, 6)), rng.uniform(-3.0, 3.0, (5, m))
    want = (z.view(complex) * np.exp(1j * (p @ table.freqs.T))).view(float)
    got = enc.encode(z, p)
    assert got.tobytes() == E.mixed(z, p, table).tobytes()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match=f"expected positions with {m} coordinate"):
        enc.encode(z, np.zeros((5, m + 1)))
    zk, pk = rng.standard_normal((5, 6)), rng.uniform(-3.0, 3.0, (5, m))
    grad = E.grad_frequencies("mixed", z, zk, p, pk, table)
    assert grad.shape == (5, 3, m)
    numeric = V.finite_difference_grad("mixed", z[0], zk[0], p[0], pk[0], table)
    np.testing.assert_allclose(grad[0], numeric, rtol=1e-5, atol=1e-7)
    cfg = E.encoder_to_config(enc)
    assert cfg["axes"] == m and E.encoder_from_config(cfg) == enc
    with pytest.raises(ValueError, match=f"mixed has {m} axes, config says {m + 1}"):
        E.encoder_from_config({**cfg, "axes": m + 1})


def test_table_shapes_other_than_a_mixed_tables_columns_stay_fixed():
    with pytest.raises(ValueError, match=r"mixed freqs must be a \(blocks, M >= 1\) array"):
        FrequencyTable("mixed", np.zeros((3, 0)))
    for scheme, cols in (("rope1d", 2), ("axial", 3), ("spherical", 1), ("uniform", 3)):
        with pytest.raises(ValueError, match=rf"{scheme} freqs must be a \(blocks, {E.SCHEMES[scheme].axes}\)"):
            FrequencyTable(scheme, np.ones((3, cols)))
    # trivial2d keeps its two position axes on rope1d's one-column table
    enc = E.make_encoder("trivial2d", 8)
    assert enc.axes == 2 and enc.table.axes == 1
    assert E.make_encoder("mixed", 8).axes == E.make_encoder("mixed", 8).table.axes == 2


def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        E.encoder_from_config({"scheme": "axial", "dim": 8, "base": 10.0, "freqs": [[1, 1]]})
    with pytest.raises(ValueError):
        E.encoder_from_config({"scheme": "axial", "dim": 8, "volume": 11})
    with pytest.raises(ValueError):
        E.encoder_from_config({"scheme": "axial"})
    with pytest.raises(ValueError):
        E.encoder_from_config({"scheme": "rope1d", "dim": 8, "axes": 2})
    with pytest.raises(ValueError):
        E.encoder_from_config({"scheme": "rope1d", "dim": 8, "uniform_freq": 2.0})
    with pytest.raises(ValueError):
        E.parse_config("{not json")
    with pytest.raises(ValueError):
        E.encoder_to_config(E.make_encoder("liere", generators=[np.array([[0.0, -1.0], [1.0, 0.0]])]))


@pytest.mark.parametrize("cfg,msg", [
    ({"scheme": "uniform", "dim": 8, "freqs": [[1.0, 1.0], [1.0, 1.0]]}, "uniform_freq' only"),
    ({"scheme": "uniform", "dim": 8, "base": 10.0}, "uniform_freq' only"),
    ({"scheme": "mixed", "dim": 8, "uniform_freq": 2.0}, "'uniform_freq' only applies"),
])
def test_config_rejects_parameters_its_scheme_does_not_take(cfg, msg):
    # the same rule, and the same message, as make_encoder
    with pytest.raises(ValueError, match=msg):
        E.encoder_from_config(cfg)


TABLE_SCHEMES = sorted(s for s, spec in E.SCHEMES.items() if spec.table)


@seed(2081)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TABLE_SCHEMES), st.integers(1, 6), st.sampled_from(["base", "freqs", "default"]),
       st.floats(1e-2, 1e6), st.floats(allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_property_config_round_trip(scheme, blocks, param, base, uniform_freq, rs):
    spec = E.SCHEMES[scheme]
    dim = spec.block * blocks
    if scheme == "uniform":
        enc = E.make_encoder("uniform", dim, uniform_freq=uniform_freq)
    elif param == "base":
        enc = E.make_encoder(scheme, dim, base=base)
    elif param == "freqs":
        rng = np.random.default_rng(rs)
        shape = (blocks, E.SCHEMES[spec.table].axes)
        freqs = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        enc = E.make_encoder(scheme, dim, table=FrequencyTable(spec.table, freqs))
    else:
        enc = E.make_encoder(scheme, dim)
    text = E.dump_config(E.encoder_to_config(enc))
    back = E.encoder_from_config(E.parse_config(text))
    assert back == enc
    assert back.table.freqs.tobytes() == enc.table.freqs.tobytes()
    assert E.dump_config(E.encoder_to_config(back)) == text
    assert E.dump_config(E.parse_config(text)) == text


@seed(2083)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.sampled_from([(), (4,), (2, 3)]),
       st.sampled_from([1.0, 1e3, 1e6]), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_zero_generators_fix_every_token(n, m, lead, scale, rs):
    # zero generators commute: the encoder takes the reduced route (a 1x1
    # generator has no rotation plane, so the exponential one), and it and
    # the per-position exponential both return z to roundoff
    gens = [np.zeros((n, n))] * m
    enc = E.make_encoder("liere", generators=gens)
    assert (enc.reduction is None) == (n == 1)
    rng = np.random.default_rng(rs)
    z = scale * rng.standard_normal(lead + (n,))
    p = scale * rng.uniform(-1.0, 1.0, lead + (m,))
    for out in (enc.encode(z, p), E.liere(z, p, gens)):
        assert out.shape == z.shape
        assert np.all(np.abs(out - z) <= 1e-15 * np.maximum(1.0, np.abs(z)))


def test_table_routes_build_no_encoder(monkeypatch):
    # a table already fixes its scheme's route: only make_encoder builds encoders
    init, built = E.Encoder.__post_init__, []

    def counted(self):
        built.append(self.scheme)
        init(self)

    monkeypatch.setattr(E.Encoder, "__post_init__", counted)
    rng = np.random.default_rng(71)
    z, zk = rng.standard_normal((2, 3, 12))
    p, pk = rng.uniform(-np.pi, np.pi, (2, 3, 2))
    pair_table = FrequencyTable.fixed("rope1d", 12)
    E.rope1d(z, p[..., :1], pair_table)
    E.trivial2d(z, p, pair_table)
    E.axial(z, p, FrequencyTable.fixed("axial", 12))
    E.mixed(z, p, FrequencyTable.fixed("mixed", 12))
    E.spherical_fast(z, p, FrequencyTable.fixed("spherical", 12))
    E.uniform(z, p, 0.5)
    for scheme in ("rope1d", "axial", "mixed", "spherical", "uniform"):
        table = FrequencyTable.fixed(scheme, 12)
        axes = table.axes
        E.grad_frequencies(scheme, z, zk, p[..., :axes], pk[..., :axes], table)
        V.finite_difference_grad(scheme, z[0], zk[0], p[0, :axes], pk[0, :axes], table)
    for gens, reduce in (((V.random_skew(5, rng),), V.reduce_liere_1d),
                         (V.commuting_generators(6, rng), V.reduce_liere_mixed)):
        table, basis = reduce(*gens)
        n = len(basis)
        V.reduced_score(z[0, :n], zk[0, :n], p[0, :len(gens)], pk[0, :len(gens)], table, basis)
    assert built == []
    E.make_encoder("mixed", 4)
    assert built == ["mixed"]


def test_encoder_liere_round_trip_dim():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    enc = E.make_encoder("liere", generators=[gen, 0.5 * gen])
    assert enc.dim == 2
    assert enc.axes == 2
    out = enc.encode([1.0, 0.0], [0.3, 0.4])
    assert np.linalg.norm(out) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the dtype rule at the entry points
# ---------------------------------------------------------------------------


def _not_real(good):
    """``good`` as complex, as object with a None entry, and as strings:
    each must be rejected rather than cast to its real part or to NaN."""
    good = np.asarray(good, dtype=float)
    obj = good.astype(object)
    obj.flat[0] = None
    return [good + 0j, obj, good.astype(str)]


_Z, _ZK = np.random.default_rng(97).standard_normal((2, 8))
_P, _PK = (0.3, -1.2), (0.5, 0.25)
_GEN = V.random_skew(8, np.random.default_rng(98))
_MIXED = FrequencyTable.fixed("mixed", 8)
_QK = np.random.default_rng(99).standard_normal((3, 4))
DTYPE_ENTRIES = {  # name: (call with one argument replaced, the good value of that argument)
    "encode-tokens": (lambda v: E.make_encoder("mixed", 8).encode(v, _P), _Z),
    "encode-positions": (lambda v: E.make_encoder("mixed", 8).encode(_Z, v), _P),
    "grad-tokens": (lambda v: E.grad_frequencies("mixed", _Z, v, _P, _PK, _MIXED), _ZK),
    "grad-positions": (lambda v: E.grad_frequencies("mixed", _Z, _ZK, v, _PK, _MIXED), _P),
    "liere-tokens": (lambda v: E.liere(v, _P, [_GEN, _GEN]), _Z),
    "liere-positions": (lambda v: E.liere(_Z, v, [_GEN, _GEN]), _P),
    "liere-generators": (lambda v: E.liere(_Z, _P, [v, _GEN]), _GEN),
    "table-freqs": (lambda v: FrequencyTable("mixed", v), _MIXED.freqs),
    "matrix-exp": (lambda v: linalg.matrix_exp(v), _GEN),
    "commutator": (lambda v: linalg.commutator(v, _GEN), _GEN),
    "block-diag-skew": (lambda v: linalg.block_diag_skew(v, 8), _Z[:4]),
    "reduced-score": (lambda v: V.reduced_score(v, _ZK, 0.3, -1.2, *V.reduce_liere_1d(_GEN)), _Z),
    # scalar parameters, taken as 0-d values
    "schedule-base": (lambda v: E.frequency_schedule(4, v), 100.0),
    "encoder-base": (lambda v: E.make_encoder("mixed", 8, base=v).table.freqs, 100.0),
    "config-base": (lambda v: E.encoder_from_config({"scheme": "mixed", "dim": 8, "base": v}).table.freqs, 100.0),
    "encoder-uniform-freq": (lambda v: E.make_encoder("uniform", 8, uniform_freq=v).table.freqs, 2.0),
    "table-uniform-freq": (lambda v: FrequencyTable.fixed("uniform", 8, uniform_freq=v), 3.0),
    "uniform-freq": (lambda v: E.uniform(_Z, _P, v), 2.0),
    "attention-scale": (lambda v: A.attention_weights(_QK, _QK, scale=v), 2.0),
    "softmax-scale": (lambda v: A.softmax_attention(_QK, _QK, _QK, scale=v), 2.0),
    "locality-max-shift": (lambda v: V.locality_probe(E.make_encoder("mixed", 8), v, 3, draws=2), 1.0),
}


@pytest.mark.parametrize("name", sorted(DTYPE_ENTRIES))
def test_entry_points_reject_complex_object_and_string_input(name):
    call, good = DTYPE_ENTRIES[name]
    call(good)
    for bad in _not_real(good):
        with pytest.raises(ValueError, match="must be real"):
            call(bad)


def _outcome(call, v):
    try:
        out = call(v)
    except ValueError as exc:
        return str(exc)
    return np.asarray(out.freqs if isinstance(out, FrequencyTable) else out).tobytes()


@pytest.mark.parametrize("name", sorted(DTYPE_ENTRIES))
def test_entry_points_cast_bool_integer_and_float16_as_float64(name):
    # the same outcome as the float64 cast, result or error (a bool matrix
    # is not skew)
    call, good = DTYPE_ENTRIES[name]
    for dtype in (bool, np.int64, np.float16):
        v = np.round(np.asarray(good)).astype(dtype)
        assert _outcome(call, v) == _outcome(call, v.astype(float))


def test_scalar_parameters_are_single_values():
    for call in (lambda: A.attention_weights(_QK, _QK, scale=np.ones(3)),
                 lambda: E.make_encoder("mixed", 8, base=[100.0]),
                 lambda: E.uniform(_Z, _P, np.ones((1, 1)))):
        with pytest.raises(ValueError, match="single value"):
            call()
    assert type(E.make_encoder("mixed", 8, base=np.int32(10)).base) is float


def test_a_none_position_is_rejected_not_encoded_as_nan():
    for scheme in ("rope1d", "mixed"):
        enc = E.make_encoder(scheme, 8)
        with pytest.raises(ValueError, match="must be real"):
            enc.encode(_Z, [None] if enc.axes == 1 else [None, 1.0])


# ---------------------------------------------------------------------------
# the operator store: one operator per distinct single position
# ---------------------------------------------------------------------------


STORE_ENCODERS = {**BATCH_ENCODERS, "liere-commuting-even": REFERENCE_ENCODERS["liere-commuting-even"]}


def _fresh(enc):
    """An encoder equal to ``enc`` with an empty store."""
    table = None if enc.base is not None else enc.table
    return E.Encoder(enc.scheme, enc.dim, table, enc.base, enc.generators)


def _unstored(enc, z, p):
    """``enc``'s encode of ``z`` at ``p`` with a store that takes nothing,
    so every operator is built on the call."""
    with mock.patch.object(E, "_STORE_BYTES", 0):
        fresh = _fresh(enc)
        out = fresh.encode(z, p)
    assert not fresh._operators
    return out


def test_store_encoders_cover_every_route():
    routes = {(enc.scheme, enc.reduction is None, enc.dim % 2) for enc in STORE_ENCODERS.values()}
    assert {s for s, _, _ in routes} == set(E.SCHEMES)
    assert {(r, odd) for s, r, odd in routes if s == "liere"} == {(True, 1), (False, 1), (False, 0)}


@seed(2053)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(STORE_ENCODERS)),
    st.lists(st.integers(0, 5), min_size=1, max_size=24),
    st.sampled_from([None, 0, 1, 3]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_stored_operators_keep_every_encode_bit_for_bit(name, order, capacity, rs):
    # six positions, two of them 0.0 and -0.0, visited in any order, so new
    # positions interleave with stored ones; a capacity sizes the budget to
    # that many operators, past which the rest are built on every call
    enc = _fresh(STORE_ENCODERS[name])
    rng = np.random.default_rng(rs)
    pool = rng.uniform(-4.0, 4.0, (6, enc.axes))
    pool[0], pool[1] = 0.0, -0.0
    z = rng.standard_normal((len(order), enc.dim))
    z[::3, :2] = 0.0
    entry = E._operator(enc, pool[0]).nbytes + pool[0].nbytes
    budget = E._STORE_BYTES if capacity is None else capacity * entry
    with mock.patch.object(E, "_STORE_BYTES", budget):
        for zi, j in zip(z, order):
            assert enc.encode(zi, pool[j]).tobytes() == _unstored(enc, zi, pool[j]).tobytes()
    first = list(dict.fromkeys(order))[:capacity]
    assert list(enc._operators) == [pool[j].tobytes() for j in first]
    assert not any(op.flags.writeable for op in enc._operators.values())


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_a_repeated_position_builds_once_and_turns_every_call(name, monkeypatch):
    # a stored operator skips its build only: each encode still takes the
    # one-position route through the product its encoder fixed on
    # construction, and never _turn, which turns batches of positions
    enc = _fresh(STORE_ENCODERS[name])
    operator, product, built, turned, routed = E._operator, enc._product, [], [], []
    monkeypatch.setattr(E, "_operator", lambda *a: built.append(a) or operator(*a))
    monkeypatch.setattr(E, "_turn", lambda *a: turned.append(a))
    monkeypatch.setitem(vars(enc), "_product", lambda *a: routed.append(a) or product(*a))
    z, p = np.linspace(-1.0, 1.0, enc.dim), np.full(enc.axes, 0.25)
    outs = [enc.encode(z, p) for _ in range(4)]
    assert len(built) == 1 and len(routed) == 4 and not turned
    assert all(out.tobytes() == outs[0].tobytes() for out in outs)


class _Subclass(np.ndarray):
    pass


def _input_kinds(enc):
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


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_every_input_kind_encodes_as_its_canonical_input_or_raises_as_inputs_does(name):
    # each kind, at a store miss and then at a hit, gives the bytes of its
    # canonical float64 C-order inputs encoded by another encoder, or the
    # ValueError that _inputs, the one definition of conversion, raises
    for kind, (z, p, zc, pc) in _input_kinds(STORE_ENCODERS[name]).items():
        enc = _fresh(STORE_ENCODERS[name])
        if zc is None:
            with pytest.raises(ValueError) as want:
                E._inputs(z, p, enc.dim, enc.axes)
            for _ in range(2):
                with pytest.raises(ValueError) as got:
                    enc.encode(z, p)
                assert str(got.value) == str(want.value), kind
            assert not enc._operators, kind
            continue
        want = _fresh(enc).encode(zc, pc)
        for _ in range(2):
            out = enc.encode(z, p)
            assert type(out) is np.ndarray and out.dtype == np.float64, kind
            assert out.shape == want.shape and out.tobytes() == want.tobytes(), kind
        # one position takes the store route, a position batch does not
        assert list(enc._operators) == ([] if np.ndim(pc) > 1 else [np.asarray(pc).tobytes()]), kind


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_the_entry_test_takes_only_what_inputs_returns_unchanged(name, monkeypatch):
    # an input that skips _inputs is one _inputs returns as the same objects;
    # every kind that needs converting, checking or is a batch of positions
    # goes through _inputs
    enc = _fresh(STORE_ENCODERS[name])
    rng = np.random.default_rng(90)
    p = rng.uniform(-2.0, 2.0, (2, enc.axes))
    frozen = p[0].copy()
    frozen.flags.writeable = False
    taken = {
        "token": (rng.standard_normal(enc.dim), p[0]),
        "token batch": (rng.standard_normal((2, 3, enc.dim)), p[0]),
        "empty batch": (np.empty((0, enc.dim)), p[1]),
        "strided position": (rng.standard_normal(enc.dim), p.T[:, 0]),
        "read-only position": (rng.standard_normal(enc.dim), frozen),
    }
    inputs, converted = E._inputs, []
    monkeypatch.setattr(E, "_inputs", lambda *a: converted.append(a) or inputs(*a))
    for kind, (z, pos) in taken.items():
        enc.encode(z, pos)
        assert not converted, kind
        zz, pp = inputs(z, pos, enc.dim, enc.axes)
        assert zz is z and pp is pos, kind
    for kind, (z, pos, _, _) in _input_kinds(enc).items():
        converted.clear()
        try:
            enc.encode(z, pos)
        except ValueError:
            pass
        # a float64 C-order token batch at one position is canonical as it is
        assert len(converted) == (kind != "token batch at one position"), kind


def test_the_one_position_product_is_fixed_by_the_encoder_and_rebuilt_by_a_copy():
    rng = np.random.default_rng(91)
    encoders = dict(STORE_ENCODERS, **{"liere-commuting-17": E.make_encoder(
        "liere", generators=V.commuting_generators(17, rng))})
    for name, enc in encoders.items():
        r = enc.reduction
        if enc.table is not None:
            assert enc._product is E.SCHEMES[enc.scheme].rotate, name
        elif r is None or r.rows is not None:
            assert enc._product is E._matrix_turn, name
        else:
            assert enc._product.func is E._encode_liere and enc._product.args == (r,), name
        for dup in (copy.copy(enc), copy.deepcopy(enc), pickle.loads(pickle.dumps(enc))):
            assert dup == enc and hash(dup) == hash(enc) and "_product" not in repr(dup)
            if isinstance(enc._product, functools.partial):
                assert dup._product.func is enc._product.func and dup._product.args[0] is dup.reduction
            else:
                assert dup._product is enc._product
        if enc.table is not None:
            assert "_product" not in E.encoder_to_config(enc)


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_signed_zero_positions_keep_operators_of_their_own(name):
    enc = _fresh(STORE_ENCODERS[name])
    z = np.zeros(enc.dim)
    z[1::2] = np.linspace(-1.0, 1.0, enc.dim // 2)
    for p in ([0.0] * enc.axes, [-0.0] * enc.axes, [0.0] * enc.axes, [-0.0] * enc.axes):
        assert enc.encode(z, p).tobytes() == _unstored(enc, z, p).tobytes()
    assert len(enc._operators) == 2


def test_a_scalar_position_shares_the_key_of_its_one_coordinate():
    enc = _fresh(STORE_ENCODERS["rope1d"])
    z = np.linspace(-1.0, 1.0, enc.dim)
    for p in (0.5, [0.5], np.float32(0.5), np.array(0.5)):
        assert enc.encode(z, p).tobytes() == _unstored(enc, z, p).tobytes()
    assert list(enc._operators) == [np.array([0.5]).tobytes()]


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_a_token_batch_at_one_position_stores_one_operator(name):
    enc = _fresh(STORE_ENCODERS[name])
    z = np.random.default_rng(67).standard_normal((2, 5, enc.dim))
    p = np.full(enc.axes, -1.5)
    want = _unstored(enc, z, p)
    assert want.shape == z.shape
    for _ in range(2):
        assert enc.encode(z, p).tobytes() == want.tobytes()
    assert len(enc._operators) == 1


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_batched_positions_store_nothing(name):
    enc = _fresh(STORE_ENCODERS[name])
    rng = np.random.default_rng(68)
    z, p = rng.standard_normal(enc.dim), rng.uniform(-3.0, 3.0, (4, enc.axes))
    enc.encode(z, p)
    enc.encode(z, p[:1])
    enc.encode(z[None], p[None, 0])
    assert not enc._operators
    if enc.table is not None:
        for block in (None, 0):
            A.render_pattern(enc, z, z, 5, 4, block)
        assert not enc._operators


NON_FINITE_POSITIONS = [np.nan, np.inf, -np.inf]
# finite positions whose angle, generator sum or 2-norm overflows
OVERFLOWING = {"mixed": [1e308, 1e308], "trivial2d": [1e308, 1e308], "liere-random": [1e308, 1e308]}


@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_a_non_finite_operator_is_never_stored(name):
    # every route raises on every call, and the store keeps nothing
    enc = _fresh(STORE_ENCODERS[name])
    z = np.linspace(-1.0, 1.0, enc.dim)
    positions = [np.full(enc.axes, bad) for bad in NON_FINITE_POSITIONS]
    positions += [OVERFLOWING[name]] if name in OVERFLOWING else []
    for p in positions:
        for _ in range(3):
            with pytest.raises(ValueError, match="finite|overflows"), np.errstate(invalid="ignore", over="ignore"):
                enc.encode(z, p)
    assert not enc._operators


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
@pytest.mark.parametrize("name", sorted(STORE_ENCODERS))
def test_a_non_finite_token_raises_on_every_route(name):
    # at a stored position (one lookup, one product, one test), at a new
    # one, in a token batch and at a batch of positions
    enc = _fresh(STORE_ENCODERS[name])
    rng = np.random.default_rng(88)
    z, p = rng.standard_normal((3, enc.dim)), rng.uniform(-2.0, 2.0, (3, enc.axes))
    enc.encode(z[0], p[0])
    for bad in NON_FINITE_POSITIONS:
        zb = z.copy()
        zb[1, -1] = bad
        for args in ((zb[1], p[0]), (zb[1], p[1]), (zb, p[0]), (zb, p), (zb[1], p)):
            with pytest.raises(ValueError, match="encoding must be finite"):
                enc.encode(*args)
    assert list(enc._operators) == [p[0].tobytes(), p[1].tobytes()]


TABLE_SCHEMES = sorted(s for s, spec in E.SCHEMES.items() if spec.table)
FREE_TABLE_FUNCTIONS = {**FREE_FUNCTIONS, "uniform": lambda z, p, table: E.uniform(z, p, table.freqs[0, 0])}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
@pytest.mark.parametrize("scheme", TABLE_SCHEMES)
def test_every_table_route_rejects_a_non_finite_token_position_or_angle(scheme):
    # a table of frequency 4, so that a coordinate of 1e308 overflows its
    # angle: per token, batched, broadcast, through the free function, and
    # for a bad token through the combined and the block raster
    spec = E.SCHEMES[scheme]
    table = FrequencyTable(spec.table, np.full((12 // spec.block, E.SCHEMES[spec.table].axes), 4.0))
    enc = E.Encoder(scheme, 12, table)
    rng = np.random.default_rng(89)
    z, p = rng.standard_normal((4, 12)), rng.uniform(-2.0, 2.0, (4, enc.axes))
    cases = []
    for bad in NON_FINITE_POSITIONS:
        zb, pb = z.copy(), p.copy()
        zb[2, 0], pb[2] = bad, bad
        cases += [(zb, p), (z, pb)]
    po = p.copy()
    po[2] = 1e308
    cases.append((z, po))
    free = FREE_TABLE_FUNCTIONS[scheme]
    for zc, pc in cases:
        for args in ((zc[2], pc[2]), (zc, pc), (zc[2], pc), (zc, pc[2])):
            for encode in (enc.encode, lambda z, p: free(z, p, table)):
                with pytest.raises(ValueError, match="finite"):
                    encode(*args)
    for bad in NON_FINITE_POSITIONS:
        zb = z[0].copy()
        zb[0] = bad
        for block in (None, 0):
            with pytest.raises(ValueError, match="encoding must be finite"):
                A.render_pattern(enc, zb, z[1], 5, 4, block)
            with pytest.raises(ValueError, match="encoding must be finite"):
                A.render_pattern(enc, z[1], zb, 5, 4, block)
    # only the finite position of a bad token is kept
    assert list(enc._operators) == [p[2].tobytes()]
    if scheme == "spherical":
        for zc, pc in cases:
            with pytest.raises(ValueError, match="finite"):
                E.spherical(zc, pc, table)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
@pytest.mark.parametrize("scheme", TABLE_SCHEMES)
def test_grad_frequencies_rejects_a_non_finite_token_position_or_angle(scheme):
    # as every encode of the same inputs does: a NaN token, an inf position
    # and, on a frequency-4 table, a coordinate of 1e308 whose angle
    # overflows, on either side of the score, per token and batched
    spec = E.SCHEMES[scheme]
    table = FrequencyTable(spec.table, np.full((12 // spec.block, E.SCHEMES[spec.table].axes), 4.0))
    enc = E.Encoder(scheme, 12, table)
    rng = np.random.default_rng(90)
    z, p = rng.standard_normal((2, 12)), rng.uniform(-2.0, 2.0, (2, spec.axes))
    assert np.isfinite(E.grad_frequencies(scheme, z[0], z[1], p[0], p[1], table)).all()
    nan_token, inf_position, far_position = z[0].copy(), p[0].copy(), p[0].copy()
    nan_token[3], inf_position[-1], far_position[-1] = np.nan, np.inf, 1e308
    for zb, pb in ((nan_token, p[0]), (z[0], inf_position), (z[0], far_position)):
        with pytest.raises(ValueError, match="encoding must be finite"):
            enc.encode(zb, pb)
        for args in ((zb, z[1], pb, p[1]), (z[1], zb, p[1], pb),
                     (np.stack([z[1], zb]), z[1], np.stack([p[1], pb]), p[1])):
            with pytest.raises(ValueError, match=f"^{scheme} frequency gradient must be finite"):
                E.grad_frequencies(scheme, *args, table)


def _built_or_refused(build):
    """What ``build()`` returns, or the text of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("scheme", sorted(E.SCHEMES))
def test_make_encoder_is_the_encoder_plus_uniform_freq(scheme):
    # Encoder makes every check and sets every default; make_encoder adds
    # only uniform_freq and the rule that a shared table scheme takes
    # nothing else.  Every other case builds equal encoders or raises the
    # same ValueError text both ways.
    spec = E.SCHEMES[scheme]
    if spec.table is not None:
        default = E.Encoder(scheme, 12)
        assert default == E.make_encoder(scheme, 12) and default.table == FrequencyTable.fixed(spec.table, 12)
        assert default.base == (None if spec.shared else E.DEFAULT_BASE)
    given = {"base": 50.0, "table": FrequencyTable.fixed(spec.table or "rope1d", 12), "uniform_freq": 2.0,
             "generators": _commuting_family(12, 2, np.random.default_rng(91))}
    for dim in (12, None):
        for chosen in itertools.product((False, True), repeat=len(given)):
            kw = {name: value for (name, value), on in zip(given.items(), chosen) if on}
            made = _built_or_refused(lambda: E.make_encoder(scheme, dim, **kw))
            uniform_freq = kw.pop("uniform_freq", None)
            if spec.shared and ("base" in kw or "table" in kw):
                assert made == "uniform takes 'uniform_freq' only"
            elif uniform_freq is not None and not spec.shared:
                assert made == "'uniform_freq' only applies to the uniform scheme"
            else:
                def direct():
                    if uniform_freq is not None:  # the uniform table it stands for
                        kw["table"] = FrequencyTable.fixed(spec.table, dim, uniform_freq=uniform_freq)
                    return E.Encoder(scheme, dim, **kw)
                direct = _built_or_refused(direct)
                assert type(made) is type(direct) and made == direct, (dim, chosen, made, direct)


@pytest.mark.parametrize("make", [
    lambda: E.make_encoder("rope1d", 16384),
    lambda: E.make_encoder("liere", generators=[V.random_skew(128, np.random.default_rng(s)) for s in (72, 73)]),
], ids=["rope1d-16384", "liere-random-128"])
def test_a_full_store_stays_within_its_bytes(make):
    # one operator and key here take 128 KiB and 8 or 16 bytes, so fifteen
    # fit in the 2 MiB budget and the other five are built on every call
    enc = make()
    z = np.random.default_rng(74).standard_normal(enc.dim)
    positions = np.random.default_rng(75).uniform(-3.0, 3.0, (20, enc.axes))
    for rep in range(2):
        for p in positions:
            assert enc.encode(z, p).tobytes() == _unstored(enc, z, p).tobytes()
        if rep == 0:
            kept = dict(enc._operators)
    assert len(kept) == 15 and all(enc._operators[k] is op for k, op in kept.items())
    assert list(enc._operators) == [p.tobytes() for p in positions[:15]]
    assert sum(op.nbytes + len(k) for k, op in enc._operators.items()) <= E._STORE_BYTES


LIERE_STORE_ENCODERS = sorted(n for n, enc in STORE_ENCODERS.items() if enc.scheme == "liere")


@pytest.mark.parametrize("name", LIERE_STORE_ENCODERS)
def test_a_stored_liere_operator_is_its_read_only_rotation_matrix(name):
    enc = _fresh(STORE_ENCODERS[name])
    z, p = np.linspace(-1.0, 1.0, enc.dim), np.full(enc.axes, 0.75)
    out = enc.encode(z, p)
    (op,) = enc._operators.values()
    assert op.shape == (enc.dim, enc.dim) and op.dtype == np.float64 and not op.flags.writeable
    rotation = linalg.matrix_exp(sum(c * g for c, g in zip(p, enc.generators)))
    assert np.max(np.abs(op - rotation)) <= V.FAST_PATH_TOL
    assert out.tobytes() == (op @ z).tobytes()


@pytest.mark.parametrize("route", ["reduced", "exponential"])
def test_a_stored_liere_hit_is_dot_bit_for_bit_matmul(route):
    # a hit multiplies with ndarray.dot, np.dot's routine without its
    # dispatch; it must give the bits of op @ z, one BLAS gemv either way
    dims = range(2, E._MATRIX_MAX_DIM + 1) if route == "reduced" else [*range(1, 40), 48, 64, 96, 128]
    for n in dims:
        rng = np.random.default_rng(1000 + n)
        gens = (V.commuting_generators(n, rng) if route == "reduced"
                else [V.random_skew(n, rng), V.random_skew(n, rng)])
        enc = E.make_encoder("liere", generators=gens)
        if n > 2:  # any two skew generators of size 1 or 2 commute
            assert (enc.reduction is None) == (route == "exponential")
        z, p = rng.standard_normal((50, n)), rng.uniform(-3.0, 3.0, 2)
        enc.encode(z[0], p)
        (op,) = enc._operators.values()
        assert op.shape == (n, n)
        for zi in z:
            want = (op @ zi).tobytes()
            assert np.dot(op, zi).tobytes() == op.dot(zi).tobytes() == want
            assert enc.encode(zi, p).tobytes() == want


@pytest.mark.parametrize("dim", [2, 5, 8, 16, 17, 48])
def test_a_reduction_keeps_one_c_order_basis_up_to_the_matrix_dim(dim):
    # a one-position miss builds basis @ R @ basis.T from the kept C-order
    # rows, the bits of a build from a fresh C-order copy of the basis
    rng = np.random.default_rng(84 + dim)
    enc = E.make_encoder("liere", generators=V.commuting_generators(dim, rng))
    r = enc.reduction
    if dim > E._MATRIX_MAX_DIM:
        assert r.rows is None
        return
    assert r.rows.flags.c_contiguous and not r.rows.flags.writeable
    assert r.rows.tobytes() == np.ascontiguousarray(r.basis).tobytes()
    for p in rng.uniform(-3.0, 3.0, (5, 2)):
        e = E._phasors(E._angles(r.table.pairs, p))
        want = E._liere_reduced(np.ascontiguousarray(r.basis), e.conj(), r.basis)
        assert E._operator(enc, p).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", LIERE_STORE_ENCODERS)
def test_a_stored_liere_hit_builds_no_phasors_and_no_pair_turn(name, monkeypatch):
    enc = _fresh(STORE_ENCODERS[name])
    rng = np.random.default_rng(80)
    z, p = rng.standard_normal((3, enc.dim)), rng.uniform(-2.0, 2.0, enc.axes)
    first = [enc.encode(zi, p) for zi in z]
    calls = []
    for fn in ("_liere_reduced", "_phasors", "_rotation"):
        monkeypatch.setattr(E, fn, lambda *a, fn=fn: calls.append(fn))
    assert all(enc.encode(zi, p).tobytes() == want.tobytes() for zi, want in zip(z, first))
    assert enc.encode(z, p).shape == z.shape and not calls


@pytest.mark.parametrize("dim", [5, 7, 8, 16, 17])
def test_a_single_position_reduced_encode_agrees_with_liere_and_the_batch(dim):
    # up to _MATRIX_MAX_DIM one position turns by basis @ R @ basis.T, a
    # batch by its phasors: the two round differently, so they agree to
    # rounding, not bit for bit; above it one position keeps the phasors
    rng = np.random.default_rng(81 + dim)
    gens = _commuting_family(dim, 2, rng)
    enc = E.make_encoder("liere", generators=gens)
    assert enc.reduction is not None
    z, p = rng.standard_normal((20, dim)), rng.uniform(-np.pi, np.pi, (20, 2))
    batched = enc.encode(z, p)
    for zi, pi, bi in zip(z, p, batched):
        one = enc.encode(zi, pi)
        assert np.max(np.abs(one - E.liere(zi, pi, gens))) <= V.FAST_PATH_TOL
        assert np.max(np.abs(one - bi)) <= 1e-12
    matrix = dim <= E._MATRIX_MAX_DIM
    assert all((op.dtype == np.float64) == matrix for op in enc._operators.values())
    assert all(op.shape == ((dim, dim) if matrix else (dim // 2,)) for op in enc._operators.values())


@pytest.mark.parametrize("dim, fit, route", [(16, 1016, "reduced"), (16, 1016, "exponential"), (17, 14563, "reduced")])
def test_a_full_store_holds_matrices_up_to_the_matrix_dim(dim, fit, route):
    # a two-coordinate key takes 16 bytes; a float64 n x n matrix 8 n^2, so
    # the 2 MiB store holds 1016 of them at n = 16; above _MATRIX_MAX_DIM a
    # reduced encoder keeps its n // 2 complex phasors, 16 (n // 2) bytes
    # (the exponential route at n = 128 is test_a_full_store_stays_within_its_bytes)
    rng = np.random.default_rng(83)
    if route == "reduced":
        gens = V.commuting_generators(dim, rng)
    else:
        gens = [V.random_skew(dim, rng), V.random_skew(dim, rng)]
    enc = E.make_encoder("liere", generators=gens)
    assert (enc.reduction is None) == (route == "exponential")
    op_bytes = 8 * dim * dim if dim <= E._MATRIX_MAX_DIM else 16 * (dim // 2)
    assert fit == E._STORE_BYTES // (op_bytes + 16)
    z = rng.standard_normal(dim)
    for p in rng.uniform(-3.0, 3.0, (fit + 3, 2)):
        enc.encode(z, p)
    assert len(enc._operators) == fit
    assert all(op.nbytes == op_bytes for op in enc._operators.values())


def test_the_store_leaves_equality_hash_repr_and_config_alone():
    for name, enc in STORE_ENCODERS.items():
        enc, empty = _fresh(enc), _fresh(enc)
        before = repr(enc), hash(enc)
        for p in np.random.default_rng(76).uniform(-2.0, 2.0, (5, enc.axes)):
            enc.encode(np.ones(enc.dim), p)
        assert len(enc._operators) == 5
        assert enc == empty and hash(enc) == hash(empty) == before[1]
        assert repr(enc) == repr(empty) == before[0]
        assert "_operators" not in repr(enc)
        if enc.table is not None:
            assert E.encoder_to_config(enc) == E.encoder_to_config(empty)


def test_liere_encoder_arrays_are_read_only():
    # an in-place edit would leave the reduction and every stored operator
    # stale; the caller's own generators stay writeable and apart
    rng = np.random.default_rng(77)
    commuting = E.make_encoder("liere", generators=_commuting_family(6, 2, rng))
    gens = [V.random_skew(5, rng), V.random_skew(5, rng)]
    random = E.make_encoder("liere", generators=gens)
    r = commuting.reduction
    arrays = [*commuting.generators, r.table.freqs, r.basis, r.rows, *random.generators]
    arrays += [f for _, f in r.table.pairs]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] *= 2
    z, p = np.linspace(-1.0, 1.0, 5), [0.3, -0.7]
    before = random.encode(z, p), E.liere(z, p, random.generators)
    assert all(g.flags.writeable for g in gens)
    gens[0] *= 2
    assert random.encode(z, p).tobytes() == before[0].tobytes()
    assert E.liere(z, p, random.generators).tobytes() == before[1].tobytes()


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


def _own_arrays(obj):
    """The arrays an encoder or a table keeps read-only."""
    if isinstance(obj, FrequencyTable):
        return [obj.freqs] + [a for term in obj.pairs for a in term if isinstance(a, np.ndarray)]
    arrays = list(obj.generators or ())
    if obj.reduction is not None:
        arrays += [obj.reduction.basis, *_own_arrays(obj.reduction.table)]
        arrays += [] if obj.reduction.rows is None else [obj.reduction.rows]
    return arrays + (_own_arrays(obj.table) if obj.table is not None else [])


@pytest.mark.parametrize("kind", sorted(COPIES))
def test_copies_rebuild_read_only_with_a_store_of_their_own(kind):
    rng = np.random.default_rng(79)
    for name, enc in STORE_ENCODERS.items():
        enc = _fresh(enc)
        z, p = rng.standard_normal(enc.dim), rng.uniform(-2.0, 2.0, enc.axes)
        before = enc.encode(z, p)
        dup = COPIES[kind](enc)
        assert dup == enc and hash(dup) == hash(enc) and repr(dup) == repr(enc)
        assert dup._operators == {} and len(enc._operators) == 1
        assert _own_arrays(dup) and not any(a.flags.writeable for a in _own_arrays(dup))
        assert dup.encode(z, p).tobytes() == before.tobytes()
        assert dup._operators is not enc._operators and len(enc._operators) == 1
        if enc.table is not None:
            table = COPIES[kind](enc.table)
            assert table == enc.table and not any(a.flags.writeable for a in _own_arrays(table))
    # the other records: a grid's cached positions are not carried over, a
    # square grid keeps one array for both axes, and a canonical form's
    # arrays stay writeable, as its constructor leaves them
    grids = [make_grid(4, 4), make_grid(3, 5, 6, 2)]
    for grid in grids:
        assert not grid.positions.flags.writeable
    mixed = E.make_encoder("mixed", 8)
    pattern = A.render_pattern(mixed, rng.standard_normal(8), rng.standard_normal(8), 5, 3)
    form = linalg.canonical_form(V.random_skew(5, rng))
    for record in (*grids, pattern, form):
        dup = COPIES[kind](record)
        assert dup == record and hash(dup) == hash(record) and repr(dup) == repr(record)
    for grid in grids:
        dup = COPIES[kind](grid)
        assert (dup.xs is dup.ys) == (grid.xs is grid.ys)
        assert not any(a.flags.writeable for a in (dup.xs, dup.ys, dup.positions))
        assert dup.positions.tobytes() == grid.positions.tobytes()
    assert grids[0].xs is grids[0].ys
    assert not COPIES[kind](pattern).values.flags.writeable
    assert COPIES[kind](form).basis.flags.writeable


@pytest.mark.parametrize("kind", sorted(COPIES))
def test_copies_keep_a_subnormal_generator_bit_for_bit(kind):
    # the stored generator is exactly skew, so rebuilding through the
    # constructor antisymmetrises it to the same bits
    u = np.nextafter(0.0, 1.0)
    enc = E.make_encoder("liere", generators=[np.array([[0.0, 3 * u], [-2 * u, 0.0]])])
    dup = COPIES[kind](enc)
    assert enc.generators[0][0, 1] == 3 * u
    assert dup == enc and dup.generators[0].tobytes() == enc.generators[0].tobytes()


def test_replace_rebuilds_an_equal_encoder():
    for enc in STORE_ENCODERS.values():
        assert dataclasses.replace(enc) == enc
    mixed = E.make_encoder("mixed", 8)
    assert dataclasses.replace(mixed, base=50.0, table=None) == E.make_encoder("mixed", 8, base=50.0)
    assert E.Encoder("mixed", 8, FrequencyTable.fixed("mixed", 8, base=50.0), base=50.0) == E.make_encoder(
        "mixed", 8, base=50.0)
    with pytest.raises(ValueError, match="not both"):
        dataclasses.replace(mixed, base=50.0)


def test_threads_sharing_an_encoder_get_the_unstored_bits():
    # more threads than cores, switching often, on one encoder per route:
    # misses race on the store, and every encode must still equal the
    # route's unstored build, every stored operator its own position's
    interval = sys.getswitchinterval()
    rng = np.random.default_rng(78)
    try:
        sys.setswitchinterval(1e-5)
        for name in ("mixed", "spherical", "liere-commuting", "liere-random"):
            enc = _fresh(STORE_ENCODERS[name])
            pool = rng.uniform(-3.0, 3.0, (12, enc.axes))
            z = rng.standard_normal(enc.dim)
            want = [_unstored(enc, z, p).tobytes() for p in pool]
            got = [[] for _ in range(4)]

            def work(out, order):
                for j in order:
                    out.append((j, enc.encode(z, pool[j]).tobytes()))

            threads = [threading.Thread(target=work, args=(got[t], np.random.default_rng(t).integers(0, 12, 150)))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(len(out) == 150 for out in got)
            assert all(b == want[j] for out in got for j, b in out)
            for key, op in enc._operators.items():
                assert op.tobytes() == E._operator(enc, np.frombuffer(key)).tobytes()
    finally:
        sys.setswitchinterval(interval)


SCHEME_ENTRIES = {  # name: call taking the scheme
    "Encoder": lambda s: E.Encoder(s, 8),
    "make_encoder": lambda s: E.make_encoder(s, 8),
    "FrequencyTable": lambda s: FrequencyTable(s, np.ones((4, 2))),
    "FrequencyTable.fixed": lambda s: FrequencyTable.fixed(s, 8),
    "grad_frequencies": lambda s: E.grad_frequencies(s, np.ones(8), np.ones(8), [0.1, 0.2], [0.3, 0.4],
                                                     FrequencyTable.fixed("mixed", 8)),
}


@pytest.mark.parametrize("entry", sorted(SCHEME_ENTRIES))
@pytest.mark.parametrize("scheme", [["mixed"], {"mixed": 1}, ("mixed",), 2, None, b"mixed"])
def test_a_scheme_that_is_no_string_is_an_unknown_scheme(entry, scheme):
    # an unhashable scheme is not looked up in the registry, so it raises
    # the unknown-scheme ValueError, not a TypeError
    table = "frequency-table " if entry.startswith("FrequencyTable") else ""
    with pytest.raises(ValueError, match=rf"^unknown {table}scheme "):
        SCHEME_ENTRIES[entry](scheme)


@pytest.mark.parametrize("call, what", [
    (lambda: E.make_encoder("mixed", 4).encode([[1.0, 2.0, 3.0, 4.0], [1.0]], [0.1, 0.2]), "token vectors"),
    (lambda: E.make_encoder("mixed", 4).encode(np.ones(4), [[0.1, 0.2], [0.3]]), "positions"),
    (lambda: FrequencyTable("mixed", [[1, 2], [3]]), "frequencies"),
], ids=["encode-tokens", "encode-positions", "FrequencyTable"])
def test_a_ragged_input_raises_value_error_naming_it(call, what):
    with pytest.raises(ValueError, match=rf"^{what} must be a rectangular array: .*inhomogeneous"):
        call()
