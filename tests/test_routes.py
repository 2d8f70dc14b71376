"""The routes behind an encode, pinned by their private names.

Every other test module holds the contract through the public API alone:
``encode``, ``render_pattern``, ``grad_frequencies``, equality, hashing,
reprs, configs and copies.  This module is the one that names the routes
those calls take, so that a change of route changes this file and no
other.  It pins:

- the operator store: ``Encoder._operators``, ``_STORE_BYTES`` and
  ``_stored_operator``, one read-only operator per distinct single position;
- the one-position route: ``Encoder.encode``'s entry test, which skips
  ``_inputs``, and ``Encoder._product`` (``_one_position_product``: the
  registry's ``rotate``, ``_matrix_turn`` or ``_encode_liere``);
- a reduced liere encoder's single-position rotation matrix up to
  ``_MATRIX_MAX_DIM``, built by ``_operator`` from ``Reduction.rows``;
- ``_turn``, the batched route that the rasters take.

Deleting these routes deletes this module with them.  Each test here
whose name a test in another module shares is the route half of that
test; the other half holds the same behaviour through the public API.
"""

import copy
import functools
from unittest import mock

import numpy as np
import pytest
from conftest import COPIES, ENCODERS, TABLE_SCHEMES, commuting_family, encode_in_threads, input_kinds
from hypothesis import given, seed, settings, strategies as st

from ropekit import attention as A, encodings as E, linalg, verify as V
from ropekit.encodings import FrequencyTable

LIERE_ENCODERS = sorted(n for n, enc in ENCODERS.items() if enc.scheme == "liere")


def _unstored(enc, z, p):
    """``enc``'s encode of ``z`` at ``p`` with a store that takes nothing,
    so every operator is built on the call."""
    with mock.patch.object(E, "_STORE_BYTES", 0):
        fresh = copy.copy(enc)
        out = fresh.encode(z, p)
    assert not fresh._operators
    return out


# ---------------------------------------------------------------------------
# the operator store: one operator per distinct single position
# ---------------------------------------------------------------------------


@seed(2053)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(ENCODERS)),
    st.lists(st.integers(0, 5), min_size=1, max_size=24),
    st.sampled_from([None, 0, 1, 3]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_stored_operators_keep_every_encode_bit_for_bit(name, order, capacity, rs):
    # six positions, two of them 0.0 and -0.0, visited in any order, so new
    # positions interleave with stored ones; a capacity sizes the budget to
    # that many operators, past which the rest are built on every call
    enc = copy.copy(ENCODERS[name])
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


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_a_repeated_position_builds_once_and_turns_every_call(name, monkeypatch):
    # a stored operator skips its build only: each encode still takes the
    # one-position route through the product its encoder fixed on
    # construction, and never _turn, which turns batches of positions
    enc = copy.copy(ENCODERS[name])
    operator, product, built, turned, routed = E._operator, enc._product, [], [], []
    monkeypatch.setattr(E, "_operator", lambda *a: built.append(a) or operator(*a))
    monkeypatch.setattr(E, "_turn", lambda *a: turned.append(a))
    monkeypatch.setitem(vars(enc), "_product", lambda *a: routed.append(a) or product(*a))
    z, p = np.linspace(-1.0, 1.0, enc.dim), np.full(enc.axes, 0.25)
    for _ in range(4):
        enc.encode(z, p)
    assert len(built) == 1 and len(routed) == 4 and not turned


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_every_input_kind_encodes_as_its_canonical_input_or_raises_as_inputs_does(name):
    # one position takes the store route, a position batch does not, and
    # an input that raises stores nothing
    for kind, (z, p, zc, pc) in input_kinds(ENCODERS[name]).items():
        enc = copy.copy(ENCODERS[name])
        for _ in range(2):
            try:
                enc.encode(z, p)
            except ValueError:
                assert zc is None, kind
        if zc is None:
            assert not enc._operators, kind
        else:
            assert list(enc._operators) == ([] if np.ndim(pc) > 1 else [np.asarray(pc).tobytes()]), kind


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_signed_zero_positions_keep_operators_of_their_own(name):
    enc = copy.copy(ENCODERS[name])
    z = np.zeros(enc.dim)
    z[1::2] = np.linspace(-1.0, 1.0, enc.dim // 2)
    for p in ([0.0] * enc.axes, [-0.0] * enc.axes, [0.0] * enc.axes, [-0.0] * enc.axes):
        assert enc.encode(z, p).tobytes() == _unstored(enc, z, p).tobytes()
    assert len(enc._operators) == 2


def test_a_scalar_position_shares_the_key_of_its_one_coordinate():
    enc = copy.copy(ENCODERS["rope1d"])
    z = np.linspace(-1.0, 1.0, enc.dim)
    for p in (0.5, [0.5], np.float32(0.5), np.array(0.5)):
        enc.encode(z, p)
    assert list(enc._operators) == [np.array([0.5]).tobytes()]


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_a_token_batch_at_one_position_stores_one_operator(name):
    enc = copy.copy(ENCODERS[name])
    z = np.random.default_rng(67).standard_normal((2, 5, enc.dim))
    for _ in range(2):
        enc.encode(z, np.full(enc.axes, -1.5))
    assert len(enc._operators) == 1


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_batched_positions_store_nothing(name):
    enc = copy.copy(ENCODERS[name])
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


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_a_non_finite_operator_is_never_stored(name):
    enc = copy.copy(ENCODERS[name])
    positions = [np.full(enc.axes, bad) for bad in (np.nan, np.inf, -np.inf)]
    # a finite position whose angle, generator sum or 2-norm overflows
    positions += [[1e308, 1e308]] if name in ("mixed", "trivial2d", "liere-random") else []
    for p in positions:
        for _ in range(3):
            with pytest.raises(ValueError), np.errstate(invalid="ignore", over="ignore"):
                enc.encode(np.linspace(-1.0, 1.0, enc.dim), p)
    assert not enc._operators


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_a_non_finite_token_raises_on_every_route(name):
    # a bad token at a new position still keeps that position's operator
    enc = copy.copy(ENCODERS[name])
    rng = np.random.default_rng(88)
    z, p = rng.standard_normal((3, enc.dim)), rng.uniform(-2.0, 2.0, (3, enc.axes))
    enc.encode(z[0], p[0])
    for bad in (np.nan, np.inf, -np.inf):
        zb = z.copy()
        zb[1, -1] = bad
        for args in ((zb[1], p[0]), (zb[1], p[1]), (zb, p[0]), (zb, p), (zb[1], p)):
            with pytest.raises(ValueError):
                enc.encode(*args)
    assert list(enc._operators) == [p[0].tobytes(), p[1].tobytes()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the NaN or overflow first
@pytest.mark.parametrize("scheme", TABLE_SCHEMES)
def test_every_table_route_rejects_a_non_finite_token_position_or_angle(scheme):
    # on a frequency-4 table: only the finite position of a bad token is
    # kept, not a bad position or one whose angle overflows
    spec = E.SCHEMES[scheme]
    table = FrequencyTable(spec.table, np.full((12 // spec.block, E.SCHEMES[spec.table].axes), 4.0))
    enc = E.Encoder(scheme, 12, table)
    rng = np.random.default_rng(89)
    z, p = rng.standard_normal((4, 12)), rng.uniform(-2.0, 2.0, (4, enc.axes))
    for bad in (np.nan, np.inf, -np.inf):
        zb = z[2].copy()
        zb[0] = bad
        for args in ((zb, p[2]), (z[2], np.full(enc.axes, bad)), (z[2], np.full(enc.axes, 1e308))):
            with pytest.raises(ValueError):
                enc.encode(*args)
    assert list(enc._operators) == [p[2].tobytes()]


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
    for enc in ENCODERS.values():
        enc = copy.copy(enc)
        for p in np.random.default_rng(76).uniform(-2.0, 2.0, (5, enc.axes)):
            enc.encode(np.ones(enc.dim), p)
        assert len(enc._operators) == 5
        assert "_operators" not in repr(enc)


@pytest.mark.parametrize("kind", sorted(COPIES))
def test_copies_rebuild_read_only_with_a_store_of_their_own(kind):
    rng = np.random.default_rng(79)
    for enc in ENCODERS.values():
        enc = copy.copy(enc)
        z, p = rng.standard_normal(enc.dim), rng.uniform(-2.0, 2.0, enc.axes)
        enc.encode(z, p)
        dup = COPIES[kind](enc)
        assert dup._operators == {} and len(enc._operators) == 1
        dup.encode(z, p)
        assert dup._operators is not enc._operators and len(enc._operators) == 1
        if enc.reduction is not None and enc.reduction.rows is not None:
            assert not dup.reduction.rows.flags.writeable


def test_threads_sharing_an_encoder_get_the_unstored_bits():
    # misses race on the store, and every stored operator is its own
    # position's
    rng = np.random.default_rng(78)
    for name in ("mixed", "spherical", "liere-commuting", "liere-random"):
        enc = copy.copy(ENCODERS[name])
        pool = rng.uniform(-3.0, 3.0, (12, enc.axes))
        encode_in_threads(enc, rng.standard_normal(enc.dim), pool)
        for key, op in enc._operators.items():
            assert op.tobytes() == E._operator(enc, np.frombuffer(key)).tobytes()


# ---------------------------------------------------------------------------
# the one-position route: the entry test and the product fixed on construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_the_entry_test_takes_only_what_inputs_returns_unchanged(name, monkeypatch):
    # an input that skips _inputs is one _inputs returns as the same objects;
    # every kind that needs converting, checking or is a batch of positions
    # goes through _inputs
    enc = copy.copy(ENCODERS[name])
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
    for kind, (z, pos, _, _) in input_kinds(enc).items():
        converted.clear()
        try:
            enc.encode(z, pos)
        except ValueError:
            pass
        # a float64 C-order token batch at one position is canonical as it is
        assert len(converted) == (kind != "token batch at one position"), kind


def test_the_one_position_product_is_fixed_by_the_encoder_and_rebuilt_by_a_copy():
    rng = np.random.default_rng(91)
    encoders = dict(ENCODERS, **{"liere-commuting-17": E.make_encoder(
        "liere", generators=V.commuting_generators(17, rng))})
    for name, enc in encoders.items():
        r = enc.reduction
        if enc.table is not None:
            assert enc._product is E.SCHEMES[enc.scheme].rotate, name
        elif r is None or r.rows is not None:
            assert enc._product is E._matrix_turn, name
        else:
            assert enc._product.func is E._encode_liere and enc._product.args == (r,), name
        for dup in (copy_of(enc) for copy_of in COPIES.values()):
            assert dup == enc and hash(dup) == hash(enc) and "_product" not in repr(dup)
            if isinstance(enc._product, functools.partial):
                assert dup._product.func is enc._product.func and dup._product.args[0] is dup.reduction
            else:
                assert dup._product is enc._product
        if enc.table is not None:
            assert "_product" not in E.encoder_to_config(enc)


# ---------------------------------------------------------------------------
# a reduced liere encoder's one-position rotation matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", LIERE_ENCODERS)
def test_a_stored_liere_operator_is_its_read_only_rotation_matrix(name):
    enc = copy.copy(ENCODERS[name])
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


@pytest.mark.parametrize("name", LIERE_ENCODERS)
def test_a_stored_liere_hit_builds_no_phasors_and_no_pair_turn(name, monkeypatch):
    enc = copy.copy(ENCODERS[name])
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
    # batch by its phasors; above it one position keeps the phasors
    rng = np.random.default_rng(81 + dim)
    enc = E.make_encoder("liere", generators=commuting_family(dim, 2, rng))
    for zi, pi in zip(rng.standard_normal((20, dim)), rng.uniform(-np.pi, np.pi, (20, 2))):
        enc.encode(zi, pi)
    matrix = dim <= E._MATRIX_MAX_DIM
    assert all((op.dtype == np.float64) == matrix for op in enc._operators.values())
    assert all(op.shape == ((dim, dim) if matrix else (dim // 2,)) for op in enc._operators.values())


def test_liere_encoder_arrays_are_read_only():
    rows = E.make_encoder("liere", generators=commuting_family(6, 2, np.random.default_rng(77))).reduction.rows
    with pytest.raises(ValueError, match="read-only"):
        rows[...] *= 2


# ---------------------------------------------------------------------------
# _turn: the route of a batch of positions and of the rasters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_pattern_encodes_width_plus_height_tokens(name, monkeypatch):
    # a table scheme factors each pixel into a row and a column turn, made
    # as one turn of the stacked rows and columns, of the whole table or of
    # one block, and so does a commuting liere encoder's combined raster;
    # its block rasters, and every raster of non-commuting liere, encode
    # the query at every pixel and the key once, at one position, through
    # the product the encoder fixed
    enc = copy.copy(ENCODERS[name])
    turn, product, tokens = E._turn, enc._product, []

    def counted(enc, z, p, *block):
        tokens.append(int(np.prod(np.broadcast_shapes(np.shape(z)[:-1], np.shape(p)[:-1]))))
        return turn(enc, z, p, *block)

    def counted_product(z, op):
        tokens.append(int(np.prod(np.shape(z)[:-1])))
        return product(z, op)

    monkeypatch.setattr(E, "_turn", counted)
    monkeypatch.setitem(vars(enc), "_product", counted_product)
    rng = np.random.default_rng(16)
    zq, zk = rng.standard_normal(enc.dim), rng.standard_normal(enc.dim)
    for block in (None, 0):
        tokens.clear()
        A.render_pattern(enc, zq, zk, 7, 5, block)
        factored = enc.table is not None or enc.reduction is not None and block is None
        assert tokens == ([7 + 5] if factored else [7 * 5, 1])


@pytest.mark.parametrize("scheme", TABLE_SCHEMES)
def test_block_raster_turns_a_stack_of_its_table_block_alone(scheme, monkeypatch):
    # the W + H stack holds the pattern block's table block only, made here
    # at its final shape, so no input check runs a second time
    enc = ENCODERS[scheme]
    turn, inputs, calls = E._turn, E._inputs, []

    def spy_turn(enc, z, p, *block):
        calls.append((np.shape(z), np.shape(p), block))
        return turn(enc, z, p, *block)

    def spy_inputs(*args):
        calls.append("_inputs")
        return inputs(*args)

    monkeypatch.setattr(E, "_turn", spy_turn)
    monkeypatch.setattr(E, "_inputs", spy_inputs)
    size = E.SCHEMES[scheme].block
    for b in range(enc.pattern_blocks):
        calls.clear()
        A.render_pattern(enc, np.ones(enc.dim), np.ones(enc.dim), 7, 5, b)
        assert calls == [((5 + 7, size), (5 + 7, enc.axes), (enc.pattern_slice(b).start // size,))]
