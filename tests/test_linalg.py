"""Unit tests for skew-matrix utilities: brackets, canonical form, exponentials."""

import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ropekit import linalg

RECON_RTOL = 1e-9
ORTHO_TOL = 1e-9
EIG_AGREE_TOL = 1e-8
EPS = np.finfo(float).eps
# matrix_exp against matrix_exp_series, and its orthogonality defect, in units
# of eps * n * max(1, ||a||_2); the earlier Hermitian-eigh route met it too
EXP_UNITS = 8.0

# so(3) generators: yaw rotates the (1,2)-plane, roll the (2,3)-plane
G_YAW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
G_ROLL = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def random_skew(n, rng):
    t = np.triu(rng.standard_normal((n, n)), k=1)
    return t - t.T


def block_diag(freqs, n):
    """n x n direct sum of [[0, -f], [f, 0]] blocks, zero-padded."""
    m = np.zeros((n, n))
    for d, f in enumerate(freqs):
        m[2 * d, 2 * d + 1], m[2 * d + 1, 2 * d] = -f, f
    return m


# ---------------------------------------------------------------------------
# construction and bracket
# ---------------------------------------------------------------------------


def test_as_skew_symmetrizes_exactly():
    a = np.array([[0.0, 1.0], [-1.0 + 5e-13, 0.0]])
    m = linalg.as_skew(a)
    assert np.array_equal(m, -m.T)


def test_as_skew_keeps_an_exactly_skew_input_bit_for_bit():
    # halving an odd subnormal rounds, so the half-difference of the stored
    # [[0, 3u], [-3u, 0]] would be 4u: an exactly skew input keeps its
    # nonzero entries, so antisymmetrising twice is antisymmetrising once
    u = np.nextafter(0.0, 1.0)
    m = linalg.as_skew(np.array([[0.0, 3 * u], [-2 * u, 0.0]]))
    assert m[0, 1] == 3 * u and m[1, 0] == -3 * u
    again = linalg.as_skew(m)
    assert again is not m and again.tobytes() == m.tobytes()
    # on normal values and signed zeros it is the half-difference bit for
    # bit: -G's diagonal is -0.0, and a zero pair keeps the sign of a - a.T
    g = random_skew(6, np.random.default_rng(82))
    zeros = np.array([[-0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]])
    for a in (g, -g, zeros, -zeros):
        assert np.array_equal(a.T, -a)
        assert linalg.as_skew(a).tobytes() == (0.5 * a - 0.5 * a.T).tobytes()


def test_as_skew_rejects_symmetric_part():
    with pytest.raises(ValueError):
        linalg.as_skew(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_as_skew_rejects_a_huge_symmetric_part():
    # a + a.T of finite entries overflows; the check must still say why
    with pytest.raises(ValueError, match="not skew-symmetric"):
        linalg.as_skew(1e308 * np.ones((2, 2)))


def test_as_skew_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.as_skew(np.zeros((2, 3)))


_NON_CONTIGUOUS = np.arange(48.0).reshape(6, 8)[::2, 1::3]
# name: (array, whether every entry is finite)
FINITE_CASES = {
    "nan": (np.array([1.0, np.nan, 2.0]), False),
    "inf": (np.array([[1.0, np.inf]]), False),
    "-inf": (np.array([-np.inf]), False),
    "huge": (np.array([1e200]), True),
    "huge-64x64": (np.full((64, 64), 1e160), True),
    "huge-and-nan": (np.array([1e200, np.nan]), False),
    "subnormal": (np.full(7, 5e-324), True),
    "empty": (np.empty((0, 3)), True),
    "zero-d": (np.array(2.5), True),
    "complex": (np.array([1.0 + 2.0j, -3.0j]), True),
    "complex-nan-imag": (np.array([1.0 + 2.0j, complex(0.0, np.nan)]), False),
    "complex-inf-real": (np.array([complex(np.inf, 0.0)]), False),
    "complex-huge": (np.full(3, 1e200 + 1e200j), True),
    "non-contiguous": (_NON_CONTIGUOUS, True),
    "non-contiguous-inf": (np.where(_NON_CONTIGUOUS == 17.0, np.inf, _NON_CONTIGUOUS)[:, ::-1], False),
    "transposed-huge": (np.full((5, 3), 1e300).T, True),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(FINITE_CASES))
def test_finite_is_isfinite_all(name):
    # a huge finite array overflows the sum of squares and must take the
    # elementwise fallback; no case may warn
    x, finite = FINITE_CASES[name]
    assert linalg._finite(x) == np.isfinite(x).all() == finite
    if name.startswith(("huge", "complex-huge", "transposed-huge")):
        assert not np.vdot(x, x).real < np.inf


def test_commutator_yaw_roll_is_pitch():
    expected = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    np.testing.assert_allclose(linalg.commutator(G_YAW, G_ROLL), expected, atol=0)
    assert np.linalg.norm(linalg.commutator(G_YAW, G_ROLL)) == pytest.approx(np.sqrt(2.0))


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.commutator(np.zeros((2, 2)), np.zeros((3, 3)))


def test_is_commuting_yaw_roll_false():
    assert not linalg.is_commuting(G_YAW, G_ROLL, rel_tol=1e-9)


def test_is_commuting_zero_matrix_true():
    assert linalg.is_commuting(np.zeros((3, 3)), G_ROLL)
    assert linalg.is_commuting(G_YAW, np.zeros((3, 3)))


def test_is_commuting_block_diagonal_pair():
    a = np.zeros((4, 4))
    b = np.zeros((4, 4))
    a[0, 1], a[1, 0] = -1.3, 1.3
    a[2, 3], a[3, 2] = -0.4, 0.4
    b[0, 1], b[1, 0] = 2.0, -2.0
    b[2, 3], b[3, 2] = -0.9, 0.9
    assert linalg.is_commuting(a, b)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonical_form_single_rotation_block():
    omega = 0.7
    a = np.array([[0.0, -omega], [omega, 0.0]])
    cf = linalg.canonical_form(a)
    np.testing.assert_allclose(cf.frequencies, [omega], rtol=1e-12)
    assert cf.zero_modes == 0
    np.testing.assert_allclose(cf.basis @ cf.basis.T, np.eye(2), atol=ORTHO_TOL)
    np.testing.assert_allclose(cf.reconstruct(), a, atol=1e-12)
    # gauge freedom: columns are signed permutations of the standard basis here
    np.testing.assert_allclose(np.abs(cf.basis) @ np.abs(cf.basis.T), np.eye(2), atol=1e-9)


def test_canonical_form_yaw_generator():
    cf = linalg.canonical_form(G_YAW)
    np.testing.assert_allclose(cf.frequencies, [1.0], rtol=1e-12)
    assert cf.zero_modes == 1
    np.testing.assert_allclose(cf.reconstruct(), G_YAW, atol=1e-12)


def test_canonical_form_zero_matrix():
    cf = linalg.canonical_form(np.zeros((4, 4)))
    np.testing.assert_allclose(cf.frequencies, [0.0, 0.0])
    assert cf.zero_modes == 4
    np.testing.assert_allclose(cf.basis @ cf.basis.T, np.eye(4), atol=1e-12)


def test_canonical_form_frequencies_sorted_descending():
    rng = np.random.default_rng(11)
    for n in (2, 5, 8, 13, 16):
        a = random_skew(n, rng)
        cf = linalg.canonical_form(a)
        assert cf.frequencies.shape == (n // 2,)
        assert np.all(np.diff(cf.frequencies) <= 1e-12)
        assert np.all(cf.frequencies >= 0.0)
        assert cf.zero_modes == n - 2 * np.sum(cf.frequencies > 1e-10 * max(1.0, np.linalg.norm(a)))


def test_canonical_form_reconstruction_random():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 7, 10, 16):
        a = random_skew(n, rng)
        cf = linalg.canonical_form(a)
        np.testing.assert_allclose(cf.basis.T @ cf.basis, np.eye(n), atol=ORTHO_TOL)
        err = np.linalg.norm(cf.reconstruct() - a) / np.linalg.norm(a)
        assert err <= RECON_RTOL


def test_canonical_form_repeated_frequency():
    # two blocks sharing one frequency: a degenerate eigenspace of -A @ A
    base = np.zeros((4, 4))
    base[0, 1], base[1, 0] = -0.9, 0.9
    base[2, 3], base[3, 2] = -0.9, 0.9
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = q @ base @ q.T
    cf = linalg.canonical_form(linalg.as_skew(a))
    np.testing.assert_allclose(cf.frequencies, [0.9, 0.9], rtol=1e-9)
    err = np.linalg.norm(cf.reconstruct() - linalg.as_skew(a)) / np.linalg.norm(a)
    assert err <= RECON_RTOL


def test_canonical_frequencies_match_complex_eigensolver():
    # independent oracle: iA is Hermitian, its positive eigenvalues are the frequencies
    rng = np.random.default_rng(19)
    for n in (2, 4, 6, 9, 16):
        a = random_skew(n, rng)
        cf = linalg.canonical_form(a)
        herm = np.linalg.eigvalsh(1j * a)
        oracle = np.sort(herm)[::-1][: n // 2]
        np.testing.assert_allclose(cf.frequencies, oracle, atol=EIG_AGREE_TOL)


def test_canonical_pairs_are_oriented_planes():
    # each pair (u, v) of the eigh route spans an invariant plane with
    # A u = lam v and A v = -lam u, i.e. block [[0, -lam], [lam, 0]]
    rng = np.random.default_rng(23)
    for n in (2, 5, 9):
        a = random_skew(n, rng)
        cf = linalg.canonical_form(a)
        for d, lam in enumerate(cf.frequencies):
            u, v = cf.basis[:, 2 * d], cf.basis[:, 2 * d + 1]
            np.testing.assert_allclose(a @ u, lam * v, atol=1e-12)
            np.testing.assert_allclose(a @ v, -lam * u, atol=1e-12)


def test_non_finite_generators_rejected():
    for bad in (np.nan, np.inf):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        a[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.as_skew(a)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.canonical_form(a)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.matrix_exp(a)


def test_joint_canonical_form_three_commuting_generators():
    rng = np.random.default_rng(31)
    n = 7
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    planted = rng.standard_normal((n // 2, 3))
    gens = [linalg.as_skew(q @ block_diag(planted[:, m], n) @ q.T, atol=1e-9) for m in range(3)]
    basis, freqs = linalg.joint_canonical_form(gens)
    assert freqs.shape == (n // 2, 3)
    np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
    for m, g in enumerate(gens):
        np.testing.assert_allclose(basis.T @ g @ basis, block_diag(freqs[:, m], n), atol=1e-12)
    # planes oriented so the first generator's frequencies are non-negative
    assert np.all(freqs[:, 0] >= 0.0)
    want = planted * np.sign(planted[:, :1])
    np.testing.assert_allclose(freqs, want[np.argsort(-want[:, 0])], atol=1e-12)


def test_joint_canonical_form_rejects_non_commuting():
    with pytest.raises(ValueError, match="do not commute"):
        linalg.joint_canonical_form([G_YAW, G_ROLL])


def test_joint_canonical_form_refusals_carry_their_numbers():
    # a commuting pair and a third generator that commutes with neither:
    # the message names the worst relative commutator and COMMUTE_RTOL
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    pair = [linalg.as_skew(q @ block_diag(rng.standard_normal(3), 6) @ q.T, atol=1e-9) for _ in range(2)]
    gens = pair + [random_skew(6, rng)]
    with pytest.raises(ValueError, match="do not commute") as info:
        linalg.joint_canonical_form(gens)
    worst, rtol = map(float, re.search(r"commutator (\S+) > COMMUTE_RTOL (\S+)$", str(info.value)).groups())
    want = max(np.linalg.norm(linalg.commutator(g, gens[2])) / (np.linalg.norm(g) * np.linalg.norm(gens[2]))
               for g in pair)
    assert worst == pytest.approx(want, rel=1e-3) and rtol == linalg.COMMUTE_RTOL < worst
    # a structure bound below rounding: the smallest off-block residual over
    # the generic combinations, at roundoff, against struct_rtol * scale
    with pytest.raises(RuntimeError, match="no generic combination") as info:
        linalg.joint_canonical_form(pair, 1e-30)
    residual, bound = map(float, re.search(r"residual (\S+) > struct_rtol \* scale = (\S+)$",
                                           str(info.value)).groups())
    scale = max(1.0, *(np.linalg.norm(g) for g in pair))
    assert bound == pytest.approx(1e-30 * scale, rel=1e-3) and bound < residual <= 1e-12 * scale


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def test_matrix_exp_quarter_turn():
    a = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]])
    np.testing.assert_allclose(linalg.matrix_exp(a), [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_matrix_exp_zero_is_identity():
    np.testing.assert_allclose(linalg.matrix_exp(np.zeros((3, 3))), np.eye(3), atol=0)
    np.testing.assert_allclose(linalg.matrix_exp_series(np.zeros((3, 3))), np.eye(3), atol=0)


def test_matrix_exp_orthogonal_special():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 11):
        r = linalg.matrix_exp(random_skew(n, rng))
        np.testing.assert_allclose(r.T @ r, np.eye(n), atol=ORTHO_TOL)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_exp_skew_takes_a_stack():
    rng = np.random.default_rng(29)
    stack = np.stack([random_skew(5, rng) for _ in range(6)]).reshape(2, 3, 5, 5)
    out = linalg._exp_skew(stack)
    assert out.shape == stack.shape
    for i in np.ndindex(2, 3):
        np.testing.assert_array_equal(out[i], linalg.matrix_exp(stack[i]))
    assert linalg._exp_skew(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_block_diag_skew_is_the_canonical_block_matrix():
    form = linalg.canonical_form(block_diag([1.5, 0.25], 5))
    np.testing.assert_array_equal(form.block_matrix(), linalg.block_diag_skew(form.frequencies, 5))
    np.testing.assert_array_equal(linalg.block_diag_skew([1.5, 0.25], 5), block_diag([1.5, 0.25], 5))
    with pytest.raises(ValueError):
        linalg.block_diag_skew([1.0, 2.0], 3)


def assert_exp_accurate(a):
    """matrix_exp(a) within EXP_UNITS * eps * n * max(1, ||a||_2) of the
    series route, entrywise, and as far from orthogonal at most."""
    n = a.shape[0]
    bound = EXP_UNITS * EPS * n * max(1.0, np.linalg.norm(a, 2))
    r = linalg.matrix_exp(a)
    assert np.max(np.abs(r - linalg.matrix_exp_series(a))) <= bound
    assert np.max(np.abs(r.T @ r - np.eye(n))) <= bound


@seed(2031)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 7, 8, 16]),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matrix_exp_routes_agree(n, log_norm, rs):
    a = random_skew(n, np.random.default_rng(rs))
    assert_exp_accurate(a * (10.0 ** log_norm / np.linalg.norm(a, 2)))


def test_matrix_exp_repeated_frequency_matches_series():
    # a repeated frequency makes the Hermitian eigenspace degenerate, so the
    # eigenvectors within it are arbitrary; the exponential must not care
    rng = np.random.default_rng(37)
    for n, freqs in ((4, [0.9, 0.9]), (7, [1.3, 1.3, 0.4]), (8, [2.1, 2.1, 2.1, 0.0])):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = linalg.as_skew(q @ block_diag(freqs, n) @ q.T, atol=1e-9)
        diff = linalg.matrix_exp(a) - linalg.matrix_exp_series(a)
        assert np.max(np.abs(diff)) <= 1e-12
    # zero modes, odd dimensions and repeated frequencies from 1e-3 to 1e3
    for n, freqs in ((3, [0.0]), (3, [1.0]), (7, [0.6, 0.0, 0.0]), (7, [1.0, 1.0, 1.0]),
                     (8, [1.0, 1.0, 0.0, 0.0]), (16, [1.0] * 4 + [0.25] * 2 + [0.0] * 2)):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for scale in (1e-3, 1.0, 1e3):
            assert_exp_accurate(linalg.as_skew(q @ block_diag(scale * np.array(freqs), n) @ q.T,
                                               atol=1e-9))


def test_matrix_exp_stays_orthogonal_at_large_norms():
    # a generic generator's computed singular values miss their exact pairs
    # by about eps * ||a||; the exponential keeps orthogonality to eps anyway.
    # At 1e308 the 2x2 case has entries of 1e308, where a - a.T overflows.
    rng = np.random.default_rng(41)
    for n in (2, 3, 7, 8, 16):
        g = random_skew(n, rng)
        g /= np.linalg.norm(g, 2)
        for scale in (1e6, 1e10, 1e14, 1e308):
            r = linalg.matrix_exp(scale * g)
            assert np.all(np.isfinite(r))
            assert np.max(np.abs(r.T @ r - np.eye(n))) <= EXP_UNITS * EPS * n


def test_matrix_exp_series_rejects_an_overflowing_norm():
    # squares of entries near 1e154 overflow, and so would log2 of the norm
    with pytest.raises(ValueError, match="norm"):
        linalg.matrix_exp_series(1e154 * np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_matrix_exp_rejects_an_overflowing_two_norm():
    # finite entries up to 1e308 whose 2-norm overflows: the SVD returns an
    # infinite singular value, and cos(inf) would be NaN
    rng = np.random.default_rng(43)
    g = random_skew(7, rng)
    g /= np.max(np.abs(g))
    assert np.all(np.isfinite(linalg.matrix_exp(1e300 * g)))
    with pytest.raises(ValueError, match="2-norm"):
        linalg.matrix_exp(1e308 * g)


def test_matrix_exp_against_scipy():
    import scipy.linalg

    rng = np.random.default_rng(29)
    a = random_skew(8, rng)
    np.testing.assert_allclose(linalg.matrix_exp(a), scipy.linalg.expm(a), atol=1e-10)


def test_matrix_exp_group_property_commuting():
    a = np.zeros((4, 4))
    b = np.zeros((4, 4))
    a[0, 1], a[1, 0] = -1.1, 1.1
    a[2, 3], a[3, 2] = -0.2, 0.2
    b[0, 1], b[1, 0] = 0.6, -0.6
    b[2, 3], b[3, 2] = -1.7, 1.7
    lhs = linalg.matrix_exp(a) @ linalg.matrix_exp(b)
    rhs = linalg.matrix_exp(a + b)
    assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_matrix_exp_group_property_fails_non_commuting():
    lhs = linalg.matrix_exp(G_YAW) @ linalg.matrix_exp(G_ROLL)
    rhs = linalg.matrix_exp(G_YAW + G_ROLL)
    assert np.linalg.norm(lhs - rhs) > 1e-3


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite_entries = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@seed(2024)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_bracket_closure(n, rs):
    rng = np.random.default_rng(rs)
    c = linalg.commutator(random_skew(n, rng), random_skew(n, rng))
    assert np.array_equal(c, -c.T)


@seed(2025)
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_exp_preserves_norms(n, rs):
    rng = np.random.default_rng(rs)
    r = linalg.matrix_exp(random_skew(n, rng))
    z = rng.standard_normal(n)
    assert abs(np.linalg.norm(r @ z) - np.linalg.norm(z)) <= 1e-10 * max(1.0, np.linalg.norm(z))


@seed(2026)
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_canonical_reconstruction(n, rs):
    rng = np.random.default_rng(rs)
    a = random_skew(n, rng)
    cf = linalg.canonical_form(a)
    assert np.linalg.norm(cf.reconstruct() - a) <= RECON_RTOL * max(1.0, np.linalg.norm(a))


@st.composite
def structured_skew(draw):
    """Rotated block-diagonal skew matrices with repeated, clustered, tiny and
    zero frequencies, as (matrix, kernel dimension)."""
    n = draw(st.integers(min_value=2, max_value=9))
    k = n // 2
    levels = draw(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(levels + [1e-7, 0.0]), min_size=k, max_size=k))
    nudges = draw(st.lists(st.sampled_from([0.0, 1e-9, 1e-6]), min_size=k, max_size=k))
    freqs = [f + e if f else 0.0 for f, e in zip(picks, nudges)]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ block_diag(freqs, n) @ q.T
    return 0.5 * (a - a.T), n - 2 * sum(1 for f in freqs if f)


@seed(2028)
@settings(max_examples=60, deadline=None)
@given(structured_skew())
def test_property_canonical_form_structured(case):
    a, kernel_dim = case
    n = a.shape[0]
    cf = linalg.canonical_form(a)
    assert np.linalg.norm(cf.reconstruct() - a) <= RECON_RTOL * max(1.0, np.linalg.norm(a))
    assert np.max(np.abs(cf.basis.T @ cf.basis - np.eye(n))) <= 1e-12
    assert cf.zero_modes == kernel_dim
    oracle = np.sort(np.linalg.eigvalsh(1j * a))[::-1][: n // 2]
    assert np.max(np.abs(cf.frequencies - oracle)) <= EIG_AGREE_TOL


@seed(2032)
@settings(max_examples=60, deadline=None)
@given(structured_skew(), st.floats(min_value=-3.0, max_value=3.0))
def test_property_matrix_exp_structured(case, log_scale):
    assert_exp_accurate(case[0] * 10.0 ** log_scale)
