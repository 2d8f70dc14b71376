"""Rotary position encodings over 1-D and 2-D positions.

All variants share one shape: split the token vector into small blocks, rotate
each block by an angle (or Euler-angle pair) that is linear in the position,
leave norms untouched.  The variants differ only in how blocks pair up with
axes:

* ``rope1d``      - pairs, angle ``w_d * p`` (scalar positions)
* ``trivial2d``   - pairs, angle ``w_d * (p_x + p_y)`` (degenerate on anti-diagonals)
* ``axial``       - quadruples: an x-pair rotated by ``w_dx * p_x`` and a
                    y-pair rotated by ``w_dy * p_y``
* ``mixed``       - pairs, angle ``w_dx * p_x + w_dy * p_y``
* ``spherical``   - triples, yaw(``w_dx * p_x``) o roll(``w_dy * p_y``); the two
                    rotations do not commute
* ``uniform``     - axial with one shared frequency (default 1)
* ``liere``       - whole vector, ``exp(sum_m A_m p_m) @ z`` for learned skew
                    generators ``A_m``; encoders of commuting generators
                    apply it as pair rotations in one precomputed basis

A table scheme is Mixed RoPE on a pair table with some entries zero and turns
by that table's pair form, angle terms ``(index, freqs)`` with angle ``j =
sum_t p[..., index_t][j] * freqs_t[j]``, added in order.  The form belongs to
the ``FrequencyTable``, built once by its constructor, and its layout follows
from the scheme's block width: a two-coordinate block is one plane turned by
the sum over the axes, a term per column, ``index = slice(m, m + 1)``
(rope1d, mixed); a wider block holds one plane per axis, one term ``index =
[0, 1, 0, 1, ...]`` over ``freqs.ravel()`` (an axial quadruple's x- and
y-pair, a spherical triple's yaw and roll).  trivial2d, Mixed RoPE with each
row's two frequencies tied, reads rope1d's table: ``_fold`` takes its
coordinate sum ``p_x + p_y`` where positions enter the table route, so it
turns and differentiates as rope1d at that sum.  A turn is the pair ``a +
ib`` times the unit phasor ``exp(1j * theta)``; a spherical triple is two,
made in place on one copy of the tokens.
``SCHEMES``, the one registry, holds each scheme's block width and rotation;
an encode turns by the table's form (a block raster, which stacks only its
table block's coordinates, by that block's form, which the table builds on
its first block raster; a reduced liere encoder by its joint table's, kept
in its ``reduction``), and the free functions and ``grad_frequencies`` read
their table's, so none of them builds an ``Encoder``.  ``Encoder`` itself
holds every construction rule and default, and ``make_encoder`` forwards
to it.  Encoders take tokens (..., dim) at positions (..., axes), the
leading shapes broadcasting; ``grad_frequencies`` takes the same shapes and
differentiates the same products.  A turn depends on the position alone,
never on the token, so it applies a position operator built by
``_operator``: the phasors, or for liere one position's ``n x n`` rotation
matrix on either route (a reduced encoder's ``basis @ R @ basis.T``, from
its phasors with no exponential, up to dim ``_MATRIX_MAX_DIM``; a batch of
positions, or a larger dim, keeps the phasors there, and a batch agrees
with its single-position matrix encodes to rounding, not bit for bit).
``Encoder.encode`` is the one reader of the operator store: an encoder
keeps the operator of each distinct single position it encodes, read-only,
within ``_STORE_BYTES`` (2 MiB) per encoder, and builds it again on every
call once that budget is full.  A one-position encode, of every scheme, is
one entry test (float64 C-order ndarray tokens at a float64 ndarray
position of shape ``(axes,)`` skip ``_inputs``, which converts and checks
every other input), one store lookup, the product the encoder fixed on
construction (the registry's ``rotate``, liere's ``ndarray.dot`` with its
matrix, or a reduced encoder's phasor turn above ``_MATRIX_MAX_DIM``) and
one finiteness test of the output.  A batch of positions, and a block
raster, go through ``_turn``, which builds the operator on every call and
stores nothing.  The finiteness test ends every encode, the free
functions' too: a NaN or inf token or position, or an angle that
overflows, raises ValueError.
``spherical``, the triple route's reference, keeps the paper's definition:
per triple, the ordered product of two so(3) generator exponentials taken
by ``linalg``, no phasors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from . import linalg

DEFAULT_BASE = 100.0

# A liere encoder of commuting generators encodes through their joint
# canonical form only when the off-block entries that form drops are at
# roundoff level (relative to the generator norms, like as_skew's bound on
# the symmetric part it drops), so it agrees with the per-position
# exponential to roundoff; the theorem-reduction checks accept looser forms.
_REDUCED_STRUCT_RTOL = 1e-12

# The bytes of operators and keys that one encoder keeps, one operator per
# distinct single position it has encoded: 2 MiB holds a 32 x 32 lattice of
# dim-96 table phasors, or 1016 liere rotation matrices at n = 16 (15 at
# n = 128).  A full store takes no more; positions past it are built on
# every call.
_STORE_BYTES = 2 << 20

# The largest dim at which a reduced liere encoder's single-position
# operator is its n x n rotation matrix rather than its phasors.  The matrix
# makes a repeated position one matrix-vector product but costs an n x n
# product to build and 8 n^2 bytes to keep, so it pays only where positions
# repeat and the store holds them.  On one x86 core (one BLAS thread) a
# first encode cost 14.1 -> 15.9 us at n = 16 and 15.8 -> 30.5 us at
# n = 48 against the phasors, and a repeat 6.7 -> 3.6 us at n = 16: there
# one repeat pays for the matrix and the store keeps 1016 of them; at
# n = 48 it takes four repeats and the store keeps 113.
_MATRIX_MAX_DIM = 16

# a dtype object views an array without converting a Python type first
_COMPLEX = np.dtype(complex)
# Encoder.encode's entry test reads these once per call: a module global
# skips the attribute lookup on ``linalg``
_FLOAT64, _NDARRAY = linalg._FLOAT64, linalg._NDARRAY


def frequency_schedule(blocks: int, base: float = DEFAULT_BASE) -> np.ndarray:
    """The geometric frequency ladder ``w_d = base ** (-2d / blocks)``.

    ``w_0`` is always 1; for a finite ``base > 1`` it is strictly decreasing.
    """
    blocks = linalg._integer("blocks", blocks, 1, what="an integer of at least 1")
    base = linalg._real_scalar(base, "base")
    if not 0.0 < base < np.inf:
        raise ValueError(f"base must be positive and finite, got {base}")
    d = np.arange(blocks, dtype=float)
    return base ** (-2.0 * d / blocks)


def _is_table_scheme(scheme) -> bool:
    """Whether ``scheme`` names a frequency-table layout of its own."""
    return isinstance(scheme, str) and scheme in SCHEMES and SCHEMES[scheme].table == scheme


@dataclass(frozen=True, eq=False)
class FrequencyTable(linalg._Record):
    """Per-block, per-axis rotation frequencies in radians per unit position.

    ``freqs`` has shape (blocks, axes).  The scheme tag records which encoder
    family the table is meant for; the uniform scheme additionally requires a
    single shared value.  The constructor derives ``pairs``, the table's
    Mixed RoPE pair form, which every encode of the table turns by;
    ``block_pairs``, one form per table block, is built on first use.
    ``freqs`` is a read-only copy.  A value under ``linalg._Record``'s rule,
    by its scheme and ``freqs``: neither pair form enters equality, hashing
    or the repr.
    """

    scheme: str
    freqs: np.ndarray
    pairs: tuple = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if not _is_table_scheme(self.scheme):
            raise ValueError(f"unknown frequency-table scheme {self.scheme!r}")
        f = linalg._as_real(self.freqs, "frequencies")
        axes = SCHEMES[self.scheme].axes
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != axes:
            raise ValueError(f"{self.scheme} freqs must be a (blocks, {axes}) array, got shape {f.shape}")
        if not linalg._finite(f):
            raise ValueError("frequencies must all be finite")
        if SCHEMES[self.scheme].shared and f.size and not np.all(f == f.flat[0]):
            raise ValueError("uniform tables must hold a single shared frequency")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "pairs", _pair_form(f, SCHEMES[self.scheme].block))

    @cached_property
    def block_pairs(self) -> tuple:
        """One pair form per table block, for the block rasters: built on
        the first one, then kept."""
        return tuple(_pair_form(row, SCHEMES[self.scheme].block) for row in self.freqs[:, None])

    @property
    def blocks(self) -> int:
        return self.freqs.shape[0]

    @property
    def axes(self) -> int:
        return self.freqs.shape[1]

    @classmethod
    def fixed(cls, scheme: str, dim: int, base: float = DEFAULT_BASE,
              uniform_freq: float = 1.0) -> "FrequencyTable":
        """Default (non-learned) table for ``scheme`` at token dimension ``dim``.

        The 2-D schemes share one schedule across both axes; uniform uses the
        single value ``uniform_freq`` everywhere.
        """
        if not _is_table_scheme(scheme):
            raise ValueError(f"unknown frequency-table scheme {scheme!r}")
        block, axes = SCHEMES[scheme].block, SCHEMES[scheme].axes
        dim = linalg._integer("dim", dim)
        if dim < block or dim % block != 0:
            raise ValueError(f"{scheme} needs dim divisible by {block}, got {dim}")
        blocks = dim // block
        if SCHEMES[scheme].shared:
            f = np.full((blocks, 2), linalg._real_scalar(uniform_freq, "uniform_freq"))
        else:
            sched = frequency_schedule(blocks, base)
            f = sched[:, None] if axes == 1 else np.column_stack([sched, sched])
        return cls(scheme, f)


# ---------------------------------------------------------------------------
# encoding operations
# ---------------------------------------------------------------------------


def _inputs(z, p, dim: int, axes: int):
    """``z`` as a C-contiguous (..., dim) and ``p`` as a (..., axes) float
    array (``linalg._as_real``); a scalar position stands for one coordinate.
    The one definition of an encode's conversion and its errors:
    ``Encoder.encode`` skips it only for inputs it returns unchanged."""
    z = linalg._as_real(z, "token vectors", order="C")
    p = linalg._as_real(p, "positions")
    if p.ndim == 0:
        p = p.reshape(1)
    if z.ndim == 0 or z.shape[-1] != dim:
        raise ValueError(f"token vector shape {z.shape} does not end in length {dim}")
    if p.shape[-1] != axes:
        raise ValueError(f"expected positions with {axes} coordinate(s), got shape {p.shape}")
    return z, p


def _check_finite(scheme: str, out: np.ndarray, what: str = "encoding") -> np.ndarray:
    """``out``, an encoding of ``scheme`` (or another ``what``), once
    ``linalg._finite`` holds: a non-finite token, a non-finite position or
    an angle that overflows makes some entry NaN or infinite, and raises
    ValueError here."""
    if not linalg._finite(out):
        raise ValueError(f"{scheme} {what} must be finite: non-finite token, position or angle")
    return out


def _check_table(scheme: str, table: FrequencyTable) -> None:
    """Reject a table of another layout; an axial encoder also reads a
    uniform table, an axial table of one shared frequency."""
    layout = SCHEMES[scheme].table
    if table is None or table.scheme not in (layout, "uniform" if layout == "axial" else layout):
        raise ValueError(f"{scheme} reads {layout!r} tables, got {getattr(table, 'scheme', None)!r}")


def _pair_form(freqs: np.ndarray, block: int) -> tuple:
    """The Mixed RoPE pair form of ``freqs`` (blocks, axes) for blocks of
    ``block`` coordinates.  A two-coordinate block is one plane, turned by
    the sum over the axes: pair ``j`` by ``sum_m p_m * freqs[j, m]``, a term
    per column.  A wider block (an axial quadruple, a spherical triple)
    holds one plane per axis: angle ``axes * j + m`` by ``p_m * freqs[j,
    m]``, one term."""
    if block == 2:
        return tuple((slice(m, m + 1), freqs[:, m]) for m in range(freqs.shape[1]))
    index = np.arange(freqs.size) % freqs.shape[1]
    index.flags.writeable = False
    return ((index, freqs.ravel()),)


def _angles(pairs: tuple, p: np.ndarray) -> np.ndarray:
    """Angle ``j = sum_t p[..., index_t][j] * freqs_t[j]`` of the pair form
    ``pairs``, the terms added in order, each step elementwise, so an angle
    does not depend on its batch.  A batch's gather of an index array comes
    out index-major, which the phasors read slower than one copy to C order."""
    (index, f), *rest = pairs
    a = p[..., index] * f
    for index, f in rest:
        a += p[..., index] * f
    return np.ascontiguousarray(a)


def _phasors(angles: np.ndarray) -> np.ndarray:
    """``exp(1j * angles)`` as ``cos + 1j * sin``.  numpy's complex ``exp``
    also takes ``exp`` of the zero real part, a third transcendental per
    element that on rasters of a few thousand pairs costs more than the
    complex product saves."""
    e = np.empty(angles.shape, complex)
    np.cos(angles, out=e.real)
    np.sin(angles, out=e.imag)
    return e


def _rotate_pairs(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Rotate consecutive coordinate pairs of ``z`` (..., 2k) by the unit
    phasors ``e`` (..., k): pair ``a + ib`` times ``e``.  The last axis of
    ``z`` must be contiguous."""
    # ``e`` is a named operand: numpy may reuse a large temporary as the
    # output and swap the operands, and the fused complex product is not
    # commutative
    return (z.view(_COMPLEX) * e).view(linalg._FLOAT64)


def _rotate_triples(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per triple ``(x0, x1, x2)`` of ``z``: roll the ``(x1, x2)`` plane by
    the phasor ``e[..., 2d + 1]``, then yaw the ``(x0, x1)`` plane by
    ``e[..., 2d]``, each one complex product in place on one copy of ``z``
    at the broadcast leading shape (``z``'s own at one position, or when
    the two leading shapes are equal, as in a raster's stack)."""
    if e.ndim == 1 or e.shape[:-1] == z.shape[:-1]:
        out = z.copy()
    else:
        out = np.empty(np.broadcast_shapes(z.shape[:-1], e.shape[:-1]) + z.shape[-1:])
        out[...] = z
    t = out.reshape(out.shape[:-1] + (z.shape[-1] // 3, 3))
    roll = t[..., 1:].view(_COMPLEX)[..., 0]
    roll *= e[..., 1::2]
    yaw = t[..., :2].view(_COMPLEX)[..., 0]
    yaw *= e[..., 0::2]
    return out


def _fold(scheme: str, p: np.ndarray) -> np.ndarray:
    """Checked positions ``p`` of ``scheme`` as its table layout reads them:
    a scheme with more axes than its layout (trivial2d on rope1d's table)
    reads the coordinate sum ``p_x + p_y``, one rounding."""
    return p[..., :1] + p[..., 1:] if SCHEMES[scheme].axes > SCHEMES[SCHEMES[scheme].table].axes else p


def _table_inputs(scheme: str, table: FrequencyTable, z, p):
    """``table``'s layout, then ``z`` and ``p`` against the dim and axes it
    fixes for ``scheme`` (what building the encoder would check), ``p``
    folded onto the layout's axes."""
    _check_table(scheme, table)
    spec = SCHEMES[scheme]
    z, p = _inputs(z, p, spec.block * table.blocks, spec.axes)
    return z, _fold(scheme, p)


def _table_encode(scheme: str, z, p, table: FrequencyTable) -> np.ndarray:
    """``table`` turned by ``scheme``'s rotation, as its encoder turns it."""
    z, p = _table_inputs(scheme, table, z, p)
    return _check_finite(scheme, SCHEMES[scheme].rotate(z, _phasors(_angles(table.pairs, p))))


def rope1d(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate pair ``d`` of ``z`` by ``table.freqs[d, 0] * p``."""
    return _table_encode("rope1d", z, p, table)


def trivial2d(z, p, table: FrequencyTable) -> np.ndarray:
    """2-D positions collapsed onto their coordinate sum, then rope1d on
    ``table``, a rope1d table: ``rope1d(z, p_x + p_y, table)`` bit for bit.

    Any displacement along an anti-diagonal (t, -t) leaves the output unchanged,
    which is why this construction carries no genuinely 2-D information.
    """
    return _table_encode("trivial2d", z, p, table)


def axial(z, p, table: FrequencyTable) -> np.ndarray:
    """Per quadruple: rotate the leading pair by ``w_dx * p_x`` and the
    trailing pair by ``w_dy * p_y``."""
    return _table_encode("axial", z, p, table)


def mixed(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate pair ``d`` by the mixed angle ``w_dx * p_x + w_dy * p_y``."""
    return _table_encode("mixed", z, p, table)


def uniform(z, p, freq: float = 1.0) -> np.ndarray:
    """Axial with the single shared frequency ``freq`` (exactly that code path)."""
    table = FrequencyTable.fixed("uniform", np.shape(z)[-1] if np.ndim(z) else 0, uniform_freq=freq)
    return _table_encode("uniform", z, p, table)


# a triple's so(3) generators: yaw turns its (x0, x1) plane, roll its (x1, x2) plane
_YAW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_ROLL = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def spherical(z, p, table: FrequencyTable) -> np.ndarray:
    """Turn triple ``d`` by ``exp(w_dx p_x YAW) @ exp(w_dy p_y ROLL)``.

    The roll acts first.  Yaw and roll do not commute, so this family is not
    shift-equivariant; it trades that away for a 3-D rotation group per triple.
    This route is the paper's definition, each factor one stacked
    ``linalg`` exponential of a scaled generator, and is the reference that
    ``check_fast_path`` holds ``spherical_fast``, the encoders' route, to.
    A non-finite angle raises ValueError before the exponentials: LAPACK's
    SVD does not return on an infinite entry.  A non-finite token raises
    at the output's finiteness test, as in every encode.
    """
    z, p = _table_inputs("spherical", table, z, p)
    yaw, roll = p[..., :1] * table.freqs[:, 0], p[..., 1:] * table.freqs[:, 1]
    if not (linalg._finite(yaw) and linalg._finite(roll)):
        raise ValueError("spherical angles must be finite: non-finite or overflowing position")
    rot = linalg._exp_skew(yaw[..., None, None] * _YAW) @ linalg._exp_skew(roll[..., None, None] * _ROLL)
    out = rot @ z.reshape(z.shape[:-1] + (table.blocks, 3, 1))
    return _check_finite("spherical", out.reshape(out.shape[:-3] + (3 * table.blocks,)))


def spherical_fast(z, p, table: FrequencyTable) -> np.ndarray:
    """``spherical`` as the encoders compute it: two complex products per
    triple, no 3x3 matrices."""
    return _table_encode("spherical", z, p, table)


def liere(z, p, generators) -> np.ndarray:
    """``exp(sum_m p_m * A_m) @ z`` for skew-symmetric generators ``A_m``,
    every position of the broadcast leading shape in one stacked
    exponential (``linalg.matrix_exp``'s real SVD route).  Each generator
    is antisymmetrised where it enters, so whether it is accepted does not
    depend on the position."""
    gens = linalg._skew_generators(generators)
    z, p = _inputs(z, p, gens[0].shape[0], len(gens))
    return _check_finite("liere", (_rotation(p, gens) @ z[..., None])[..., 0])


def _rotation(p, gens) -> np.ndarray:
    """``exp(sum_m p[..., m] * A_m)`` for checked positions and exactly skew
    generators.  The sum is built elementwise, like a table's angles, so a
    position's matrix does not depend on its batch; a sum of exactly skew
    terms is exactly skew, so only its finiteness is left to check.  The
    stacked ``linalg._exp_skew`` (one real SVD per position) works per
    matrix, so a batched encode equals its per-token encodes bit for bit."""
    a = p[..., 0, None, None] * gens[0]
    for m in range(1, len(gens)):
        a += p[..., m, None, None] * gens[m]
    if not linalg._finite(a):
        raise ValueError("liere generator sum must be finite: non-finite or overflowing position")
    return linalg._exp_skew(a)


def _encode_liere(enc, z, op):
    """Checked ``z`` turned by ``enc``'s operator ``op`` at a batch of
    positions: a rotation matrix per position, or a reduced encoder's
    phasors.  The encoder fixes the route, not ``op``'s dtype."""
    r = enc.reduction
    return (op @ z[..., None])[..., 0] if r is None else _reduced_turn(r.basis, z, op)


def _matrix_turn(z, op):
    """Checked ``z`` turned by one position's rotation matrix ``op``, a
    liere encoder's one-position product on the matrix routes.  One token
    is one ``ndarray.dot``, bit for bit ``op @ z`` without its dispatch."""
    return op.dot(z) if z.ndim == 1 else (op @ z[..., None])[..., 0]


def _reduced_turn(basis: np.ndarray, z, e):
    """Checked ``z`` turned by a reduced liere encoder's phasors ``e``, in
    its joint ``basis``."""
    return _liere_reduced(z @ basis, e, basis)


def _liere_reduced(y, e, basis: np.ndarray) -> np.ndarray:
    """``liere`` for commuting generators through their joint ``(basis,
    freqs)`` form, from ``y = z @ basis``: the pairs of ``y`` turn by the
    phasors ``e`` of ``freqs``'s pair form, ``basis.T`` maps them back, and
    an odd dim's last is fixed.  At ``y = basis`` and the conjugate
    phasors this is the rotation matrix itself, ``basis @ R @ basis.T``."""
    k2 = 2 * e.shape[-1]
    if k2 == len(basis):
        return _rotate_pairs(y, e) @ basis.T
    return (_rotate_pairs(y[..., :k2], e) @ basis[:, :k2].T
            + y[..., k2:] @ basis[:, k2:].T)


class Reduction(NamedTuple):
    """A liere encoder's commuting generators in their joint canonical form:
    ``basis`` (F order, as ``linalg`` returns it) and ``freqs``, the pair
    form of ``freqs``, and ``rows``, a C-order copy of ``basis`` whose rows'
    pairs the one-position matrix build turns, kept up to dim
    ``_MATRIX_MAX_DIM`` and None above it.  Every array is read-only."""

    basis: np.ndarray
    freqs: np.ndarray
    pairs: tuple
    rows: np.ndarray | None


def _commuting_reduction(gens):
    """The ``Reduction`` of pairwise-commuting skew generators, or None when
    they do not commute or share no block structure."""
    try:
        basis, freqs = linalg._joint_canonical_form(gens, _REDUCED_STRUCT_RTOL)
    except (ValueError, RuntimeError):
        return None
    rows = np.ascontiguousarray(basis) if len(basis) <= _MATRIX_MAX_DIM else None
    for a in (basis, freqs, rows):
        if a is not None:
            a.flags.writeable = False
    return Reduction(basis, freqs, _pair_form(freqs, 2), rows)


# ---------------------------------------------------------------------------
# frequency gradients: grad(table, z_q, z_k, p_q, p_k) on a FrequencyTable,
# checked (..., dim) tokens and (..., axes) positions, returning an array that
# reshapes to (..., blocks, axes)
# ---------------------------------------------------------------------------


def _grad_pairs(table, zq, zk, pq, pk):
    # score = sum_j Re(conj(q_j) k_j e^{i theta_j}) over the complex pairs,
    # theta = _angles(pairs, d), d = p_k - p_q, so d score / d theta_j =
    # -Im(conj(q_j) k_j e^{i theta_j}), times d[..., index_t][j] per term
    pairs, d = table.pairs, pk - pq
    e = _phasors(_angles(pairs, d))
    g = -(zq.view(complex).conj() * zk.view(complex) * e).imag
    out = np.empty(g.shape + (len(pairs),))
    for t, (index, _) in enumerate(pairs):
        np.multiply(g, d[..., index], out=out[..., t])
    return out


def _roll(z, angles):
    """Per triple of ``z``: the roll ``u = (x1 + i x2) e^{i angle}`` and the
    pair ``y = x0 + i Re(u)`` that the yaw then turns."""
    t = z.reshape(z.shape[:-1] + (z.shape[-1] // 3, 3))
    e = _phasors(angles)  # named, as in _rotate_pairs
    u = t[..., 1:].view(complex)[..., 0] * e
    return u, t[..., 0] + 1j * u.real


def _grad_spherical(table, zq, zk, pq, pk):
    # per triple, score = Re(conj(y_q) y_k e) + Im(u_q) Im(u_k) with the yaw
    # phasor e = e^{i f_x (pk_x - pq_x)}; by the product rule the roll turns u
    # by i u, moving Re(u) by -Im(u) and Im(u) by Re(u)
    f, d = table.freqs, pk[..., :1] - pq[..., :1]
    (uq, yq), (uk, yk) = _roll(zq, pq[..., 1:] * f[:, 1]), _roll(zk, pk[..., 1:] * f[:, 1])
    e = _phasors(d * f[:, 0])
    c = yq.conj() * e
    gq = uq.real * uk.imag - uq.imag * (yk * e).imag
    gk = uk.real * uq.imag + uk.imag * c.imag
    return np.stack([-(c * yk).imag * d, gq * pq[..., 1:] + gk * pk[..., 1:]], axis=-1)


def grad_frequencies(scheme: str, z_q, z_k, p_q, p_k, table: FrequencyTable) -> np.ndarray:
    """Closed-form ``d score / d freqs`` for the attention score between the
    encodings of ``(z_q, p_q)`` and ``(z_k, p_k)``.

    Tokens and positions take the shapes of ``Encoder.encode``, (..., dim)
    and (..., axes), all four leading shapes broadcasting; the result has
    shape (..., blocks, axes), one ``table.freqs``-shaped gradient per token
    pair.  For the uniform scheme every entry equals the chain-rule total for
    the one shared parameter; trivial2d's is rope1d's gradient at ``p_x +
    p_y`` on its rope1d table.  Only liere, which has no frequency table, is
    unsupported.  As every encode does, it ends in one finiteness test: a
    NaN or inf token or position, or an angle or product that overflows,
    raises ValueError.
    """
    spec = _spec(scheme)
    if spec.grad is None:
        raise ValueError(f"grad_frequencies does not support scheme {scheme!r}")
    zq, pq = _table_inputs(scheme, table, z_q, p_q)
    zk, pk = _table_inputs(scheme, table, z_k, p_k)
    g = spec.grad(table, zq, zk, pq, pk)
    g = g.reshape(g.shape[:-2] + table.freqs.shape)
    if spec.shared:
        g = np.broadcast_to(g.sum(axis=(-2, -1))[..., None, None], g.shape).copy()
    return _check_finite(scheme, g, "frequency gradient")


# ---------------------------------------------------------------------------
# the scheme registry
# ---------------------------------------------------------------------------


class Scheme(NamedTuple):
    """One scheme: coordinates per rotation block (which fixes its table's
    pair form) and per pattern block (the bilinear piece of a score that a
    block raster shows), position axes, the FrequencyTable layout it reads,
    ``rotate(z, phasors)`` on checked (..., dim) tokens, the frequency
    gradient ``grad(table, z_q, z_k, p_q, p_k)`` or None, whether
    its table's entries are one ``shared`` parameter, and whether its scores
    are shift-``equivariant``.  liere's generators set its block, axes and
    equivariance, and its encoder routes it: the rest is None or False."""

    block: int | None
    pattern: int
    axes: int | None
    table: str | None
    rotate: Callable | None
    grad: Callable | None
    shared: bool
    equivariant: bool | None


# a score splits into pairs (an axial quadruple is an x-pair and a y-pair;
# liere's last pair is short at an odd dim) or, for spherical, triples
SCHEMES = {
    "rope1d": Scheme(2, 2, 1, "rope1d", _rotate_pairs, _grad_pairs, False, True),
    "trivial2d": Scheme(2, 2, 2, "rope1d", _rotate_pairs, _grad_pairs, False, True),
    "axial": Scheme(4, 2, 2, "axial", _rotate_pairs, _grad_pairs, False, True),
    "mixed": Scheme(2, 2, 2, "mixed", _rotate_pairs, _grad_pairs, False, True),
    "spherical": Scheme(3, 3, 2, "spherical", _rotate_triples, _grad_spherical, False, False),
    "uniform": Scheme(4, 2, 2, "uniform", _rotate_pairs, _grad_pairs, True, True),
    "liere": Scheme(None, 2, None, None, None, None, False, None),
}


def _spec(scheme) -> Scheme:
    """The registry entry of ``scheme``; a name that is not registered, or
    no string at all (an unhashable list included), raises ValueError."""
    spec = SCHEMES.get(scheme) if isinstance(scheme, str) else None
    if spec is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    return spec


def _operator(enc, p, block=None) -> np.ndarray:
    """``enc``'s position operator at checked positions ``p`` (..., axes):
    the phasors of a table scheme's pair form (of table block ``block``'s
    form when it is given), else for liere the rotation matrix of each
    position.  A reduced liere encoder of dim at most ``_MATRIX_MAX_DIM``
    builds one position's matrix ``basis @ R @ basis.T`` from its phasors
    ``e`` as ``_liere_reduced(basis, e.conj(), basis)``: ``R`` multiplies
    ``basis`` from the right, so each row's pairs turn by ``R``'s
    transpose, the conjugate phasors.  The result is C-ordered, like the
    exponential route's matrices.  The pair turn views a row's pairs as
    complex numbers, so it reads the reduction's C-order ``rows``, kept
    only up to that dim.  A batch, or one position at a larger dim, keeps
    its phasors, so no (..., n, n) stack is built.  Any leading shape; only
    the operator depends on the position."""
    if enc.table is not None:
        pairs = enc.table.pairs if block is None else enc.table.block_pairs[block]
        return _phasors(_angles(pairs, _fold(enc.scheme, p)))
    r = enc.reduction
    if r is None:
        return _rotation(p, enc.generators)
    e = _phasors(_angles(r.pairs, p))
    if p.ndim > 1 or r.rows is None:
        return e
    return _liere_reduced(r.rows, e.conj(), r.basis)


def _stored_operator(enc, key: bytes, p) -> np.ndarray:
    """``_operator(enc, p)`` at one checked position ``p`` (axes,) that
    ``enc``'s store does not hold under ``key``, the bytes of ``p``: built,
    checks included, and kept read-only while the store's operator and key
    bytes stay within ``_STORE_BYTES``; a non-finite operator is never
    stored (``linalg._finite``: an operator's entries are at most 1 in
    size, so it never takes the elementwise fallback).  Threads that miss
    at once can each pass the budget check, so a shared encoder may hold
    one operator past it per extra thread; the first operator stored for a
    key stays, and every build of it is the same bits."""
    op = _operator(enc, p)
    if (len(enc._operators) + 1) * (op.nbytes + len(key)) <= _STORE_BYTES and linalg._finite(op):
        op.setflags(write=False)
        op = enc._operators.setdefault(key, op)
    return op


def _one_position_product(enc) -> Callable:
    """The product ``(z, op)`` that turns checked tokens ``z`` by ``enc``'s
    operator ``op`` at one position: the registry's ``rotate`` for a table
    scheme, ``_matrix_turn`` for a liere rotation matrix (the exponential
    route, and a reduced encoder up to dim ``_MATRIX_MAX_DIM``), else a
    reduced encoder's phasor turn in its basis."""
    if enc.table is not None:
        return SCHEMES[enc.scheme].rotate
    r = enc.reduction
    return _matrix_turn if r is None or r.rows is not None else partial(_reduced_turn, r.basis)


def _turn(enc, z, p, block=None):
    """The rotation routine of a batch of positions, behind ``Encoder.encode``
    and the block rasters: checked tokens ``z`` at positions ``p`` (...,
    axes) turned by ``enc``'s operator, built on the call, a table scheme's
    through the registry's ``rotate``, a liere encoder's through
    ``_encode_liere``, and the result held to one finiteness test.  With a
    table block index ``block``, ``z`` holds only that block's coordinates
    and turns by that block's pair form; every angle, phasor and product is
    elementwise, so the result is bit for bit that block's slice of the
    whole encode."""
    op = _operator(enc, p, block)
    out = _encode_liere(enc, z, op) if enc.table is None else SCHEMES[enc.scheme].rotate(z, op)
    # the raise is _check_finite's; a finite encode skips its call
    return out if linalg._finite(out) else _check_finite(enc.scheme, out)


# ---------------------------------------------------------------------------
# encoder objects and JSON configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Encoder(linalg._Record):
    """A scheme bound to its parameters, exposing ``encode(z, p)``.

    The one place that decides what a scheme takes and what it defaults to;
    ``make_encoder`` forwards here.  A table scheme takes an explicit
    ``table`` or a ``base``, from which it builds the schedule table itself
    (``base`` is kept for exact config round-trips), and given neither takes
    its schedule at ``DEFAULT_BASE``, so ``Encoder(scheme, dim)`` is the
    default encoder; a shared-table scheme (uniform) takes no ``base``, and
    its default table holds the one frequency 1.0.  liere takes
    ``generators`` only, stored antisymmetrised, and reads ``dim`` off them
    when it is None.  A parameter its scheme does not take raises
    ValueError.
    The position-independent forms are derived on construction: ``axes``;
    for liere with commuting generators ``reduction``, their ``Reduction``
    (the ``(basis, freqs)`` joint canonical form, the pair form of ``freqs``
    and, up to dim ``_MATRIX_MAX_DIM``, a C-order copy of the basis), so that
    a batched ``encode`` costs two matrix products and a pair turn instead
    of an exponential per position, and one position's rotation matrix
    ``basis @ R @ basis.T`` (up to dim ``_MATRIX_MAX_DIM``; above it one
    position keeps the phasors too) needs no exponential; the two agree to
    rounding, not bit for bit.  A table encoder turns by its table's pair
    form, so building one on an existing table derives nothing.  The
    generators and the ``reduction`` arrays are read-only.

    The rotation depends on the position only, so an encode of one token
    batch at one position keeps that position's operator (the phasors, or
    the liere rotation matrix, whose hit is one matrix-vector product; a
    reduced encoder above dim ``_MATRIX_MAX_DIM`` keeps its phasors) and
    reuses it the next time that position comes, bit for bit: at most
    ``_STORE_BYTES`` (2 MiB) of operators and keys per encoder, after which
    new positions are built on every call and nothing is evicted.  Only
    ``encode`` reads the store, and it turns one position by ``_product``,
    the product fixed on construction (the registry's ``rotate``,
    ``_matrix_turn``, or the phasor turn in the reduction's basis).
    Batched positions build their operators every call.  Every encode's
    output is tested for finiteness: a NaN or inf token or position, or an
    angle that overflows, raises ValueError.
    A value under ``linalg._Record``'s rule: the derived fields (the
    product included) and the store stay out of equality, hashing, the
    repr and configs, and a copy, deep copy or pickle comes back with its
    arrays read-only, its product rebuilt and its store empty and its own.
    """

    scheme: str
    dim: int
    table: FrequencyTable | None = None
    base: float | None = None
    generators: tuple = field(default=None, repr=False)
    reduction: Reduction | None = field(init=False, default=None, repr=False, compare=False)
    axes: int = field(init=False, default=None, repr=False, compare=False)
    _operators: dict = field(init=False, default=None, repr=False, compare=False)
    _product: Callable = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        spec = _spec(self.scheme)
        object.__setattr__(self, "_operators", {})
        if self.dim is not None or spec.table is not None:
            object.__setattr__(self, "dim", linalg._integer("dim", self.dim))
        if spec.table is None:
            if self.table is not None or self.base is not None:
                raise ValueError("liere takes generators, not a table or base")
            gens = linalg._skew_generators(self.generators)
            if self.dim is None:
                object.__setattr__(self, "dim", gens[0].shape[0])
            elif gens[0].shape[0] != self.dim:
                raise ValueError(f"dim {self.dim} does not match generator size {gens[0].shape[0]}")
            for g in gens:  # as_skew's own copies: the caller's arrays stay writeable
                g.flags.writeable = False
            object.__setattr__(self, "generators", gens)
            object.__setattr__(self, "reduction", _commuting_reduction(gens))
            object.__setattr__(self, "axes", len(gens))
            object.__setattr__(self, "_product", _one_position_product(self))
            return
        if self.generators is not None:
            raise ValueError("only liere takes generators")
        if self.dim < spec.block or self.dim % spec.block != 0:
            raise ValueError(f"{self.scheme} needs dim divisible by {spec.block}, got {self.dim}")
        if self.base is not None and spec.shared:
            raise ValueError(f"{self.scheme} reads a uniform table, not base")
        if self.base is not None or self.table is None:
            # a shared table ignores the base: its default is one frequency 1.0
            base = DEFAULT_BASE if self.base is None else linalg._real_scalar(self.base, "base")
            table = FrequencyTable.fixed(spec.table, self.dim, base=base)
            if self.table is not None and self.table != table:
                raise ValueError("pass either base or an explicit table, not both")
            object.__setattr__(self, "table", table)
            object.__setattr__(self, "base", None if spec.shared else base)
        _check_table(self.scheme, self.table)
        if self.table.blocks != self.dim // spec.block:
            raise ValueError(f"table has {self.table.blocks} blocks, "
                             f"{self.scheme} at dim {self.dim} needs {self.dim // spec.block}")
        object.__setattr__(self, "axes", spec.axes)
        object.__setattr__(self, "_product", _one_position_product(self))

    @property
    def uniform_freq(self) -> float | None:
        """The one shared frequency of a uniform encoder's table, else None."""
        return float(self.table.freqs[0, 0]) if SCHEMES[self.scheme].shared else None

    def encode(self, z, p) -> np.ndarray:
        """Encode tokens ``z`` of shape (..., dim) at positions ``p`` of shape
        (..., axes), the leading shapes broadcasting.  One token, shapes
        (dim,) and (axes,) (a scalar on one axis), gives shape (dim,).
        Output is float64 whatever the input dtype.

        The one reader of the operator store.  Inputs that ``_inputs`` would
        return unchanged skip it: a float64, C-contiguous ``np.ndarray`` of
        tokens ending in ``(dim,)`` at a float64 ``np.ndarray`` position of
        shape exactly ``(axes,)``, the position's shape tested first, so a
        batch of positions falls through at once.  Every other input is
        converted and checked by ``_inputs``.  One position is then a store
        lookup (a miss builds and maybe stores the operator), the product
        the encoder fixed on construction and one finiteness test; a batch
        of positions is ``_turn``."""
        if not (type(p) is _NDARRAY and p.shape == (self.axes,) and p.dtype is _FLOAT64
                and type(z) is _NDARRAY and z.dtype is _FLOAT64 and z.flags.c_contiguous
                and z.ndim and z.shape[-1] == self.dim):
            z, p = _inputs(z, p, self.dim, self.axes)
            if p.ndim > 1:
                return _turn(self, z, p)
        key = p.tobytes()
        op = self._operators.get(key)
        if op is None:
            op = _stored_operator(self, key, p)
        out = self._product(z, op)
        # the raise is _check_finite's; a finite encode skips its call
        return out if linalg._finite(out) else _check_finite(self.scheme, out)

    # the bilinear decomposition of the score, in blocks of the registry's
    # pattern width (the last one short when the width does not divide dim)
    @property
    def pattern_blocks(self) -> int:
        return -(-self.dim // SCHEMES[self.scheme].pattern)

    def pattern_slice(self, b: int) -> slice:
        b = linalg._integer("block", b, 0, self.pattern_blocks, "an integer index in [0, {hi})")
        w = SCHEMES[self.scheme].pattern
        return slice(w * b, min(w * b + w, self.dim))


def make_encoder(scheme: str, dim: int = None, *, base: float = None,
                 table: FrequencyTable = None, uniform_freq: float = None,
                 generators=None) -> Encoder:
    """``Encoder(scheme, dim, table, base, generators)``, which checks every
    parameter and sets every default, plus the one parameter it has no field
    for: a shared-table scheme (uniform) takes ``uniform_freq``, and neither
    ``base`` nor ``table``, and builds its uniform table from it.
    ``uniform_freq`` on another scheme raises ValueError.
    """
    spec = _spec(scheme)
    if spec.shared:
        if base is not None or table is not None:
            raise ValueError(f"{scheme} takes 'uniform_freq' only")
        if uniform_freq is not None:
            table = FrequencyTable.fixed(spec.table, dim, uniform_freq=uniform_freq)
    elif uniform_freq is not None:
        raise ValueError("'uniform_freq' only applies to the uniform scheme")
    return Encoder(scheme, dim, table, base, generators)


def encoder_to_config(enc: Encoder) -> dict:
    """The JSON-serialisable description of a (non-liere) encoder."""
    spec = SCHEMES[enc.scheme]
    if spec.table is None:
        raise ValueError(f"{enc.scheme} encoders have no JSON config form (matrix-valued parameters)")
    cfg = {"scheme": enc.scheme, "dim": enc.dim, "axes": enc.axes}
    if spec.shared:
        cfg["uniform_freq"] = enc.uniform_freq
    elif enc.base is not None:
        cfg["base"] = enc.base
    else:
        cfg["freqs"] = enc.table.freqs.tolist()
    return cfg


def encoder_from_config(cfg: dict) -> Encoder:
    """Inverse of encoder_to_config, validating the schema as it goes."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - {"scheme", "dim", "axes", "base", "freqs", "uniform_freq"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "scheme" not in cfg or "dim" not in cfg:
        raise ValueError("config needs at least 'scheme' and 'dim'")
    scheme = cfg["scheme"]
    spec = _spec(scheme)
    if spec.table is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    if "axes" in cfg and cfg["axes"] != spec.axes:
        raise ValueError(f"{scheme} has {spec.axes} axes, config says {cfg['axes']}")
    table = FrequencyTable(spec.table, cfg["freqs"]) if "freqs" in cfg else None
    return make_encoder(scheme, cfg["dim"], base=cfg.get("base"), table=table, uniform_freq=cfg.get("uniform_freq"))


def dump_config(cfg: dict) -> str:
    """Canonical JSON text for a config: sorted keys, newline-terminated.

    Serialisation uses Python's repr-exact floats, so dump(parse(dump(x)))
    is byte-identical to dump(x).
    """
    return json.dumps(cfg, sort_keys=True, separators=(", ", ": ")) + "\n"


def parse_config(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config JSON: {exc}") from None
