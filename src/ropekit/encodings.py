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

The pair schemes are all mixed RoPE with a structured angle matrix ``W`` of
shape (axes, dim/2), built once per encoder: pair ``j`` turns by
``theta_j = sum_m p_m W[m, j]``, as the complex number ``a + ib`` times the
unit phasor ``exp(1j * theta_j)``; a spherical triple is two such products.
``SCHEMES`` is the one registry of schemes.  Every
encoder takes token vectors of shape (..., dim) and positions of shape
(..., axes) whose leading shapes broadcast; one token is the ``()`` case.
``grad_frequencies`` takes the same shapes and differentiates the same products;
3x3 rotation matrices remain only in ``spherical``, the triple route's reference.

``sinusoidal_ape`` (additive sin/cos features) is included as the non-rotary
baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def frequency_schedule(blocks: int, base: float = DEFAULT_BASE) -> np.ndarray:
    """The geometric frequency ladder ``w_d = base ** (-2d / blocks)``.

    ``w_0`` is always 1; for ``base > 1`` the schedule is strictly decreasing.
    """
    if blocks < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    if not base > 0.0:
        raise ValueError(f"base must be positive, got {base}")
    d = np.arange(blocks, dtype=float)
    return base ** (-2.0 * d / blocks)


def _is_table_scheme(scheme: str) -> bool:
    """Whether ``scheme`` names a frequency-table layout of its own."""
    return scheme in SCHEMES and SCHEMES[scheme].table == scheme


@dataclass(frozen=True)
class FrequencyTable:
    """Per-block, per-axis rotation frequencies in radians per unit position.

    ``freqs`` has shape (blocks, axes).  The scheme tag records which encoder
    family the table is meant for; the uniform scheme additionally requires a
    single shared value.
    """

    scheme: str
    freqs: np.ndarray

    def __post_init__(self):
        if not _is_table_scheme(self.scheme):
            raise ValueError(f"unknown frequency-table scheme {self.scheme!r}")
        f = np.asarray(self.freqs, dtype=float)
        axes = SCHEMES[self.scheme].axes
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != axes:
            raise ValueError(f"{self.scheme} freqs must be a (blocks, {axes}) array, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("frequencies must all be finite")
        if self.scheme == "uniform" and f.size and not np.all(f == f.flat[0]):
            raise ValueError("uniform tables must hold a single shared frequency")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "freqs", f)

    # by value; the hash takes the array's shape only, so that tables equal
    # under array_equal (where -0.0 == 0.0) hash alike
    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return self.scheme == other.scheme and np.array_equal(self.freqs, other.freqs)

    def __hash__(self):
        return hash((self.scheme, self.freqs.shape))

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
        if dim < block or dim % block != 0:
            raise ValueError(f"{scheme} needs dim divisible by {block}, got {dim}")
        blocks = dim // block
        if scheme == "uniform":
            f = np.full((blocks, 2), float(uniform_freq))
        else:
            sched = frequency_schedule(blocks, base)
            f = sched[:, None] if axes == 1 else np.column_stack([sched, sched])
        return cls(scheme, f)


# ---------------------------------------------------------------------------
# encoding operations
# ---------------------------------------------------------------------------


def _inputs(z, p, dim: int, axes: int):
    """``z`` as a C-contiguous (..., dim) and ``p`` as a (..., axes) float
    array; a scalar position stands for one coordinate."""
    z = np.asarray(z, dtype=float, order="C")
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if z.ndim == 0 or z.shape[-1] != dim:
        raise ValueError(f"token vector shape {z.shape} does not end in length {dim}")
    if p.shape[-1] != axes:
        raise ValueError(f"expected positions with {axes} coordinate(s), got shape {p.shape}")
    return z, p


def _check_finite(out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise ValueError("liere encoding must be finite: non-finite token, position or angle")
    return out


def _check_table(scheme: str, table: FrequencyTable) -> None:
    """Reject a table of another layout; an axial encoder also reads a
    uniform table, an axial table of one shared frequency."""
    layout = SCHEMES[scheme].table
    if table is None or table.scheme not in (layout, "uniform" if layout == "axial" else layout):
        raise ValueError(f"{scheme} reads {layout!r} tables, got {getattr(table, 'scheme', None)!r}")


def _angle_matrix(freqs: np.ndarray, block: int) -> np.ndarray:
    """The (axes, angles) matrix ``W`` with angle ``j = sum_m p_m W[m, j]``.

    A pair block carries one angle, so ``W = freqs.T``; an axial quadruple or
    a spherical triple carries one angle per axis, x then y.
    """
    if block == 2:
        w = freqs.T.copy()  # contiguous rows
    else:
        w = np.zeros((2, 2 * len(freqs)))
        w[0, 0::2], w[1, 1::2] = freqs[:, 0], freqs[:, 1]
    w.flags.writeable = False
    return w


# an index tuple built once: a literal ``[..., :1]`` is rebuilt on every call
_FIRST = (..., slice(1))


def _angles(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_m p[..., m] * w[m]``, elementwise rather than a matmul, so every
    angle is the same whatever batch it is computed in."""
    a = p[_FIRST] * w[0]
    for m in range(1, len(w)):
        a += p[..., m:m + 1] * w[m]
    return a


def _phasors(angles: np.ndarray) -> np.ndarray:
    """``exp(1j * angles)`` as ``cos + 1j * sin``.  numpy's complex ``exp``
    also takes ``exp`` of the zero real part, a third transcendental per
    element that on rasters of a few thousand pairs costs more than the
    complex product saves."""
    e = np.empty(angles.shape, complex)
    np.cos(angles, out=e.real)
    np.sin(angles, out=e.imag)
    return e


def _rotate_pairs(z: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive coordinate pairs of ``z`` (..., 2k) by ``angles``
    (..., k): pair ``a + ib`` times the unit phasor ``exp(1j * angle)``.  The
    last axis of ``z`` must be contiguous."""
    return (z.view(complex) * _phasors(angles)).view(float)


def _rotate_triples(z: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Per triple ``(x0, x1, x2)`` of ``z``: roll the ``(x1, x2)`` plane by
    ``angles[..., 2d + 1]``, then yaw the ``(x0, x1)`` plane by
    ``angles[..., 2d]``, each as one complex product."""
    e = _phasors(angles)
    t = z.reshape(z.shape[:-1] + (z.shape[-1] // 3, 3))
    roll = t[..., 1:].view(complex)[..., 0] * e[..., 1::2]
    out = np.empty(roll.shape + (3,))
    out[..., 0] = t[..., 0]
    out[..., 1:].view(complex)[..., 0] = roll
    yaw = out[..., :2].view(complex)[..., 0]
    yaw *= e[..., 0::2]
    return out.reshape(roll.shape[:-1] + (3 * roll.shape[-1],))


def _table_encode(scheme: str, z, p, table: FrequencyTable) -> np.ndarray:
    return Encoder(scheme, SCHEMES[scheme].block * table.blocks, table).encode(z, p)


def rope1d(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate pair ``d`` of ``z`` by ``table.freqs[d, 0] * p``."""
    return _table_encode("rope1d", z, p, table)


def trivial2d(z, p, table: FrequencyTable) -> np.ndarray:
    """2-D positions collapsed onto their coordinate sum, then rope1d.

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
    z = np.asarray(z, dtype=float)
    return make_encoder("uniform", z.shape[-1] if z.ndim else 0, uniform_freq=freq).encode(z, p)


def _plane_rotations(theta: np.ndarray, i: int, j: int) -> np.ndarray:
    """Stack of rotations of the ``(i, j)`` coordinate plane of R^3, one per angle."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., [0, 1, 2], [0, 1, 2]] = 1.0
    m[..., i, i] = m[..., j, j] = c
    m[..., i, j], m[..., j, i] = -s, s
    return m


def spherical(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate triple ``d`` by ``yaw(w_dx * p_x) @ roll(w_dy * p_y)``.

    The roll acts first.  Yaw and roll do not commute, so this family is not
    shift-equivariant; it trades that away for a 3-D rotation group per triple.
    This 3x3-matrix route is the reference that ``check_fast_path`` holds
    ``spherical_fast``, the encoders' route, to.
    """
    _check_table("spherical", table)
    z, p = _inputs(z, p, 3 * table.blocks, 2)
    # yaw turns the (x0, x1)-plane, roll the (x1, x2)-plane
    rot = (_plane_rotations(p[..., :1] * table.freqs[:, 0], 0, 1)
           @ _plane_rotations(p[..., 1:] * table.freqs[:, 1], 1, 2))
    out = np.einsum("...dij,...dj->...di", rot, z.reshape(z.shape[:-1] + (table.blocks, 3)))
    return out.reshape(out.shape[:-2] + (3 * table.blocks,))


def spherical_fast(z, p, table: FrequencyTable) -> np.ndarray:
    """``spherical`` as the encoders compute it: two complex products per
    triple, no 3x3 matrices."""
    return _table_encode("spherical", z, p, table)


def _skew_generators(generators) -> tuple:
    """One or more generators of one square shape, each antisymmetrised by
    ``linalg.as_skew``."""
    if generators is None or len(generators) == 0:
        raise ValueError("liere needs at least one generator")
    gens = tuple(linalg.as_skew(g) for g in generators)
    if any(g.shape != gens[0].shape for g in gens):
        raise ValueError("liere generators must share one square shape")
    return gens


def liere(z, p, generators) -> np.ndarray:
    """``exp(sum_m p_m * A_m) @ z`` for skew-symmetric generators ``A_m``,
    every position of the broadcast leading shape in one stacked
    exponential.  Each generator is antisymmetrised where it enters, so
    whether it is accepted does not depend on the position."""
    gens = _skew_generators(generators)
    z, p = _inputs(z, p, gens[0].shape[0], len(gens))
    return _liere_exp(z, p, gens)


def _liere_exp(z, p, gens) -> np.ndarray:
    """``liere`` on checked inputs and exactly skew generators.  The sum
    ``sum_m p[..., m] * A_m`` is built elementwise, like ``_angles``, so a
    position's matrix does not depend on its batch; a sum of exactly skew
    terms is exactly skew, so only its finiteness is left to check."""
    a = p[..., 0, None, None] * gens[0]
    for m in range(1, len(gens)):
        a += p[..., m, None, None] * gens[m]
    if not np.isfinite(a).all():
        raise ValueError("liere generator sum must be finite: non-finite or overflowing position")
    return _check_finite((linalg._exp_skew(a) @ z[..., None])[..., 0])


def _encode_liere(enc, z, p):
    if enc.reduction is None:
        return _liere_exp(z, p, enc.generators)
    return _check_finite(_liere_reduced(z, p, enc.reduction[0], enc.weights))


def _liere_reduced(z, p, basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``liere`` for commuting generators through their joint ``(basis, freqs)``
    form, ``weights = freqs.T``: the pairs of ``z @ basis`` turn by
    ``freqs @ p`` and ``basis.T`` maps them back; a coordinate past the pairs
    (an odd dimension's last) is fixed."""
    y = z @ basis
    k2 = 2 * weights.shape[1]
    if k2 == len(basis):
        return _rotate_pairs(y, _angles(p, weights)) @ basis.T
    return (_rotate_pairs(y[..., :k2], _angles(p, weights)) @ basis[:, :k2].T
            + y[..., k2:] @ basis[:, k2:].T)


def _commuting_reduction(gens):
    """The joint ``(basis, freqs)`` of pairwise-commuting skew generators, or
    None when they do not commute or share no block structure."""
    try:
        return linalg.joint_canonical_form(gens, struct_rtol=_REDUCED_STRUCT_RTOL)
    except (ValueError, RuntimeError):
        return None


def sinusoidal_ape(x, p, table: FrequencyTable) -> np.ndarray:
    """Additive sinusoidal features: ``x + PE(p)`` with interleaved
    ``sin(p * w_d), cos(p * w_d)`` entries."""
    if table.axes != 1:
        raise ValueError(f"sinusoidal_ape needs a 1-axis table, got {table.axes} axes")
    x, p = _inputs(x, p, 2 * table.blocks, 1)
    angles = p * table.freqs[:, 0]
    pe = np.empty(angles.shape[:-1] + (2 * table.blocks,))
    pe[..., 0::2] = np.sin(angles)
    pe[..., 1::2] = np.cos(angles)
    return x + pe


# ---------------------------------------------------------------------------
# frequency gradients: grad(encoder, z_q, z_k, p_q, p_k) on checked (..., dim)
# tokens and (..., axes) positions, returning (..., blocks, axes)
# ---------------------------------------------------------------------------


def _grad_pairs(enc, zq, zk, pq, pk):
    # score = sum_j Re(conj(q_j) k_j e^{i theta_j}) over the complex pairs,
    # theta = (p_k - p_q) W, so d score / d theta_j = -Im(conj(q_j) k_j e^{i theta_j});
    # an axial quadruple is an x-pair then a y-pair
    d = pk - pq
    g = -(zq.view(complex).conj() * zk.view(complex) * _phasors(_angles(d, enc.weights))).imag
    return g.reshape(g.shape[:-1] + (enc.table.blocks, -1)) * d[..., None, :]


def _grad_uniform(enc, zq, zk, pq, pk):
    g = _grad_pairs(enc, zq, zk, pq, pk)
    return np.broadcast_to(g.sum(axis=(-2, -1))[..., None, None], g.shape).copy()


def _roll(z, angles):
    """Per triple of ``z``: the roll ``u = (x1 + i x2) e^{i angle}`` and the
    pair ``y = x0 + i Re(u)`` that the yaw then turns."""
    t = z.reshape(z.shape[:-1] + (z.shape[-1] // 3, 3))
    u = t[..., 1:].view(complex)[..., 0] * _phasors(angles)
    return u, t[..., 0] + 1j * u.real


def _grad_spherical(enc, zq, zk, pq, pk):
    # per triple, score = Re(conj(y_q) y_k e) + Im(u_q) Im(u_k) with the yaw
    # phasor e = e^{i f_x (pk_x - pq_x)}; by the product rule the roll turns u
    # by i u, moving Re(u) by -Im(u) and Im(u) by Re(u)
    f = enc.table.freqs
    d = pk[..., :1] - pq[..., :1]
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
    the one shared parameter.  Schemes without per-frequency parameters
    (trivial2d, liere) are unsupported.
    """
    spec = SCHEMES.get(scheme)
    if spec is None or spec.grad is None:
        raise ValueError(f"grad_frequencies does not support scheme {scheme!r}")
    _check_table(scheme, table)
    enc = Encoder(scheme, spec.block * table.blocks, table)
    zq, pq = _inputs(z_q, p_q, enc.dim, enc.axes)
    zk, pk = _inputs(z_k, p_k, enc.dim, enc.axes)
    return spec.grad(enc, zq, zk, pq, pk)


# ---------------------------------------------------------------------------
# the scheme registry
# ---------------------------------------------------------------------------


class Scheme(NamedTuple):
    """One scheme: coordinates per rotation block, position axes, the
    FrequencyTable layout it reads (None for liere, whose generators set the
    block and axes), ``encode(encoder, z, p)`` on checked (..., dim) and
    (..., axes) arrays, and the closed-form frequency gradient
    ``grad(encoder, z_q, z_k, p_q, p_k)`` on such arrays, or None."""

    block: int | None
    axes: int | None
    table: str | None
    encode: Callable
    grad: Callable | None


def _encode_pairs(enc, z, p):
    return _rotate_pairs(z, _angles(p, enc.weights))


SCHEMES = {
    "rope1d": Scheme(2, 1, "rope1d", _encode_pairs, _grad_pairs),
    # mixed with W = [w; w], applied as w * (p_x + p_y) to keep one rounding
    "trivial2d": Scheme(2, 2, "rope1d", lambda enc, z, p: _encode_pairs(enc, z, p[..., :1] + p[..., 1:]),
                        None),
    "axial": Scheme(4, 2, "axial", _encode_pairs, _grad_pairs),
    "mixed": Scheme(2, 2, "mixed", _encode_pairs, _grad_pairs),
    "spherical": Scheme(3, 2, "spherical",
                        lambda enc, z, p: _rotate_triples(z, _angles(p, enc.weights)), _grad_spherical),
    "uniform": Scheme(4, 2, "uniform", _encode_pairs, _grad_uniform),
    "liere": Scheme(None, None, None, _encode_liere, None),
}


# ---------------------------------------------------------------------------
# encoder objects and JSON configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Encoder:
    """A scheme bound to its parameters, exposing ``encode(z, p)``.

    A table scheme takes an explicit ``table`` or a ``base``, from which it
    builds the schedule table itself (``base`` is kept for exact config
    round-trips); liere takes ``generators`` only, stored antisymmetrised.
    The position-independent forms are derived on construction: ``axes``;
    for liere with commuting generators ``reduction``, their ``(basis,
    freqs)`` joint canonical form, so that ``encode`` costs two matrix
    products instead of an exponential per position; and ``weights``, the
    angle matrix ``W`` (``freqs.T`` of the reduction for liere).
    """

    scheme: str
    dim: int
    table: FrequencyTable | None = None
    base: float | None = None
    generators: tuple = field(default=None, repr=False)
    weights: np.ndarray = field(init=False, default=None, repr=False, compare=False)
    reduction: tuple = field(init=False, default=None, repr=False, compare=False)
    axes: int = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        spec = SCHEMES.get(self.scheme)
        if spec is None:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "liere":
            if self.table is not None or self.base is not None:
                raise ValueError("liere takes generators, not a table or base")
            gens = _skew_generators(self.generators)
            if gens[0].shape[0] != self.dim:
                raise ValueError(f"dim {self.dim} does not match generator size {gens[0].shape[0]}")
            reduction = _commuting_reduction(gens)
            object.__setattr__(self, "generators", gens)
            object.__setattr__(self, "reduction", reduction)
            if reduction is not None:
                object.__setattr__(self, "weights", _angle_matrix(reduction[1], 2))
            object.__setattr__(self, "axes", len(gens))
            return
        if self.generators is not None:
            raise ValueError("only liere takes generators")
        if self.dim < spec.block or self.dim % spec.block != 0:
            raise ValueError(f"{self.scheme} needs dim divisible by {spec.block}, got {self.dim}")
        if self.base is not None:
            if self.table is not None:
                raise ValueError("pass either base or an explicit table, not both")
            if self.scheme == "uniform":
                raise ValueError("uniform reads a uniform table, not base")
            object.__setattr__(self, "base", float(self.base))
            object.__setattr__(self, "table", FrequencyTable.fixed(spec.table, self.dim, base=self.base))
        _check_table(self.scheme, self.table)
        if self.table.blocks != self.dim // spec.block:
            raise ValueError(f"table has {self.table.blocks} blocks, "
                             f"{self.scheme} at dim {self.dim} needs {self.dim // spec.block}")
        object.__setattr__(self, "weights", _angle_matrix(self.table.freqs, spec.block))
        object.__setattr__(self, "axes", spec.axes)

    @property
    def uniform_freq(self) -> float | None:
        """The one shared frequency of a uniform encoder's table, else None."""
        return float(self.table.freqs[0, 0]) if self.scheme == "uniform" else None

    # by value, leaving out the derived fields; generators enter the hash by
    # count only, for the same reason as FrequencyTable's
    def __eq__(self, other):
        if not isinstance(other, Encoder):
            return NotImplemented
        gens, other_gens = self.generators or (), other.generators or ()
        return (self._params() == other._params() and len(gens) == len(other_gens)
                and all(np.array_equal(a, b) for a, b in zip(gens, other_gens)))

    def __hash__(self):
        return hash(self._params() + (len(self.generators or ()),))

    def _params(self) -> tuple:
        return (self.scheme, self.dim, self.table, self.base)

    def encode(self, z, p) -> np.ndarray:
        """Encode tokens ``z`` of shape (..., dim) at positions ``p`` of shape
        (..., axes), the leading shapes broadcasting.  One token, shapes
        (dim,) and (axes,) (a scalar on one axis), gives shape (dim,).
        Output is float64 whatever the input dtype."""
        z, p = _inputs(z, p, self.dim, self.axes)
        return SCHEMES[self.scheme].encode(self, z, p)

    # bilinear decomposition of the score: pairs for the pair/quadruple
    # schemes (a quadruple is one x-pair plus one y-pair), triples for
    # spherical, pairs (last possibly short) for liere
    @property
    def pattern_blocks(self) -> int:
        if self.scheme == "spherical":
            return self.dim // 3
        return (self.dim + 1) // 2

    def pattern_slice(self, b: int) -> slice:
        if not 0 <= b < self.pattern_blocks:
            raise ValueError(f"block index {b} out of range [0, {self.pattern_blocks})")
        if self.scheme == "spherical":
            return slice(3 * b, 3 * b + 3)
        return slice(2 * b, min(2 * b + 2, self.dim))


def make_encoder(scheme: str, dim: int = None, *, base: float = None,
                 table: FrequencyTable = None, uniform_freq: float = None,
                 generators=None) -> Encoder:
    """Build an Encoder from a scheme name plus the parameters that apply.

    Table schemes take ``dim`` with either ``base`` (schedule, the default) or
    an explicit ``table``; uniform takes ``uniform_freq`` only; liere takes
    skew ``generators`` only and infers ``dim`` from them.  A parameter the
    scheme does not take raises ValueError.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if uniform_freq is not None and scheme != "uniform":
        raise ValueError("'uniform_freq' only applies to the uniform scheme")
    if scheme == "liere":
        gens = _skew_generators(generators)
        return Encoder("liere", gens[0].shape[0] if dim is None else dim, table, base, gens)
    if dim is None:
        raise ValueError(f"{scheme} needs an explicit dim")
    if scheme == "uniform":
        if base is not None or table is not None:
            raise ValueError("uniform takes 'uniform_freq' only")
        uf = 1.0 if uniform_freq is None else uniform_freq
        table = FrequencyTable.fixed("uniform", dim, uniform_freq=uf)
    elif table is None and base is None:
        base = DEFAULT_BASE
    return Encoder(scheme, dim, table, base, generators)


def encoder_to_config(enc: Encoder) -> dict:
    """The JSON-serialisable description of a (non-liere) encoder."""
    if enc.scheme == "liere":
        raise ValueError("liere encoders have no JSON config form (matrix-valued parameters)")
    cfg = {"scheme": enc.scheme, "dim": enc.dim, "axes": enc.axes}
    if enc.scheme == "uniform":
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
    if scheme not in SCHEMES or SCHEMES[scheme].table is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    dim = cfg["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if "axes" in cfg and cfg["axes"] != SCHEMES[scheme].axes:
        raise ValueError(f"{scheme} has {SCHEMES[scheme].axes} axes, config says {cfg['axes']}")
    if "base" in cfg and "freqs" in cfg:
        raise ValueError("config may carry 'base' or 'freqs', not both")
    if scheme == "uniform":
        if "base" in cfg or "freqs" in cfg:
            raise ValueError("uniform configs carry 'uniform_freq' only")
        return make_encoder("uniform", dim, uniform_freq=cfg.get("uniform_freq", 1.0))
    if "uniform_freq" in cfg:
        raise ValueError("'uniform_freq' only applies to the uniform scheme")
    if "freqs" in cfg:
        f = np.asarray(cfg["freqs"], dtype=float)
        table = FrequencyTable(SCHEMES[scheme].table, f)
        return make_encoder(scheme, dim, table=table)
    return make_encoder(scheme, dim, base=cfg.get("base", DEFAULT_BASE))


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
