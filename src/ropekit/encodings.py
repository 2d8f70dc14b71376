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
``sum_m p_m W[m, j]``.  ``SCHEMES`` is the one registry of schemes.  Every
encoder takes token vectors of shape (..., dim) and positions of shape
(..., axes) whose leading shapes broadcast; one token is the ``()`` case.

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
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError(f"freqs must be a (blocks, axes) array, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("frequencies must all be finite")
        if self.scheme == "uniform" and f.size and not np.all(f == f.flat[0]):
            raise ValueError("uniform tables must hold a single shared frequency")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "freqs", f)

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
    """``z`` as a (..., dim) and ``p`` as a (..., axes) float array; a scalar
    position stands for one coordinate."""
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if z.ndim == 0 or z.shape[-1] != dim:
        raise ValueError(f"token vector shape {z.shape} does not end in length {dim}")
    if p.shape[-1] != axes:
        raise ValueError(f"expected positions with {axes} coordinate(s), got shape {p.shape}")
    return z, p


def _check_finite(z, p) -> None:
    if not (np.isfinite(z).all() and np.isfinite(p).all()):
        raise ValueError("liere token vector and position must be finite")


def _check_table(scheme: str, table: FrequencyTable) -> None:
    axes = SCHEMES[SCHEMES[scheme].table].axes
    if table is None or table.axes != axes:
        raise ValueError(f"{scheme} needs a {axes}-axis table, got {getattr(table, 'axes', None)} axes")


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


# index tuples built once: a literal ``[..., 0::2]`` is rebuilt on every call
_FIRST, _EVEN, _ODD = (..., slice(1)), (..., slice(0, None, 2)), (..., slice(1, None, 2))


def _angles(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_m p[..., m] * w[m]``, elementwise rather than a matmul, so every
    angle is the same whatever batch it is computed in."""
    a = p[_FIRST] * w[0]
    for m in range(1, len(w)):
        a += p[..., m:m + 1] * w[m]
    return a


def _rotate_pairs(z: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive coordinate pairs of ``z`` (..., 2k) by ``angles`` (..., k)."""
    c, s = np.cos(angles), np.sin(angles)
    a, b = z[_EVEN], z[_ODD]
    even = c * a - s * b
    out = np.empty(even.shape[:-1] + z.shape[-1:])
    out[_EVEN] = even
    out[_ODD] = s * a + c * b
    return out


def _rotate_triples(z: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Per triple ``d`` of ``z``: roll by ``angles[..., 2d + 1]``, then yaw by
    ``angles[..., 2d]``, as two pair updates with no 3x3 matrices."""
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


_YAW, _ROLL = (0, 1), (1, 2)  # the (1,2)- and (2,3)-planes of R^3


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
    rot = (_plane_rotations(p[..., :1] * table.freqs[:, 0], *_YAW)
           @ _plane_rotations(p[..., 1:] * table.freqs[:, 1], *_ROLL))
    out = np.einsum("...dij,...dj->...di", rot, z.reshape(z.shape[:-1] + (table.blocks, 3)))
    return out.reshape(out.shape[:-2] + (3 * table.blocks,))


def spherical_fast(z, p, table: FrequencyTable) -> np.ndarray:
    """Elementwise route for ``spherical``: two pair updates per triple, no
    3x3 matrices.  Output matches ``spherical`` to a far tighter tolerance
    than the contractual 1e-12."""
    _check_table("spherical", table)
    z, p = _inputs(z, p, 3 * table.blocks, 2)
    return _rotate_triples(z, _angles(p, _angle_matrix(table.freqs, 3)))


def liere(z, p, generators) -> np.ndarray:
    """``exp(sum_m p_m * A_m) @ z`` for skew-symmetric generators ``A_m``,
    one exponential per position of the broadcast leading shape."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("liere needs at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("liere generators must share one square shape")
    z, p = _inputs(z, p, n, len(gens))
    _check_finite(z, p)
    if z.ndim == p.ndim == 1:
        return _exp_apply(z, p, gens)
    out = np.empty(np.broadcast(z[..., 0], p[..., 0]).shape + (n,))
    zs, ps = np.broadcast_to(z, out.shape), np.broadcast_to(p, out.shape[:-1] + p.shape[-1:])
    for i in np.ndindex(out.shape[:-1]):
        out[i] = _exp_apply(zs[i], ps[i], gens)
    return out


def _exp_apply(z, p, gens) -> np.ndarray:
    return linalg.matrix_exp(sum(coord * g for coord, g in zip(p, gens))) @ z


def _encode_liere(enc, z, p):
    if enc.reduction is None:
        return liere(z, p, enc.generators)
    _check_finite(z, p)
    return _liere_reduced(z, p, *enc.reduction)


def _liere_reduced(z, p, basis: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``liere`` for commuting generators through their joint canonical form:
    the pairs of ``z @ basis`` turn by ``freqs @ p`` and ``basis.T`` maps them
    back; the coordinates past the pairs (an odd dimension's last) are fixed."""
    y = z @ basis
    k2 = 2 * len(freqs)
    return (_rotate_pairs(y[..., :k2], _angles(p, freqs.T)) @ basis[:, :k2].T
            + y[..., k2:] @ basis[:, k2:].T)


def _commuting_reduction(generators):
    """The joint ``(basis, freqs)`` of pairwise-commuting generators, or None
    when they do not commute or share no block structure."""
    gens = [linalg.as_skew(g) for g in generators]
    if not all(linalg.is_commuting(g, h) for i, g in enumerate(gens) for h in gens[i + 1:]):
        return None
    try:
        return linalg.joint_canonical_form(gens, struct_rtol=_REDUCED_STRUCT_RTOL)
    except RuntimeError:  # no generic combination gives a shared block structure
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
# frequency gradients: grad(z_q, z_k, p_q, p_k, freqs) on one checked token
# ---------------------------------------------------------------------------


def _grad_pairs(zq, zk, pq, pk, f):
    # score = sum_j dot_j cos(theta_j) - cross_j sin(theta_j) over the pairs,
    # theta = W^T (p_k - p_q); an axial quadruple is an x-pair then a y-pair
    d = pk - pq
    q1, q2, k1, k2 = zq[0::2], zq[1::2], zk[0::2], zk[1::2]
    theta = _angles(d, _angle_matrix(f, len(zq) // len(f)))
    g = -(q1 * k1 + q2 * k2) * np.sin(theta) + (q2 * k1 - q1 * k2) * np.cos(theta)
    return g.reshape(len(f), -1) * d


def _grad_uniform(zq, zk, pq, pk, f):
    g = _grad_pairs(zq, zk, pq, pk, f)
    return np.full_like(f, np.sum(g[:, 0]) + np.sum(g[:, 1]))


_DYAW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_DROLL = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _grad_spherical(zq, zk, pq, pk, f):
    # score_d = q^T roll(aqy)^T yaw(akx - aqx) roll(aky) k per triple
    zq, zk = zq.reshape(-1, 3), zk.reshape(-1, 3)
    aqy, aky = f[:, 1] * pq[1], f[:, 1] * pk[1]
    dax = f[:, 0] * (pk[0] - pq[0])
    rq, rk = _plane_rotations(aqy, *_ROLL), _plane_rotations(aky, *_ROLL)
    yd = _plane_rotations(dax, *_YAW)
    dyd = yd @ _DYAW          # d/dtheta yaw(theta) = yaw(theta) @ G_yaw
    drq = rq @ _DROLL
    drk = rk @ _DROLL
    left = np.einsum("dij,dj->di", rq, zq)          # q^T roll(aqy)^T == (roll(aqy) q)^T
    right = np.einsum("dij,dj->di", rk, zk)
    gx = (pk[0] - pq[0]) * np.einsum("di,dij,dj->d", left, dyd, right)
    left_d = np.einsum("dij,dj->di", drq, zq)
    right_d = np.einsum("dij,dj->di", drk, zk)
    gy = pq[1] * np.einsum("di,dij,dj->d", left_d, yd, right) \
        + pk[1] * np.einsum("di,dij,dj->d", left, yd, right_d)
    return np.column_stack([gx, gy])


def grad_frequencies(scheme: str, z_q, z_k, p_q, p_k, table: FrequencyTable) -> np.ndarray:
    """Closed-form ``d score / d freqs`` for the attention score between the
    encodings of ``(z_q, p_q)`` and ``(z_k, p_k)``.

    Returns an array shaped like ``table.freqs``.  For the uniform scheme every
    entry equals the chain-rule total for the one shared parameter.  Schemes
    without per-frequency parameters (trivial2d, liere) are unsupported.
    """
    spec = SCHEMES.get(scheme)
    if spec is None or spec.grad is None:
        raise ValueError(f"grad_frequencies does not support scheme {scheme!r}")
    _check_table(scheme, table)
    zq, pq = _inputs(z_q, p_q, spec.block * table.blocks, spec.axes)
    zk, pk = _inputs(z_k, p_k, spec.block * table.blocks, spec.axes)
    if max(zq.ndim, zk.ndim, pq.ndim, pk.ndim) > 1:
        raise ValueError("grad_frequencies takes one query and one key token")
    return spec.grad(zq, zk, pq, pk, table.freqs)


# ---------------------------------------------------------------------------
# the scheme registry
# ---------------------------------------------------------------------------


class Scheme(NamedTuple):
    """One scheme: coordinates per rotation block, position axes, the
    FrequencyTable layout it reads (None for liere, whose generators set the
    block and axes), ``encode(encoder, z, p)`` on checked (..., dim) and
    (..., axes) arrays, and the closed-form frequency gradient or None."""

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

    ``base`` records whether the table came from the geometric schedule (kept
    for exact config round-trips); explicit tables leave it None.  Both
    position-independent forms are derived on construction: ``weights``, the
    angle matrix ``W`` of a table scheme, and for liere with commuting
    generators ``reduction``, their ``(basis, freqs)`` joint canonical form,
    so that ``encode`` costs two matrix products instead of an exponential
    per position.
    """

    scheme: str
    dim: int
    table: FrequencyTable | None = None
    base: float | None = None
    uniform_freq: float | None = None
    generators: tuple = field(default=None, repr=False)
    weights: np.ndarray = field(init=False, default=None, repr=False, compare=False)
    reduction: tuple = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        spec = SCHEMES.get(self.scheme)
        if spec is None:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "liere":
            object.__setattr__(self, "reduction", _commuting_reduction(self.generators))
        else:
            _check_table(self.scheme, self.table)
            object.__setattr__(self, "weights", _angle_matrix(self.table.freqs, spec.block))

    @property
    def axes(self) -> int:
        return SCHEMES[self.scheme].axes or len(self.generators)

    def encode(self, z, p) -> np.ndarray:
        """Encode tokens ``z`` of shape (..., dim) at positions ``p`` of shape
        (..., axes), the leading shapes broadcasting.  One token, shapes
        (dim,) and (axes,) (a scalar on one axis), gives shape (dim,)."""
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
    """Build an Encoder from a scheme name plus whichever parameters apply.

    Table schemes take ``dim`` with either ``base`` (schedule, the default) or
    an explicit ``table``; uniform takes ``uniform_freq``; liere takes skew
    ``generators`` and infers ``dim`` from them.
    """
    if scheme == "liere":
        if generators is None or len(generators) == 0:
            raise ValueError("liere needs generators")
        gens = tuple(linalg.as_skew(g) for g in generators)
        n = gens[0].shape[0]
        for g in gens:
            if g.shape != (n, n):
                raise ValueError("liere generators must share one square shape")
        if dim is not None and dim != n:
            raise ValueError(f"dim {dim} does not match generator size {n}")
        return Encoder(scheme="liere", dim=n, generators=gens)

    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if dim is None:
        raise ValueError(f"{scheme} needs an explicit dim")
    block = SCHEMES[scheme].block
    if dim < block or dim % block != 0:
        raise ValueError(f"{scheme} needs dim divisible by {block}, got {dim}")

    if scheme == "uniform":
        if table is not None:
            raise ValueError("uniform takes uniform_freq, not an explicit table")
        uf = 1.0 if uniform_freq is None else float(uniform_freq)
        tbl = FrequencyTable.fixed("uniform", dim, uniform_freq=uf)
        return Encoder(scheme=scheme, dim=dim, table=tbl, uniform_freq=uf)

    if table is not None:
        if base is not None:
            raise ValueError("pass either base or an explicit table, not both")
        expect_blocks = dim // block
        if table.blocks != expect_blocks:
            raise ValueError(
                f"table has {table.blocks} blocks, {scheme} at dim {dim} needs {expect_blocks}"
            )
        return Encoder(scheme=scheme, dim=dim, table=table)
    b = DEFAULT_BASE if base is None else float(base)
    tbl = FrequencyTable.fixed(SCHEMES[scheme].table, dim, base=b)
    return Encoder(scheme=scheme, dim=dim, table=tbl, base=b)


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
