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

``sinusoidal_ape`` (additive sin/cos features) is included as the non-rotary
baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg

DEFAULT_BASE = 100.0

# scheme -> (block size, number of position axes)
SCHEMES = {
    "rope1d": (2, 1),
    "trivial2d": (2, 2),
    "axial": (4, 2),
    "mixed": (2, 2),
    "spherical": (3, 2),
    "uniform": (4, 2),
}

_TABLE_SCHEMES = ("rope1d", "axial", "mixed", "spherical", "uniform")

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
        if self.scheme not in _TABLE_SCHEMES:
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
        if scheme not in _TABLE_SCHEMES:
            raise ValueError(f"unknown frequency-table scheme {scheme!r}")
        block, axes = SCHEMES[scheme]
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


def _vector(z, block: int, blocks: int, what: str = "token vector") -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got shape {z.shape}")
    if z.shape[0] != block * blocks:
        raise ValueError(
            f"{what} length {z.shape[0]} does not match {blocks} blocks of size {block}"
        )
    return z


def _position(p, axes: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (axes,):
        raise ValueError(f"expected a position with {axes} coordinate(s), got shape {p.shape}")
    return p


def _rotate_pairs(z: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive coordinate pairs of ``z`` by per-pair ``angles``."""
    c, s = np.cos(angles), np.sin(angles)
    a, b = z[0::2], z[1::2]
    out = np.empty_like(z)
    out[0::2] = c * a - s * b
    out[1::2] = s * a + c * b
    return out


def rope1d(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate pair ``d`` of ``z`` by ``table.freqs[d, 0] * p``."""
    if table.axes != 1:
        raise ValueError(f"rope1d needs a 1-axis table, got {table.axes} axes")
    z = _vector(z, 2, table.blocks)
    p = _position(p, 1)
    return _rotate_pairs(z, table.freqs[:, 0] * p[0])


def trivial2d(z, p, table: FrequencyTable) -> np.ndarray:
    """2-D positions collapsed onto their coordinate sum, then rope1d.

    Any displacement along an anti-diagonal (t, -t) leaves the output unchanged,
    which is why this construction carries no genuinely 2-D information.
    """
    p = _position(p, 2)
    return rope1d(z, p[0] + p[1], table)


def axial(z, p, table: FrequencyTable) -> np.ndarray:
    """Per quadruple: rotate the leading pair by ``w_dx * p_x`` and the
    trailing pair by ``w_dy * p_y``."""
    if table.axes != 2:
        raise ValueError(f"axial needs a 2-axis table, got {table.axes} axes")
    z = _vector(z, 4, table.blocks)
    p = _position(p, 2)
    angles = np.empty(2 * table.blocks)
    angles[0::2] = table.freqs[:, 0] * p[0]
    angles[1::2] = table.freqs[:, 1] * p[1]
    return _rotate_pairs(z, angles)


def mixed(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate pair ``d`` by the mixed angle ``w_dx * p_x + w_dy * p_y``."""
    if table.axes != 2:
        raise ValueError(f"mixed needs a 2-axis table, got {table.axes} axes")
    z = _vector(z, 2, table.blocks)
    p = _position(p, 2)
    return _rotate_pairs(z, table.freqs[:, 0] * p[0] + table.freqs[:, 1] * p[1])


def uniform(z, p, freq: float = 1.0) -> np.ndarray:
    """Axial with the single shared frequency ``freq`` (exactly that code path)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] % 4 != 0 or z.shape[0] == 0:
        raise ValueError(f"uniform needs a 1-D vector with length divisible by 4, got shape {z.shape}")
    table = FrequencyTable("uniform", np.full((z.shape[0] // 4, 2), float(freq)))
    return axial(z, p, table)


def _yaw_batch(theta: np.ndarray) -> np.ndarray:
    """Stack of rotations of the (1,2)-plane of R^3, one per angle."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    m[..., 2, 2] = 1.0
    return m


def _roll_batch(theta: np.ndarray) -> np.ndarray:
    """Stack of rotations of the (2,3)-plane of R^3, one per angle."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = c
    m[..., 1, 2] = -s
    m[..., 2, 1] = s
    m[..., 2, 2] = c
    return m


def spherical(z, p, table: FrequencyTable) -> np.ndarray:
    """Rotate triple ``d`` by ``yaw(w_dx * p_x) @ roll(w_dy * p_y)``.

    The roll acts first.  Yaw and roll do not commute, so this family is not
    shift-equivariant; it trades that away for a 3-D rotation group per triple.
    """
    if table.axes != 2:
        raise ValueError(f"spherical needs a 2-axis table, got {table.axes} axes")
    z = _vector(z, 3, table.blocks)
    p = _position(p, 2)
    rot = _yaw_batch(table.freqs[:, 0] * p[0]) @ _roll_batch(table.freqs[:, 1] * p[1])
    return np.einsum("dij,dj->di", rot, z.reshape(-1, 3)).reshape(-1)


def spherical_fast(z, p, table: FrequencyTable) -> np.ndarray:
    """Elementwise route for ``spherical``: two in-place pair updates per triple,
    no 3x3 matrices.  Output matches ``spherical`` to a far tighter tolerance
    than the contractual 1e-12."""
    if table.axes != 2:
        raise ValueError(f"spherical needs a 2-axis table, got {table.axes} axes")
    z = _vector(z, 3, table.blocks)
    p = _position(p, 2)
    zz = z.reshape(-1, 3).copy()
    # roll: mix components 2 and 3 of each triple (simultaneous reads)
    cy, sy = np.cos(table.freqs[:, 1] * p[1]), np.sin(table.freqs[:, 1] * p[1])
    a, b = zz[:, 1].copy(), zz[:, 2].copy()
    zz[:, 1] = cy * a - sy * b
    zz[:, 2] = sy * a + cy * b
    # yaw: mix components 1 and 2
    cx, sx = np.cos(table.freqs[:, 0] * p[0]), np.sin(table.freqs[:, 0] * p[0])
    a, b = zz[:, 0].copy(), zz[:, 1].copy()
    zz[:, 0] = cx * a - sx * b
    zz[:, 1] = sx * a + cx * b
    return zz.reshape(-1)


def _liere_inputs(z, p, n: int, axes: int):
    z = np.asarray(z, dtype=float)
    if z.shape != (n,):
        raise ValueError(f"token vector shape {z.shape} does not match generator size {n}")
    p = _position(p, axes)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(p))):
        raise ValueError("liere token vector and position must be finite")
    return z, p


def liere(z, p, generators) -> np.ndarray:
    """``exp(sum_m p_m * A_m) @ z`` for skew-symmetric generators ``A_m``."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("liere needs at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("liere generators must share one square shape")
    z, p = _liere_inputs(z, p, n, len(gens))
    total = np.zeros((n, n))
    for coord, g in zip(p, gens):
        total += coord * g
    return linalg.matrix_exp(total) @ z


def _liere_reduced(z, p, basis: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``liere`` for commuting generators through their joint canonical form:
    ``basis @ R(freqs @ p) @ basis.T @ z``, a trailing odd coordinate fixed."""
    y = basis.T @ z
    k2 = 2 * freqs.shape[0]
    y[:k2] = _rotate_pairs(y[:k2], freqs @ p)
    return basis @ y


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
    x = _vector(x, 2, table.blocks, what="feature vector")
    p = _position(p, 1)
    pe = np.empty_like(x)
    pe[0::2] = np.sin(p[0] * table.freqs[:, 0])
    pe[1::2] = np.cos(p[0] * table.freqs[:, 0])
    return x + pe


# ---------------------------------------------------------------------------
# frequency gradients
# ---------------------------------------------------------------------------


def _pair_stats(zq: np.ndarray, zk: np.ndarray, stride: int, offset: int = 0):
    """Per-block dot and cross terms of paired coordinates at the given layout."""
    q1, q2 = zq[offset::stride], zq[offset + 1::stride]
    k1, k2 = zk[offset::stride], zk[offset + 1::stride]
    dot = q1 * k1 + q2 * k2
    cross = q2 * k1 - q1 * k2
    return dot, cross


_DYAW = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_DROLL = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def grad_frequencies(scheme: str, z_q, z_k, p_q, p_k, table: FrequencyTable) -> np.ndarray:
    """Closed-form ``d score / d freqs`` for the attention score between the
    encodings of ``(z_q, p_q)`` and ``(z_k, p_k)``.

    Returns an array shaped like ``table.freqs``.  For the uniform scheme every
    entry equals the chain-rule total for the one shared parameter.  Schemes
    without per-frequency parameters (trivial2d, liere) are unsupported.
    """
    if scheme not in ("rope1d", "axial", "mixed", "spherical", "uniform"):
        raise ValueError(f"grad_frequencies does not support scheme {scheme!r}")
    f = table.freqs

    if scheme == "rope1d":
        zq = _vector(z_q, 2, table.blocks)
        zk = _vector(z_k, 2, table.blocks)
        dq, dk = _position(p_q, 1)[0], _position(p_k, 1)[0]
        delta = dk - dq
        dot, cross = _pair_stats(zq, zk, 2)
        theta = f[:, 0] * delta
        g = delta * (-dot * np.sin(theta) + cross * np.cos(theta))
        return g[:, None]

    pq = _position(p_q, 2)
    pk = _position(p_k, 2)

    if scheme == "mixed":
        zq = _vector(z_q, 2, table.blocks)
        zk = _vector(z_k, 2, table.blocks)
        dx, dy = pk[0] - pq[0], pk[1] - pq[1]
        dot, cross = _pair_stats(zq, zk, 2)
        theta = f[:, 0] * dx + f[:, 1] * dy
        g = -dot * np.sin(theta) + cross * np.cos(theta)
        return np.column_stack([g * dx, g * dy])

    if scheme in ("axial", "uniform"):
        zq = _vector(z_q, 4, table.blocks)
        zk = _vector(z_k, 4, table.blocks)
        dx, dy = pk[0] - pq[0], pk[1] - pq[1]
        dot_x, cross_x = _pair_stats(zq, zk, 4, 0)
        dot_y, cross_y = _pair_stats(zq, zk, 4, 2)
        tx = f[:, 0] * dx
        ty = f[:, 1] * dy
        gx = dx * (-dot_x * np.sin(tx) + cross_x * np.cos(tx))
        gy = dy * (-dot_y * np.sin(ty) + cross_y * np.cos(ty))
        if scheme == "uniform":
            return np.full_like(f, np.sum(gx) + np.sum(gy))
        return np.column_stack([gx, gy])

    # spherical: score_d = q^T roll(aqy)^T yaw(akx - aqx) roll(aky) k per triple
    zq = _vector(z_q, 3, table.blocks).reshape(-1, 3)
    zk = _vector(z_k, 3, table.blocks).reshape(-1, 3)
    aqy, aky = f[:, 1] * pq[1], f[:, 1] * pk[1]
    dax = f[:, 0] * (pk[0] - pq[0])
    rq, rk = _roll_batch(aqy), _roll_batch(aky)
    yd = _yaw_batch(dax)
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


# ---------------------------------------------------------------------------
# encoder objects and JSON configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Encoder:
    """A scheme bound to its parameters, exposing ``encode(z, p)``.

    ``base`` records whether the table came from the geometric schedule (kept
    for exact config round-trips); explicit tables leave it None.  For liere
    with commuting generators, ``reduction`` holds their position-independent
    ``(basis, freqs)`` joint canonical form, derived from ``generators`` on
    construction, so ``encode`` costs two matrix-vector products instead of
    an exponential per position.
    """

    scheme: str
    dim: int
    table: FrequencyTable | None = None
    base: float | None = None
    uniform_freq: float | None = None
    generators: tuple = field(default=None, repr=False)
    reduction: tuple = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme == "liere":
            object.__setattr__(self, "reduction", _commuting_reduction(self.generators))

    @property
    def axes(self) -> int:
        if self.scheme == "liere":
            return len(self.generators)
        return SCHEMES[self.scheme][1]

    def encode(self, z, p) -> np.ndarray:
        if self.scheme == "rope1d":
            return rope1d(z, p, self.table)
        if self.scheme == "trivial2d":
            return trivial2d(z, p, self.table)
        if self.scheme in ("axial", "uniform"):
            return axial(z, p, self.table)
        if self.scheme == "mixed":
            return mixed(z, p, self.table)
        if self.scheme == "spherical":
            return spherical(z, p, self.table)
        if self.scheme == "liere":
            if self.reduction is None:
                return liere(z, p, self.generators)
            z, p = _liere_inputs(z, p, self.dim, self.axes)
            return _liere_reduced(z, p, *self.reduction)
        raise ValueError(f"unknown scheme {self.scheme!r}")

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
    block, _ = SCHEMES[scheme]
    if dim < block or dim % block != 0:
        raise ValueError(f"{scheme} needs dim divisible by {block}, got {dim}")

    if scheme == "uniform":
        if table is not None:
            raise ValueError("uniform takes uniform_freq, not an explicit table")
        uf = 1.0 if uniform_freq is None else float(uniform_freq)
        tbl = FrequencyTable.fixed("uniform", dim, uniform_freq=uf)
        return Encoder(scheme=scheme, dim=dim, table=tbl, uniform_freq=uf)

    table_scheme = "rope1d" if scheme == "trivial2d" else scheme
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
    tbl = FrequencyTable.fixed(table_scheme, dim, base=b)
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
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    dim = cfg["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if "axes" in cfg and cfg["axes"] != SCHEMES[scheme][1]:
        raise ValueError(f"{scheme} has {SCHEMES[scheme][1]} axes, config says {cfg['axes']}")
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
        table_scheme = "rope1d" if scheme == "trivial2d" else scheme
        table = FrequencyTable(table_scheme, f)
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
