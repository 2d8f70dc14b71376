"""Real skew-symmetric matrices: brackets, exponentials, block-canonical form.

Every rotation-style position encoding in this package is ``exp(A)`` for some
real skew-symmetric ``A``.  This module provides the shared machinery: exact
antisymmetrisation, the commutator test that decides which encodings are
abelian, and the orthogonal change of basis that rewrites any ``A`` as a direct
sum of 2x2 rotation generators ``[[0, -lam], [lam, 0]]`` (plus zero modes),
or does so for a commuting family of generators in one shared basis.

The canonical forms come from the Hermitian ``eigh`` of ``1j * A``, whose
complex eigenvectors carry the rotation planes.  ``matrix_exp`` needs no
planes: it takes ``exp(A)`` from the real SVD ``A = U diag(s) V^T`` as
``(V cos(s) + U sin(s)) V^T``, one real LAPACK call per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SKEW_ATOL = 1e-12          # construction-time antisymmetry tolerance
COMMUTE_RTOL = 1e-9        # default relative tolerance for is_commuting
ZERO_FREQ_RTOL = 1e-10     # lam <= ZERO_FREQ_RTOL * max(1, ||A||_F) counts as a zero mode
JOINT_STRUCT_RTOL = 1e-6   # off-block bound (relative) for a joint canonical form
_FLOAT64 = np.dtype(float)
_NDARRAY = np.ndarray
_INTEGER_TYPES = (int, np.integer)

# np.vdot without its __array_function__ dispatch (NEP 18's
# ``_implementation``), which this module's own ndarrays never need: about a
# third of the call on one encoded token.  numpy without the attribute
# keeps the dispatching function.
_vdot = getattr(np.vdot, "_implementation", np.vdot)

# generic mixing coefficients for the joint block-diagonalisation; if one
# produces frequency collisions the structure test fails and the next is tried
_GAMMAS = (0.6180339887498949, 1.7548776662466927, 0.1353352832366127)


def _as_real(x, what: str, order: str = "K") -> np.ndarray:
    """``x`` as a float64 array, the entry points' one dtype rule: what numpy
    casts to float64 under ``casting="same_kind"`` (bool, integer, real float)
    passes; complex, object (a None entry) or string input raises ValueError,
    as does a ragged nested sequence, naming ``what``.  An ndarray, which
    cannot be ragged, skips the conversion call, so a float64 array already
    in ``order`` is returned as it is."""
    if type(x) is not _NDARRAY:
        try:
            x = np.asarray(x)
        except ValueError as exc:  # numpy's "inhomogeneous shape", which names no input
            raise ValueError(f"{what} must be a rectangular array: {exc}") from None
    if x.dtype is not _FLOAT64 or order == "C" and not x.flags.c_contiguous:
        if x.dtype.kind not in "biuf":
            raise ValueError(f"{what} must be real (bool, integer or float), got dtype {x.dtype}")
        x = np.asarray(x, dtype=float, order=order)
    return x


def _real_scalar(x, what: str) -> float:
    """``x`` under ``_as_real``'s rule as one 0-d value, a Python float."""
    x = _as_real(x, what)
    if x.ndim != 0:
        raise ValueError(f"{what} must be a single value, got shape {x.shape}")
    return float(x)


def _integer(name: str, v, lo=-np.inf, hi=np.inf, what: str = "an integer") -> int:
    """``v`` as a Python int in ``[lo, hi)``, the entry points' one integer
    rule for counts, indices and seeds: a bool, a value of a non-integer type
    (a float, even a whole one) or one out of range raises ValueError,
    ``"{name} must be {what}"``, ``what`` formatted with ``lo`` and ``hi``
    only then."""
    if isinstance(v, bool) or not isinstance(v, _INTEGER_TYPES) or not lo <= v < hi:
        raise ValueError(f"{name} must be {what.format(lo=lo, hi=hi)}, got {v!r}")
    return v if type(v) is int else int(v)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` when it is read-only, else a read-only copy of it: a record
    freezes its own copy, never its caller's array."""
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _same(a, b) -> bool:
    """``_Record``'s equality of one field: arrays by ``np.array_equal``,
    tuples entry by entry, anything else by ``==``."""
    if isinstance(a, _NDARRAY):
        return isinstance(b, _NDARRAY) and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _hash_key(v):
    """A field as ``_Record`` hashes it: each array, in tuples too, by its shape."""
    if isinstance(v, _NDARRAY):
        return v.shape
    return tuple(map(_hash_key, v)) if isinstance(v, tuple) else v


class _Record:
    """The package's one value rule for a frozen dataclass that holds arrays,
    declared ``@dataclass(frozen=True, eq=False)`` so that it inherits it.

    Records compare by value over their ``compare=True`` fields (``_same``):
    a derived field, a cache or a store is declared ``compare=False`` and
    stays out.  The hash takes the same fields with each array replaced by
    its shape, so records equal under ``array_equal``, where ``-0.0 ==
    0.0``, hash alike.  A copy, deep copy or pickle rebuilds the record
    through its constructor from its init fields, so it obeys the
    constructor's rules again (read-only arrays, derived fields rebuilt,
    caches and stores empty and its own), and arrays shared between fields
    stay shared.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)

    def __hash__(self):
        return hash(tuple(_hash_key(getattr(self, f.name)) for f in fields(self) if f.compare))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def as_skew(a, atol: float = SKEW_ATOL) -> np.ndarray:
    """Validate near-antisymmetry and return the exactly antisymmetrised copy.

    Args:
        a: square array-like.
        atol: absolute entrywise bound on ``a + a.T``.

    Returns:
        ``0.5 * a - 0.5 * a.T``, which satisfies ``m.T == -m`` exactly.  The
        halves are taken first, so finite entries cannot overflow; for
        normal values this equals ``0.5 * (a - a.T)`` bit for bit.  An
        input that is already exactly skew (``a.T == -a``) keeps every
        nonzero entry, so the map is idempotent: halving an odd subnormal
        rounds, and the half-difference of an exactly skew matrix would
        move it.  Its zeros keep the half-difference's sign (``-G``'s
        ``-0.0`` diagonal comes back ``+0.0``).
    """
    a = _as_real(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    half = 0.5 * a
    worst = 2.0 * float(np.max(np.abs(half + half.T))) if a.size else 0.0
    if worst > atol:
        raise ValueError(
            f"matrix is not skew-symmetric: max |a + a.T| entry is {worst:.3e} > {atol:.1e}"
        )
    m = half - half.T
    if np.array_equal(a.T, -a):
        np.copyto(m, a, where=a != 0.0)
    return m


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of the float or complex array ``x`` is finite,
    exactly as ``np.isfinite(x).all()``.  A finite sum of squared
    magnitudes, one BLAS call, has only finite terms; only an array whose
    sum is not (a non-finite entry, or squares that overflow) takes the
    elementwise test.  ``np.vdot``, unlike ``dot`` or ``@``, does not warn
    when squares overflow; ``_vdot`` skips its dispatch, and ``math.isfinite``
    reads the numpy scalar without a numpy comparison."""
    return math.isfinite(_vdot(x, x).real) or np.isfinite(x).all()


def _skew_generators(generators) -> tuple:
    """One or more generators of one square shape, each antisymmetrised by
    ``as_skew``."""
    if generators is None or len(generators) == 0:
        raise ValueError("need at least one generator")
    gens = tuple(as_skew(g) for g in generators)
    if any(g.shape != gens[0].shape for g in gens):
        raise ValueError("generators must share one square shape")
    return gens


def commutator(a, b) -> np.ndarray:
    """Lie bracket ``[a, b] = a @ b - b @ a``, re-antisymmetrised exactly."""
    a = _as_real(a, "matrices")
    b = _as_real(b, "matrices")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    c = a @ b - b @ a
    # closure: the bracket of skew matrices is skew; kill the rounding residue
    return 0.5 * (c - c.T)


def is_commuting(a, b, rel_tol: float = COMMUTE_RTOL) -> bool:
    """True when ``||[a, b]||_F <= rel_tol * ||a||_F * ||b||_F``.

    A zero matrix commutes with everything, so either factor having zero norm
    short-circuits to True.
    """
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return True
    return float(np.linalg.norm(commutator(a, b))) <= rel_tol * na * nb


def block_diag_skew(freqs, n: int) -> np.ndarray:
    """Block-diagonal n x n skew matrix with one 2x2 rotation generator
    ``[[0, -f], [f, 0]]`` per frequency, zero past the last pair."""
    freqs = _as_real(freqs, "frequencies")
    if 2 * len(freqs) > n:
        raise ValueError("too many frequencies for the dimension")
    m = np.zeros((n, n))
    d = np.arange(len(freqs))
    m[2 * d, 2 * d + 1] = -freqs
    m[2 * d + 1, 2 * d] = freqs
    return m


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CanonicalForm(_Record):
    """Orthogonal block-diagonalisation of a skew matrix.

    ``basis`` is orthogonal with columns grouped as (u_0, v_0, u_1, v_1, ...)
    followed by a single leftover column when the dimension is odd;
    ``frequencies`` holds floor(n/2) values, sorted descending, zeros included.
    ``zero_modes`` is the kernel dimension of the original matrix.
    A value under ``_Record``'s rule, whose arrays stay writeable:
    ``_joint_canonical_form`` flips signs in its basis in place.
    """

    frequencies: np.ndarray
    basis: np.ndarray
    zero_modes: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def block_matrix(self) -> np.ndarray:
        """The direct sum blockdiag([[0, -lam_d], [lam_d, 0]], ...) padded to n x n."""
        return block_diag_skew(self.frequencies, self.dim)

    def reconstruct(self) -> np.ndarray:
        return self.basis @ self.block_matrix() @ self.basis.T


def _pair_columns(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Oriented 2-plane columns (u_0, v_0, u_1, ...) from the eigenvectors ``v``
    of ``1j * A`` for its positive eigenvalues.

    For ``1j * A @ w = lam * w`` with ``lam > 0`` and ``w = x + 1j * y``,
    ``A x = lam * y`` and ``A y = -lam * x``; ``w`` is orthogonal to its
    conjugate (eigenvalue ``-lam``), so ``sqrt(2) * (x, y)`` is orthonormal,
    and Hermitian orthogonality carries over across pairs, repeated ``lam``
    included.  Each ``w`` is phase-gauged so its largest entry is real
    positive, which fixes the in-plane rotation deterministically.

    The computed ``w`` and its conjugate are only as orthogonal as the gap
    ``2 * lam`` allows (1.5e-7 at ``lam = 1e-9`` and ``||A||_F`` about 4),
    so a QR pass with positive diagonal restores orthonormality; it moves
    columns that are already orthonormal only by roundoff.
    """
    big = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    w = v * (np.conj(big) / np.abs(big))
    cols = np.empty((v.shape[0], 2 * v.shape[1]))
    cols[:, 0::2] = np.sqrt(2.0) * w.real
    cols[:, 1::2] = np.sqrt(2.0) * w.imag
    if not cols.size:
        return cols
    q, r = np.linalg.qr(cols)
    return q * np.copysign(1.0, np.diag(r))


def canonical_form(a) -> CanonicalForm:
    """Orthogonally block-diagonalise a skew matrix into 2x2 rotation generators.

    ``1j * A`` is Hermitian, so ``np.linalg.eigh`` diagonalises it with a
    unitary eigenbasis.  Each eigenvalue ``lam`` above the zero threshold
    (descending) gives the oriented 2-plane ``(sqrt(2) Re w, sqrt(2) Im w)``
    of its eigenvector ``w``.  The zero modes span the real and imaginary
    parts of the remaining (kernel) eigenvectors: those are projected off the
    pair columns and their leading left singular vectors kept.

    Returns a CanonicalForm with ``A = basis @ block_matrix() @ basis.T``
    (up to roundoff) and frequencies sorted descending.
    """
    a = as_skew(a)
    n = a.shape[0]
    lam, v = np.linalg.eigh(1j * a)
    thr = ZERO_FREQ_RTOL * max(1.0, float(np.linalg.norm(a)))
    pairs = int(np.count_nonzero(lam[n - n // 2:] > thr))
    cols = _pair_columns(lam[n - pairs:][::-1], v[:, n - pairs:][:, ::-1])
    zero_modes = n - 2 * pairs
    if zero_modes:
        kernel = v[:, pairs:n - pairs]
        span = np.hstack([kernel.real, kernel.imag])
        span -= cols @ (cols.T @ span)
        left = np.linalg.svd(span, full_matrices=False)[0]
        cols = np.hstack([cols, left[:, :zero_modes]])
    freqs = np.zeros(n // 2)
    freqs[:pairs] = lam[n - pairs:][::-1]
    return CanonicalForm(frequencies=freqs, basis=cols, zero_modes=zero_modes)


def joint_canonical_form(generators, struct_rtol: float = JOINT_STRUCT_RTOL):
    """One orthogonal basis block-diagonalising pairwise-commuting skew generators.

    The canonical form of a generic combination ``sum_m gamma**m A_m`` is
    tried for each ``gamma`` in ``_GAMMAS``; the first whose basis leaves
    every ``basis.T @ A_m @ basis`` block diagonal to ``struct_rtol`` times
    the largest generator norm (at least 1) is kept.  Each 2-plane is
    oriented so that its first frequency above the zero threshold is
    positive, and planes are sorted by descending frequencies, first
    generator first.

    Returns ``(basis, freqs)`` with ``freqs`` of shape ``(n // 2, m)``, so
    ``exp(sum_m p_m A_m) = basis @ R(freqs @ p) @ basis.T`` where ``R``
    rotates consecutive coordinate pairs and fixes a trailing odd one.
    Raises ValueError for mismatched shapes or non-commuting generators and
    RuntimeError when no combination yields a shared block structure.
    """
    return _joint_canonical_form(_skew_generators(generators), struct_rtol)


def _joint_canonical_form(gens, struct_rtol: float):
    """``joint_canonical_form`` of a non-empty sequence of exactly skew
    generators of one shape, unvalidated."""
    n = gens[0].shape[0]
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if not is_commuting(g, h):
                raise ValueError("generators do not commute; no shared block structure exists")
    k = n // 2
    scale = max(1.0, *(float(np.linalg.norm(g)) for g in gens))
    in_block = np.zeros((n, n), dtype=bool)
    for d in range(k):
        in_block[2 * d:2 * d + 2, 2 * d:2 * d + 2] = True

    for gamma in _GAMMAS:
        basis = canonical_form(sum(gamma ** m * g for m, g in enumerate(gens))).basis
        blocks = [basis.T @ g @ basis for g in gens]
        if all(np.max(np.abs(b[~in_block]), initial=0.0) <= struct_rtol * scale for b in blocks):
            break
    else:
        raise RuntimeError("no generic combination produced a shared block structure")

    freqs = np.column_stack([np.diagonal(b, -1)[0::2] for b in blocks])
    live = np.abs(freqs) > ZERO_FREQ_RTOL * scale
    lead = freqs[np.arange(k), np.argmax(live, axis=1)]
    sign = np.where(live.any(axis=1) & (lead < 0.0), -1.0, 1.0)
    freqs = freqs * sign[:, None]
    basis[:, 1:2 * k:2] *= sign
    order = np.lexsort(-freqs[:, ::-1].T)  # last key (first generator) is primary
    cols = np.arange(n)
    cols[0:2 * k:2] = 2 * order
    cols[1:2 * k:2] = 2 * order + 1
    return basis[:, cols], freqs[order]


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------


def matrix_exp(a) -> np.ndarray:
    """exp(a) for skew ``a`` from its real singular value decomposition.

    A real skew ``a`` has ``a @ a = -a.T @ a``, so ``exp(a) = cos|a| +
    a sinc|a|`` with ``|a| = sqrt(a.T @ a)``; with ``a = U diag(s) V^T`` that
    is ``exp(a) = (V diag(cos s) + U diag(sin s)) V^T``.  The result is a
    rotation to within its orthogonality error: about ``eps`` at any norm
    when ``a``'s rotation frequencies are distinct, but only about ``eps *
    ||a||_2`` when one repeats (four or more equal singular values), as
    ``_exp_skew`` says.  Raises ValueError when the 2-norm ``||a||_2 =
    s_max`` overflows (finite entries near 1e308).
    """
    return _exp_skew(as_skew(a))


def _exp_skew(a: np.ndarray) -> np.ndarray:
    """``matrix_exp`` of each matrix in an (..., n, n) stack ``a`` that is
    already exactly skew, unvalidated: one stacked real ``svd``, whose
    working set is a few real (..., n, n) arrays.

    The singular values of a real skew matrix come in equal pairs (one per
    rotation plane), plus a zero for an odd ``n``.  The computed ones miss
    that by about ``eps * ||a||``, and so would the orthogonality of the
    result: 3e-10 at ``||a||_2 = 1e6``.  So each pair takes its first value,
    and values at numpy's ``matrix_rank`` tolerance ``n * eps * s_max`` are
    zero; both moves are within the decomposition's own rounding.  That
    keeps the result orthogonal to about ``eps`` at any norm while the
    frequencies are distinct.  A repeated frequency is a cluster of four or
    more equal values, inside which pairing the sorted values does not line
    the planes up, so there the result is orthogonal only to about ``eps *
    ||a||_2``: 3e-10 at 1e6 and 1.6e-6 at 1e10 for an n = 8 generator with
    frequencies (1, 1, 0.5, 0) in a random basis.  Every
    step after the ``svd`` is elementwise or per matrix, so a matrix's
    exponential does not depend on its stack.  A 2-norm that overflows
    (``s_max = inf``) raises ValueError before ``cos(inf)`` makes NaN.
    """
    u, s, vt = np.linalg.svd(a)
    top = s[..., :1]
    if not np.isfinite(top).all():
        raise ValueError("the skew exponential needs a finite 2-norm ||a||_2; it overflows")
    s[..., 1::2] = s[..., :-1:2]
    s *= s > a.shape[-1] * np.finfo(float).eps * top
    return (vt.swapaxes(-1, -2) * np.cos(s)[..., None, :] + u * np.sin(s)[..., None, :]) @ vt


def matrix_exp_series(a, term_tol: float = 1e-16) -> np.ndarray:
    """Scaling-and-squaring Taylor route for exp(a); independent of canonical_form.

    The argument is halved ``s = max(0, ceil(log2 ||a||_F))`` times, the Taylor
    series is summed until a term's Frobenius norm drops below ``term_tol``,
    and the result is squared ``s`` times.  Each squaring doubles the
    rounding error, so the result is orthogonal only to about ``eps *
    ||a||_F`` (1e-10 at 1e6): it is no rotation past ``||a||_F`` of about
    1e14 (1e-2 off), and from about 1e18 its squaring overflows with a
    RuntimeWarning.  It raises ValueError only when ``||a||_F`` itself
    overflows (finite entries near 1e154 or larger), so the reference is
    meant for moderate norms: the tests use it at ``||a||_2 <= 1e3``.
    """
    a = as_skew(a)
    n = a.shape[0]
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(a))
    if not np.isfinite(nrm):
        raise ValueError("matrix_exp_series needs a finite Frobenius norm ||a||_F; it overflows")
    if nrm == 0.0:
        return np.eye(n)
    s = max(0, int(np.ceil(np.log2(nrm))))
    b = a / (2.0 ** s)
    result = np.eye(n)
    term = np.eye(n)
    k = 1
    while k <= 80:
        term = term @ b / k
        result = result + term
        if float(np.linalg.norm(term)) < term_tol:
            break
        k += 1
    for _ in range(s):
        result = result @ result
    return result
