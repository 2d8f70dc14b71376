"""Mechanical property checks with measured residuals.

Every check is a pure function of (trials, seed) returning a CheckReport;
reports serialize as JSON lines.  ``reduce_liere`` realizes the equivalence
theorem constructively, by the reduction a commuting liere encoder turns
through: M commuting generators reduce to one shared orthogonal
block-diagonalizing basis and an M-column mixed table (plain rotary pairs
with learned frequencies for one generator).

A check keeps only its trial kernel: ``_worst`` folds the kernel's residuals
into the largest, and ``_report`` states the check's tolerance and kind and
gives the one verdict.  A bound check passes when the residual stays at or
below its tolerance; a counterexample check passes when a violation LARGER
than its threshold is found.  A NaN residual propagates through the fold and
fails both kinds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .attention import score, scored_pair
from .encodings import (SCHEMES, Encoder, FrequencyTable, _reduce, _table_encode, frequency_schedule,
                        grad_frequencies, liere, make_encoder, spherical, spherical_fast)
from .linalg import JOINT_STRUCT_RTOL, _as_real, _integer, _real_scalar, _skew_generators, as_skew, block_diag_skew

EQUIVARIANCE_TOL = 1e-9
COUNTEREXAMPLE_TOL = 1e-4
SEPARABILITY_TOL = 1e-10
DEGENERACY_TOL = 1e-12
CONTRAST_TOL = 1e-3
SCORE_EQUIV_TOL = 1e-8
GRADIENT_TOL = 1e-5
ISOMETRY_TOL = 1e-10
FLOW_TOL = 1e-10
FAST_PATH_TOL = 1e-12


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    residual: float
    trials: int
    seed: int

    def __post_init__(self):
        # checks compare numpy scalars, which would leave np.bool_/np.float64
        # in the fields and break json.dumps
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    """The stream a check draws from, keyed by ``seed``, which is taken under
    the integer rule: a non-negative integer."""
    return np.random.default_rng(_integer("seed", seed, 0, what="a non-negative integer"))


def random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    """Skew matrix with standard-normal strictly-upper entries."""
    upper = np.triu(rng.standard_normal((n, n)), k=1)
    return upper - upper.T


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d


def commuting_generators(n: int, rng: np.random.Generator):
    """A random commuting generator pair: conjugated block-diagonal frequency
    matrices sharing one orthogonal eigenbasis (signed per-block frequencies)."""
    return _commuting(n, rng, 2)


def _commuting(n: int, rng: np.random.Generator, m: int) -> tuple:
    """``m`` commuting generators drawn as ``commuting_generators`` draws two."""
    u = random_orthogonal(n, rng)
    return tuple(as_skew(u @ block_diag_skew(rng.standard_normal(n // 2), n) @ u.T, atol=1e-9) for _ in range(m))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _commuting_liere(rng: np.random.Generator) -> Encoder:
    return make_encoder("liere", generators=commuting_generators(8, rng))


def _random_liere(rng: np.random.Generator) -> Encoder:
    return make_encoder("liere", generators=(random_skew(8, rng), random_skew(8, rng)))


# ---------------------------------------------------------------------------
# the residual fold and the verdict
# ---------------------------------------------------------------------------


def _worst(trials: int, rng: np.random.Generator, *kernels) -> float:
    """The largest ``kernel(rng)`` over ``trials`` draws of each kernel in
    turn.  A NaN residual propagates into the result, and no trials is an
    error rather than a vacuous residual of 0."""
    if _integer("trials", trials) < 1:
        raise ValueError("trials must be at least 1")
    return float(np.max([kernel(rng) for kernel in kernels for _ in range(trials)]))


def _report(name: str, worst: float, tol: float, trials: int, seed: int,
            counterexample: bool = False) -> CheckReport:
    """The one verdict: a bound check passes at ``worst <= tol``, a
    counterexample check at ``worst > tol``, so a NaN fails both."""
    return CheckReport(name, worst > tol if counterexample else worst <= tol, worst, trials, seed)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def shift_residual(encoder, z_q, z_k, p_q, p_k, s) -> float:
    """|score after shifting both positions by s - score before|."""
    base = scored_pair(encoder, z_q, z_k, p_q, p_k)
    moved = scored_pair(encoder, z_q, z_k, np.asarray(p_q) + s, np.asarray(p_k) + s)
    return abs(moved - base)


def _shift(encoder, rng) -> float:
    z_q = rng.standard_normal(encoder.dim)
    z_k = rng.standard_normal(encoder.dim)
    p_q, p_k, s = (rng.uniform(-np.pi, np.pi, encoder.axes) for _ in range(3))
    return shift_residual(encoder, z_q, z_k, p_q, p_k, s)


def check_equivariance(encoder, trials: int = 200, seed: int = 0,
                       name: str | None = None) -> CheckReport:
    """Attention scores must be invariant under a common position shift."""
    worst = _worst(trials, _rng(seed), partial(_shift, encoder))
    return _report(name or f"equivariance:{encoder.scheme}", worst, EQUIVARIANCE_TOL, trials, seed)


def check_non_equivariance(encoder, trials: int = 100, seed: int = 0,
                           name: str | None = None) -> CheckReport:
    """Passes when some trial violates shift-invariance beyond the threshold."""
    worst = _worst(trials, _rng(seed), partial(_shift, encoder))
    return _report(name or f"non-equivariance:{encoder.scheme}", worst, COUNTEREXAMPLE_TOL, trials, seed,
                   counterexample=True)


# ---------------------------------------------------------------------------
# theorem reductions
# ---------------------------------------------------------------------------


def reduced_score(z_q, z_k, p_q, p_k, table: FrequencyTable, basis: np.ndarray) -> float:
    """Score of basis-transformed inputs under per-pair rotations.

    Pairs are consecutive coordinates of ``basis.T @ z``; a trailing unpaired
    coordinate (odd dimension) passes through unrotated.  The pairs turn
    by the table scheme's own route: rope1d tables use angle f*p; mixed
    tables of M columns use sum_m f_m*p_m.
    """
    if table.scheme not in ("rope1d", "mixed"):
        raise ValueError(f"unsupported table scheme {table.scheme!r}")
    n2 = 2 * table.blocks

    def encode(z, p):
        y = basis.T @ _as_real(z, "token vectors")
        y[:n2] = _table_encode(table.scheme, y[:n2], p, table)
        return y

    return float(encode(z_q, p_q) @ encode(z_k, p_k))


def reduce_liere(*generators) -> tuple[FrequencyTable, np.ndarray]:
    """Rewrite M commuting skew generators as Mixed RoPE in a rotated basis.

    Returns ``(table, basis)`` with ``exp(sum_m p_m A_m) = basis @ R(p) @
    basis.T``, ``R`` the pair rotations of ``table`` (a rope1d table for
    one generator, an M-column mixed table for more; an odd dim's last
    coordinate is fixed), so generator scores equal the table's scores on
    basis-transformed inputs.  All generators are block-diagonalized by one
    orthogonal basis at ``JOINT_STRUCT_RTOL``; each 2-plane is oriented so
    that its first nonzero frequency is positive.  This is the reduction a
    commuting liere encoder turns through, at its own tighter tolerance.
    Raises ValueError for non-commuting generators and for a 1x1 generator,
    which has no rotation plane.
    """
    return _reduce(_skew_generators(generators), JOINT_STRUCT_RTOL)


def reduce_liere_1d(a) -> tuple[FrequencyTable, np.ndarray]:
    """``reduce_liere(a)``: one generator as plain rotary pairs."""
    return reduce_liere(a)


def reduce_liere_mixed(ax, ay) -> tuple[FrequencyTable, np.ndarray]:
    """``reduce_liere(ax, ay)``: a commuting pair as combined-angle pairs."""
    return reduce_liere(ax, ay)


# The reduction checks take the generator side from ``liere`` (one exponential
# per position), not from a liere Encoder: an encoder of commuting generators
# encodes via the joint canonical form, which would make the check circular.
# The encoder's score is then held to the same bound against that exponential.


def _reduction(gens, table, basis, enc, rng) -> float:
    z_q, z_k = rng.standard_normal(enc.dim), rng.standard_normal(enc.dim)
    p_q, p_k = rng.uniform(-np.pi, np.pi, (2, len(gens)))
    lhs = score(liere(z_q, p_q, gens), liere(z_k, p_k, gens))
    rhs = reduced_score(z_q, z_k, p_q, p_k, table, basis)
    via_encoder = scored_pair(enc, z_q, z_k, p_q, p_k)
    return np.maximum(abs(lhs - rhs), abs(via_encoder - lhs))


def _run_reduction(name, draw_generators, trials: int, seed: int, dim: int = 8, tuples: int = 20) -> CheckReport:
    def trial(rng):
        gens = draw_generators(dim, rng)
        table, basis = reduce_liere(*gens)
        enc = make_encoder("liere", generators=gens)
        return _worst(tuples, rng, partial(_reduction, gens, table, basis, enc))

    return _report(name, _worst(trials, _rng(seed), trial), SCORE_EQUIV_TOL, trials, seed)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def _separability(enc, rng) -> float:
    z_q, z_k = rng.standard_normal(enc.dim), rng.standard_normal(enc.dim)
    p_q = rng.uniform(-np.pi, np.pi, 2)
    p_k = rng.uniform(-np.pi, np.pi, 2)
    eq = enc.encode(z_q, p_q)
    ek = enc.encode(z_k, p_k)
    x_part = float(eq[0::4] @ ek[0::4] + eq[1::4] @ ek[1::4])
    y_part = float(eq[2::4] @ ek[2::4] + eq[3::4] @ ek[3::4])
    return abs(float(eq @ ek) - (x_part + y_part))


def check_axial_separability(trials: int = 100, seed: int = 0, dim: int = 16) -> CheckReport:
    """Total axial score must equal the x-pair plus y-pair partial scores."""
    worst = _worst(trials, _rng(seed), partial(_separability, make_encoder("axial", dim)))
    return _report("separability:axial", worst, SEPARABILITY_TOL, trials, seed)


def _antidiagonal(enc, rng) -> float:
    z = rng.standard_normal(enc.dim)
    a, b, t = rng.uniform(-np.pi, np.pi, 3)
    return np.linalg.norm(enc.encode(z, (a, b)) - enc.encode(z, (a + t, b - t)))


def check_trivial_degeneracy(trials: int = 100, seed: int = 0, dim: int = 16) -> CheckReport:
    """Summed-coordinate rotary encoding is constant along anti-diagonals."""
    enc = make_encoder("trivial2d", dim)
    worst = _worst(trials, _rng(seed), partial(_antidiagonal, enc))
    return _report("degeneracy:trivial2d", worst, DEGENERACY_TOL, trials, seed)


def check_mixed_antidiagonal(trials: int = 100, seed: int = 0, dim: int = 16) -> CheckReport:
    """Contrast: combined-angle pairs with distinct per-axis frequencies must
    NOT be anti-diagonal degenerate (passes when a violation is found)."""
    sched = frequency_schedule(dim // 2)
    table = FrequencyTable("mixed", np.column_stack([sched, 0.5 * sched]))
    enc = make_encoder("mixed", dim, table=table)
    worst = _worst(trials, _rng(seed), partial(_antidiagonal, enc))
    return _report("degeneracy:mixed-contrast", worst, CONTRAST_TOL, trials, seed, counterexample=True)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _table_score(scheme, z_q, z_k, p_q, p_k, table) -> float:
    return score(_table_encode(scheme, z_q, p_q, table), _table_encode(scheme, z_k, p_k, table))


def finite_difference_grad(scheme, z_q, z_k, p_q, p_k, table: FrequencyTable,
                           h: float = 1e-5) -> np.ndarray:
    """Central-difference d score / d freqs, entry by entry (a shared
    table's one parameter moves every entry together)."""
    f, layout, shared = table.freqs, SCHEMES[scheme].table, SCHEMES[scheme].shared
    steps = [np.ones_like(f)] if shared else np.eye(f.size).reshape((f.size,) + f.shape)
    grad = [(_table_score(scheme, z_q, z_k, p_q, p_k, FrequencyTable(layout, f + h * step))
             - _table_score(scheme, z_q, z_k, p_q, p_k, FrequencyTable(layout, f - h * step))) / (2 * h)
            for step in steps]
    return np.full_like(f, grad[0]) if shared else np.reshape(grad, f.shape)


def _gradient(encoder, rng) -> float:
    z_q = rng.standard_normal(encoder.dim)
    z_k = rng.standard_normal(encoder.dim)
    p_q = rng.uniform(-np.pi, np.pi, 2)
    p_k = rng.uniform(-np.pi, np.pi, 2)
    if encoder.axes == 1:
        p_q, p_k = p_q[0], p_k[0]
    analytic = grad_frequencies(encoder.scheme, z_q, z_k, p_q, p_k, encoder.table)
    numeric = finite_difference_grad(encoder.scheme, z_q, z_k, p_q, p_k, encoder.table)
    return np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3))


def check_gradients(encoder, trials: int = 100, seed: int = 0) -> CheckReport:
    """Analytic frequency gradients against central differences.

    Residual is the worst relative error with a small-denominator floor
    (entries below the floor are compared absolutely).
    """
    if SCHEMES[encoder.scheme].grad is None:
        raise ValueError(f"no frequency gradients for scheme {encoder.scheme!r}")
    worst = _worst(trials, _rng(seed), partial(_gradient, encoder))
    return _report(f"gradients:{encoder.scheme}", worst, GRADIENT_TOL, trials, seed)


# ---------------------------------------------------------------------------
# isometry, flow, fast path, locality
# ---------------------------------------------------------------------------

# every table scheme at its check dim: 12 for triples, 16 otherwise
_TABLE_CASES = tuple((s, 12 if spec.block == 3 else 16) for s, spec in SCHEMES.items() if spec.table)
_ABELIAN_SCHEMES = tuple(case for case in _TABLE_CASES if SCHEMES[case[0]].equivariant)
_NONABELIAN_SCHEMES = tuple(case for case in _TABLE_CASES if not SCHEMES[case[0]].equivariant)


def _isometry(enc, rng) -> float:
    z = rng.standard_normal(enc.dim)
    p = rng.uniform(-np.pi, np.pi, enc.axes)
    return abs(np.linalg.norm(enc.encode(z, p)) - np.linalg.norm(z)) / np.linalg.norm(z)


def check_isometry(trials: int = 100, seed: int = 0) -> CheckReport:
    """Every rotary encoder must preserve vector norms (relative residual)."""
    rng = _rng(seed)
    encoders = [make_encoder(s, d) for s, d in _TABLE_CASES] + [_random_liere(rng)]
    worst = _worst(trials, rng, *(partial(_isometry, enc) for enc in encoders))
    return _report("isometry:rotary", worst, ISOMETRY_TOL, trials, seed)


def _flow(enc, rng) -> float:
    z = rng.standard_normal(enc.dim)
    p1 = rng.uniform(-np.pi, np.pi, enc.axes)
    p2 = rng.uniform(-np.pi, np.pi, enc.axes)
    return np.max(np.abs(enc.encode(enc.encode(z, p1), p2) - enc.encode(z, p1 + p2)))


def check_flow(trials: int = 100, seed: int = 0) -> CheckReport:
    """encode(encode(z, p1), p2) == encode(z, p1+p2) for the abelian schemes."""
    rng = _rng(seed)
    encoders = [make_encoder(s, d) for s, d in _ABELIAN_SCHEMES] + [_commuting_liere(rng)]
    worst = _worst(trials, rng, *(partial(_flow, enc) for enc in encoders))
    return _report("flow:abelian", worst, FLOW_TOL, trials, seed)


def check_flow_counterexample(trials: int = 100, seed: int = 0) -> CheckReport:
    """The 3D-rotation scheme must violate the flow property somewhere."""
    worst = _worst(trials, _rng(seed), partial(_flow, make_encoder("spherical", 12)))
    return _report("flow:spherical-counterexample", worst, CONTRAST_TOL, trials, seed, counterexample=True)


def _fast_path(table, rng) -> float:
    z = rng.standard_normal(3 * table.blocks)
    p = rng.uniform(-np.pi, np.pi, 2)
    return np.max(np.abs(spherical(z, p, table) - spherical_fast(z, p, table)))


def check_fast_path(trials: int = 1000, seed: int = 0, dim: int = 12) -> CheckReport:
    """Elementwise pair-update route against the rotation-matrix route."""
    table = FrequencyTable.fixed("spherical", dim)
    worst = _worst(trials, _rng(seed), partial(_fast_path, table))
    return _report("fast-path:spherical", worst, FAST_PATH_TOL, trials, seed)


def locality_probe(encoder, max_shift: float, samples: int, draws: int = 32,
                   seed: int = 0, direction: int = 0) -> np.ndarray:
    """Mean |score| between matched random unit tokens as distance grows.

    Returns an array of length ``samples`` for shifts evenly spaced on
    [0, max_shift] along one axis; ``max_shift`` is a finite real value and
    ``samples``, ``draws`` and ``direction`` are integers.  Emitted for
    inspection only: rotary encodings are not local, so no decay to zero
    should be expected.
    """
    max_shift = _real_scalar(max_shift, "max_shift")
    if not np.isfinite(max_shift):
        raise ValueError(f"max_shift must be finite, got {max_shift}")
    samples = _integer("samples", samples, 1, what="a positive integer")
    draws = _integer("draws", draws, 1, what="a positive integer")
    direction = _integer("direction", direction, 0, encoder.axes, "an axis index in [0, {hi})")
    rng = _rng(seed)
    vecs = [_unit(rng.standard_normal(encoder.dim)) for _ in range(draws)]
    shifts = np.linspace(0.0, max_shift, samples) if samples > 1 else np.zeros(1)
    origin = np.zeros(encoder.axes)
    curve = np.empty(samples)
    for i, s in enumerate(shifts):
        p = origin.copy()
        p[direction] = s
        curve[i] = np.mean([abs(scored_pair(encoder, z, z, p, origin)) for z in vecs])
    return curve


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _on(check, build_encoder, name=None):
    """Registry runner: ``check`` on the encoder ``build_encoder(rng)``, with
    ``rng`` seeded like the check; the report is named ``name`` when given."""
    def run(trials, seed):
        enc = build_encoder(_rng(seed))
        return check(enc, trials, seed) if name is None else check(enc, trials, seed, name=name)

    return run


def _fixed(scheme, dim):
    """Encoder builder for a table scheme's default table; it draws nothing."""
    return lambda rng: make_encoder(scheme, dim)


# name -> (runner(trials, seed), default trials, included in default run); the per-scheme
# lines follow SCHEMES' order, so a new scheme's lines append and no seed offset moves
_REGISTRY = {
    **{f"equivariance:{s}": (_on(check_equivariance, _fixed(s, dim)), 200, True)
       for s, dim in _ABELIAN_SCHEMES},
    "equivariance:liere-commuting": (
        _on(check_equivariance, _commuting_liere, "equivariance:liere-commuting"), 200, True),
    **{f"non-equivariance:{s}": (_on(check_non_equivariance, _fixed(s, dim)), 100, True)
       for s, dim in _NONABELIAN_SCHEMES},
    "non-equivariance:liere-random": (
        _on(check_non_equivariance, _random_liere, "non-equivariance:liere-random"), 100, True),
    "separability:axial": (check_axial_separability, 100, True),
    "degeneracy:trivial2d": (check_trivial_degeneracy, 100, True),
    "degeneracy:mixed-contrast": (check_mixed_antidiagonal, 100, True),
    "reduction:liere-1d": (partial(_run_reduction, "reduction:liere-1d", lambda n, rng: (random_skew(n, rng),)),
                           10, True),
    "reduction:liere-mixed": (partial(_run_reduction, "reduction:liere-mixed", commuting_generators), 10, True),
    **{f"gradients:{s}": (_on(check_gradients, _fixed(s, dim)), 100, True)
       for s, dim in _TABLE_CASES if SCHEMES[s].table == s},
    "fast-path:spherical": (check_fast_path, 1000, True),
    "isometry:rotary": (check_isometry, 100, True),
    "flow:abelian": (check_flow, 100, True),
    "flow:spherical-counterexample": (check_flow_counterexample, 100, True),
    # deliberate demonstrations: asserting shift-invariance of a
    # non-commutative scheme fails; excluded from default runs
    **{f"equivariance:{s}-positive": (_on(check_equivariance, _fixed(s, dim), f"equivariance:{s}-positive"),
                                      100, False)
       for s, dim in _NONABELIAN_SCHEMES},
    # hidden until a benchmark change lists it: the reduction at M = 3
    "reduction:liere-3axis": (partial(_run_reduction, "reduction:liere-3axis", partial(_commuting, m=3)), 10, False),
}


def check_names(include_hidden: bool = False) -> list[str]:
    """Ordered names of the registered checks (default-run subset unless asked)."""
    return [n for n, (_, _, shown) in _REGISTRY.items() if shown or include_hidden]


def run_checks(names=None, seed: int = 0) -> list[CheckReport]:
    """Run the named checks (default: the standard suite) deterministically.

    ``names`` is a sequence of check names, not one string; ``seed`` is a
    non-negative integer.  Each check's stream is keyed by seed + its fixed
    registry index, so a subset run reproduces exactly the reports of the
    full run.
    """
    seed = _integer("seed", seed, 0, what="a non-negative integer")
    if isinstance(names, str):
        raise ValueError(f"names must be a list of check names, not the one string {names!r}")
    names = check_names() if names is None else list(names)
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown check name(s): {', '.join(unknown)}")
    index = {n: i for i, n in enumerate(_REGISTRY)}
    reports = []
    for n in names:
        runner, default_trials, _ = _REGISTRY[n]
        reports.append(runner(default_trials, seed + index[n]))
    return reports
