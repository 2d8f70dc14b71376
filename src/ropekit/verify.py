"""Mechanical property checks with measured residuals.

Every check is a pure function of (trials, seed) returning a CheckReport;
reports serialize as JSON lines.  The two reduction routines realize the
equivalence theorems constructively: a one-axis generator reduces to plain
rotary pairs with learned frequencies, and a commuting generator pair
reduces to per-pair combined-angle rotations, both via a shared orthogonal
block-diagonalizing basis.

Counterexample checks (the ``non-equivariance:*`` and ``*-counterexample``
names) pass when a violation LARGER than the threshold is found; all other
checks pass when the residual stays below tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .attention import score, scored_pair
from .encodings import (SCHEMES, Encoder, FrequencyTable, _angles, _rotate_pairs, frequency_schedule,
                        grad_frequencies, liere, make_encoder, spherical, spherical_fast)
from .linalg import as_skew, block_diag_skew, joint_canonical_form

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
        return json.dumps(
            {"name": self.name, "passed": self.passed, "residual": self.residual,
             "trials": self.trials, "seed": self.seed}
        )


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


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
    u = random_orthogonal(n, rng)
    k = n // 2
    ax = u @ block_diag_skew(rng.standard_normal(k), n) @ u.T
    ay = u @ block_diag_skew(rng.standard_normal(k), n) @ u.T
    return as_skew(ax, atol=1e-9), as_skew(ay, atol=1e-9)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def shift_residual(encoder, z_q, z_k, p_q, p_k, s) -> float:
    """|score after shifting both positions by s - score before|."""
    base = scored_pair(encoder, z_q, z_k, p_q, p_k)
    moved = scored_pair(encoder, z_q, z_k, np.asarray(p_q) + s, np.asarray(p_k) + s)
    return abs(moved - base)


def _worst_shift_residual(encoder, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    axes = encoder.axes
    worst = 0.0
    for _ in range(trials):
        z_q = rng.standard_normal(encoder.dim)
        z_k = rng.standard_normal(encoder.dim)
        p_q = rng.uniform(-np.pi, np.pi, axes)
        p_k = rng.uniform(-np.pi, np.pi, axes)
        s = rng.uniform(-np.pi, np.pi, axes)
        worst = max(worst, shift_residual(encoder, z_q, z_k, p_q, p_k, s))
    return worst


def check_equivariance(encoder, trials: int = 200, seed: int = 0,
                       name: str | None = None) -> CheckReport:
    """Attention scores must be invariant under a common position shift."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    residual = _worst_shift_residual(encoder, trials, seed)
    return CheckReport(name or f"equivariance:{encoder.scheme}",
                       residual <= EQUIVARIANCE_TOL, residual, trials, seed)


def check_non_equivariance(encoder, trials: int = 100, seed: int = 0,
                           name: str | None = None) -> CheckReport:
    """Passes when some trial violates shift-invariance beyond the threshold."""
    residual = _worst_shift_residual(encoder, trials, seed)
    return CheckReport(name or f"non-equivariance:{encoder.scheme}",
                       residual > COUNTEREXAMPLE_TOL, residual, trials, seed)


# ---------------------------------------------------------------------------
# theorem reductions
# ---------------------------------------------------------------------------


def reduced_score(z_q, z_k, p_q, p_k, table: FrequencyTable, basis: np.ndarray) -> float:
    """Score of basis-transformed inputs under per-pair rotations.

    Pairs are consecutive coordinates of ``basis.T @ z``; a trailing unpaired
    coordinate (odd dimension) passes through unrotated.  rope1d tables use
    angle f*p; mixed tables use f_x*p_x + f_y*p_y.
    """
    if table.scheme not in ("rope1d", "mixed"):
        raise ValueError(f"unsupported table scheme {table.scheme!r}")
    n2 = 2 * table.blocks

    def encode(z, p):
        y = basis.T @ np.asarray(z, dtype=float)
        y[:n2] = _rotate_pairs(y[:n2], _angles(np.atleast_1d(np.asarray(p, dtype=float)), table.freqs.T))
        return y

    return float(encode(z_q, p_q) @ encode(z_k, p_k))


def reduce_liere_1d(a) -> tuple[FrequencyTable, np.ndarray]:
    """Rewrite a one-axis generator as plain rotary pairs in a rotated basis.

    Returns (table, basis) with exp(a*p) = basis @ pair-rotations @ basis.T,
    so generator scores equal rope1d scores on basis-transformed inputs.
    """
    basis, freqs = joint_canonical_form([a])
    return FrequencyTable("rope1d", freqs), basis


def reduce_liere_mixed(ax, ay) -> tuple[FrequencyTable, np.ndarray]:
    """Joint reduction of a commuting generator pair to combined-angle pairs.

    Both generators are block-diagonalized by one orthogonal basis; each
    2-plane's orientation is gauged by the first generator's action (falling
    back to the second on its kernel), making f_x >= 0 and f_y signed.
    Raises ValueError for non-commuting inputs.
    """
    basis, freqs = joint_canonical_form([ax, ay])
    return FrequencyTable("mixed", freqs), basis


# The reduction checks take the generator side from ``liere`` (one exponential
# per position), not from a liere Encoder: an encoder of commuting generators
# encodes via the joint canonical form, which would make the check circular.
# The encoder's score is then held to the same bound against that exponential.


def _run_reduction(name, draw_generators, reduce, trials: int, seed: int, dim: int = 8,
                  tuples: int = 20) -> CheckReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        gens = draw_generators(dim, rng)
        table, basis = reduce(*gens)
        enc = make_encoder("liere", generators=gens)
        for _ in range(tuples):
            z_q, z_k = rng.standard_normal(dim), rng.standard_normal(dim)
            p_q, p_k = rng.uniform(-np.pi, np.pi, (2, len(gens)))
            lhs = score(liere(z_q, p_q, gens), liere(z_k, p_k, gens))
            rhs = reduced_score(z_q, z_k, p_q, p_k, table, basis)
            via_encoder = scored_pair(enc, z_q, z_k, p_q, p_k)
            worst = max(worst, abs(lhs - rhs), abs(via_encoder - lhs))
    return CheckReport(name, worst <= SCORE_EQUIV_TOL, worst, trials, seed)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def check_axial_separability(trials: int = 100, seed: int = 0, dim: int = 16) -> CheckReport:
    """Total axial score must equal the x-pair plus y-pair partial scores."""
    rng = np.random.default_rng(seed)
    enc = make_encoder("axial", dim)
    worst = 0.0
    for _ in range(trials):
        z_q, z_k = rng.standard_normal(dim), rng.standard_normal(dim)
        p_q = rng.uniform(-np.pi, np.pi, 2)
        p_k = rng.uniform(-np.pi, np.pi, 2)
        eq = enc.encode(z_q, p_q)
        ek = enc.encode(z_k, p_k)
        x_part = float(eq[0::4] @ ek[0::4] + eq[1::4] @ ek[1::4])
        y_part = float(eq[2::4] @ ek[2::4] + eq[3::4] @ ek[3::4])
        worst = max(worst, abs(float(eq @ ek) - (x_part + y_part)))
    return CheckReport("separability:axial", worst <= SEPARABILITY_TOL, worst, trials, seed)


def _worst_antidiagonal_change(enc, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(enc.dim)
        a, b, t = rng.uniform(-np.pi, np.pi, 3)
        d = enc.encode(z, (a, b)) - enc.encode(z, (a + t, b - t))
        worst = max(worst, float(np.linalg.norm(d)))
    return worst


def check_trivial_degeneracy(trials: int = 100, seed: int = 0, dim: int = 16) -> CheckReport:
    """Summed-coordinate rotary encoding is constant along anti-diagonals."""
    worst = _worst_antidiagonal_change(make_encoder("trivial2d", dim), trials, seed)
    return CheckReport("degeneracy:trivial2d", worst <= DEGENERACY_TOL, worst, trials, seed)


def check_mixed_antidiagonal(trials: int = 100, seed: int = 0, dim: int = 16) -> CheckReport:
    """Contrast: combined-angle pairs with distinct per-axis frequencies must
    NOT be anti-diagonal degenerate (passes when a violation is found)."""
    sched = frequency_schedule(dim // 2)
    table = FrequencyTable("mixed", np.column_stack([sched, 0.5 * sched]))
    worst = _worst_antidiagonal_change(make_encoder("mixed", dim, table=table), trials, seed)
    return CheckReport("degeneracy:mixed-contrast", worst > CONTRAST_TOL, worst, trials, seed)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _table_score(scheme, z_q, z_k, p_q, p_k, table) -> float:
    return scored_pair(Encoder(scheme, len(z_q), table), z_q, z_k, p_q, p_k)


def finite_difference_grad(scheme, z_q, z_k, p_q, p_k, table: FrequencyTable,
                           h: float = 1e-5) -> np.ndarray:
    """Central-difference d score / d freqs, entry by entry (the uniform
    scheme's one shared parameter moves every entry together)."""
    f = np.asarray(table.freqs)
    if scheme == "uniform":
        up = FrequencyTable("uniform", f + h)
        dn = FrequencyTable("uniform", f - h)
        val = (_table_score(scheme, z_q, z_k, p_q, p_k, up)
               - _table_score(scheme, z_q, z_k, p_q, p_k, dn)) / (2 * h)
        return np.full_like(f, val)
    out = np.zeros_like(f)
    for d in range(f.shape[0]):
        for m in range(f.shape[1]):
            fp, fm = f.copy(), f.copy()
            fp[d, m] += h
            fm[d, m] -= h
            out[d, m] = (_table_score(scheme, z_q, z_k, p_q, p_k, FrequencyTable(scheme, fp))
                         - _table_score(scheme, z_q, z_k, p_q, p_k, FrequencyTable(scheme, fm))) / (2 * h)
    return out


def check_gradients(encoder, trials: int = 100, seed: int = 0) -> CheckReport:
    """Analytic frequency gradients against central differences.

    Residual is the worst relative error with a small-denominator floor
    (entries below the floor are compared absolutely).
    """
    scheme = encoder.scheme
    if SCHEMES[scheme].grad is None:
        raise ValueError(f"no frequency gradients for scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    table = encoder.table
    worst = 0.0
    for _ in range(trials):
        z_q = rng.standard_normal(encoder.dim)
        z_k = rng.standard_normal(encoder.dim)
        p_q = rng.uniform(-np.pi, np.pi, 2)
        p_k = rng.uniform(-np.pi, np.pi, 2)
        if encoder.axes == 1:
            p_q, p_k = p_q[0], p_k[0]
        analytic = grad_frequencies(scheme, z_q, z_k, p_q, p_k, table)
        numeric = finite_difference_grad(scheme, z_q, z_k, p_q, p_k, table)
        err = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3)
        worst = max(worst, float(np.max(err)))
    return CheckReport(f"gradients:{scheme}", worst <= GRADIENT_TOL, worst, trials, seed)


# ---------------------------------------------------------------------------
# isometry, flow, fast path, locality
# ---------------------------------------------------------------------------

_ISOMETRY_SCHEMES = tuple((s, 12 if spec.block == 3 else 16) for s, spec in SCHEMES.items() if spec.table)
_ABELIAN_SCHEMES = tuple(case for case in _ISOMETRY_SCHEMES if case[0] != "spherical")


def check_isometry(trials: int = 100, seed: int = 0) -> CheckReport:
    """Every rotary encoder must preserve vector norms (relative residual)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    encoders = [make_encoder(s, d) for s, d in _ISOMETRY_SCHEMES]
    encoders.append(make_encoder("liere", generators=tuple(random_skew(8, rng) for _ in range(2))))
    for enc in encoders:
        for _ in range(trials):
            z = rng.standard_normal(enc.dim)
            p = rng.uniform(-np.pi, np.pi, enc.axes)
            out = enc.encode(z, p)
            worst = max(worst, abs(np.linalg.norm(out) - np.linalg.norm(z)) / np.linalg.norm(z))
    return CheckReport("isometry:rotary", worst <= ISOMETRY_TOL, worst, trials, seed)


def _worst_flow_change(enc, trials: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(enc.dim)
        p1 = rng.uniform(-np.pi, np.pi, enc.axes)
        p2 = rng.uniform(-np.pi, np.pi, enc.axes)
        d = enc.encode(enc.encode(z, p1), p2) - enc.encode(z, p1 + p2)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def check_flow(trials: int = 100, seed: int = 0) -> CheckReport:
    """encode(encode(z, p1), p2) == encode(z, p1+p2) for the abelian schemes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    encoders = [make_encoder(s, d) for s, d in _ABELIAN_SCHEMES]
    encoders.append(make_encoder("liere", generators=commuting_generators(8, rng)))
    for enc in encoders:
        worst = max(worst, _worst_flow_change(enc, trials, rng))
    return CheckReport("flow:abelian", worst <= FLOW_TOL, worst, trials, seed)


def check_flow_counterexample(trials: int = 100, seed: int = 0) -> CheckReport:
    """The 3D-rotation scheme must violate the flow property somewhere."""
    worst = _worst_flow_change(make_encoder("spherical", 12), trials, np.random.default_rng(seed))
    return CheckReport("flow:spherical-counterexample", worst > CONTRAST_TOL, worst, trials, seed)


def check_fast_path(trials: int = 1000, seed: int = 0, dim: int = 12) -> CheckReport:
    """Elementwise pair-update route against the rotation-matrix route."""
    rng = np.random.default_rng(seed)
    table = FrequencyTable.fixed("spherical", dim)
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(dim)
        p = rng.uniform(-np.pi, np.pi, 2)
        d = spherical(z, p, table) - spherical_fast(z, p, table)
        worst = max(worst, float(np.max(np.abs(d))))
    return CheckReport("fast-path:spherical", worst <= FAST_PATH_TOL, worst, trials, seed)


def locality_probe(encoder, max_shift: float, samples: int, draws: int = 32,
                   seed: int = 0, direction: int = 0) -> np.ndarray:
    """Mean |score| between matched random unit tokens as distance grows.

    Returns an array of length ``samples`` for shifts evenly spaced on
    [0, max_shift] along one axis.  Emitted for inspection only: rotary
    encodings are not local, so no decay to zero should be expected.
    """
    if samples < 1 or draws < 1:
        raise ValueError("samples and draws must be at least 1")
    rng = np.random.default_rng(seed)
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


def _equivariance_runner(scheme, dim):
    def run(trials, seed):
        return check_equivariance(make_encoder(scheme, dim), trials, seed)

    return run


def _run_equivariance_liere_commuting(trials, seed):
    rng = np.random.default_rng(seed)
    enc = make_encoder("liere", generators=commuting_generators(8, rng))
    return check_equivariance(enc, trials, seed, name="equivariance:liere-commuting")


def _run_non_equivariance_spherical(trials, seed):
    return check_non_equivariance(make_encoder("spherical", 12), trials, seed)


def _run_non_equivariance_liere_random(trials, seed):
    rng = np.random.default_rng(seed)
    enc = make_encoder("liere", generators=(random_skew(8, rng), random_skew(8, rng)))
    return check_non_equivariance(enc, trials, seed, name="non-equivariance:liere-random")


def _run_equivariance_spherical_positive(trials, seed):
    # deliberate demonstration: asserting shift-invariance of the
    # non-commutative scheme fails; excluded from default runs
    return check_equivariance(make_encoder("spherical", 12), trials, seed,
                              name="equivariance:spherical-positive")


def _gradient_runner(scheme, dim, **kwargs):
    def run(trials, seed):
        return check_gradients(make_encoder(scheme, dim, **kwargs), trials, seed)

    return run


# name -> (runner, default trials, included in default run)
_REGISTRY = {
    "equivariance:rope1d": (_equivariance_runner("rope1d", 16), 200, True),
    "equivariance:trivial2d": (_equivariance_runner("trivial2d", 16), 200, True),
    "equivariance:axial": (_equivariance_runner("axial", 16), 200, True),
    "equivariance:mixed": (_equivariance_runner("mixed", 16), 200, True),
    "equivariance:uniform": (_equivariance_runner("uniform", 16), 200, True),
    "equivariance:liere-commuting": (_run_equivariance_liere_commuting, 200, True),
    "non-equivariance:spherical": (_run_non_equivariance_spherical, 100, True),
    "non-equivariance:liere-random": (_run_non_equivariance_liere_random, 100, True),
    "separability:axial": (lambda t, s: check_axial_separability(t, s), 100, True),
    "degeneracy:trivial2d": (lambda t, s: check_trivial_degeneracy(t, s), 100, True),
    "degeneracy:mixed-contrast": (lambda t, s: check_mixed_antidiagonal(t, s), 100, True),
    "reduction:liere-1d": (partial(_run_reduction, "reduction:liere-1d",
                                   lambda n, rng: (random_skew(n, rng),), reduce_liere_1d), 10, True),
    "reduction:liere-mixed": (partial(_run_reduction, "reduction:liere-mixed",
                                      commuting_generators, reduce_liere_mixed), 10, True),
    "gradients:rope1d": (_gradient_runner("rope1d", 16), 100, True),
    "gradients:axial": (_gradient_runner("axial", 16), 100, True),
    "gradients:mixed": (_gradient_runner("mixed", 16), 100, True),
    "gradients:spherical": (_gradient_runner("spherical", 12), 100, True),
    "gradients:uniform": (_gradient_runner("uniform", 16), 100, True),
    "fast-path:spherical": (lambda t, s: check_fast_path(t, s), 1000, True),
    "isometry:rotary": (check_isometry, 100, True),
    "flow:abelian": (check_flow, 100, True),
    "flow:spherical-counterexample": (check_flow_counterexample, 100, True),
    "equivariance:spherical-positive": (_run_equivariance_spherical_positive, 100, False),
}


def check_names(include_hidden: bool = False) -> list[str]:
    """Ordered names of the registered checks (default-run subset unless asked)."""
    return [n for n, (_, _, shown) in _REGISTRY.items() if shown or include_hidden]


def run_checks(names=None, seed: int = 0) -> list[CheckReport]:
    """Run the named checks (default: the standard suite) deterministically.

    Each check's stream is keyed by seed + its fixed registry index, so a
    subset run reproduces exactly the reports of the full run.
    """
    index = {n: i for i, n in enumerate(_REGISTRY)}
    if names is None:
        names = check_names()
    else:
        unknown = [n for n in names if n not in _REGISTRY]
        if unknown:
            raise KeyError(f"unknown check name(s): {', '.join(unknown)}")
    reports = []
    for n in names:
        runner, default_trials, _ = _REGISTRY[n]
        reports.append(runner(default_trials, seed + index[n]))
    return reports
