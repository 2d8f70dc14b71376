"""Checks, reductions, and the check registry."""

import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ropekit import encodings as E
from ropekit import verify as V
from ropekit.encodings import FrequencyTable
from ropekit.linalg import canonical_form, is_commuting

SCORE_TOL = 1e-8


def test_check_report_json_fields():
    r = V.CheckReport("demo:check", True, 1.5e-10, 100, 7)
    obj = json.loads(r.to_json())
    assert obj == {"name": "demo:check", "passed": True, "residual": 1.5e-10,
                   "trials": 100, "seed": 7}


def test_check_report_coerces_numpy_scalars():
    # checks build `passed` by comparing numpy scalars; the report must still
    # hold plain python types or to_json blows up
    worst = np.float64(3e-11)
    r = V.CheckReport("demo:check", worst <= 1e-10, worst, np.int64(50), np.int64(3))
    assert type(r.passed) is bool and type(r.residual) is float
    assert json.loads(r.to_json())["passed"] is True


# ---------------------------------------------------------------------------
# random instance helpers
# ---------------------------------------------------------------------------


def test_random_skew_is_skew():
    rng = np.random.default_rng(0)
    a = V.random_skew(6, rng)
    np.testing.assert_array_equal(a, -a.T)


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(1)
    q = V.random_orthogonal(7, rng)
    np.testing.assert_allclose(q.T @ q, np.eye(7), atol=1e-12)


def test_block_diag_skew_frozen():
    m = V.block_diag_skew([2.0], 3)
    np.testing.assert_array_equal(m, [[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        V.block_diag_skew([1.0, 2.0], 3)


def test_commuting_generators_commute():
    rng = np.random.default_rng(2)
    ax, ay = V.commuting_generators(8, rng)
    np.testing.assert_array_equal(ax, -ax.T)
    assert is_commuting(ax, ay)


# ---------------------------------------------------------------------------
# equivariance checks
# ---------------------------------------------------------------------------


def test_shift_residual_zero_shift():
    enc = E.make_encoder("mixed", 8)
    rng = np.random.default_rng(3)
    zq, zk = rng.standard_normal(8), rng.standard_normal(8)
    assert V.shift_residual(enc, zq, zk, (0.1, 0.2), (0.5, -0.3), (0.0, 0.0)) == 0.0


@pytest.mark.parametrize("scheme,dim", [("rope1d", 16), ("trivial2d", 16),
                                        ("axial", 16), ("mixed", 16), ("uniform", 16)])
def test_equivariance_passes(scheme, dim):
    r = V.check_equivariance(E.make_encoder(scheme, dim), trials=50, seed=0)
    assert r.passed and r.residual <= 1e-9
    assert r.name == f"equivariance:{scheme}"


def test_equivariance_liere_commuting():
    rng = np.random.default_rng(4)
    enc = E.make_encoder("liere", generators=V.commuting_generators(8, rng))
    r = V.check_equivariance(enc, trials=20, seed=0)
    assert r.passed


def test_equivariance_liere_commuting_repeated_frequency_seed():
    # at this run seed the summed generators have a repeated frequency, where
    # an eigensolver-based exponential once missed the 1e-9 bound (1.98e-9);
    # the per-position route is checked as well as the encoder's reduced one
    (r,) = V.run_checks(["equivariance:liere-commuting"], seed=2031509993)
    assert r.passed
    rng = np.random.default_rng(r.seed)
    enc = E.make_encoder("liere", generators=V.commuting_generators(8, rng))
    per_position = SimpleNamespace(scheme="liere", dim=enc.dim, axes=enc.axes,
                                   encode=lambda z, p: E.liere(z, p, enc.generators))
    assert V.check_equivariance(per_position, trials=r.trials, seed=r.seed).passed


def test_equivariance_fails_for_spherical():
    r = V.check_equivariance(E.make_encoder("spherical", 12), trials=20, seed=0)
    assert not r.passed and r.residual > 1e-4


def test_non_equivariance_spherical_finds_violation():
    r = V.check_non_equivariance(E.make_encoder("spherical", 12), trials=100, seed=0)
    assert r.passed and r.residual > 1e-4


def test_non_equivariance_liere_random():
    rng = np.random.default_rng(5)
    enc = E.make_encoder("liere",
                         generators=(V.random_skew(8, rng), V.random_skew(8, rng)))
    r = V.check_non_equivariance(enc, trials=50, seed=0)
    assert r.passed


def test_non_equivariance_rejects_equivariant_scheme():
    # an equivariant encoder yields no counterexample, so the check reports failure
    r = V.check_non_equivariance(E.make_encoder("rope1d", 8), trials=50, seed=0)
    assert not r.passed


def test_non_equivariance_spherical_zero_yaw_degenerates():
    # with every x-frequency zero only same-axis rotations remain, which commute
    blocks = 4
    f = np.column_stack([np.zeros(blocks), E.frequency_schedule(blocks)])
    enc = E.make_encoder("spherical", 12, table=FrequencyTable("spherical", f))
    r = V.check_non_equivariance(enc, trials=50, seed=0)
    assert not r.passed and r.residual <= 1e-9


def test_non_equivariance_liere_shared_eigenbasis():
    rng = np.random.default_rng(6)
    enc = E.make_encoder("liere", generators=V.commuting_generators(8, rng))
    r = V.check_non_equivariance(enc, trials=30, seed=0)
    assert not r.passed


# ---------------------------------------------------------------------------
# theorem reductions
# ---------------------------------------------------------------------------


def test_reduce_1d_block_diagonal_input():
    a = V.block_diag_skew([1.3, 0.4], 4)
    table, basis = V.reduce_liere_1d(a)
    np.testing.assert_allclose(table.freqs[:, 0], [1.3, 0.4], atol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(10):
        zq, zk = rng.standard_normal(4), rng.standard_normal(4)
        pq, pk = rng.uniform(-np.pi, np.pi, 2)
        lhs = float(E.liere(zq, [pq], [a]) @ E.liere(zk, [pk], [a]))
        rhs = V.reduced_score(zq, zk, pq, pk, table, basis)
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("name", ["reduction:liere-1d", "reduction:liere-mixed", "reduction:liere-3axis"])
def test_reduction_checks_catch_a_wrong_encoder(monkeypatch, name):
    # a reduced encoder that rotates the wrong way is still equivariant and a
    # flow; only the comparison with the per-position exponential sees it
    def backwards(z, e, basis):  # conjugate phasors: the angles of -p
        return reduced(z, e.conj(), basis)

    reduced = E._liere_reduced
    monkeypatch.setattr(E, "_liere_reduced", backwards)
    (r,) = V.run_checks([name], seed=0)
    assert not r.passed and r.residual > 1e-3


@pytest.mark.parametrize("m", [1, 2])
def test_a_1x1_generator_has_no_plane_to_reduce_and_encodes_to_its_token(m):
    # the reduction names the generator size; the encoder takes the
    # exponential route, and both routes return z bit for bit
    gens = [np.zeros((1, 1))] * m
    with pytest.raises(ValueError, match="a 1x1 generator has no rotation plane"):
        V.reduce_liere(*gens)
    with pytest.raises(ValueError, match="a 1x1 generator has no rotation plane"):
        (V.reduce_liere_1d if m == 1 else V.reduce_liere_mixed)(*gens)
    enc = E.make_encoder("liere", generators=gens)
    assert enc.reduction is None
    rng = np.random.default_rng(41)
    z, p = rng.standard_normal((6, 1)), rng.uniform(-4.0, 4.0, (6, m))
    for out in (enc.encode(z, p), E.liere(z, p, gens), np.stack([enc.encode(zi, pi) for zi, pi in zip(z, p)])):
        assert out.tobytes() == z.tobytes()


def test_reduce_liere_is_one_reduction_of_any_number_of_generators():
    # the wrappers are reduce_liere itself; three generators give a
    # three-column mixed table, the encoder's own reduction to rounding
    rng = np.random.default_rng(43)
    a = V.random_skew(6, rng)
    pair = V.commuting_generators(6, rng)
    for got, want in ((V.reduce_liere_1d(a), V.reduce_liere(a)), (V.reduce_liere_mixed(*pair), V.reduce_liere(*pair))):
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    assert V.reduce_liere(a)[0].scheme == "rope1d" and V.reduce_liere(*pair)[0].scheme == "mixed"
    gens = V._commuting(7, rng, 3)
    table, basis = V.reduce_liere(*gens)
    assert table.scheme == "mixed" and table.freqs.shape == (3, 3) and basis.shape == (7, 7)
    r = E.make_encoder("liere", generators=gens).reduction
    np.testing.assert_allclose(r.table.freqs, table.freqs, atol=1e-12)
    np.testing.assert_allclose(r.basis, basis, atol=1e-12)


def test_the_3axis_reduction_check_is_hidden_and_passes():
    assert "reduction:liere-3axis" not in V.check_names()
    assert V.check_names(include_hidden=True)[-1] == "reduction:liere-3axis"
    (r,) = V.run_checks(["reduction:liere-3axis"], seed=0)
    assert r.passed and r.residual <= V.SCORE_EQUIV_TOL and r.trials == 10


def test_reduce_1d_zero_generator():
    table, basis = V.reduce_liere_1d(np.zeros((4, 4)))
    np.testing.assert_array_equal(table.freqs, np.zeros((2, 1)))
    zq, zk = np.arange(4.0), np.ones(4)
    assert V.reduced_score(zq, zk, 0.9, -2.0, table, basis) == pytest.approx(zq @ zk)


def test_reduce_1d_random_even_dim_matches_rope1d_route():
    rng = np.random.default_rng(8)
    a = V.random_skew(8, rng)
    table, basis = V.reduce_liere_1d(a)
    worst = 0.0
    for _ in range(50):
        zq, zk = rng.standard_normal(8), rng.standard_normal(8)
        pq, pk = rng.uniform(-np.pi, np.pi, 2)
        lhs = float(E.liere(zq, [pq], [a]) @ E.liere(zk, [pk], [a]))
        via_rope = float(E.rope1d(basis.T @ zq, pq, table) @ E.rope1d(basis.T @ zk, pk, table))
        assert V.reduced_score(zq, zk, pq, pk, table, basis) == via_rope
        worst = max(worst, abs(lhs - via_rope))
    assert worst <= SCORE_TOL


def test_reduce_1d_odd_dim_tail_passthrough():
    rng = np.random.default_rng(9)
    a = V.random_skew(5, rng)
    table, basis = V.reduce_liere_1d(a)
    assert table.blocks == 2
    for _ in range(25):
        zq, zk = rng.standard_normal(5), rng.standard_normal(5)
        pq, pk = rng.uniform(-np.pi, np.pi, 2)
        lhs = float(E.liere(zq, [pq], [a]) @ E.liere(zk, [pk], [a]))
        rhs = V.reduced_score(zq, zk, pq, pk, table, basis)
        assert abs(lhs - rhs) <= SCORE_TOL


def test_reduce_1d_frequency_round_trip():
    rng = np.random.default_rng(10)
    freqs = np.sort(np.abs(rng.standard_normal(4)))[::-1]
    u = V.random_orthogonal(8, rng)
    a = u @ V.block_diag_skew(freqs, 8) @ u.T
    table, _ = V.reduce_liere_1d(a)
    np.testing.assert_allclose(table.freqs[:, 0], freqs, atol=1e-10)


def test_reduce_mixed_zero_second_generator():
    rng = np.random.default_rng(11)
    ax = V.random_skew(6, rng)
    table, basis = V.reduce_liere_mixed(ax, np.zeros((6, 6)))
    ref = canonical_form(ax)
    np.testing.assert_allclose(table.freqs[:, 0], ref.frequencies, atol=1e-9)
    np.testing.assert_allclose(table.freqs[:, 1], np.zeros(3), atol=1e-9)


def test_reduce_mixed_rejects_non_commuting():
    rng = np.random.default_rng(12)
    ax, ay = V.random_skew(6, rng), V.random_skew(6, rng)
    assert not is_commuting(ax, ay)
    with pytest.raises(ValueError):
        V.reduce_liere_mixed(ax, ay)


def test_reduce_mixed_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        V.reduce_liere_mixed(np.zeros((4, 4)), np.zeros((6, 6)))


def test_reduce_mixed_recovers_planted_frequencies():
    rng = np.random.default_rng(13)
    for _ in range(5):
        fx = rng.standard_normal(4)
        fy = rng.standard_normal(4)
        u = V.random_orthogonal(8, rng)
        ax = u @ V.block_diag_skew(fx, 8) @ u.T
        ay = u @ V.block_diag_skew(fy, 8) @ u.T
        table, _ = V.reduce_liere_mixed(ax, ay)
        # the gauge makes f_x >= 0, flipping each plane's orientation jointly
        want = np.column_stack([np.abs(fx), fy * np.sign(fx)])
        want = want[np.lexsort((-want[:, 1], -want[:, 0]))]
        np.testing.assert_allclose(table.freqs, want, atol=1e-9)


def test_reduce_mixed_score_equivalence():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(5):
        ax, ay = V.commuting_generators(8, rng)
        table, basis = V.reduce_liere_mixed(ax, ay)
        for _ in range(10):
            zq, zk = rng.standard_normal(8), rng.standard_normal(8)
            pq = rng.uniform(-np.pi, np.pi, 2)
            pk = rng.uniform(-np.pi, np.pi, 2)
            lhs = float(E.liere(zq, pq, [ax, ay]) @ E.liere(zk, pk, [ax, ay]))
            rhs = V.reduced_score(zq, zk, pq, pk, table, basis)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= SCORE_TOL


def test_reduce_mixed_basis_orthogonal_and_gauge_nonnegative():
    rng = np.random.default_rng(15)
    ax, ay = V.commuting_generators(8, rng)
    table, basis = V.reduce_liere_mixed(ax, ay)
    np.testing.assert_allclose(basis.T @ basis, np.eye(8), atol=1e-9)
    assert np.all(table.freqs[:, 0] >= -1e-12)


@seed(2027)
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_reduce_1d_score_identity(n, rs):
    rng = np.random.default_rng(rs)
    a = V.random_skew(n, rng)
    table, basis = V.reduce_liere_1d(a)
    zq, zk = rng.standard_normal(n), rng.standard_normal(n)
    pq, pk = rng.uniform(-np.pi, np.pi, 2)
    lhs = float(E.liere(zq, [pq], [a]) @ E.liere(zk, [pk], [a]))
    rhs = V.reduced_score(zq, zk, pq, pk, table, basis)
    assert abs(lhs - rhs) <= SCORE_TOL


# ---------------------------------------------------------------------------
# structural and gradient checks
# ---------------------------------------------------------------------------


def test_axial_separability_check():
    r = V.check_axial_separability(trials=50, seed=0)
    assert r.passed and r.residual <= 1e-10


def test_trivial_degeneracy_check():
    r = V.check_trivial_degeneracy(trials=50, seed=0)
    assert r.passed and r.residual <= 1e-12


def test_mixed_antidiagonal_contrast():
    r = V.check_mixed_antidiagonal(trials=50, seed=0)
    assert r.passed and r.residual > 1e-3


@pytest.mark.parametrize("scheme,dim", [("rope1d", 16), ("axial", 16), ("mixed", 16),
                                        ("spherical", 12), ("uniform", 16)])
def test_gradient_checks_pass(scheme, dim):
    r = V.check_gradients(E.make_encoder(scheme, dim), trials=25, seed=0)
    assert r.passed and r.residual <= 1e-5
    assert r.name == f"gradients:{scheme}"


def test_gradient_check_rejects_unsupported():
    gen = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        V.check_gradients(E.make_encoder("liere", generators=[gen]), trials=5, seed=0)


def test_trivial2d_gradient_check_passes_at_its_default_trials():
    r = V.check_gradients(E.make_encoder("trivial2d", 16))
    assert r.passed and r.trials == 100 and r.residual <= V.GRADIENT_TOL
    assert r.name == "gradients:trivial2d"


def test_gradients_zero_positions_both_zero():
    table = FrequencyTable.fixed("axial", 8)
    z = np.ones(8)
    analytic = E.grad_frequencies("axial", z, z, (0.0, 0.0), (0.0, 0.0), table)
    numeric = V.finite_difference_grad("axial", z, z, (0.0, 0.0), (0.0, 0.0), table)
    np.testing.assert_allclose(analytic, np.zeros_like(table.freqs), atol=1e-12)
    np.testing.assert_allclose(numeric, np.zeros_like(table.freqs), atol=1e-8)


# ---------------------------------------------------------------------------
# isometry, flow, fast path, locality
# ---------------------------------------------------------------------------


def test_isometry_check():
    r = V.check_isometry(trials=30, seed=0)
    assert r.passed


def test_flow_check():
    r = V.check_flow(trials=30, seed=0)
    assert r.passed


def test_flow_counterexample_check():
    r = V.check_flow_counterexample(trials=30, seed=0)
    assert r.passed and r.residual > 1e-3


def test_fast_path_check():
    r = V.check_fast_path(trials=200, seed=0)
    assert r.passed and r.residual <= 1e-12


def test_locality_probe_rope1d_cosine():
    t = FrequencyTable("rope1d", np.array([[1.0]]))
    enc = E.make_encoder("rope1d", 2, table=t)
    curve = V.locality_probe(enc, np.pi / 2, 9, draws=4, seed=0)
    assert len(curve) == 9
    np.testing.assert_allclose(curve, np.cos(np.linspace(0, np.pi / 2, 9)), atol=1e-12)


def test_locality_probe_zero_shift_is_peak():
    enc = E.make_encoder("mixed", 8)
    curve = V.locality_probe(enc, np.pi, 12, draws=8, seed=1)
    assert curve[0] == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(curve) == 0


def test_locality_probe_direction_is_an_axis_index():
    enc = E.make_encoder("mixed", 8)
    for bad in (5, 2, -1, True, 1.0):
        with pytest.raises(ValueError, match="axis index"):
            V.locality_probe(enc, 1.0, 3, draws=2, direction=bad)
    np.testing.assert_array_equal(V.locality_probe(enc, 1.0, 3, draws=2, direction=np.int32(1)),
                                  V.locality_probe(enc, 1.0, 3, draws=2, direction=1))


def test_locality_probe_takes_integer_counts_and_a_finite_shift():
    enc = E.make_encoder("mixed", 8)
    for samples, draws in ((True, 2), (2.0, 2), (0, 2), (3, 2.0), (3, False), (3, 0)):
        with pytest.raises(ValueError, match="positive integer"):
            V.locality_probe(enc, 1.0, samples, draws=draws)
    # a NaN shift gave a NaN curve and an infinite one a RuntimeWarning
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="max_shift must be finite"):
            V.locality_probe(enc, bad, 3, draws=2)
    np.testing.assert_array_equal(V.locality_probe(enc, np.float32(1.0), np.int16(3), draws=np.int64(2)),
                                  V.locality_probe(enc, 1.0, 3, draws=2))


# ---------------------------------------------------------------------------
# the residual fold and the verdict
# ---------------------------------------------------------------------------


ZERO_TRIAL_CHECKS = {
    "equivariance": lambda t: V.check_equivariance(E.make_encoder("rope1d", 8), t),
    "non-equivariance": lambda t: V.check_non_equivariance(E.make_encoder("spherical", 12), t),
    "gradients": lambda t: V.check_gradients(E.make_encoder("rope1d", 8), t),
    "separability": lambda t: V.check_axial_separability(t),
    "degeneracy": lambda t: V.check_trivial_degeneracy(t),
    "isometry": lambda t: V.check_isometry(t, 0),
    "flow": lambda t: V.check_flow(t),
    "fast-path": lambda t: V.check_fast_path(t),
}


@pytest.mark.parametrize("case", sorted(ZERO_TRIAL_CHECKS))
def test_checks_reject_zero_trials(case):
    # a residual over no trials is no evidence: a bound check must not pass
    # on it; a bool or float count is not taken as an integer (True ran one)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        ZERO_TRIAL_CHECKS[case](0)
    for bad in (True, 2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="trials must be an integer"):
            ZERO_TRIAL_CHECKS[case](bad)


def _patch_grad(monkeypatch, wrap):
    # past grad_frequencies' finiteness test, which a NaN from its route would trip
    monkeypatch.setattr(V, "grad_frequencies", wrap(V.grad_frequencies))


def _patch_encode(monkeypatch, wrap):
    # past the encoders' finiteness test, which a NaN from a route would trip
    monkeypatch.setattr(E.Encoder, "encode", wrap(E.Encoder.encode))


NAN_CASES = {  # name: (patch that wraps one route to turn NaN once, run)
    "gradients": (_patch_grad, lambda: V.check_gradients(E.make_encoder("mixed", 16), 10, 0)),
    "equivariance": (_patch_encode, lambda: V.check_equivariance(E.make_encoder("mixed", 16), 10, 0)),
    "non-equivariance": (_patch_encode, lambda: V.check_non_equivariance(E.make_encoder("spherical", 12), 10, 0)),
    # the liere encoder's score against the per-position exponential
    "reduction": (_patch_encode, lambda: V.run_checks(["reduction:liere-mixed"], seed=0)[0]),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_residual_fails_bound_and_counterexample_checks(monkeypatch, case):
    # one NaN among finite residuals: a fold that drops it would report the finite worst
    patch, run = NAN_CASES[case]
    calls = itertools.count()

    def wrap(real):
        def fifth_call_nan(*args):
            out = real(*args)
            return np.full_like(out, np.nan) if next(calls) == 4 else out
        return fifth_call_nan

    patch(monkeypatch, wrap)
    r = run()
    assert not r.passed
    assert math.isnan(r.residual)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_check_names_hides_demo_check():
    names = V.check_names()
    assert "equivariance:spherical-positive" not in names
    assert "equivariance:rope1d" in names
    assert "equivariance:spherical-positive" in V.check_names(include_hidden=True)


def test_default_checks_are_the_benchmark_per_layer_checks():
    # the traced benchmark times each default check as the per-layer metric
    # verify.check.<name>.s, ':' read as '.', and its self-test rejects a
    # metric that BENCHMARK.json does not list: a new default check needs its
    # line there first
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"] if m["name"].startswith("verify.check.")}
    names = V.check_names()
    assert len(names) == len(set(names))
    assert {f"verify.check.{n.replace(':', '.')}.s" for n in names} == listed


def test_run_checks_subset_matches_full_run():
    full = {r.name: r for r in V.run_checks(seed=3)}
    for r in full.values():  # every registry report must survive serialization
        obj = json.loads(r.to_json())
        assert type(obj["passed"]) is bool and type(obj["residual"]) is float
    sub = V.run_checks(["separability:axial", "degeneracy:trivial2d"], seed=3)
    for r in sub:
        assert r == full[r.name]


def test_run_checks_deterministic():
    a = [r.to_json() for r in V.run_checks(["equivariance:rope1d", "gradients:mixed"], seed=5)]
    b = [r.to_json() for r in V.run_checks(["equivariance:rope1d", "gradients:mixed"], seed=5)]
    assert a == b


def test_run_checks_unknown_name():
    with pytest.raises(KeyError):
        V.run_checks(["equivariance:nope"])


def test_run_checks_takes_a_list_of_names_and_a_non_negative_integer_seed():
    # a bare string was split into characters, each an unknown name
    with pytest.raises(ValueError, match="list of check names"):
        V.run_checks("separability:axial")
    # a negative seed ran or failed by the check's registry index
    for bad in (-1, -100, 1.0, True, None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            V.run_checks(["separability:axial"], seed=bad)
    assert V.run_checks(iter(["separability:axial"]), seed=np.int64(2)) == V.run_checks(["separability:axial"], seed=2)


CHECKS_BY_SEED = {  # each check_* function and locality_probe at one trial, the seed left open
    "equivariance": lambda seed: V.check_equivariance(E.make_encoder("rope1d", 4), 1, seed=seed),
    "non-equivariance": lambda seed: V.check_non_equivariance(E.make_encoder("spherical", 6), 1, seed=seed),
    "separability": lambda seed: V.check_axial_separability(1, seed=seed),
    "degeneracy": lambda seed: V.check_trivial_degeneracy(1, seed=seed),
    "mixed-contrast": lambda seed: V.check_mixed_antidiagonal(1, seed=seed),
    "gradients": lambda seed: V.check_gradients(E.make_encoder("mixed", 4), 1, seed=seed),
    "isometry": lambda seed: V.check_isometry(1, seed=seed),
    "flow": lambda seed: V.check_flow(1, seed=seed),
    "flow-counterexample": lambda seed: V.check_flow_counterexample(1, seed=seed),
    "fast-path": lambda seed: V.check_fast_path(1, seed=seed),
    "locality": lambda seed: V.locality_probe(E.make_encoder("mixed", 4), 1.0, 3, draws=2, seed=seed),
}


@pytest.mark.parametrize("name", sorted(CHECKS_BY_SEED))
def test_checks_take_a_non_negative_integer_seed(name):
    # a float seed raised numpy's TypeError and a bool ran as 0 or 1
    run = CHECKS_BY_SEED[name]
    for bad in (2.5, True, np.float64(1.0), -1, None, "1"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run(bad)
    a, b = run(np.int64(2)), run(2)
    if isinstance(a, V.CheckReport):
        assert a == b and type(a.seed) is int
    else:
        np.testing.assert_array_equal(a, b)


def test_hidden_check_fails_by_design():
    (r,) = V.run_checks(["equivariance:spherical-positive"], seed=0)
    assert not r.passed
