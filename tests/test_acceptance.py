"""Acceptance gate: one test per top-level criterion, at the stated tolerances.

Each test prints a single "criterion N: PASS" line on success (visible with
-s; pytest -v shows the same verdict per test either way).
"""

import time

import numpy as np
import pytest

from ropekit import attention as A
from ropekit import encodings as E
from ropekit import linalg as L
from ropekit import verify as V
from ropekit.cli import main as cli_main
from ropekit.encodings import FrequencyTable
from ropekit.grid import make_grid


def _tuples(rng, dim, axes, count=50):
    zs = [rng.standard_normal(dim) for _ in range(count)]
    ps = [rng.uniform(-np.pi, np.pi, axes) for _ in range(count)]
    return zs, ps


def test_criterion_01_one_axis_generator_reduction():
    """20 random generators, dims 2-16: generator vs reduced-pair scores."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 4, 8, 16):
        for _ in range(5):
            gen = V.random_skew(dim, rng)
            table, basis = V.reduce_liere_1d(gen)
            zs, ps = _tuples(rng, dim, 1)
            encoded = [E.liere(z, p, [gen]) for z, p in zip(zs, ps)]
            for i in range(50):
                j = (i + 1) % 50
                lhs = float(encoded[i] @ encoded[j])
                rhs = V.reduced_score(zs[i], zs[j], ps[i][0], ps[j][0], table, basis)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst score discrepancy {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    print(f"criterion 1: PASS - one-axis reduction score agreement {worst:.2e} in {elapsed:.1f} s")


def test_criterion_02_commuting_pair_reduction():
    """20 commuting pairs reduce to combined-angle pairs; non-commuting rejected."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for dim in (4, 8, 12, 16):
        for _ in range(5):
            ax, ay = V.commuting_generators(dim, rng)
            table, basis = V.reduce_liere_mixed(ax, ay)
            zs, ps = _tuples(rng, dim, 2)
            encoded = [E.liere(z, p, [ax, ay]) for z, p in zip(zs, ps)]
            for i in range(50):
                j = (i + 1) % 50
                lhs = float(encoded[i] @ encoded[j])
                rhs = V.reduced_score(zs[i], zs[j], ps[i], ps[j], table, basis)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8, f"worst score discrepancy {worst:.3e}"
    with pytest.raises(ValueError):
        V.reduce_liere_mixed(V.random_skew(8, rng), V.random_skew(8, rng))
    print(f"criterion 2: PASS - commuting-pair reduction score agreement {worst:.2e}")


def test_criterion_03_equivariance_suite():
    """Shift-invariance for the abelian family; counterexamples for the rest."""
    rng = np.random.default_rng(303)
    for scheme in ("rope1d", "axial", "mixed", "uniform", "trivial2d"):
        r = V.check_equivariance(E.make_encoder(scheme, 16), trials=200, seed=3)
        assert r.passed and r.residual <= 1e-9, r
    commuting = E.make_encoder("liere", generators=V.commuting_generators(8, rng))
    r = V.check_equivariance(commuting, trials=200, seed=3)
    assert r.passed and r.residual <= 1e-9, r
    r = V.check_non_equivariance(E.make_encoder("spherical", 12), trials=100, seed=3)
    assert r.passed and r.residual > 1e-4, r
    loose = E.make_encoder("liere", generators=(V.random_skew(8, rng), V.random_skew(8, rng)))
    r = V.check_non_equivariance(loose, trials=100, seed=3)
    assert r.passed and r.residual > 1e-4, r
    print("criterion 3: PASS - equivariance suite split as claimed")


def test_criterion_04_axial_separability():
    r = V.check_axial_separability(trials=100, seed=4)
    assert r.passed and r.residual <= 1e-10, r
    print(f"criterion 4: PASS - axial separability residual {r.residual:.2e}")


def test_criterion_05_trivial_degeneracy():
    r = V.check_trivial_degeneracy(trials=100, seed=5)
    assert r.passed and r.residual <= 1e-12, r
    c = V.check_mixed_antidiagonal(trials=100, seed=5)
    assert c.passed and c.residual > 1e-3, c
    print(f"criterion 5: PASS - anti-diagonal invariance {r.residual:.2e}, "
          f"mixed contrast {c.residual:.2e}")


def test_criterion_06_fast_path():
    r = V.check_fast_path(trials=1000, seed=6)
    assert r.passed and r.residual <= 1e-12, r
    print(f"criterion 6: PASS - fast-path residual {r.residual:.2e} over 1000 triples")


def test_criterion_07_gradients():
    worst = {}
    for scheme, dim in (("rope1d", 16), ("axial", 16), ("mixed", 16),
                        ("spherical", 12), ("uniform", 16)):
        r = V.check_gradients(E.make_encoder(scheme, dim), trials=100, seed=7)
        assert r.passed and r.residual <= 1e-5, r
        worst[scheme] = r.residual
    print(f"criterion 7: PASS - worst gradient error {max(worst.values()):.2e}")


def test_criterion_08_linalg_core():
    rng = np.random.default_rng(808)
    dims = [2, 3, 4, 5, 6, 8, 10, 12, 14, 16] * 5
    worst_recon = worst_eig = worst_exp = 0.0
    for n in dims:
        a = V.random_skew(n, rng)
        cf = L.canonical_form(a)
        worst_recon = max(worst_recon, float(np.max(np.abs(cf.reconstruct() - a))))
        oracle = np.sort(np.linalg.eigvalsh(1j * a))[::-1][: n // 2]
        worst_eig = max(worst_eig, float(np.max(np.abs(cf.frequencies - oracle))))
        worst_exp = max(worst_exp, float(np.max(np.abs(L.matrix_exp(a) - L.matrix_exp_series(a)))))
    assert worst_recon <= 1e-9, f"reconstruction {worst_recon:.3e}"
    assert worst_eig <= 1e-8, f"eigenvalue agreement {worst_eig:.3e}"
    assert worst_exp <= 1e-9, f"exp route agreement {worst_exp:.3e}"
    print(f"criterion 8: PASS - reconstruction {worst_recon:.2e}, "
          f"eigens {worst_eig:.2e}, exp routes {worst_exp:.2e}")


def test_criterion_09_isometry_and_flow():
    r = V.check_isometry(trials=100, seed=9)
    assert r.passed and r.residual <= 1e-10, r
    f = V.check_flow(trials=100, seed=9)
    assert f.passed and f.residual <= 1e-10, f
    c = V.check_flow_counterexample(trials=100, seed=9)
    assert c.passed and c.residual > 1e-3, c
    print(f"criterion 9: PASS - isometry {r.residual:.2e}, flow {f.residual:.2e}, "
          f"counterexample {c.residual:.2e}")


def test_criterion_10_pattern_structure_and_cli():
    rng = np.random.default_rng(1010)
    # axial per-block patterns are exactly axis-constant
    enc = E.make_encoder("axial", 16)
    zq, zk = rng.standard_normal(16), rng.standard_normal(16)
    x_pat = A.render_pattern(enc, zq, zk, 16, 16, block=0).values
    np.testing.assert_array_equal(x_pat, np.tile(x_pat[0], (16, 1)))
    y_pat = A.render_pattern(enc, zq, zk, 16, 16, block=1).values
    np.testing.assert_array_equal(y_pat, np.tile(y_pat[:, :1], (1, 16)))
    # per-block patterns sum to the combined pattern
    for scheme, dim in (("axial", 16), ("mixed", 16), ("spherical", 12)):
        e = E.make_encoder(scheme, dim)
        a, b = rng.standard_normal(dim), rng.standard_normal(dim)
        combined = A.render_pattern(e, a, b, 12, 12).values
        total = sum(A.render_pattern(e, a, b, 12, 12, block=d).values
                    for d in range(e.pattern_blocks))
        assert np.max(np.abs(total - combined)) <= 1e-10
    # mixed single matched pair reproduces the combined-angle cosine
    pair = E.make_encoder("mixed", 2, table=FrequencyTable("mixed", np.ones((1, 2))))
    z = np.array([1.0, 0.0])
    pat = A.render_pattern(pair, z, z, 64, 64).values
    pos = make_grid(64, 64).positions
    assert np.max(np.abs(pat - np.cos(pos[..., 0] + pos[..., 1]))) <= 1e-10
    # verify exit codes: all-pass 0, deliberate failure 1, unknown name 2
    assert cli_main(["verify", "--only", "separability:axial,fast-path:spherical"]) == 0
    assert cli_main(["verify", "--only", "equivariance:spherical-positive"]) == 1
    assert cli_main(["verify", "--only", "no:such-check"]) == 2
    # the full verification suite finishes inside the wall-time budget
    t0 = time.perf_counter()
    reports = V.run_checks(seed=0)
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in reports)
    assert elapsed < 60.0, f"verification suite took {elapsed:.1f} s"
    print(f"criterion 10: PASS - pattern structure exact, CLI exit codes OK, "
          f"suite {elapsed:.1f} s")
