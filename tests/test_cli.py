"""CLI subcommands: output formats, determinism, exit codes."""

import json

import numpy as np
import pytest

from ropekit import encodings as E
from ropekit.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# freqs
# ---------------------------------------------------------------------------


def test_freqs_single_block(capsys):
    code, out, _ = run_cli(["freqs", "--blocks", "1"], capsys)
    assert code == 0
    assert out == "0,1.0\n"


def test_freqs_default_schedule(capsys):
    code, out, _ = run_cli(["freqs"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    d, omega = lines[1].split(",")
    assert d == "1"
    assert omega.startswith("0.31622")
    values = [float(line.split(",")[1]) for line in lines]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_freqs_invalid_blocks(capsys):
    code, _, err = run_cli(["freqs", "--blocks", "0"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [["freqs", "--base", "inf"],
                                  ["pattern", "--scheme", "mixed", "--base", "inf"]])
def test_infinite_base_exits_2(tmp_path, capsys, argv):
    # an infinite base would zero every frequency past the first
    out = tmp_path / "p.pgm"
    code, stdout, err = run_cli(argv + (["-o", str(out)] if argv[0] == "pattern" else []), capsys)
    assert code == 2
    assert "base must be positive and finite" in err
    assert stdout == "" and not out.exists()


# ---------------------------------------------------------------------------
# pattern
# ---------------------------------------------------------------------------


def read_pgm(path):
    data = path.read_bytes()
    assert data.startswith(b"P5\n")
    header, rest = data.split(b"255\n", 1)
    w, h = map(int, header.split(b"\n")[1].split())
    return w, h, rest


def test_pattern_writes_wellformed_pgm(tmp_path, capsys):
    out = tmp_path / "p.pgm"
    code, _, _ = run_cli(["pattern", "--scheme", "axial", "--dim", "16",
                          "--width", "32", "--height", "24", "-o", str(out)], capsys)
    assert code == 0
    w, h, payload = read_pgm(out)
    assert (w, h) == (32, 24)
    assert len(payload) == 32 * 24


def test_pattern_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    argv = ["pattern", "--scheme", "mixed", "--dim", "8", "--width", "16",
            "--height", "16", "--seed", "3"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_pattern_seed_changes_output(tmp_path, capsys):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    argv = ["pattern", "--scheme", "mixed", "--dim", "8"]
    assert main(argv + ["--seed", "0", "-o", str(a)]) == 0
    assert main(argv + ["--seed", "1", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_pattern_single_pixel_raw_is_score(tmp_path, capsys):
    out = tmp_path / "p.pgm"
    raw = tmp_path / "p.csv"
    code, _, _ = run_cli(["pattern", "--scheme", "axial", "--dim", "8",
                          "--width", "1", "--height", "1", "--seed", "5",
                          "-o", str(out), "--raw", str(raw)], capsys)
    assert code == 0
    rng = np.random.Generator(np.random.Philox(key=5))
    zq = rng.standard_normal(8)
    zq /= np.linalg.norm(zq)
    zk = rng.standard_normal(8)
    zk /= np.linalg.norm(zk)
    assert float(raw.read_text().strip()) == float(zq @ zk)


def test_pattern_axial_block_columns_constant(tmp_path, capsys):
    out = tmp_path / "p.pgm"
    raw = tmp_path / "p.csv"
    code, _, _ = run_cli(["pattern", "--scheme", "axial", "--dim", "16",
                          "--block", "0", "--width", "64", "--height", "64",
                          "-o", str(out), "--raw", str(raw)], capsys)
    assert code == 0
    rows = [line.split(",") for line in raw.read_text().strip().split("\n")]
    vals = np.array([[float(v) for v in row] for row in rows])
    assert vals.shape == (64, 64)
    np.testing.assert_array_equal(vals, np.tile(vals[0], (64, 1)))
    # the rendered image inherits the column structure
    w, h, payload = read_pgm(out)
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    np.testing.assert_array_equal(img, np.tile(img[0], (64, 1)))


def test_pattern_mixed_closed_form_raw(tmp_path, capsys):
    cfg = tmp_path / "enc.json"
    cfg.write_text(json.dumps({"scheme": "mixed", "dim": 2, "freqs": [[1.0, 1.0]]}))
    out = tmp_path / "p.pgm"
    raw = tmp_path / "p.csv"
    code, _, _ = run_cli(["pattern", "--config", str(cfg), "--width", "64",
                          "--height", "64", "--seed", "2",
                          "-o", str(out), "--raw", str(raw)], capsys)
    assert code == 0
    vals = np.array([[float(v) for v in line.split(",")]
                     for line in raw.read_text().strip().split("\n")])
    rng = np.random.Generator(np.random.Philox(key=2))
    zq = rng.standard_normal(2)
    zq /= np.linalg.norm(zq)
    zk = rng.standard_normal(2)
    zk /= np.linalg.norm(zk)
    # unit pair rotated by p gives score cos((p_x + p_y) + (angle_q - angle_k))
    offset = np.arctan2(zq[1], zq[0]) - np.arctan2(zk[1], zk[0])
    xs = np.linspace(-np.pi, np.pi, 64)
    want = np.cos(xs[None, :] + xs[:, None] + offset)
    np.testing.assert_allclose(vals, want, atol=1e-10)


def test_pattern_invalid_block_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["pattern", "--scheme", "axial", "--dim", "8",
                            "--block", "7", "-o", str(tmp_path / "p.pgm")], capsys)
    assert code == 2
    assert "block" in err


def test_pattern_config_and_scheme_conflict(tmp_path, capsys):
    cfg = tmp_path / "enc.json"
    cfg.write_text(json.dumps({"scheme": "axial", "dim": 8, "base": 100.0}))
    code, _, err = run_cli(["pattern", "--config", str(cfg), "--scheme", "axial",
                            "-o", str(tmp_path / "p.pgm")], capsys)
    assert code == 2


def test_pattern_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "enc.json"
    cfg.write_text("{not json")
    code, _, _ = run_cli(["pattern", "--config", str(cfg),
                          "-o", str(tmp_path / "p.pgm")], capsys)
    assert code == 2


@pytest.mark.parametrize("scheme", [["mixed"], {"mixed": 1}, 2, None, "liere"])
def test_pattern_config_with_a_scheme_that_is_no_table_scheme_name_exits_2(tmp_path, capsys, scheme):
    # an unhashable scheme is a config error, not a check failure with a traceback
    cfg = tmp_path / "enc.json"
    cfg.write_text(json.dumps({"scheme": scheme, "dim": 8}))
    code, _, err = run_cli(["pattern", "--config", str(cfg), "-o", str(tmp_path / "p.pgm")], capsys)
    assert code == 2
    assert err == f"error: unknown scheme {scheme!r}\n"


@pytest.mark.parametrize("flag", ["--width", "--height"])
@pytest.mark.parametrize("size", ["0", "-3"])
def test_pattern_size_below_one_exits_2_naming_it(tmp_path, capsys, flag, size):
    code, _, err = run_cli(["pattern", "--scheme", "mixed", flag, size, "-o", str(tmp_path / "p.pgm")], capsys)
    assert code == 2
    assert err == f"error: {flag[2:]} must be a positive integer, got {size}\n"
    assert not (tmp_path / "p.pgm").exists()


def test_pattern_unwritable_path_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["pattern", "--scheme", "axial", "--dim", "8",
                            "-o", str(tmp_path / "missing" / "deep" / "p.pgm")], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "p.pgm" in err  # full OSError text, not the bare errno


@pytest.mark.parametrize("scheme", ["rope1d", "trivial2d", "axial", "mixed", "spherical", "uniform"])
def test_pattern_default_dim_fits_every_table_scheme(tmp_path, capsys, scheme):
    out = tmp_path / "p.pgm"
    code, _, err = run_cli(["pattern", "--scheme", scheme, "--width", "4", "--height", "3",
                            "-o", str(out)], capsys)
    assert code == 0, err
    assert read_pgm(out)[:2] == (4, 3)


def test_pattern_missing_scheme_exit_2(capsys):
    code, _, err = run_cli(["pattern"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(["verify", "--only",
                            "separability:axial,degeneracy:trivial2d,isometry:rotary"], capsys)
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["name"] for r in reports] == ["separability:axial", "degeneracy:trivial2d",
                                            "isometry:rotary"]
    assert all(r["passed"] for r in reports)
    assert set(reports[0]) == {"name", "passed", "residual", "trials", "seed"}


def test_verify_deliberate_failure_exits_1(capsys):
    code, out, _ = run_cli(["verify", "--only", "equivariance:spherical-positive"], capsys)
    assert code == 1
    (report,) = [json.loads(line) for line in out.strip().split("\n")]
    assert report["passed"] is False
    assert report["residual"] > 1e-4


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_cli(["verify", "--only", "equivariance:warp"], capsys)
    assert code == 2
    assert "unknown" in err


def test_verify_reports_reproduce(capsys):
    args = ["verify", "--only", "equivariance:rope1d,gradients:axial", "--seed", "7"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_list_names(capsys):
    code, out, _ = run_cli(["verify", "--list"], capsys)
    assert code == 0
    names = out.strip().split("\n")
    assert "equivariance:rope1d" in names
    assert "equivariance:spherical-positive" in names


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_tiny_run_csv(capsys):
    code, out, _ = run_cli(["bench", "--batch", "1", "--tokens", "4",
                            "--dim", "12", "--reps", "1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "scheme,median_ns_per_token,iqr"
    rows = [line.split(",") for line in lines[1:]]
    names = [r[0] for r in rows]
    assert names == ["rope1d", "trivial2d", "axial", "mixed", "spherical",
                     "uniform", "liere"]
    assert all(float(r[1]) > 0 for r in rows)
    assert all(len(r) == 3 for r in rows)


def test_bench_encodes_each_rep_in_one_batch(capsys, monkeypatch):
    # a row is reps calls of Encoder.encode, each of batch x tokens tokens
    encode, calls = E.Encoder.encode, []

    def counted(self, z, p):
        calls.append((self.scheme, np.shape(z), np.shape(p)))
        return encode(self, z, p)

    monkeypatch.setattr(E.Encoder, "encode", counted)
    code, out, _ = run_cli(["bench", "--batch", "2", "--tokens", "3", "--dim", "12", "--reps", "4"], capsys)
    assert code == 0
    want = []
    for name in [line.split(",")[0] for line in out.strip().split("\n")[1:]]:
        axes = 2 if name == "liere" else E.make_encoder(name, 12).axes
        want += [(name, (2, 3, 12), (2, 3, axes))] * 4
    assert len(want) == 7 * 4 and calls == want


def test_bench_liere_row_times_the_reduced_encoder():
    from ropekit.cli import _bench_callables

    name, fn, axes = _bench_callables(12, True, np.random.default_rng(0))[-1]
    assert name == "liere" and axes == 2
    assert fn.__self__.scheme == "liere" and fn.__self__.reduction is not None


def test_bench_skips_incompatible_dims(capsys):
    # dim 10: spherical (needs /3) and axial/uniform (need /4) cannot run
    code, out, err = run_cli(["bench", "--batch", "1", "--tokens", "2",
                              "--dim", "10", "--reps", "1"], capsys)
    assert code == 0
    names = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert "axial" not in names and "spherical" not in names
    assert "rope1d" in names and "mixed" in names
    assert "skipping" in err


def test_bench_invalid_sizes_exit_2(capsys):
    code, _, _ = run_cli(["bench", "--reps", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [["pattern", "--scheme", "mixed", "--dim", "4", "--width", "2", "--height", "2"],
                                  ["bench", "--batch", "1", "--tokens", "1", "--dim", "4", "--reps", "1"]])
def test_negative_seed_exits_2_naming_seed(tmp_path, capsys, argv):
    # Philox's own message was "key must be positive and less than 2**128"
    for bad in ("-1", str(2**128)):
        code, _, err = run_cli(argv + ["--seed", bad], capsys)
        assert code == 2
        assert f"--seed must be a non-negative integer below 2**128, got {bad}" in err
    assert run_cli(argv + ["--seed", "0"] + (["-o", str(tmp_path / "p.pgm")] if argv[0] == "pattern" else []),
                   capsys)[0] == 0


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_pattern_config_with_ragged_frequencies_exits_2_naming_them(tmp_path, capsys):
    cfg = tmp_path / "enc.json"
    cfg.write_text(json.dumps({"scheme": "mixed", "dim": 4, "freqs": [[1, 2], [3]]}))
    code, _, err = run_cli(["pattern", "--config", str(cfg), "-o", str(tmp_path / "p.pgm")], capsys)
    assert code == 2
    assert err.startswith("error: frequencies must be a rectangular array: ")
    assert not (tmp_path / "p.pgm").exists()
