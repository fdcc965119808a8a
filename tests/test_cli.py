import argparse
import hashlib
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import planes4
from planes4.cli import _build_parser, _fmt, main, run_command
from planes4.errors import NumericalError
from planes4.plateau import build_union_mesh
from planes4.surfaces import write_mesh4

from helpers import ForcedSplitMix64, SequentialSplitMix64, wirtinger_rows_oracle


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_bounds_orthogonal_row(tmp_path):
    out = tmp_path / "b"
    rc = run_command(["bounds", "--alpha1", "1.5707963267948966",
                      "--alpha2", "1.5707963267948966", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["sup_value"]) == pytest.approx(1.0, abs=1e-6)
    assert float(row["wirtinger_bound"]) == pytest.approx(1.0, abs=1e-12)
    assert (out / "manifest.txt").exists()
    assert (out / "record.txt").exists()


def test_bounds_sweep_sorted(tmp_path):
    out = tmp_path / "s"
    assert run_command(["bounds", "--alpha-steps", "3", "--out", str(out)]) == 0
    header, rows = read_csv(out / "results.csv")
    pairs = [(float(r[0]), float(r[1])) for r in rows]
    assert pairs == sorted(pairs)
    assert len(pairs) == 6      # upper-triangular 3x3 grid


def test_annulus_log_value(tmp_path):
    out = tmp_path / "a"
    rc = run_command(["annulus", "--mode", "log", "--delta", "1",
                      "--r0", "0.1", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    value = float(dict(zip(header, rows[0]))["value"])
    assert value == pytest.approx(0.027287527076836824, abs=1e-9)


def test_annulus_exact_with_fd_check(tmp_path):
    out = tmp_path / "e"
    rc = run_command(["annulus", "--mode", "exact", "--acoef", "1",
                      "--r0", "0.5", "--fd-check", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["value"]) == pytest.approx(1.2 * np.pi, abs=1e-12)
    assert float(row["fd_rel_err"]) <= 0.01


def test_wirtinger_members(tmp_path):
    out = tmp_path / "w"
    rc = run_command(["wirtinger", "--samples", "50", "--seed", "3",
                      "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    xi_rows = [r for r in rows if r[0] == "xi"]
    assert len(xi_rows) == 50
    assert all(r[4] == "1" for r in xi_rows)


@pytest.mark.parametrize("seed, samples, digest", [
    (1, 2000, "0027da572c03a0ce"), (1009, 2000, "813c5c61f6feda79"), (11, 100, "644fbd6584432089"),
])
def test_wirtinger_csv_bytes_are_pinned(tmp_path, seed, samples, digest):
    out = tmp_path / "w"
    assert run_command(["wirtinger", "--samples", str(samples), "--seed", str(seed),
                        "--out", str(out)]) == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("argv, digest", [
    (["--mode", "exact", "--r0", "0.5"], "5bc769d8f905b1ae"),
    (["--mode", "log", "--r0", "0.1"], "bc480f923fea6545"),
])
def test_annulus_fd_check_csv_bytes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "a"
    assert run_command(["annulus", *argv, "--fd-check", "--grid-r", "512", "--grid-t", "2048",
                        "--out", str(out)]) == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()[:16] == digest


def _wirtinger_rows(out, samples, tol):
    assert run_command(["wirtinger", "--samples", str(samples), "--seed", "7",
                        "--tol", str(tol), "--out", str(out)]) == 0
    return read_csv(out / "results.csv")[1], (out / "record.txt").read_text().splitlines()


@pytest.mark.parametrize("samples", [0, 1, 50])
@pytest.mark.parametrize("tol", [1e-8, 0.25])
def test_wirtinger_batch_rows_equal_per_sample_oracle(tmp_path, samples, tol):
    rows, record = _wirtinger_rows(tmp_path / "w", samples, tol)
    want = wirtinger_rows_oracle(SequentialSplitMix64(7), samples, tol)
    assert rows == [[_fmt(v) for v in row] for row in want]
    members = sum(r[4] for r in want if r[0] == "xi")
    assert record[2:] == [f"samples {samples}", f"tol {_fmt(tol)}", f"xi_members {members}"]


def test_wirtinger_forced_redraw_follows_the_sequential_rule(tmp_path, monkeypatch):
    # all four u1 draws of the 6th and 11th unit-vector groups read 1.0 (an
    # all-zero group): only that group is redrawn, and the pairs stay x, y
    forced = [250 + 8 * g + 2 * k for g in (5, 10) for k in range(4)]
    monkeypatch.setattr("planes4.cli.SplitMix64", lambda seed: ForcedSplitMix64(seed, forced))
    rows, _ = _wirtinger_rows(tmp_path / "w", 50, 0.25)
    want = wirtinger_rows_oracle(SequentialSplitMix64(7, forced), 50, 0.25)
    assert rows == [[_fmt(v) for v in row] for row in want]
    unforced = wirtinger_rows_oracle(SequentialSplitMix64(7), 50, 0.25)
    assert want[:52] == unforced[:52] and want[52][3] != unforced[52][3]


def test_scan_flat_mesh_hits_floor(tmp_path):
    mesh_path = tmp_path / "flat.mesh4"
    write_mesh4(mesh_path, build_union_mesh(np.pi / 2, np.pi / 2, 64))
    out = tmp_path / "scan"
    rc = run_command(["scan", "--mesh", str(mesh_path), "--eps", "0.01",
                      "--density", "0.04", "--out", str(out)])
    assert rc == 0
    record = (out / "record.txt").read_text()
    assert "floor_hit 1" in record
    assert "stopped 0" in record
    fields = {line.split()[0]: line.split()[1:] for line in record.splitlines()}
    steps = int(fields["steps"][0])
    window_points, candidates, rejected = (
        [int(v) for v in fields[k]] for k in ("window_points", "candidates", "rejected_early"))
    assert len(window_points) == len(candidates) == len(rejected) == steps
    # windows halve in radius about a nearly fixed centre, so they shrink
    assert all(a > b > 0 for a, b in zip(window_points, window_points[1:]))
    assert all(0 <= r < c for r, c in zip(rejected, candidates))


def test_scan_detects_pinched_competitor_mesh(tmp_path):
    # lab competitor -> mesh file -> scan: the pinch is found at some scale
    from planes4.plateau import build_pinched_competitor
    mesh_path = tmp_path / "pinched.mesh4"
    write_mesh4(mesh_path, build_pinched_competitor(np.pi / 2, np.pi / 2, 0.2, 64))
    out = tmp_path / "scanp"
    rc = run_command(["scan", "--mesh", str(mesh_path), "--eps", "0.05",
                      "--density", "0.02", "--out", str(out)])
    assert rc == 0
    record = (out / "record.txt").read_text()
    assert "stopped 1" in record
    r_k = float(next(line.split()[1] for line in record.splitlines()
                     if line.startswith("r_k")))
    assert 0.0625 <= r_k <= 0.5


def test_scan_stops_where_the_set_misses_the_window(tmp_path):
    # the union shifted by 3 along e1 leaves D(0, 1/2) without a sample point:
    # the window's value is its lattice side alone, so the scan stops at once
    from planes4.surfaces import TriMesh4
    mesh = build_union_mesh(np.pi / 2, np.pi / 2, 64)
    mesh_path = tmp_path / "shifted.mesh4"
    write_mesh4(mesh_path, TriMesh4(mesh.vertices + [3.0, 0.0, 0.0, 0.0], mesh.faces))
    out = tmp_path / "scan"
    rc = run_command(["scan", "--mesh", str(mesh_path), "--eps", "0.01",
                      "--density", "0.04", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    fields = {line.split()[0]: line.split()[1:]
              for line in (out / "record.txt").read_text().splitlines()}
    assert fields["stopped"] == ["1"] and fields["window_points"] == ["0"]
    assert len(rows) == 1 and float(fields["r_k"][0]) == 0.5
    assert float(rows[0][header.index("best_dist")]) > 0.01


def test_scan_missing_mesh_is_config_error(tmp_path):
    rc = run_command(["scan", "--mesh", str(tmp_path / "nope.mesh4"),
                      "--eps", "0.01", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_plateau_small_run(tmp_path):
    out = tmp_path / "p"
    rc = run_command(["plateau", "--alpha1", "0.5235987755982988",
                      "--alpha2", "0.5235987755982988", "--pinch", "0.2",
                      "--segments", "64", "--iters", "10", "--write-mesh",
                      "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    row = dict(zip(header, rows[0]))
    assert row["verdict"] == "improved"
    assert (out / "final_0p2.mesh4").exists()
    record = (out / "record.txt").read_text().splitlines()
    assert record[record.index("stopped") + 1] == "  0.2 max-iters"
    gnorm = record[record.index("grad_norm") + 1].split()
    assert gnorm[0] == "0.2" and float(gnorm[1]) > 0.0


@pytest.mark.parametrize("argv", [
    ["plateau", "--alpha1", "1.5", "--alpha2", "1.5", "--pinch", "0.2",
     "--segments", "32", "--iters", "1", "--write-mesh"],
    ["bounds", "--alpha1", "1.0", "--alpha2", "1.2"],
], ids=["plateau", "bounds"])
def test_manifest_lists_every_output_file(tmp_path, argv):
    out = tmp_path / "o"
    assert run_command(argv + ["--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    outputs = next(line.split()[1:] for line in lines if line.startswith("outputs "))
    # every file written is listed, and every listed file was written
    assert sorted(outputs) == sorted(p.name for p in out.iterdir())


def test_failed_write_leaves_no_manifest_and_no_temporaries(tmp_path, capsys, monkeypatch):
    # the mesh write breaks after the CSV and the record are written: the run
    # must rename none of them into place and remove every temporary
    def breaks(path, mesh):
        Path(path).write_text("MESH4 3\n")
        raise OSError("no space left on device")

    monkeypatch.setattr("planes4.cli.write_mesh4", breaks)
    out = tmp_path / "f"
    rc = run_command(["plateau", "--alpha1", "1.5", "--alpha2", "1.5", "--pinch", "0.2",
                      "--segments", "32", "--iters", "1", "--write-mesh", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "no space left on device" in err
    assert f"configuration error: cannot write {out / 'final_0p2.mesh4'}: " in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("body, line", [
    ("0 0 0 0\n1 0 0\n0 1 0 0\n0 1 2\n", 3),       # short vertex line
    ("0 0 0 0\n1 0 0 0\n0 1 zero 0\n0 1 2\n", 4),  # non-numeric token
    ("0 0 0 0\n1 0 0 0\n0 1 0 0\n0 1 3\n", 5),     # face index out of range
    ("0 0 0 0\n1e200 0 0 0\n0 1e200 0 0\n0 1 2\n", None),  # face area overflows
    ("", None),                                     # empty mesh, nothing to sample
])
def test_scan_malformed_mesh_is_config_error(tmp_path, capsys, body, line):
    mesh_path = tmp_path / "bad.mesh4"
    mesh_path.write_text(("MESH4 3 1\n" if body else "MESH4 0 0\n") + body)
    rc = run_command(["scan", "--mesh", str(mesh_path), "--eps", "0.01",
                      "--out", str(tmp_path / "o")])
    assert rc == 1
    where = mesh_path if line is None else f"{mesh_path}:{line}"
    assert f"configuration error: {where}: " in capsys.readouterr().err


def test_unknown_flag_exit_code(tmp_path, capsys):
    rc = run_command(["bounds", "--bogus", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_unusable_out_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    rc = run_command(["bounds", "--out", str(tmp_path / "file" / "x")])
    assert rc == 1
    assert "configuration error: cannot create --out directory" in capsys.readouterr().err


BAD_FLAG_VALUE = [
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch-sweep", "a,b"], "--pinch-sweep"),
    (["annulus", "--mode", "exact", "--r0", "0.5", "--acoef", "1,x"], "--acoef"),
    (["wirtinger", "--samples", "-5"], "--samples"),
    (["bounds", "--alpha-steps", "-2"], "--alpha-steps"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--iters", "-3"], "--iters"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--segments", "-1"], "--segments"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--fd-check", "--grid-t", "x"], "--grid-t"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--fd-check", "--grid-r", "-5"], "--grid-r"),
    (["bounds", "--alpha1", "nan", "--alpha2", "1"], "--alpha1"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch-sweep", "0.2000001,0.2000002"],
     "--pinch-sweep"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAG_VALUE)
def test_bad_flag_value_is_config_error_naming_flag(tmp_path, capsys, argv, flag):
    rc = run_command(argv + ["--out", str(tmp_path / "z")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err


OUT_OF_RANGE = [
    (["plateau", "--alpha1", "2", "--alpha2", "2"], "(2.0, 2.0)"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--segments", "10"], "got 10"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch", "0.7"], "got 0.7"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch-sweep", "0.2,0.7"], "got 0.7"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch", "0.01"], "radius 0.01"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch-sweep", "0,0.05",
      "--segments", "32"], "radius 0.05"),
    (["annulus", "--mode", "exact", "--r0", "1.5"], "got 1.5"),
    (["annulus", "--mode", "reflect", "--r0", "0.6"], "r0=0.6"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--eps", "1.5"], "got 1.5"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--fd-check", "--grid-r", "10"], "(10, 512)"),
    (["annulus", "--mode", "reflect", "--r0", "0.25", "--fd-check", "--grid-r", "10"],
     "--fd-check does not apply to reflect mode"),
    (["annulus", "--mode", "exact", "--r0", "0.5", "--acoef", "1e200", "--fd-check"],
     "--mean/--acoef/--bcoef: the exact value is inf"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--delta", "1e200"], "--delta: the log value is inf"),
    (["scan", "--eps", "2"], "got 2.0"),
    (["scan", "--eps", "0.01", "--density", "0"], "got 0.0"),
    (["scan", "--eps", "0.01", "--density", "1e-5"], "spacing 1e-05 would give 3.2e+11"),
    (["scan", "--eps", "0.01", "--floor", "0.001"], "floor 0.001"),
    (["scan", "--eps", "0.01", "--alpha1", "2"], "(2.0, "),
    (["bounds", "--alpha1", "2", "--alpha2", "2"], "(2.0, 2.0)"),
    (["wirtinger", "--tol", "-1"], "got -1.0"),
    (["wirtinger", "--tol", "1e-300"], "got 1e-300"),
    (["plateau", "--alpha1", "1e-13", "--alpha2", "1e-13", "--pinch", "0.2", "--segments", "32"],
     "angles (1e-13, 1e-13)"),
]


@pytest.mark.parametrize("argv, value", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_value_is_config_error(tmp_path, capsys, monkeypatch, argv, value):
    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran before the range check")

    monkeypatch.setattr("planes4.plateau.minimize_area", no_descent)
    if argv[0] == "scan":
        mesh_path = tmp_path / "union.mesh4"
        write_mesh4(mesh_path, build_union_mesh(np.pi / 2, np.pi / 2, 32))
        argv = argv + ["--mesh", str(mesh_path)]
        if "--density" not in argv:
            argv += ["--density", "0.04"]
    rc = run_command(argv + ["--out", str(tmp_path / "z")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "configuration error" in err and value in err, err


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def diverges(*args, **kwargs):
        raise NumericalError("annulus solve did not converge: residual 1.000e+00")

    monkeypatch.setattr("planes4.annulus.fd_oracle", diverges)
    rc = run_command(["annulus", "--mode", "log", "--delta", "1", "--r0", "0.1",
                      "--fd-check", "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "numerical failure: annulus solve did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, message", [
    (ValueError("a bug"), 3, "internal error: ValueError('a bug')"),
    (np.linalg.LinAlgError("singular matrix"), 2, "numerical failure: singular matrix"),
])
def test_exit_code_follows_the_exception_type(tmp_path, capsys, monkeypatch, exc, code, message):
    # only the toolkit's numerical errors and numpy's LinAlgError are numerical
    # failures; any other exception is a bug and shows its traceback
    def raises(*args, **kwargs):
        raise exc

    monkeypatch.setattr("planes4.annulus.fd_oracle", raises)
    rc = run_command(["annulus", "--mode", "log", "--delta", "1", "--r0", "0.1",
                      "--fd-check", "--out", str(tmp_path / "y")])
    err = capsys.readouterr().err
    assert rc == code and message in err, err
    assert ("Traceback" in err) == (code == 3), err


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=log\ndelta=1\nr0=0.1\n")
    out = tmp_path / "c"
    rc = run_command(["annulus", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    assert float(dict(zip(header, rows[0]))["value"]) == pytest.approx(
        0.027287527076836824, abs=1e-9)


def test_config_equals_form_reads_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_steps=3\n")
    argv = ["bounds", "--alpha1", "0.3", "--alpha2", "0.4"]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run_command(argv + ["--config", str(cfg), "--out", str(spaced)]) == 0
    assert run_command(argv + [f"--config={cfg}", "--out", str(joined)]) == 0
    assert len(read_csv(spaced / "results.csv")[1]) == 6     # the file's sweep ran
    assert (joined / "results.csv").read_bytes() == (spaced / "results.csv").read_bytes()


def test_command_line_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=log\ndelta=1\nr0=0.1\n")
    out = tmp_path / "c2"
    rc = run_command(["annulus", "--config", str(cfg), "--r0", "0.2",
                      "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "results.csv")
    assert float(dict(zip(header, rows[0]))["r0"]) == 0.2


def test_reproducible_csv_bytes(tmp_path):
    args = ["wirtinger", "--samples", "100", "--seed", "11"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_command(args + ["--out", str(out1)]) == 0
    assert run_command(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "record.txt").read_bytes() == (out2 / "record.txt").read_bytes()


def test_thread_env_does_not_change_results(tmp_path, monkeypatch):
    mesh_path = tmp_path / "flat.mesh4"
    write_mesh4(mesh_path, build_union_mesh(np.pi / 2, np.pi / 2, 64))
    commands = {
        "plateau": ["plateau", "--alpha1", "1.5707963267948966",
                    "--alpha2", "1.5707963267948966", "--pinch-sweep", "0.1,0.2,0.3",
                    "--segments", "64", "--iters", "5", "--write-mesh"],
        "scan": ["scan", "--mesh", str(mesh_path), "--eps", "0.01",
                 "--density", "0.04"],
    }
    for name, base in commands.items():
        outputs = []
        for threads in ("1", "2", None):      # unset is every core, not serial
            if threads is None:
                monkeypatch.delenv("PLANES4_THREADS", raising=False)
            else:
                monkeypatch.setenv("PLANES4_THREADS", threads)
            out = tmp_path / f"{name}{threads}"
            assert run_command(base + ["--out", str(out)]) == 0
            files = ["results.csv", "record.txt"] + sorted(p.name for p in out.glob("*.mesh4"))
            outputs.append({f: (out / f).read_bytes() for f in files})
        assert len(outputs[0]) == (5 if name == "plateau" else 2)
        assert outputs[0] == outputs[1] == outputs[2], name


def test_sweep_caller_runs_lane_zero(tmp_path, monkeypatch):
    # 3 pinches on 2 threads: lane 0 (pinches 1 and 3) on the calling
    # thread, lane 1 on the one pool thread, rows back in pinch order
    ran = []
    real = planes4.plateau.run_experiment

    def recording(cfg, mesh):
        ran.append((threading.get_ident(), cfg.pinch_radius))
        return real(cfg, mesh)

    monkeypatch.setattr("planes4.plateau.run_experiment", recording)
    monkeypatch.setenv("PLANES4_THREADS", "2")
    out = tmp_path / "p"
    assert run_command(["plateau", "--alpha1", "0.5", "--alpha2", "0.6",
                        "--pinch-sweep", "0.25,0.15,0.2", "--segments", "32",
                        "--iters", "1", "--out", str(out)]) == 0
    by_thread = {}
    for ident, pinch in ran:
        by_thread.setdefault(ident, []).append(pinch)
    assert by_thread.pop(threading.get_ident()) == [0.15, 0.25]
    assert list(by_thread.values()) == [[0.2]]
    header, rows = read_csv(out / "results.csv")
    assert [float(row[header.index("pinch")]) for row in rows] == [0.15, 0.2, 0.25]


def test_thread_count_parses_env(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    for raw, want in (("", cores), ("3", 3), ("0", 1), ("-2", 1), ("many", 1)):
        monkeypatch.setenv("PLANES4_THREADS", raw)
        assert planes4.thread_count() == want, raw
    monkeypatch.delenv("PLANES4_THREADS")
    assert planes4.thread_count() == cores


def _planes4_distribution():
    try:
        return importlib.metadata.distribution("planes4")
    except importlib.metadata.PackageNotFoundError:
        return None


def _child_python(args, **kwargs):
    # a Python child importing the same planes4 as this process, whatever
    # the cwd and however PYTHONPATH was given
    env = dict(os.environ)
    src = str(Path(planes4.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, **kwargs)


def _module_cli(args, **kwargs):
    return _child_python(["-m", "planes4", *args], **kwargs)


@pytest.mark.parametrize("argv, message", [
    (["--mode", "exact", "--r0", "0.5", "--acoef", "1e200"],
     "planes4: configuration error: --mean/--acoef/--bcoef: the exact value is inf, "
     "not a finite number"),
    (["--mode", "log", "--r0", "0.5", "--delta", "1e200"],
     "planes4: configuration error: --delta: the log value is inf, not a finite number"),
])
def test_annulus_overflow_reports_config_error_without_warning(tmp_path, argv, message):
    # a fresh process, so numpy's once-per-location warnings cannot be spent already
    r = _module_cli(["annulus", *argv, "--out", str(tmp_path / "a")])
    assert r.returncode == 1, r.stderr
    assert r.stderr.strip() == message, r.stderr


def test_cli_import_leaves_scipy_spatial_unloaded():
    # only the scanner's kd-tree builders import scipy.spatial, so
    # subcommands that never build one do not pay for its import
    r = _child_python(["-c", "import sys, planes4.cli; "
                             "print('scipy.spatial' in sys.modules)"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.skipif(_planes4_distribution() is None,
                    reason="planes4 is not installed: importlib.metadata "
                           "finds no planes4 distribution, so there is no "
                           "console script (pip install -e .)")
def test_entry_point_installed():
    scripts = _planes4_distribution().entry_points.select(
        group="console_scripts", name="planes4")
    assert [ep.value for ep in scripts] == ["planes4.cli:main"]
    assert scripts["planes4"].load() is main
    script = shutil.which("planes4")
    assert script is not None, "console script 'planes4' not found on PATH"
    r = subprocess.run([script, "--help"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    for cmd in ("bounds", "wirtinger", "annulus", "scan", "plateau"):
        assert cmd in r.stdout


def test_module_entry_matches_run_command(tmp_path):
    args = ["bounds", "--alpha1", "1.0", "--alpha2", "1.2", "--out"]
    r = _module_cli(args + ["m"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert run_command(args + [str(tmp_path / "r")]) == 0
    assert ((tmp_path / "m" / "results.csv").read_bytes()
            == (tmp_path / "r" / "results.csv").read_bytes())


def _documented_columns(docs: str) -> dict[str, set[str]]:
    """Column names listed in each subcommand's table of docs/cli.md."""
    out = {}
    for section in docs.split("\n## ")[1:]:
        name, _, body = section.partition("\n")
        rows = [line.split("|")[1] for line in body.splitlines() if line.startswith("| ")]
        out[name.strip()] = {c.strip() for cell in rows[1:] for c in cell.split(",")}
    return out


def test_every_csv_column_is_documented(tmp_path):
    # emitted headers must all appear in the subcommand help epilog and in
    # docs/cli.md, and every column docs/cli.md lists for a subcommand must
    # be emitted: no undocumented columns and no stale ones
    docs = (Path(__file__).resolve().parent.parent / "docs" / "cli.md").read_text()
    listed = _documented_columns(docs)
    mesh_path = tmp_path / "m.mesh4"
    write_mesh4(mesh_path, build_union_mesh(np.pi / 2, np.pi / 2, 32))
    runs = {
        "bounds": ["bounds", "--alpha1", "1.0", "--alpha2", "1.2"],
        "wirtinger": ["wirtinger", "--samples", "3"],
        "annulus": ["annulus", "--mode", "log", "--r0", "0.1"],
        "scan": ["scan", "--mesh", str(mesh_path), "--eps", "0.5",
                 "--density", "0.1"],
        "plateau": ["plateau", "--alpha1", "1.5", "--alpha2", "1.5",
                    "--pinch", "0.2", "--segments", "32", "--iters", "1"],
    }
    for name, args in runs.items():
        out = tmp_path / f"cols_{name}"
        assert run_command(args + ["--out", str(out)]) == 0
        header, _ = read_csv(out / "results.csv")
        r = _module_cli([name, "--help"])
        assert r.returncode == 0, (name, r.stderr)
        help_text = r.stdout
        for col in header:
            assert col in help_text, (name, col)
            assert col in docs, (name, col)
        assert listed[name] == set(header), name


def test_every_long_flag_is_documented():
    # the long flags of every subcommand are exactly the --flags docs/cli.md
    # names, apart from --help and pip's --no-build-isolation: a new flag
    # needs documenting, and a removed one must leave the reference
    docs = (Path(__file__).resolve().parent.parent / "docs" / "cli.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*[a-z0-9]", docs))
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for sub in subparsers.choices.values() for action in sub._actions
             for opt in action.option_strings if opt.startswith("--")}
    assert flags - {"--help"} == named - {"--no-build-isolation"}
