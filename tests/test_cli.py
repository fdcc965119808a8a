import importlib.metadata
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planes4
from planes4.cli import main, run_command
from planes4.errors import NumericalError
from planes4.plateau import build_union_mesh
from planes4.surfaces import write_mesh4


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


@pytest.mark.parametrize("argv, flag", [
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch-sweep", "a,b"], "--pinch-sweep"),
    (["annulus", "--mode", "exact", "--r0", "0.5", "--acoef", "1,x"], "--acoef"),
    (["wirtinger", "--samples", "-5"], "--samples"),
    (["bounds", "--alpha-steps", "-2"], "--alpha-steps"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--iters", "-3"], "--iters"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--segments", "-1"], "--segments"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--resolution", "x"], "--resolution"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--fd-check", "--grid-r", "-5"], "--grid-r"),
    (["bounds", "--alpha1", "nan", "--alpha2", "1"], "--alpha1"),
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--pinch-sweep", "0.2000001,0.2000002"],
     "--pinch-sweep"),
])
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
    (["plateau", "--alpha1", "1", "--alpha2", "1", "--resolution", "10"], "got 10"),
    (["annulus", "--mode", "exact", "--r0", "1.5"], "got 1.5"),
    (["annulus", "--mode", "reflect", "--r0", "0.6"], "r0=0.6"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--eps", "1.5"], "got 1.5"),
    (["annulus", "--mode", "log", "--r0", "0.1", "--fd-check", "--grid-r", "10"], "(10, 512)"),
    (["scan", "--eps", "2"], "got 2.0"),
    (["scan", "--eps", "0.01", "--density", "0"], "got 0.0"),
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
                    "--alpha2", "1.5707963267948966",
                    "--pinch-sweep", "0.1,0.2", "--segments", "64", "--iters", "5"],
        "scan": ["scan", "--mesh", str(mesh_path), "--eps", "0.01",
                 "--density", "0.04"],
    }
    for name, base in commands.items():
        out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        monkeypatch.delenv("PLANES4_THREADS", raising=False)
        assert run_command(base + ["--out", str(out1)]) == 0
        monkeypatch.setenv("PLANES4_THREADS", "2")
        assert run_command(base + ["--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes(), name


def test_thread_count_parses_env(monkeypatch):
    for raw, want in (("", 1), ("3", 3), ("0", 1), ("-2", 1), ("many", 1)):
        monkeypatch.setenv("PLANES4_THREADS", raw)
        assert planes4.thread_count() == want, raw
    monkeypatch.delenv("PLANES4_THREADS")
    assert planes4.thread_count() == 1


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
                    "--pinch", "0.2", "--segments", "32", "--iters", "1",
                    "--resolution", "128"],
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
