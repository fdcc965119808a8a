"""The benchmark's contract with planes4, read from perfbench/.

The tracer names its spans ``<module>.<function>`` after the public planes4
functions it wraps, and a traced run of a workload fails when a metric
group at home there records no call.  A workload's check reads the
results planes4 returns.  These tests load tracer.py and workloads.py as
they are, so a change to planes4 that breaks either fails here, not only
in ``perfbench/run.py``.
"""

import functools
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import planes4
from planes4 import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def _perfbench(name: str):
    """The module perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # the tracer's dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def test_every_span_name_is_a_public_planes4_function():
    tracer = _perfbench("tracer")
    # cli.<subcommand> names the run_command span of that subcommand
    assert set(tracer.SUBCOMMANDS) == set(cli._COMMANDS)
    assert inspect.isfunction(cli.run_command)
    exempt = {f"cli.{sub}" for sub in tracer.SUBCOMMANDS}
    names = {n for spans, _, _ in tracer.GROUPS.values() for n in spans} | set(tracer.PROBES)
    for name in sorted(names - exempt):
        mod, func = name.split(".")
        fn = getattr(importlib.import_module(f"planes4.{mod}"), func, None)
        assert not func.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == f"planes4.{mod}", name


_TRACED_PLATEAU = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
from planes4 import cli
rc = cli.run_command(sys.argv[2:])
print(json.dumps({"rc": rc, "totals": t.raw_totals()}))
"""


def test_traced_plateau_run_records_every_plateau_lawlor_group(tmp_path):
    # install() rebinds module attributes, so the traced run gets its own process
    env = dict(os.environ)
    src = str(Path(planes4.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["plateau", "--alpha1", "1.5", "--alpha2", "1.5", "--pinch", "0.2",
            "--segments", "32", "--iters", "1", "--write-mesh", "--out", str(tmp_path)]
    r = subprocess.run([sys.executable, "-c", _TRACED_PLATEAU, str(PERFBENCH), *argv],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["rc"] == 0
    home = [g for g, (_, _, where) in _perfbench("tracer").GROUPS.items() if where == "plateau_lawlor"]
    assert "surfaces.shadow_area" in home and "plateau.certificate" in home
    silent = [g for g in home if not result["totals"][f"{g}.calls"]]
    assert not silent, silent


def test_scan_pinch_verify_reads_the_report_of_either_exit():
    # the scan_pinch check reads report attributes that epsilon_process
    # derives, so a renamed or missing one fails here first
    from planes4 import grassmann, scanner
    planes = (grassmann.P01, grassmann.P02)
    samples = (scanner.plane_pair_sample(spacing=8e-3),
               scanner.pinched_pair_sample(0.2, 0.1, spacing=8e-3))
    reports = [scanner.epsilon_process(s, planes, 0.05, 0.05) for s in samples]
    assert reports[0].floor_hit and reports[1].stopped
    problems, digest = _perfbench("workloads").ScanPinch().verify({}, None, reports)
    assert isinstance(problems, list)
    assert re.fullmatch("[0-9a-f]{64}", digest)
