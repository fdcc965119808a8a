"""planes4 benchmark: end-to-end metrics of one workload, or a traced per-layer run.

    python3 perfbench/run.py --workload plateau_lawlor --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  Workloads: plateau_lawlor, scan_pinch,
cli_mix (see perfbench/README.md for what each covers and why).

--trace 0   SETUP_SAMPLES fresh processes each import planes4.cli and build
            the workload's inputs; one more sets up the same way and then
            runs verified passes of the workload for about --seconds.
            Prints wall_s, cpu_s, setup_s, peak_rss_mb, failed_frac, the
            machine block and CPU steal, then the result as one JSON line
            whose metrics are wall_s, setup_s and peak_rss_mb.  cpu_s
            (every thread's CPU time) is printed beside wall_s, not gated:
            fewer threads lower it without making planes4 any faster.
--trace 1   one untraced and one traced pass of the named workload, in one
            fresh process, on inputs built separately for each.  The layer
            metrics come from the traced pass; a layer the workload does
            not use reads 0.  trace.overhead_s is traced minus untraced
            wall time.

Every child runs with the environment as found.  Exit status: 0 when every
pass verified, 1 when a pass failed or a child did not finish, 2 for a
usage error or a checkout without planes4 sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plateau_lawlor", "scan_pinch", "cli_mix")
#: fresh set-up processes per run; the run's own child adds one more sample
SETUP_SAMPLES = 10
#: every run ends within this many seconds of its start
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, read only."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def _workdir(workload: str, seed: int) -> Path:
    return HERE / "out" / f"{workload}-seed{seed}"


def _child(args, workload: str, mode: str, deadline: float) -> dict:
    # a workdir relative to the root keeps the CSVs identical across checkouts
    workdir = _workdir(workload, args.seed).relative_to(ROOT)
    result = HERE / "out" / f"child-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--result", str(result)]
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError(f"no time left for a {mode} process of {workload}")
    try:
        # the child's own output goes to stderr, keeping stdout for the result
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process of {workload} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {workload} exited {proc.returncode}")
    try:
        return json.loads(result.read_text(encoding="ascii"))
    finally:
        result.unlink(missing_ok=True)


def _pass_problems(passes: list[dict]) -> list[list[str]]:
    """Each pass's problems; a pass whose outputs differ from pass 0's also fails."""
    first = passes[0]["digest"]
    return [p["problems"] or ([] if p["digest"] == first else
                              [f"outputs differ from pass 0 ({p['digest']} vs {first})"])
            for p in passes]


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, or the max."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} s"
    return f"max {max(values):.4f} s (no percentile has 10 samples beyond it at n={n})"


def _end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = [_child(args, args.workload, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    rep = _child(args, args.workload, "run", deadline)
    setups.append(rep["setup_s"])
    passes = rep["passes"]
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
    }
    per_pass = _pass_problems(passes)
    failed = sum(1 for found in per_pass if found)
    info = {
        "machine": rep["machine"],
        "passes": len(passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "wall_samples_s": walls,
        "wall_tail": _tail(walls),
        "setup_samples_s": setups,
        "import_s": rep["import_s"],
        "failed": failed,
        "failed_frac": failed / len(passes),
        "digests": sorted({p["digest"] for p in passes if p["digest"]}),
    }
    problems = [f"pass {i}: {msg}" for i, found in enumerate(per_pass) for msg in found]
    return metrics, info, problems


def _traced(args, deadline: float, per_layer: list[str]) -> tuple[dict, dict, list[str]]:
    from tracer import GROUPS, layer_metrics

    rep = _child(args, args.workload, "trace", deadline)
    missing = [group for group, (_, _, home) in GROUPS.items()
               if home == args.workload and not rep["raw"].get(f"{group}.calls")]
    if missing:
        raise BenchError(f"layers with no call on their home workload {args.workload}: "
                         + ", ".join(missing))
    untraced, traced = rep["passes"]
    metrics = layer_metrics(rep["raw"], traced["wall_s"] - untraced["wall_s"])
    if list(metrics) != per_layer:
        raise BenchError("per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(per_layer))}")
    # the untraced pass must write what the traced one writes
    per_pass = _pass_problems(rep["passes"])
    info = {
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": untraced["wall_s"],
        "failed": sum(1 for found in per_pass if found),
        "passes": len(per_pass),
        "self_times": rep["self_times"],
    }
    problems = [f"{label} pass: {msg}" for label, found in zip(("untraced", "traced"), per_pass)
                for msg in found]
    return metrics, info, problems


def _print_summary(args, metrics: dict, info: dict, steal) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        print(f"  tracing overhead on {args.workload}: {info['traced_wall_s']:.3f} s traced "
              f"- {info['untraced_wall_s']:.3f} s untraced = "
              f"{metrics['trace.overhead_s']['value']:+.3f} s")
        top = sorted(info["self_times"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
        print("  top self times: " + ", ".join(
            f"{name} {row['self_s']:.2f} s/{row['calls']}" for name, row in top))
    else:
        m = info["machine"]
        print(f"  machine: nproc={m['nproc']} affinity={m['affinity']} python={m['python']} "
              f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']}")
        print("  threads as found: " + " ".join(f"{k}={v}" for k, v in m["threads"].items()))
        print(f"  wall_s      {metrics['wall_s']['value']:.4f} s  median of n={info['passes']} "
              f"passes; {info['wall_tail']}")
        print(f"  cpu_s       {info['cpu_s']:.4f} s  median process CPU time per pass, "
              "all threads (not gated)")
        print(f"  setup_s     {metrics['setup_s']['value']:.4f} s  median of "
              f"{len(info['setup_samples_s'])} fresh processes (import {info['import_s']:.3f} s "
              "in the run's own)")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
        print(f"  failed_frac {info['failed_frac']:.4g}  ({info['failed']} of {info['passes']} "
              "passes)")
        print("  results sha256: " + " ".join(info["digests"]))
    if steal is not None:
        print(f"  cpu steal during the run: {steal[0]:.2f} s ({100 * steal[1]:.2f}% of CPU time)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "planes4" / "cli.py").is_file():
        print(f"perfbench: no planes4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    (HERE / "out").mkdir(exist_ok=True)
    for w in WORKLOADS:
        shutil.rmtree(_workdir(w, args.seed), ignore_errors=True)
    ticks0 = _cpu_ticks()
    try:
        if args.trace:
            metrics, info, problems = _traced(args, deadline,
                                              [m["name"] for m in spec["per_layer"]])
        else:
            metrics, info, problems = _end_to_end(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in WORKLOADS:
            shutil.rmtree(_workdir(w, args.seed), ignore_errors=True)
    ticks1 = _cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        d_steal, d_total = ticks1[0] - ticks0[0], ticks1[1] - ticks0[1]
        steal = (d_steal / os.sysconf("SC_CLK_TCK"), d_steal / d_total)
    info["steal_s"] = steal[0] if steal else None

    report = HERE / "out" / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"metrics": metrics, "info": info, "problems": problems},
                                 indent=1), encoding="ascii")
    for msg in problems:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    _print_summary(args, metrics, info, steal)
    print(json.dumps({"correct": not problems, "attempted": info["passes"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
