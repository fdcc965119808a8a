"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/suite.py                       # every workload, seed 1
    python3 perfbench/suite.py --seeds 1-10 --save perfbench/out/suite.json

Each (workload, seed) is one ``run.py --trace 0`` invocation, for every
workload of BENCHMARK.json and at its run_seconds.  For each end-to-end
metric of BENCHMARK.json, and for cpu_s (printed, not gated), the table
gives the median over seeds, the quartiles as ``statistics.quantiles(values,
n=4)`` computes them, the spread (Q3 - Q1) / median, and the bound;
failed_frac is failed passes over attempted passes across all seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,5,9")
    ap.add_argument("--save", default=None, help="write every run's result here")
    args = ap.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in names:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = HERE / "out" / f"report-{workload}-seed{seed}-trace0.json"
            info = json.loads(report.read_text(encoding="ascii"))["info"]
            result["metrics"]["cpu_s"] = {"value": info["cpu_s"], "unit": "s"}
            result["seed"] = seed
            result["steal_s"] = info["steal_s"]
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4f} {m['unit']}" for k, m in result["metrics"].items()),
                flush=True)

    # cpu_s is shown beside the gated metrics but has no bound
    metrics = [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("cpu_s", "s", None))
    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'Q1':>10s} {'Q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, results in runs.items():
        for name, unit, bound in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            shown = f"{bound:6.2f}" if bound is not None else f"{'-':>6s}"
            print(f"{workload:15s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{(q3 - q1) / med:7.3f} {shown}  {unit}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload:15s} {'failed_frac':12s} {failed / attempted:10.4f}"
              f"   ({failed} of {attempted} passes)")
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
