"""One workload in a fresh process; the result goes to a JSON file.

Modes:
  setup  import planes4.cli and build the workload's inputs, nothing else
  run    set up, then run untraced passes for about --seconds
  trace  set up and run one untraced pass, then install the tracer and run
         one traced pass on inputs built again; the tracing overhead is the
         difference of the two

The environment is used as found; thread variables are read, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_planes4() -> float:
    """Import planes4.cli (numpy and scipy with it) from this checkout's src/."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import planes4.cli
    where = Path(planes4.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: planes4 imported from {where}, not from {ROOT / 'src'}")
    return time.perf_counter() - start


def _machine() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("PLANES4_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _one_pass(wl, state, out: Path) -> dict:
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        result = wl.run(state, out)
        error = None
    except Exception as exc:  # a failed call is a failed pass, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if error is None:
        try:
            problems, digest = wl.verify(state, out, result)
        except Exception as exc:  # unreadable or malformed outputs fail the pass
            problems, digest = [f"verification failed: {type(exc).__name__}: {exc}"], None
    else:
        problems, digest = [error], None
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems, "digest": digest}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True, help="relative to the checkout root")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    os.chdir(ROOT)            # --workdir and the paths in the CSVs are relative to it
    import_s = _import_planes4()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    report: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    start = time.perf_counter()
    state = wl.setup(args.seed, workdir)
    report["setup_s"] = import_s + (time.perf_counter() - start)
    report["import_s"] = import_s

    passes = []
    if args.mode == "run":
        report["machine"] = _machine()
        begin = time.perf_counter()
        while True:
            passes.append(_one_pass(wl, state, workdir / f"pass{len(passes)}"))
            if len(passes) == 1:   # later passes add allocator growth, not workload memory
                report["peak_rss_mb"] = _peak_rss_mb()
            elapsed = time.perf_counter() - begin
            typical = statistics.median(p["wall_s"] for p in passes)
            if elapsed + typical > args.seconds:
                break
    elif args.mode == "trace":
        from tracer import Tracer
        passes.append(_one_pass(wl, state, workdir / "untraced"))
        state = None           # free the untraced inputs before building traced ones
        tracer = Tracer()
        tracer.install()
        state = wl.setup(args.seed, workdir)
        passes.append(_one_pass(wl, state, workdir / "traced"))
        raw, self_times = tracer.raw_totals(), tracer.self_times()
        report["raw"] = raw
        report["self_times"] = self_times
    report["passes"] = passes
    report.setdefault("peak_rss_mb", _peak_rss_mb())
    Path(args.result).write_text(json.dumps(report), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
