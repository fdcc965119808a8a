"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.install`` rebinds every public function of every planes4 module in
each module namespace that binds it, from-imports included (``plateau``
binds ``surfaces.shadow_area``, ``cli`` binds ``surfaces.write_mesh4``), to
one wrapper per function.  A wrapper records a span (name, start, end,
parent) in memory, plus the counters its probe reads off the arguments or
the result.  Each thread keeps its own stack of open spans.  A top-level
span of another thread (the plateau sweep's pool when PLANES4_THREADS > 1)
takes as parent the innermost open span of the installing thread, which is
the one waiting on the pool.  Self time is a span's duration minus the
union of the intervals its child spans cover, so children that run in
parallel are not subtracted twice.  Nothing is written until
``raw_totals`` sums the spans at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from dataclasses import dataclass

MODULES = ("exterior", "grassmann", "bounds", "annulus", "surfaces",
           "scanner", "plateau", "cli", "rng")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at top level


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _minimize_probe(args, kwargs, res):
    return {"plateau.descent_steps": len(res.trace) - 1,
            "plateau.max_iters_stops": int(res.stopped == "max-iters")}


def _points_probe(args, kwargs, res):
    return {"scanner.sample_points": len(res.points)}


def _fd_cells_probe(args, kwargs, res):
    grid = kwargs.get("grid", args[3] if len(args) > 3 else (128, 512))
    return {"annulus.fd_cells": grid[0] * grid[1]}


#: counters read at a span's end, keyed by span name
PROBES = {
    "plateau.minimize_area": _minimize_probe,
    "surfaces.shadow_area": lambda a, k, r: {
        "surfaces.shadow_faces": len(_arg(a, k, 0, "mesh").faces)},
    "surfaces.write_mesh4": lambda a, k, r: {
        "surfaces.write_mesh4_bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "surfaces.read_mesh4": lambda a, k, r: {
        "surfaces.read_mesh4_bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "scanner.epsilon_process": lambda a, k, r: {"scanner.steps": len(r.steps)},
    "scanner.plane_pair_sample": _points_probe,
    "scanner.pinched_pair_sample": _points_probe,
    "scanner.sample_mesh": _points_probe,
    "bounds.sup_projection_sum": lambda a, k, r: {
        "bounds.samples": r.samples, "bounds.refinement_iters": r.refinement_iters},
    "annulus.fd_oracle": _fd_cells_probe,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        if name == "cli.run_command":
            def span_name(args, kwargs):   # one span name per subcommand
                return f"cli.{list(_arg(args, kwargs, 0, 'argv'))[0]}"
        else:
            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            with self._lock:
                index = len(self.spans)
                self.spans.append(Span(span_name(args, kwargs), 0.0, 0.0,
                                       outer[-1] if outer else -1))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index].start, self.spans[index].end = start, end
            if probe is not None:
                counts = probe(args, kwargs, result)
                with self._lock:
                    for key, value in counts.items():
                        self.counters[key] = self.counters.get(key, 0) + value
            return result
        return traced

    def install(self) -> None:
        self._main_stack = self._stack()
        wrappers = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"planes4.{mod_name}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("planes4.")):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                setattr(module, attr, wrappers[value])

    def raw_totals(self) -> dict[str, float]:
        """Per-group ``<group>_s`` and ``<group>.calls``, plus the probe counters.

        A group's time and calls count only its outermost spans, so a member
        calling another member is not counted twice; a self-time group
        subtracts every child span instead.
        """
        child_time = self._child_time()
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s.name, []).append(i)
        totals: dict[str, float] = dict(self.counters)
        for group, (names, self_time, _) in GROUPS.items():
            seconds, calls = 0.0, 0
            for name in names:
                for i in by_name.get(name, ()):
                    s = self.spans[i]
                    if self_time:
                        seconds += (s.end - s.start) - child_time[i]
                    elif self._has_ancestor_in(i, names):
                        continue
                    else:
                        seconds += s.end - s.start
                    calls += 1
            totals[f"{group}_s"] = seconds
            totals[f"{group}.calls"] = calls
        totals["trace.spans"] = len(self.spans)
        return totals

    def self_times(self) -> dict[str, dict]:
        """Calls, inclusive and self seconds per span name."""
        child_time = self._child_time()
        table: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += (s.end - s.start) - child_time[i]
        return table

    def _child_time(self) -> list[float]:
        """Per span, the length of the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append(s)
        child_time = [0.0] * len(self.spans)
        for parent, kids in children.items():
            covered, reach = 0.0, float("-inf")
            for s in sorted(kids, key=lambda k: k.start):
                if s.end > reach:
                    covered += s.end - max(s.start, reach)
                    reach = s.end
            child_time[parent] = covered
        return child_time

    def _has_ancestor_in(self, index: int, names) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False


SUBCOMMANDS = ("bounds", "wirtinger", "annulus", "scan", "plateau")

#: metric group -> (span names, self time?, home workload).  A group's time
#: sums its spans' self times when marked, else its outermost spans; a traced
#: run of a workload fails if a group at home there records no call.
GROUPS = {
    "plateau.minimize_area": (("plateau.minimize_area",), False, "plateau_lawlor"),
    "plateau.certificate": (("plateau.certificate_lower_bound",), True, "plateau_lawlor"),
    "plateau.build": (("plateau.build_pinched_competitor", "plateau.build_union_mesh"),
                      False, "plateau_lawlor"),
    "surfaces.shadow_area": (("surfaces.shadow_area",), False, "plateau_lawlor"),
    "surfaces.write_mesh4": (("surfaces.write_mesh4",), False, "plateau_lawlor"),
    "surfaces.read_mesh4": (("surfaces.read_mesh4",), False, "cli_mix"),
    "scanner.epsilon_process": (("scanner.epsilon_process",), False, "scan_pinch"),
    "scanner.sample_build": (("scanner.plane_pair_sample", "scanner.pinched_pair_sample",
                              "scanner.sample_mesh"), False, "scan_pinch"),
    "bounds.sup_projection_sum": (("bounds.sup_projection_sum",), False, "cli_mix"),
    "annulus.fd_oracle": (("annulus.fd_oracle",), False, "cli_mix"),
    "grassmann.xi": (("grassmann.xi_sample", "grassmann.random_xi_element",
                      "grassmann.xi_membership"), False, "cli_mix"),
    "exterior.wedge": (("exterior.wedge",), False, "plateau_lawlor"),
    **{f"cli.{sub}": ((f"cli.{sub}",), False, "plateau_lawlor" if sub == "plateau" else "cli_mix")
       for sub in SUBCOMMANDS},
    "cli.self": (tuple(f"cli.{sub}" for sub in SUBCOMMANDS), True, "cli_mix"),
}


def layer_metrics(raw: dict[str, float], overhead_s: float) -> dict[str, dict]:
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def timed(group):
        put(f"{group}_s", raw[f"{group}_s"], "s")
        put(f"{group}.calls", raw[f"{group}.calls"], "count")

    def count(name, unit="count"):
        put(name, raw.get(name, 0), unit)

    def ratio(name, num, den, unit):   # 0 on a workload without the layer
        put(name, raw.get(num, 0) / raw[den] if raw.get(den) else 0.0, unit)

    timed("plateau.minimize_area")
    count("plateau.descent_steps")
    ratio("plateau.s_per_step", "plateau.minimize_area_s", "plateau.descent_steps", "s/step")
    ratio("plateau.max_iters_frac", "plateau.max_iters_stops", "plateau.minimize_area.calls",
          "ratio")
    timed("plateau.certificate")
    timed("plateau.build")
    timed("surfaces.shadow_area")
    count("surfaces.shadow_faces")
    timed("surfaces.write_mesh4")
    count("surfaces.write_mesh4_bytes", "bytes")
    timed("surfaces.read_mesh4")
    count("surfaces.read_mesh4_bytes", "bytes")
    timed("scanner.epsilon_process")
    count("scanner.steps")
    ratio("scanner.s_per_step", "scanner.epsilon_process_s", "scanner.steps", "s/step")
    timed("scanner.sample_build")
    count("scanner.sample_points")
    timed("bounds.sup_projection_sum")
    count("bounds.samples")
    count("bounds.refinement_iters")
    timed("annulus.fd_oracle")
    count("annulus.fd_cells")
    timed("grassmann.xi")
    timed("exterior.wedge")
    for sub in SUBCOMMANDS:
        timed(f"cli.{sub}")
    timed("cli.self")
    put("trace.overhead_s", overhead_s, "s")
    count("trace.spans")
    return out
