"""The three benchmark workloads: inputs from a seed, one pass, verification.

Every workload drives planes4 through its public API only: CLI commands go
through ``planes4.cli.run_command``; the tiered point samples of
``scan_pinch`` go straight to ``planes4.scanner``, because no CLI command
accepts a point sample.  Module attributes are looked up at call time
(``scanner.epsilon_process``, never a from-import), so a tracer that
rebinds them sees every call.

A seed changes the generated inputs, never their size: it jitters the
pinch radii by at most 2% and is passed as ``--seed`` to ``bounds`` and
``wirtinger``.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np

from planes4 import cli, grassmann, plateau, scanner, surfaces

PINCH_JITTER = 0.02

# ------------------------------------------------------------ references
#: pinched competitors at 256 boundary segments have 25,600 faces
#: (2 disks x 21 graded rings + 8 tube rings, 2 triangles per segment each)
LAWLOR_FACES = 25_600
#: at least one pinch must end this far below the union area 2*pi
LAWLOR_GAIN = 5e-2
#: descent lowers each competitor by at least this (about 4e-3 at pinch 0.05)
LAWLOR_MIN_DESCENT = 1e-3
#: dyadic stop scale of the pinch-0.05 sample (acceptance #7 regime)
SCAN_REFERENCE_RK = 0.125
SCAN_EPS, SCAN_FLOOR = 0.05, 0.01
#: closed-form supremum vs the CLI's search, and slack on the proven bound
SUP_TOL, BOUND_SLACK = 1e-9, 1e-12
FD_REL_TOL = 0.01
#: --alpha-steps 5 gives the 15 pairs alpha1 <= alpha2 of a 5-point grid
BOUNDS_PAIRS = 15
XI_SAMPLES = 2000


def _jitter(rng: random.Random, radius: float) -> float:
    return radius * (1.0 + PINCH_JITTER * (2.0 * rng.random() - 1.0))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _sha256(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _run_cli(argv: list[str], out: Path) -> None:
    rc = cli.run_command(argv + ["--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"planes4 {argv[0]} exited {rc}")


def _mesh4_face_count_and_area(path: Path) -> tuple[int, int, float]:
    """Header face count, face lines found, and area of a MESH4 file.

    Parsed here rather than with ``surfaces.read_mesh4`` so the check
    shares no code with the writer and adds no span to a traced run.
    """
    lines = path.read_text(encoding="ascii").splitlines()
    _, nv, nf = lines[0].split()
    nv, nf = int(nv), int(nf)
    verts = np.array([line.split() for line in lines[1:1 + nv]], dtype=float)
    face_lines = [line.split() for line in lines[1 + nv:1 + nv + nf]]
    faces = np.array([f for f in face_lines if len(f) == 3], dtype=np.int64)
    p = verts[faces]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    uu, vv, uv = (u * u).sum(1), (v * v).sum(1), (u * v).sum(1)
    area = 0.5 * float(np.sqrt(np.maximum(uu * vv - uv * uv, 0.0)).sum())
    return nf, len(faces), area


class PlateauLawlor:
    """``plateau`` at alpha = pi/6 on two 25,600-face pinched competitors."""

    name = "plateau_lawlor"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        pinches = [_jitter(rng, 0.05), _jitter(rng, 0.2)]
        alpha = repr(math.pi / 6)
        argv = ["plateau", "--alpha1", alpha, "--alpha2", alpha,
                "--pinch-sweep", ",".join(repr(p) for p in pinches),
                "--segments", "256", "--write-mesh"]
        return {"argv": argv, "pinches": pinches}

    def run(self, state: dict, out: Path) -> None:
        _run_cli(state["argv"], out)

    def verify(self, state: dict, out: Path, result: None) -> tuple[list[str], str]:
        header, rows = _read_csv(out / "results.csv")
        col = {name: i for i, name in enumerate(header)}
        problems = []
        finals = []
        if len(rows) != len(state["pinches"]):
            problems.append(f"plateau: {len(rows)} rows for {len(state['pinches'])} pinches")
        for row in rows:
            initial, final = float(row[col["initial_area"]]), float(row[col["final_area"]])
            finals.append(final)
            if not final <= initial - LAWLOR_MIN_DESCENT:
                problems.append(f"plateau: final area {final} not below initial {initial} "
                                f"by {LAWLOR_MIN_DESCENT}")
        if not any(f < 2.0 * math.pi - LAWLOR_GAIN for f in finals):
            problems.append(f"plateau: no pinch ends below 2*pi - {LAWLOR_GAIN}: {finals}")
        meshes = sorted(out.glob("*.mesh4"))
        if len(meshes) != len(rows):
            problems.append(f"plateau: {len(meshes)} mesh files for {len(rows)} rows")
        areas = []
        for path in meshes:
            nf, found, area = _mesh4_face_count_and_area(path)
            areas.append(area)
            if nf != LAWLOR_FACES or found != LAWLOR_FACES:
                problems.append(f"plateau: {path.name} has {nf} faces in its header, "
                                f"{found} read back, expected {LAWLOR_FACES}")
        # each written mesh is one of the optimized competitors in the table
        for a, f in zip(sorted(areas), sorted(finals)):
            if abs(a - f) > 1e-9 * f:
                problems.append(f"plateau: mesh area {a} does not match final area {f}")
        return problems, _sha256([out / "results.csv"])


class ScanPinch:
    """``scanner.epsilon_process`` on the exact and a pinched tiered sample."""

    name = "scan_pinch"

    def setup(self, seed: int, workdir: Path) -> dict:
        rho = _jitter(random.Random(seed), 0.05)
        tiers = dict(spacing=4e-3, fine_spacing=1e-3, fine_radius=0.3)
        exact = scanner.plane_pair_sample(extent=1.2, **tiers)
        pinched = scanner.pinched_pair_sample(rho, 0.2 * rho, **tiers)
        return {"samples": (exact, pinched), "planes": (grassmann.P01, grassmann.P02)}

    def run(self, state: dict, out: Path) -> list:
        return [scanner.epsilon_process(s, state["planes"], SCAN_EPS, SCAN_FLOOR)
                for s in state["samples"]]

    def verify(self, state: dict, out: Path, reports: list) -> tuple[list[str], str]:
        exact, pinched = reports
        problems = []
        if not exact.floor_hit or exact.stopped:
            problems.append(f"scan: exact pair floor_hit={exact.floor_hit} "
                            f"stopped={exact.stopped}, expected a floor hit")
        if not pinched.stopped:
            problems.append("scan: pinched sample did not stop")
        else:
            if not 0.5 <= pinched.r_k / SCAN_REFERENCE_RK <= 2.0:
                problems.append(f"scan: r_k {pinched.r_k} not within a factor 2 "
                                f"of {SCAN_REFERENCE_RK}")
            drift = float(np.linalg.norm(pinched.o_k))
            limit = 12 * SCAN_EPS + pinched.scales[-1] / 8
            if drift > limit:
                problems.append(f"scan: |o_k| = {drift} above {limit}")
        h = hashlib.sha256()
        for rep in reports:
            for s in rep.steps:
                h.update(repr((s.index, s.scale, s.carried, s.best_dist,
                               s.center.tolist(), s.best_q.tolist())).encode())
            h.update(repr((rep.stopped, rep.floor_hit, rep.r_k)).encode())
        return problems, h.hexdigest()


def _sup_closed_form(alpha1: float, alpha2: float) -> float:
    """max(|A1 + A2|_2, |A1 - A2|_2) for the canonical pair, built from its definition."""
    def antisym(u, v):
        return np.outer(u, v) - np.outer(v, u)
    e = np.eye(4)
    a1 = antisym(e[0], e[1])
    a2 = antisym(math.cos(alpha1) * e[0] + math.sin(alpha1) * e[2],
                 math.cos(alpha2) * e[1] + math.sin(alpha2) * e[3])
    return max(np.linalg.norm(a1 + a2, 2), np.linalg.norm(a1 - a2, 2))


class CliMix:
    """One pass over bounds, scan --mesh, annulus (exact, log) and wirtinger."""

    name = "cli_mix"

    def setup(self, seed: int, workdir: Path) -> dict:
        mesh_path = workdir / "union64.mesh4"
        surfaces.write_mesh4(mesh_path, plateau.build_union_mesh(math.pi / 2, math.pi / 2, 64))
        fd = ["--fd-check", "--grid-r", "512", "--grid-t", "2048"]
        commands = [
            ("bounds", ["bounds", "--alpha-steps", "5", "--seed", str(seed)]),
            ("scan", ["scan", "--mesh", str(mesh_path), "--eps", "0.01", "--density", "0.04"]),
            ("annulus_exact", ["annulus", "--mode", "exact", "--r0", "0.5"] + fd),
            ("annulus_log", ["annulus", "--mode", "log", "--r0", "0.1"] + fd),
            ("wirtinger", ["wirtinger", "--samples", str(XI_SAMPLES), "--seed", str(seed)]),
        ]
        return {"commands": commands}

    def run(self, state: dict, out: Path) -> None:
        for tag, argv in state["commands"]:
            _run_cli(argv, out / tag)

    def verify(self, state: dict, out: Path, result: None) -> tuple[list[str], str]:
        problems = []
        header, rows = _read_csv(out / "bounds" / "results.csv")
        col = {name: i for i, name in enumerate(header)}
        if len(rows) != BOUNDS_PAIRS:
            problems.append(f"bounds: {len(rows)} rows, expected {BOUNDS_PAIRS}")
        for row in rows:
            a1, a2 = float(row[col["alpha1"]]), float(row[col["alpha2"]])
            sup, bound = float(row[col["sup_value"]]), float(row[col["wirtinger_bound"]])
            ref = _sup_closed_form(a1, a2)
            if abs(sup - ref) > SUP_TOL:
                problems.append(f"bounds: sup {sup} vs closed form {ref} at ({a1}, {a2})")
            if sup > bound + BOUND_SLACK:
                problems.append(f"bounds: sup {sup} above the bound {bound} at ({a1}, {a2})")
        for tag in ("annulus_exact", "annulus_log"):
            header, rows = _read_csv(out / tag / "results.csv")
            err = float(rows[0][header.index("fd_rel_err")])
            if not err <= FD_REL_TOL:
                problems.append(f"{tag}: fd_rel_err {err} above {FD_REL_TOL}")
        header, rows = _read_csv(out / "wirtinger" / "results.csv")
        xi = [r for r in rows if r[0] == "xi"]
        if len(xi) != XI_SAMPLES or any(r[header.index("member")] != "1" for r in xi):
            problems.append(f"wirtinger: not all of {XI_SAMPLES} equality-set rows are members")
        record = (out / "scan" / "record.txt").read_text(encoding="ascii").splitlines()
        if "floor_hit 1" not in record:
            problems.append("scan: the flat union mesh did not reach the floor")
        csvs = [out / tag / "results.csv" for tag, _ in state["commands"]]
        return problems, _sha256(csvs)


WORKLOADS = {w.name: w for w in (PlateauLawlor(), ScanPinch(), CliMix())}
