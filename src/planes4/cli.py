"""Command-line front end.

Subcommands: ``bounds``, ``wirtinger``, ``annulus``, ``scan``, ``plateau``.
Every run writes into --out:

* ``manifest.txt``  -- command, resolved config, config digest, version,
                       seed, timestamps, output paths
* ``results.csv``   -- flat table (first line references the manifest
                       digest; floats at 17 significant digits; rows in a
                       documented sort order, so reruns are byte-identical)
* ``record.txt``    -- one self-describing record (key/value, nested by
                       indentation)
* ``*.mesh4``       -- optional meshes (plateau --write-mesh)

Each file is written under a temporary ``.part`` name and renamed into
place once all of them are written, and the manifest is written last, so
an ``--out`` holding ``manifest.txt`` holds every file it lists.

Flags are long-form only; a ``--config`` file in flat key=value form may
supply any flag (command-line values win).  All randomness is drawn from
SplitMix64 seeded by --seed (see the rng module for the exact algorithm),
so runs reproduce bit-for-bit across platforms and ports.  The plateau
pinch sweep, the one parallel path, runs on as many threads as the process
has cores, or on PLANES4_THREADS of them; its outputs are the same bytes
at any count.

Exit codes: 0 success, 1 configuration error (among them a ``scan
--density`` whose mesh sample would exceed 2^24 points, and an output
file that cannot be written), 2 numerical failure (``NumericalError`` or
a numpy ``LinAlgError``), 3 internal error (any other exception, a bug;
its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, annulus, bounds, exterior, grassmann, plateau, scanner, thread_count
from .errors import ConfigError, NumericalError
from .rng import SplitMix64
from .surfaces import write_mesh4


_BOOL_TEXT = {False: "0", True: "1"}.__getitem__    # np.bool_ keys look up as bool
_FLOAT_TEXT = "{:.17g}".format                      # numpy floats format as float(x)


@functools.cache
def _formatter(kind: type):
    """The text of a value of type ``kind``: 1/0 for booleans, 17 significant
    digits for floats, ``str`` for anything else."""
    if issubclass(kind, (bool, np.bool_)):
        return _BOOL_TEXT
    return _FLOAT_TEXT if issubclass(kind, (float, np.floating)) else str


def _fmt(x) -> str:
    return _formatter(type(x))(x)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _digest(config: dict) -> str:
    blob = "".join(f"{k}={_fmt(v)}\n" for k, v in sorted(config.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def _manifest_text(command: str, config: dict, digest: str, started: float,
                   paths: list[str]) -> str:
    lines = [
        f"command {command}",
        f"digest {digest}",
        f"version {__version__}",
        f"seed {config.get('seed', 0)}",
        f"started {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(started))}",
        f"finished {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
        "outputs " + " ".join(paths),
        "config",
    ]
    lines += [f"  {k} {_fmt(v)}" for k, v in sorted(config.items())]
    return "\n".join(lines) + "\n"


def _csv_text(digest: str, header: list[str], rows: list[list]) -> str:
    """The CSV text, each cell as ``_fmt`` writes it, formatted column by
    column: a column whose cells share one formatter is mapped through it."""
    cols = []
    for col in zip(*rows):
        kinds = {_formatter(t) for t in set(map(type, col))}
        cols.append(list(map(kinds.pop() if len(kinds) == 1 else _fmt, col)))
    lines = [f"# manifest={digest}", ",".join(header)]
    lines += map(",".join, zip(*cols))
    return "\n".join(lines) + "\n"


def _record_text(digest: str, command: str, payload: dict) -> str:
    lines = [f"manifest {digest}", f"command {command}"]

    def emit(d: dict, indent: int):
        for k, v in d.items():
            if isinstance(v, dict):
                lines.append("  " * indent + str(k))
                emit(v, indent + 1)
            elif isinstance(v, (list, tuple, np.ndarray)):
                lines.append("  " * indent + f"{k} " + " ".join(_fmt(x) for x in v))
            else:
                lines.append("  " * indent + f"{k} {_fmt(v)}")

    emit(payload, 0)
    return "\n".join(lines) + "\n"


def _write_files(out: Path, files: dict) -> None:
    """Write files into ``out`` atomically.

    ``files`` maps a file name to its ASCII text or to a function that
    writes the file at a given path.  Each file is written to its name
    plus ``.part`` (so no ``*.csv`` or ``*.mesh4`` glob matches it), and
    only when every write has returned is each renamed into place.  No
    ``.part`` file is left behind, whether a write raises or not.  An
    ``OSError`` (a full disk, a read-only ``--out``) is a configuration
    error naming the file.
    """
    parts = {name: out / f"{name}.part" for name in files}
    try:
        for name, content in files.items():
            if isinstance(content, str):
                parts[name].write_text(content, encoding="ascii")
            else:
                content(parts[name])
        for name, part in parts.items():
            os.replace(part, out / name)
    except OSError as exc:
        raise ConfigError(f"cannot write {out / name}: {exc}") from exc
    finally:
        for part in parts.values():
            part.unlink(missing_ok=True)


# ---------------------------------------------------------------- bounds

def _cmd_bounds(args) -> dict:
    pairs = []
    if args.alpha_steps:
        grid = np.linspace(0.0, np.pi / 2, args.alpha_steps)
        for i, a1 in enumerate(grid):
            for a2 in grid[i:]:
                pairs.append((float(a1), float(a2)))
    else:
        if args.alpha1 is None or args.alpha2 is None:
            raise ConfigError("bounds needs --alpha1 and --alpha2 (or --alpha-steps)")
        pairs.append((args.alpha1, args.alpha2))

    header = ["alpha1", "alpha2", "sup_value", "wirtinger_bound", "witness",
              "c12", "c13", "c14", "c23", "c24", "c34"]
    rows = []
    for a1, a2 in sorted(pairs):
        p1, p2 = grassmann.canonical_pair(a1, a2)
        rep = bounds.sup_projection_sum(p1, p2)
        witness = 1.0 + np.cos(a1) * np.cos(a2)
        rows.append([a1, a2, rep.sup_value, rep.bound, witness, *rep.argmax])
    record = {"pairs": len(rows),
              "last": {"alpha1": rows[-1][0], "alpha2": rows[-1][1],
                       "sup_value": rows[-1][2], "wirtinger_bound": rows[-1][3]}}
    return {"header": header, "rows": rows, "record": record}


# -------------------------------------------------------------- wirtinger

def _cmd_wirtinger(args) -> dict:
    gen = SplitMix64(args.seed)
    header = ["kind", "index", "alpha", "projection_sum", "member"]
    el = grassmann.random_xi_element(gen, args.samples)
    xi = grassmann.xi_sample(el)
    member = grassmann.xi_membership(xi, args.tol)
    rows = [["xi", i, a, s, m] for i, (a, s, m) in enumerate(
        zip(el.alpha, grassmann.projection_sum_standard(xi), member))]
    # random simple 2-vectors: wedges of unit-vector pairs drawn x, y, x, y, ...;
    # a pair too close to parallel to normalise is dropped with its index
    xy = gen.unit_vector(4, 2 * args.samples)
    w = exterior.wedge(xy[0::2], xy[1::2])
    n = exterior.norm(w)
    keep = np.flatnonzero(n >= 1e-6)
    xi = w[keep] / n[keep, None]
    rows += [["simple", i, np.nan, s, m] for i, s, m in zip(
        keep, grassmann.projection_sum_standard(xi), grassmann.xi_membership(xi, args.tol))]
    record = {"samples": args.samples, "tol": args.tol, "xi_members": int(member.sum())}
    return {"header": header, "rows": rows, "record": record}


# ---------------------------------------------------------------- annulus

def _float_list(flag: str, raw: str) -> list[float]:
    """Parse a comma list of finite numbers given to ``flag``."""
    try:
        return [_finite(tok) for tok in raw.split(",")]
    except argparse.ArgumentTypeError:
        raise ConfigError(f"{flag}: expected a comma list of finite numbers, "
                          f"got {raw!r}") from None


def _coeffs(flag: str, raw: str) -> np.ndarray:
    return np.array(_float_list(flag, raw)) if raw else np.zeros(1)


def _cmd_annulus(args) -> dict:
    header = ["mode", "r0", "delta", "eps", "value", "constant",
              "fd_value", "fd_rel_err"]
    r0 = args.r0
    if args.fd_check and args.mode == "reflect":
        raise ConfigError("--fd-check does not apply to reflect mode: its one-sided bound "
                          "over a possibly off-centre annulus has no FD counterpart")
    fd = None                     # (inner, outer, spec, reference) of the FD check
    with np.errstate(over="ignore"):   # an overflow is reported as a non-finite value
        if args.mode == "log":
            if args.eps is not None:
                value, const = annulus.log_annulus_bound(args.delta, r0, args.eps)
            else:
                value, const = annulus.log_annulus_bound(args.delta, r0), ""
            row = ["log", r0, args.delta, "" if args.eps is None else args.eps, value, const]
            fd = (lambda t: np.full_like(t, args.delta * r0), np.zeros_like,
                  annulus.AnnulusSpec(r0), annulus.log_annulus_bound(args.delta, r0))
        else:
            a = _coeffs("--acoef", args.acoef)
            b = _coeffs("--bcoef", args.bcoef)
            n = max(len(a), len(b))
            fb = annulus.FourierBoundary(args.mean,
                                         np.pad(a, (0, n - len(a))),
                                         np.pad(b, (0, n - len(b))))
            if args.mode == "exact":
                value = annulus.annulus_energy_exact(fb, r0)
                row = ["exact", r0, "", "", value, ""]
                fd = (fb.evaluate, fb.evaluate, annulus.AnnulusSpec(r0, outer=1.0 / r0), value)
            else:                     # argparse admits only the three modes
                spec = annulus.AnnulusSpec(r0, center=(args.qx, args.qy))
                value = annulus.reflection_lower_bound(fb, spec)
                row = ["reflect", r0, "", "", value, ""]
    if not np.isfinite(value):
        flags = "--delta" if args.mode == "log" else "--mean/--acoef/--bcoef"
        raise ConfigError(f"{flags}: the {args.mode} value is {value}, not a finite number")
    fd_v = fd_err = ""
    if args.fd_check:
        inner, outer, spec, reference = fd
        fd_v = annulus.fd_oracle(inner, outer, spec, (args.grid_r, args.grid_t))
        fd_err = abs(fd_v - reference) / reference if reference else 0.0
    record = {"mode": args.mode, "value": value}
    return {"header": header, "rows": [row + [fd_v, fd_err]], "record": record}


# ------------------------------------------------------------------ scan

def _cmd_scan(args) -> dict:
    from .surfaces import read_mesh4
    try:
        mesh = read_mesh4(args.mesh)
    except OSError as exc:
        raise ConfigError(f"cannot read mesh file {args.mesh}: {exc}") from exc
    if not len(mesh.vertices):
        raise ConfigError(f"{args.mesh}: the mesh has no vertices to sample")
    sample = scanner.sample_mesh(mesh, args.density)
    p1, p2 = grassmann.canonical_pair(args.alpha1, args.alpha2)
    floor = args.floor if args.floor is not None else 2.0 * args.density
    rep = scanner.epsilon_process(sample, (p1, p2), args.eps, floor)
    header = ["step", "scale", "q1", "q2", "q3", "q4", "carried",
              "bq1", "bq2", "bq3", "bq4", "best_dist"]
    rows = [[s.index, s.scale, *s.center, s.carried, *s.best_q, s.best_dist]
            for s in rep.steps]
    record = {
        "eps": rep.eps, "floor": rep.floor, "resolution": rep.resolution,
        "stopped": rep.stopped, "floor_hit": rep.floor_hit,
        "steps": len(rep.steps),
        "window_points": [s.window_points for s in rep.steps],
        "lattice_points": [s.lattice_points for s in rep.steps],
        "candidates": [s.candidates for s in rep.steps],
        "rejected_early": [s.rejected_early for s in rep.steps],
    }
    if rep.stopped:
        record["o_k"] = rep.o_k
        record["r_k"] = rep.r_k
        record["dist_double"] = rep.dist_double
        if rep.dist_shrunken is not None:
            record["dist_shrunken"] = rep.dist_shrunken
    return {"header": header, "rows": rows, "record": record}


# --------------------------------------------------------------- plateau

def _cmd_plateau(args) -> dict:
    pinches = sorted(_float_list("--pinch-sweep", args.pinch_sweep) if args.pinch_sweep
                     else [args.pinch])
    keys = [f"{p:g}" for p in pinches]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"--pinch-sweep: radii {args.pinch_sweep!r} repeat a %g key "
                          "(mesh file names and record entries would collide)")

    # every config and its competitor are checked before the first descent starts
    configs = [plateau.ExperimentConfig(
        alpha1=args.alpha1, alpha2=args.alpha2, boundary_segments=args.segments,
        pinch_radius=p, max_iters=args.iters)
        for p in pinches]
    competitors = [plateau.build_competitor(cfg) for cfg in configs]
    # lane k runs configs k, k + w, ...; the calling thread runs lane 0 rather
    # than wait, as each thread adds a malloc arena and a descent's buffers
    # to the peak RSS
    w = min(thread_count(), len(configs))

    def lane(k: int) -> list:
        return [plateau.run_experiment(cfg, mesh)
                for cfg, mesh in zip(configs[k::w], competitors[k::w])]

    with ThreadPoolExecutor(max_workers=max(w - 1, 1)) as pool:    # no thread at w = 1
        others = [pool.submit(lane, k) for k in range(1, w)]
        lanes = [lane(0)] + [future.result() for future in others]
    reports = [lanes[i % w][i // w] for i in range(len(configs))]

    header = ["alpha1", "alpha2", "pinch", "segments", "initial_area",
              "final_area", "certificate_bound", "covers1", "covers2",
              "verdict", "steps", "tolerance"]
    rows = [[rep.config.alpha1, rep.config.alpha2,
             rep.config.pinch_radius, rep.config.boundary_segments,
             rep.initial_area, rep.final_area, rep.certificate_bound,
             rep.shadows_cover[0], rep.shadows_cover[1],
             rep.verdict, len(rep.area_trace) - 1, rep.tolerance]
            for rep in reports]
    meshes = ({f"final_{key.replace('.', 'p')}.mesh4": rep.final_mesh
               for key, rep in zip(keys, reports)} if args.write_mesh else {})

    def by_pinch(field: str) -> dict:
        return {key: getattr(rep, field) for key, rep in zip(keys, reports)}

    record = {"runs": len(reports), "verdicts": by_pinch("verdict"),
              "stopped": by_pinch("stopped"), "grad_norm": by_pinch("grad_norm")}
    return {"header": header, "rows": rows, "record": record, "meshes": meshes}


_COMMANDS = {"bounds": _cmd_bounds, "wirtinger": _cmd_wirtinger,
             "annulus": _cmd_annulus, "scan": _cmd_scan, "plateau": _cmd_plateau}


# ------------------------------------------------------------------ main

_COLUMN_DOCS = {
    "bounds": (
        "columns: alpha1,alpha2 angle pair (rad); sup_value supremum of "
        "|p1 xi|+|p2 xi|, closed form max over s=+-1 of (|w+|+|w-|)/sqrt2 for the "
        "self-dual and anti-self-dual halves w+- of w = xi1 + s xi2; "
        "wirtinger_bound proven 1+2cos(alpha1); witness 1+cos(alpha1)cos(alpha2) "
        "scored by e1^e2; c12,c13,c14,c23,c24,c34 argmax 2-vector coefficients. "
        "rows sorted by (alpha1, alpha2)."
    ),
    "wirtinger": (
        "columns: kind 'xi' (equality-set draw) or 'simple' (random wedge); index "
        "draw number; alpha mixing angle (nan for random draws); projection_sum "
        "|p01 xi|+|p02 xi|; member 1 if the membership test passes. rows in draw "
        "order, xi block first."
    ),
    "annulus": (
        "columns: mode exact|reflect|log; r0 inner radius; delta radial boundary "
        "scale (log mode); eps relaxation (log mode); value energy or bound; "
        "constant C(eps) for relaxed log mode; fd_value finite-difference "
        "cross-check; fd_rel_err its relative gap. one row per run."
    ),
    "scan": (
        "columns: step dyadic index; scale 2^-step; q1,q2,q3,q4 window center; "
        "carried distance to pair at the center; bq1,bq2,bq3,bq4 best translate; "
        "best_dist its relative distance. rows sorted by step."
    ),
    "plateau": (
        "columns: alpha1,alpha2 plane angles; pinch competitor pinch radius; "
        "segments boundary segments; initial_area/final_area competitor areas; "
        "certificate_bound shadow-based lower bound; covers1,covers2 shadow "
        "coverage flags; verdict experiment verdict; steps accepted descent "
        "steps; tolerance rasterization+mesh allowance. rows sorted by pinch."
    ),
}


def _count(raw: str) -> int:
    """argparse type of a non-negative integer flag."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return int(raw)


def _finite(raw: str) -> float:
    """argparse type of a real flag: a finite number, not nan or inf."""
    try:
        if math.isfinite(value := float(raw)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="planes4", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="manifest seed")
        p.add_argument("--config", default=None,
                       help="flat key=value file supplying any flag")

    p = sub.add_parser("bounds", epilog=_COLUMN_DOCS["bounds"],
                       help="projection-sum suprema over angle pairs")
    common(p)
    p.add_argument("--alpha1", type=_finite, default=None)
    p.add_argument("--alpha2", type=_finite, default=None)
    p.add_argument("--alpha-steps", type=_count, default=0,
                   help="sweep an NxN angle grid instead of one pair")

    p = sub.add_parser("wirtinger", epilog=_COLUMN_DOCS["wirtinger"],
                       help="equality-set sampling and membership")
    common(p)
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--tol", type=_finite, default=1e-8)

    p = sub.add_parser("annulus", epilog=_COLUMN_DOCS["annulus"],
                       help="annulus energies and bounds")
    common(p)
    p.add_argument("--mode", required=True, choices=["exact", "reflect", "log"])
    p.add_argument("--r0", type=_finite, required=True)
    p.add_argument("--delta", type=_finite, default=1.0)
    p.add_argument("--eps", type=_finite, default=None)
    p.add_argument("--mean", type=_finite, default=0.0)
    p.add_argument("--acoef", default="1", help="comma list of cosine coefficients")
    p.add_argument("--bcoef", default="", help="comma list of sine coefficients")
    p.add_argument("--qx", type=_finite, default=0.0, help="inner-circle center x")
    p.add_argument("--qy", type=_finite, default=0.0, help="inner-circle center y")
    p.add_argument("--fd-check", action="store_true",
                   help="cross-check against the finite-difference solver")
    p.add_argument("--grid-r", type=_count, default=128)
    p.add_argument("--grid-t", type=_count, default=512)

    p = sub.add_parser("scan", epilog=_COLUMN_DOCS["scan"],
                       help="dyadic flatness scan of a mesh file")
    common(p)
    p.add_argument("--mesh", required=True, help="MESH4 input file")
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--floor", type=_finite, default=None,
                   help="scale floor (default 2x sampling density)")
    p.add_argument("--density", type=_finite, default=0.02,
                   help="mesh face sampling spacing")
    p.add_argument("--alpha1", type=_finite, default=float(np.pi / 2))
    p.add_argument("--alpha2", type=_finite, default=float(np.pi / 2))

    p = sub.add_parser("plateau", epilog=_COLUMN_DOCS["plateau"],
                       help="discrete Plateau experiments")
    common(p)
    p.add_argument("--alpha1", type=_finite, required=True)
    p.add_argument("--alpha2", type=_finite, required=True)
    p.add_argument("--pinch", type=_finite, default=0.0)
    p.add_argument("--pinch-sweep", default="",
                   help="comma list of pinch radii (overrides --pinch)")
    p.add_argument("--segments", type=_count, default=256)
    p.add_argument("--iters", type=_count, default=200)
    p.add_argument("--write-mesh", action="store_true",
                   help="write optimized meshes as .mesh4 files")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as flags (command line wins)."""
    # argparse also takes --config=FILE: split it so both spellings read the file
    argv = [part for tok in argv
            for part in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = Path(argv[idx + 1])
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    extra: list[str] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        if value.strip().lower() in ("true", "false"):
            if value.strip().lower() == "true":
                extra.append(flag)
        else:
            extra += [flag, value.strip()]
    # flags from the file go right after the subcommand so explicit ones win
    return argv[:1] + extra + argv[1:]


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        argv = _apply_config_file(list(argv))
        args = parser.parse_args(argv)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out directory {out}: {exc}") from exc
        started = time.time()
        config = {k: v for k, v in vars(args).items()
                  if k not in ("out", "config") and v is not None}
        digest = _digest(config)

        result = _COMMANDS[args.command](args)   # argparse admits only these

        files = {"results.csv": _csv_text(digest, result["header"], result["rows"]),
                 "record.txt": _record_text(digest, args.command, result["record"])}
        for name, mesh in result.get("meshes", {}).items():
            files[name] = functools.partial(write_mesh4, mesh=mesh)
        _write_files(out, files)
        # the manifest goes last, so its presence means every file it lists is in place
        paths = [*files, "manifest.txt"]
        _write_files(out, {"manifest.txt": _manifest_text(args.command, config, digest,
                                                          started, paths)})
        return 0
    except ConfigError as exc:
        print(f"planes4: configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"planes4: numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"planes4: internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
