"""Triangulated 2-surfaces in R^4: areas, projections, shadows, graph bounds.

A mesh is vertices (n, 4), faces (m, 3) of vertex indices, and a per-vertex
``fixed`` flag marking boundary vertices that optimizers must not move.
Face areas use the wedge-product norm; projected area with multiplicity
integrates |wedge_2 p (tangent)| over faces, while ``shadow_area``
rasterizes the projected triangles and counts covered cells once, so it
measures the image set (multiplicity collapsed).  The rasterization error
is O(perimeter / resolution) and always reported conservatively by
callers.  ``projection_inequality_report`` is the one place that computes
the parts of the shadow inequality shadow1 + shadow2 <= lambda * area (the
two shadows and lambda); the Plateau certificate reads them from it.

File format MESH4 (text): line 1 ``MESH4 <nv> <nf>``, then nv vertex lines
of 4 reals, nf face lines of 3 zero-based indices, then optional lines
starting with ``B`` listing fixed vertex indices.  Writers emit 17
significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import exterior
from .errors import ConfigError
from .grassmann import Plane
from .bounds import projection_sums, sup_projection_sum

_DEGENERATE_AREA = 1e-14


@dataclass
class TriMesh4:
    """Triangulated surface in R^4 with fixed-vertex boundary flags."""

    vertices: np.ndarray            # (n, 4) float
    faces: np.ndarray               # (m, 3) int
    fixed: np.ndarray = None        # (n,) bool, default all free

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float).reshape(-1, 4)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.fixed is None:
            self.fixed = np.zeros(len(self.vertices), dtype=bool)
        else:
            self.fixed = np.asarray(self.fixed, dtype=bool).reshape(-1)
        self.validate()

    def validate(self):
        nv = len(self.vertices)
        if len(self.fixed) != nv:
            raise ValueError("fixed-flag array length does not match vertex count")
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= nv):
            raise ValueError("face indices out of range")
        if len(self.faces):
            with np.errstate(over="ignore", invalid="ignore"):
                areas = face_areas(self)
            bad = np.flatnonzero(~np.isfinite(areas))
            if len(bad):
                raise ValueError(f"face {bad[0]} has area {areas[bad[0]]}, not a finite number")
            if areas.min() < _DEGENERATE_AREA:
                k = int(np.argmin(areas))
                raise ValueError(f"degenerate face {k} with area {areas[k]:.3e}")
        if self.fixed.any():
            self._check_boundary_polylines()

    def _check_boundary_polylines(self):
        # boundary edges = undirected edges incident to exactly one face;
        # they must join fixed vertices and give each fixed vertex degree 2
        if not len(self.faces):
            raise ValueError("fixed vertices present but mesh has no faces")
        e = np.concatenate([self.faces[:, [0, 1]], self.faces[:, [1, 2]],
                            self.faces[:, [2, 0]]])
        e.sort(axis=1)
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        boundary = uniq[counts == 1]
        if not self.fixed[boundary.ravel()].all():
            raise ValueError("mesh boundary contains non-fixed vertices")
        deg = np.zeros(len(self.vertices), dtype=int)
        np.add.at(deg, boundary.ravel(), 1)
        if not (deg[self.fixed] == 2).all():
            raise ValueError("fixed vertices do not form closed boundary polylines")


def _edge_wedges(mesh: TriMesh4) -> np.ndarray:
    v = mesh.vertices[mesh.faces]
    return exterior.wedge(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])


def face_areas(mesh: TriMesh4) -> np.ndarray:
    if not len(mesh.faces):
        return np.zeros(0)
    return 0.5 * exterior.norm(_edge_wedges(mesh))


def area(mesh: TriMesh4) -> float:
    """Total surface area: sum of half wedge norms over faces."""
    return float(np.sum(face_areas(mesh)))


def face_tangents(mesh: TriMesh4) -> np.ndarray:
    """Unit simple tangent 2-vector per face of nonzero area.

    Faces whose wedge norm is at most 1e-13 are left out: a zero-area face
    carries no measure and has no tangent plane.  ``TriMesh4.validate``
    rejects such faces, but optimized meshes are not revalidated.
    """
    w = _edge_wedges(mesh)
    n = exterior.norm(w)
    keep = n > 1e-13
    return w[keep] / n[keep, None]


def projected_area_with_multiplicity(mesh: TriMesh4, plane: Plane) -> float:
    """Integral of |wedge_2 p (tangent)| over the mesh, counting overlaps."""
    if not len(mesh.faces):
        return 0.0
    w = _edge_wedges(mesh)
    return float(0.5 * np.sum(np.abs(w @ plane.bivector)))


def shadow_area(mesh: TriMesh4, plane: Plane, resolution: int = 256) -> float:
    """Measure of the projected image set, by rasterization.

    Projects every triangle to plane coordinates and marks grid cells
    (``resolution`` cells per unit length) whose center is covered by at
    least one triangle; overlapping triangles count once.
    """
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    if not len(mesh.faces):
        return 0.0
    cell = 1.0 / resolution
    tris = (mesh.vertices @ plane.basis.T)[mesh.faces]     # (m, 3, 2)
    lo = tris.reshape(-1, 2).min(axis=0) - cell
    hi = tris.reshape(-1, 2).max(axis=0) + cell
    nx = int(np.ceil((hi[0] - lo[0]) / cell)) + 1
    ny = int(np.ceil((hi[1] - lo[1]) / cell)) + 1
    bitmap = _shadow_bitmap(tris, lo, (nx, ny), cell)
    return float(bitmap.sum()) * cell * cell


#: cells tested per rasterizer batch; it bounds the batch temporaries
#: (about 20 arrays of this length), which set the kernel's peak memory
_RASTER_CHUNK = 1 << 12


def _shadow_bitmap(tris: np.ndarray, lo: np.ndarray, shape: tuple[int, int],
                   cell: float) -> np.ndarray:
    """Cells of the grid ``lo + (index + 1/2) * cell`` whose center a triangle covers.

    A triangle tests the cells of its bounding box, clipped to the grid,
    by its three edge functions over its determinant ``d`` with slack
    1e-12; triangles with ``|d| < 1e-30`` have a measure-zero shadow and
    are skipped.  The boxes are expanded into (triangle, cell) pairs in
    batches of ``_RASTER_CHUNK`` cells.
    """
    nx, ny = shape
    bitmap = np.zeros(nx * ny, dtype=bool)
    x0, y0 = tris[:, 0, 0], tris[:, 0, 1]
    x1, y1 = tris[:, 1, 0], tris[:, 1, 1]
    x2, y2 = tris[:, 2, 0], tris[:, 2, 1]
    d = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    i0 = np.maximum(0, np.floor((tris[:, :, 0].min(axis=1) - lo[0]) / cell).astype(np.int64))
    i1 = np.minimum(nx - 1, np.ceil((tris[:, :, 0].max(axis=1) - lo[0]) / cell).astype(np.int64))
    j0 = np.maximum(0, np.floor((tris[:, :, 1].min(axis=1) - lo[1]) / cell).astype(np.int64))
    j1 = np.minimum(ny - 1, np.ceil((tris[:, :, 1].max(axis=1) - lo[1]) / cell).astype(np.int64))
    live = np.flatnonzero((np.abs(d) >= 1e-30) & (i1 >= i0) & (j1 >= j0))
    height = (j1 - j0 + 1)[live]
    count = (i1 - i0 + 1)[live] * height
    ends = np.cumsum(count)
    starts = ends - count
    cx = lo[0] + (np.arange(nx) + 0.5) * cell
    cy = lo[1] + (np.arange(ny) + 0.5) * cell
    total = int(ends[-1]) if len(ends) else 0
    for first in range(0, total, _RASTER_CHUNK):
        ids = np.arange(first, min(first + _RASTER_CHUNK, total))
        r = np.searchsorted(ends, ids, side="right")
        t = live[r]
        off = ids - starts[r]
        i = i0[t] + off // height[r]
        j = j0[t] + off % height[r]
        x, y, dt = cx[i], cy[j], d[t]
        ax, ay, bx, by, ex, ey = x0[t], y0[t], x1[t], y1[t], x2[t], y2[t]
        inside = ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) / dt >= -1e-12
        inside &= ((ex - bx) * (y - by) - (ey - by) * (x - bx)) / dt >= -1e-12
        inside &= ((ax - ex) * (y - ey) - (ay - ey) * (x - ex)) / dt >= -1e-12
        bitmap[(i * ny + j)[inside]] = True
    return bitmap.reshape(nx, ny)


@dataclass(frozen=True)
class ProjectionReport:
    area: float
    proj_area_mult: tuple[float, float]
    shadow_areas: tuple[float, float]
    lambda_used: float
    inequality_slack: float


def projection_inequality_report(
    mesh: TriMesh4, p1: Plane, p2: Plane, resolution: int = 256
) -> ProjectionReport:
    """Parts of the shadow inequality shadow1 + shadow2 <= lambda * area.

    lambda is the largest projection sum over the faces of nonzero area;
    on a mesh without such faces it is the pair's sharp supremum
    ``sup_projection_sum(p1, p2).sup_value``, which bounds every face sum.
    The slack lambda * area - (shadow1 + shadow2) goes negative only by the
    rasterization error; read backwards, the inequality is the Plateau
    certificate area >= (shadow1 + shadow2) / lambda.
    """
    total = area(mesh)
    pm = (projected_area_with_multiplicity(mesh, p1),
          projected_area_with_multiplicity(mesh, p2))
    sh = (shadow_area(mesh, p1, resolution), shadow_area(mesh, p2, resolution))
    w = face_tangents(mesh)
    if len(w):
        lam = float(np.max(projection_sums(p1, p2, w)))
    else:
        lam = sup_projection_sum(p1, p2).sup_value
    return ProjectionReport(
        area=total,
        proj_area_mult=pm,
        shadow_areas=sh,
        lambda_used=lam,
        inequality_slack=lam * total - (sh[0] + sh[1]),
    )


class GraphAreaReport(NamedTuple):
    area: float
    base_area: float
    dirichlet: float
    slack: float


def graph_area_check(
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    r_inner: float,
    r_outer: float,
    grid: tuple[int, int] = (64, 256),
) -> GraphAreaReport:
    """Quadrature check of area(graph) >= base + (1/4) * dirichlet on an annulus.

    ``phi(x, y)`` maps Cartesian plane coordinates to the orthogonal
    complement (shape (..., k), k = 1 or 2, or plain scalars).  Both sides
    use the same midpoint quadrature per polar grid cell, so the reported
    slack is self-consistent; it requires the sampled gradient to stay
    below 1 in Frobenius norm and raises otherwise.
    """
    if not (0.0 <= r_inner < r_outer):
        raise ValueError(f"need 0 <= r_inner < r_outer, got ({r_inner}, {r_outer})")
    n_r, n_t = grid
    r = np.linspace(r_inner, r_outer, n_r + 1)
    t = np.arange(n_t) * (2.0 * np.pi / n_t)
    rr, tt = np.meshgrid(r, t, indexing="ij")
    vals = np.asarray(phi(rr * np.cos(tt), rr * np.sin(tt)), dtype=float)
    if vals.shape == rr.shape:
        vals = vals[..., None]
    if vals.shape[:2] != rr.shape or vals.shape[2] not in (1, 2):
        raise ValueError("phi must map to 1 or 2 components on the sample grid")

    dr = (r_outer - r_inner) / n_r
    dt = 2.0 * np.pi / n_t
    rc = 0.5 * (r[1:] + r[:-1])

    d_r = vals[1:] - vals[:-1]
    d_r = 0.5 * (d_r + np.roll(d_r, -1, axis=1)) / dr          # (n_r, n_t, k)
    d_t = np.roll(vals, -1, axis=1) - vals
    d_t = 0.5 * (d_t[1:] + d_t[:-1]) / dt
    d_t = d_t / rc[:, None, None]                               # angular derivative / r

    g2 = np.sum(d_r**2 + d_t**2, axis=-1)
    gmax = float(np.sqrt(g2.max())) if g2.size else 0.0
    if gmax >= 1.0:
        raise ValueError(f"sampled gradient norm {gmax:.4f} violates the bound < 1")
    if vals.shape[2] == 2:
        det = d_r[..., 0] * d_t[..., 1] - d_t[..., 0] * d_r[..., 1]
    else:
        det = np.zeros_like(g2)

    w = np.broadcast_to(rc[:, None] * dr * dt, g2.shape)   # midpoint cell areas
    base = float(np.sum(w))
    graph = float(np.sum(np.sqrt(1.0 + g2 + det**2) * w))
    dirichlet = float(np.sum(g2 * w))
    return GraphAreaReport(graph, base, dirichlet, graph - base - 0.25 * dirichlet)


def band_area(
    h: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    rho: float = 0.75,
    n: int = 512,
    t_steps: int = 64,
    check_lip: bool = True,
) -> tuple[float, float]:
    """Area of the thin band {(x, t h(x))} over a circle, with its sup bound.

    ``h`` maps the circle of radius rho into R^2 (callable of theta or a
    sampled (n, 2) array).  The area comes from the parametrized cross-term
    integrand sqrt((1 + t^2 |h'|^2) |h|^2 - (t h'.h)^2) with derivatives in
    arc length; when |h'| <= 1 it is bounded by sqrt(2) |h|, hence the
    returned bound sqrt(2) * 2*pi*rho * sup|h| -- which at rho = 3/4 is the
    (3 sqrt(2)/2) * pi * sup|h| constant.  With ``check_lip`` a sampled
    Lipschitz violation raises.
    """
    if rho <= 0:
        raise ValueError(f"radius must be positive, got {rho}")
    theta = np.arange(n) * (2.0 * np.pi / n)
    vals = np.asarray(h(theta) if callable(h) else h, dtype=float)
    if vals.shape != (n, 2):
        raise ValueError(f"band data must have shape ({n}, 2), got {vals.shape}")
    dx = 2.0 * np.pi * rho / n
    hp = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2.0 * dx)
    lip = float(np.max(np.linalg.norm(hp, axis=1)))
    if check_lip and lip > 1.0 + 1e-12:
        raise ValueError(f"band data violates the Lipschitz bound: |h'| up to {lip:.4f}")

    tmid = (np.arange(t_steps) + 0.5) / t_steps
    h2 = np.sum(vals**2, axis=1)
    hp2 = np.sum(hp**2, axis=1)
    hph = np.sum(hp * vals, axis=1)
    t2 = tmid[:, None] ** 2
    integrand2 = (1.0 + t2 * hp2[None, :]) * h2[None, :] - t2 * hph[None, :] ** 2
    band = float(np.sum(np.sqrt(np.maximum(integrand2, 0.0))) * dx / t_steps)
    bound = float(np.sqrt(2.0) * 2.0 * np.pi * rho * np.sqrt(h2.max()))
    return band, bound


def write_mesh4(path, mesh: TriMesh4) -> None:
    """Write a mesh in the MESH4 text format (17 significant digits)."""
    real = "{:.17g}".format
    lines = [f"MESH4 {len(mesh.vertices)} {len(mesh.faces)}"]
    lines += [" ".join(map(real, v)) for v in mesh.vertices.tolist()]
    lines += [f"{a} {b} {c}" for a, b, c in mesh.faces.tolist()]
    idx = np.flatnonzero(mesh.fixed).tolist()
    lines += ["B " + " ".join(map(str, idx[s:s + 16])) for s in range(0, len(idx), 16)]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh4(path) -> TriMesh4:
    """Read a MESH4 text file.

    Raises ``ConfigError`` naming ``path:line`` for a bad header, a line
    with the wrong number of tokens, a token that is not a finite real or
    an integer, a vertex index out of range, or a file that ends early;
    a mesh that fails ``TriMesh4.validate`` (a degenerate face, a face
    area that overflows, bad boundary polylines) raises it naming ``path``.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not an ASCII MESH4 file ({exc.reason})") from exc

    def values(line_no: int, tokens: list[str], kind: type, nv: int | None = None):
        out = []
        for tok in tokens:
            try:
                val = kind(tok)
            except ValueError:
                val = None
            if val is None or not math.isfinite(val):
                what = "a finite real" if kind is float else "an integer"
                raise ConfigError(f"{path}:{line_no}: {tok!r} is not {what}")
            if nv is not None and not 0 <= val < nv:
                raise ConfigError(f"{path}:{line_no}: vertex index {val} out of range [0, {nv})")
            out.append(val)
        return out

    def row(line_no: int, count: int, kind: type, nv: int | None = None):
        if line_no > len(lines):
            raise ConfigError(f"{path}:{line_no}: file ends early")
        tokens = lines[line_no - 1].split()
        if len(tokens) != count:
            raise ConfigError(f"{path}:{line_no}: expected {count} values, got {len(tokens)}")
        return values(line_no, tokens, kind, nv)

    header = lines[0].split() if lines else []
    if len(header) != 3 or header[0] != "MESH4":
        raise ConfigError(f"{path}:1: not a MESH4 file")
    nv, nf = values(1, header[1:], int)
    if nv < 0 or nf < 0:
        raise ConfigError(f"{path}:1: negative vertex or face count")
    verts = np.array([row(2 + i, 4, float) for i in range(nv)], dtype=float)
    faces = np.array([row(2 + nv + i, 3, int, nv) for i in range(nf)], dtype=np.int64)
    fixed = np.zeros(nv, dtype=bool)
    for line_no in range(2 + nv + nf, len(lines) + 1):
        tokens = lines[line_no - 1].split()
        if not tokens:
            continue
        if tokens[0] != "B":
            raise ConfigError(f"{path}:{line_no}: unexpected trailing line "
                              f"{lines[line_no - 1]!r}")
        fixed[values(line_no, tokens[1:], int, nv)] = True
    try:
        return TriMesh4(verts, faces, fixed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
