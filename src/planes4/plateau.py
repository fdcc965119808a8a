"""Discrete Plateau experiments on unions of two planes.

The baseline competitor is two fan-triangulated unit disks in the
canonical plane pair, meeting only at the origin, with the boundary rings
fixed; its area tends to 2*pi.  The pinched competitor removes both disks
inside a pinch radius and joins the two inner circles by a ruled tube
through the origin region, which is the minimal-complexity connected
competitor family.

``minimize_area`` runs plain gradient descent with backtracking on the
free vertices (area Hessians are rank-deficient at cone points, so
robustness beats Newton here), radially retracting anything that leaves
the closed unit ball.  Its schedule is fixed: the step starts at 0.01,
and the descent stops as converged once the free-vertex gradient norm
falls below ``TOL_GRAD`` = 1e-6; only the iteration cap varies.
``certificate_lower_bound`` reads the shadow inequality backwards:
it takes the two shadow areas and lambda from
``surfaces.projection_inequality_report`` and returns the area floor
(shadow1 + shadow2) / lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior
from .bounds import area_lower_bound
from .errors import ConfigError
from .grassmann import Plane, canonical_pair
from .surfaces import TriMesh4, projection_inequality_report


_STEP = 0.01            # initial descent step; accepted steps grow it up to 10x
TOL_GRAD = 1e-6         # converged below this free-vertex gradient norm


@dataclass(frozen=True)
class ExperimentConfig:
    alpha1: float
    alpha2: float
    boundary_segments: int = 256
    pinch_radius: float = 0.0
    max_iters: int = 200             # descent iteration cap
    resolution: int = 256            # shadow rasterization cells per unit

    def __post_init__(self):
        if not (0.0 < self.alpha1 <= self.alpha2 <= np.pi / 2 + 1e-15):
            raise ConfigError(
                f"need 0 < alpha1 <= alpha2 <= pi/2, got ({self.alpha1}, {self.alpha2})"
            )
        if not (0.0 <= self.pinch_radius < 0.5):
            raise ConfigError(f"pinch radius must lie in [0, 0.5), got {self.pinch_radius}")
        if self.boundary_segments < 32:
            raise ConfigError(f"need at least 32 boundary segments, got {self.boundary_segments}")
        if 0.0 < self.pinch_radius < 4.0 / self.boundary_segments:
            raise ConfigError(_tube_message(self.pinch_radius, self.boundary_segments))
        if self.resolution < 128:
            raise ConfigError(f"certificate resolution must be >= 128, got {self.resolution}")


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    initial_area: float
    final_area: float
    area_trace: np.ndarray
    certificate_bound: float
    shadows_cover: tuple[bool, bool]
    verdict: str                     # no-improvement-found | improved | certified-optimal
    tolerance: float                 # rasterization + discretization allowance
    stopped: str                     # descent stop reason, as in MinimizeResult
    grad_norm: float                 # free-vertex gradient norm at the final mesh
    final_mesh: TriMesh4


@dataclass(frozen=True)
class MinimizeResult:
    mesh: TriMesh4
    trace: np.ndarray
    grad_norm: float
    stopped: str                     # converged | max-iters | line-search-failure


def _ring(plane: Plane, radius: float, n: int) -> np.ndarray:
    t = np.arange(n) * (2.0 * np.pi / n)
    return radius * (np.cos(t)[:, None] * plane.basis[0]
                     + np.sin(t)[:, None] * plane.basis[1])


def build_union_mesh(alpha1: float, alpha2: float, n: int) -> TriMesh4:
    """Two fan disks in the canonical pair, sharing only the origin vertex."""
    if n < 32:
        raise ValueError(f"need at least 32 boundary segments, got {n}")
    p1, p2 = canonical_pair(alpha1, alpha2)
    verts = np.vstack([np.zeros((1, 4)), _ring(p1, 1.0, n), _ring(p2, 1.0, n)])
    rims = np.arange(1, 2 * n + 1).reshape(2, n)
    faces = np.stack([np.zeros_like(rims), rims, np.roll(rims, -1, axis=1)], axis=-1)
    fixed = np.ones(len(verts), dtype=bool)
    fixed[0] = False
    return TriMesh4(verts, faces.reshape(-1, 3), fixed)


def _strip(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Faces (a_k, b_k, b_k+1), (a_k, b_k+1, a_k+1) joining closed index rings.

    a and b hold one ring per row (..., n); rows pair up in order.
    """
    a1, b1 = np.roll(a, -1, axis=-1), np.roll(b, -1, axis=-1)
    return np.stack([a, b, b1, a, b1, a1], axis=-1).reshape(-1, 3)


def _tube_message(pinch_radius: float, n: int) -> str:
    return (f"pinch radius {pinch_radius} too small for {n} segments: "
            "the connector tube would be degenerate")


def build_pinched_competitor(alpha1: float, alpha2: float,
                             pinch_radius: float, n: int) -> TriMesh4:
    """Both disks cut at the pinch radius and joined by a ruled tube.

    The annuli use geometric radial grading (inner triangles keep a sane
    aspect ratio); the tube linearly interpolates between the two inner
    circles, giving the straight join through the origin region.  The
    pinch value 0 returns the plain union mesh.
    """
    if pinch_radius == 0.0:
        return build_union_mesh(alpha1, alpha2, n)
    if pinch_radius < 0.0:
        raise ValueError(f"pinch radius must be nonnegative, got {pinch_radius}")
    if n < 32:
        raise ValueError(f"need at least 32 boundary segments, got {n}")
    if pinch_radius < 4.0 / n:
        raise ConfigError(_tube_message(pinch_radius, n))
    p1, p2 = canonical_pair(alpha1, alpha2)
    n_r = max(4, round(n / 12))
    radii = pinch_radius ** (1.0 - np.arange(n_r + 1) / n_r)   # rho ... 1, geometric
    disk1 = [_ring(p1, r, n) for r in radii]
    disk2 = [_ring(p2, r, n) for r in radii]
    # tube rings interpolate inner circle of disk 1 -> inner circle of disk 2
    m_t = max(4, n // 32)
    tube = [(1.0 - l / m_t) * disk1[0] + (l / m_t) * disk2[0] for l in range(1, m_t)]

    verts = np.vstack(disk1 + disk2 + tube)
    rows = np.arange(len(verts)).reshape(-1, n)      # one vertex ring per row
    d1, d2 = rows[:n_r + 1], rows[n_r + 1:2 * n_r + 2]
    chain = np.vstack([d1[:1], rows[2 * n_r + 2:], d2[:1]])   # inner ring, tube, inner ring
    faces = np.concatenate([_strip(c[:-1], c[1:]) for c in (d1, d2, chain)])
    fixed = np.zeros(len(verts), dtype=bool)
    fixed[d1[-1]] = True                             # outer rings
    fixed[d2[-1]] = True
    return TriMesh4(verts, faces, fixed)


def build_competitor(cfg: ExperimentConfig) -> TriMesh4:
    """The competitor of cfg; a degenerate face is a ``ConfigError``.

    At angles near 0 the tube joins two almost equal circles, so its faces
    can fall below the area that ``TriMesh4.validate`` accepts.
    """
    try:
        return build_pinched_competitor(cfg.alpha1, cfg.alpha2, cfg.pinch_radius,
                                        cfg.boundary_segments)
    except ValueError as exc:
        raise ConfigError(
            f"angles ({cfg.alpha1}, {cfg.alpha2}) with pinch {cfg.pinch_radius} and "
            f"{cfg.boundary_segments} segments give a degenerate competitor: {exc}") from exc


def _wedge_apply(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows A x for the antisymmetric matrices A of the 2-vectors w.

    A[i, j] = w[k] = -A[j, i] for basis pair k = (i, j).  Each row sums its
    three terms as (b0 + b2) + (b1 + b3) over column b with the zero
    diagonal term dropped, the grouping of numpy's einsum
    "fab,fb->fa" on 4 columns, so results match it bit for bit.
    """
    w0, w1, w2, w3, w4, w5 = w.T
    x0, x1, x2, x3 = x.T
    out = np.empty((len(w), 4))
    out[:, 0] = w1 * x2 + (w0 * x1 + w2 * x3)
    out[:, 1] = (w3 * x2 - w0 * x0) + w4 * x3
    out[:, 2] = -(w1 * x0) + (w5 * x3 - w3 * x1)
    out[:, 3] = (-(w2 * x0) - w5 * x2) - w4 * x1
    return out


def _area_and_gradient(verts: np.ndarray, faces: np.ndarray):
    p0 = verts[faces[:, 0]]
    u = verts[faces[:, 1]] - p0
    v = verts[faces[:, 2]] - p0
    w = exterior.wedge(u, v)
    n = np.sqrt(np.sum(w * w, axis=1))
    total = 0.5 * float(np.sum(n))
    den = (2.0 * np.maximum(n, 1e-30))[:, None]
    g1 = _wedge_apply(w, v) / den
    g2 = -_wedge_apply(w, u) / den
    g0 = -(g1 + g2)
    # bincount adds in input order, corner 0 of every face first, like add.at
    idx = faces.T.reshape(-1)
    g = np.concatenate([g0, g1, g2])
    grad = np.empty_like(verts)
    for c in range(4):
        grad[:, c] = np.bincount(idx, weights=g[:, c], minlength=len(verts))
    return total, grad


def _retract_to_ball(verts: np.ndarray, free: np.ndarray) -> None:
    """Radially pull the rows ``free`` (indices) of verts back into the unit ball."""
    norms = np.linalg.norm(verts[free], axis=1)
    out = norms > 1.0
    if out.any():
        idx = free[out]
        verts[idx] /= norms[out][:, None]


def _free_grad_norm(grad: np.ndarray, free: np.ndarray) -> float:
    # a numpy pairwise sum, not np.linalg.norm: its BLAS dot product splits
    # the sum by the BLAS thread count, so the value varied between machines
    g = grad[free]
    return float(np.sqrt(np.sum(g * g)))


def minimize_area(mesh: TriMesh4, max_iters: int = 200) -> MinimizeResult:
    """Monotone gradient descent on free vertices with radial ball retraction."""
    if not mesh.fixed.any():
        raise ValueError("mesh has no fixed boundary vertices")
    verts = mesh.vertices.copy()
    free = np.flatnonzero(~mesh.fixed)
    current, grad = _area_and_gradient(verts, mesh.faces)
    trace = [current]
    step = _STEP
    stopped = "max-iters"
    gnorm = _free_grad_norm(grad, free)
    for _ in range(max_iters):
        if gnorm < TOL_GRAD:
            stopped = "converged"
            break
        s = step
        while s > 1e-12 * _STEP:
            trial = verts.copy()
            trial[free] -= s * grad[free]
            _retract_to_ball(trial, free)
            val, g = _area_and_gradient(trial, mesh.faces)
            if val < current:
                verts, current, grad = trial, val, g
                gnorm = _free_grad_norm(grad, free)
                trace.append(current)
                step = min(s * 1.5, 10.0 * _STEP)
                break
            s *= 0.5
        else:
            stopped = "line-search-failure"
            break
    out = TriMesh4.__new__(TriMesh4)
    out.vertices = verts
    out.faces = mesh.faces.copy()
    out.fixed = mesh.fixed.copy()
    return MinimizeResult(out, np.array(trace), gnorm, stopped)


def certificate_lower_bound(
    mesh: TriMesh4, p1: Plane, p2: Plane, resolution: int = 256
) -> tuple[float, tuple[bool, bool]]:
    """Certified area floor (shadow1 + shadow2) / lambda plus coverage flags.

    The shadows and lambda come from ``projection_inequality_report``.
    Coverage asks each shadow to reach (1 - 2/resolution) * pi, the full
    unit disk up to rasterization slop.
    """
    if resolution < 128:
        raise ValueError(f"certificate resolution must be >= 128, got {resolution}")
    rep = projection_inequality_report(mesh, p1, p2, resolution)
    sh1, sh2 = rep.shadow_areas
    full = (1.0 - 2.0 / resolution) * np.pi
    return (sh1 + sh2) / rep.lambda_used, (sh1 >= full, sh2 >= full)


def mesh_area_tolerance(n: int) -> float:
    """Discretization error of the two fan disks: 2*pi - n*sin(2*pi/n)."""
    return float(2.0 * np.pi - n * np.sin(2.0 * np.pi / n))


def run_experiment(cfg: ExperimentConfig, mesh: TriMesh4) -> ExperimentReport:
    """Minimize the competitor ``mesh = build_competitor(cfg)``, certify, and attach a verdict."""
    p1, p2 = canonical_pair(cfg.alpha1, cfg.alpha2)
    n = cfg.boundary_segments
    result = minimize_area(mesh, cfg.max_iters)
    final = float(result.trace[-1])

    mesh_tol = mesh_area_tolerance(n)
    tol = 4.0 / cfg.resolution + 2.0 * mesh_tol
    bound, covers = certificate_lower_bound(result.mesh, p1, p2, cfg.resolution)

    if (covers[0] and covers[1]
            and final >= bound - tol
            and bound >= area_lower_bound(2.0 * np.cos(cfg.alpha1)) - tol):
        verdict = "certified-optimal"
    elif final < 2.0 * np.pi - 2.0 * mesh_tol:
        verdict = "improved"
    else:
        verdict = "no-improvement-found"

    return ExperimentReport(
        config=cfg,
        initial_area=float(result.trace[0]),
        final_area=final,
        area_trace=result.trace,
        certificate_bound=bound,
        shadows_cover=covers,
        verdict=verdict,
        tolerance=tol,
        stopped=result.stopped,
        grad_norm=result.grad_norm,
        final_mesh=result.mesh,
    )
