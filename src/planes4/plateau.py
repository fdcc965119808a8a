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
the closed unit ball.  Its area-and-gradient kernel is coordinate-major:
each edge coordinate, wedge coefficient and gradient coordinate is one
contiguous row over the faces, summed in the grouping of the row-major
``exterior.wedge``/einsum/``np.add.at`` oracle, so its bits equal the
oracle's.  Each descent builds its own kernel, whose buffers every step
reuses, so the pinch sweep's threads share none.  Its schedule is fixed:
the step starts at 0.01, and the descent stops as converged once the
free-vertex gradient norm falls below ``TOL_GRAD`` = 1e-6; only the
iteration cap varies.
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
from .surfaces import SHADOW_RESOLUTION, TriMesh4, projection_inequality_report


_STEP = 0.01            # initial descent step; accepted steps grow it up to 10x
TOL_GRAD = 1e-6         # converged below this free-vertex gradient norm


@dataclass(frozen=True)
class ExperimentConfig:
    alpha1: float
    alpha2: float
    boundary_segments: int = 256
    pinch_radius: float = 0.0
    max_iters: int = 200             # descent iteration cap

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


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    initial_area: float
    final_area: float
    area_trace: np.ndarray
    certificate_bound: float
    shadows_cover: tuple[bool, bool]
    verdict: str                     # improved | certified-optimal | no-improvement-found
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


class _AreaGradient:
    """Area and vertex gradient of meshes on one face list, in reused buffers.

    An evaluation allocates only its result: each call returns a fresh
    gradient, as the descent keeps the accepted one while it evaluates the
    next trial.  Every operation keeps the operands and grouping of the
    oracle, and the gradient is built one coordinate at a time.
    """

    def __init__(self, faces: np.ndarray, nv: int):
        m = len(faces)
        self._corners = np.ascontiguousarray(faces.T)       # (3, m)
        self._vt = np.empty((4, nv))
        self._p = np.empty((4, 3, m))        # corner coordinates, then edge rows
        self._w = np.empty((6, m))           # wedge coefficients
        self._s = self._p[:, 0]   # norm, denominator, two scratch rows, once u and v are formed
        self._g = np.empty((3, m))           # one gradient coordinate, per corner

    def _wedge_row(self, a: int, x: np.ndarray, out: np.ndarray) -> None:
        """Row a of A x into out, where A[i, j] = w[k] = -A[j, i] for basis pair k = (i, j).

        The terms add as (b0 + b2) + (b1 + b3) over column b, with the zero
        diagonal term dropped: the grouping of numpy's einsum "fab,fb->fa".
        """
        w0, w1, w2, w3, w4, w5 = self._w
        x0, x1, x2, x3 = x
        t = self._s[3]
        mul, add, sub = np.multiply, np.add, np.subtract
        if a == 0:                           # w1 x2 + (w0 x1 + w2 x3)
            mul(w0, x1, out=out)
            add(out, mul(w2, x3, out=t), out=out)
            add(mul(w1, x2, out=t), out, out=out)
        elif a == 1:                         # (w3 x2 - w0 x0) + w4 x3
            sub(mul(w3, x2, out=out), mul(w0, x0, out=t), out=out)
            add(out, mul(w4, x3, out=t), out=out)
        elif a == 2:                         # -(w1 x0) + (w5 x3 - w3 x1)
            sub(mul(w5, x3, out=out), mul(w3, x1, out=t), out=out)
            add(np.negative(mul(w1, x0, out=t), out=t), out, out=out)
        else:                                # (-(w2 x0) - w5 x2) - w4 x1
            np.negative(mul(w2, x0, out=out), out=out)
            sub(out, mul(w5, x2, out=t), out=out)
            sub(out, mul(w4, x1, out=t), out=out)

    def __call__(self, verts: np.ndarray) -> tuple[float, np.ndarray]:
        p, w, g = self._p, self._w, self._g
        n, den, t = self._s[0], self._s[1], self._s[2]
        np.copyto(self._vt, verts.T)
        # the faces are valid indices, so clip changes nothing; unlike the
        # default mode it writes into p without a buffer
        np.take(self._vt, self._corners, axis=1, out=p, mode="clip")
        u = np.subtract(p[:, 1], p[:, 0], out=p[:, 1])
        v = np.subtract(p[:, 2], p[:, 0], out=p[:, 2])
        for k, (i, j) in enumerate(exterior.BASIS):  # the rows of exterior.wedge(u, v)
            np.subtract(np.multiply(u[i], v[j], out=w[k]),
                        np.multiply(u[j], v[i], out=t), out=w[k])
        # the six squares add left to right, as np.sum(w * w, axis=1) adds
        # the six squares of one face
        np.multiply(w[0], w[0], out=n)
        for k in range(1, 6):
            np.add(n, np.multiply(w[k], w[k], out=t), out=n)
        np.sqrt(n, out=n)
        total = 0.5 * float(np.sum(n))
        np.multiply(2.0, np.maximum(n, 1e-30, out=den), out=den)
        grad = np.empty_like(verts)
        for c in range(4):
            self._wedge_row(c, v, g[1])
            np.divide(g[1], den, out=g[1])
            self._wedge_row(c, u, g[2])
            np.divide(np.negative(g[2], out=g[2]), den, out=g[2])
            np.negative(np.add(g[1], g[2], out=g[0]), out=g[0])
            # bincount adds in input order, corner 0 of every face first, like add.at
            grad[:, c] = np.bincount(self._corners.reshape(-1), weights=g.reshape(-1),
                                     minlength=len(verts))
        return total, grad


def _retract_to_ball(verts: np.ndarray, free: np.ndarray) -> None:
    """Radially pull the rows ``free`` (indices) of verts back into the unit ball."""
    norms = np.linalg.norm(verts[free], axis=1)
    out = norms > 1.0
    if out.any():
        idx = free[out]
        verts[idx] /= norms[out][:, None]


def _free_grad_norm(grad: np.ndarray, free: np.ndarray, buf: np.ndarray) -> float:
    # a numpy pairwise sum, not np.linalg.norm: its BLAS dot product splits
    # the sum by the BLAS thread count, so the value varied between machines
    g = np.take(grad, free, axis=0, out=buf, mode="clip")
    return float(np.sqrt(np.sum(np.multiply(g, g, out=g))))


def minimize_area(mesh: TriMesh4, max_iters: int = 200) -> MinimizeResult:
    """Monotone gradient descent on free vertices with radial ball retraction."""
    if not mesh.fixed.any():
        raise ValueError("mesh has no fixed boundary vertices")
    verts = mesh.vertices.copy()
    trial = np.empty_like(verts)            # swaps with verts on acceptance
    free = np.flatnonzero(~mesh.fixed)
    free_grad = np.empty((len(free), 4))
    sq, t = np.empty((2, len(verts)))
    evaluate = _AreaGradient(mesh.faces, len(verts))
    current, grad = evaluate(verts)
    trace = [current]
    step = _STEP
    stopped = "max-iters"
    gnorm = _free_grad_norm(grad, free, free_grad)
    for _ in range(max_iters):
        if gnorm < TOL_GRAD:
            stopped = "converged"
            break
        grad[mesh.fixed] = 0.0                       # x - s * 0.0 is x, bit for bit
        s = step
        while s > 1e-12 * _STEP:
            np.subtract(verts, np.multiply(s, grad, out=trial), out=trial)
            # the squares np.linalg.norm sums, added in another order: as
            # sqrt is monotone and sqrt(1) = 1, the margin admits every row
            # that _retract_to_ball moves; the fixed rows, on the unit
            # circle, never move
            np.square(trial[:, 0], out=sq)
            for c in (1, 2, 3):
                np.add(sq, np.square(trial[:, c], out=t), out=sq)
            sq[mesh.fixed] = 0.0
            if sq.max() > 1.0 - 1e-9:
                _retract_to_ball(trial, free)
            val, g = evaluate(trial)
            if val < current:
                verts, trial = trial, verts
                current, grad = val, g
                gnorm = _free_grad_norm(grad, free, free_grad)
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


def certificate_lower_bound(mesh: TriMesh4, p1: Plane,
                            p2: Plane) -> tuple[float, tuple[bool, bool]]:
    """Certified area floor (shadow1 + shadow2) / lambda plus coverage flags.

    The shadows and lambda come from ``projection_inequality_report``.
    Coverage asks each shadow to reach (1 - 2/SHADOW_RESOLUTION) * pi, the
    full unit disk up to rasterization slop.
    """
    rep = projection_inequality_report(mesh, p1, p2)
    sh1, sh2 = rep.shadow_areas
    full = (1.0 - 2.0 / SHADOW_RESOLUTION) * np.pi
    return (sh1 + sh2) / rep.lambda_used, (sh1 >= full, sh2 >= full)


def mesh_area_tolerance(n: int) -> float:
    """Discretization error of the two fan disks: 2*pi - n*sin(2*pi/n)."""
    return float(2.0 * np.pi - n * np.sin(2.0 * np.pi / n))


def run_experiment(cfg: ExperimentConfig, mesh: TriMesh4) -> ExperimentReport:
    """Minimize the competitor ``mesh = build_competitor(cfg)``, certify, and attach a verdict.

    The verdicts are tested in order: ``improved`` when the final area is
    below 2*pi by more than twice ``mesh_area_tolerance``, else
    ``certified-optimal`` when both shadows cover their disks, the final
    area reaches the certificate bound and the bound reaches
    2*pi / (1 + 2 cos(alpha1)), both within ``tolerance``, else
    ``no-improvement-found``.
    """
    p1, p2 = canonical_pair(cfg.alpha1, cfg.alpha2)
    n = cfg.boundary_segments
    result = minimize_area(mesh, cfg.max_iters)
    final = float(result.trace[-1])

    mesh_tol = mesh_area_tolerance(n)
    tol = 4.0 / SHADOW_RESOLUTION + 2.0 * mesh_tol
    bound, covers = certificate_lower_bound(result.mesh, p1, p2)

    if final < 2.0 * np.pi - 2.0 * mesh_tol:
        verdict = "improved"
    elif (covers[0] and covers[1]
            and final >= bound - tol
            and bound >= area_lower_bound(2.0 * np.cos(cfg.alpha1)) - tol):
        verdict = "certified-optimal"
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
