"""Multiscale flatness scan over dyadic bi-cylinders.

Sets are represented by dense point samples.  The window at center x and
scale r is the bi-cylinder D(x, r): both in-plane projections of y - x
must have norm at most r (closed clip; on finite samples the open/closed
distinction carries no measure and closed clips reproduce exactly).

The relative distance between two sets over a window is

    (1/r) * max( sup_{y in E ∩ D} dist(y, F),  sup_{y in F ∩ D} dist(y, E) )

with distances taken to the full (unclipped) other set.  All sups run
over samples, never true sets, so every comparison in the scan carries
the declared sample resolution h as a tolerance term 2h/r.

The scan itself walks dyadic scales s_n = 2^-n, fitting the best
translate of the plane pair in each window.  It stops at the first scale
where even the best translate misses by more than eps (plus the sampling
tolerance); if the scale falls below the resolution floor first, the scan
reports floor_hit instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import thread_count
from .errors import ConfigError
from .grassmann import Plane
from .surfaces import TriMesh4


@dataclass(frozen=True)
class SetSample:
    """Dense point sample of a 2-set in R^4 with its declared resolution.

    ``resolution`` is the sample spacing in the region where scan
    decisions happen (tiered samples may be coarser in the far field; the
    constructors below document their tiers).
    """

    points: np.ndarray
    resolution: float

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float).reshape(-1, 4)
        if not len(pts):
            raise ValueError("a set sample must contain at least one point")
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class ScanStep:
    index: int
    center: np.ndarray
    scale: float
    carried: float               # distance to the pair translated by this center
    best_q: np.ndarray
    best_dist: float
    window_points: int           # sample points in D(center, scale)
    candidates: int              # translates the search evaluated
    rejected_early: int          # of those, rejected before a full evaluation


@dataclass(frozen=True)
class ScanReport:
    """The steps of an ``epsilon_process`` scan, and o_k, r_k if it stopped.

    A floor hit leaves o_k, r_k and both distances None; the properties
    below are read off the steps and o_k.
    """

    steps: tuple[ScanStep, ...]
    eps: float
    floor: float
    resolution: float
    o_k: np.ndarray | None = None
    r_k: float | None = None
    dist_shrunken: float | None = None   # to pair + o_k on D(o_k, 2 r_k (1 - 12 eps))
    dist_double: float | None = None     # to pair + o_k on D(o_k, 2 r_k)

    @property
    def stopped(self) -> bool:
        return self.o_k is not None

    @property
    def floor_hit(self) -> bool:
        return self.o_k is None

    @property
    def scales(self) -> np.ndarray:
        return np.array([st.scale for st in self.steps])

    @property
    def centers(self) -> np.ndarray:
        """q_0 .. q_last, shape (k, 4): q_0 = q_1 = 0, then each moved-to translate."""
        moved = self.steps[:-1] if self.stopped else self.steps
        return np.array([np.zeros(4), np.zeros(4)] + [st.best_q for st in moved])


def _in_bicylinder(a: np.ndarray, c: np.ndarray, planes: tuple[Plane, Plane],
                   x: np.ndarray, r: float) -> np.ndarray:
    """Mask of the points, given by in-plane coordinates a, c (m, 2), inside D(x, r)."""
    b1 = x @ planes[0].basis.T
    b2 = x @ planes[1].basis.T
    m = np.hypot(a[:, 0] - b1[0], a[:, 1] - b1[1]) <= r
    m &= np.hypot(c[:, 0] - b2[0], c[:, 1] - b2[1]) <= r
    return m


def _complement_basis(plane: Plane) -> np.ndarray:
    """Orthonormal basis (2, 4) of the plane's orthogonal complement."""
    full = np.vstack([plane.basis, np.eye(4)])
    q, _ = np.linalg.qr(full.T)
    return q.T[2:4]


#: cap on window points driving the translate search; the returned distance
#: is always re-evaluated exactly on the full window
_SEARCH_POINT_CAP = 150_000

#: the translate search's fixed schedule
_GRID_N = 3              # coarse grid points per translation axis
_PLANE_POINTS = 48       # plane-lattice points per window diameter
_MAX_ROUNDS = 24         # coordinate-descent rounds at most

#: lattice points per kd-tree query and window points per set-side block
#: when a search candidate is evaluated against the incumbent
_LATTICE_CHUNK = 512
_SET_CHUNK = 16_384


class _PairGeometry:
    """Cached projections for a plane pair and one sampled set.

    ``tree`` is the one kd-tree of the scan: it holds the whole sample, so
    every lattice query in every window is answered exactly by it.
    """

    def __init__(self, e: SetSample, p1: Plane, p2: Plane):
        from scipy.spatial import cKDTree
        self.e = e
        self.planes = (p1, p2)
        self.comp = (_complement_basis(p1), _complement_basis(p2))
        pts = e.points
        self.inplane = (pts @ p1.basis.T, pts @ p2.basis.T)
        self.normal = (pts @ self.comp[0].T, pts @ self.comp[1].T)
        self.tree = cKDTree(pts)

    def window_index(self, x: np.ndarray, r: float,
                     within: np.ndarray | None = None) -> np.ndarray:
        """Ascending indices of the sample points inside D(x, r).

        Only the points of ``within`` (ascending indices, all points when
        None) are tested, so it must hold every point of D(x, r); each
        point's test is the same arithmetic either way.
        """
        a, c = self.inplane
        if within is not None:
            a, c = a[within], c[within]
        m = _in_bicylinder(a, c, self.planes, x, r)
        return np.flatnonzero(m) if within is None else within[m]

    def pair_dist(self, n1: np.ndarray, n2: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Distance (len(qs), m) of each point to the pair translated by each q.

        n1, n2 are the points' complement coordinates (m, 2) per plane; the
        translate only shifts those coordinates by q's.
        """
        b1 = qs @ self.comp[0].T                     # (k, 2)
        b2 = qs @ self.comp[1].T
        d1 = np.hypot(n1[None, :, 0] - b1[:, 0, None],
                      n1[None, :, 1] - b1[:, 1, None])
        d2 = np.hypot(n2[None, :, 0] - b2[:, 0, None],
                      n2[None, :, 1] - b2[:, 1, None])
        return np.minimum(d1, d2)

    def sup_to_pair(self, n1: np.ndarray, n2: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Sup over points of the distance to the pair translated by each q."""
        qs = np.atleast_2d(qs)
        if not len(n1):
            return np.zeros(len(qs))
        out = np.empty(len(qs))
        for s in range(0, len(qs), 16):              # cap the (batch, m) temporaries
            out[s:s + 16] = self.pair_dist(n1, n2, qs[s:s + 16]).max(axis=1)
        return out

    def pair_lattice(self, x: np.ndarray, r: float, q: np.ndarray,
                     spacing: float) -> np.ndarray:
        """Sample of (P1 + q) union (P2 + q) inside D(x, r)."""
        pts = []
        for plane in self.planes:
            c = (x - q) @ plane.basis.T
            m = int(np.ceil(r / spacing))
            ax = np.arange(-m, m + 1) * spacing
            g1, g2 = np.meshgrid(c[0] + ax, c[1] + ax, indexing="ij")
            w2 = np.stack([g1.ravel(), g2.ravel()], axis=1)
            y = q + w2 @ plane.basis
            inplane = [y @ p.basis.T for p in self.planes]
            pts.append(y[_in_bicylinder(*inplane, self.planes, x, r)])
        return np.vstack(pts)


class _WindowCtx:
    """One scan window: its points, the search subsample and the window value.

    ``value`` is the one routine for the window value max(set-side sup,
    lattice sup) / r at a translate q: the search calls it with a bar to
    reject candidates early, ``exact_value`` calls it with no bar on all
    the window's points.  The pair lattice has ``_PLANE_POINTS`` points per
    window diameter.  ``wide`` holds the sample points inside D(x, 2r).
    It serves only as the superset the next window's masks are cut from:
    ``within`` (ascending indices holding every point of D(x, 2r)) narrows
    this window's masks to a parent window's points.  ``candidates`` and
    ``rejected_early`` count the search's evaluations in this window.
    """

    def __init__(self, geom: _PairGeometry, x: np.ndarray, r: float,
                 within: np.ndarray | None = None):
        self.geom = geom
        self.x = np.asarray(x, dtype=float)
        self.r = r
        self.spacing = 2.0 * r / _PLANE_POINTS
        self.wide = geom.window_index(self.x, 2.0 * r, within)
        self.idx = geom.window_index(self.x, r, self.wide)
        stride = max(1, int(np.ceil(len(self.idx) / _SEARCH_POINT_CAP)))
        sub = self.idx[::stride]
        self.n1 = geom.normal[0][sub]
        self.n2 = geom.normal[1][sub]
        self.candidates = 0
        self.rejected_early = 0
        self._probe = 0              # lattice index that rejected the last candidate

    def value(self, q: np.ndarray, n1: np.ndarray, n2: np.ndarray,
              bar: float = np.inf) -> float | None:
        """Window value at q, or None once a partial sup reaches ``bar``.

        The value is max(set side, lattice side) / r, the set side taken
        over the points with complement coordinates n1, n2.  The lattice
        side goes first, starting at the lattice index that rejected the
        previous candidate, then the set side, both in blocks.  Partial
        sups only grow and division by r is monotone, so a q that passes
        every block gets the very value a full evaluation gives; with no
        bar nothing is rejected.
        """
        r = self.r
        m = 0.0
        lat = self.geom.pair_lattice(self.x, r, q, self.spacing)
        if len(lat):
            p = min(self._probe, len(lat) - 1)
            blocks = [(p, p + 1)]
            blocks += [(a, a + _LATTICE_CHUNK) for a in range(0, len(lat), _LATTICE_CHUNK)]
            for a, b in blocks:
                d = self.geom.tree.query(lat[a:b], workers=thread_count())[0]
                k = int(np.argmax(d))
                m = max(m, float(d[k]))
                if m / r >= bar:
                    self._probe = a + k
                    return None
        q2 = q[None, :]
        for a in range(0, len(n1), _SET_CHUNK):
            d = self.geom.pair_dist(n1[a:a + _SET_CHUNK], n2[a:a + _SET_CHUNK], q2)
            m = max(m, float(d.max()))
            if m / r >= bar:
                return None
        return m / r

    def beats(self, q: np.ndarray, best_d: float) -> float | None:
        """Search value at q if it is below best_d - 1e-15, else None."""
        self.candidates += 1
        d = self.value(q, self.n1, self.n2, best_d - 1e-15)
        if d is None:
            self.rejected_early += 1
        return d

    def exact_value(self, q: np.ndarray) -> float:
        """The window value at q over every point of the window."""
        return self.value(q, self.geom.normal[0][self.idx], self.geom.normal[1][self.idx])


def best_translation(e: SetSample, planes: tuple[Plane, Plane], x: np.ndarray,
                     r: float, tol: float = 1e-6) -> tuple[np.ndarray, float]:
    """Minimize the relative distance to the translated pair over a 4d box.

    The translate is confined to the coordinate box |q - x|_inf <= r/4
    (inside D(x, r/2)).  The schedule is fixed: a 3^4 coarse grid whose
    candidates are visited in stable ascending order of their set-side
    lower bound, then at most 24 rounds of coordinate descent, halving the
    step after a round that improves by less than ``tol``; a candidate
    replaces the incumbent only when it is lower by more than 1e-15.  The
    pair lattice has 48 points per window diameter.  Very large windows
    are subsampled for the search itself, but the returned distance is
    the exact full-window value at the returned translate.  Lattice
    distances come from one kd-tree over the whole sample.
    """
    ctx = _WindowCtx(_PairGeometry(e, *planes), x, r)
    return _search_translate(ctx, tol)


def _search_translate(ctx: _WindowCtx, tol: float) -> tuple[np.ndarray, float]:
    x, r = ctx.x, ctx.r
    if not len(ctx.idx):
        return x.copy(), 0.0

    half = r / 4.0
    ax = np.linspace(-half, half, _GRID_N)
    grid = x + np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)

    # the set-to-pair sup is a lower bound on the objective: evaluate coarse
    # candidates in that order and skip any that cannot win.  The skip pays
    # for the batch, since lowers[k] >= best_d spares a candidate its lattice
    # queries: fed through ``beats`` in grid order, all 81 were evaluated and
    # one scan_pinch pass took 94.1 s against 6.9 s (2 cores, one run each)
    lowers = ctx.geom.sup_to_pair(ctx.n1, ctx.n2, grid) / r
    best_q, best_d = None, np.inf
    for k in np.argsort(lowers, kind="stable"):
        if lowers[k] >= best_d:
            continue
        d = ctx.beats(grid[k], best_d)
        if d is not None:
            best_q, best_d = grid[k].copy(), d

    step = half / (_GRID_N - 1)
    for _ in range(_MAX_ROUNDS):
        improved = 0.0
        for coord in range(4):
            for sign in (1.0, -1.0):
                q = best_q.copy()
                q[coord] += sign * step
                if np.max(np.abs(q - x)) > half + 1e-15:
                    continue
                d = ctx.beats(q, best_d)
                if d is not None:
                    improved += best_d - d
                    best_q, best_d = q, d
        if improved < tol:
            step *= 0.5
            if step < tol * r:
                break
    return best_q, ctx.exact_value(best_q)


def epsilon_process(e: SetSample, planes: tuple[Plane, Plane], eps: float,
                    floor: float) -> ScanReport:
    """Dyadic stopping-time scan for the critical center and radius.

    The first two centers are pinned at the origin (q0 = q1 = 0); searching
    starts in D(q1, 1/2) and the translate found at step n becomes the
    center q_{n+1} of the next window D(q_{n+1}, 2^-(n+1)).  The scan stops
    at the first scale where even the best translate misses by more than
    eps + 2h/s_n (sampling tolerance included) and returns o_k = q_n,
    r_k = s_n with the distances over D(o_k, 2 r_k) and D(o_k,
    2 r_k (1 - 12 eps)).  A scale below the floor ends the loop, and the
    report returned then holds only the steps (floor_hit).  Each step runs
    the fixed schedule of ``best_translation`` (3^4 coarse grid, 48
    lattice points per window diameter, at most 24 rounds) at
    tol = 1e-4 * eps.
    """
    if not (0.0 < eps < 1.0):
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    if floor < 2.0 * e.resolution:
        raise ConfigError(
            f"floor {floor} below twice the sample resolution {e.resolution}"
        )
    geom = _PairGeometry(e, *planes)
    steps: list[ScanStep] = []
    n, q, within = 1, np.zeros(4), None             # q_1 = 0
    while (s := 2.0 ** (-n)) >= floor:
        # |q_{n+1} - q_n|_inf <= s_n / 4 moves each in-plane projection by
        # at most s_n / 2, so D(q_{n+1}, 2 s_{n+1}) lies inside D(q_n, 2 s_n)
        # and each window is cut from its parent's wide point set
        ctx = _WindowCtx(geom, q, s, within)
        carried = ctx.exact_value(q)
        best_q, best_d = _search_translate(ctx, 1e-4 * eps)
        steps.append(ScanStep(n, q.copy(), s, carried, best_q.copy(), best_d,
                              len(ctx.idx), ctx.candidates, ctx.rejected_early))
        if best_d > eps + 2.0 * e.resolution / s:
            shrink = 2.0 * s * (1.0 - 12.0 * eps)
            return ScanReport(
                tuple(steps), eps, floor, e.resolution, o_k=q, r_k=s,
                dist_shrunken=(_WindowCtx(geom, q, shrink).exact_value(q)
                               if shrink > 0 else None),
                dist_double=_WindowCtx(geom, q, 2.0 * s).exact_value(q),
            )
        n, q, within = n + 1, best_q, ctx.wide
    return ScanReport(tuple(steps), eps, floor, e.resolution)


def sample_mesh(mesh: TriMesh4, spacing: float) -> SetSample:
    """Sample a mesh by vertices plus barycentric face-interior points."""
    if spacing <= 0:
        raise ConfigError(f"spacing must be positive, got {spacing}")
    pts = [mesh.vertices]
    v = mesh.vertices[mesh.faces]
    edge = max(
        float(np.linalg.norm(v[:, 1] - v[:, 0], axis=1).max()),
        float(np.linalg.norm(v[:, 2] - v[:, 0], axis=1).max()),
        float(np.linalg.norm(v[:, 2] - v[:, 1], axis=1).max()),
    ) if len(mesh.faces) else 0.0
    k = int(np.ceil(edge / spacing))
    for i in range(1, k + 1):
        for j in range(0, k + 1 - i):
            a = i / (k + 1)
            b = j / (k + 1)
            pts.append((1.0 - a - b) * v[:, 0] + a * v[:, 1] + b * v[:, 2])
    return SetSample(np.vstack(pts), spacing)


def _disc_lattice(spacing: float, radius: float, inner: float = 0.0) -> np.ndarray:
    m = int(np.ceil(radius / spacing))
    ax = np.arange(-m, m + 1) * spacing
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    w = np.stack([g1.ravel(), g2.ravel()], axis=1)
    rr = np.linalg.norm(w, axis=1)
    return w[(rr <= radius) & (rr >= inner)]


def _tiered_disc(spacing: float, extent: float, fine_spacing: float | None,
                 fine_radius: float) -> tuple[np.ndarray, float]:
    """Disc lattice with an optional finer core, and its declared resolution."""
    tiers = [_disc_lattice(spacing, extent, inner=fine_radius)]
    res = spacing
    if fine_spacing is not None and fine_radius > 0.0:
        tiers.append(_disc_lattice(fine_spacing, fine_radius))
        res = fine_spacing
    return np.vstack(tiers), res


def plane_pair_sample(spacing: float, extent: float = 1.2,
                      fine_spacing: float | None = None,
                      fine_radius: float = 0.0) -> SetSample:
    """Sample of the orthogonal pair P01, P02, optionally with a finer core tier.

    The declared resolution is the fine (core) spacing when a core is
    requested; the far field keeps the base spacing.
    """
    from .grassmann import P01, P02
    w, res = _tiered_disc(spacing, extent, fine_spacing, fine_radius)
    pts = np.vstack([w @ P01.basis, w @ P02.basis])
    return SetSample(pts, res)


def pinched_pair_sample(pinch_radius: float, height: float, spacing: float,
                        extent: float = 1.2,
                        fine_spacing: float | None = None,
                        fine_radius: float = 0.0) -> SetSample:
    """Standard orthogonal pair with a smooth bump of given support and height.

    Points of span(e1,e2) inside the pinch radius are displaced along e3
    by height * (1 - (l/rho)^2)^2, and points of span(e3,e4) along e1 by
    the same profile; the constructed deviation from every translate of
    the pair is of order the bump height at scales around the pinch.
    """
    from .grassmann import P01, P02
    if pinch_radius <= 0:
        raise ValueError(f"pinch radius must be positive, got {pinch_radius}")
    w, res = _tiered_disc(spacing, extent, fine_spacing, fine_radius)
    r = np.linalg.norm(w, axis=1)
    bump = np.where(r < pinch_radius,
                    height * (1.0 - (r / pinch_radius) ** 2) ** 2, 0.0)
    pts1 = w @ P01.basis
    pts1[:, 2] += bump
    pts2 = w @ P02.basis
    pts2[:, 0] += bump
    return SetSample(np.vstack([pts1, pts2]), res)
