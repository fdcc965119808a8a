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
reports floor_hit instead.  A window that holds no sample point has the
lattice side alone as its value, so a set that misses the window stops
the scan there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grassmann import Plane
from .surfaces import TriMesh4, _as_rows


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
        pts = _as_rows(self.points, float, 4, "set sample points")
        if not len(pts):
            raise ValueError("a set sample must contain at least one point")
        if not self.resolution > 0:
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
    lattice_points: int          # pair-lattice points in D(center, scale) at q = center
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


def _project(y: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates y @ basis.T (m, 2) of the points y (m, 4).

    A row has the same bits in every gemm product that holds it, so a pass
    over the points in chunks gives the bits of one product over all of
    them.  numpy sends a one-row product to gemv, which can round
    otherwise, so a lone row goes through a two-row product.
    """
    return (np.repeat(y, 2, axis=0) @ basis.T)[:1] if len(y) == 1 else y @ basis.T


def _in_bicylinder(y: np.ndarray, planes: tuple[Plane, Plane], x: np.ndarray,
                   r: float) -> np.ndarray:
    """Mask of the points y (m, 4) inside D(x, r)."""
    a, c = _project(y, planes[0].basis), _project(y, planes[1].basis)
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


def _plane_dist(n: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance (len(b), m) of points with complement coordinates n (m, 2) to
    the plane translates with complement coordinates b (k, 2)."""
    return np.hypot(n[None, :, 0] - b[:, 0, None], n[None, :, 1] - b[:, 1, None])


#: cap on window points driving the translate search; the returned distance
#: is always re-evaluated exactly on the full window
_SEARCH_POINT_CAP = 150_000

#: the translate search's fixed schedule
_GRID_N = 3              # coarse grid points per translation axis
_PLANE_POINTS = 48       # plane-lattice points per window diameter
_MAX_ROUNDS = 24         # coordinate-descent rounds at most

#: lattice points per kd-tree query when a search candidate is evaluated
#: against the incumbent; one query per plane's whole lattice made the
#: scan_pinch benchmark scans about 3% slower on 2 cores
_LATTICE_CHUNK = 512

#: sample points per pass of the window cut, the window projection and the
#: set side, so that no pass holds more than a chunk's temporaries
_POINT_CHUNK = 1 << 15


def _chunks(n: int):
    """Slices of at most ``_POINT_CHUNK`` consecutive rows covering range(n)."""
    return (slice(s, s + _POINT_CHUNK) for s in range(0, n, _POINT_CHUNK))


class _PairGeometry:
    """What every window of a scan reads across the whole sample.

    The plane pair, its complement bases ``comp`` and ``tree``, the scan's
    one kd-tree, which answers every lattice query in every window
    exactly; ``sup_to_pair`` is the scan's one set-side routine.  No other
    whole-sample array is kept: each window cut projects its points afresh,
    ``_POINT_CHUNK`` rows at a time.  The tree is built by sliding midpoint
    (``balanced_tree=False``) without shrinking each node to its points'
    box (``compact_nodes=False``), which builds and queries faster here,
    with 64-point leaves, which hold less memory than the default 16; a
    nearest-neighbour query is exact in any tree shape, so the distances
    it returns do not depend on these three arguments.
    """

    def __init__(self, e: SetSample, p1: Plane, p2: Plane):
        from scipy.spatial import cKDTree
        self.e = e
        self.planes = (p1, p2)
        self.comp = (_complement_basis(p1), _complement_basis(p2))
        self.tree = cKDTree(e.points, leafsize=64, balanced_tree=False, compact_nodes=False)

    def window_index(self, x: np.ndarray, r: float,
                     parent: _WindowCtx | None = None) -> np.ndarray:
        """Ascending indices of the sample points inside D(x, r), tested over the
        window ``parent`` = D(x', r') only if r + max_i |(x - x') @ B_i.T| <= r',
        less a margin far above the few ulps by which the hypot tests round.

        The points are projected (``_project``) and tested ``_POINT_CHUNK``
        at a time, so the mask is the one a single pass would give."""
        pts, rows = self.e.points, None
        if parent is not None:
            slack = parent.r - 1e-12 * (parent.r + np.abs(x).sum() + np.abs(parent.x).sum())
            if r + max(np.linalg.norm((x - parent.x) @ p.basis.T) for p in self.planes) <= slack:
                rows = parent.idx
        parts = [np.empty(0, dtype=np.intp)]
        for sl in _chunks(len(pts) if rows is None else len(rows)):
            cut = sl if rows is None else rows[sl]
            keep = _in_bicylinder(pts[cut], self.planes, x, r)
            parts.append(np.flatnonzero(keep) + sl.start if rows is None else cut[keep])
        return np.concatenate(parts)

    def sup_to_pair(self, n1: np.ndarray, n2: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Sup over points of the distance to the pair translated by each q.

        The one set side of the scan: the coarse grid's lower bounds and
        the set side of every window value come from it.  The distance to
        plane i's translate depends on q only through its complement
        coordinates q @ comp_i.T, and a coarse grid repeats them: on a
        canonical pair (P1 = P01) the 81 candidates share 9 rows for P1,
        on the orthogonal pair 9 rows for P2 as well.  So each distinct
        row of a plane, found by exact equality, gets one hypot pass over
        the points, in chunks of at most 16 rows, taking first the plane
        with fewer distinct rows; each q then takes the max of the
        elementwise minimum of its two rows.  The rows come from 16-row
        matmul batches of qs, so every value has the bits of a separate
        pair of hypot passes per q over the same batches (the tests'
        oracle ``pair_dist``).  A pair with no repeated row costs one hypot
        pass per q and plane, as that does.  The passes run over
        ``_POINT_CHUNK`` points at a time; each q keeps the ``np.maximum``
        of its chunk maxima, exact in any order and carrying a NaN through,
        so the bits are those of one pass over all the points.
        """
        qs = np.atleast_2d(qs)
        out = np.zeros(len(qs))
        if not len(n1) or not len(qs):
            return out
        sides = []
        for n, comp in zip((n1, n2), self.comp):
            b = np.vstack([qs[s:s + 16] @ comp.T for s in range(0, len(qs), 16)])
            rows, inv = np.unique(b, axis=0, return_inverse=True)
            sides.append((n, rows, inv.ravel()))
        (na, ra, ia), (nb, rb, ib) = sorted(sides, key=lambda side: len(side[1]))
        for a in range(0, len(ra), 16):
            ks = np.flatnonzero((ia >= a) & (ia < a + 16))
            need, pos = np.unique(ib[ks], return_inverse=True)
            for sl in _chunks(len(na)):
                da = _plane_dist(na[sl], ra[a:a + 16])
                for c in range(0, len(need), 16):
                    db = _plane_dist(nb[sl], rb[need[c:c + 16]])
                    for k, j in zip(ks, pos):
                        if c <= j < c + 16:
                            out[k] = np.maximum(out[k], np.minimum(da[ia[k] - a], db[j - c]).max())
        return out


class _WindowCtx:
    """One scan window: its points, its pair lattice and the window value.

    ``idx`` holds the sample points inside D(x, r), cut from the window
    ``parent`` if it holds D(x, r), and ``n1``, ``n2`` the complement
    coordinates of the search subsample.  ``value`` is the one routine for
    the window value max(set-side sup, lattice sup) / r at a translate q:
    the search calls it with a bar to reject candidates early,
    ``exact_value`` with no bar on all the window's points, and a window
    with no subsample reuses its carried value at x for the grid centre.
    ``candidates`` and ``rejected_early`` count the search's evaluations
    in this window.

    The pair lattice is built once per window.  Its template is the disc
    of offsets T = (a, b) * spacing, |T| <= r, with ``_PLANE_POINTS``
    points per window diameter; plane i's lattice at q is T @ B_i
    anchored at b_i(q) = q + ((x - q) @ B_i.T) @ B_i, the projection of x
    onto P_i + q.  Cutting T to the disc is plane i's own bi-cylinder
    test, so a candidate q only runs the other plane j's test, on
    S_i = T @ B_i @ B_j.T, fixed per window, shifted by
    (b_i(q) - x) @ B_j.T.  The points come in the order of the template's
    rows, plane 1 first.
    """

    def __init__(self, geom: _PairGeometry, x: np.ndarray, r: float,
                 parent: _WindowCtx | None = None):
        self.geom = geom
        self.x = np.asarray(x, dtype=float)
        self.r = r
        self.spacing = 2.0 * r / _PLANE_POINTS
        self.idx = geom.window_index(self.x, r, parent)
        stride = max(1, int(np.ceil(len(self.idx) / _SEARCH_POINT_CAP)))
        self.n1, self.n2 = self._normal(self.idx[::stride])
        self._whole, self._exact = stride == 1, {}    # no subsample; exact values by q
        self.candidates = 0
        self.rejected_early = 0
        self._probes = [0, 0]        # per plane, the template row that last rejected a candidate
        t = _disc_lattice(self.spacing, r)
        p1, p2 = geom.planes
        self._template = []
        for bi, bj in ((p1.basis, p2.basis), (p2.basis, p1.basis)):
            y = t @ bi
            self._template.append((bi, bj, y, y @ bj.T))

    def _anchor(self, q: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Plane i's lattice anchor b_i(q) and the shift (b_i(q) - x) @ B_j.T."""
        bi, bj, _, _ = self._template[i]
        base = q + ((self.x - q) @ bi.T) @ bi
        return base, (base - self.x) @ bj.T

    def _plane_lattice(self, q: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Plane i's lattice points at q and the mask of the template rows kept."""
        base, o = self._anchor(q, i)
        _, _, y, s = self._template[i]
        keep = np.hypot(s[:, 0] + o[0], s[:, 1] + o[1]) <= self.r
        return y.compress(keep, axis=0) + base, keep      # twice as fast as y[keep]

    def lattice(self, q: np.ndarray) -> np.ndarray:
        """Sample of (P1 + q) union (P2 + q) inside D(x, r), plane by plane."""
        return np.vstack([self._plane_lattice(q, i)[0] for i in (0, 1)])

    def _normal(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complement coordinates (m, 2) per plane of the sample points idx,
        filled ``_POINT_CHUNK`` rows at a time with no copy of all m points."""
        pts, (c1, c2) = self.geom.e.points, self.geom.comp
        n1, n2 = np.empty((len(idx), 2)), np.empty((len(idx), 2))
        for sl in _chunks(len(idx)):
            y = pts[idx[sl]]
            n1[sl], n2[sl] = _project(y, c1), _project(y, c2)
        return n1, n2

    def value(self, q: np.ndarray, n1: np.ndarray, n2: np.ndarray,
              bar: float = np.inf) -> float | None:
        """Window value at q, or None once a partial sup reaches ``bar``.

        The value is max(set side, lattice side) / r, the set side taken
        by ``sup_to_pair`` over the points with complement coordinates
        n1, n2.  The lattice side goes first: in one query, each plane's
        template row that last rejected a candidate, if it is a lattice
        point at q (so most rejected candidates never build their
        lattice), then plane by plane in chunks; the set side follows in
        one pass.  Partial sups only grow and division by r is monotone,
        so a q that passes every query gets the very value a full
        evaluation gives, in any order; with no bar nothing is rejected.
        """
        r, m, probes = self.r, 0.0, []
        for i, (j, (_, _, y, s)) in enumerate(zip(self._probes, self._template)):
            base, o = self._anchor(q, i)
            if np.hypot(*(s[j] + o)) <= r:
                probes.append(y[j] + base)
        if probes:
            m = float(self.geom.tree.query(probes)[0].max())
            if m / r >= bar:
                return None
        for i in (0, 1):
            lat, keep = self._plane_lattice(q, i)
            for a in range(0, len(lat), _LATTICE_CHUNK):
                d = self.geom.tree.query(lat[a:a + _LATTICE_CHUNK])[0]
                k = int(np.argmax(d))
                m = max(m, float(d[k]))
                if m / r >= bar:
                    self._probes[i] = int(np.flatnonzero(keep)[a + k])
                    return None
        m = max(m, float(self.geom.sup_to_pair(n1, n2, q[None, :])[0]))
        return None if m / r >= bar else m / r

    def beats(self, q: np.ndarray, best_d: float) -> float | None:
        """Search value at q if it is below best_d - 1e-15, else None."""
        self.candidates += 1
        at_x = self._whole and np.array_equal(q, self.x)
        d = self.exact_value(q) if at_x else self.value(q, self.n1, self.n2, best_d - 1e-15)
        if d is None or d >= best_d - 1e-15:
            self.rejected_early += 1
            return None
        return d

    def exact_value(self, q: np.ndarray) -> float:
        """The window value at q over every point of the window, kept per q.

        With no subsample, ``n1``, ``n2`` already are the window's projection;
        else every point of the window is projected here."""
        if (key := tuple(q)) not in self._exact:
            self._exact[key] = self.value(
                q, *((self.n1, self.n2) if self._whole else self._normal(self.idx)))
        return self._exact[key]


def _search_translate(ctx: _WindowCtx, tol: float) -> tuple[np.ndarray, float]:
    """Minimize the relative distance to the translated pair over a 4d box.

    The translate is confined to the coordinate box |q - x|_inf <= r/4
    (inside D(x, r/2)).  The schedule is fixed: a 3^4 coarse grid whose
    candidates are visited in stable ascending order of their set-side
    lower bound, then at most 24 rounds of coordinate descent, halving the
    step after a round that improves by less than ``tol``; a candidate
    replaces the incumbent only when it is lower by more than 1e-15.  Each
    plane's lattice is anchored at x's projection onto P_i + q, with 48
    points per window diameter; it is built once per window and only
    translated per candidate (see ``_WindowCtx``).  Very large windows
    are subsampled for the search itself, but the returned distance is
    the exact full-window value at the returned translate.  A window with
    no sample point is searched like any other, on its lattice side alone.
    """
    x, r = ctx.x, ctx.r

    half = r / 4.0
    ax = np.linspace(-half, half, _GRID_N)
    grid = x + np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)

    # the set-to-pair sup is a lower bound on the objective: evaluate coarse
    # candidates in that order and skip any that cannot win.  The skip pays
    # for the batch, since lowers[k] >= best_d spares a candidate its lattice
    # queries: fed through ``beats`` in grid order, all 81 were evaluated and
    # one scan_pinch pass took 94.1 s against 6.9 s (2 cores, one run each).
    # The batch computes each distinct translate of each plane once, with
    # the bits of a separate hypot pass per candidate (see ``sup_to_pair``)
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
    ``_search_translate`` at tol = 1e-4 * eps.  As
    |q_{n+1} - q_n|_inf <= s_n / 4, each window is cut from the last one's
    points, and D(o_k, 2 r_k (1 - 12 eps)) from those of D(o_k, 2 r_k),
    behind the guard of ``_PairGeometry.window_index``.
    """
    if not (0.0 < eps < 1.0):
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    if not floor >= 2.0 * e.resolution:
        raise ConfigError(
            f"floor {floor} below twice the sample resolution {e.resolution}"
        )
    geom = _PairGeometry(e, *planes)
    steps: list[ScanStep] = []
    n, q, ctx = 1, np.zeros(4), None                # q_1 = 0
    while (s := 2.0 ** (-n)) >= floor:
        ctx = _WindowCtx(geom, q, s, ctx)
        carried = ctx.exact_value(q)
        best_q, best_d = _search_translate(ctx, 1e-4 * eps)
        steps.append(ScanStep(n, q.copy(), s, carried, best_q.copy(), best_d,
                              len(ctx.idx), len(ctx.lattice(q)), ctx.candidates,
                              ctx.rejected_early))
        if best_d > eps + 2.0 * e.resolution / s:
            shrink = 2.0 * s * (1.0 - 12.0 * eps)
            return ScanReport(
                tuple(steps), eps, floor, e.resolution, o_k=q, r_k=s,
                dist_double=(double := _WindowCtx(geom, q, 2.0 * s)).exact_value(q),
                dist_shrunken=(_WindowCtx(geom, q, shrink, double).exact_value(q)
                               if shrink > 0 else None),
            )
        n, q = n + 1, best_q
    return ScanReport(tuple(steps), eps, floor, e.resolution)


#: most points ``sample_mesh`` builds (512 MB of coordinates)
_SAMPLE_POINT_CAP = 1 << 24


def sample_mesh(mesh: TriMesh4, spacing: float) -> SetSample:
    """Sample a mesh by vertices plus barycentric face-interior points.

    With k = ceil(max edge / spacing), the sample has nv + nf k (k + 1) / 2
    points; a spacing that asks for more than ``_SAMPLE_POINT_CAP`` is a
    configuration error, raised before any point is built.
    """
    if not spacing > 0:
        raise ConfigError(f"spacing must be positive, got {spacing}")
    v = mesh.vertices[mesh.faces]
    edge = max(
        float(np.linalg.norm(v[:, 1] - v[:, 0], axis=1).max()),
        float(np.linalg.norm(v[:, 2] - v[:, 0], axis=1).max()),
        float(np.linalg.norm(v[:, 2] - v[:, 1], axis=1).max()),
    ) if len(mesh.faces) else 0.0
    kf = np.ceil(edge / spacing)
    count = len(mesh.vertices) + len(mesh.faces) * kf * (kf + 1.0) / 2.0
    if count > _SAMPLE_POINT_CAP:
        raise ConfigError(f"sample spacing {spacing:g} would give {count:.4g} mesh sample "
                          f"points, above the cap of {_SAMPLE_POINT_CAP}")
    k = int(kf)
    pts = [mesh.vertices]
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


def _pair_sample(spacing: float, extent: float, fine_spacing: float | None,
                 fine_radius: float, pinch_radius: float = 1.0,
                 height: float = 0.0) -> SetSample:
    """Tiered disc sample of the orthogonal pair P01, P02, bent by a bump.

    The disc lattice of the base spacing, with an optional finer core;
    the declared resolution is the core spacing when a core is requested,
    while the far field keeps the base spacing.  Points of span(e1,e2)
    inside the pinch radius are displaced along e3 by
    height * (1 - (l/rho)^2)^2, and points of span(e3,e4) along e1 by the
    same profile; height 0 leaves the exact pair.
    """
    from .grassmann import P01, P02
    w, res = _disc_lattice(spacing, extent, inner=fine_radius), spacing
    if fine_spacing is not None and fine_radius > 0.0:
        w, res = np.vstack([w, _disc_lattice(fine_spacing, fine_radius)]), fine_spacing
    if not height:              # a zero bump moves no point: skip its passes
        return SetSample(np.vstack([w @ P01.basis, w @ P02.basis]), res)
    r = np.linalg.norm(w, axis=1)
    bump = np.where(r < pinch_radius,
                    height * (1.0 - (r / pinch_radius) ** 2) ** 2, 0.0)
    pts1 = w @ P01.basis
    pts1[:, 2] += bump
    pts2 = w @ P02.basis
    pts2[:, 0] += bump
    return SetSample(np.vstack([pts1, pts2]), res)


def plane_pair_sample(spacing: float, extent: float = 1.2,
                      fine_spacing: float | None = None,
                      fine_radius: float = 0.0) -> SetSample:
    """Sample of the orthogonal pair P01, P02, optionally with a finer core tier."""
    return _pair_sample(spacing, extent, fine_spacing, fine_radius)


def pinched_pair_sample(pinch_radius: float, height: float, spacing: float,
                        extent: float = 1.2,
                        fine_spacing: float | None = None,
                        fine_radius: float = 0.0) -> SetSample:
    """Standard orthogonal pair with a smooth bump of given support and height.

    The constructed deviation from every translate of the pair is of order
    the bump height at scales around the pinch (see ``_pair_sample``).
    """
    if not pinch_radius > 0:
        raise ValueError(f"pinch radius must be positive, got {pinch_radius}")
    return _pair_sample(spacing, extent, fine_spacing, fine_radius, pinch_radius, height)
