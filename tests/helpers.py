"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they validate: the
characteristic-angle oracle minimizes over vector pairs per the
definition, the quadruple-wedge oracle expands xi ^ xi with explicit
permutation signs, and the critical-scale oracle rescans every dyadic
scale from the origin instead of following the process's centers.
The shadow-bitmap and area-gradient oracles are the straightforward
per-triangle loop and structure-tensor/``np.add.at`` forms that the
vectorised production kernels must reproduce bit for bit, and the
translate-search oracle is the exhaustive search that the early-rejecting
scanner search must reproduce bit for bit.  The projection-sum grid oracle
maximizes over a sphere grid of first vectors, exactly in each fiber, and
never forms the self-dual split of the closed-form supremum; the SVD oracle
takes the same supremum as the larger operator norm of A1 +/- A2.

The rest are reference implementations that production code no longer
needs: the induced map of a 4x4 linear map on 2-vectors and the
projection sum it gives, plane constructors and equality, the angle
threshold, and the bi-cylinder clip with the two-sided relative distance
between point samples.
"""

from __future__ import annotations

import numpy as np

from planes4 import exterior
from planes4.grassmann import Plane
from planes4.scanner import SetSample, _in_bicylinder
from planes4.surfaces import TriMesh4


def fan_disk(n: int, plane: Plane, center: np.ndarray | None = None,
             radius: float = 1.0) -> TriMesh4:
    c = np.zeros(4) if center is None else np.asarray(center, dtype=float)
    t = np.arange(n) * (2.0 * np.pi / n)
    ring = c + radius * (np.cos(t)[:, None] * plane.basis[0]
                         + np.sin(t)[:, None] * plane.basis[1])
    verts = np.vstack([c[None, :], ring])
    faces = np.array([[0, 1 + k, 1 + (k + 1) % n] for k in range(n)])
    fixed = np.zeros(len(verts), dtype=bool)
    fixed[1:] = True
    return TriMesh4(verts, faces, fixed)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q * np.sign(np.diag(r))


def random_simple_units(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random unit simple 2-vectors (normalized wedges of gaussian pairs)."""
    out = np.empty((n, 6))
    filled = 0
    while filled < n:
        x = rng.normal(size=(n - filled, 4))
        y = rng.normal(size=(n - filled, 4))
        w = exterior.wedge(x, y)
        norms = np.linalg.norm(w, axis=1)
        keep = norms > 1e-8
        w = w[keep] / norms[keep, None]
        out[filled:filled + len(w)] = w
        filled += len(w)
    return out


def quad_wedge_coefficient(xi: np.ndarray, zeta: np.ndarray) -> float:
    """Coefficient of e1^e2^e3^e4 in xi ^ zeta, by explicit permutation signs."""

    def levi_civita(p):
        sign, p = 1, list(p)
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    p[i], p[j] = p[j], p[i]
                    sign = -sign
        return sign if p == sorted(p) else 0

    total = 0.0
    for a, (i, j) in enumerate(exterior.BASIS):
        for b, (k, l) in enumerate(exterior.BASIS):
            if len({i, j, k, l}) == 4:
                total += xi[a] * zeta[b] * levi_civita((i, j, k, l))
    return total


def characteristic_angles_oracle(p: Plane, q: Plane) -> tuple[float, float]:
    """Definitional characteristic angles: minimize the angle over unit pairs.

    Grid-and-zoom over the two circle parameters; the second angle comes
    from the (unique up to sign) orthogonal completions of the minimizers.
    """

    def circle(plane, t):
        return np.cos(t)[:, None] * plane.basis[0] + np.sin(t)[:, None] * plane.basis[1]

    lo1, hi1, lo2, hi2 = 0.0, np.pi, 0.0, np.pi
    best = None
    for _ in range(8):
        t1 = np.linspace(lo1, hi1, 41)
        t2 = np.linspace(lo2, hi2, 41)
        g = np.abs(circle(p, t1) @ circle(q, t2).T)
        a, b = np.unravel_index(np.argmax(g), g.shape)
        best = (t1[a], t2[b], g[a, b])
        w1 = (hi1 - lo1) / 40
        w2 = (hi2 - lo2) / 40
        lo1, hi1 = best[0] - w1, best[0] + w1
        lo2, hi2 = best[1] - w2, best[1] + w2
    alpha1 = float(np.arccos(np.clip(best[2], 0.0, 1.0)))
    v2 = -np.sin(best[0]) * p.basis[0] + np.cos(best[0]) * p.basis[1]
    w2 = -np.sin(best[1]) * q.basis[0] + np.cos(best[1]) * q.basis[1]
    alpha2 = float(np.arccos(np.clip(abs(np.dot(v2, w2)), 0.0, 1.0)))
    return alpha1, alpha2


def brute_force_critical_scale(e: SetSample, planes, eps: float, floor: float,
                               tol: float | None = None):
    """First dyadic scale (scanned from the origin) where the fit fails.

    Independent of the epsilon-process's sequential recentring: every
    scale is tested in a window around the origin.  ``tol`` defaults to
    the process's 1e-4 * eps.  Returns None when the floor is reached
    first.
    """
    from planes4.scanner import _PairGeometry, _search_translate, _WindowCtx

    if tol is None:
        tol = 1e-4 * eps
    geom = _PairGeometry(e, *planes)
    origin = np.zeros(4)
    n = 1          # the process pins q0 = q1 = 0 and starts searching at 1/2
    while True:
        s = 2.0 ** (-n)
        if s < floor:
            return None
        ctx = _WindowCtx(geom, origin, s)
        _, d = _search_translate(ctx, tol)
        if d > eps + 2.0 * e.resolution / s:
            return s
        n += 1


def shadow_bitmap_oracle(tris: np.ndarray, lo: np.ndarray, shape: tuple[int, int],
                         cell: float) -> np.ndarray:
    """Per-triangle rasterizer: same grid and cell rule as ``surfaces._shadow_bitmap``."""
    nx, ny = shape
    bitmap = np.zeros((nx, ny), dtype=bool)
    for t in tris:
        d = (t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1]) - (t[1, 1] - t[0, 1]) * (t[2, 0] - t[0, 0])
        if abs(d) < 1e-30:
            continue                                # degenerate shadow, measure zero
        i0 = max(0, int(np.floor((t[:, 0].min() - lo[0]) / cell)))
        i1 = min(nx - 1, int(np.ceil((t[:, 0].max() - lo[0]) / cell)))
        j0 = max(0, int(np.floor((t[:, 1].min() - lo[1]) / cell)))
        j1 = min(ny - 1, int(np.ceil((t[:, 1].max() - lo[1]) / cell)))
        if i1 < i0 or j1 < j0:
            continue
        cx = lo[0] + (np.arange(i0, i1 + 1) + 0.5) * cell
        cy = lo[1] + (np.arange(j0, j1 + 1) + 0.5) * cell
        x, y = np.meshgrid(cx, cy, indexing="ij")
        b1 = ((t[1, 0] - t[0, 0]) * (y - t[0, 1]) - (t[1, 1] - t[0, 1]) * (x - t[0, 0])) / d
        b2 = ((t[2, 0] - t[1, 0]) * (y - t[1, 1]) - (t[2, 1] - t[1, 1]) * (x - t[1, 0])) / d
        b3 = ((t[0, 0] - t[2, 0]) * (y - t[2, 1]) - (t[0, 1] - t[2, 1]) * (x - t[2, 0])) / d
        inside = (b1 >= -1e-12) & (b2 >= -1e-12) & (b3 >= -1e-12)
        bitmap[i0:i1 + 1, j0:j1 + 1] |= inside
    return bitmap


# wedge coefficients -> antisymmetric matrix, as a (6, 4, 4) structure tensor
_STRUCT = np.zeros((6, 4, 4))
for _k, (_i, _j) in enumerate(exterior.BASIS):
    _STRUCT[_k, _i, _j] = 1.0
    _STRUCT[_k, _j, _i] = -1.0


def area_gradient_oracle(verts: np.ndarray, faces: np.ndarray):
    """Mesh area and its vertex gradient via einsum and ``np.add.at``."""
    p = verts[faces]
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    w = exterior.wedge(u, v)
    n = np.sqrt(np.sum(w * w, axis=1))
    total = 0.5 * float(np.sum(n))
    safe = np.maximum(n, 1e-30)
    wm = np.einsum("fk,kab->fab", w, _STRUCT)
    g1 = np.einsum("fab,fb->fa", wm, v) / (2.0 * safe[:, None])
    g2 = -np.einsum("fab,fb->fa", wm, u) / (2.0 * safe[:, None])
    g0 = -(g1 + g2)
    grad = np.zeros_like(verts)
    np.add.at(grad, faces[:, 0], g0)
    np.add.at(grad, faces[:, 1], g1)
    np.add.at(grad, faces[:, 2], g2)
    return total, grad


def window_mask_oracle(geom, x: np.ndarray, r: float) -> np.ndarray:
    """Bi-cylinder mask of D(x, r) over the whole sample, as the scanner tests points."""
    b1 = x @ geom.planes[0].basis.T
    b2 = x @ geom.planes[1].basis.T
    a, c = geom.inplane
    m = np.hypot(a[:, 0] - b1[0], a[:, 1] - b1[1]) <= r
    m &= np.hypot(c[:, 0] - b2[0], c[:, 1] - b2[1]) <= r
    return m


def search_translate_oracle(e: SetSample, planes, x: np.ndarray, r: float,
                            tol: float = 1e-6):
    """Exhaustive best-translate search in D(x, r): (best_q, best_d, carried).

    Every candidate gets its full set-side sup and a full lattice query
    against the whole-sample kd-tree ``geom.tree``, and the window masks
    run over the whole sample.  Only the pair kernels ``sup_to_pair`` and
    ``pair_lattice`` and that tree (checked against brute force in
    ``test_lattice_nearest_matches_brute_force``) are shared with the
    production search.  ``carried`` is the exact window value at q = x.
    """
    from planes4.scanner import (_GRID_N, _MAX_ROUNDS, _PLANE_POINTS, _SEARCH_POINT_CAP,
                                 _PairGeometry)

    x = np.asarray(x, dtype=float)
    geom = _PairGeometry(e, *planes)
    spacing = 2.0 * r / _PLANE_POINTS
    mask = window_mask_oracle(geom, x, r)
    idx = np.flatnonzero(mask)
    sub = idx[::max(1, int(np.ceil(len(idx) / _SEARCH_POINT_CAP)))]
    n1, n2 = geom.normal[0][sub], geom.normal[1][sub]

    def lattice_sup(q):
        lat = geom.pair_lattice(x, r, q, spacing)
        if not len(lat):
            return 0.0
        return float(geom.tree.query(lat)[0].max())

    def value(q):
        return max(float(geom.sup_to_pair(n1, n2, q)[0]), lattice_sup(q)) / r

    def exact(q):
        d = 0.0
        if mask.any():
            d = float(geom.sup_to_pair(geom.normal[0][mask], geom.normal[1][mask], q)[0])
        return max(d, lattice_sup(q)) / r

    if not mask.any():
        return x.copy(), 0.0, exact(x)
    half = r / 4.0
    ax = np.linspace(-half, half, _GRID_N)
    grid = x + np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)
    lowers = geom.sup_to_pair(n1, n2, grid) / r
    best_q, best_d = None, np.inf
    for k in np.argsort(lowers, kind="stable"):
        if lowers[k] >= best_d:
            continue
        d = value(grid[k])
        if d < best_d - 1e-15:
            best_q, best_d = grid[k].copy(), d
    step = half / max(_GRID_N - 1, 1)
    for _ in range(_MAX_ROUNDS):
        improved = 0.0
        for coord in range(4):
            for sign in (1.0, -1.0):
                q = best_q.copy()
                q[coord] += sign * step
                if np.max(np.abs(q - x)) > half + 1e-15:
                    continue
                if float(geom.sup_to_pair(n1, n2, q)[0]) / r >= best_d:
                    continue
                d = value(q)
                if d < best_d - 1e-15:
                    improved += best_d - d
                    best_q, best_d = q, d
        if improved < tol:
            step *= 0.5
            if step < tol * r:
                break
    return best_q, exact(best_q), exact(x)


def _sphere3_grid(n: int) -> np.ndarray:
    """Grid on the unit sphere of R^4 from spherical angles, n per coordinate."""
    t1 = np.linspace(0.0, np.pi, n)
    t2 = np.linspace(0.0, np.pi, n)
    t3 = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    a, b, c = np.meshgrid(t1, t2, t3, indexing="ij")
    return np.stack([
        np.cos(a),
        np.sin(a) * np.cos(b),
        np.sin(a) * np.sin(b) * np.cos(c),
        np.sin(a) * np.sin(b) * np.sin(c),
    ], axis=-1).reshape(-1, 4)


def _fiber_max(a1: np.ndarray, a2: np.ndarray, xs: np.ndarray):
    """Exact max over unit y orthogonal to x of |x^T A1 y| + |x^T A2 y|.

    For fixed x the objective is |<u, y>| + |<v, y>| with u = A1^T x,
    v = A2^T x, both orthogonal to x; the maximum is max(|u+v|, |u-v|),
    attained at the normalized sum/difference.  Returns (values, best y).
    """
    u = xs @ a1
    v = xs @ a2
    plus = np.linalg.norm(u + v, axis=-1)
    minus = np.linalg.norm(u - v, axis=-1)
    vals = np.maximum(plus, minus)
    w = np.where((plus >= minus)[..., None], u + v, u - v)
    wn = np.linalg.norm(w, axis=-1, keepdims=True)
    # degenerate fiber (both functionals vanish): fall back to any unit normal
    fallback = np.zeros_like(w)
    fallback[..., 1] = 1.0
    y = np.where(wn > 1e-14, w / np.where(wn > 1e-14, wn, 1.0), fallback)
    return vals, y


def sup_grid_oracle(p1: Plane, p2: Plane, n: int = 96) -> float:
    """Independent dense-grid value of the supremum for validation.

    Grids the first member of the orthonormal pair at n points per sphere
    angle and takes the exact in-fiber maximum over the second member; it
    shares nothing with the self-dual split that ``sup_projection_sum``
    takes, nor with the singular value decomposition of ``sup_svd_oracle``.
    """
    a1m = antisymmetric_matrix(p1.bivector)
    a2m = antisymmetric_matrix(p2.bivector)
    best = 0.0
    xs = _sphere3_grid(n)
    chunk = 262144
    for s in range(0, len(xs), chunk):
        vals, _ = _fiber_max(a1m, a2m, xs[s:s + chunk])
        best = max(best, float(vals.max()))
    return best


# ------------------------------------------- induced maps and 2-vector sums

def compound_matrix(f: np.ndarray) -> np.ndarray:
    """6x6 matrix of the induced map on 2-vectors (second compound of f).

    Column (i, j) holds the coefficients of f(e_i) ^ f(e_j), so the
    compound applied to wedge(x, y) equals wedge(f x, f y).
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {f.shape}")
    m = np.empty((6, 6))
    for col, (i, j) in enumerate(exterior.BASIS):
        m[:, col] = exterior.wedge(f[:, i], f[:, j])
    return m


def apply_map2(f: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Apply the induced map of a 4x4 linear map to a 2-vector."""
    return np.asarray(xi, dtype=float) @ compound_matrix(f).T


def antisymmetric_matrix(xi: np.ndarray) -> np.ndarray:
    """4x4 antisymmetric matrix A with x^T A y = <xi, wedge(x, y)>."""
    xi = np.asarray(xi, dtype=float)
    a = np.zeros((4, 4))
    for k, (i, j) in enumerate(exterior.BASIS):
        a[i, j] = xi[k]
        a[j, i] = -xi[k]
    return a


def projector(p: Plane) -> np.ndarray:
    """Orthogonal 4x4 projector onto the plane: b1 b1^T + b2 b2^T."""
    return p.basis.T @ p.basis


def projection_sum(p1: Plane, p2: Plane, xi: np.ndarray, tol: float = 1e-9) -> float:
    """|p1(xi)| + |p2(xi)| for a unit simple 2-vector xi."""
    xi = np.asarray(xi, dtype=float)
    if abs(exterior.norm(xi) - 1.0) > tol:
        raise ValueError(f"2-vector is not unit within {tol}")
    if not exterior.is_simple(xi, max(tol, 1e-14)):
        raise ValueError("2-vector is not simple within tolerance")
    a = exterior.norm(apply_map2(projector(p1), xi))
    b = exterior.norm(apply_map2(projector(p2), xi))
    return float(a + b)


def sup_svd_oracle(p1: Plane, p2: Plane) -> tuple[float, np.ndarray]:
    """Supremum max(||A1 + A2||_2, ||A1 - A2||_2) of the projection sum, and its argmax.

    Ai is the antisymmetric matrix of Pi, so xi = x ^ y with x, y orthonormal
    gives |p1 xi| + |p2 xi| = |x.A1 y| + |x.A2 y| = max_{s=+-1} |x.(A1 + s A2) y|,
    which is at most ||A1 + s A2||_2.  A top singular pair (u, v) of an
    antisymmetric M is orthonormal (sigma u.v = -u.M u = 0), so u ^ v attains
    it: the comass of xi1 +/- xi2 (Federer, GMT 1.8; Harvey-Lawson 1982).
    Ties keep A1 + A2; argmax is the normalized u ^ v of the larger matrix.
    """
    a1m = antisymmetric_matrix(p1.bivector)
    a2m = antisymmetric_matrix(p2.bivector)
    u, s, vh = np.linalg.svd(np.stack([a1m + a2m, a1m - a2m]))
    k = 0 if s[0, 0] >= s[1, 0] else 1
    argmax = exterior.wedge(u[k, :, 0], vh[k, 0])
    argmax /= exterior.norm(argmax)
    return float(s[k, 0]), argmax


def angle_threshold(eps: float) -> float:
    """Angle arccos(eps/2); pairs with alpha1 at least this have bound <= 1 + eps."""
    if not (0.0 < eps <= 2.0):
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    return float(np.arccos(eps / 2.0))


# ------------------------------------------------------ plane constructors

def plane_from_vectors(x: np.ndarray, y: np.ndarray) -> Plane:
    """Plane spanned by two independent vectors (Gram-Schmidt orthonormalized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = np.linalg.norm(x)
    if nx < 1e-14:
        raise ValueError("first spanning vector is zero")
    b1 = x / nx
    y2 = y - np.dot(y, b1) * b1
    ny = np.linalg.norm(y2)
    if ny < 1e-14:
        raise ValueError("spanning vectors are parallel")
    return Plane(np.stack([b1, y2 / ny]))


def planes_equal(p: Plane, q: Plane, tol: float = 1e-10) -> bool:
    """Plane equality up to orientation: |<xi_p, xi_q>| >= 1 - tol."""
    return abs(exterior.inner(p.bivector, q.bivector)) >= 1.0 - tol


# ----------------------------------------------- windows of point samples

def bicylinder_clip(sample: SetSample, p1: Plane, p2: Plane,
                    x: np.ndarray, r: float) -> np.ndarray:
    """Points of the sample inside the closed bi-cylinder D(x, r)."""
    if r <= 0:
        raise ValueError(f"clip radius must be positive, got {r}")
    pts = sample.points
    return pts[_in_bicylinder(pts @ p1.basis.T, pts @ p2.basis.T, (p1, p2),
                              np.asarray(x, dtype=float), r)]


def relative_distance(e: SetSample, f: SetSample, p1: Plane, p2: Plane,
                      x: np.ndarray, r: float) -> float:
    """Two-sided relative distance over D(x, r), sups taken against full sets.

    Both clips empty gives 0; a single empty clip leaves the one-sided sup.
    """
    ec = bicylinder_clip(e, p1, p2, x, r)
    fc = bicylinder_clip(f, p1, p2, x, r)
    if not len(ec) and not len(fc):
        return 0.0
    from scipy.spatial import cKDTree
    d = 0.0
    if len(ec):
        d = max(d, float(cKDTree(f.points).query(ec)[0].max()))
    if len(fc):
        d = max(d, float(cKDTree(e.points).query(fc)[0].max()))
    return d / r
