import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planes4 import grassmann as gr
from planes4 import scanner as sc
from planes4.errors import ConfigError
from planes4.plateau import build_pinched_competitor, build_union_mesh

from helpers import (bicylinder_clip, brute_force_critical_scale, pair_lattice_oracle,
                     pair_sup_oracle, random_rotation, relative_distance,
                     search_translate_oracle, window_mask_oracle)

PLANES = (gr.P01, gr.P02)


def small_plane_sample(spacing=8e-3):
    return sc.plane_pair_sample(spacing=spacing, extent=1.2)


def search(e, x, r, tol=1e-6):
    """The translate search in the window D(x, r) of the whole sample e."""
    return sc._search_translate(sc._WindowCtx(sc._PairGeometry(e, *PLANES), x, r), tol)


# ------------------------------------------------------------------- clip

def test_clip_of_plane_sample_is_unit_disk_per_plane():
    e = small_plane_sample()
    clipped = bicylinder_clip(e, *PLANES, np.zeros(4), 1.0)
    # for points on either plane the bi-cylinder clip at the origin keeps
    # exactly the in-plane radius <= 1 points
    want = e.points[np.linalg.norm(e.points, axis=1) <= 1.0]
    assert len(clipped) == len(want)
    assert np.array_equal(np.sort(clipped, axis=0), np.sort(want, axis=0))


def test_clip_idempotent():
    e = small_plane_sample()
    once = bicylinder_clip(e, *PLANES, np.zeros(4), 0.7)
    twice = bicylinder_clip(sc.SetSample(once, e.resolution), *PLANES,
                            np.zeros(4), 0.7)
    assert np.array_equal(once, twice)


def test_clip_excludes_outside_point():
    r, h = 0.5, 0.01
    pts = np.array([[r + h, 0.0, 0.0, 0.0], [r - h, 0.0, 0.0, 0.0]])
    e = sc.SetSample(pts, h)
    clipped = bicylinder_clip(e, *PLANES, np.zeros(4), r)
    assert len(clipped) == 1
    assert clipped[0, 0] == r - h


# -------------------------------------------------------- relative distance

def test_relative_distance_identical_sets():
    e = small_plane_sample()
    assert relative_distance(e, e, *PLANES, np.zeros(4), 1.0) == 0.0


def test_relative_distance_translate_bound():
    e = small_plane_sample()
    delta = 0.05
    f = sc.SetSample(e.points + np.array([delta, 0.0, 0.0, 0.0]), e.resolution)
    d = relative_distance(e, f, *PLANES, np.zeros(4), 1.0)
    assert d <= delta + e.resolution


def test_relative_distance_empty_clips():
    e = sc.SetSample(np.array([[3.0, 0.0, 0.0, 0.0]]), 0.01)
    f = sc.SetSample(np.array([[0.0, 3.0, 0.0, 0.0]]), 0.01)
    assert relative_distance(e, f, *PLANES, np.zeros(4), 1.0) == 0.0


def test_relative_distance_one_sided_when_one_clip_empty():
    e = sc.SetSample(np.array([[3.0, 0.0, 0.0, 0.0]]), 0.01)   # outside window
    f = sc.SetSample(np.array([[0.1, 0.0, 0.0, 0.0]]), 0.01)   # inside
    d = relative_distance(e, f, *PLANES, np.zeros(4), 1.0)
    assert d == pytest.approx(2.9, abs=1e-12)                   # f-point to e


def test_nested_shell_contrast():
    # relative distance of nested bi-cylinder shells stays small while the
    # clipped Hausdorff contrast degenerates (the outer shell clips empty)
    def shell(rr, m=24):
        t = np.arange(m) * (2 * np.pi / m)
        ring1 = rr * np.stack([np.cos(t), np.sin(t)], axis=1)
        disc = sc._disc_lattice(0.1, rr)
        a = np.concatenate([np.repeat(ring1, len(disc), 0),
                            np.tile(disc, (m, 1))], axis=1)     # |p1| = rr
        b = np.concatenate([np.tile(disc, (m, 1)),
                            np.repeat(ring1, len(disc), 0)], axis=1)
        return sc.SetSample(np.vstack([a, b]), 0.1)

    r = 0.5
    n = 50
    outer = shell(r + 1.0 / n)
    inner = shell(r - 1.0 / n)
    assert len(bicylinder_clip(outer, *PLANES, np.zeros(4), r)) == 0
    assert len(bicylinder_clip(inner, *PLANES, np.zeros(4), r)) > 0
    d = relative_distance(outer, inner, *PLANES, np.zeros(4), r)
    assert d <= (2.0 / n + 0.2) / r   # shell gap plus sampling slack


# --------------------------------------------------------- best translation

def test_best_translation_recovers_exact_translate():
    v = np.array([0.01, -0.02, 0.015, 0.005])
    e = sc.SetSample(small_plane_sample(4e-3).points + v, 4e-3)
    q, d = search(e, np.zeros(4), 1.0, tol=1e-7)
    assert np.linalg.norm(q - v) <= 5e-3
    assert d <= 2e-3 + e.resolution


def test_best_translation_bump_scales_like_height_over_radius():
    rho, height = 0.05, 0.02
    e = sc.pinched_pair_sample(rho, height, spacing=4e-3)
    for r in (1.0, 0.5):
        _, d = search(e, np.zeros(4), r)
        assert d == pytest.approx(height / r, rel=0.25)


def test_best_translation_empty_window():
    # D(0, 1/2) holds no sample point, so the value is the lattice side alone:
    # the farthest point of the pair lattice at q from the sample
    from scipy.spatial import cKDTree
    e = sc.SetSample(np.array([[5.0, 5.0, 5.0, 5.0]]), 0.01)
    ctx = sc._WindowCtx(sc._PairGeometry(e, *PLANES), np.zeros(4), 0.5)
    q, d = sc._search_translate(ctx, 1e-6)
    assert d > 0
    lat = pair_lattice_oracle(PLANES, np.zeros(4), 0.5, q, ctx.spacing)
    assert d * 0.5 == pytest.approx(float(cKDTree(e.points).query(lat)[0].max()), rel=1e-12)


def test_best_translation_deterministic():
    e = sc.pinched_pair_sample(0.1, 0.02, spacing=6e-3)
    a = search(e, np.zeros(4), 0.5)
    b = search(e, np.zeros(4), 0.5)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


# ------------------------------------------ search against the exhaustive oracle

@functools.cache
def oracle_sample(name):
    if name == "exact":
        return small_plane_sample(1.2e-2)
    if name == "translated":
        v = np.array([0.01, -0.02, 0.015, 0.005])
        return sc.SetSample(small_plane_sample(1.2e-2).points + v, 1.2e-2)
    if name == "pinched":
        return sc.pinched_pair_sample(0.1, 0.02, spacing=1.2e-2)
    if name == "outlier":
        # two points off both planes: the set side of the objective decides
        off = np.array([[0.05, 0.02, 0.06, -0.01], [-0.04, 0.03, -0.02, 0.05]])
        return sc.SetSample(np.vstack([small_plane_sample(1.2e-2).points, off]), 1.2e-2)
    if name == "flat_mesh":
        return sc.sample_mesh(build_union_mesh(np.pi / 2, np.pi / 2, 64), 0.04)
    if name == "pinched_mesh":
        return sc.sample_mesh(build_pinched_competitor(np.pi / 2, np.pi / 2, 0.2, 64), 0.06)
    if name == "hole":
        return hole_sample(0.1, with_core_point=True)
    if name == "dense_outlier":
        # more than _SEARCH_POINT_CAP points in D(x, 0.5), and one point far
        # off both planes placed second to last: see the test using it
        pts = sc.plane_pair_sample(spacing=3e-3, extent=0.5).points
        outlier = np.full((1, 4), 0.2)
        return sc.SetSample(np.vstack([pts[:-1], outlier, pts[-1:]]), 3e-3)
    raise KeyError(name)


def hole_sample(r, with_core_point):
    """P01 lattice with a hole of radius 2.25 r at the origin, plus at most one point."""
    w = sc._disc_lattice(0.02, 0.5, inner=2.25 * r)
    pts = w @ gr.P01.basis
    if with_core_point:
        pts = np.vstack([pts, [0.8 * r, 0.0, 0.0, 0.0]])
    return sc.SetSample(pts, 0.02)


ORACLE_SAMPLES = ("exact", "translated", "pinched", "outlier", "flat_mesh", "pinched_mesh")


def assert_search_matches_oracle(name, x, r):
    e = oracle_sample(name)
    q, d = search(e, x, r, tol=1e-3)
    oq, od, _ = search_translate_oracle(e, PLANES, x, r, tol=1e-3)
    assert np.array_equal(q, oq), (name, x, r, q, oq)
    assert d == od, (name, x, r, d, od)


# the pinched mesh is the costliest sample, so it runs at two scales only;
# at 0.125 the lattice points near its neck lie farther than r from it
@pytest.mark.parametrize("name,r", [(n, r) for n in ORACLE_SAMPLES[:-1] for r in (0.5, 0.25, 0.125)]
                         + [("pinched_mesh", 0.5), ("pinched_mesh", 0.125), ("hole", 0.1)])
def test_search_bitwise_equals_exhaustive_oracle(name, r):
    assert_search_matches_oracle(name, np.zeros(4), r)
    assert_search_matches_oracle(name, np.array([0.03, -0.02, 0.01, 0.04]), r)


def test_exact_value_covers_points_outside_the_search_subsample():
    # the set side's maximiser (the outlier) is left out of the search
    # subsample, so only an exact value over the whole window reaches it
    e = oracle_sample("dense_outlier")
    outlier = len(e.points) - 2
    geom = sc._PairGeometry(e, *PLANES)
    for x in (np.zeros(4), np.array([0.03, -0.02, 0.01, 0.04])):
        ctx = sc._WindowCtx(geom, x, 0.5)
        stride = int(np.ceil(len(ctx.idx) / sc._SEARCH_POINT_CAP))
        pos = int(np.searchsorted(ctx.idx, outlier))
        assert ctx.idx[pos] == outlier and stride >= 2 and pos % stride
        assert_search_matches_oracle("dense_outlier", x, 0.5)


def test_exact_value_peak_memory_on_a_392k_point_window():
    # 5% above the measured 25.20 MB: the window's complement coordinates
    # (two m x 2 tables, built through an m x 4 copy of its points) and
    # the set side's few length-m rows in one pass over the window
    e = sc.plane_pair_sample(spacing=2e-3, extent=0.5)
    ctx = sc._WindowCtx(sc._PairGeometry(e, *PLANES), np.zeros(4), 0.5)
    assert len(ctx.idx) == 392_642
    q = np.array([0.03, -0.02, 0.01, 0.04])
    ctx.exact_value(q)                                  # warm the first-call allocations
    tracemalloc.start()
    try:
        ctx.exact_value(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26.46e6, peak


@settings(max_examples=10, deadline=None)
@example("exact", [0.0, 0.125, 0.125, 0.0], 0.0625)          # a window with no sample point
@given(st.sampled_from(ORACLE_SAMPLES[:-1]),
       st.lists(st.floats(-0.15, 0.15), min_size=4, max_size=4),
       st.sampled_from([0.5, 0.25, 0.0625]))
def test_search_bitwise_equals_oracle_at_drawn_centres(name, x, r):
    assert_search_matches_oracle(name, np.array(x), r)


@pytest.mark.parametrize("name,eps,floor", [("exact", 0.05, 0.03),
                                            ("pinched", 0.05, 0.03),
                                            ("flat_mesh", 0.05, 0.08)])
def test_process_steps_equal_oracle_and_full_sample_windows(name, eps, floor, monkeypatch):
    e = oracle_sample(name)
    made = []

    class Recording(sc._WindowCtx):
        def __init__(self, geom, x, r, parent=None):
            super().__init__(geom, x, r, parent)
            made.append((geom, self))

    monkeypatch.setattr(sc, "_WindowCtx", Recording)
    rep = sc.epsilon_process(e, PLANES, eps, floor)
    # every window holds the full-sample mask's indices in their order
    for geom, ctx in made:
        assert np.array_equal(ctx.idx, np.flatnonzero(window_mask_oracle(geom, ctx.x, ctx.r)))
    for step, (_, ctx) in zip(rep.steps, made):
        oq, od, carried = search_translate_oracle(e, PLANES, step.center, step.scale,
                                                  tol=1e-4 * eps)
        assert np.array_equal(step.best_q, oq) and step.best_dist == od, step.index
        assert step.carried == carried, step.index
        assert step.window_points == len(ctx.idx) > 0
        # the first coarse candidate always wins; every other evaluation that
        # did not improve the incumbent stopped early
        assert 1 <= step.candidates - step.rejected_early <= step.candidates


@pytest.mark.parametrize("with_core_point", [True, False])
def test_lattice_nearest_matches_brute_force(with_core_point):
    # with the core point, D(0, 2r) holds only it and lattice points on the
    # far side of the window lie nearer the hole's rim; without it D(0, 2r)
    # is empty
    r = 0.1
    e = hole_sample(r, with_core_point)
    geom = sc._PairGeometry(e, *PLANES)
    ctx = sc._WindowCtx(geom, np.zeros(4), r)
    assert window_mask_oracle(geom, ctx.x, 2.0 * r).sum() == int(with_core_point)
    for q in (np.zeros(4), np.array([0.02, -0.01, 0.0, 0.01])):
        lat = ctx.lattice(q)
        brute = np.concatenate([
            np.sqrt(((lat[a:a + 64, None] - e.points[None]) ** 2).sum(axis=2)).min(axis=1)
            for a in range(0, len(lat), 64)])
        if with_core_point:
            local = np.linalg.norm(lat - e.points[-1], axis=1)
            assert np.any(brute < local - 0.1 * r)      # D(0, 2r) alone is not enough
        np.testing.assert_allclose(geom.tree.query(lat)[0], brute, rtol=1e-12, atol=0)
        # an empty set side leaves the lattice side of the window value
        assert ctx.value(q, np.empty((0, 2)), np.empty((0, 2))) * r == pytest.approx(
            float(brute.max()), rel=1e-12)


def _bicylinder_radius(planes, x, pts):
    """max over the pair of the in-plane distance |P_i (y - x)|, per point."""
    return np.max([np.linalg.norm((pts - x) @ p.basis.T, axis=1) for p in planes], axis=0)


@pytest.mark.parametrize("pair", ["orthogonal", "canonical", "orthogonal_canonical", "random"])
def test_window_lattice_matches_per_candidate_oracle(pair):
    # the window lattice translates one template per plane; rebuilt from
    # scratch for each q, the same points come in the same order, moved by
    # round-off, and only points on the window's boundary may change sides
    from scipy.spatial import cKDTree
    if pair == "random":
        rng = np.random.default_rng(11)
        planes = tuple(gr.Plane(np.linalg.qr(rng.normal(size=(4, 2)))[0].T) for _ in range(2))
    else:
        planes = {"orthogonal": PLANES, "canonical": gr.canonical_pair(1.3, 1.45),
                  "orthogonal_canonical": gr.canonical_pair(np.pi / 2, np.pi / 2)}[pair]
    geom = sc._PairGeometry(sc.SetSample(np.zeros((1, 4)), 0.1), *planes)
    x = np.array([0.03, -0.02, 0.01, 0.04])
    rng = np.random.default_rng(12)
    cut = 0              # template points the other plane's test removed
    for r in (1 / 2, 1 / 8, 1 / 64):
        ctx = sc._WindowCtx(geom, x, r)
        template = len(sc._disc_lattice(ctx.spacing, r))
        ax = np.linspace(-r / 4.0, r / 4.0, sc._GRID_N)
        grid = x + np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)
        for q in np.vstack([grid, x + rng.uniform(-r / 4.0, r / 4.0, (50, 4))]):
            got = ctx.lattice(q)
            want = pair_lattice_oracle(planes, x, r, q, ctx.spacing)
            cut += 2 * template - len(got)
            assert np.all(_bicylinder_radius(planes, x, got) <= r * (1.0 + 1e-12))
            # lattice points lie spacing = r / 24 apart, so a partner within
            # 1e-9 r is the same point
            has_g = cKDTree(want).query(got)[0] <= 1e-9 * r
            has_w = cKDTree(got).query(want)[0] <= 1e-9 * r
            moved = np.vstack([got[~has_g], want[~has_w]])
            assert np.all(np.abs(_bicylinder_radius(planes, x, moved) - r) <= 1e-12 * r)
            # the shared points, row for row
            assert has_g.sum() == has_w.sum() > 0
            assert np.abs(got[has_g] - want[has_w]).max() <= 1e-14 * r
    # |o_i| <= |q - x| <= r / 2 in the box and |S_i| <= r cos(alpha1), 0.27 r at
    # (1.3, 1.45), so only the random pair (cos(alpha1) = 0.998) loses points
    assert (cut > 0) == (pair == "random")


def test_window_value_probes_only_lattice_points():
    # a pair far from orthogonal, translated by q and sampled inside the window
    # only: a template point the other plane's test drops at q lies beyond
    # the sample, so a probe that skipped that test would reject q wrongly
    rng = np.random.default_rng(11)
    planes = tuple(gr.Plane(np.linalg.qr(rng.normal(size=(4, 2)))[0].T) for _ in range(2))
    x, r = np.zeros(4), 0.5
    w = sc._disc_lattice(0.01, 2.0 * r)
    far = 0
    for q in x + rng.uniform(-r / 4.0, r / 4.0, (10, 4)):
        pts = np.vstack([q + w @ p.basis for p in planes])
        pts = pts[_bicylinder_radius(planes, x, pts) <= r]
        geom = sc._PairGeometry(sc.SetSample(pts, 0.01), *planes)
        ctx = sc._WindowCtx(geom, x, r)
        exact = ctx.value(q, ctx.n1, ctx.n2)
        for i in (0, 1):
            base, o = ctx._anchor(q, i)
            y, s = ctx._template[i][2:]
            # the rows farthest outside the other plane's cylinder, and one kept row
            out = np.hypot(s[:, 0] + o[0], s[:, 1] + o[1])
            rows = [*np.argsort(-out)[:3], int(np.argmin(out))]
            far += np.sum((out[rows] > r) & (geom.tree.query(y[rows] + base)[0] > exact * r))
            for j in rows:
                ctx._probes[i] = int(j)
                assert ctx.value(q, ctx.n1, ctx.n2, exact + 1e-12) == exact
                assert ctx.value(q, ctx.n1, ctx.n2, exact) is None
    assert far > 0


def test_window_value_keeps_a_probe_per_plane():
    # grid candidates of the orthogonal pair in D(0, 1/2): plane 1's translate
    # follows q[2:], plane 2's q[:2].  The first moves plane 2 only and plane 2's
    # chunks reject it, the second moves plane 1 only and plane 1's chunks
    # reject it; the third moves plane 2 only, so plane 2's probe rejects it in
    # one kd-tree query, with no pass over plane 1's lattice
    geom = sc._PairGeometry(oracle_sample("exact"), *PLANES)
    ctx = sc._WindowCtx(geom, np.zeros(4), 0.5)
    tree, calls = geom.tree, []

    class Counting:
        def query(self, *args, **kwargs):
            calls.append(len(args[0]))
            return tree.query(*args, **kwargs)

    geom.tree = Counting()
    h = 0.5 / 4.0
    for q in ([h, 0.0, 0.0, 0.0], [0.0, 0.0, h, 0.0], [0.0, h, 0.0, 0.0]):
        calls.clear()
        assert ctx.beats(np.array(q), 0.1) is None
    assert calls == [2]
    assert ctx.candidates == ctx.rejected_early == 3


def test_window_cut_from_its_parent_only_inside_the_guard(monkeypatch):
    # P1 holds (1, 1, 1, 1) / 2, so the box corner x + (r / 4)(1, 1, 1, 1) moves
    # the half-size window by r / 2 along P1: it touches the parent's rim, and
    # the guard's margin sends it to the whole sample, as it does a centre
    # beyond the box, whose window leaves the parent.  A nearer child is cut
    # from the parent's points; each window equals the whole-sample mask
    planes = (gr.Plane(np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]]) / 2.0), gr.P02)
    w = sc._disc_lattice(0.02, 1.0)
    e = sc.SetSample(np.vstack([w @ p.basis for p in planes]), 0.02)
    geom = sc._PairGeometry(e, *planes)
    x, r = np.array([0.03, -0.02, 0.01, 0.04]), 0.5
    parent = sc._WindowCtx(geom, x, r)
    tested, mask = [], sc._in_bicylinder
    monkeypatch.setattr(sc, "_in_bicylinder", lambda a, *rest: tested.append(len(a)) or mask(a, *rest))
    for shift, cut_from in ((0.1, parent.idx), (0.25, e.points), (0.3, e.points)):
        tested.clear()
        child = sc._WindowCtx(geom, x + shift * r, r / 2.0, parent)
        assert tested == [len(cut_from)]
        assert np.array_equal(child.idx, np.flatnonzero(window_mask_oracle(geom, child.x, r / 2.0)))
        assert np.isin(child.idx, parent.idx).all() == (shift < 0.3)


@pytest.mark.parametrize("pair,distinct", [("orthogonal", (9, 9)), ("canonical", (9, 81)),
                                           ("rotated", (81, 81))])
def test_sup_to_pair_matches_pair_dist_bitwise(pair, distinct):
    # the coarse grid's lower bound shares the hypot pass of each distinct
    # translate row; it must give the bits of one pair_dist per q
    rot = random_rotation(np.random.default_rng(7)) if pair == "rotated" else np.eye(4)
    planes = PLANES if pair == "orthogonal" else gr.canonical_pair(1.3, 1.45)
    planes = tuple(gr.Plane(p.basis @ rot.T) for p in planes)
    e = sc.SetSample(oracle_sample("pinched").points @ rot.T, 1.2e-2)
    geom = sc._PairGeometry(e, *planes)
    x, r = rot @ np.array([0.03, -0.02, 0.01, 0.04]), 0.5
    ctx = sc._WindowCtx(geom, x, r)
    assert len(ctx.n1) > 1000
    ax = np.linspace(-r / 4.0, r / 4.0, sc._GRID_N)
    grid = x + np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)
    assert tuple(len(np.unique(grid @ c.T, axis=0)) for c in geom.comp) == distinct
    rng = np.random.default_rng(8)
    repeated = grid[rng.integers(0, len(grid), 40)]
    near = np.vstack([grid, grid * (1.0 + 1e-9)])    # distinct rows 1e-9 apart
    for qs in (grid, grid[5], grid[::-1], repeated, near):
        got = geom.sup_to_pair(ctx.n1, ctx.n2, qs)
        assert np.array_equal(got, pair_sup_oracle(geom, ctx.n1, ctx.n2, qs)), pair
    empty = np.empty((0, 2))
    assert np.array_equal(geom.sup_to_pair(empty, empty, grid), np.zeros(len(grid)))


# ----------------------------------------------------------- epsilon process

def test_process_floor_hit_on_exact_sample():
    e = small_plane_sample()
    rep = sc.epsilon_process(e, PLANES, eps=0.05, floor=0.05)
    assert rep.floor_hit and not rep.stopped
    assert rep.o_k is None and rep.r_k is None
    assert len(rep.steps) == 4          # scales 1/2 .. 1/16
    assert [s.index for s in rep.steps] == [1, 2, 3, 4]


@pytest.mark.parametrize("exit_, floor", [("floor", 0.05), ("stop", 0.02), ("zero", 0.6)])
def test_process_report_facts_follow_from_the_steps(exit_, floor):
    # a floor-hit scan, a scan that stops at step 3 and one whose first
    # scale 1/2 already lies below the floor
    e = (sc.pinched_pair_sample(0.1, 0.02, spacing=6e-3) if exit_ == "stop"
         else small_plane_sample())
    rep = sc.epsilon_process(e, PLANES, 0.05, floor)
    k = len(rep.steps)
    assert rep.stopped == (exit_ == "stop") and rep.floor_hit == (exit_ != "stop")
    assert k == {"floor": 4, "stop": 3, "zero": 0}[exit_]
    scales = [st.scale for st in rep.steps]
    assert rep.scales.shape == (k,)
    assert rep.scales.tolist() == scales == [2.0 ** -n for n in range(1, k + 1)]
    # q_0 = q_1 = 0, step n is centred at q_n, and a scan that did not stop
    # also keeps the translate its last step found
    centers = rep.centers
    assert centers.shape == (k + 1 + rep.floor_hit, 4)
    assert not centers[:2].any()
    for st in rep.steps:
        assert np.array_equal(centers[st.index], st.center)
    if rep.stopped:
        assert np.array_equal(rep.o_k, rep.steps[-1].center) and rep.r_k == rep.steps[-1].scale
        assert rep.dist_double is not None and rep.dist_shrunken is not None
    else:
        assert rep.o_k is None and rep.r_k is None
        assert rep.dist_double is None and rep.dist_shrunken is None
        assert 2.0 ** -(k + 1) < floor
        if k:
            assert np.array_equal(centers[-1], rep.steps[-1].best_q)


def test_process_pinch_example_diameter_005():
    # pinch of diameter 0.05 at the origin, eps = 0.02: the critical radius
    # lands within one dyadic step of the pinch scale
    rho = 0.025
    e = sc.pinched_pair_sample(rho, 0.1 * rho, spacing=4e-3,
                               fine_spacing=4e-4, fine_radius=0.16)
    rep = sc.epsilon_process(e, PLANES, eps=0.02, floor=2e-3)
    assert rep.stopped
    assert 0.025 <= rep.r_k <= 0.1
    assert np.linalg.norm(rep.o_k) <= 12 * 0.02 + 0.05


def test_process_matches_brute_force_scan():
    rho = 0.1
    e = sc.pinched_pair_sample(rho, 0.2 * rho, spacing=4e-3,
                               fine_spacing=1e-3, fine_radius=0.3)
    eps, floor = 0.05, 0.01
    rep = sc.epsilon_process(e, PLANES, eps, floor)
    oracle = brute_force_critical_scale(e, PLANES, eps, floor)
    assert rep.stopped and oracle is not None
    assert 0.5 <= rep.r_k / oracle <= 2.0
    assert rep.steps[-1].best_dist > eps    # stopped means the fit failed


def test_process_drift_and_carry_bounds():
    e = sc.pinched_pair_sample(0.05, 0.01, spacing=4e-3,
                               fine_spacing=1e-3, fine_radius=0.3)
    eps = 0.05
    rep = sc.epsilon_process(e, PLANES, eps, floor=0.01)
    fit_tol = np.array(rep.scales) / 8 + 1e-12
    centers = rep.centers
    # consecutive drift (the q_0 = q_1 initialization contributes a zero)
    for j in range(1, len(centers) - 1):
        step = np.linalg.norm(centers[j + 1] - centers[j])
        assert step <= 12 * rep.scales[j - 1] * eps + fit_tol[j - 1]
    # pairwise drift
    for i in range(1, len(centers)):
        for j in range(i + 1, len(centers)):
            d = np.linalg.norm(centers[i] - centers[j])
            s_min = 2.0 ** (-min(i, j) + 1)
            assert d <= 24 * eps * s_min + 0.3 * s_min
    # carried distances stay within the 2 eps regime
    for st in rep.steps:
        assert st.carried <= 2 * eps + 2 * e.resolution / st.scale + 0.25 * eps


def test_process_determinism():
    e = sc.pinched_pair_sample(0.1, 0.02, spacing=6e-3)
    a = sc.epsilon_process(e, PLANES, 0.05, 0.02)
    b = sc.epsilon_process(e, PLANES, 0.05, 0.02)
    assert a.stopped == b.stopped and a.r_k == b.r_k
    assert np.array_equal(a.centers, b.centers)
    assert [s.best_dist for s in a.steps] == [s.best_dist for s in b.steps]


def test_process_rejects_bad_parameters():
    e = small_plane_sample()
    with pytest.raises(ValueError):
        sc.epsilon_process(e, PLANES, eps=0.0, floor=0.1)
    with pytest.raises(ValueError):
        sc.epsilon_process(e, PLANES, eps=0.05, floor=0.001)  # below 2h


def test_scan_inputs_reject_nan():
    # NaN fails every comparison, so each check must be the negated
    # positive condition to refuse it
    from helpers import fan_disk
    e = small_plane_sample()
    with pytest.raises(ValueError, match="resolution must be positive, got nan"):
        sc.SetSample(e.points, float("nan"))
    with pytest.raises(ConfigError, match="floor nan below twice the sample resolution"):
        sc.epsilon_process(e, PLANES, 0.05, float("nan"))
    with pytest.raises(ConfigError, match="spacing must be positive, got nan"):
        sc.sample_mesh(fan_disk(8, gr.P01), float("nan"))
    with pytest.raises(ValueError, match="pinch radius must be positive, got nan"):
        sc.pinched_pair_sample(float("nan"), 0.01, 0.05)


# -------------------------------------------------------------- mesh sample

def test_sample_mesh_density(tmp_path):
    from helpers import fan_disk
    m = fan_disk(64, gr.P01)
    s = sc.sample_mesh(m, 0.05)
    assert len(s.points) > len(m.vertices)
    assert s.resolution == 0.05
    # all samples lie on the disk (plane P01, radius <= 1)
    assert np.max(np.abs(s.points[:, 2:])) <= 1e-12
    assert np.max(np.linalg.norm(s.points[:, :2], axis=1)) <= 1.0 + 1e-12


def test_sample_mesh_caps_its_point_count(monkeypatch):
    # the planned count nv + nf k (k + 1) / 2 is the count built, and one
    # point above the cap is refused before any point is built
    from helpers import fan_disk
    m = fan_disk(64, gr.P01)
    for spacing in (1.5, 0.3, 0.07):
        k = int(np.ceil(1.0 / spacing))               # the fan's longest edge is a radius
        count = len(m.vertices) + len(m.faces) * k * (k + 1) // 2
        assert len(sc.sample_mesh(m, spacing).points) == count
        monkeypatch.setattr(sc, "_SAMPLE_POINT_CAP", count)
        assert len(sc.sample_mesh(m, spacing).points) == count
        monkeypatch.setattr(sc, "_SAMPLE_POINT_CAP", count - 1)
        monkeypatch.setattr(sc, "SetSample", None)    # building a sample would fail
        with pytest.raises(ConfigError, match=f"spacing {spacing:g} would give {count} "):
            sc.sample_mesh(m, spacing)
        monkeypatch.undo()
