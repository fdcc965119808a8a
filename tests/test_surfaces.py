import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes4 import exterior as ex
from planes4 import grassmann as gr
from planes4 import surfaces as sf
from planes4.bounds import sup_projection_sum
from planes4.errors import ConfigError

from helpers import fan_disk, random_rotation, shadow_bitmap_oracle


def single_triangle(a, b, c, fixed=None):
    verts = np.array([a, b, c], dtype=float)
    return sf.TriMesh4(verts, np.array([[0, 1, 2]]), fixed)


# ------------------------------------------------------------------- mesh

def test_mesh_validation_catches_bad_input():
    with pytest.raises(ValueError):
        single_triangle([0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0])  # degenerate
    with pytest.raises(ValueError):
        sf.TriMesh4(np.zeros((2, 4)), np.array([[0, 1, 5]]))       # index range
    with pytest.raises(ValueError):
        # fixed vertices must bound the mesh as closed polylines
        m = fan_disk(16, gr.P01)
        sf.TriMesh4(m.vertices, m.faces, ~m.fixed)


def test_empty_mesh_has_zero_area():
    m = sf.TriMesh4(np.zeros((0, 4)), np.zeros((0, 3), dtype=int))
    assert sf.area(m) == 0.0


def test_disk_area_converges():
    m = fan_disk(256, gr.P01)
    assert abs(sf.area(m) - np.pi) <= 5e-3


def test_two_disjoint_disks_area():
    m1 = fan_disk(256, gr.P01)
    m2 = fan_disk(256, gr.P02)
    verts = np.vstack([m1.vertices, m2.vertices])
    faces = np.vstack([m1.faces, m2.faces + len(m1.vertices)])
    fixed = np.concatenate([m1.fixed, m2.fixed])
    m = sf.TriMesh4(verts, faces, fixed)
    assert abs(sf.area(m) - 2.0 * np.pi) <= 1e-2


def test_disk_area_refinement_order():
    errs = [abs(sf.area(fan_disk(n, gr.P01)) - np.pi) for n in (32, 64, 128, 256)]
    for a, b in zip(errs[:-1], errs[1:]):
        assert np.log2(a / b) >= 1.9


def test_area_rotation_invariance():
    rng = np.random.default_rng(41)
    m = fan_disk(64, gr.P01)
    a0 = sf.area(m)
    for _ in range(10):
        rot = random_rotation(rng)
        m2 = sf.TriMesh4(m.vertices @ rot.T, m.faces, m.fixed)
        assert abs(sf.area(m2) - a0) <= 1e-10


# --------------------------------------------------------------- tangents

def test_face_tangent_in_plane():
    m = single_triangle([0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0])
    t = sf.face_tangents(m)[0]
    assert np.allclose(np.abs(t), ex.E12, atol=1e-15)


def test_face_tangent_in_canonical_second_plane():
    p1, p2 = gr.canonical_pair(0.5, 0.9)
    m = single_triangle(np.zeros(4), p2.basis[0], p2.basis[1])
    t = sf.face_tangents(m)[0]
    assert abs(abs(ex.inner(t, p2.bivector)) - 1.0) <= 1e-12


def test_face_tangents_are_simple():
    rng = np.random.default_rng(42)
    verts = rng.normal(size=(30, 4))
    faces = np.array([[i, i + 1, i + 2] for i in range(28)])
    m = sf.TriMesh4(verts, faces)
    assert ex.is_simple(sf.face_tangents(m), 1e-10).all()


# ------------------------------------------------------------ projections

def test_projected_area_identity_plane():
    m = fan_disk(128, gr.P01)
    assert sf.projected_area_with_multiplicity(m, gr.P01) == pytest.approx(
        sf.area(m), rel=1e-12)


def test_projected_area_orthogonal_plane_vanishes():
    m = fan_disk(128, gr.P01)
    assert sf.projected_area_with_multiplicity(m, gr.P02) <= 1e-12


def test_projected_area_cos_factor():
    a1, a2 = 0.6, 1.0
    p1, p2 = gr.canonical_pair(a1, a2)
    m = fan_disk(128, p2)
    want = np.cos(a1) * np.cos(a2) * sf.area(m)
    assert sf.projected_area_with_multiplicity(m, p1) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- shadow

def test_shadow_single_triangle():
    m = single_triangle([0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0])
    res = 256
    got = sf.shadow_area(m, gr.P01, res)
    perimeter = 0.5 + 0.5 + np.hypot(0.5, 0.5)
    assert abs(got - 0.125) <= 2.0 / res * perimeter


def test_shadow_collapses_multiplicity():
    m1 = fan_disk(128, gr.P01)
    verts = np.vstack([m1.vertices, m1.vertices])
    faces = np.vstack([m1.faces, m1.faces + len(m1.vertices)])
    m = sf.TriMesh4(verts, faces, np.concatenate([m1.fixed, m1.fixed]))
    doubled = sf.projected_area_with_multiplicity(m, gr.P01)
    shadow = sf.shadow_area(m, gr.P01, 256)
    assert doubled == pytest.approx(2.0 * sf.area(m1), rel=1e-12)
    assert abs(shadow - np.pi) <= 2e-2


def test_shadow_never_exceeds_multiplicity_projection():
    rng = np.random.default_rng(43)
    res = 256
    for _ in range(5):
        rot = random_rotation(rng)
        m0 = fan_disk(64, gr.P01)
        m = sf.TriMesh4(m0.vertices @ rot.T, m0.faces, m0.fixed)
        for plane in (gr.P01, gr.P02):
            sh = sf.shadow_area(m, plane, res)
            pm = sf.projected_area_with_multiplicity(m, plane)
            assert sh <= pm + 8.0 / res


def test_pinched_competitor_shadow_covers_disks():
    from planes4.plateau import build_pinched_competitor
    m = build_pinched_competitor(np.pi / 2, np.pi / 2, 0.2, 128)
    for plane in (gr.P01, gr.P02):
        assert sf.shadow_area(m, plane, 256) >= 0.99 * np.pi


def test_shadow_rejects_low_resolution():
    with pytest.raises(ValueError):
        sf.shadow_area(fan_disk(32, gr.P01), gr.P01, 32)


@pytest.mark.parametrize("pinch", [0.05, 0.2])
def test_shadow_bitmap_matches_oracle_on_descended_competitor(pinch):
    from planes4.plateau import build_pinched_competitor, minimize_area
    a = np.pi / 6
    m = build_pinched_competitor(a, a, pinch, 256)
    m = minimize_area(m, max_iters=5).mesh
    cell = 1.0 / 256
    for plane in gr.canonical_pair(a, a):
        tris = (m.vertices @ plane.basis.T)[m.faces]
        lo = tris.reshape(-1, 2).min(axis=0) - cell
        hi = tris.reshape(-1, 2).max(axis=0) + cell
        shape = tuple(int(np.ceil((hi[k] - lo[k]) / cell)) + 1 for k in range(2))
        got = sf._shadow_bitmap(tris, lo, shape, cell)
        assert np.array_equal(got, shadow_bitmap_oracle(tris, lo, shape, cell))
        assert float(got.sum()) * cell * cell == sf.shadow_area(m, plane, 256)


# grid for the property cases: 64 cells per unit over about [-1, 1]^2, with
# the centres of row and column 64 at exactly 0; coordinates reach past
# the grid, so batches are clipped at its edge
_GRID_CELL = 1.0 / 64
_GRID_LO, _GRID_SHAPE = np.full(2, -64.5 * _GRID_CELL), (130, 130)
_coord = st.floats(-1.3, 1.3, allow_nan=False)
_point = st.tuples(_coord, _coord).map(np.array)


def _centre(k):
    return _GRID_LO + (np.asarray(k) + 0.5) * _GRID_CELL


@st.composite
def _general(draw):
    return np.array([draw(_point) for _ in range(3)])


@st.composite
def _sliver(draw):
    p0, p1 = draw(_point), draw(_point)
    t = draw(st.floats(-0.5, 1.5))
    gap = draw(st.sampled_from([0.0, 1e-300, 1e-20, 1e-14, 1e-10, 1e-6, 1e-3]))
    e = p1 - p0
    return np.array([p0, p1, p0 + t * e + gap * np.array([-e[1], e[0]])])


@st.composite
def _axis_sliver(draw):
    # a thin triangle on the centre row y = 0 (or column x = 0): its
    # |d| = |b - a| * width straddles the 1e-30 skip threshold
    a, b, c = (draw(st.floats(-1.2, 1.2)) for _ in range(3))
    width = draw(st.sampled_from([1e-300, 1e-40, 1e-31, 1e-29, 1e-20]))
    tri = np.array([[a, 0.0], [b, 0.0], [c, width]])
    return tri[:, ::-1] if draw(st.booleans()) else tri


@st.composite
def _tiny(draw):
    # |d| = scale^2 * |cross| straddles the 1e-30 skip threshold
    p0 = draw(_point)
    scale = draw(st.floats(1e-17, 1e-14))
    offs = np.array([[0.0, 0.0], [draw(st.floats(0.1, 1)), 0.0],
                     [draw(st.floats(-1, 1)), draw(st.floats(0.1, 1))]])
    return p0 + scale * offs


@st.composite
def _on_centres(draw):
    # vertices at cell centres, moved by at most 1e-11: edges pass through
    # centres or within the -1e-12 barycentric slack of them
    k = st.integers(-3, 132)
    nudge = st.sampled_from([0.0, 1e-14, -1e-13, 1e-12, -1e-12, 5e-12, -1e-11])
    return np.array([_centre([draw(k), draw(k)]) + [draw(nudge), draw(nudge)]
                     for _ in range(3)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_general(), _sliver(), _axis_sliver(), _tiny(), _on_centres()),
                min_size=1, max_size=12))
def test_shadow_bitmap_matches_oracle_on_edge_cases(tris):
    tris = np.array(tris)
    got = sf._shadow_bitmap(tris, _GRID_LO, _GRID_SHAPE, _GRID_CELL)
    assert np.array_equal(got, shadow_bitmap_oracle(tris, _GRID_LO, _GRID_SHAPE, _GRID_CELL))


def _marked(tris):
    tris = np.asarray(tris, dtype=float)
    got = sf._shadow_bitmap(tris, _GRID_LO, _GRID_SHAPE, _GRID_CELL)
    assert np.array_equal(got, shadow_bitmap_oracle(tris, _GRID_LO, _GRID_SHAPE, _GRID_CELL))
    return got


def test_shadow_bitmap_skips_measure_zero_shadows():
    assert not _marked([[[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]],
                        [[0.1, 0.1], [0.1 + 1e-16, 0.1], [0.1, 0.1 + 1e-16]]]).any()
    # a sliver on the centre row y = 0 covers its 39 centres with |x| < 0.3,
    # but only counts once |d| reaches 1e-30
    assert not _marked([[[-0.3, 0.0], [0.3, 0.0], [0.0, 1e-31]]]).any()
    assert _marked([[[-0.3, 0.0], [0.3, 0.0], [0.0, 1e-29]]])[:, 64].sum() == 39


def test_shadow_bitmap_barycentric_slack_on_every_edge():
    # the centre row 70 lies 4 * delta below edge AB of height 1/4, so its
    # barycentric there is -4 * delta: inside the -1e-12 slack or not
    for delta, kept in ((1.25e-13, True), (1.25e-12, False)):
        a = _centre([60, 70]) + [0.0, delta]
        b = _centre([80, 70]) + [0.0, delta]
        c = _centre([70, 70]) + [0.0, 0.25]
        for tri in ([a, b, c], [b, c, a], [c, a, b]):
            assert _marked([tri])[61:80, 70].all() == kept


def test_shadow_bitmap_clips_at_grid_edge():
    assert _marked([[[-5.0, -5.0], [5.0, -5.0], [0.0, 5.0]]]).all()
    assert not _marked([[[2.0, 2.0], [3.0, 2.0], [2.0, 3.0]]]).any()
    corner = _marked([[[0.9, 0.9], [1.5, 0.9], [0.9, 1.5]]])
    assert corner[-1, -1] and corner.sum() == 8 * 8


# --------------------------------------------------- projection inequality

def test_projection_report_orthogonal_disks():
    m1 = fan_disk(256, gr.P01)
    m2 = fan_disk(256, gr.P02)
    verts = np.vstack([m1.vertices, m2.vertices])
    faces = np.vstack([m1.faces, m2.faces + len(m1.vertices)])
    m = sf.TriMesh4(verts, faces, np.concatenate([m1.fixed, m2.fixed]))
    rep = sf.projection_inequality_report(m, gr.P01, gr.P02, 256)
    assert rep.lambda_used == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.inequality_slack) <= 8.0 / 256
    assert rep.shadow_areas[0] <= rep.proj_area_mult[0] + 8.0 / 256
    assert rep.shadow_areas[1] <= rep.proj_area_mult[1] + 8.0 / 256


def test_projection_report_graph_mesh_nonnegative_slack():
    rng = np.random.default_rng(44)
    n = 40
    xs = np.linspace(-1, 1, n)
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    phi = 0.3 * np.sin(2 * g1) * np.cos(g2)
    psi = 0.3 * np.cos(g1 + g2)
    verts = np.stack([g1.ravel(), g2.ravel(), phi.ravel(), psi.ravel()], axis=1)
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            faces.append([a, a + n, a + n + 1])
            faces.append([a, a + n + 1, a + 1])
    m = sf.TriMesh4(verts, np.array(faces))
    rep = sf.projection_inequality_report(m, gr.P01, gr.P02, 256)
    assert rep.inequality_slack >= -8.0 / 256


def _unvalidated(verts, faces, fixed):
    # built the way minimize_area builds its output mesh: no validation
    m = sf.TriMesh4.__new__(sf.TriMesh4)
    m.vertices, m.faces, m.fixed = verts, faces, fixed
    return m


def test_projection_report_single_flat_disk():
    m = fan_disk(64, gr.P01)
    rep = sf.projection_inequality_report(m, gr.P01, gr.P02, 256)
    assert rep.inequality_slack >= -1e-6
    # a zero-area face carries no measure and has no tangent plane
    degenerate = _unvalidated(m.vertices, np.vstack([m.faces, [[1, 1, 2]]]), m.fixed)
    assert np.array_equal(sf.face_tangents(degenerate), sf.face_tangents(m))
    lam = rep.lambda_used
    rep = sf.projection_inequality_report(degenerate, gr.P01, gr.P02, 256)
    assert rep.lambda_used == lam and rep.inequality_slack >= -1e-6
    # with no face to project, lambda is the pair's sharp supremum, 1 here
    empty = sf.TriMesh4(np.zeros((0, 4)), np.zeros((0, 3), dtype=int))
    rep = sf.projection_inequality_report(empty, gr.P01, gr.P02, 256)
    assert rep.lambda_used == sup_projection_sum(gr.P01, gr.P02).sup_value == 1.0
    assert rep.inequality_slack == 0.0


# ------------------------------------------------------------- graph area

def test_graph_area_zero_map():
    rep = sf.graph_area_check(lambda x, y: np.zeros_like(x), 0.25, 1.0)
    base = np.pi * (1.0 - 0.25**2)
    assert rep.area == pytest.approx(rep.base_area, rel=1e-14)
    assert abs(rep.base_area - base) <= 1e-3
    assert rep.dirichlet == 0.0
    assert abs(rep.slack) <= 1e-14


def test_graph_area_linear_map():
    # unit-area base annulus; |grad phi| = 0.5 everywhere
    r_in = 0.2
    r_out = float(np.sqrt(1.0 / np.pi + r_in**2))
    rep = sf.graph_area_check(lambda x, y: 0.5 * x, r_in, r_out)
    # polar midpoint quadrature carries O(grid^-2) gradient error
    assert rep.area == pytest.approx(np.sqrt(1.25) * rep.base_area, rel=1e-4)
    assert rep.area >= 1.0625 * rep.base_area - 1e-10
    assert rep.slack >= 0.0


def test_graph_area_sine_bump_positive_slack():
    rep = sf.graph_area_check(lambda x, y: 0.1 * np.sin(x), 0.25, 1.0)
    assert rep.slack >= -1e-4
    assert rep.slack > 0.0
    assert rep.dirichlet > 0.0


def test_graph_area_two_components():
    def phi(x, y):
        return np.stack([0.2 * np.sin(x), 0.2 * np.cos(y)], axis=-1)

    rep = sf.graph_area_check(phi, 0.25, 1.0)
    assert rep.slack >= -1e-12
    assert rep.area >= rep.base_area + 0.25 * rep.dirichlet - 1e-12


def test_graph_area_rejects_steep_gradient():
    with pytest.raises(ValueError):
        sf.graph_area_check(lambda x, y: 1.2 * x, 0.25, 1.0)


# -------------------------------------------------------------- thin band

def test_band_constant_height():
    area, bound = sf.band_area(
        lambda t: np.stack([np.full_like(t, 0.01), np.zeros_like(t)], axis=1))
    assert area == pytest.approx(1.5 * np.pi * 0.01, rel=1e-12)
    assert bound == pytest.approx(1.5 * np.sqrt(2.0) * np.pi * 0.01, rel=1e-12)
    assert area <= bound


def test_band_zero_height():
    area, bound = sf.band_area(lambda t: np.zeros((len(t), 2)))
    assert area == 0.0 and bound == 0.0


def test_band_oscillating_height_keeps_margin():
    area, bound = sf.band_area(
        lambda t: np.stack([0.01 * np.cos(4 * t), np.zeros_like(t)], axis=1))
    assert area < bound
    assert bound - area > 0.01  # strictly positive margin, not a squeaker


def test_band_lipschitz_check():
    with pytest.raises(ValueError):
        sf.band_area(lambda t: np.stack([np.cos(4 * t), np.zeros_like(t)], axis=1))
    # same data passes with the check disabled
    area, bound = sf.band_area(
        lambda t: np.stack([np.cos(4 * t), np.zeros_like(t)], axis=1),
        check_lip=False)
    assert area > 0.0


def test_band_general_radius_bound_constant():
    area, bound = sf.band_area(
        lambda t: np.stack([np.full_like(t, 0.01), np.zeros_like(t)], axis=1),
        rho=0.5)
    assert bound == pytest.approx(np.sqrt(2) * 2 * np.pi * 0.5 * 0.01, rel=1e-12)
    assert area <= bound


# ---------------------------------------------------------------- mesh io

def test_mesh4_roundtrip(tmp_path):
    m = fan_disk(32, gr.P01)
    path = tmp_path / "disk.mesh4"
    sf.write_mesh4(path, m)
    m2 = sf.read_mesh4(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.faces, m2.faces)
    assert np.array_equal(m.fixed, m2.fixed)


def test_mesh4_writer_exact_bytes(tmp_path):
    verts = [[-0.0, 0.0, 1.0, 1e-300], [2.0, 0.0, 0.0, -3.0],
             [0.0, 0.1, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
    m = sf.TriMesh4(np.array(verts), np.array([[0, 1, 2], [1, 2, 3]]), np.ones(4, bool))
    path = tmp_path / "small.mesh4"
    sf.write_mesh4(path, m)
    assert path.read_bytes() == (b"MESH4 4 2\n"
                                 b"-0 0 1 1e-300\n"
                                 b"2 0 0 -3\n"
                                 b"0 0.10000000000000001 0 0\n"
                                 b"1 1 1 1\n"
                                 b"0 1 2\n"
                                 b"1 2 3\n"
                                 b"B 0 1 2 3\n")


@st.composite
def _fan_meshes(draw):
    # a fan around a hub whose e1e2 shadow is a convex polygon, so no face is
    # degenerate whatever the e3, e4 coordinates are; vertex labels shuffled
    n = draw(st.integers(3, 12))
    t = 2.0 * np.pi * np.arange(n) / n
    radius = draw(st.floats(1e-3, 1e3))
    free = st.floats(-1e50, 1e50)
    verts = np.zeros((n + 1, 4))
    verts[1:, 0], verts[1:, 1] = radius * np.cos(t), radius * np.sin(t)
    verts[0, :2] = draw(st.floats(-radius / 4, radius / 4)), draw(st.floats(-radius / 4, radius / 4))
    verts[:, 2:] = np.array(draw(st.lists(free, min_size=2 * n + 2, max_size=2 * n + 2))).reshape(-1, 2)
    faces = np.array([[0, 1 + k, 1 + (k + 1) % n] for k in range(n)])
    fixed = np.arange(n + 1) > 0 if draw(st.booleans()) else np.zeros(n + 1, bool)
    label = np.array(draw(st.permutations(range(n + 1))))
    inverse = np.argsort(label)
    return sf.TriMesh4(verts[inverse], label[faces], fixed[inverse])


@settings(max_examples=100, deadline=None)
@given(_fan_meshes())
def test_mesh4_roundtrip_is_bitwise(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("roundtrip") / "m.mesh4"
    sf.write_mesh4(path, m)
    m2 = sf.read_mesh4(path)
    assert np.array_equal(m2.vertices.view(np.uint64), m.vertices.view(np.uint64))
    assert np.array_equal(m2.faces, m.faces)
    assert np.array_equal(m2.fixed, m.fixed)


_FUZZ_TOKENS = st.one_of(
    st.sampled_from(["", "B", "MESH4", "nan", "-inf", "1e999", "-0", "0x1", "1_0",
                     "2.0", "-1", "\xe9", "99999999999999999999"]),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=5),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["replace", "drop", "insert", "delete-line", "duplicate-line",
                        "swap-lines", "truncate", "new-line"]),
       st.integers(0, 10**6), st.integers(0, 10**6), _FUZZ_TOKENS)
def test_mesh4_mutated_file_parses_or_is_config_error(tmp_path_factory, how, i, j, token):
    path = tmp_path_factory.mktemp("fuzz") / "m.mesh4"
    sf.write_mesh4(path, fan_disk(5, gr.P01))
    lines = path.read_text().splitlines()
    li, lj = i % len(lines), j % len(lines)
    tokens = lines[li].split()
    if how == "replace":
        tokens[j % len(tokens)] = token
    elif how == "drop":
        del tokens[j % len(tokens)]
    elif how == "insert":
        tokens.insert(j % (len(tokens) + 1), token)
    lines[li] = " ".join(tokens)
    if how == "delete-line":
        del lines[li]
    elif how == "duplicate-line":
        lines.insert(li, lines[li])
    elif how == "swap-lines":
        lines[li], lines[lj] = lines[lj], lines[li]
    elif how == "truncate":
        del lines[li:]
    elif how == "new-line":
        lines.insert(li, token)
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    try:
        sf.read_mesh4(path)
    except ConfigError:
        pass


# each malformed file and the line its error must name
BAD_MESH4 = {
    "short-vertex-line": ("MESH4 3 1\n0 0 0 0\n1 0 0\n0 1 0 0\n0 1 2\n", 3),
    "non-numeric-token": ("MESH4 3 1\n0 0 x 0\n1 0 0 0\n0 1 0 0\n0 1 2\n", 2),
    "non-finite-token": ("MESH4 3 1\n0 0 0 0\n1 0 nan 0\n0 1 0 0\n0 1 2\n", 3),
    "face-index-out-of-range": ("MESH4 3 1\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 1 3\n", 5),
    "fractional-face-index": ("MESH4 3 1\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 1 2.0\n", 5),
    "long-face-line": ("MESH4 3 1\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 1 2 0\n", 5),
    "file-ends-early": ("MESH4 3 2\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 1 2\n", 6),
    "boundary-index-out-of-range": ("MESH4 3 1\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 1 2\nB 0 7\n", 6),
    "bad-header-count": ("MESH4 3 one\n", 1),
    # finite coordinates whose face area overflows: validation names the file
    "overflowing-face-area": ("MESH4 3 1\n0 0 0 0\n1e200 0 0 0\n0 1e200 0 0\n0 1 2\n", None),
}


@pytest.mark.parametrize("case", sorted(BAD_MESH4))
def test_mesh4_reader_names_file_and_line(tmp_path, case):
    text, line = BAD_MESH4[case]
    path = tmp_path / "bad.mesh4"
    path.write_text(text)
    where = path if line is None else f"{path}:{line}"
    with pytest.raises(ConfigError, match="^" + re.escape(f"{where}: ")):
        sf.read_mesh4(path)


def test_mesh4_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mesh4"
    path.write_text("MESH5 1 0\n0 0 0 0\n")
    with pytest.raises(ValueError):
        sf.read_mesh4(path)
