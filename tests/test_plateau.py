import hashlib

import numpy as np
import pytest

from planes4 import grassmann as gr
from planes4 import plateau as pl
from planes4 import surfaces as sf

from helpers import area_gradient_oracle

ORTH = (np.pi / 2, np.pi / 2)


def euler_characteristic(mesh):
    e = np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                        mesh.faces[:, [2, 0]]])
    e.sort(axis=1)
    return len(mesh.vertices) - len(np.unique(e, axis=0)) + len(mesh.faces)


# --------------------------------------------------------------- builders

def test_union_mesh_area_and_structure():
    m = pl.build_union_mesh(*ORTH, 256)
    assert abs(sf.area(m) - 2 * np.pi) <= 1e-2
    assert m.fixed.sum() == 512            # 2n fixed boundary vertices
    assert not m.fixed[0]                  # shared origin vertex is free
    assert len(m.vertices) == 1 + 512      # single shared vertex


def test_union_mesh_single_shared_vertex_any_angles():
    m = pl.build_union_mesh(0.4, 0.7, 64)
    # vertex 0 is the only vertex used by fans of both disks
    used1 = set(m.faces[:64].ravel())
    used2 = set(m.faces[64:].ravel())
    assert used1 & used2 == {0}


def test_union_mesh_rejects_small_n():
    with pytest.raises(ValueError):
        pl.build_union_mesh(*ORTH, 16)


def test_pinched_zero_radius_reduces_to_union():
    a = pl.build_pinched_competitor(0.6, 0.8, 0.0, 64)
    b = pl.build_union_mesh(0.6, 0.8, 64)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_pinched_orthogonal_costs_area():
    m = pl.build_pinched_competitor(*ORTH, 0.1, 256)
    assert sf.area(m) > 2 * np.pi


def test_pinched_small_angles_saves_area():
    m = pl.build_pinched_competitor(np.pi / 6, np.pi / 6, 0.2, 256)
    assert sf.area(m) < 2 * np.pi - 5e-2


def test_pinched_topology_is_a_tube_join():
    m = pl.build_pinched_competitor(np.pi / 6, np.pi / 6, 0.1, 64)
    assert euler_characteristic(m) == 0       # two annuli + tube = cylinder
    assert euler_characteristic(pl.build_union_mesh(*ORTH, 64)) == 1


def test_pinched_rejects_degenerate_connector():
    with pytest.raises(ValueError):
        pl.build_pinched_competitor(*ORTH, 0.01, 64)    # pinch below 4/n


# the leading 16 hex digits of the sha256 of faces (little-endian int64) and
# of fixed (one byte per flag); integer and bool bytes are the same on every
# machine, unlike the float vertex bytes, and the angles do not enter them
@pytest.mark.parametrize("n, pinch, faces_sha, fixed_sha", [
    (32, 0.0, "6a31d9351ab9e737", "931f38af772ca6a0"),
    (64, 0.0, "a766aca4a6f9bd32", "f14ac99aa7ed72cf"),
    (64, 0.2, "b37e9a1da9e9cf19", "6d35672f4bbbff64"),
    (96, 0.1, "34683a88e68c3c4c", "abaa969dab85af5d"),
    (256, 0.05, "e7c7d241fbd50e9c", "04181ddcc6726ee7"),
])
def test_builder_faces_and_fixed_bytes_are_pinned(n, pinch, faces_sha, fixed_sha):
    if pinch == 0.0:
        m = pl.build_union_mesh(0.5, 0.7, n)
    else:
        m = pl.build_pinched_competitor(0.5, 0.7, pinch, n)
    assert hashlib.sha256(m.faces.astype("<i8").tobytes()).hexdigest()[:16] == faces_sha
    assert hashlib.sha256(m.fixed.astype(np.uint8).tobytes()).hexdigest()[:16] == fixed_sha


# -------------------------------------------------------------- optimizer

def _perturbed(mesh, rng, scale):
    verts = mesh.vertices.copy()
    free = ~mesh.fixed
    verts[free] += scale * rng.normal(size=(int(free.sum()), 4))
    return verts


def _assert_kernel_matches_oracle(verts, faces, result=None):
    total, grad = pl._AreaGradient(faces, len(verts))(verts) if result is None else result
    want_total, want_grad = area_gradient_oracle(verts, faces)
    assert total == want_total
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(np.signbit(grad), np.signbit(want_grad))


def test_area_gradient_matches_oracle_bitwise():
    rng = np.random.default_rng(71)
    meshes = [pl.build_pinched_competitor(np.pi / 6, np.pi / 6, 0.2, 256),
              pl.build_pinched_competitor(*ORTH, 0.05, 256),
              pl.build_union_mesh(0.4, 0.9, 64)]
    for m in meshes:
        for scale in (0.0, 1e-3, 3e-2):
            _assert_kernel_matches_oracle(_perturbed(m, rng, scale), m.faces)
    # the fan centre moved onto rim vertex 1 collapses faces (0, 1, 2) and
    # (0, 64, 1) to zero area, so their gradient divides by the 1e-30 floor
    m = meshes[2]
    verts = _perturbed(m, rng, 1e-3)
    verts[0] = verts[1]
    p = verts[m.faces]
    collapsed = (p[:, 0] == p[:, 1]).all(axis=1) | (p[:, 0] == p[:, 2]).all(axis=1)
    assert np.flatnonzero(collapsed).tolist() == [0, 63]
    _assert_kernel_matches_oracle(verts, m.faces)


def test_area_gradient_evaluator_is_reusable():
    # one evaluator applied to A, B, then A again: each result is the
    # oracle's, and the call on B neither writes into the gradient returned
    # for A nor leaves a buffer behind that the second call on A reads
    rng = np.random.default_rng(73)
    m = pl.build_pinched_competitor(np.pi / 6, np.pi / 3, 0.2, 64)
    a, b = _perturbed(m, rng, 3e-2), _perturbed(m, rng, 3e-2)
    evaluate = pl._AreaGradient(m.faces, len(a))
    first = evaluate(a)
    kept = first[1].copy()
    second = evaluate(b)
    assert first[1].tobytes() == kept.tobytes()
    third = evaluate(a)
    for verts, result in ((a, first), (b, second), (a, third)):
        _assert_kernel_matches_oracle(verts, m.faces, result)


def test_area_gradient_central_differences():
    # the area here is the Lagrange identity |u ^ v|^2 = |u|^2 |v|^2 - (u.v)^2,
    # independent of both the wedge-based kernel and its oracle
    def lagrange_area(verts, faces):
        p = verts[faces]
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        uu, vv, uv = (u * u).sum(1), (v * v).sum(1), (u * v).sum(1)
        return 0.5 * np.sqrt(uu * vv - uv * uv).sum()

    rng = np.random.default_rng(72)
    m = pl.build_pinched_competitor(np.pi / 6, np.pi / 3, 0.2, 32)
    verts = _perturbed(m, rng, 1e-2)
    _, grad = pl._AreaGradient(m.faces, len(verts))(verts)
    h = 1e-5
    fd = np.empty_like(verts)
    for i in range(len(verts)):
        for c in range(4):
            up, dn = verts.copy(), verts.copy()
            up[i, c] += h
            dn[i, c] -= h
            fd[i, c] = (lagrange_area(up, m.faces) - lagrange_area(dn, m.faces)) / (2 * h)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_minimize_flat_disk_is_stationary():
    m = pl.build_union_mesh(*ORTH, 64)
    res = pl.minimize_area(m, max_iters=50)
    assert res.stopped == "converged"
    assert np.max(np.linalg.norm(res.mesh.vertices - m.vertices, axis=1)) <= 1e-8


def test_minimize_monotone_trace_and_boundary_fidelity():
    m = pl.build_pinched_competitor(*ORTH, 0.2, 96)
    res = pl.minimize_area(m, max_iters=60)
    assert (np.diff(res.trace) <= 1e-12).all()
    assert np.array_equal(res.mesh.vertices[m.fixed], m.vertices[m.fixed])
    assert np.max(np.linalg.norm(res.mesh.vertices, axis=1)) <= 1.0 + 1e-12


def _retraction_case():
    """A union fan whose free centre vertex starts at norm 1.5."""
    m = pl.build_union_mesh(np.pi / 6, np.pi / 3, 64)
    verts = m.vertices.copy()
    verts[0] = [1.5, 0.0, 0.0, 0.0]
    return sf.TriMesh4(verts, m.faces, m.fixed)


def test_minimize_retracts_free_vertices_into_ball():
    # without the retraction the centre is still at norm 1.35 after 3 steps
    m = _retraction_case()
    res = pl.minimize_area(m, max_iters=3)
    assert len(res.trace) == 4 and (np.diff(res.trace) < 0).all()
    free = ~m.fixed
    assert np.max(np.linalg.norm(res.mesh.vertices[free], axis=1)) <= 1.0 + 1e-12


# the leading 16 hex digits of the sha256 of the trace bytes followed by the
# final vertex bytes (little-endian float64) after 40 descent steps; the input
# vertices are rounded to multiples of 2^-30 first, so that a last-bit
# difference in the platform's sin and cos, which build the rings, reaches
# the digest only if it crosses a rounding boundary
@pytest.mark.parametrize("case, digest", [
    ("pinched", "7f773ef65b972f94"),
    ("retraction", "d5a7e4151cd41fe4"),
])
def test_minimize_bytes_are_pinned(case, digest):
    if case == "pinched":
        m = pl.build_pinched_competitor(np.pi / 6, np.pi / 6, 0.2, 64)
    else:
        m = _retraction_case()
    m = sf.TriMesh4(np.round(m.vertices * 2.0 ** 30) / 2.0 ** 30, m.faces, m.fixed)
    res = pl.minimize_area(m, max_iters=40)
    data = res.trace.astype("<f8").tobytes() + res.mesh.vertices.astype("<f8").tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


# the digest above at 1 and 41 steps, pinned before the trial buffer was
# reused: after an odd number of accepted steps the vertices are the
# buffer that started as the first trial
@pytest.mark.parametrize("case, iters, digest", [
    ("pinched", 1, "4cfc7bf2b3bed5fe"),
    ("pinched", 41, "72177d3f1c928d0e"),
    ("retraction", 1, "34e00c0b76ca36ef"),
    ("retraction", 41, "33f2df6fc7872fa9"),
])
def test_minimize_swapped_buffer_bytes_are_pinned(case, iters, digest):
    m = (pl.build_pinched_competitor(np.pi / 6, np.pi / 6, 0.2, 64) if case == "pinched"
         else _retraction_case())
    m = sf.TriMesh4(np.round(m.vertices * 2.0 ** 30) / 2.0 ** 30, m.faces, m.fixed)
    before = m.vertices.tobytes()
    res = pl.minimize_area(m, max_iters=iters)
    assert len(res.trace) == iters + 1
    data = res.trace.astype("<f8").tobytes() + res.mesh.vertices.astype("<f8").tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest
    assert m.vertices.tobytes() == before


def test_minimize_requires_fixed_boundary():
    verts = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    m = sf.TriMesh4(verts, np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        pl.minimize_area(m)


def test_minimize_deterministic():
    m = pl.build_pinched_competitor(np.pi / 6, np.pi / 6, 0.2, 64)
    r1 = pl.minimize_area(m, max_iters=40)
    r2 = pl.minimize_area(m, max_iters=40)
    assert np.array_equal(r1.mesh.vertices, r2.mesh.vertices)
    assert np.array_equal(r1.trace, r2.trace)


# ------------------------------------------------------------- certificate

def test_certificate_orthogonal_union_mesh():
    m = pl.build_union_mesh(*ORTH, 256)
    bound, covers = pl.certificate_lower_bound(m, *gr.canonical_pair(*ORTH))
    assert covers == (True, True)
    assert abs(bound - 2 * np.pi) <= 2e-2
    assert sf.area(m) >= bound - 2e-2


def test_certificate_is_sound_for_arbitrary_meshes():
    rng = np.random.default_rng(51)
    p1, p2 = gr.canonical_pair(*ORTH)
    for _ in range(3):
        m = pl.build_pinched_competitor(*ORTH, float(rng.uniform(0.08, 0.3)), 96)
        bound, _ = pl.certificate_lower_bound(m, p1, p2)
        assert sf.area(m) >= bound - (4.0 / sf.SHADOW_RESOLUTION + 2e-3)


def test_certificate_threshold_angles():
    # alpha = arccos(eps/2) with eps = 0.1: bound >= 2 pi / 1.1 when covering
    from helpers import angle_threshold
    a = angle_threshold(0.1)
    m = pl.build_union_mesh(a, a, 256)
    bound, covers = pl.certificate_lower_bound(m, *gr.canonical_pair(a, a))
    assert covers == (True, True)
    assert bound >= 2 * np.pi / 1.1 - 2e-2


# -------------------------------------------------------------- experiment

def test_experiment_orthogonal_unpinched_certified():
    cfg = pl.ExperimentConfig(*ORTH, boundary_segments=128, max_iters=30)
    rep = pl.run_experiment(cfg, pl.build_competitor(cfg))
    assert rep.verdict == "certified-optimal"
    assert rep.stopped == "converged" and rep.grad_norm < pl.TOL_GRAD
    assert rep.final_area <= rep.initial_area + 1e-12
    assert rep.shadows_cover == (True, True)
    assert rep.certificate_bound <= rep.final_area + rep.tolerance


def test_experiment_small_angle_pinch_improves():
    cfg = pl.ExperimentConfig(np.pi / 6, np.pi / 6, boundary_segments=128,
                              pinch_radius=0.2, max_iters=30)
    rep = pl.run_experiment(cfg, pl.build_competitor(cfg))
    assert rep.verdict == "improved"
    assert rep.stopped == "max-iters" and rep.grad_norm > pl.TOL_GRAD
    assert rep.final_area < 2 * np.pi - 5e-2


def test_experiment_improved_is_tested_before_certified_optimal():
    # the pinch-0.05 competitor at pi/6 starts below the union's area by more
    # than the mesh allowance and its certificate holds, so the verdict
    # depends on which branch is tested first
    cfg = pl.ExperimentConfig(np.pi / 6, np.pi / 6, boundary_segments=256,
                              pinch_radius=0.05, max_iters=3)
    rep = pl.run_experiment(cfg, pl.build_competitor(cfg))
    threshold = 2 * np.pi - 2 * pl.mesh_area_tolerance(256)
    assert rep.initial_area < threshold and rep.final_area < threshold
    assert rep.shadows_cover == (True, True)
    assert rep.final_area >= rep.certificate_bound - rep.tolerance
    assert rep.verdict == "improved"


def test_experiment_orthogonal_pinch_never_improves():
    for pinch in (0.1, 0.3):
        cfg = pl.ExperimentConfig(*ORTH, boundary_segments=128,
                                  pinch_radius=pinch, max_iters=40)
        rep = pl.run_experiment(cfg, pl.build_competitor(cfg))
        assert rep.verdict != "improved"
        assert rep.final_area >= rep.certificate_bound - rep.tolerance


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        pl.ExperimentConfig(0.0, 0.5)
    with pytest.raises(ValueError):
        pl.ExperimentConfig(0.5, 0.4)
    with pytest.raises(ValueError):
        pl.ExperimentConfig(0.5, 0.6, pinch_radius=0.7)
