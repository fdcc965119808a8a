import numpy as np
import pytest

from planes4 import exterior as ex
from planes4 import grassmann as gr
from planes4.rng import SplitMix64

from helpers import (apply_map2, characteristic_angles_oracle, plane_from_vectors, planes_equal,
                     projector, random_rotation, random_simple_units)


def test_orthogonal_pair_angles():
    a = gr.characteristic_angles(gr.P01, gr.P02)
    assert a == (np.pi / 2, np.pi / 2)


def test_coincident_planes_angles():
    a = gr.characteristic_angles(gr.P01, gr.P01)
    assert a.alpha1 == 0.0 and a.alpha2 == 0.0


def test_canonical_pair_roundtrip():
    p1, p2 = gr.canonical_pair(np.pi / 4, np.pi / 3)
    a = gr.characteristic_angles(p1, p2)
    assert abs(a.alpha1 - np.pi / 4) <= 1e-10
    assert abs(a.alpha2 - np.pi / 3) <= 1e-10


def test_canonical_orthogonal_gram_vanishes():
    p1, p2 = gr.canonical_pair(np.pi / 2, np.pi / 2)
    assert np.max(np.abs(p1.basis @ p2.basis.T)) <= 1e-16


def test_canonical_zero_angles_coincide():
    p1, p2 = gr.canonical_pair(0.0, 0.0)
    assert planes_equal(p1, p2)
    assert planes_equal(p2, gr.P01)


def test_canonical_pair_definitional_oracle():
    # independent oracle: minimize the angle over unit-vector pairs directly
    p1, p2 = gr.canonical_pair(np.pi / 6, np.pi / 6)
    o1, o2 = characteristic_angles_oracle(p1, p2)
    a = gr.characteristic_angles(p1, p2)
    assert abs(a.alpha1 - o1) <= 1e-6
    assert abs(a.alpha2 - o2) <= 1e-6


def test_canonical_pair_rejects_bad_angles():
    with pytest.raises(ValueError):
        gr.canonical_pair(1.0, 0.5)
    with pytest.raises(ValueError):
        gr.canonical_pair(-0.1, 0.5)
    with pytest.raises(ValueError):
        gr.canonical_pair(0.5, 2.0)


def test_angle_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = plane_from_vectors(rng.normal(size=4), rng.normal(size=4))
        q = plane_from_vectors(rng.normal(size=4), rng.normal(size=4))
        a = gr.characteristic_angles(p, q)
        b = gr.characteristic_angles(q, p)
        assert abs(a.alpha1 - b.alpha1) <= 1e-12
        assert abs(a.alpha2 - b.alpha2) <= 1e-12


def test_angle_rotation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = plane_from_vectors(rng.normal(size=4), rng.normal(size=4))
        q = plane_from_vectors(rng.normal(size=4), rng.normal(size=4))
        rot = random_rotation(rng)
        pr = gr.Plane(p.basis @ rot.T)
        qr = gr.Plane(q.basis @ rot.T)
        a = gr.characteristic_angles(p, q)
        b = gr.characteristic_angles(pr, qr)
        assert abs(a.alpha1 - b.alpha1) <= 1e-9
        assert abs(a.alpha2 - b.alpha2) <= 1e-9


def test_projector_standard_plane():
    assert np.array_equal(projector(gr.P01), np.diag([1.0, 1.0, 0.0, 0.0]))


def test_projector_properties_and_fixed_points():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = plane_from_vectors(rng.normal(size=4), rng.normal(size=4))
        m = projector(p)
        assert np.max(np.abs(m @ m - m)) <= 1e-12
        assert np.max(np.abs(m - m.T)) <= 1e-12
        assert np.trace(m) == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(m @ p.basis[0], p.basis[0], atol=1e-12)
        assert np.allclose(m @ p.basis[1], p.basis[1], atol=1e-12)


def test_projected_bivector_norm_is_cos_product():
    # |wedge_2 p1 (bivector of P2)| == cos(a1) cos(a2), from the closed form
    for a1, a2 in [(0.3, 0.5), (np.pi / 6, np.pi / 3), (1.1, 1.4)]:
        p1, p2 = gr.canonical_pair(a1, a2)
        img = apply_map2(projector(p1), p2.bivector)
        assert ex.norm(img) == pytest.approx(np.cos(a1) * np.cos(a2), abs=1e-12)


def test_xi_sample_endpoint_angles():
    el = gr.XiElement(0.0,
                      np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]),
                      np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))
    xi = gr.xi_sample(el)
    assert np.allclose(xi, gr.P01.bivector, atol=1e-15)
    assert gr.projection_sum_standard(xi) == pytest.approx(1.0, abs=1e-15)

    el2 = gr.XiElement(np.pi / 2, el.v1, el.v2, el.u1, el.u2)
    xi2 = gr.xi_sample(el2)
    assert np.allclose(xi2, gr.P02.bivector, atol=1e-15)
    assert abs(xi2[0]) <= 1e-16 and abs(xi2[5] - 1.0) <= 1e-15


def test_xi_sample_mixing_angle_splits_evenly():
    el = gr.XiElement(np.pi / 4,
                      np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]),
                      np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))
    xi = gr.xi_sample(el)
    # closed forms: |p01| = cos^2(alpha) |v1 x v2|, |p02| = sin^2(alpha) |u1 x u2|
    assert abs(xi[0]) == pytest.approx(0.5, abs=1e-12)
    assert abs(xi[5]) == pytest.approx(0.5, abs=1e-12)
    assert gr.projection_sum_standard(xi) == pytest.approx(1.0, abs=1e-10)


def test_xi_element_rejects_bad_frames():
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0, 1.0, 0, 0])
    e3 = np.array([0, 0, 1.0, 0])
    e4 = np.array([0, 0, 0, 1.0])
    with pytest.raises(ValueError):
        gr.XiElement(0.3, e1, e1, e3, e4)          # v1, v2 not orthogonal
    with pytest.raises(ValueError):
        gr.XiElement(0.3, e1, e2, e3, 2.0 * e4)    # u2 not unit
    with pytest.raises(ValueError):
        gr.XiElement(0.3, e3, e4, e1, e2)          # frames in the wrong planes


def test_xi_membership_trivial_and_negative_cases():
    assert gr.xi_membership(gr.P01.bivector)
    e13 = ex.wedge(np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0]))
    assert gr.projection_sum_standard(e13) == 0.0
    assert not gr.xi_membership(e13)


def test_xi_membership_rejects_nonunit_and_nonsimple():
    with pytest.raises(ValueError):
        gr.xi_membership(2.0 * gr.P01.bivector)
    with pytest.raises(ValueError):
        gr.xi_membership((ex.E12 + ex.E34) / np.sqrt(2.0))


def test_equality_set_sampling_suite():
    gen = SplitMix64(2024)
    for _ in range(1000):
        xi = gr.xi_sample(gr.random_xi_element(gen))
        assert abs(gr.projection_sum_standard(xi) - 1.0) <= 1e-12
        assert gr.xi_membership(xi, 1e-8)


def test_low_projection_sum_fails_membership():
    rng = np.random.default_rng(14)
    xis = random_simple_units(rng, 4000)
    sums = gr.projection_sum_standard(xis)
    low = xis[sums < 0.99][:1000]
    assert len(low) >= 1000 or len(low) == (sums < 0.99).sum()
    for xi in low:
        assert not gr.xi_membership(xi, 1e-8)


def test_equality_set_raw_parametrization():
    # the other route to the equality set: wedges of
    # a e1 + b e2 + c e3 + d e4 with -b e1 + a e2 +/- (-d e3 + c e4)
    # over the unit sphere in (a, b, c, d); both sign branches belong
    rng = np.random.default_rng(15)
    for _ in range(200):
        a, b, c, d = rng.normal(size=4)
        s = np.sqrt(a * a + b * b + c * c + d * d)
        a, b, c, d = a / s, b / s, c / s, d / s
        x = np.array([a, b, c, d])
        for sign in (1.0, -1.0):
            y = np.array([-b, a, sign * -d, sign * c])
            xi = ex.wedge(x, y)
            assert abs(ex.norm(xi) - 1.0) <= 1e-12
            assert gr.projection_sum_standard(xi) == pytest.approx(1.0, abs=1e-12)
            assert gr.xi_membership(xi, 1e-8)
