import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planes4 import bounds as bd
from planes4 import exterior as ex
from planes4 import grassmann as gr
from planes4.rng import SplitMix64

from helpers import random_simple_units, sup_grid_oracle


def test_projection_sum_orthogonal_self():
    p1, p2 = gr.canonical_pair(np.pi / 2, np.pi / 2)
    assert bd.projection_sum(p1, p2, p1.bivector) == pytest.approx(1.0, abs=1e-12)


def test_projection_sum_witness_closed_form():
    # the e1^e2 witness scores 1 + cos(a1) cos(a2) against the canonical pair
    for a1, a2 in [(0.4, 0.9), (np.pi / 6, np.pi / 4), (1.3, 1.5)]:
        p1, p2 = gr.canonical_pair(a1, a2)
        got = bd.projection_sum(p1, p2, ex.E12)
        assert got == pytest.approx(1.0 + np.cos(a1) * np.cos(a2), abs=1e-12)


def test_projection_sum_on_equality_set_element():
    p1, p2 = gr.canonical_pair(np.pi / 2, np.pi / 2)
    el = gr.XiElement(np.pi / 4,
                      np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]),
                      np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))
    got = bd.projection_sum(p1, p2, gr.xi_sample(el))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_projection_sum_rejects_bad_inputs():
    p1, p2 = gr.canonical_pair(np.pi / 2, np.pi / 2)
    with pytest.raises(ValueError):
        bd.projection_sum(p1, p2, 2.0 * ex.E12)
    with pytest.raises(ValueError):
        bd.projection_sum(p1, p2, (ex.E12 + ex.E34) / np.sqrt(2.0))


def test_projection_sum_matches_hand_formulas():
    # against the canonical pair, the projections of xi = x ^ y with
    # x = (a,b,c,d), y = (a',b',c',d') orthonormal have the closed forms
    #   |p1 xi| = |a b' - a' b|
    #   |p2 xi| = |(ab'-a'b) c1 c2 + (ad'-a'd) c1 s2
    #              + (cb'-c'b) s1 c2 + (cd'-c'd) s1 s2|
    rng = np.random.default_rng(20)
    for _ in range(50):
        a1, a2 = np.sort(rng.uniform(0.0, np.pi / 2, size=2))
        c1, s1, c2, s2 = np.cos(a1), np.sin(a1), np.cos(a2), np.sin(a2)
        p1, p2 = gr.canonical_pair(a1, a2)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        y = rng.normal(size=4)
        y -= np.dot(y, x) * x
        y /= np.linalg.norm(y)
        xi = ex.wedge(x, y)
        (a, b, c, d), (ap, bp, cp, dp) = x, y
        q1 = abs(a * bp - ap * b)
        q2 = abs((a * bp - ap * b) * c1 * c2 + (a * dp - ap * d) * c1 * s2
                 + (c * bp - cp * b) * s1 * c2 + (c * dp - cp * d) * s1 * s2)
        assert bd.projection_sum(p1, p2, xi) == pytest.approx(q1 + q2, abs=1e-12)


def test_projection_sums_batch_matches_scalar_op():
    # dual route: the rank-one inner-product identity vs the compound-matrix op
    rng = np.random.default_rng(21)
    p1, p2 = gr.canonical_pair(0.7, 1.1)
    xis = random_simple_units(rng, 200)
    batch = bd.projection_sums(p1, p2, xis)
    for xi, want in zip(xis[:50], batch[:50]):
        assert bd.projection_sum(p1, p2, xi) == pytest.approx(float(want), abs=1e-12)


def test_wirtinger_bound_values():
    assert bd.wirtinger_bound(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert bd.wirtinger_bound(0.0) == 3.0
    assert bd.wirtinger_bound(np.pi / 3) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        bd.wirtinger_bound(2.0)


def test_angle_threshold_values():
    assert bd.angle_threshold(2.0) == 0.0
    # arccos(0.05), frozen from a direct evaluation
    assert bd.angle_threshold(0.1) == pytest.approx(1.5207754699891265, abs=1e-12)
    with pytest.raises(ValueError):
        bd.angle_threshold(0.0)
    with pytest.raises(ValueError):
        bd.angle_threshold(2.5)


def test_threshold_bound_composition():
    for eps in (0.01, 0.1, 0.5):
        assert bd.wirtinger_bound(bd.angle_threshold(eps)) == pytest.approx(
            1.0 + eps, abs=1e-12)


def test_area_lower_bound_values():
    assert bd.area_lower_bound(0.0) == pytest.approx(2.0 * np.pi, abs=1e-15)
    assert bd.area_lower_bound(0.1) == pytest.approx(5.711986642890532, abs=1e-12)
    assert bd.area_lower_bound(1.0) == pytest.approx(np.pi, abs=1e-15)
    with pytest.raises(ValueError):
        bd.area_lower_bound(-0.1)


def test_sup_orthogonal_is_one():
    rep = bd.sup_projection_sum(*gr.canonical_pair(np.pi / 2, np.pi / 2))
    assert rep.sup_value == pytest.approx(1.0, abs=1e-6)
    assert rep.sup_value <= rep.bound + 1e-7
    assert abs(ex.norm(rep.argmax) - 1.0) <= 1e-9
    assert ex.is_simple(rep.argmax, 1e-9)
    assert gr.xi_membership(rep.argmax, 1e-6)


def test_sup_coincident_is_two():
    rep = bd.sup_projection_sum(*gr.canonical_pair(0.0, 0.0))
    assert rep.sup_value == pytest.approx(2.0, abs=1e-6)


def test_sup_intermediate_pair_recorded_by_grid_oracle():
    p1, p2 = gr.canonical_pair(np.pi / 3, np.pi / 2)
    rep = bd.sup_projection_sum(p1, p2)
    lo = 1.0 + np.cos(np.pi / 3) * np.cos(np.pi / 2)
    hi = 1.0 + 2.0 * np.cos(np.pi / 3)
    assert lo - 1e-9 <= rep.sup_value <= hi + 1e-9
    oracle = sup_grid_oracle(p1, p2, n=64)
    assert rep.sup_value >= oracle - 1e-9
    assert abs(rep.sup_value - oracle) <= 1e-3


def test_sup_matches_operator_norm_identity():
    # measurement cross-check: sup equals max singular value of A1 +/- A2
    rng = np.random.default_rng(22)
    for _ in range(5):
        a1, a2 = np.sort(rng.uniform(0.0, np.pi / 2, size=2))
        p1, p2 = gr.canonical_pair(a1, a2)
        m1 = ex.antisymmetric_matrix(p1.bivector)
        m2 = ex.antisymmetric_matrix(p2.bivector)
        want = max(np.linalg.norm(m1 + m2, 2), np.linalg.norm(m1 - m2, 2))
        rep = bd.sup_projection_sum(p1, p2)
        assert rep.sup_value == pytest.approx(want, abs=1e-6)


def test_grid_oracle_approaches_operator_norm():
    # the dense-grid oracle lower-approximates max singular value of A1 +/- A2
    # and closes in as the grid refines
    p1, p2 = gr.canonical_pair(0.8, 1.3)
    m1 = ex.antisymmetric_matrix(p1.bivector)
    m2 = ex.antisymmetric_matrix(p2.bivector)
    want = max(np.linalg.norm(m1 + m2, 2), np.linalg.norm(m1 - m2, 2))
    coarse = sup_grid_oracle(p1, p2, n=24)
    fine = sup_grid_oracle(p1, p2, n=96)
    assert coarse <= want + 1e-12
    assert fine <= want + 1e-12
    assert want - fine <= want - coarse + 1e-12
    assert want - fine <= 2e-3


angle = st.floats(0.0, np.pi / 2)
vec4 = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(np.array)


@st.composite
def canonical_pairs(draw):
    a1, a2 = sorted((draw(angle), draw(angle)))
    return gr.canonical_pair(a1, a2)


@st.composite
def spanned_pairs(draw):
    # arbitrary planes with arbitrary orientations, so that A1 - A2 can win
    x1, y1, x2, y2 = (draw(vec4) for _ in range(4))
    assume(ex.norm(ex.wedge(x1, y1)) > 0.1 and ex.norm(ex.wedge(x2, y2)) > 0.1)
    return gr.plane_from_vectors(x1, y1), gr.plane_from_vectors(x2, y2)


def _check_closed_form_supremum(p1, p2):
    rep = bd.sup_projection_sum(p1, p2)
    assert abs(ex.norm(rep.argmax) - 1.0) <= 1e-12
    assert ex.is_simple(rep.argmax, 1e-12)
    # attained at argmax, above the independent grid oracle, and never
    # exceeded by random unit simple 2-vectors
    assert abs(bd.projection_sum(p1, p2, rep.argmax) - rep.sup_value) <= 1e-12
    assert rep.sup_value >= sup_grid_oracle(p1, p2, n=64) - 1e-12
    sums = bd.projection_sums(p1, p2, random_simple_units(np.random.default_rng(24), 10**4))
    assert float(sums.max()) <= rep.sup_value + 1e-12
    assert (rep.samples, rep.refinement_iters) == (2, 0)


@settings(max_examples=20, deadline=None)
@given(canonical_pairs())
def test_sup_closed_form_on_canonical_pairs(pair):
    _check_closed_form_supremum(*pair)


@settings(max_examples=20, deadline=None)
@given(spanned_pairs())
def test_sup_closed_form_on_spanned_pairs(pair):
    _check_closed_form_supremum(*pair)


def test_sup_determinism():
    p1, p2 = gr.canonical_pair(0.9, 1.2)
    a = bd.sup_projection_sum(p1, p2)
    b = bd.sup_projection_sum(p1, p2)
    assert a.sup_value == b.sup_value
    assert np.array_equal(a.argmax, b.argmax)


def test_sup_monotone_degradation_toward_orthogonal():
    values = []
    for a in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2):
        rep = bd.sup_projection_sum(*gr.canonical_pair(a, np.pi / 2))
        values.append(rep.sup_value)
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-5


def test_soundness_random_suite():
    # trimmed version of the acceptance sweep: bound 1 + 2 cos(a1) never violated
    rng = np.random.default_rng(23)
    gen = SplitMix64(23)
    for _ in range(100):
        a1, a2 = np.sort([gen.uniform() * np.pi / 2, gen.uniform() * np.pi / 2])
        p1, p2 = gr.canonical_pair(a1, a2)
        xis = random_simple_units(rng, 1000)
        sums = bd.projection_sums(p1, p2, xis)
        assert float(sums.max()) <= bd.wirtinger_bound(a1) + 1e-9
