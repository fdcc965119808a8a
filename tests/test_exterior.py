import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planes4 import exterior as ex

from helpers import antisymmetric_matrix, apply_map2, quad_wedge_coefficient, random_simple_units

coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vec4 = st.tuples(coord, coord, coord, coord).map(np.array)


def test_wedge_basis_case():
    assert np.array_equal(ex.wedge([1, 0, 0, 0], [0, 1, 0, 0]), ex.E12)


def test_wedge_shear_and_norm_identity():
    # (1,0,0,0) ^ (1,1,0,0) == e12; norm 1 == 1 * sqrt(2) * sin(pi/4)
    w = ex.wedge([1, 0, 0, 0], [1, 1, 0, 0])
    assert np.array_equal(w, ex.E12)
    assert ex.norm(w) == pytest.approx(1.0 * np.sqrt(2.0) * np.sin(np.pi / 4), abs=1e-15)


def test_wedge_self_is_zero():
    x = np.array([0.3, -1.2, 4.0, 0.7])
    assert np.array_equal(ex.wedge(x, x), np.zeros(6))


@settings(max_examples=150, deadline=None)
@given(vec4, vec4)
def test_wedge_antisymmetry_bitwise(x, y):
    assert np.array_equal(ex.wedge(x, y), -ex.wedge(y, x))


def test_norm_identity_random_unit_pairs():
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        ang = np.arccos(np.clip(np.dot(x, y), -1.0, 1.0))
        assert abs(ex.norm(ex.wedge(x, y)) - np.sin(ang)) <= 1e-10


def test_inner_orthonormal_basis():
    assert ex.inner(ex.E12, ex.E12) == 1.0
    assert ex.inner(ex.E12, ex.E34) == 0.0


def test_inner_expansion_componentwise_oracle():
    xi = ex.E12 + ex.E34
    zeta = ex.E12 - ex.E34
    expected = sum(xi[k] * zeta[k] for k in range(6))
    assert ex.inner(xi, zeta) == expected == 0.0


def test_inner_is_squared_norm():
    rng = np.random.default_rng(2)
    xi = rng.normal(size=6)
    assert ex.inner(xi, xi) == pytest.approx(ex.norm(xi) ** 2, rel=1e-14)


def test_simple_wedges_pass():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 4))
    y = rng.normal(size=(100, 4))
    assert ex.is_simple(ex.wedge(x, y), 1e-10).all()


def test_e12_plus_e34_not_simple_hand_oracle():
    xi = ex.E12 + ex.E34
    # xi ^ xi expands to 2 * pluecker(xi) * e1^e2^e3^e4
    assert quad_wedge_coefficient(xi, xi) == pytest.approx(2.0)
    assert ex.pluecker(xi) == 1.0
    assert not ex.is_simple(xi)


def test_tiny_pluecker_below_tolerance():
    xi = ex.E12 + 1e-14 * ex.E34
    assert ex.is_simple(xi, 1e-10)


def test_zero_two_vector_is_simple():
    assert ex.is_simple(np.zeros(6))


def test_is_simple_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        ex.is_simple(ex.E12, 0.0)


def test_pluecker_matches_quad_wedge_on_random_input():
    rng = np.random.default_rng(4)
    for _ in range(50):
        xi = rng.normal(size=6)
        assert quad_wedge_coefficient(xi, xi) == pytest.approx(
            2.0 * ex.pluecker(xi), rel=1e-12, abs=1e-12)


def test_apply_map2_identity():
    rng = np.random.default_rng(5)
    xi = rng.normal(size=6)
    assert np.allclose(apply_map2(np.eye(4), xi), xi, atol=1e-15)


def test_apply_map2_diagonal_against_wedge_oracle():
    f = np.diag([2.0, 3.0, 1.0, 1.0])
    got = apply_map2(f, ex.E12)
    want = ex.wedge(f @ np.array([1.0, 0, 0, 0]), f @ np.array([0, 1.0, 0, 0]))
    assert np.allclose(got, want, atol=1e-15)
    assert np.allclose(got, 6.0 * ex.E12, atol=1e-15)


def test_apply_map2_projector_kills_transverse_basis_vector():
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    e13 = np.zeros(6)
    e13[1] = 1.0
    assert np.allclose(apply_map2(p, e13), 0.0, atol=1e-15)


def test_apply_map2_simple_decomposition():
    rng = np.random.default_rng(6)
    f = rng.normal(size=(4, 4))
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    assert np.allclose(apply_map2(f, ex.wedge(x, y)),
                       ex.wedge(f @ x, f @ y), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_functoriality_on_random_simple_inputs(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(4, 4))
    g = rng.normal(size=(4, 4))
    xi = random_simple_units(rng, 1)[0]
    lhs = apply_map2(f @ g, xi)
    rhs = apply_map2(f, apply_map2(g, xi))
    assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, float(np.abs(lhs).max())))


def test_pluecker_soundness_bulk():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10_000, 4))
    y = rng.normal(size=(10_000, 4))
    assert ex.is_simple(ex.wedge(x, y), 1e-10).all()


def test_antisymmetric_matrix_pairing():
    rng = np.random.default_rng(8)
    xi = rng.normal(size=6)
    a = antisymmetric_matrix(xi)
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    assert x @ a @ y == pytest.approx(ex.inner(xi, ex.wedge(x, y)), rel=1e-12)


def test_star_pairs_like_the_quad_wedge():
    # <star(xi), zeta> is the e1^e2^e3^e4 coefficient of xi ^ zeta, the star
    # is an involution, and the halves (xi +- star(xi))/2 differ in squared
    # norm by 2 pluecker(xi)
    rng = np.random.default_rng(9)
    for _ in range(50):
        xi, zeta = rng.normal(size=6), rng.normal(size=6)
        assert ex.inner(ex.star(xi), zeta) == pytest.approx(
            quad_wedge_coefficient(xi, zeta), rel=1e-12, abs=1e-12)
        assert np.array_equal(ex.star(ex.star(xi)), xi)
        plus, minus = (xi + ex.star(xi)) / 2, (xi - ex.star(xi)) / 2
        assert ex.norm(plus) ** 2 - ex.norm(minus) ** 2 == pytest.approx(
            2.0 * ex.pluecker(xi), rel=1e-12, abs=1e-12)
