"""Algebra of 2-vectors in R^4.

A 2-vector is stored as a length-6 float array of coefficients in the
ordered basis

    e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4

(indices BASIS below).  Vectors in R^4 are plain length-4 arrays.  All
functions broadcast over leading axes, so ``wedge(X, Y)`` with X, Y of
shape (n, 4) returns shape (n, 6).

The Hodge star ``star`` splits a 2-vector into its self-dual and
anti-self-dual halves (xi +/- star(xi)) / 2; a unit 2-vector is simple
exactly when both halves have norm 1/sqrt(2).

Orientation is ignored by downstream consumers: they only ever use the
absolute value of pairings between 2-vectors.
"""

from __future__ import annotations

import numpy as np

# index pairs (i, j), i < j, of the basis elements e_i ^ e_j
BASIS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

E12 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
E34 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

#: default relative tolerance for the Pluecker simplicity test; double
#: precision wedge products carry <= ~1e-14 relative error
SIMPLE_TOL = 1e-10


def wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exterior product of two vectors, coefficients x_i y_j - x_j y_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (6,))
    for k, (i, j) in enumerate(BASIS):
        out[..., k] = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    return out


def inner(xi: np.ndarray, zeta: np.ndarray) -> float | np.ndarray:
    """Scalar product sum_{i<j} a_ij b_ij on 2-vectors."""
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    out = np.sum(xi * zeta, axis=-1)
    return float(out) if out.ndim == 0 else out


def norm(xi: np.ndarray) -> float | np.ndarray:
    """Hilbert-space norm sqrt(sum a_ij^2) of a 2-vector."""
    xi = np.asarray(xi, dtype=float)
    out = np.sqrt(np.sum(xi * xi, axis=-1))
    return float(out) if out.ndim == 0 else out


def pluecker(xi: np.ndarray) -> float | np.ndarray:
    """Pluecker quadratic c12*c34 - c13*c24 + c14*c23; zero iff simple."""
    xi = np.asarray(xi, dtype=float)
    out = xi[..., 0] * xi[..., 5] - xi[..., 1] * xi[..., 4] + xi[..., 2] * xi[..., 3]
    return float(out) if out.ndim == 0 else out


def is_simple(xi: np.ndarray, tol: float = SIMPLE_TOL) -> bool | np.ndarray:
    """True when |pluecker(xi)| <= tol * norm(xi)^2 (zero 2-vector counts as simple)."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    xi = np.asarray(xi, dtype=float)
    n2 = np.sum(xi * xi, axis=-1)
    out = np.abs(pluecker(xi)) <= tol * n2
    return bool(out) if np.ndim(out) == 0 else out


#: the Hodge star as a signed permutation of the coefficients:
#: *e12 = e34, *e13 = -e24, *e14 = e23, and the star is an involution
_STAR_INDEX = [5, 4, 3, 2, 1, 0]
_STAR_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def star(xi: np.ndarray) -> np.ndarray:
    """Hodge star on 2-vectors: xi ^ zeta = <star(xi), zeta> e1^e2^e3^e4."""
    return np.asarray(xi, dtype=float)[..., _STAR_INDEX] * _STAR_SIGN
