"""Geometry of 2-planes in R^4.

A plane is an orthonormal basis pair plus its unit simple 2-vector.  The
relative position of two planes is the pair of characteristic angles
(alpha1, alpha2), alpha1 <= alpha2, obtained from the singular values of
the 2x2 matrix of inner products between orthonormal bases.  The pair is
(pi/2, pi/2) exactly when the planes are orthogonal.

The equality set Xi consists of the unit simple 2-vectors whose projection
norms onto the standard orthogonal pair P01 = span(e1,e2), P02 = span(e3,e4)
sum to 1.  ``xi_sample`` produces elements of Xi from an angle and an
orthonormal frame; ``xi_membership`` tests the projection-sum criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import exterior
from .errors import ConfigError
from .rng import SplitMix64


class CharacteristicAngles(NamedTuple):
    alpha1: float
    alpha2: float


@dataclass(frozen=True)
class Plane:
    """A 2-plane through the origin: orthonormal basis pair and unit bivector."""

    basis: np.ndarray      # shape (2, 4), rows orthonormal
    bivector: np.ndarray = field(init=False)  # shape (6,), unit simple

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (2, 4):
            raise ValueError(f"plane basis must have shape (2, 4), got {b.shape}")
        g = b @ b.T
        if np.max(np.abs(g - np.eye(2))) > 1e-10:
            raise ValueError("plane basis is not orthonormal")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "bivector", exterior.wedge(b[0], b[1]))

    def contains(self, v: np.ndarray, tol: float = 1e-10) -> bool:
        """True when v lies in the plane (its projection is itself)."""
        v = np.asarray(v, dtype=float)
        residual = self.basis.T @ (self.basis @ v) - v
        return float(np.linalg.norm(residual)) <= tol * max(1.0, float(np.linalg.norm(v)))


#: the standard orthogonal pair: P01 = span(e1, e2), P02 = span(e3, e4)
P01 = Plane(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
P02 = Plane(np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))


def characteristic_angles(p: Plane, q: Plane) -> CharacteristicAngles:
    """Characteristic angle pair (alpha1, alpha2), ascending, both in [0, pi/2].

    Computed as arccos of the singular values (clamped to [0, 1]) of the
    2x2 Gram matrix between the orthonormal bases.  Identical planes give
    (0, 0); orthogonal planes give (pi/2, pi/2).
    """
    g = p.basis @ q.basis.T
    s = np.linalg.svd(g, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    a = np.arccos(s)          # s descending => angles ascending
    return CharacteristicAngles(float(a[0]), float(a[1]))


def canonical_pair(alpha1: float, alpha2: float) -> tuple[Plane, Plane]:
    """The canonical plane pair with characteristic angles (alpha1, alpha2).

    P1 = span(e1, e2) and
    P2 = span(cos a1 e1 + sin a1 e3, cos a2 e2 + sin a2 e4).
    """
    if not (0.0 <= alpha1 <= alpha2 <= np.pi / 2 + 1e-15):
        raise ConfigError(
            f"angles must satisfy 0 <= alpha1 <= alpha2 <= pi/2, got ({alpha1}, {alpha2})"
        )
    p2 = Plane(np.array([
        [np.cos(alpha1), 0.0, np.sin(alpha1), 0.0],
        [0.0, np.cos(alpha2), 0.0, np.sin(alpha2)],
    ]))
    return P01, p2


@dataclass(frozen=True)
class XiElement:
    """Parameters of an equality-set element: angle plus orthonormal frames.

    v1, v2 must be an orthonormal pair in P01 and u1, u2 one in P02; every
    such choice wedges to a unit simple 2-vector with projection sum 1.
    """

    alpha: float
    v1: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.alpha <= np.pi / 2 + 1e-15):
            raise ValueError(f"alpha must lie in [0, pi/2], got {self.alpha}")
        for name, vec, plane in (
            ("v1", self.v1, P01), ("v2", self.v2, P01),
            ("u1", self.u1, P02), ("u2", self.u2, P02),
        ):
            v = np.asarray(vec, dtype=float)
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise ValueError(f"{name} is not a unit vector")
            if not plane.contains(v):
                raise ValueError(f"{name} does not lie in its plane")
            object.__setattr__(self, name, v)
        if abs(float(np.dot(self.v1, self.v2))) > 1e-10:
            raise ValueError("v1, v2 are not orthogonal")
        if abs(float(np.dot(self.u1, self.u2))) > 1e-10:
            raise ValueError("u1, u2 are not orthogonal")


def xi_sample(e: XiElement) -> np.ndarray:
    """Unit simple 2-vector wedge(x, y) with x, y mixing the frames by cos/sin alpha."""
    c, s = np.cos(e.alpha), np.sin(e.alpha)
    x = c * e.v1 + s * e.u1
    y = c * e.v2 + s * e.u2
    return exterior.wedge(x, y)


def random_xi_element(rng: SplitMix64) -> XiElement:
    """Draw a uniform-ish equality-set element: random angle and random frames."""
    alpha = rng.uniform() * np.pi / 2
    t = rng.uniform() * 2 * np.pi
    sv = 1.0 if rng.uniform() < 0.5 else -1.0
    v1 = np.array([np.cos(t), np.sin(t), 0.0, 0.0])
    v2 = sv * np.array([-np.sin(t), np.cos(t), 0.0, 0.0])
    w = rng.uniform() * 2 * np.pi
    su = 1.0 if rng.uniform() < 0.5 else -1.0
    u1 = np.array([0.0, 0.0, np.cos(w), np.sin(w)])
    u2 = su * np.array([0.0, 0.0, -np.sin(w), np.cos(w)])
    return XiElement(alpha, v1, v2, u1, u2)


#: smallest membership tolerance: the unit and simplicity checks carry
#: a few ulps of round-off
MIN_TOL = 1e-14


def projection_sum_standard(xi: np.ndarray) -> float | np.ndarray:
    """|p01(xi)| + |p02(xi)| for the standard orthogonal pair: |c12| + |c34|."""
    xi = np.asarray(xi, dtype=float)
    out = np.abs(xi[..., 0]) + np.abs(xi[..., 5])
    return float(out) if out.ndim == 0 else out


def xi_membership(xi: np.ndarray, tol: float = 1e-8) -> bool:
    """Equality-set membership: projection sum onto the standard pair >= 1 - tol.

    The input must be a unit simple 2-vector within tol; anything else is
    rejected rather than silently classified.  A tolerance below ``MIN_TOL``
    is a configuration error: a unit wedge's norm is off 1 by a few ulps,
    so such a tolerance would reject every input.
    """
    if not tol >= MIN_TOL:
        raise ConfigError(f"membership tolerance must be at least {MIN_TOL:g}, got {tol}")
    xi = np.asarray(xi, dtype=float)
    n = exterior.norm(xi)
    if abs(n - 1.0) > tol:
        raise ValueError(f"2-vector is not unit within {tol}: norm {n}")
    if not exterior.is_simple(xi, tol):
        raise ValueError("2-vector is not simple within tolerance")
    return bool(projection_sum_standard(xi) >= 1.0 - tol)
