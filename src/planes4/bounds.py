"""Projection-sum bounds for unit simple 2-vectors against a plane pair.

For planes P1, P2 with orthogonal projections p1, p2, the quantity of
interest is |p1(xi)| + |p2(xi)| over unit simple 2-vectors xi.  For an
orthogonal pair the supremum is 1; in general it is bounded by
1 + 2 cos(alpha1), the one proven statement here.  The supremum itself
has a closed form, the comass of xi1 +/- xi2 (see ``sup_projection_sum``),
computed from two 4x4 singular value decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior
from .grassmann import Plane, characteristic_angles, projector


@dataclass(frozen=True)
class BoundReport:
    sup_value: float
    argmax: np.ndarray          # unit simple 2-vector achieving sup_value
    bound: float                # proven bound 1 + 2 cos(alpha1)
    samples: int                # matrices A1 +/- A2 whose norms are taken: 2
    refinement_iters: int       # iterations of refinement: 0, no search runs


def wirtinger_bound(alpha1: float) -> float:
    """Projection-sum bound 1 + 2 cos(alpha1) for pairs with smaller angle alpha1."""
    if not (0.0 <= alpha1 <= np.pi / 2 + 1e-15):
        raise ValueError(f"alpha1 must lie in [0, pi/2], got {alpha1}")
    return 1.0 + 2.0 * np.cos(alpha1)


def angle_threshold(eps: float) -> float:
    """Angle arccos(eps/2); pairs with alpha1 at least this have bound <= 1 + eps."""
    if not (0.0 < eps <= 2.0):
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    return float(np.arccos(eps / 2.0))


def area_lower_bound(eps: float) -> float:
    """Certified area floor 2*pi/(1+eps) for sets projecting onto both unit disks."""
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return 2.0 * np.pi / (1.0 + eps)


def projection_sum(p1: Plane, p2: Plane, xi: np.ndarray, tol: float = 1e-9) -> float:
    """|p1(xi)| + |p2(xi)| for a unit simple 2-vector xi."""
    xi = np.asarray(xi, dtype=float)
    if abs(exterior.norm(xi) - 1.0) > tol:
        raise ValueError(f"2-vector is not unit within {tol}")
    if not exterior.is_simple(xi, max(tol, 1e-14)):
        raise ValueError("2-vector is not simple within tolerance")
    a = exterior.norm(exterior.apply_map2(projector(p1), xi))
    b = exterior.norm(exterior.apply_map2(projector(p2), xi))
    return float(a + b)


def projection_sums(p1: Plane, p2: Plane, xis: np.ndarray) -> np.ndarray:
    """Vectorized projection sums |<xi1, .>| + |<xi2, .>| over rows of xis.

    Uses the rank-one identity |wedge_2 p (xi)| = |<xi_P, xi>|; the
    equivalence with ``projection_sum`` is exercised by the test suite.
    """
    xis = np.asarray(xis, dtype=float)
    return np.abs(xis @ p1.bivector) + np.abs(xis @ p2.bivector)


def sup_projection_sum(p1: Plane, p2: Plane) -> BoundReport:
    """Supremum of the projection sum: max(||A1 + A2||_2, ||A1 - A2||_2).

    Ai is the antisymmetric matrix of Pi, so xi = x ^ y with x, y orthonormal
    gives |p1 xi| + |p2 xi| = |x.A1 y| + |x.A2 y| = max_{s=+-1} |x.(A1 + s A2) y|,
    which is at most ||A1 + s A2||_2.  A top singular pair (u, v) of an
    antisymmetric M is orthonormal (sigma u.v = -u.M u = 0), so u ^ v attains
    it: the comass of xi1 +/- xi2 (Federer, GMT 1.8; Harvey-Lawson 1982).
    Ties keep A1 + A2; argmax is the normalized u ^ v of the larger matrix.
    """
    a1m = exterior.antisymmetric_matrix(p1.bivector)
    a2m = exterior.antisymmetric_matrix(p2.bivector)
    u, s, vh = np.linalg.svd(np.stack([a1m + a2m, a1m - a2m]))
    k = 0 if s[0, 0] >= s[1, 0] else 1
    argmax = exterior.wedge(u[k, :, 0], vh[k, 0])
    argmax /= exterior.norm(argmax)
    alpha = characteristic_angles(p1, p2)
    return BoundReport(
        sup_value=float(s[k, 0]),
        argmax=argmax,
        bound=wirtinger_bound(alpha.alpha1),
        samples=2,
        refinement_iters=0,
    )
