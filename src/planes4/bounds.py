"""Projection-sum bounds for unit simple 2-vectors against a plane pair.

For planes P1, P2 with orthogonal projections p1, p2, the quantity of
interest is |p1(xi)| + |p2(xi)| over unit simple 2-vectors xi.  For an
orthogonal pair the supremum is 1; in general it is bounded by
1 + 2 cos(alpha1), the one proven statement here.  The supremum itself
has a closed form, the comass of xi1 +/- xi2 (see ``sup_projection_sum``),
read off the self-dual and anti-self-dual halves of those two 2-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior
from .grassmann import Plane, characteristic_angles


@dataclass(frozen=True)
class BoundReport:
    sup_value: float
    argmax: np.ndarray          # unit simple 2-vector achieving sup_value
    bound: float                # proven bound 1 + 2 cos(alpha1)
    # the two fields below are constant and kept because the bounds probe
    # of perfbench/tracer.py reads them
    samples: int                # 2-vectors xi1 +/- xi2 whose comass is taken: 2
    refinement_iters: int       # iterations of refinement: 0, no search runs


def wirtinger_bound(alpha1: float) -> float:
    """Projection-sum bound 1 + 2 cos(alpha1) for pairs with smaller angle alpha1."""
    if not (0.0 <= alpha1 <= np.pi / 2 + 1e-15):
        raise ValueError(f"alpha1 must lie in [0, pi/2], got {alpha1}")
    return 1.0 + 2.0 * np.cos(alpha1)


def area_lower_bound(eps: float) -> float:
    """Certified area floor 2*pi/(1+eps) for sets projecting onto both unit disks."""
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return 2.0 * np.pi / (1.0 + eps)


def projection_sums(p1: Plane, p2: Plane, xis: np.ndarray) -> np.ndarray:
    """Vectorized projection sums |<xi1, .>| + |<xi2, .>| over rows of xis.

    Uses the rank-one identity |wedge_2 p (xi)| = |<xi_P, xi>|; the test
    suite checks it against the induced map of the projector.
    """
    xis = np.asarray(xis, dtype=float)
    return np.abs(xis @ p1.bivector) + np.abs(xis @ p2.bivector)


#: the unit half taken when a half of omega vanishes: (e12 + e34)/sqrt(2)
#: for the self-dual half, (e12 - e34)/sqrt(2) for the anti-self-dual one
_UNIT_HALVES = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 0.0, 0.0, -1.0]]) / np.sqrt(2.0)


def sup_projection_sum(p1: Plane, p2: Plane) -> BoundReport:
    """Supremum of the projection sum: the larger comass of xi1 + xi2, xi1 - xi2.

    With xi_i the bivector of P_i, |p1 xi| + |p2 xi| = |<xi1, xi>| + |<xi2, xi>|
    = max_{s=+-1} |<omega_s, xi>| for omega_s = xi1 + s xi2, so the supremum
    is the larger comass of omega_s.  The Hodge star splits a 2-vector into
    halves xi+- = (xi +- *xi)/2 with |xi+|^2 - |xi-|^2 = 2 pluecker(xi), so a
    unit 2-vector is simple exactly when |xi+| = |xi-| = 1/sqrt(2), and every
    such pair of halves is a unit simple xi.  Hence <omega, xi> =
    <omega+, xi+> + <omega-, xi->, at most (|omega+| + |omega-|)/sqrt(2), with
    equality at xi+- = omega+- / (sqrt(2) |omega+-|) (Harvey-Lawson 1982).
    Ties keep s = +1; argmax is (omega+/|omega+| + omega-/|omega-|)/sqrt(2),
    where a half of norm exactly 0 takes its unit vector from ``_UNIT_HALVES``:
    (e12 + e34)/sqrt(2) or (e12 - e34)/sqrt(2).
    """
    best = None
    for s in (1.0, -1.0):
        omega = p1.bivector + s * p2.bivector
        star = exterior.star(omega)
        halves = np.stack([omega + star, omega - star]) / 2.0
        norms = exterior.norm(halves)
        value = float(norms.sum()) / np.sqrt(2.0)
        if best is None or value > best[0]:
            best = (value, halves, norms)
    value, halves, norms = best
    units = [h / n if n > 0.0 else u for h, n, u in zip(halves, norms, _UNIT_HALVES)]
    alpha = characteristic_angles(p1, p2)
    return BoundReport(
        sup_value=value,
        argmax=(units[0] + units[1]) / np.sqrt(2.0),
        bound=wirtinger_bound(alpha.alpha1),
        samples=2,
        refinement_iters=0,
    )
