"""Numerical toolkit for unions of two almost orthogonal 2-planes in R^4.

The package is organized by subject:

* ``exterior``  -- 2-vector algebra on R^4 (wedge, inner product, Pluecker test, Hodge star)
* ``grassmann`` -- planes, characteristic angles, the equality set Xi
* ``bounds``    -- projection-sum bounds and their closed-form supremum
* ``annulus``   -- harmonic-extension Dirichlet energies on planar annuli
* ``surfaces``  -- triangulated surfaces in R^4, areas, shadows, graph bounds
* ``scanner``   -- multiscale flatness scan (dyadic stopping-time process)
* ``plateau``   -- discrete Plateau experiments with projection certificates
* ``cli``       -- command-line front end
"""

__version__ = "0.1.0"

import os

from .errors import ConfigError, NumericalError

__all__ = ["ConfigError", "NumericalError", "__version__", "thread_count"]


def thread_count() -> int:
    """Worker threads from ``PLANES4_THREADS``: a positive integer, else 1.

    One cap for every parallel path (the plateau pinch sweep and the
    scanner's kd-tree queries); results are identical at any setting.
    """
    raw = os.environ.get("PLANES4_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1
