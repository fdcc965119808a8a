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
    """Worker threads of the plateau pinch sweep, the one parallel path.

    A positive integer in ``PLANES4_THREADS`` wins; unset or empty gives
    the cores this process may run on, and any other value gives 1.
    Results are identical at any setting.
    """
    raw = os.environ.get("PLANES4_THREADS", "")
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
