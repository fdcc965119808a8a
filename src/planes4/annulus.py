"""Harmonic-extension Dirichlet energies on planar annuli.

Boundary data on a circle is held as truncated Fourier data
(mean, {A_n}, {B_n}).  The closed-form energy of the reflected harmonic
extension over B(0, 1/r0) \\ B(0, r0) is

    2*pi * sum_n n (A_n^2 + B_n^2) (r0^-n - r0^n) / (r0^n + r0^-n),

evaluated here through tanh(n log(1/r0)) for stability at small r0.  The
one-sided lower bound for extensions into B(0,1) \\ B(q, r0) is
(1/4) r0^-1 * integral |u0 - mean|^2 over the small circle, which reduces
to (pi/4) sum (A_n^2 + B_n^2); it is center-independent whenever
r0 < dist(q, unit circle) / 2.

``fd_oracle`` validates the closed forms: it solves the Laplace equation
on the annulus by second-order finite differences.  Working in log-polar
coordinates s = log r makes the equation the flat Laplacian u_ss + u_tt;
the uniform s-grid is the geometric radial spacing that resolves a small
inner boundary, and the Dirichlet energy is conformally invariant, so

    E = integral (u_s^2 + u_t^2) ds dt

needs no metric factors.  After an FFT in theta each mode's difference
equation in s is a constant-coefficient recurrence, which ``fd_oracle``
solves exactly with sinh profiles evaluated so that nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError

BoundaryData = Callable[[np.ndarray], np.ndarray] | Sequence[float] | np.ndarray


@dataclass(frozen=True)
class FourierBoundary:
    """Truncated Fourier data of a circle-boundary function."""

    mean: float
    a: np.ndarray   # cosine coefficients A_1..A_N
    b: np.ndarray   # sine coefficients B_1..B_N

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("coefficient lists must be 1-d and of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def order(self) -> int:
        return len(self.a)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        n = np.arange(1, self.order + 1)
        ang = np.multiply.outer(theta, n)
        return self.mean + np.cos(ang) @ self.a + np.sin(ang) @ self.b


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus geometry: inner radius, inner-circle center, outer radius."""

    r0: float
    center: tuple[float, float] = (0.0, 0.0)
    outer: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.r0 < self.outer):
            raise ConfigError(f"need 0 < r0 < outer, got r0={self.r0}, outer={self.outer}")


def fourier_decompose(samples: np.ndarray, order: int) -> FourierBoundary:
    """Trapezoidal-rule Fourier coefficients from equally spaced (theta, value) rows.

    Exact to roundoff for trigonometric polynomials of degree <= order once
    the sample count is at least 2(order+1); at least 4*order + 1 samples
    are required here.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("samples must be rows of (theta, value)")
    m = len(samples)
    if m < 4 * order + 1:
        raise ValueError(f"need at least {4 * order + 1} samples for order {order}, got {m}")
    theta = samples[:, 0]
    vals = samples[:, 1]
    step = 2.0 * np.pi / m
    expected = theta[0] + step * np.arange(m)
    if np.max(np.abs((theta - expected + np.pi) % (2.0 * np.pi) - np.pi)) > 1e-9:
        raise ValueError("samples are not equally spaced over the circle")
    n = np.arange(1, order + 1)
    ang = np.multiply.outer(n, theta)
    mean = float(np.mean(vals))
    a = (2.0 / m) * (np.cos(ang) @ vals)
    b = (2.0 / m) * (np.sin(ang) @ vals)
    return FourierBoundary(mean, a, b)


def annulus_energy_exact(fb: FourierBoundary, r0: float) -> float:
    """Dirichlet energy over B(0,1/r0) \\ B(0,r0) of the reflected extension."""
    if not (0.0 < r0 < 1.0):
        raise ConfigError(f"r0 must lie in (0, 1), got {r0}")
    n = np.arange(1, fb.order + 1, dtype=float)
    ratio = np.tanh(n * abs(np.log(r0)))   # (r0^-n - r0^n) / (r0^n + r0^-n)
    return float(2.0 * np.pi * np.sum(n * (fb.a**2 + fb.b**2) * ratio))


def _as_fourier(data: FourierBoundary | np.ndarray, order: int = 32) -> FourierBoundary:
    if isinstance(data, FourierBoundary):
        return data
    return fourier_decompose(np.asarray(data, dtype=float), order)


def reflection_lower_bound(data: FourierBoundary | np.ndarray, spec: AnnulusSpec) -> float:
    """One-sided Dirichlet-energy floor (1/4) r0^-1 * int |u0 - mean|^2 ds.

    In Fourier data this is (pi/4) sum (A_n^2 + B_n^2); the value does not
    depend on the inner-circle center as long as the admissibility radius
    condition holds.
    """
    fb = _as_fourier(data)
    dist = spec.outer - np.hypot(*spec.center)       # outer/2 at the centre
    if not spec.r0 < 0.5 * dist:
        raise ConfigError(f"reflection bound needs r0 < dist(center, outer circle)/2, "
                          f"got r0={spec.r0}, dist={dist}")
    return float(0.25 * np.pi * np.sum(fb.a**2 + fb.b**2))


def log_annulus_bound(delta: float, r0: float, eps: float | None = None):
    """Energy floor 2*pi*delta^2*r0^2/|log r0| for data delta*r0 inner, 0 outer.

    Without ``eps`` returns the sharp floor.  With ``eps`` in (0, 1) returns
    the relaxed floor eps * 2*pi*delta^2*r0^2/|log r0| together with the
    constant C(eps) = max(101, 2/(1 - sqrt(eps))), which satisfies
    (1 - 2/C)^2 >= eps, for boundary data only pinned within delta*r0/C.
    """
    if not (0.0 < r0 < 1.0):
        raise ConfigError(f"r0 must lie in (0, 1), got {r0}")
    base = 2.0 * np.pi * np.float64(delta)**2 * r0**2 / abs(np.log(r0))   # inf, not OverflowError
    if eps is None:
        return float(base)
    if not (0.0 < eps < 1.0):
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    c = max(101.0, 2.0 / (1.0 - np.sqrt(eps)))
    return float(eps * base), float(c)


def _boundary_values(data: BoundaryData, theta: np.ndarray) -> np.ndarray:
    if callable(data):
        vals = np.asarray(data(theta), dtype=float)
    else:
        vals = np.asarray(data, dtype=float)
    if vals.shape != theta.shape:
        raise ValueError(f"boundary data has shape {vals.shape}, expected {theta.shape}")
    return vals


def _interior_rows(u_in: np.ndarray, u_out: np.ndarray, n_r: int, ds: float, dt: float):
    """Rows k = 1..n_r-1: mode m is f_in w(n_r - k) + f_out w(k), w = sinh(k th)/sinh(n_r th)."""
    f_in, f_out = np.fft.rfft(u_in), np.fft.rfft(u_out)
    k = np.arange(n_r + 1)[:, None]
    th = 2.0 * np.arcsinh((ds / dt) * np.sin(np.arange(1, len(f_in)) * (0.5 * dt)))
    w = np.empty((n_r + 1, len(f_in)))
    w[:, :1] = k / n_r                          # mode 0: linear in s
    w[:, 1:] = np.exp((k - n_r) * th) * np.expm1(-2.0 * k * th) / np.expm1(-2.0 * n_r * th)
    return np.fft.irfft(f_in * w[-2:0:-1] + f_out * w[1:-1], n=len(u_in), axis=1)


def fd_oracle(
    inner: BoundaryData,
    outer: BoundaryData,
    spec: AnnulusSpec,
    grid: tuple[int, int] = (128, 512),
) -> float:
    """Discrete Dirichlet energy of the FD harmonic solution on the annulus.

    ``inner`` and ``outer`` are boundary values on the two circles, given
    either as callables of theta or as arrays matching the angular grid.
    After an FFT in theta, mode m of the five-point scheme on rows k = 0..n_r
    is u[k-1] - 2 cosh(th_m) u[k] + u[k+1] = 0 with the end rows fixed, where
    cosh(th_m) = 1 + 2 (ds/dt)^2 sin^2(m dt/2), i.e. th_m = 2 asinh((ds/dt)
    sin(m dt/2)).  Its exact solution is

        u[k] = (f_in sinh((n_r - k) th_m) + f_out sinh(k th_m)) / sinh(n_r th_m),

    and k/n_r interpolation for m = 0.  Each ratio is evaluated as
    exp((k - n_r) th) expm1(-2k th) / expm1(-2 n_r th): every factor lies in
    [-1, 1], so nothing overflows although n_r th_m reaches about 820 at
    512 x 2048 (r0 = 1/2, outer 2).  The energy uses cell-centered Q1
    gradients and converges at O(h^2) on smooth data.
    """
    n_r, n_t = grid
    if n_r < 64 or n_t < 256:
        raise ConfigError(f"grid must be at least 64 radial x 256 angular, got {grid}")
    theta = np.arange(n_t) * (2.0 * np.pi / n_t)
    u_in = _boundary_values(inner, theta)
    u_out = _boundary_values(outer, theta)

    s0, s1 = np.log(spec.r0), np.log(spec.outer)
    ds = (s1 - s0) / n_r
    dt = 2.0 * np.pi / n_t

    u = np.vstack([u_in, _interior_rows(u_in, u_out, n_r, ds, dt), u_out])

    residual = float(np.max(np.abs(
        u[:-2] + u[2:] - 2.0 * u[1:-1]
        + (ds / dt) ** 2 * (np.roll(u[1:-1], 1, axis=1) + np.roll(u[1:-1], -1, axis=1)
                            - 2.0 * u[1:-1])
    )))
    scale = max(1.0, float(np.max(np.abs(u))))
    if not residual <= 1e-8 * scale / ds**2:
        raise NumericalError(f"annulus solve failed its residual check: {residual:.3e}")

    us = (u[1:] - u[:-1])
    us = 0.5 * (us + np.roll(us, -1, axis=1)) / ds
    ut = np.roll(u, -1, axis=1) - u
    ut = 0.5 * (ut[1:] + ut[:-1]) / dt
    energy = float(np.sum(us**2 + ut**2) * ds * dt)
    if not np.isfinite(energy):
        raise NumericalError(f"annulus energy is not finite: {energy}")
    return energy
