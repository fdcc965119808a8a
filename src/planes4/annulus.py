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
solves exactly with cosh and sinh profiles evaluated so that nothing
overflows.  It never forms the physical grid: the scheme's residual is
bounded mode by mode, and the Q1 energy is summed over the modes by
Parseval's identity.
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


def annulus_energy_exact(fb: FourierBoundary, r0: float) -> float:
    """Dirichlet energy over B(0,1/r0) \\ B(0,r0) of the reflected extension."""
    if not (0.0 < r0 < 1.0):
        raise ConfigError(f"r0 must lie in (0, 1), got {r0}")
    n = np.arange(1, fb.order + 1, dtype=float)
    ratio = np.tanh(n * abs(np.log(r0)))   # (r0^-n - r0^n) / (r0^n + r0^-n)
    return float(2.0 * np.pi * np.sum(n * (fb.a**2 + fb.b**2) * ratio))


def reflection_lower_bound(fb: FourierBoundary, spec: AnnulusSpec) -> float:
    """One-sided Dirichlet-energy floor (1/4) r0^-1 * int |u0 - mean|^2 ds.

    In Fourier data this is (pi/4) sum (A_n^2 + B_n^2); the value does not
    depend on the inner-circle center as long as the admissibility radius
    condition holds.
    """
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


def _mode_sums(table: np.ndarray, c: np.ndarray):
    """Per column of T: max_k |T[k-1] - c T[k] + T[k+1]| and sum_k (T[k+1] -+ T[k])^2."""
    buf = np.empty((len(table) - 1, table.shape[1]))
    e = np.multiply(table[1:-1], -c, out=buf[1:])
    e += table[:-2]
    e += table[2:]
    rho = np.max(np.abs(e, out=e), axis=0)
    np.subtract(table[1:], table[:-1], out=buf)
    diff = np.einsum("km,km->m", buf, buf)
    np.add(table[1:], table[:-1], out=buf)
    return rho, diff, np.einsum("km,km->m", buf, buf)


def fd_oracle(
    inner: BoundaryData,
    outer: BoundaryData,
    spec: AnnulusSpec,
    grid: tuple[int, int] = (128, 512),
) -> float:
    """Discrete Dirichlet energy of the FD harmonic solution on a concentric annulus.

    ``inner`` and ``outer`` are boundary values on the two circles, given
    either as callables of theta or as arrays matching the angular grid.
    After an FFT in theta, mode m (phi = 2 pi m / n_t) of the five-point
    scheme is u[k-1] - c u[k] + u[k+1] = 0 on rows k = 0..n_r with the end
    rows fixed, c = 2 + 4 (ds/dt)^2 sin^2(phi/2) = 2 cosh(th).  With
    x = k - n_r/2, p = (f_out + f_in)/2 and q = (f_out - f_in)/2 its solution
    is U_k = p g[k] + q h[k], g = cosh(x th) / cosh(n_r th/2) and
    h = sinh(x th) / sinh(n_r th/2) (g = 1, h = 2x/n_r for m = 0), each
    evaluated as e^{(|x| - n_r/2) th} times bounded expm1 ratios, so nothing
    overflows although n_r th reaches about 820 at 512 x 2048.  No grid is
    formed.  A real row is (1/n_t) sum_m mu_m Re(U_m e^{i j phi_m}) over the
    rfft modes, mu = 1 for DC and (n_t even) Nyquist and 2 otherwise, so:

    Residual.  Mode m of the residual on row k is p e_g[k] + q e_h[k] with
    e[k] = T[k-1] - c T[k] + T[k+1], hence (1/n_t) sum_m mu_m (|p| max|e_g| +
    |q| max|e_h|) bounds it at every grid point; it must stay within
    1e-8 max(1, |u_in|, |u_out|) / ds^2.

    Energy.  The cell-centred Q1 gradients are (D[j] + D[j+1]) / (2 ds) and
    (S[j+1] - S[j]) / (2 dt), D = u[k+1] - u[k], S = u[k+1] + u[k]; a column
    shift multiplies mode m by e^{i phi}, so by Parseval
    E = (ds dt / n_t) sum_m mu_m sum_k [cos^2(phi/2) |D_k|^2 / ds^2
    + sin^2(phi/2) |S_k|^2 / dt^2].  Differences and pair sums of the even g
    and the odd h have opposite parity about the middle cell, so the p-q
    cross terms vanish: sum_k |D_k|^2 = |p|^2 sum (dg)^2 + |q|^2 sum (dh)^2,
    and likewise for S with pair sums.  Sums of squares lose nothing to a
    large common mean.  The energy converges at O(h^2) on smooth data.
    """
    n_r, n_t = grid
    if n_r < 64 or n_t < 256:
        raise ConfigError(f"grid must be at least 64 radial x 256 angular, got {grid}")
    if any(spec.center):
        raise ConfigError(f"fd_oracle solves a concentric annulus only, got center={spec.center}")
    theta = np.arange(n_t) * (2.0 * np.pi / n_t)
    u_in = _boundary_values(inner, theta)
    u_out = _boundary_values(outer, theta)

    s0, s1 = np.log(spec.r0), np.log(spec.outer)
    ds = (s1 - s0) / n_r
    dt = 2.0 * np.pi / n_t

    with np.errstate(over="ignore", invalid="ignore"):   # non-finite data fail the checks
        f_in, f_out = np.fft.rfft(u_in), np.fft.rfft(u_out)
        p, q = 0.5 * (f_out + f_in), 0.5 * (f_out - f_in)
        m = np.arange(len(f_in))
        mu = np.where((m == 0) | (2 * m == n_t), 1.0, 2.0)
        half = m * (0.5 * dt)                                     # phi_m / 2
        th = 2.0 * np.arcsinh((ds / dt) * np.sin(half))
        x = np.arange(n_r + 1)[:, None] - 0.5 * n_r
        g = (np.abs(x) - 0.5 * n_r) * th
        np.maximum(g, -700.0, out=g)   # weights under 1e-304 add nothing; exp is slow to underflow
        np.exp(g, out=g)
        t = np.abs(x) * (-2.0 * th)
        np.expm1(t, out=t)
        h = g * t
        h /= np.expm1(-n_r * th)         # 0/0 in column 0, overwritten next
        np.copysign(h, x, out=h)
        h[:, 0] = x[:, 0] / (0.5 * n_r)
        t += 2.0
        g *= t
        g /= 2.0 + np.expm1(-n_r * th)
        del t

        c = 2.0 + 4.0 * (ds / dt) ** 2 * np.sin(half) ** 2
        rho_g, dg, sg = _mode_sums(g, c)
        rho_h, dh, sh = _mode_sums(h, c)
        residual = float(np.sum(mu * (np.abs(p) * rho_g + np.abs(q) * rho_h))) / n_t
        scale = max(1.0, float(np.max(np.abs(u_in))), float(np.max(np.abs(u_out))))
        if not residual <= 1e-8 * scale / ds**2:
            raise NumericalError(f"annulus solve failed its residual check: {residual:.3e}")

        pp, qq = np.abs(p) ** 2, np.abs(q) ** 2
        energy = float(np.sum(mu * (np.cos(half) ** 2 * (pp * dg + qq * dh) / ds**2
                                    + np.sin(half) ** 2 * (pp * sg + qq * sh) / dt**2)))
        energy *= ds * dt / n_t
    if not np.isfinite(energy):
        raise NumericalError(f"annulus energy is not finite: {energy}")
    return energy
