import tracemalloc
import warnings

import numpy as np
import pytest

from planes4 import annulus as an
from planes4.errors import NumericalError

from helpers import fd_thomas_oracle


def random_boundary(rng, order=8, scale=1.0):
    a = scale * rng.normal(size=order) / (1 + np.arange(order)) ** 2
    b = scale * rng.normal(size=order) / (1 + np.arange(order)) ** 2
    return an.FourierBoundary(float(rng.normal()), a, b)


# ----------------------------------------------------------------- energy

def test_energy_constant_boundary_is_zero():
    fb = an.FourierBoundary(3.0, [0.0], [0.0])
    assert an.annulus_energy_exact(fb, 0.5) == 0.0


def test_energy_cosine_closed_form():
    fb = an.FourierBoundary(0.0, [1.0], [0.0])
    # 2*pi * (0.4)^2 * (1.5)(2.5) with a_1 = 1/(r0 + 1/r0)
    assert an.annulus_energy_exact(fb, 0.5) == pytest.approx(
        2 * np.pi * 0.4**2 * 1.5 * 2.5, abs=1e-12)
    assert an.annulus_energy_exact(fb, 0.5) == pytest.approx(1.2 * np.pi, abs=1e-12)


def test_energy_quadratic_in_boundary_data():
    fb1 = an.FourierBoundary(0.0, [1.0], [0.0])
    fb2 = an.FourierBoundary(0.0, [2.0], [0.0])
    assert an.annulus_energy_exact(fb2, 0.5) == pytest.approx(
        4.0 * an.annulus_energy_exact(fb1, 0.5), rel=1e-14)


def test_energy_rejects_bad_radius():
    fb = an.FourierBoundary(0.0, [1.0], [0.0])
    for r0 in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            an.annulus_energy_exact(fb, r0)


def test_modewise_inequality_small_radius():
    # (r0^-n - r0^n) >= (1/2)(r0^n + r0^-n) for n >= 1, r0 < 1/2
    for r0 in np.linspace(0.01, 0.4999, 40):
        n = np.arange(1, 65, dtype=float)
        lhs = r0 ** (-n) - r0 ** n
        rhs = 0.5 * (r0 ** n + r0 ** (-n))
        assert (lhs >= rhs).all()


# ------------------------------------------------------------ lower bounds

def test_reflection_bound_cosine():
    fb = an.FourierBoundary(0.0, [1.0], [0.0])
    spec = an.AnnulusSpec(0.25)
    assert an.reflection_lower_bound(fb, spec) == pytest.approx(0.25 * np.pi, abs=1e-13)


def test_reflection_bound_constant_is_zero():
    fb = an.FourierBoundary(7.0, [0.0], [0.0])
    assert an.reflection_lower_bound(fb, an.AnnulusSpec(0.25)) == 0.0


def test_reflection_bound_center_independent_when_admissible():
    fb = an.FourierBoundary(0.0, [1.0], [0.0])
    centered = an.reflection_lower_bound(fb, an.AnnulusSpec(0.25))
    off = an.reflection_lower_bound(fb, an.AnnulusSpec(0.25, center=(0.4, 0.0)))
    assert off == centered


def test_reflection_bound_radius_conditions():
    fb = an.FourierBoundary(0.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        an.reflection_lower_bound(fb, an.AnnulusSpec(0.5))          # needs r0 < 1/2
    with pytest.raises(ValueError):
        # dist(center, unit circle) = 0.4, needs r0 < 0.2
        an.reflection_lower_bound(fb, an.AnnulusSpec(0.25, center=(0.6, 0.0)))


def test_log_bound_values():
    # 2*pi*delta^2*r0^2/|log r0| at delta=1, r0=0.1: 2*pi*0.01/ln(10)
    assert an.log_annulus_bound(1.0, 0.1) == pytest.approx(
        0.027287527076836824, abs=1e-15)
    assert an.log_annulus_bound(0.0, 0.37) == 0.0


def test_log_bound_relaxed_constant():
    value, c = an.log_annulus_bound(1.0, 0.1, 0.25)
    assert c == 101.0
    assert (1.0 - 2.0 / c) ** 2 == pytest.approx(0.9607881580237231, abs=1e-12)
    assert (1.0 - 2.0 / c) ** 2 >= 0.25
    assert value == pytest.approx(0.25 * an.log_annulus_bound(1.0, 0.1), rel=1e-14)
    # large eps drives the constant above 101
    _, c2 = an.log_annulus_bound(1.0, 0.1, 0.9999)
    assert c2 > 101.0
    assert (1.0 - 2.0 / c2) ** 2 >= 0.9999 - 1e-12


def test_log_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        an.log_annulus_bound(1.0, 1.2)
    with pytest.raises(ValueError):
        an.log_annulus_bound(1.0, 0.1, 1.5)


# -------------------------------------------------------------- fd oracle

def test_fd_constant_data_zero_energy():
    spec = an.AnnulusSpec(0.5, outer=2.0)
    e = an.fd_oracle(lambda t: np.full_like(t, 2.0),
                     lambda t: np.full_like(t, 2.0), spec)
    assert abs(e) <= 1e-10


def test_fd_reflected_cosine_matches_closed_form():
    spec = an.AnnulusSpec(0.5, outer=2.0)
    e = an.fd_oracle(np.cos, np.cos, spec, (128, 512))
    assert abs(e - 1.2 * np.pi) / (1.2 * np.pi) <= 0.01


def test_fd_radial_matches_log_bound():
    r0 = 0.1
    e = an.fd_oracle(lambda t: np.full_like(t, r0),
                     lambda t: np.zeros_like(t), an.AnnulusSpec(r0), (128, 512))
    want = an.log_annulus_bound(1.0, r0)
    assert abs(e - want) / want <= 0.01


def test_fd_second_order_convergence():
    spec = an.AnnulusSpec(0.5, outer=2.0)
    errs = []
    for grid in ((64, 256), (128, 512), (256, 1024)):
        e = an.fd_oracle(np.cos, np.cos, spec, grid)
        errs.append(abs(e - 1.2 * np.pi))
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_fd_rejects_coarse_grid_and_bad_data():
    spec = an.AnnulusSpec(0.5, outer=2.0)
    with pytest.raises(ValueError):
        an.fd_oracle(np.cos, np.cos, spec, (32, 512))
    with pytest.raises(ValueError):
        an.fd_oracle(np.ones(100), np.cos, spec, (64, 256))


@pytest.mark.parametrize("grid, rel", [
    ((64, 256), 1e-13), ((128, 512), 1e-13), ((512, 2048), 1e-13),
    # ds/dt ~ 2e-3 at r0 = 0.9: against a long-double solve the sweep's own
    # rounding reaches 3e-13 on random samples, the closed form's 2e-16
    ((2048, 256), 1e-12),
    # odd angular grids have no Nyquist mode
    ((64, 257), 1e-13), ((128, 511), 1e-13),
])
def test_fd_matches_thomas_sweep_oracle(grid, rel):
    # the closed-form mode solution, its energy taken by Parseval, and the
    # tridiagonal sweep on the physical grid solve the same difference
    # equations, on concentric and reflected annuli alike
    rng = np.random.default_rng(36)
    theta = np.arange(grid[1]) * (2.0 * np.pi / grid[1])
    for r0 in (0.01, 0.1, 0.5, 0.9):
        for outer in (1.0, 1.0 / r0):
            spec = an.AnnulusSpec(r0, outer=outer)
            fourier = [random_boundary(rng, order=6).evaluate(theta) for _ in range(2)]
            samples = [rng.normal(size=grid[1]) for _ in range(2)]
            for inner_data, outer_data in (fourier, samples):
                want = fd_thomas_oracle(inner_data, outer_data, spec, grid)
                got = an.fd_oracle(inner_data, outer_data, spec, grid)
                assert abs(got - want) <= rel * abs(want), (r0, outer, got, want)


def test_fd_rejects_non_finite_data_and_energy():
    spec = an.AnnulusSpec(0.5, outer=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy RuntimeWarning on the way
        with pytest.raises(NumericalError, match="residual check"):
            an.fd_oracle(np.full(512, np.nan), np.cos, spec)
        with pytest.raises(NumericalError, match="not finite"):
            an.fd_oracle(lambda t: 1e200 * np.cos(t), np.cos, spec)


def test_fd_energy_ignores_a_large_common_mean():
    # a constant has no discrete gradient; n_r = 500 makes the mode-0 profile
    # k / n_r inexact, so an energy that cancels |f_in|^2 against
    # f_in conj(f_out) would show the mean's round-off here
    spec = an.AnnulusSpec(0.5, outer=2.0)
    base = an.fd_oracle(np.cos, np.cos, spec, (500, 512))
    for mean in (1e3, 1e6):
        shifted = an.fd_oracle(lambda t: mean + np.cos(t), lambda t: mean + np.cos(t),
                               spec, (500, 512))
        assert abs(shifted - base) <= 1e-10 * base, (mean, shifted, base)


def test_fd_peak_memory_at_512_by_2048():
    # 5% above the measured 12.85 MB of the grid-free solve, which holds two
    # (n_r + 1) x (n_t/2 + 1) mode tables and one work table; the Thomas
    # sweep on the physical grid peaked at 42.08 MB
    fb = an.FourierBoundary(0.0, [1.0], [0.0])
    spec = an.AnnulusSpec(0.5, outer=2.0)
    an.fd_oracle(fb.evaluate, fb.evaluate, spec, (512, 2048))      # warm the FFT caches
    tracemalloc.start()
    try:
        an.fd_oracle(fb.evaluate, fb.evaluate, spec, (512, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.49e6, peak


def test_fd_matches_closed_form_on_multimode_boundaries():
    rng = np.random.default_rng(35)
    for _ in range(5):
        fb = random_boundary(rng, order=6)
        r0 = float(rng.uniform(0.2, 0.45))
        exact = an.annulus_energy_exact(fb, r0)
        fd = an.fd_oracle(fb.evaluate, fb.evaluate,
                          an.AnnulusSpec(r0, outer=1.0 / r0), (128, 512))
        assert abs(fd - exact) <= 0.01 * max(exact, 1e-12)


def test_fd_dilation_covariance():
    # conformal invariance: transported data on dilated annuli, same energy
    base = an.fd_oracle(np.cos, np.cos, an.AnnulusSpec(0.5, outer=2.0), (128, 512))
    for lam in (0.5, 2.0):
        e = an.fd_oracle(np.cos, np.cos,
                         an.AnnulusSpec(0.5 * lam, outer=2.0 * lam), (128, 512))
        assert abs(e - base) / base <= 0.01


def test_reflection_bound_dominated_by_exact_energy():
    # the doubled annulus carries twice the one-sided bound
    rng = np.random.default_rng(33)
    for _ in range(100):
        fb = random_boundary(rng)
        for r0 in (0.05, 0.1, 0.25, 0.4):
            exact = an.annulus_energy_exact(fb, r0)
            lower = an.reflection_lower_bound(fb, an.AnnulusSpec(r0))
            assert exact >= 2.0 * lower - 1e-9


def test_energy_comparison_ordered_boundaries():
    # harmonic f above g inner / below g outer has at least g's energy
    rng = np.random.default_rng(34)
    r0 = 0.25
    spec = an.AnnulusSpec(r0)
    grid = (128, 512)
    for _ in range(50):
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(0.1, 1.0))
        bump_in = random_boundary(rng, order=4, scale=0.2)
        bump_out = random_boundary(rng, order=4, scale=0.2)
        theta = np.arange(grid[1]) * (2.0 * np.pi / grid[1])
        f_in = b + np.abs(bump_in.evaluate(theta) - bump_in.mean)
        f_out = a - np.abs(bump_out.evaluate(theta) - bump_out.mean)
        e_f = an.fd_oracle(f_in, f_out, spec, grid)
        e_g = an.fd_oracle(lambda t: np.full_like(t, b),
                           lambda t: np.full_like(t, a), spec, grid)
        exact_g = 2.0 * np.pi * (b - a) ** 2 / abs(np.log(r0))
        tol = abs(e_g - exact_g) + 1e-12
        assert e_f >= e_g - 10.0 * tol
