"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerances and runtime budget and prints a
single ``ACCEPTANCE <n> PASS`` line (pytest raises before the print on
failure, so a missing line reads as FAIL).  Run just this file with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from planes4 import annulus as an
from planes4 import bounds as bd
from planes4 import grassmann as gr
from planes4 import plateau as pl
from planes4 import scanner as sc
from planes4 import surfaces as sf
from planes4.cli import run_command
from planes4.rng import SplitMix64

from helpers import brute_force_critical_scale, random_simple_units, sup_grid_oracle

ORTH = (np.pi / 2, np.pi / 2)


class Budget:
    def __init__(self, criterion: int, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"criterion {self.criterion} overran its budget: "
                f"{elapsed:.1f}s > {self.seconds:.0f}s")
            print(f"\nACCEPTANCE {self.criterion} PASS ({elapsed:.1f}s)")


def test_acceptance_1_orthogonal_projection_bound():
    # sup over the orthogonal pair is 1 within 1e-6; the independent dense
    # grid oracle at N=96 agrees within 1e-5
    with Budget(1, 60):
        p1, p2 = gr.canonical_pair(*ORTH)
        rep = bd.sup_projection_sum(p1, p2)
        assert abs(rep.sup_value - 1.0) <= 1e-6
        oracle = sup_grid_oracle(p1, p2, n=96)
        assert abs(rep.sup_value - oracle) <= 1e-5


def test_acceptance_2_equality_set():
    # 1000 xi draws achieve projection sum 1 within 1e-8 and pass
    # membership; 1000 random simple 2-vectors with sum < 0.99 all fail
    with Budget(2, 10):
        gen = SplitMix64(42)
        for _ in range(1000):
            xi = gr.xi_sample(gr.random_xi_element(gen))
            assert abs(gr.projection_sum_standard(xi) - 1.0) <= 1e-8
            assert gr.xi_membership(xi, 1e-8)
        rng = np.random.default_rng(42)
        rejected = 0
        while rejected < 1000:
            xis = random_simple_units(rng, 2000)
            sums = gr.projection_sum_standard(xis)
            for xi in xis[sums < 0.99]:
                assert not gr.xi_membership(xi, 1e-8)
                rejected += 1
                if rejected == 1000:
                    break


def test_acceptance_3_almost_orthogonal_bound():
    # 200 random angle pairs x 500 random simple unit 2-vectors: the
    # 1 + 2cos(alpha1) bound holds with zero violations, and the measured
    # supremum reaches the 1 + cos(a1)cos(a2) witness
    with Budget(3, 300):
        rng = np.random.default_rng(7)
        gen = SplitMix64(7)
        violations = 0
        for _ in range(200):
            a1, a2 = sorted((gen.uniform() * np.pi / 2, gen.uniform() * np.pi / 2))
            p1, p2 = gr.canonical_pair(a1, a2)
            xis = random_simple_units(rng, 500)
            sums = bd.projection_sums(p1, p2, xis)
            violations += int(np.sum(sums > bd.wirtinger_bound(a1) + 1e-9))
            rep = bd.sup_projection_sum(p1, p2)
            assert rep.sup_value >= 1.0 + np.cos(a1) * np.cos(a2) - 1e-6
            assert rep.sup_value <= rep.bound + 1e-7
        assert violations == 0


def test_acceptance_4_annulus_energies():
    with Budget(4, 120):
        # closed form for cos(theta) at r0 = 0.5: exactly 1.2 pi
        fb = an.FourierBoundary(0.0, [1.0], [0.0])
        exact = an.annulus_energy_exact(fb, 0.5)
        assert abs(exact - 1.2 * np.pi) <= 1e-12
        fd = an.fd_oracle(np.cos, np.cos, an.AnnulusSpec(0.5, outer=2.0), (128, 512))
        assert abs(fd - exact) / exact <= 0.01
        # radial log bound: 2*pi*0.01/ln(10), frozen from the formula
        log_val = an.log_annulus_bound(1.0, 0.1)
        assert abs(log_val - 0.027287527076836824) <= 1e-6
        fd_rad = an.fd_oracle(lambda t: np.full_like(t, 0.1),
                              lambda t: np.zeros_like(t),
                              an.AnnulusSpec(0.1), (128, 512))
        assert abs(fd_rad - log_val) / log_val <= 0.01
        # reflection lower bound dominated by the exact energy, 100 random
        # boundaries x 4 radii, zero violations
        rng = np.random.default_rng(4)
        for _ in range(100):
            order = 8
            a = rng.normal(size=order) / (1 + np.arange(order)) ** 2
            b = rng.normal(size=order) / (1 + np.arange(order)) ** 2
            fb = an.FourierBoundary(float(rng.normal()), a, b)
            for r0 in (0.05, 0.1, 0.25, 0.4):
                lower = an.reflection_lower_bound(fb, an.AnnulusSpec(r0))
                assert an.annulus_energy_exact(fb, r0) >= 2.0 * lower - 1e-9


def test_acceptance_5_energy_comparison():
    # 50 randomized boundary orderings: E(f) >= E(g) - 10 * grid tolerance
    with Budget(5, 120):
        rng = np.random.default_rng(5)
        r0 = 0.25
        spec = an.AnnulusSpec(r0)
        grid = (128, 512)
        theta = np.arange(grid[1]) * (2.0 * np.pi / grid[1])
        for _ in range(50):
            a = float(rng.uniform(-1.0, 1.0))
            b = a + float(rng.uniform(0.1, 1.0))
            order = 6
            wob_in = np.abs(
                np.cos(np.multiply.outer(theta, np.arange(1, order + 1)))
                @ (rng.normal(size=order) * 0.1))
            wob_out = np.abs(
                np.sin(np.multiply.outer(theta, np.arange(1, order + 1)))
                @ (rng.normal(size=order) * 0.1))
            e_f = an.fd_oracle(b + wob_in, a - wob_out, spec, grid)
            e_g = an.fd_oracle(lambda t: np.full_like(t, b),
                               lambda t: np.full_like(t, a), spec, grid)
            exact_g = 2.0 * np.pi * (b - a) ** 2 / abs(np.log(r0))
            tol = abs(e_g - exact_g) + 1e-12
            assert e_f >= e_g - 10.0 * tol


def test_acceptance_6_graph_area_and_thin_band():
    with Budget(6, 60):
        rng = np.random.default_rng(6)
        # 100 random smooth maps with gradient capped at 0.9
        for _ in range(100):
            k = rng.normal(size=(2, 3))
            ph = rng.uniform(0, 2 * np.pi, size=(2, 3))
            c = rng.normal(size=(2, 3))

            def phi(x, y, k=k, ph=ph, c=c):
                out = []
                for comp in range(2):
                    val = sum(c[comp, j] * np.sin(k[comp, j] * x
                                                  + k[comp, (j + 1) % 3] * y
                                                  + ph[comp, j])
                              for j in range(3))
                    out.append(val)
                return np.stack(out, axis=-1)

            # rescale so the sampled Frobenius gradient norm peaks at 0.9
            scale = 0.9 / _grad_sup(phi)
            rep = sf.graph_area_check(
                lambda x, y: scale * phi(x, y), 0.25, 1.0)
            assert rep.slack >= -1e-4
        # 100 random Lipschitz bands at radius 3/4
        for _ in range(100):
            order = 5
            ca = rng.normal(size=(2, order))
            sa = rng.normal(size=(2, order))

            def h(t, ca=ca, sa=sa):
                n = np.arange(1, order + 1)
                ang = np.multiply.outer(t, n)
                return np.stack([np.cos(ang) @ ca[0] + np.sin(ang) @ sa[0],
                                 np.cos(ang) @ ca[1] + np.sin(ang) @ sa[1]],
                                axis=1)

            t_fine = np.arange(4096) * (2 * np.pi / 4096)
            vals = h(t_fine)
            deriv = (np.roll(vals, -1, 0) - np.roll(vals, 1, 0)) / (
                2 * (2 * np.pi * 0.75 / 4096))
            lip = float(np.linalg.norm(deriv, axis=1).max())
            scale = 0.9 / max(lip, 1e-9)
            area, bound = sf.band_area(lambda t: scale * h(t), rho=0.75)
            assert area <= bound + 1e-12


def _grad_sup(phi, r_in=0.25, r_out=1.0, n=96):
    r = np.linspace(r_in, r_out, n)
    t = np.arange(2 * n) * (np.pi / n)
    rr, tt = np.meshgrid(r, t, indexing="ij")
    x = rr * np.cos(tt)
    y = rr * np.sin(tt)
    eps = 1e-5
    gx = (phi(x + eps, y) - phi(x - eps, y)) / (2 * eps)
    gy = (phi(x, y + eps) - phi(x, y - eps)) / (2 * eps)
    return float(np.sqrt((gx**2 + gy**2).sum(axis=-1)).max()) * 1.02


def test_acceptance_7_scanner_ground_truth():
    with Budget(7, 120):
        planes = (gr.P01, gr.P02)
        eps, floor = 0.05, 0.01
        # exact plane pair: the scan always reaches the floor
        exact = sc.plane_pair_sample(spacing=4e-3, extent=1.2,
                                     fine_spacing=1e-3, fine_radius=0.3)
        rep = sc.epsilon_process(exact, planes, eps, floor)
        assert rep.floor_hit and not rep.stopped
        # pinches across [0.02, 0.3]: stop within one dyadic step of the
        # brute-force critical scale, with the drift bounds holding
        for rho in (0.02, 0.05, 0.1, 0.2, 0.3):
            e = sc.pinched_pair_sample(rho, 0.2 * rho, spacing=4e-3,
                                       fine_spacing=1e-3, fine_radius=0.3)
            rep = sc.epsilon_process(e, planes, eps, floor)
            oracle = brute_force_critical_scale(e, planes, eps, floor)
            assert rep.stopped, f"no stop at pinch {rho}"
            assert oracle is not None
            assert 0.5 <= rep.r_k / oracle <= 2.0, (rho, rep.r_k, oracle)
            assert np.linalg.norm(rep.o_k) <= 12 * eps + rep.scales[-1] / 8
            centers = rep.centers
            for j in range(1, len(centers) - 1):
                drift = np.linalg.norm(centers[j + 1] - centers[j])
                assert drift <= 12 * rep.scales[j - 1] * eps + rep.scales[j - 1] / 8
            for i in range(1, len(centers)):
                for j in range(i + 1, len(centers)):
                    d = np.linalg.norm(centers[i] - centers[j])
                    s_min = 2.0 ** (-(min(i, j) - 1))
                    assert d <= 24 * eps * s_min + s_min / 4


def test_acceptance_8_plateau_floor_and_ceiling():
    with Budget(8, 1200):
        sweep = (0.05, 0.1, 0.2, 0.3)
        # (a) orthogonal floor: certificate holds on every run
        for pinch in sweep:
            cfg = pl.ExperimentConfig(*ORTH, boundary_segments=256,
                                      pinch_radius=pinch)
            rep = pl.run_experiment(cfg)
            assert rep.final_area >= rep.certificate_bound - rep.tolerance, pinch
            assert rep.certificate_bound >= 2 * np.pi - 2e-2, pinch
            assert rep.verdict != "improved", pinch
        # (b) Lawlor regime at alpha1 = alpha2 = pi/6: some run beats 2 pi
        improved = []
        for pinch in sweep:
            cfg = pl.ExperimentConfig(np.pi / 6, np.pi / 6,
                                      boundary_segments=256, pinch_radius=pinch)
            rep = pl.run_experiment(cfg)
            assert rep.final_area <= rep.initial_area + 1e-12
            improved.append(rep.final_area < 2 * np.pi - 5e-2)
        assert any(improved)


def test_acceptance_9_reproducibility(tmp_path):
    # identical manifests reproduce byte-identical results.csv across the
    # full command surface
    with Budget(9, 600):
        families = [
            ["bounds", "--alpha1", "1.5707963267948966",
             "--alpha2", "1.5707963267948966"],
            ["wirtinger", "--samples", "300", "--seed", "9"],
            ["annulus", "--mode", "exact", "--acoef", "1", "--r0", "0.5",
             "--fd-check"],
            ["scan", "--mesh", "MESHFILE", "--eps", "0.01", "--density", "0.04"],
            ["plateau", "--alpha1", "0.5235987755982988",
             "--alpha2", "0.5235987755982988", "--pinch-sweep", "0.1,0.2",
             "--segments", "64", "--iters", "20"],
        ]
        mesh_path = tmp_path / "flat.mesh4"
        sf.write_mesh4(mesh_path, pl.build_union_mesh(*ORTH, 64))
        for i, family in enumerate(families):
            args = [str(mesh_path) if a == "MESHFILE" else a for a in family]
            out1 = tmp_path / f"run{i}a"
            out2 = tmp_path / f"run{i}b"
            assert run_command(args + ["--out", str(out1)]) == 0
            assert run_command(args + ["--out", str(out2)]) == 0
            b1 = (out1 / "results.csv").read_bytes()
            b2 = (out2 / "results.csv").read_bytes()
            assert b1 == b2, f"family {family[0]} not reproducible"
