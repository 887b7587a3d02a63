"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -v -s``).

Heavy reference runs are shared through the session-scoped ``preset_run``
cache, so the whole suite stays at desk scale.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from acidfront.analysis import (
    detect_gap,
    effective_diffusivity,
    leveque_yee_step,
    tail_speed,
)
from acidfront.core import ModelParameters, fkpp_minimal_speed
from acidfront.mesh import (
    PeriodicPiecewiseConstant,
    Sinusoidal,
    SingleJump,
    build_uniform_mesh,
    project_cell_averages,
)
from acidfront.scenarios import (
    TABLE3_ROWS,
    convergence_study,
    observed_order,
    run_homogenization_suite,
)
from acidfront.scheme import SchemeOptions, SimulationState, step_imex
from conftest import raw_params
from oracles import diffusion_operator, harmonic_mean_quadrature

TABLE1_PRESETS = ("table1-d0.5", "table1-d1.5", "table1-d2.5", "table1-d12.5")
JUMP_PRESETS = (
    "jump-increasing-d0.5", "jump-increasing-d1.5", "jump-increasing-d12.5",
    "jump-increasing-d35", "jump-decreasing-d0.5", "jump-decreasing-d12.5",
    "jump-increasing-pl-d0.5", "jump-decreasing-pl-d0.5",
    "jump-decreasing-mild-pl-d12.5", "jump-decreasing-weak-pl-d12.5",
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{description}]: PASS")


def test_c01_fixed_point_preservation():
    with criterion(1, "fixed-point preservation"):
        mesh = build_uniform_mesh(0.0, 1.0, 0.005)
        n = mesh.n_cells
        assert n == 200
        p = ModelParameters(d=12.5, r=1.0, D=4e-5, c=70.0)
        opts = SchemeOptions(dt=0.01)
        a_cells = np.ones(n)
        elapsed = 0.0
        for u0, v0, w0 in ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)):
            state = SimulationState(
                mesh, 0.0, np.full(n, u0), np.full(n, v0), np.full(n, w0)
            )
            start = time.perf_counter()
            for _ in range(2000):
                state = step_imex(state, a_cells, p, opts)
            elapsed += time.perf_counter() - start
            drift = max(
                float(np.max(np.abs(state.u - u0))),
                float(np.max(np.abs(state.v - v0))),
                float(np.max(np.abs(state.w - w0))),
            )
            assert drift < 1e-10, f"fixed point ({u0},{v0},{w0}) drifted by {drift}"
        assert elapsed < 1.0, f"2x2000 steps took {elapsed:.2f}s"


def test_c02_conservation_without_reactions():
    with criterion(2, "discrete conservation"):
        mesh = build_uniform_mesh(0.0, 1.0, 0.005)
        n = mesh.n_cells
        x = mesh.centers
        p = raw_params(d=0.0, r=0.0, D=4e-5, c=0.0)
        opts = SchemeOptions(dt=0.01)
        w0 = np.exp(-80.0 * (x - 0.4) ** 2)
        for profile in (SingleJump(0.1, 1.0, 0.625), Sinusoidal(0.1, 1.0, 50.0)):
            a_cells = project_cell_averages(profile, mesh)
            state = SimulationState(mesh, 0.0, np.zeros(n), np.zeros(n), w0)
            mass = float(np.sum(state.w * mesh.widths))
            for _ in range(1000):
                state = step_imex(state, a_cells, p, opts)
                new_mass = float(np.sum(state.w * mesh.widths))
                assert abs(new_mass - mass) < 1e-12 * abs(mass)
                mass = new_mass


def _healthy_residual(state):
    invaded = state.v >= 0.95
    sampled = invaded & (state.u > 1e-6)
    return float(np.quantile(state.u[sampled], 0.1)) if sampled.any() else 0.0


def test_c03_regime_reproduction(preset_run):
    from acidfront.analysis import InvasionRegime, classify_invasion

    with criterion(3, "invasion regimes at T=20"):
        het = preset_run("table1-d0.5").final_state
        assert classify_invasion(het, 0.5) is InvasionRegime.HETEROGENEOUS
        assert abs(_healthy_residual(het) - 0.5) <= 0.05

        hyb = preset_run("table1-d2.5").final_state
        assert classify_invasion(hyb, 2.5) is InvasionRegime.HYBRID

        hom = preset_run("table1-d12.5").final_state
        assert classify_invasion(hom, 12.5) is InvasionRegime.HOMOGENEOUS
        assert detect_gap(hom).present


def test_c04_speed_bound(preset_run):
    with criterion(4, "front speed below the Fisher-KPP bound"):
        bound = fkpp_minimal_speed(1.0, 4e-5) * 1.05
        assert bound == pytest.approx(0.01328, abs=1e-5)
        for name in TABLE1_PRESETS:
            mean, _ = tail_speed(preset_run(name).speed_series)
            assert mean <= bound, f"{name}: tail speed {mean} exceeds {bound}"


def test_c05_frequency_independence(preset_run):
    with criterion(5, "speed independent of oscillation frequency"):
        mean50, _ = tail_speed(preset_run("periodic-w50-d20").speed_series)
        mean100, _ = tail_speed(preset_run("periodic-w100-d20").speed_series)
        assert abs(mean50 - mean100) <= 0.05 * min(mean50, mean100)
        for mean in (mean50, mean100):
            assert abs(mean - 0.012) <= 0.15 * 0.012


def test_c06_exact_shift_oracle():
    with criterion(6, "one-cell-per-step translation oracle"):
        dx, dt = 0.005, 0.01
        n = 200
        v_prev = np.zeros(n)
        v_prev[:60] = 1.0
        v_prev[60:80] = np.linspace(1.0, 0.0, 20, endpoint=False)
        v_next = np.roll(v_prev, 1)
        v_next[0] = 1.0
        theta = leveque_yee_step(v_prev, v_next, dx, dt)
        assert abs(theta - dx / dt) <= 1e-12 * (dx / dt)


def test_c07_harmonic_mean_oracles():
    with criterion(7, "harmonic-mean closed forms vs oracles"):
        rng = np.random.default_rng(2024)
        # piecewise closed form against a brute-force midpoint Riemann sum
        n = 6_000_000
        y = (np.arange(n) + 0.5) / n
        for _ in range(100):
            a0 = rng.uniform(0.4, 1.6)
            a1 = rng.uniform(0.4, 1.6)
            beta = rng.uniform(0.1, 0.9)
            oracle = 1.0 / float(np.mean(np.where(y < beta, 1.0 / a1, 1.0 / a0)))
            closed = effective_diffusivity(PeriodicPiecewiseConstant(a0, a1, beta, 1.0))
            assert abs(closed - oracle) <= 1e-6 * closed
        # sinusoidal quadrature against the analytic identity sqrt(a0*a1)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(0.05, 2.0, size=2))
            for omega in (50.0, 100.0, 200.0):
                got = harmonic_mean_quadrature(Sinusoidal(lo, hi, omega), tol=1e-11)
                assert abs(got - math.sqrt(lo * hi)) <= 1e-8 * math.sqrt(lo * hi)


def test_c08_homogenization_matrix():
    with criterion(8, "homogenization verdict matrix"):
        expected_no = {
            (0.5, 100.0, "pc"), (0.5, 100.0, "sin"),
            (1.5, 100.0, "pc"), (1.5, 100.0, "sin"),
            (30.0, 100.0, "pc"),
        }
        results = run_homogenization_suite(TABLE3_ROWS)
        assert len(results) == 12
        for row in results:
            for family in ("pc", "sin"):
                should_homogenize = (row["d"], row["omega"], family) not in expected_no
                verdict = row[family]
                assert verdict.homogenized == should_homogenize, (
                    f"d={row['d']} omega={row['omega']} "
                    f"({row['alpha0']},{row['alpha1']}) {family}: "
                    f"homogenized={verdict.homogenized}, expected {should_homogenize} "
                    f"(gap {verdict.relative_gap:.4f}, osc {verdict.oscillation_amplitude:.4f})"
                )


def test_c09_convergence_order():
    with criterion(9, "manufactured-solution convergence order"):
        rows = convergence_study(levels=4)
        orders = [row["order"] for row in rows if row["order"] is not None]
        assert all(order >= 0.9 for order in orders), f"pairwise orders {orders}"
        assert abs(observed_order(rows)) >= 0.9


def test_c10_splitting_identity():
    with criterion(10, "flux form equals regrouped derivative splitting"):
        rng = np.random.default_rng(99)
        for n in (8, 64, 256):
            mesh = build_uniform_mesh(0.0, 1.0, 1.0 / n)
            a = rng.uniform(0.05, 2.0, n)
            kappa = 0.5 * (a[:-1] + a[1:])
            sub, diag, sup = diffusion_operator(kappa, mesh)
            dx2 = (1.0 / n) ** 2
            i = np.arange(1, n - 1)
            assert np.allclose(sup[1:], (a[i] + a[i + 1]) / (2.0 * dx2), rtol=1e-15)
            assert np.allclose(sub[:-1], (a[i - 1] + a[i]) / (2.0 * dx2), rtol=1e-15)
            assert np.allclose(
                diag[1:-1],
                -(a[i - 1] + 2.0 * a[i] + a[i + 1]) / (2.0 * dx2),
                rtol=1e-15,
            )


def test_c11_positivity_sweep(preset_run):
    with criterion(11, "positivity across baseline and single-jump presets"):
        for name in TABLE1_PRESETS + JUMP_PRESETS:
            result = preset_run(name)
            worst = min(result.min_u, result.min_v, result.min_w)
            assert worst >= -1e-8, f"{name}: min field value {worst}"
