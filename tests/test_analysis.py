import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acidfront.analysis import (
    GAP_THRESHOLD,
    InvasionRegime,
    WaveSpeedRecorder,
    WaveSpeedSeries,
    _low_decile,
    classify_invasion,
    detect_gap,
    effective_diffusivity,
    homogenization_compare,
    leveque_yee_step,
    tail_speed,
)
from acidfront.core import ModelParameters
from acidfront.mesh import Constant, PeriodicPiecewiseConstant, Sinusoidal, build_uniform_mesh
from acidfront.scenarios import (
    PIECEWISE_LINEAR,
    ScenarioConfig,
    effective_twin,
    initial_state,
    preset,
    preset_names,
    run_configs,
)
from acidfront.scheme import SchemeOptions, SimulationState, run
from oracles import harmonic_mean_quadrature


def front_profile(n, level=1.0, drop_at=50, ramp=20):
    v = np.zeros(n)
    v[:drop_at] = level
    v[drop_at : drop_at + ramp] = level * np.linspace(1.0, 0.0, ramp, endpoint=False)
    return v


class TestLevequeYeeStep:
    def test_stationary_profile(self):
        v = front_profile(200)
        assert leveque_yee_step(v, v, 0.005, 0.01) == 0.0

    def test_one_cell_shift(self):
        v = front_profile(200)
        shifted = np.roll(v, 1)
        shifted[0] = 1.0
        theta = leveque_yee_step(v, shifted, 0.005, 0.01)
        assert theta == pytest.approx(0.5, rel=1e-12)

    def test_direct_sum_value(self):
        v = np.zeros(100)
        w = v.copy()
        w[10] = 0.2
        w[11] = 0.3
        theta = leveque_yee_step(v, w, 0.005, 0.01)
        assert theta == pytest.approx(0.25, rel=1e-12)

    def test_retreating_front(self):
        v = front_profile(200)
        shifted = np.roll(v, -1)
        shifted[-1] = 0.0
        theta = leveque_yee_step(v, shifted, 0.005, 0.01)
        assert theta == pytest.approx(-0.5, rel=1e-12)

    def test_one_estimate_per_run(self):
        # (B, N) fields: row k moves k cells
        v = np.stack([front_profile(200)] * 3)
        shifted = np.stack([np.roll(row, k) for k, row in enumerate(v)])
        for k in range(3):
            shifted[k, :k] = 1.0
        theta = leveque_yee_step(v, shifted, 0.005, 0.01)
        assert theta.shape == (3,)
        assert theta == pytest.approx([0.0, 0.5, 1.0], rel=1e-12, abs=1e-15)

    def test_far_field_states_are_fixed(self):
        # V_INVADED and V_INTACT are the model's constants, not arguments
        v = front_profile(200)
        with pytest.raises(TypeError):
            leveque_yee_step(v, v, 0.005, 0.01, 1.0, 0.0)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    def test_linear_in_increment(self, scale):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.0, 1.0, 64)
        delta = rng.uniform(-0.1, 0.1, 64)
        theta1 = leveque_yee_step(v, v + delta, 0.01, 0.02)
        theta2 = leveque_yee_step(v, v + scale * delta, 0.01, 0.02)
        assert theta2 == pytest.approx(scale * theta1, rel=1e-9, abs=1e-12)

    @given(k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20)
    def test_translation_oracle(self, k):
        v = front_profile(200, drop_at=80, ramp=30)
        shifted = np.roll(v, k)
        shifted[:k] = 1.0
        theta = leveque_yee_step(v, shifted, 0.005, 0.01)
        assert theta == pytest.approx(k * 0.5, rel=1e-12)


class TestTailSpeed:
    def test_constant_series(self):
        series = WaveSpeedSeries(np.full(100, 0.012), np.arange(100.0))
        mean, ptp = tail_speed(series)
        assert mean == pytest.approx(0.012)
        assert ptp == 0.0

    def test_alternating_series(self):
        # the trailing quarter of 96 steps holds 12 of each value
        thetas = np.where(np.arange(96) % 2 == 0, 0.010, 0.014)
        series = WaveSpeedSeries(thetas, np.arange(96.0))
        mean, ptp = tail_speed(series)
        assert mean == pytest.approx(0.012)
        assert ptp == pytest.approx(1.0 / 3.0)

    def test_tail_window_selects_trailing_quarter(self):
        thetas = np.concatenate([np.full(75, 100.0), np.full(25, 0.012)])
        series = WaveSpeedSeries(thetas, np.arange(100.0))
        mean, ptp = tail_speed(series)
        assert mean == pytest.approx(0.012)
        assert ptp == 0.0

    def test_empty_series_rejected(self):
        series = WaveSpeedSeries(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            tail_speed(series)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            WaveSpeedSeries(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            WaveSpeedSeries(np.zeros((2, 3)), np.zeros((2, 3)))


def synthetic_state(mesh, v, u, w=None):
    w = np.zeros(mesh.n_cells) if w is None else w
    return SimulationState(mesh, 20.0, u, v, w)


class TestDetectGap:
    def test_intact_tissue_has_no_gap(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = synthetic_state(m, np.zeros(n), np.ones(n))
        report = detect_gap(s)
        assert not report.present
        assert report.width == 0.0
        assert GAP_THRESHOLD == 0.01

    def test_synthetic_gap_location(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        x = m.centers
        v = np.where(x < 0.3, 1.0, 0.0)
        u = np.where(x > 0.6, 1.0, 0.0)
        report = detect_gap(synthetic_state(m, v, u))
        assert report.present
        assert report.left_edge == pytest.approx(0.3, abs=0.01)
        assert report.right_edge == pytest.approx(0.6, abs=0.01)
        assert report.width == pytest.approx(0.3, abs=0.02)

    def test_single_cell_zone_is_not_a_gap(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        v = np.array([1.0, 1.0, 0.0, 0.0])
        u = np.array([0.0, 0.0, 0.0, 1.0])
        report = detect_gap(synthetic_state(m, v, u))
        assert not report.present

    def test_widest_zone_wins(self):
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        v = np.ones(20)
        u = np.zeros(20)
        v[4:6] = 0.0   # two-cell zone
        v[10:16] = 0.0  # six-cell zone
        report = detect_gap(synthetic_state(m, v, u))
        assert report.left_edge == pytest.approx(m.centers[10])
        assert report.right_edge == pytest.approx(m.centers[15])


class TestClassifyInvasion:
    def make_state(self, residual, gap):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        x = m.centers
        v = np.where(x < 0.5, 1.0, 0.0)
        u = np.full(m.n_cells, residual)
        u[x < 0.1] = 0.0          # initial tumour core never carried tissue
        u[x >= (0.7 if gap else 0.502)] = 1.0
        if not gap:
            u[(x >= 0.5) & (x < 0.502)] = 0.3  # overlap instead of a gap
        w = np.where(x < 0.5, 1.0, 0.0)
        return synthetic_state(m, v, u, w)

    def test_heterogeneous(self):
        s = self.make_state(residual=0.5, gap=False)
        assert classify_invasion(s, d=0.5) is InvasionRegime.HETEROGENEOUS

    def test_homogeneous(self):
        s = self.make_state(residual=0.0, gap=True)
        assert classify_invasion(s, d=12.5) is InvasionRegime.HOMOGENEOUS

    def test_hybrid(self):
        s = self.make_state(residual=0.0, gap=False)
        assert classify_invasion(s, d=2.5) is InvasionRegime.HYBRID

    def test_residual_requires_small_d(self):
        # residual matches 1-d only formally; for d >= 1 it cannot be heterogeneous
        s = self.make_state(residual=0.0, gap=False)
        assert classify_invasion(s, d=1.0) is not InvasionRegime.HETEROGENEOUS

    def test_no_front_rejected(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        s = synthetic_state(m, np.ones(m.n_cells), np.zeros(m.n_cells))
        with pytest.raises(ValueError):
            classify_invasion(s, d=0.5)

    @pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_d_rejected(self, d):
        s = self.make_state(residual=0.0, gap=True)
        with pytest.raises(ValueError, match="destructiveness d"):
            classify_invasion(s, d=d)

    def test_heterogeneous_state_has_no_gap(self):
        s = self.make_state(residual=0.5, gap=False)
        assert classify_invasion(s, d=0.5) is InvasionRegime.HETEROGENEOUS
        assert not detect_gap(s).present

    def test_state_left_unchanged(self):
        # the residual's sample is partitioned in place, so it must be a copy
        s = self.make_state(residual=0.5, gap=False)
        u = s.u.copy()
        sampled = (s.v >= 0.95) & (u > 0.0)
        u[sampled] += np.linspace(0.04, -0.04, int(sampled.sum()))
        s = synthetic_state(s.mesh, s.v, u, s.w)
        assert classify_invasion(s, d=0.5) is InvasionRegime.HETEROGENEOUS
        assert s.u.tobytes() == u.tobytes()


class TestLowDecile:
    # sizes 1, 11 and 21 put numpy's virtual index 0.1*(n - 1) on a whole
    # number; 2 is the smallest size that interpolates
    @given(
        x=hnp.arrays(
            np.float64,
            st.sampled_from([1, 2, 11, 21]) | st.integers(min_value=1, max_value=600),
            elements=st.floats(min_value=1e-6, max_value=2.0),
        )
    )
    @example(x=np.resize([0.7, 0.2, 0.2, 1.3], 600))
    def test_equals_numpy_quantile(self, x):
        expected = np.quantile(x, 0.1)
        assert np.float64(_low_decile(x.copy())).tobytes() == expected.tobytes()


def square_wave_mean(alpha0, alpha1, beta):
    """The closed-form harmonic mean of a one-period square wave."""
    return effective_diffusivity(PeriodicPiecewiseConstant(alpha0, alpha1, beta, 1.0))


class TestHarmonicMeanPiecewise:
    def test_constant_profile(self):
        assert square_wave_mean(0.7, 0.7, 0.3) == pytest.approx(0.7)

    def test_reference_values(self):
        assert square_wave_mean(0.01, 1.0, 0.5) == pytest.approx(0.01 / 0.505)
        assert square_wave_mean(0.4, 0.6, 0.5) == pytest.approx(0.48)

    def test_domain_errors(self):
        # the profile rejects a range that has no harmonic mean
        with pytest.raises(ValueError, match="positive"):
            square_wave_mean(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="beta"):
            square_wave_mean(1.0, 1.0, 1.0)

    @given(
        a0=st.floats(min_value=0.01, max_value=2.0),
        a1=st.floats(min_value=0.01, max_value=2.0),
        beta=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_harmonic_below_arithmetic(self, a0, a1, beta):
        harm = square_wave_mean(a0, a1, beta)
        arith = beta * a1 + (1.0 - beta) * a0
        assert harm <= arith + 1e-12


class TestHarmonicMeanQuadrature:
    def test_sinusoidal_geometric_mean(self):
        got = harmonic_mean_quadrature(Sinusoidal(0.4, 0.6, 50.0), tol=1e-12)
        assert got == pytest.approx(math.sqrt(0.24), rel=1e-10)

    def test_degenerate_amplitude(self):
        got = harmonic_mean_quadrature(Sinusoidal(0.7, 0.7, 30.0), tol=1e-12)
        assert got == pytest.approx(0.7, rel=1e-12)

    def test_matches_piecewise_closed_form(self):
        p = PeriodicPiecewiseConstant(alpha0=0.01, alpha1=1.0, beta=0.5, periods=50.0)
        got = harmonic_mean_quadrature(p, tol=1e-8)
        assert got == pytest.approx(effective_diffusivity(p), rel=1e-5)

    def test_frequency_independent(self):
        values = [
            harmonic_mean_quadrature(Sinusoidal(0.1, 1.0, om), tol=1e-12)
            for om in (50.0, 100.0, 200.0)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-10)
        assert values[0] == pytest.approx(values[2], rel=1e-10)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean_quadrature(Constant(1.0))

    def test_harmonic_below_arithmetic_mean(self):
        for a0, a1 in ((0.1, 1.0), (0.4, 0.6), (0.95, 1.0)):
            got = harmonic_mean_quadrature(Sinusoidal(a0, a1, 50.0), tol=1e-12)
            assert got < 0.5 * (a0 + a1)

    def test_effective_diffusivity_dispatch(self):
        assert effective_diffusivity(
            PeriodicPiecewiseConstant(0.01, 1.0, 0.5, 50.0)
        ) == pytest.approx(0.01 / 0.505)
        assert effective_diffusivity(Sinusoidal(0.1, 1.0, 50.0)) == pytest.approx(
            math.sqrt(0.1), rel=1e-10
        )
        assert effective_diffusivity(Sinusoidal(0.01, 1.0, 100.0)) == 0.1
        with pytest.raises(ValueError):
            effective_diffusivity(Constant(1.0))

    # Every periodic profile of the catalog, including the 100:1 contrasts
    # that c07's random draws do not reach.
    @pytest.mark.parametrize(
        "profile",
        sorted(
            {
                preset(name).profile
                for name in preset_names()
                if isinstance(preset(name).profile, (PeriodicPiecewiseConstant, Sinusoidal))
            },
            key=repr,
        ),
        ids=repr,
    )
    def test_closed_form_matches_quadrature_on_catalog(self, profile):
        oracle = harmonic_mean_quadrature(profile, tol=1e-12)
        assert effective_diffusivity(profile) == pytest.approx(oracle, rel=1e-11)


class TestWaveSpeedRecorder:
    def test_records_every_step(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        rec = WaveSpeedRecorder(m, 0.01)
        a = synthetic_state(m, front_profile(n), np.zeros(n))
        b = synthetic_state(m, front_profile(n, drop_at=51), np.zeros(n))
        # one block: a, then b after step 1 and again after step 2
        fields = np.stack([[s.u, s.v, s.w] for s in (a, b, b)])
        times = np.array([0.0, 0.01, 0.02])
        rec(0, times, fields)
        series = rec.series()
        assert len(series) == 2
        assert series.thetas[0] > 0.0
        assert series.thetas[1] == 0.0
        assert np.array_equal(series.times, times[1:])
        # the same steps in two blocks; row 0 of a block is the state it starts from
        split = WaveSpeedRecorder(m, 0.01)
        split(0, times[:2], fields[:2])
        split(1, times[1:], fields[1:])
        assert np.array_equal(split.series().thetas, series.thetas)
        assert np.array_equal(split.series().times, series.times)

    def test_a_batch_has_one_flag_per_run_from_the_first_block(self):
        # no front comes near the boundary by T = 0.05, yet a batch of two
        # already has two flags, and a single run keeps one bool
        cfg = preset("table1-d12.5")
        mesh, opts = cfg.mesh(), SchemeOptions(cfg.dt)
        state = initial_state(cfg.initial, mesh)
        batch, single = WaveSpeedRecorder(mesh, cfg.dt), WaveSpeedRecorder(mesh, cfg.dt)
        run([state, state], [cfg.profile] * 2, [cfg.params] * 2, opts, 0.05, observers=[batch])
        run(state, cfg.profile, cfg.params, opts, 0.05, observers=[single])
        assert batch.front_near_boundary.shape == (2,)
        assert not batch.front_near_boundary.any()
        assert isinstance(single.front_near_boundary, np.bool_)
        assert not single.front_near_boundary


def coarse_scenario(profile):
    return ScenarioConfig(
        params=ModelParameters(d=12.5, r=1.0, D=4e-5, c=70.0),
        profile=profile,
        initial=PIECEWISE_LINEAR,
        xmin=0.0, xmax=1.0, dx=0.01, dt=0.01, T=2.0,
        snapshots=(),
    )


def tailed_series(head, tail):
    """A speed series whose trailing quarter is ``tail``, after a constant
    ``head`` three times as long."""
    values = np.concatenate([np.full(3 * len(tail), head), tail])
    return WaveSpeedSeries(values, np.arange(1, values.size + 1) * 0.01)


class TestHomogenizationCompare:
    def test_smoke_on_coarse_scenario(self):
        cfg = coarse_scenario(Sinusoidal(0.4, 0.6, 50.0))
        periodic, effective = run_configs([cfg, effective_twin(cfg)])
        verdict = homogenization_compare(periodic.speed_series, effective.speed_series)
        assert verdict.theta_periodic_tail != 0.0
        assert verdict.theta_effective_tail != 0.0
        assert verdict.relative_gap >= 0.0
        assert verdict.oscillation_amplitude >= 0.0
        assert isinstance(verdict.homogenized, bool)

    def test_rejects_aperiodic_profile(self):
        # a constant profile has no effective twin to compare against
        with pytest.raises(ValueError):
            effective_twin(coarse_scenario(Constant(1.0)))

    def test_verdict_from_tail_means_and_oscillation(self):
        effective = tailed_series(0.5, [0.010, 0.010])
        close = homogenization_compare(tailed_series(9.0, [0.0103, 0.0103]), effective)
        assert close.theta_periodic_tail == pytest.approx(0.0103)
        assert close.relative_gap == pytest.approx(0.03)
        assert close.oscillation_amplitude == 0.0
        assert close.homogenized
        assert not homogenization_compare(tailed_series(1.0, [0.0105, 0.0105]), effective).homogenized
        # on the mean, the oscillation alone decides against the fixed 10 %
        wobbly = homogenization_compare(tailed_series(0.0, [0.0094, 0.0106]), effective)
        assert wobbly.relative_gap == pytest.approx(0.0)
        assert wobbly.oscillation_amplitude == pytest.approx(0.12)
        assert not wobbly.homogenized
        steady = homogenization_compare(tailed_series(0.0, [0.0097, 0.0103]), effective)
        assert steady.oscillation_amplitude == pytest.approx(0.06)
        assert steady.homogenized
