import dataclasses
import warnings

import numpy as np
import pytest

from acidfront.core import ModelParameters
from acidfront.errors import ConfigurationError, FrontProximityWarning, StabilityWarning
from acidfront.mesh import Constant, PeriodicPiecewiseConstant, SingleJump, Sinusoidal, build_uniform_mesh
from acidfront.scheme import SchemeOptions, run
from acidfront.scenarios import (
    PIECEWISE_LINEAR,
    RIEMANN,
    TABLE3_ROWS,
    ScenarioConfig,
    convergence_study,
    initial_state,
    parse_config,
    preset,
    preset_names,
    render_config,
    run_config,
    run_configs,
    run_scenario,
    summarize,
)


def small_config(**overrides):
    base = dict(
        params=ModelParameters(d=12.5, r=1.0, D=4e-5, c=70.0),
        profile=Constant(1.0),
        initial=PIECEWISE_LINEAR,
        xmin=0.0, xmax=1.0, dx=0.01, dt=0.01, T=0.5,
        snapshots=(0.0, 0.25, 0.5),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestInitialState:
    def test_riemann_values(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        s = initial_state(RIEMANN, m)
        i_left = int(np.searchsorted(m.centers, 0.1))
        i_right = int(np.searchsorted(m.centers, 0.9))
        assert (s.u[i_left], s.v[i_left], s.w[i_left]) == (0.0, 1.0, 0.0)
        assert (s.u[i_right], s.v[i_right], s.w[i_right]) == (1.0, 0.0, 0.0)
        assert s.time == 0.0

    def test_ramp_midpoint(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        s = initial_state(PIECEWISE_LINEAR, m)
        mid = int(np.argmin(np.abs(m.centers - 0.25)))  # midpoint of [L/8, 3L/8]
        assert s.v[mid] == pytest.approx(0.5, abs=0.02)
        assert s.u[mid] == pytest.approx(0.5, abs=0.02)
        assert s.w[mid] == 0.0

    def test_complementarity(self):
        m = build_uniform_mesh(-1.0, 1.0, 0.005)
        for kind in (RIEMANN, PIECEWISE_LINEAR):
            s = initial_state(kind, m)
            assert np.allclose(s.u + s.v, 1.0, atol=1e-15)
            assert np.all(s.w == 0.0)

    def test_domain_mismatch_rejected(self):
        m = build_uniform_mesh(2.0, 3.0, 0.05)  # L/4 = 0.75 left of the mesh
        with pytest.raises(ConfigurationError):
            initial_state(RIEMANN, m)
        with pytest.raises(ConfigurationError):
            initial_state(PIECEWISE_LINEAR, m)

    def test_unknown_kind_rejected(self):
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        with pytest.raises(ConfigurationError):
            initial_state("gaussian", m)


class TestScenarioConfigValidation:
    def test_snapshot_outside_horizon(self):
        with pytest.raises(ConfigurationError):
            small_config(snapshots=(0.0, 1.0))

    def test_degenerate_domain(self):
        with pytest.raises(ConfigurationError):
            small_config(xmin=1.0, xmax=0.0)

    def test_bad_initial_kind(self):
        with pytest.raises(ConfigurationError):
            small_config(initial="smooth")

    def test_jump_outside_domain(self):
        with pytest.raises(ConfigurationError):
            small_config(profile=SingleJump(0.1, 1.0, 1.5))

    def test_final_time_off_the_dt_grid(self):
        # T = 1.5 dt would silently end at 2 dt
        with pytest.raises(ConfigurationError, match="whole number of steps"):
            small_config(T=0.015, snapshots=())

    def test_snapshot_time_off_the_dt_grid(self):
        with pytest.raises(ConfigurationError, match="whole number of steps"):
            small_config(snapshots=(0.0, 0.255, 0.5))

    def test_float_noise_stays_on_the_grid(self):
        # 0.055 / 0.011 = 5.000000000000001
        assert small_config(dt=0.011, T=0.055, snapshots=(0.0, 0.055)).T == 0.055


class TestPresets:
    def test_reference_presets_exist(self):
        for name in (
            "table1-d0.5", "table1-d2.5", "table1-d12.5",
            "jump-increasing-d35", "periodic-w50-d60",
            "growth-r10-w50", "appendix-omega100",
        ):
            preset(name)

    def test_reference_baseline_values(self):
        cfg = preset("table1-d12.5")
        assert cfg.params == ModelParameters(d=12.5, r=1.0, D=4e-5, c=70.0)
        assert cfg.profile == Constant(1.0)
        assert (cfg.xmin, cfg.xmax) == (-1.0, 1.0)
        assert (cfg.dx, cfg.dt, cfg.T) == (0.005, 0.01, 20.0)

    def test_jump_preset_profile(self):
        cfg = preset("jump-increasing-d35")
        assert cfg.profile == SingleJump(0.1, 1.0, 0.625)
        assert cfg.initial == RIEMANN
        assert (cfg.xmin, cfg.xmax) == (0.0, 1.0)

    def test_growth_preset(self):
        cfg = preset("growth-r10-w50")
        assert cfg.params.r == 10.0
        assert cfg.T == 40.0
        assert cfg.profile == Sinusoidal(0.1, 1.0, 50.0)

    def test_table3_presets_match_rows(self):
        assert len(TABLE3_ROWS) == 12
        cfg = preset("table3-row01-pc")
        assert cfg.profile == PeriodicPiecewiseConstant(0.01, 1.0, 0.5, 50.0)
        cfg = preset("table3-row05-sin")
        assert cfg.profile == Sinusoidal(0.95, 1.0, 50.0)
        assert cfg.params.d == 0.5

    def test_unknown_preset_lists_catalog(self):
        with pytest.raises(ConfigurationError, match="table1-d0.5"):
            preset("not-a-preset")

    def test_all_presets_round_trip(self):
        for name in preset_names():
            cfg = preset(name)
            assert parse_config(render_config(cfg)) == cfg


class TestConfigFormat:
    def test_round_trip_small(self):
        cfg = small_config()
        assert parse_config(render_config(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + render_config(small_config())
        assert parse_config(text) == small_config()

    def test_unknown_key_rejected(self):
        text = render_config(small_config()) + "colour=blue\n"
        with pytest.raises(ConfigurationError, match="colour"):
            parse_config(text)

    def test_missing_key_rejected(self):
        lines = [
            line for line in render_config(small_config()).splitlines()
            if not line.startswith("dt=")
        ]
        with pytest.raises(ConfigurationError, match="dt"):
            parse_config("\n".join(lines))

    def test_bad_number_rejected(self):
        text = render_config(small_config()).replace("dt=0.01", "dt=soon")
        with pytest.raises(ConfigurationError):
            parse_config(text)

    def test_bad_boolean_rejected(self):
        text = render_config(small_config()).replace("gap=true", "gap=yes")
        with pytest.raises(ConfigurationError):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = render_config(small_config()) + "dt=0.01\n"
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("just words\n")

    def test_unknown_profile_kind_rejected(self):
        text = render_config(small_config()).replace("profile=constant", "profile=fractal")
        with pytest.raises(ConfigurationError):
            parse_config(text)

    def test_empty_snapshots_round_trip(self):
        cfg = small_config(snapshots=())
        assert parse_config(render_config(cfg)) == cfg


class TestRunScenario:
    def test_writes_expected_files(self, tmp_path):
        summary = run_scenario(small_config(), tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "summary.txt").is_file()
        assert (out / "wavespeed.csv").is_file()
        assert (out / "snapshot_t0.csv").is_file()
        assert (out / "snapshot_t0.25.csv").is_file()
        assert (out / "snapshot_t0.5.csv").is_file()
        assert summary.steps == 50

    def test_snapshot_schema(self, tmp_path):
        run_scenario(small_config(), tmp_path)
        lines = (tmp_path / "snapshot_t0.5.csv").read_text().splitlines()
        assert lines[0] == "x,u,v,w"
        assert len(lines) == 101  # header + one row per cell
        assert len(lines[1].split(",")) == 4

    def test_wavespeed_schema(self, tmp_path):
        run_scenario(small_config(), tmp_path)
        lines = (tmp_path / "wavespeed.csv").read_text().splitlines()
        assert lines[0] == "step,time,theta"
        assert len(lines) == 51

    def test_no_snapshots_requested(self, tmp_path):
        run_scenario(small_config(snapshots=()), tmp_path)
        assert not list(tmp_path.glob("snapshot_*.csv"))
        assert (tmp_path / "summary.txt").is_file()
        assert (tmp_path / "wavespeed.csv").is_file()

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(small_config(), a)
        run_scenario(small_config(), b)
        for name in ("snapshot_t0.5.csv", "wavespeed.csv", "snapshot_t0.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_outputs_spanning_many_blocks_are_deterministic(self, tmp_path):
        # 300 steps of 400 cells march in blocks of 54 steps: snapshots on a
        # block edge (t = 0.54, 1.08) and inside blocks, and a wavespeed.csv
        # gathered block by block, are the same bytes on every run
        cfg = dataclasses.replace(
            preset("table1-d12.5"), T=3.0, snapshots=(0.0, 0.54, 1.0, 1.08, 3.0)
        )
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, a)
        run_scenario(cfg, b)
        names = ["wavespeed.csv"] + [f"snapshot_t{t:g}.csv" for t in cfg.snapshots]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        lines = (a / "wavespeed.csv").read_text().splitlines()
        assert len(lines) == 301 and lines[-1].startswith("300,")
        # the snapshot at the block edge holds the state after its 54 steps
        edge = run(
            initial_state(cfg.initial, cfg.mesh()), cfg.profile, cfg.params, SchemeOptions(dt=cfg.dt), T=0.54
        )
        saved = np.loadtxt(a / "snapshot_t0.54.csv", delimiter=",", skiprows=1)
        assert np.array_equal(saved[:, 1:], np.stack([edge.u, edge.v, edge.w], axis=1))

    def test_summary_field_order(self, tmp_path):
        summary = run_scenario(small_config(), tmp_path)
        keys = [line.split("=")[0] for line in summary.render().splitlines()]
        assert keys == [
            "classification", "gap_present", "gap_left", "gap_right",
            "gap_width", "gap_threshold", "tail_mean", "tail_peak_to_peak",
            "steps", "wall_time_s", "warnings",
        ]

    def test_observers_can_be_disabled(self, tmp_path):
        cfg = small_config(wavespeed=False, gap=False, classification=False, snapshots=())
        summary = run_scenario(cfg, tmp_path)
        assert summary.classification is None
        assert summary.gap is None
        assert summary.tail_mean is None
        assert not (tmp_path / "wavespeed.csv").exists()

    def test_stability_warning_recorded(self, tmp_path):
        # dt above 1/max(1, r, c) via a fast logistic (bounded overshoot,
        # the run itself survives the short horizon)
        cfg = small_config(
            params=ModelParameters(d=0.5, r=200.0, D=4e-5, c=70.0),
            dt=0.011, T=0.055, snapshots=(), classification=False,
        )
        with pytest.warns(Warning):
            result = run_config(cfg)
        assert any("stability" in w for w in result.warnings)

    def test_destructive_acid_stability_warning_recorded(self):
        # d = 200 at dt = 0.01: the explicit healthy update dips below zero
        cfg = dataclasses.replace(
            preset("appendix-w200-a0.01-0.06-d200"), T=0.1, snapshots=()
        )
        with pytest.warns(StabilityWarning):
            result = run_config(cfg)
        assert any("stability" in w for w in result.warnings)


class TestRunConfigs:
    @pytest.mark.filterwarnings("ignore::acidfront.errors.StabilityWarning")
    def test_batches_match_single_runs(self):
        # two batches (dx 0.01 and 0.02), mixed initial kinds, profiles,
        # parameters and observer flags, one run over the reaction limit
        cfgs = [
            small_config(snapshots=()),
            small_config(dx=0.02, snapshots=()),
            small_config(
                params=ModelParameters(d=150.0, r=2.0, D=4e-5, c=30.0),
                profile=Sinusoidal(0.1, 1.0, 50.0), initial=RIEMANN, snapshots=(),
            ),
            small_config(profile=SingleJump(1.0, 0.1, 0.625), wavespeed=False, snapshots=()),
            small_config(dx=0.02, params=ModelParameters(d=0.5, r=1.0, D=4e-5, c=70.0), snapshots=()),
        ]
        for batched, cfg in zip(run_configs(cfgs), cfgs):
            single = run_config(cfg)
            assert batched.config == cfg
            for name in ("u", "v", "w"):
                assert np.array_equal(getattr(batched.final_state, name), getattr(single.final_state, name))
            if cfg.wavespeed:
                assert np.array_equal(batched.speed_series.thetas, single.speed_series.thetas)
            else:
                assert batched.speed_series is None
            assert (batched.min_u, batched.min_v, batched.min_w) == (single.min_u, single.min_v, single.min_w)
            assert batched.steps == single.steps
            assert batched.warnings == single.warnings
        assert any("stability" in w for w in run_configs(cfgs)[2].warnings)

    def test_front_warning_only_for_runs_tracking_speed(self):
        # the front leaves the short domain; the quiet run tracks no speed
        # and reports no front warning, alone or beside one that does
        escape = dict(params=ModelParameters(d=30.0, r=10.0, D=0.01, c=70.0), dx=0.02, T=2.0, snapshots=())
        quiet, tracked = small_config(wavespeed=False, **escape), small_config(**escape)
        with pytest.warns(FrontProximityWarning):
            batch = run_configs([quiet, tracked])
        assert run_config(quiet).warnings == ()
        assert batch[0].warnings == ()
        assert batch[1].warnings == ("tumour front approached the domain boundary",)

    def test_only_runs_tracking_speed_warn_of_the_front(self):
        # a batch used to warn for every run whose front neared the boundary
        escape = dict(params=ModelParameters(d=30.0, r=10.0, D=0.01, c=70.0), dx=0.02, T=2.0, snapshots=())
        quiet, tracked = small_config(wavespeed=False, **escape), small_config(**escape)
        for cfgs, expected in (([quiet, tracked], 1), ([tracked, quiet, quiet, tracked], 2), ([quiet, quiet], 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = run_configs(cfgs)
            fronts = [w for w in caught if issubclass(w.category, FrontProximityWarning)]
            assert len(fronts) == expected, cfgs
            for cfg, result in zip(cfgs, results):
                assert result.config is cfg
                assert (result.speed_series is not None) == cfg.wavespeed
            if expected:
                # the tracked runs' series are those of the run alone
                with pytest.warns(FrontProximityWarning):
                    alone = run_config(tracked).speed_series.thetas
                for cfg, result in zip(cfgs, results):
                    if cfg.wavespeed:
                        assert np.array_equal(result.speed_series.thetas, alone)

    def test_empty(self):
        assert run_configs([]) == []


class TestConvergenceStudy:
    def test_single_refinement_smoke(self):
        rows = convergence_study(levels=1)
        assert len(rows) == 2
        assert rows[0]["order"] is None
        assert rows[1]["order"] > 0.9
        assert rows[1]["error"] < rows[0]["error"]

    def test_rejects_zero_levels(self):
        with pytest.raises(ConfigurationError):
            convergence_study(levels=0)


class TestRegimeExpectations:
    def test_baseline_summary_contract(self, preset_run):
        summary = summarize(preset_run("table1-d12.5"))
        assert summary.classification == "homogeneous"
        assert summary.gap.present
        assert summary.steps == 2000

    def test_heterogeneous_run_has_no_gap(self, preset_run):
        from acidfront.analysis import detect_gap

        result = preset_run("table1-d0.5")
        assert summarize(result).classification == "heterogeneous"
        assert not detect_gap(result.final_state).present

    def test_periodic_high_d_opens_gap(self, preset_run):
        from acidfront.analysis import detect_gap

        assert detect_gap(preset_run("periodic-w50-d60").final_state).present

    def test_empty_homogenization_selection(self):
        from acidfront.scenarios import run_homogenization_suite

        assert run_homogenization_suite(()) == []

    # Qualitative single-jump outcomes: the gap needs a much larger d when
    # the acid enters the slow-diffusion region first, and is wide open for
    # the decreasing jump already at d=12.5.
    def test_increasing_jump_gap_opens_only_at_large_d(self, preset_run):
        hybrid = preset_run("jump-increasing-d12.5")
        homog = preset_run("jump-increasing-d35")
        from acidfront.analysis import detect_gap

        assert not detect_gap(hybrid.final_state).present
        assert detect_gap(homog.final_state).present

    def test_decreasing_jump_gap_at_moderate_d(self, preset_run):
        from acidfront.analysis import detect_gap

        assert detect_gap(preset_run("jump-decreasing-d12.5").final_state).present

    @pytest.mark.filterwarnings("ignore::acidfront.errors.StabilityWarning")
    def test_narrow_weak_oscillation_suppresses_gap(self, preset_run):
        # with a weak, rapidly oscillating diffusivity the acid stays
        # trapped and no developed gap opens even at d = 200; at most a
        # transition-zone sliver remains, far below the true-gap scale.
        # dt*d = 2 exceeds the reaction limit by design, and says so.
        from acidfront.analysis import detect_gap

        result = preset_run("appendix-w200-a0.01-0.06-d200")
        assert any("stability" in w for w in result.warnings)
        weak = detect_gap(result.final_state)
        reference = detect_gap(preset_run("table1-d12.5").final_state)
        assert weak.width < 0.5 * reference.width
