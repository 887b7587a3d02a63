import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acidfront.core import ModelParameters
from acidfront.errors import ConfigurationError, FrontProximityWarning, StabilityWarning
from acidfront.mesh import Constant, PeriodicPiecewiseConstant, SingleJump, Sinusoidal, build_uniform_mesh
from acidfront.scheme import SchemeOptions, run
from acidfront.scenarios import (
    PIECEWISE_LINEAR,
    RIEMANN,
    TABLE3_ROWS,
    ScenarioConfig,
    _ROWS_PER_WRITE,
    _write_csv,
    convergence_study,
    initial_state,
    parse_config,
    preset,
    preset_names,
    render_config,
    run_config,
    run_configs,
    run_scenario,
)


def far_text(text):
    """Config text moved from [0, 1] to [2, 3]."""
    moved = text.replace("\nxmin=0.0\n", "\nxmin=2.0\n").replace("\nxmax=1.0\n", "\nxmax=3.0\n")
    assert moved.count("=2.0\n") == moved.count("=3.0\n") == 1
    return moved


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

    def test_snapshot_times_sharing_a_file_name(self):
        # both used to be written to snapshot_t1e+06.csv, the second over the first
        with pytest.raises(ConfigurationError, match="share a file name"):
            small_config(dt=1.0, T=1000001.0, snapshots=(1000000.0, 1000001.0))

    def test_float_noise_stays_on_the_grid(self):
        # 0.055 / 0.011 = 5.000000000000001
        assert small_config(dt=0.011, T=0.055, snapshots=(0.0, 0.055)).T == 0.055

    def test_dx_must_tile_the_domain(self):
        # used to be accepted here and rejected only once the run built its mesh
        with pytest.raises(ConfigurationError, match="does not evenly divide"):
            small_config(dx=0.3)

    @pytest.mark.parametrize("initial", [RIEMANN, PIECEWISE_LINEAR])
    def test_initial_profile_must_fit_the_domain(self, initial):
        # the edge L/4 = 0.75 and the ramp [0.375, 1.125] miss [2, 3]: used
        # to be accepted here and rejected only once the run built its mesh
        with pytest.raises(ConfigurationError, match="inside the domain"):
            small_config(initial=initial, xmin=2.0, xmax=3.0)


class TestPresets:
    def test_reference_presets_exist(self):
        for name in (
            "table1-d0.5", "table1-d2.5", "table1-d12.5",
            "jump-increasing-d35", "periodic-w50-d60",
            "growth-r10-w50-d0.5", "periodic-w100-d60",
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

    @pytest.mark.parametrize("alias", ["appendix-omega100", "growth-r10-w50"])
    def test_aliases_are_gone(self, alias):
        # they named periodic-w100-d60 and growth-r10-w50-d0.5 a second time
        assert alias not in preset_names()
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset(alias)

    @pytest.mark.parametrize("name", ["growth-r10-w50-d30", "growth-r10-w50-d60"])
    def test_escaping_growth_presets_are_gone(self, name):
        # their fronts left [0, 2.5] before T = 40, so they never classified
        assert name not in preset_names()
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset(name)

    def test_growth_preset(self):
        cfg = preset("growth-r10-w50-d0.5")
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


# The literal file of one preset per profile kind: keys, key order and number
# formats are the file format.
FILE_TEXT = {
    "table1-d12.5": """\
d=12.5
r=1.0
D=4e-05
c=70.0
profile=constant
profile.a=1.0
initial=piecewise_linear
xmin=-1.0
xmax=1.0
dx=0.005
dt=0.01
T=20.0
snapshots=0.0,20.0
""",
    "jump-increasing-d12.5": """\
d=12.5
r=1.0
D=4e-05
c=70.0
profile=single_jump
profile.a1=0.1
profile.a2=1.0
profile.x_jump=0.625
initial=riemann
xmin=0.0
xmax=1.0
dx=0.005
dt=0.01
T=20.0
snapshots=0.0,20.0
""",
    "table3-row01-pc": """\
d=0.5
r=1.0
D=4e-05
c=70.0
profile=periodic_piecewise_constant
profile.alpha0=0.01
profile.alpha1=1.0
profile.beta=0.5
profile.periods=50.0
initial=piecewise_linear
xmin=0.0
xmax=1.0
dx=0.005
dt=0.01
T=20.0
snapshots=0.0,20.0
""",
    "periodic-w50-d20": """\
d=20.0
r=1.0
D=4e-05
c=70.0
profile=sinusoidal
profile.alpha0=0.1
profile.alpha1=1.0
profile.omega=50.0
initial=piecewise_linear
xmin=0.0
xmax=1.0
dx=0.005
dt=0.01
T=20.0
snapshots=0.0,20.0
""",
}


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

    def test_diagnostic_switches_of_an_older_file_rejected(self):
        # the front speed, gap and classification used to be switches; every
        # run now records all three, and a file that names them is rejected
        text = render_config(small_config()) + "wavespeed=true\ngap=true\nclassification=true\n"
        with pytest.raises(ConfigurationError, match=r"unknown keys: \['classification', 'gap', 'wavespeed'\]"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = render_config(small_config()) + "dt=0.01\n"
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("just words\n")

    @pytest.mark.parametrize("initial", [RIEMANN, PIECEWISE_LINEAR])
    def test_initial_profile_outside_the_domain_rejected(self, initial):
        # used to round-trip, and to fail only once the run built its mesh
        text = far_text(render_config(small_config(initial=initial)))
        with pytest.raises(ConfigurationError, match="inside the domain"):
            parse_config(text)

    def test_unknown_profile_kind_rejected(self):
        text = render_config(small_config()).replace("profile=constant", "profile=fractal")
        with pytest.raises(ConfigurationError):
            parse_config(text)

    def test_empty_snapshots_round_trip(self):
        cfg = small_config(snapshots=())
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("raw", ["0.25,,0.5", ",0.5", "0.25,", ","])
    def test_empty_snapshot_item_rejected(self, raw):
        # empty items used to be dropped silently
        text = render_config(small_config()).replace("snapshots=0.0,0.25,0.5", f"snapshots={raw}")
        with pytest.raises(ConfigurationError, match="empty item"):
            parse_config(text)

    @pytest.mark.parametrize("name", FILE_TEXT)
    def test_file_bytes(self, name):
        assert render_config(preset(name)) == FILE_TEXT[name]
        assert parse_config(FILE_TEXT[name]) == preset(name)


SNAPSHOT_T0_BYTES = (
    b"x,u,v,w\n"
    b"0.025000000000000001,0,1,0\n"
    b"0.075000000000000011,0,1,0\n"
    b"0.125,0,1,0\n"
    b"0.17500000000000002,0.20000000000000007,0.79999999999999993,0\n"
    b"0.22500000000000001,0.40000000000000002,0.59999999999999998,0\n"
    b"0.27500000000000002,0.60000000000000009,0.39999999999999991,0\n"
    b"0.32500000000000007,0.80000000000000027,0.19999999999999973,0\n"
    b"0.375,1,0,0\n"
    b"0.42500000000000004,1,0,0\n"
    b"0.47499999999999998,1,0,0\n"
    b"0.52500000000000002,1,0,0\n"
    b"0.57500000000000007,1,0,0\n"
    b"0.625,1,0,0\n"
    b"0.67500000000000004,1,0,0\n"
    b"0.72500000000000009,1,0,0\n"
    b"0.77500000000000002,1,0,0\n"
    b"0.82500000000000007,1,0,0\n"
    b"0.875,1,0,0\n"
    b"0.92500000000000004,1,0,0\n"
    b"0.97500000000000009,1,0,0\n"
)


FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e-310, 1e-300, 0.1, 1 / 3, 1e300, math.inf, -math.inf, math.nan]
)


class TestWriteCsv:
    """``_write_csv`` formats _ROWS_PER_WRITE rows with one ``%`` call; the
    bytes are those of one row at a time, for the formats of every table
    the package writes."""

    TABLES = {
        "snapshot": ("%.17g",) * 4,
        "wavespeed": ("%d", "%.17g", "%.17g"),
        "homogenization": ("%g",) * 4 + ("%s",) * 2 + ("%.17g",) * 4,
        "speeds": ("%s",) + ("%r",) * 3,
    }
    SPECIAL = [-0.0, 5e-324, 1e-310, 1e-300, math.inf, -math.inf, math.nan]
    K = _ROWS_PER_WRITE

    @staticmethod
    def columns(formats, length, pool, as_array):
        """Columns of ``length`` rows: step numbers, names, and floats
        cycled from ``pool`` (numpy arrays or lists of Python floats)."""
        columns = []
        for j, fmt in enumerate(formats):
            if fmt == "%d":
                columns.append(range(1, length + 1))
            elif fmt == "%s":
                columns.append([("HOM", "NO", "table1-d12.5")[(i + j) % 3] for i in range(length)])
            else:
                floats = [pool[(i + j) % len(pool)] for i in range(length)]
                columns.append(np.array(floats) if as_array else floats)
        return columns

    @settings(max_examples=60, deadline=None)
    @given(
        table=st.sampled_from(sorted(TABLES)),
        length=st.sampled_from([0, 1, K - 1, K, K + 1, 255, 256, 257]) | st.integers(0, 800),
        pool=st.lists(FLOATS, min_size=1, max_size=20),
        as_array=st.booleans(),
    )
    @example(table="snapshot", length=0, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=1, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=K - 1, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=K, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=K + 1, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=255, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=256, pool=SPECIAL, as_array=True)
    @example(table="snapshot", length=257, pool=SPECIAL, as_array=True)
    @example(table="wavespeed", length=8 * K + 1, pool=SPECIAL, as_array=True)
    @example(table="homogenization", length=K + 1, pool=SPECIAL, as_array=False)
    @example(table="speeds", length=K + 1, pool=SPECIAL, as_array=False)
    def test_bytes_equal_row_at_a_time(self, tmp_path_factory, table, length, pool, as_array):
        formats = self.TABLES[table]
        columns = self.columns(formats, length, pool, as_array)
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        _write_csv(path, "header", formats, columns)
        row = ",".join(formats) + "\n"
        expected = "header\n" + "".join(row % values for values in zip(*columns))
        assert path.read_bytes() == expected.encode()


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

    def test_csv_bytes(self, tmp_path):
        # the CSV format, pinned: a header, "%.17g" floats, whole step numbers
        run_scenario(small_config(dx=0.05, T=0.03, snapshots=(0.0,)), tmp_path)
        assert (tmp_path / "snapshot_t0.csv").read_bytes() == SNAPSHOT_T0_BYTES
        assert (tmp_path / "wavespeed.csv").read_bytes() == (
            b"step,time,theta\n"
            b"1,0.01,0.040000000000002152\n"
            b"2,0.02,0.040000752543315164\n"
            b"3,0.029999999999999999,0.040000535758965776\n"
        )

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

    def test_summary_renders_the_run_record(self, tmp_path):
        # a preset that warns: summary.txt is the RunResult's own rendering
        cfg = dataclasses.replace(preset("appendix-w200-a0.01-0.06-d200"), T=0.1, snapshots=())
        with pytest.warns(StabilityWarning):
            written = run_scenario(cfg, tmp_path)
            (result,) = run_configs([cfg])
        assert result.warnings and written.warnings == result.warnings

        def without_wall_time(text):
            return [line for line in text.splitlines() if not line.startswith("wall_time_s=")]

        summary = (tmp_path / "summary.txt").read_text()
        assert summary == written.render()
        assert without_wall_time(summary) == without_wall_time(result.render())
        assert len(without_wall_time(summary)) == len(summary.splitlines()) - 1

    def test_stability_warning_recorded(self, tmp_path):
        # dt above 1/max(1, r, c) via a fast logistic (bounded overshoot,
        # the run itself survives the short horizon)
        cfg = small_config(
            params=ModelParameters(d=0.5, r=200.0, D=4e-5, c=70.0),
            dt=0.011, T=0.055, snapshots=(),
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

    def test_minima_catch_a_dip_the_final_state_does_not_show(self):
        # dt*d = 2: u dips to about -0.027 in the first steps and recovers,
        # so only minima taken over every step can report it
        seen = []

        def every_step(first_step, times, fields):
            seen.append(fields.min(axis=-1).min(axis=0))

        with pytest.warns(StabilityWarning):
            result = run_config(preset("appendix-w200-a0.01-0.06-d200"), [every_step])
        assert (result.min_u, result.min_v, result.min_w) == tuple(np.min(seen, axis=0))
        assert result.min_u < -0.02
        final = result.final_state
        assert min(final.u.min(), final.v.min(), final.w.min()) >= -1e-8


class TestRunConfigs:
    @pytest.mark.filterwarnings("ignore::acidfront.errors.StabilityWarning")
    def test_batches_match_single_runs(self):
        # two batches (dx 0.01 and 0.02), mixed initial kinds, profiles and
        # parameters, one run over the reaction limit
        cfgs = [
            small_config(snapshots=()),
            small_config(dx=0.02, snapshots=()),
            small_config(
                params=ModelParameters(d=150.0, r=2.0, D=4e-5, c=30.0),
                profile=Sinusoidal(0.1, 1.0, 50.0), initial=RIEMANN, snapshots=(),
            ),
            small_config(profile=SingleJump(1.0, 0.1, 0.625), snapshots=()),
            small_config(dx=0.02, params=ModelParameters(d=0.5, r=1.0, D=4e-5, c=70.0), snapshots=()),
        ]
        for batched, cfg in zip(run_configs(cfgs), cfgs):
            single = run_config(cfg)
            assert batched.config == cfg
            for name in ("u", "v", "w"):
                assert np.array_equal(getattr(batched.final_state, name), getattr(single.final_state, name))
            assert np.array_equal(batched.speed_series.thetas, single.speed_series.thetas)
            assert (batched.min_u, batched.min_v, batched.min_w) == (single.min_u, single.min_v, single.min_w)
            assert batched.steps == single.steps
            assert batched.warnings == single.warnings
        assert any("stability" in w for w in run_configs(cfgs)[2].warnings)

    def test_only_runs_whose_front_nears_the_boundary_warn(self):
        # a batch used to warn for every run whose front neared the boundary;
        # the fast front leaves the short domain, the slow one stays inside
        escape = dict(dx=0.02, T=2.0, snapshots=())
        fast = small_config(params=ModelParameters(d=30.0, r=10.0, D=0.01, c=70.0), **escape)
        slow = small_config(params=ModelParameters(d=30.0, r=0.05, D=0.01, c=70.0), **escape)
        near = "tumour front approached the domain boundary"
        gone = "no tumour front left inside the domain; not classified"
        with pytest.warns(FrontProximityWarning):
            alone = run_config(fast)
        assert alone.warnings == (near, gone)
        assert alone.classification is None
        # a tail averaged after the front left would report a speed it voids
        assert math.isnan(alone.tail_mean) and math.isnan(alone.tail_peak_to_peak)
        inside = run_config(slow)
        assert inside.warnings == ()
        assert math.isfinite(inside.tail_mean) and math.isfinite(inside.tail_peak_to_peak)
        for cfgs, expected in (([slow, fast], 1), ([fast, slow, slow, fast], 2), ([slow, slow], 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = run_configs(cfgs)
            fronts = [w for w in caught if issubclass(w.category, FrontProximityWarning)]
            assert len(fronts) == expected, cfgs
            for cfg, result in zip(cfgs, results):
                assert result.config is cfg
                assert result.warnings == ((near, gone) if cfg is fast else ())
                assert math.isnan(result.tail_mean) == (cfg is fast)
                if cfg is fast:
                    assert np.array_equal(result.speed_series.thetas, alone.speed_series.thetas)

    @staticmethod
    def table3_batch():
        """Eight table3 presets shortened to T = 2, which march as one batch."""
        return [
            dataclasses.replace(preset(f"table3-row{i:02d}-{family}"), T=2.0, snapshots=())
            for i in (1, 2, 3, 4) for family in ("pc", "sin")
        ]

    def test_speed_series_hold_only_their_own_run(self):
        # a column view of a (steps, B) join of the blocks would keep every
        # run's values alive for as long as any one run's series lives; the
        # time stamps all runs share cannot be written through one of them
        for result in run_configs(self.table3_batch()):
            thetas = result.speed_series.thetas
            assert thetas.shape == (result.steps,)
            assert not result.speed_series.times.flags.writeable
            owner = thetas
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert owner.nbytes == thetas.nbytes

    def test_final_states_hold_only_their_own_run(self):
        # a row view of the batch's final fields would keep every run of the
        # batch alive for as long as one run's final state lives
        for result in run_configs(self.table3_batch()):
            for name in ("u", "v", "w"):
                field = getattr(result.final_state, name)
                assert field.base is None, name
                assert not field.flags.writeable

    def test_empty(self):
        assert run_configs([]) == []


class TestWorkingSet:
    """A 20 000-cell run's memory is its N-float arrays, 21.1 of them at the
    traced peak.  While it marches it holds 20: the history, two rows of
    (u, v, w), 6 (row 0 is the only copy of the initial fields); the band
    buffers of the two builders, 6; the mesh, 3 (one mesh, which the
    snapshot writer shares); the work rows d*w and r*v, 2 (c is read from
    the kinetics, not copied into a row); the acid factors' du2 and
    ipiv, 2 (the pivots are int64, for the ILP64 OpenBLAS numpy bundles);
    the tumour builder's width sums, 1.  The peak is the
    wave-speed recorder's pass over a block, which adds the difference of
    two rows of v.  Building the stepper stays below it: the stepper
    factors the run's one copy of A in place and frees it before it
    allocates its own buffers."""

    CFG = dataclasses.replace(preset("table3-row03-sin"), dx=5e-5, T=0.05, snapshots=())

    @staticmethod
    def traced_peak(call) -> float:
        """The traced peak of ``call()`` in arrays of N floats."""
        n = TestWorkingSet.CFG.mesh().n_cells
        assert n == 20_000
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / (8 * n)
        finally:
            tracemalloc.stop()

    def test_fine_mesh_run_holds_at_most_22_field_arrays(self):
        peak = self.traced_peak(lambda: run_config(self.CFG))
        assert peak <= 22, f"traced peak is {peak:.1f} arrays of N floats"

    def test_fine_mesh_cli_run_holds_at_most_22_field_arrays(self, tmp_path):
        # run_scenario with a final-time snapshot, as `acidfront simulate` runs
        cfg = dataclasses.replace(self.CFG, snapshots=(self.CFG.T,))
        peak = self.traced_peak(lambda: run_scenario(cfg, tmp_path))
        assert (tmp_path / "snapshot_t0.05.csv").is_file()
        assert peak <= 22, f"traced peak is {peak:.1f} arrays of N floats"


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
    # dt*d = 2 exceeds the reaction limit by design: u dips below 0 mid-run
    # and the run says so, yet its diagnosis holds (ROADMAP item 15)
    STRESS_FIXTURE = "appendix-w200-a0.01-0.06-d200"

    def test_every_preset_classifies_and_stays_nonnegative(self, catalog_runs):
        results, raised = catalog_runs
        assert sorted(results) == list(preset_names()) and len(results) == 60
        for name, result in results.items():
            assert result.classification is not None, name
            worst = min(result.min_u, result.min_v, result.min_w)
            if name == self.STRESS_FIXTURE:
                assert result.min_u == pytest.approx(-0.0268, abs=1e-4)
                assert result.warnings == ("dt=0.01 exceeds the explicit reaction stability heuristic 0.005",)
                worst = min(result.min_v, result.min_w)
            else:
                assert result.warnings == (), name
            assert worst >= -1e-8, f"{name}: min field value {worst}"
        # the one Python warning of the batch is the fixture's (d = 200)
        assert [w.category for w in raised] == [StabilityWarning]
        assert str(raised[0].message).startswith("dt=0.01 exceeds the explicit reaction limit "
                                                 "min(1/max(1, r, c), 1/d) = 0.005 (run ")

    def test_baseline_summary_contract(self, preset_run):
        result = preset_run("table1-d12.5")
        assert result.classification == "homogeneous"
        assert result.gap.present
        assert result.steps == 2000

    def test_heterogeneous_run_has_no_gap(self, preset_run):
        result = preset_run("table1-d0.5")
        assert result.classification == "heterogeneous"
        assert not result.gap.present

    def test_periodic_high_d_opens_gap(self, preset_run):
        assert preset_run("periodic-w50-d60").gap.present

    def test_empty_homogenization_selection(self, monkeypatch):
        from acidfront import scenarios

        monkeypatch.setattr(scenarios, "run_configs", None)  # no run may start
        with pytest.raises(ConfigurationError, match="no homogenization row"):
            scenarios.run_homogenization_suite(())

    def test_homogenization_suite_marches_the_catalog_presets(self, monkeypatch):
        from acidfront import scenarios

        class Marched(Exception):
            pass

        def recorded(cfgs):
            raise Marched(list(cfgs))

        monkeypatch.setattr(scenarios, "run_configs", recorded)
        with pytest.raises(Marched) as marched:
            scenarios.run_homogenization_suite([3, 9])
        periodic = [
            preset("table3-row03-pc"), preset("table3-row03-sin"),
            preset("table3-row09-pc"), preset("table3-row09-sin"),
        ]
        (cfgs,) = marched.value.args
        assert cfgs == periodic + [scenarios.effective_twin(cfg) for cfg in periodic]
        assert all(cfg is catalog for cfg, catalog in zip(cfgs, periodic))

    @pytest.mark.parametrize("number", [0, 13])
    def test_homogenization_row_number_out_of_range(self, monkeypatch, number):
        from acidfront import scenarios

        monkeypatch.setattr(scenarios, "run_configs", None)  # no run may start
        with pytest.raises(ConfigurationError, match=rf"^row {number} out of range 1\.\.12$"):
            scenarios.run_homogenization_suite([3, number])

    @pytest.mark.parametrize("number", [3.0, "3", True])
    def test_homogenization_row_number_must_be_an_int(self, monkeypatch, number):
        from acidfront import scenarios

        monkeypatch.setattr(scenarios, "run_configs", None)  # no run may start
        with pytest.raises(ConfigurationError, match=rf"^row {number!r} is not an integer$"):
            scenarios.run_homogenization_suite([3, number])

    # Qualitative single-jump outcomes: the gap needs a much larger d when
    # the acid enters the slow-diffusion region first, and is wide open for
    # the decreasing jump already at d=12.5.
    def test_increasing_jump_gap_opens_only_at_large_d(self, preset_run):
        assert not preset_run("jump-increasing-d12.5").gap.present
        assert preset_run("jump-increasing-d35").gap.present

    def test_decreasing_jump_gap_at_moderate_d(self, preset_run):
        assert preset_run("jump-decreasing-d12.5").gap.present

    def test_narrow_weak_oscillation_suppresses_gap(self, preset_run):
        # with a weak, rapidly oscillating diffusivity the acid stays
        # trapped and no developed gap opens even at d = 200; at most a
        # transition-zone sliver remains, far below the true-gap scale.
        # dt*d = 2 exceeds the reaction limit by design, and says so.
        result = preset_run("appendix-w200-a0.01-0.06-d200")
        assert any("stability" in w for w in result.warnings)
        assert result.gap.width < 0.5 * preset_run("table1-d12.5").gap.width
