import dataclasses
import shutil
import subprocess
import sys

import pytest

from acidfront import scenarios
from acidfront.cli import main
from acidfront.scenarios import parse_config, preset, render_config


@pytest.fixture
def no_run(monkeypatch):
    """Fails the test as soon as a simulation starts."""

    def started(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(scenarios, "_run_batch", started)


def write_small_config(path, **overrides):
    from acidfront.core import ModelParameters
    from acidfront.mesh import Constant
    from acidfront.scenarios import PIECEWISE_LINEAR, ScenarioConfig

    base = dict(
        params=ModelParameters(d=12.5, r=1.0, D=4e-5, c=70.0),
        profile=Constant(1.0),
        initial=PIECEWISE_LINEAR,
        xmin=0.0, xmax=1.0, dx=0.01, dt=0.01, T=0.5,
        snapshots=(0.5,),
    )
    base.update(overrides)
    cfg = ScenarioConfig(**base)
    path.write_text(render_config(cfg))
    return cfg


class TestSimulate:
    def test_config_file_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        write_small_config(cfg_path)
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "classification=" in out
        assert (tmp_path / "out" / "summary.txt").is_file()
        assert (tmp_path / "out" / "snapshot_t0.5.csv").is_file()

    def test_unknown_preset_fails_cleanly(self, tmp_path, capsys):
        rc = main(["simulate", "no-such-preset", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense\n")
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_instability_exit_code(self, tmp_path):
        cfg_path = tmp_path / "unstable.cfg"
        write_small_config(cfg_path, dt=0.05, T=5.0, snapshots=())
        with pytest.warns(Warning):
            rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_front_leaving_domain_is_not_classified(self, tmp_path):
        # fast growth and diffusion carry the front out of a short domain
        from acidfront.core import ModelParameters
        from acidfront.errors import FrontProximityWarning

        cfg_path = tmp_path / "escape.cfg"
        write_small_config(
            cfg_path, params=ModelParameters(d=30.0, r=10.0, D=0.01, c=70.0),
            dx=0.02, T=2.0, snapshots=(),
        )
        with pytest.warns(FrontProximityWarning):
            rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "classification=none\n" in summary
        assert "no tumour front left inside the domain" in summary

    def test_final_time_off_the_dt_grid(self, tmp_path, capsys):
        # T = 0.1 dt used to run one whole step and report success
        rc = main([
            "simulate", "table1-d12.5", "--T", "0.05", "--dt", "0.5",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "whole number of steps" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [("--dt", "inf"), ("--T", "1e-12"), ("--T", "inf")])
    def test_no_step_or_non_finite_grid_rejected(self, tmp_path, capsys, override):
        # these used to exit 0 with steps=0, or crash with an OverflowError
        rc = main(["simulate", "table1-d12.5", *override, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_destructiveness_rejected(self, tmp_path, capsys):
        # used to march and stop as a numerical instability (exit 2)
        rc = main(["simulate", "table1-d12.5", "--d", "inf", "--T", "0.1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "d must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key",
        [("table3-row01-pc", "profile.periods"), ("table3-row01-pc", "profile.alpha1"),
         ("table1-d12.5", "profile.a")],
    )
    def test_infinite_profile_parameter_rejected(self, tmp_path, capsys, name, key):
        # used to crash with a ZeroDivisionError or stop as a numerical instability (exit 2)
        lines = render_config(preset(name)).splitlines()
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(
            f"{key}=inf\n" if line.startswith(f"{key}=") else f"{line}\n" for line in lines
        ))
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "invalid profile" in capsys.readouterr().err

    def test_empty_snapshot_item_rejected(self, tmp_path, capsys):
        # used to exit 0 with two snapshots written
        cfg = dataclasses.replace(preset("table1-d12.5"), dt=0.001, T=0.003, snapshots=())
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(render_config(cfg).replace("snapshots=\n", "snapshots=0.001,,0.003\n"))
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "empty item" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("snapshot_*"))

    def test_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        write_small_config(cfg_path)
        rc = main([
            "simulate", str(cfg_path),
            "--out", str(tmp_path / "out"),
            "--T", "0.2", "--d", "0.5", "--dx", "0.02",
        ])
        assert rc == 0
        written = parse_config((tmp_path / "out" / "config.txt").read_text())
        assert written.T == 0.2
        assert written.params.d == 0.5
        assert written.dx == 0.02

    def test_final_snapshot_follows_T(self, tmp_path, capsys):
        # used to write only snapshot_t0.csv: no file held the final fields
        rc = main(["simulate", "table1-d12.5", "--T", "0.5", "--out", str(tmp_path / "out")])
        assert rc == 0
        written = sorted(path.name for path in (tmp_path / "out").glob("snapshot_*"))
        assert written == ["snapshot_t0.5.csv", "snapshot_t0.csv"]

    @pytest.mark.parametrize(
        "snapshots, T, expected",
        [((0.0, 0.5), "0.8", ["0", "0.5", "0.8"]), ((0.2,), "0.3", ["0.2"])],
        ids=["later-final-time", "no-final-snapshot"],
    )
    def test_only_a_final_snapshot_follows_T(self, tmp_path, capsys, snapshots, T, expected):
        cfg_path = tmp_path / "run.cfg"
        write_small_config(cfg_path, snapshots=snapshots)
        rc = main(["simulate", str(cfg_path), "--T", T, "--out", str(tmp_path / "out")])
        assert rc == 0
        written = {path.name for path in (tmp_path / "out").glob("snapshot_*")}
        assert written == {f"snapshot_t{t}.csv" for t in expected}

    def test_bad_override_value(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        write_small_config(cfg_path)
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out"), "--d", "-1.0"])
        assert rc == 1


class TestListPresets:
    def test_lists_catalog(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "table1-d0.5" in out
        assert "table3-row12-sin" in out


class TestHomogenize:
    def test_bad_row_selector(self, capsys):
        assert main(["homogenize", "--rows", "apple"]) == 1
        assert main(["homogenize", "--rows", "99"]) == 1

    @pytest.mark.parametrize(
        "args", [["--rows", "5", "--tol-gap", "nan"], ["--rows", "5", "--tol-osc", "-1"], ["--rows", ","]]
    )
    def test_meaningless_input_rejected(self, capsys, args):
        # each used to exit 0, with NO for both families or an empty table
        assert main(["homogenize", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("rows", ["3,,3", "3,"])
    def test_empty_row_item_rejected(self, capsys, rows):
        # each used to exit 0, skipping the empty item
        assert main(["homogenize", "--rows", rows]) == 1
        assert capsys.readouterr().err.startswith("error: empty item")

    @pytest.mark.parametrize("rows", ["3,3", "3,5,3"])
    def test_repeated_row_rejected(self, capsys, no_run, rows):
        # used to run row 3 twice and write it twice
        assert main(["homogenize", "--rows", rows]) == 1
        assert capsys.readouterr().err.startswith("error: homogenization row (30.0, 100.0, 0.01, 1.0)")

    def test_single_row(self, tmp_path, capsys):
        rc = main(["homogenize", "--rows", "5", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HOM" in out
        table = (tmp_path / "homogenization.csv").read_text().splitlines()
        assert table[0].startswith("d,omega,alpha0,alpha1")
        assert len(table) == 2


class TestConvergence:
    def test_runs_and_reports_order(self, capsys):
        rc = main(["convergence", "--levels", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "least-squares order" in out


class TestSpeedTable:
    def test_batch(self, tmp_path, capsys):
        rc = main(["speed-table", "jump-increasing-d0.5", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jump-increasing-d0.5" in out
        lines = (tmp_path / "speeds.csv").read_text().splitlines()
        assert lines[0] == "preset,tail_mean,tail_peak_to_peak,fkpp_bound"
        assert len(lines) == 2

    def test_batch_rows_follow_the_command_line(self, tmp_path, capsys):
        # the two jump presets share mesh, dt, T and D and march as one batch;
        # table1 has its own mesh
        names = ["jump-increasing-d0.5", "table1-d12.5", "jump-decreasing-d0.5"]
        assert main(["speed-table", *names, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "speeds.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == names

    def test_repeated_preset_rejected(self, capsys, no_run):
        # used to run the preset twice and list it twice
        assert main(["speed-table", "table1-d0.5", "table1-d12.5", "table1-d0.5"]) == 1
        assert capsys.readouterr().err.startswith("error: preset 'table1-d0.5' selected more than once")


class TestOutDirectory:
    @pytest.mark.parametrize(
        "command", [["simulate", "table1-d12.5"], ["homogenize", "--rows", "3"], ["speed-table", "table1-d0.5"]]
    )
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, no_run, command, out):
        # each used to end in a traceback, homogenize and speed-table only
        # after every run was done
        (tmp_path / "taken").write_text("")
        assert main([*command, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make --out")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "command",
        [["speed-table", "no-such"], ["homogenize", "--rows", "3,3"], ["homogenize", "--rows", "5", "--tol-gap", "nan"]],
    )
    def test_rejected_call_leaves_no_directory(self, tmp_path, capsys, no_run, command):
        # each used to exit 1 but leave the directories it made
        assert main([*command, "--out", str(tmp_path / "new" / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_rejected_call_keeps_an_existing_directory(self, tmp_path, capsys, no_run):
        (tmp_path / "out").mkdir()
        assert main(["speed-table", "no-such", "--out", str(tmp_path / "out" / "new")]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "acidfront.cli", "list-presets"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "table1-d12.5" in proc.stdout

    def test_import_leaves_scipy_linalg_out(self):
        # importing scipy.linalg took longer than an everyday simulate call
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, acidfront.cli; print('scipy.linalg' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_warning_names_no_package_file(self, tmp_path):
        # the warning used to name scenarios.py:541 and print its source line
        proc = subprocess.run(
            [sys.executable, "-m", "acidfront.cli", "simulate", "table1-d12.5",
             "--dt", "0.5", "--T", "10", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        first, *rest = proc.stderr.splitlines()
        assert first.startswith("StabilityWarning: dt=0.5 exceeds the explicit reaction limit")
        assert rest == [
            "numerical instability: run became unstable at step 3 (t=1.5): "
            "negative tumour interface coefficient: healthy density exceeded 1"
        ]

    @pytest.mark.skipif(shutil.which("acidfront") is None, reason="script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["acidfront", "list-presets"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "table1-d12.5" in proc.stdout
