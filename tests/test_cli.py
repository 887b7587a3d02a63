import shutil
import subprocess
import sys

import pytest

from acidfront.cli import main
from acidfront.scenarios import parse_config, render_config


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "acidfront.cli", "list-presets"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "table1-d12.5" in proc.stdout

    @pytest.mark.skipif(shutil.which("acidfront") is None, reason="script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["acidfront", "list-presets"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "table1-d12.5" in proc.stdout
