import dataclasses
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from acidfront import cli, mesh, scenarios, scheme
from acidfront.cli import main
from acidfront.scenarios import parse_config, preset, render_config


@pytest.fixture
def no_run(monkeypatch):
    """Fails the test as soon as a simulation starts."""

    def started(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(scenarios, "_run_batch", started)


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.partition(f"\n## {heading}\n")[2].partition(f"```{language}\n")[2].partition("```")[0]


def readme_commands():
    """The ``acidfront ...`` lines of the README's "Command line" block."""
    return [line for line in readme_block("Command line", "sh").splitlines() if line.startswith("acidfront ")]


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


def write_edited_config(path, **values):
    """Write the small config with the given keys set to other raw values,
    as text, so the file may hold what ScenarioConfig would reject."""
    write_small_config(path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        key = line.partition("=")[0]
        if key in values:
            lines[i] = f"{key}={values.pop(key)}"
    assert not values
    path.write_text("\n".join(lines) + "\n")


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

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.write_text("nonsense\n"),
            # floats near 1e16 are 2 apart: used to end in a ValueError
            # traceback from the mesh, leaving --out (its initial ramp, far
            # left of the domain, now rejects it as it is parsed)
            lambda path: write_edited_config(path, xmin="1e16", xmax=repr(1e16 + 64.0), dx="1.0"),
        ],
        ids=["nonsense", "below-float-resolution"],
    )
    def test_bad_config_file(self, tmp_path, capsys, write):
        cfg_path = tmp_path / "bad.cfg"
        write(cfg_path)
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_diagnostic_switches_of_an_older_file_rejected(self, tmp_path, capsys, no_run):
        # a config.txt written while the front speed, gap and classification
        # were switches names them; it is rejected before --out is made
        cfg_path = tmp_path / "old.cfg"
        write_small_config(cfg_path)
        with open(cfg_path, "a") as fh:
            fh.write("wavespeed=true\ngap=true\nclassification=true\n")
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "X")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: unknown keys: ['classification', 'gap', 'wavespeed']\n"
        assert not (tmp_path / "X").exists()

    def test_config_txt_runs_again_as_an_input(self, tmp_path, capsys):
        # config.txt is the configuration that ran: run from it, the same
        # scenario writes the same files
        a, b = tmp_path / "A", tmp_path / "B"
        assert main(["simulate", "table1-d12.5", "--T", "0.5", "--out", str(a)]) == 0
        assert main(["simulate", str(a / "config.txt"), "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert names == ["config.txt", "snapshot_t0.5.csv", "snapshot_t0.csv", "summary.txt", "wavespeed.csv"]
        for name in names:
            if name != "summary.txt":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

        def timeless(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("wall_time_s=")]

        assert timeless(a / "summary.txt") == timeless(b / "summary.txt")
        assert len(timeless(a / "summary.txt")) == 10

    def test_initial_edge_outside_the_domain_rejected(self, tmp_path, capsys, no_run):
        # L/4 = 0.75 lies left of [2, 3]: the file used to parse, make --out
        # and fail only once the run had built its mesh
        cfg_path = tmp_path / "far.cfg"
        write_edited_config(cfg_path, initial="riemann", xmin="2.0", xmax="3.0")
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: initial riemann profile edges (0.75,)") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "override", [("--T", "1e308"), ("--dt", "1e-320", "--T", "0.01"), ("--dx", "1e-300", "--T", "0.01")]
    )
    def test_count_past_an_array_index_rejected(self, tmp_path, capsys, no_run, override):
        # the first two used to end in an OverflowError from math.ceil(inf),
        # the last in numpy's "Maximum allowed size exceeded", leaving --out
        rc = main(["simulate", "table1-d12.5", *override, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than an array can index" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "module, name, override",
        [
            # 2e9 cells used to end in numpy's _ArrayMemoryError traceback
            # from the mesh, leaving --out
            (mesh.np, "linspace", ["--dx", "1e-9"]),
            # the march allocates about 20 arrays the size of the mesh
            (scenarios, "run", []),
        ],
        ids=["mesh", "march"],
    )
    def test_run_past_memory_rejected(self, tmp_path, capsys, monkeypatch, module, name, override):
        # nothing large is allocated here
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr(module, name, out_of_memory)
        rc = main(["simulate", "table1-d12.5", *override, "--T", "0.01", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory. Unable to allocate 14.9 GiB for an array\n"
        assert list(tmp_path.iterdir()) == []

    def test_dx_that_does_not_tile_the_domain_rejected(self, tmp_path, capsys, monkeypatch):
        # 2/0.3 cells: used to pass the scenario checks, make --out and fail
        # only once run_scenario built the mesh
        monkeypatch.setattr(cli, "run_scenario", lambda *args: pytest.fail("the scenario ran"))
        rc = main(["simulate", "table1-d12.5", "--dx", "0.3", "--out", str(tmp_path / "X")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "does not evenly divide" in err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("args", [["--rows", ","]])
    def test_meaningless_input_rejected(self, capsys, args):
        # used to exit 0 with an empty table
        assert main(["homogenize", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_verdict_thresholds_are_not_options(self, tmp_path, capsys, no_run):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["homogenize", "--rows", "3", "--tol-gap", "0.05", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-gap 0.05" in capsys.readouterr().err
        assert not out.exists()

    def test_only_rows_and_out_are_options(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        options = {o for a in sub.choices["homogenize"]._actions for o in a.option_strings}
        assert options == {"-h", "--help", "--rows", "--out"}

    @pytest.mark.parametrize("rows", ["3,,3", "3,"])
    def test_empty_row_item_rejected(self, capsys, rows):
        # each used to exit 0, skipping the empty item
        assert main(["homogenize", "--rows", rows]) == 1
        assert capsys.readouterr().err.startswith("error: empty item")

    def test_row_out_of_range_leaves_no_directory(self, tmp_path, capsys, no_run):
        assert main(["homogenize", "--rows", "3,13", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: row 13 out of range 1..12\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_table_bytes(self, tmp_path, monkeypatch):
        # the row loop that wrote homogenization.csv before it went through
        # scenarios._write_csv is the oracle
        results = []

        def recorded(*args, **kwargs):
            results.extend(scenarios.run_homogenization_suite(*args, **kwargs))
            return results

        monkeypatch.setattr(cli, "run_homogenization_suite", recorded)
        assert main(["homogenize", "--rows", "3,5", "--out", str(tmp_path)]) == 0
        expected = (
            "d,omega,alpha0,alpha1,piecewise_constant,sinusoidal,"
            "pc_relative_gap,pc_oscillation,sin_relative_gap,sin_oscillation\n"
        )
        for row in results:
            pc, sin = row["pc"], row["sin"]
            expected += (
                f"{row['d']:g},{row['omega']:g},{row['alpha0']:g},{row['alpha1']:g},"
                f"{'HOM' if pc.homogenized else 'NO'},"
                f"{'HOM' if sin.homogenized else 'NO'},"
                f"{'%.17g' % pc.relative_gap},{'%.17g' % pc.oscillation_amplitude},"
                f"{'%.17g' % sin.relative_gap},{'%.17g' % sin.oscillation_amplitude}\n"
            )
        assert len(results) == 2
        assert (tmp_path / "homogenization.csv").read_bytes() == expected.encode()


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

    def test_table_bytes(self, tmp_path, monkeypatch):
        # the row loop that wrote speeds.csv in the command line before it
        # went through scenarios._write_csv is the oracle
        rows = []

        def recorded(*args, **kwargs):
            rows.extend(scenarios.speed_table(*args, **kwargs))
            return rows

        monkeypatch.setattr(cli, "speed_table", recorded)
        names = ["jump-increasing-d0.5", "table1-d12.5"]
        assert main(["speed-table", *names, "--out", str(tmp_path)]) == 0
        expected = "preset,tail_mean,tail_peak_to_peak,fkpp_bound\n"
        for row in rows:
            expected += (
                f"{row['preset']},{row['tail_mean']!r},"
                f"{row['tail_peak_to_peak']!r},{row['fkpp_bound']!r}\n"
            )
        assert [row["preset"] for row in rows] == names
        assert (tmp_path / "speeds.csv").read_bytes() == expected.encode()

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
        [["speed-table", "no-such"], ["homogenize", "--rows", "3,3"]],
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


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    # parsing only: a flag removed or renamed cannot stay documented
    cli._build_parser().parse_args(shlex.split(line)[1:])


def test_readme_lists_every_command():
    commands = {shlex.split(line)[1] for line in readme_commands()}
    assert commands == {"list-presets", "simulate", "homogenize", "convergence", "speed-table"}


def test_readme_library_sketch_runs(capsys):
    # the library API it uses cannot change without the README; a package
    # warning it raises fails the test through the pytest filterwarnings
    sketch = readme_block("Library sketch", "python")
    exec(compile(sketch, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and len(lines[0].split()) == 3, lines


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "acidfront.cli", "list-presets"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "table1-d12.5" in proc.stdout

    def test_import_leaves_scipy_linalg_out(self):
        # importing scipy.linalg took longer than an everyday simulate call;
        # only the fallback to scipy's Cython LAPACK, where numpy bundles no
        # OpenBLAS, loads it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, acidfront.cli; print('scipy.linalg' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{scheme._numpy_openblas() is None}\n"

    def test_import_loads_no_queue_module(self):
        # a march makes both solves on its own thread, so nothing needs a
        # queue's hand-off; numpy loads threading itself, so only queue tells
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, acidfront.cli; print('queue' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.skipif(scheme._numpy_openblas() is None, reason="numpy bundles no OpenBLAS")
    def test_import_and_simulate_load_no_scipy_module(self, tmp_path):
        # the LAPACK routines come from the OpenBLAS numpy has loaded; scipy's
        # own LAPACK extension would map a second one, about 2.6 MiB resident
        code = (
            "import sys, acidfront.cli\n"
            "status = acidfront.cli.main(['simulate', 'table1-d12.5', '--T', '0.5', '--out', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "sys.exit(status)"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "table1-d12.5", "--T", "0.5", "--out", "{out}"),
            ("homogenize", "--rows", "3", "--out", "{out}"),
            ("speed-table", "table1-d12.5", "--out", "{out}"),
            ("convergence", "--levels", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_imports_no_numpy_or_scipy_module(self, argv, tmp_path):
        # np.quantile, np.percentile, np.median and np.unique import numpy.ma,
        # which added about 1 MiB to a first simulate; only modules new after
        # start-up count
        code = (
            "import sys, acidfront.cli\n"
            "before = set(sys.modules)\n"
            "status = acidfront.cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith(('numpy', 'scipy'))))\n"
            "sys.exit(status)"
        )
        args = [arg.format(out=tmp_path) for arg in argv]
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

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

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered, monkeypatch):
        # `acidfront list-presets | head` used to print a BrokenPipeError
        # traceback (unbuffered) or "Exception ignored ..." and exit 120
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "acidfront.cli", "list-presets"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")
