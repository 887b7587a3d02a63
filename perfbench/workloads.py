"""The benchmark's workloads, the jobs they draw, and the output checks.

A job is one in-process call of ``acidfront.cli.main`` with generated
arguments. A pass is the list of jobs a workload draws from the seeded
generator; every pass of a workload does the same amount of work (the seed
picks presets inside fixed size classes, and a table3 row, all rows costing
the same), so pass times from different seeds are comparable.

Every run's outputs are checked, and a failed check counts the run as
failed; no deviation size is reported as a metric.
"""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import numpy as np
from acidfront.scenarios import TABLE3_ROWS, preset, render_config

GOLDENS = Path(__file__).resolve().parent / "goldens"

# "Same numbers" for a preset: max-norm deviation of at most 1e-12 relative.
RTOL = 1e-12
# Densities may dip below zero by round-off only.
MIN_FLOOR = -1e-8

# The 24-cell homogenization verdict matrix: (1-based row, family) cells
# that do not homogenize. Every other cell homogenizes.
EXPECTED_NO = {(1, "pc"), (1, "sin"), (2, "pc"), (2, "sin"), (3, "pc")}

# Short untimed run before the first measured pass, so lazy imports and
# first-call costs inside numpy and scipy are paid outside the timing.
WARMUP_ARGS = ("simulate", "table1-d12.5", "--T", "0.5")


def _steps(T: float, dt: float) -> int:
    return max(0, math.ceil(T / dt - 1e-9))


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def matches(actual: np.ndarray, golden: np.ndarray) -> bool:
    """True when ``actual`` equals ``golden`` to RTOL in the max norm."""
    if actual.shape != golden.shape:
        return False
    scale = float(np.max(np.abs(golden))) if golden.size else 0.0
    return bool(np.max(np.abs(actual - golden), initial=0.0) <= RTOL * max(scale, 1e-300))


@dataclasses.dataclass(frozen=True)
class SimulateJob:
    """``acidfront simulate``: one run, checked against its golden."""

    label: str
    args: tuple[str, ...]
    final_time: float
    cells: int
    steps: int

    @property
    def runs(self) -> int:
        return 1

    @property
    def cell_steps(self) -> int:
        return self.cells * self.steps

    def argv(self, outdir: Path) -> tuple[str, ...]:
        return (*self.args, "--out", str(outdir))

    def sizes(self) -> dict:
        return {"label": self.label, "runs": 1, "cells": self.cells, "steps": self.steps}

    def read_outputs(self, outdir: Path) -> dict[str, np.ndarray]:
        """Final u, v, w from the last snapshot and the theta series."""
        snap = np.loadtxt(
            outdir / f"snapshot_t{self.final_time:g}.csv", delimiter=",", skiprows=1, ndmin=2
        )
        speeds = np.loadtxt(outdir / "wavespeed.csv", delimiter=",", skiprows=1, ndmin=2)
        return {"u": snap[:, 1], "v": snap[:, 2], "w": snap[:, 3], "theta": speeds[:, 2]}

    def check(self, outdir: Path, code, stderr: str, goldens) -> tuple[int, list[str]]:
        """(failed runs, reasons) for this job's outputs."""
        if code != 0:
            return 1, [f"{self.label}: exit code {code}: {_tail(stderr)}"]
        try:
            fields = self.read_outputs(outdir)
        except (OSError, ValueError, IndexError) as exc:
            return 1, [f"{self.label}: unreadable outputs: {exc}"]
        reasons = []
        for name, values in fields.items():
            if not np.all(np.isfinite(values)):
                reasons.append(f"{self.label}: {name} has non-finite values")
                continue
            if name != "theta" and values.min() < MIN_FLOOR:
                reasons.append(f"{self.label}: min {name} = {values.min()!r} < {MIN_FLOOR}")
            golden = goldens.get(f"{self.label}:{name}")
            if golden is None:
                reasons.append(f"{self.label}: no golden for {name}")
            elif not matches(values, golden):
                reasons.append(f"{self.label}: {name} differs from its golden")
        return (1 if reasons else 0), reasons


@dataclasses.dataclass(frozen=True)
class HomogenizeJob:
    """``acidfront homogenize``: one verdict cell per (row, family)."""

    rows: tuple[int, ...]
    cells_per_run: int
    steps_per_run: int

    @property
    def label(self) -> str:
        return "homogenize rows " + ",".join(map(str, self.rows))

    @property
    def runs(self) -> int:
        return 2 * len(self.rows)

    @property
    def cell_steps(self) -> int:
        # Each verdict runs the periodic profile and its effective twin.
        return 2 * self.runs * self.cells_per_run * self.steps_per_run

    @property
    def args(self) -> tuple[str, ...]:
        return ("homogenize", "--rows", ",".join(map(str, self.rows)))

    def argv(self, outdir: Path) -> tuple[str, ...]:
        return (*self.args, "--out", str(outdir))

    def sizes(self) -> dict:
        return {
            "label": self.label,
            "runs": self.runs,
            "simulations": 2 * self.runs,
            "cells": self.cells_per_run,
            "steps": self.steps_per_run,
        }

    def read_outputs(self, outdir: Path) -> list[dict[str, str]]:
        lines = (outdir / "homogenization.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def check(self, outdir: Path, code, stderr: str, goldens) -> tuple[int, list[str]]:
        if code != 0:
            return self.runs, [f"{self.label}: exit code {code}: {_tail(stderr)}"]
        try:
            table = self.read_outputs(outdir)
        except (OSError, IndexError) as exc:
            return self.runs, [f"{self.label}: unreadable outputs: {exc}"]
        if len(table) != len(self.rows):
            return self.runs, [f"{self.label}: {len(table)} table rows, expected {len(self.rows)}"]
        failed, reasons = 0, []
        for row, line in zip(self.rows, table):
            problem = _row_problem(row, line)
            if problem:
                failed += 2
                reasons.append(f"row {row}: {problem}")
                continue
            for family, column in (("pc", "piecewise_constant"), ("sin", "sinusoidal")):
                expected = "NO" if (row, family) in EXPECTED_NO else "HOM"
                if line.get(column) != expected:
                    failed += 1
                    reasons.append(f"row {row} {family}: verdict {line.get(column)}, expected {expected}")
        return failed, reasons


def _row_problem(row: int, line: dict[str, str]) -> str | None:
    """Why a homogenization table line cannot be trusted, or None."""
    try:
        key = tuple(float(line[k]) for k in ("d", "omega", "alpha0", "alpha1"))
        numbers = [float(line[k]) for k in (
            "pc_relative_gap", "pc_oscillation", "sin_relative_gap", "sin_oscillation")]
    except (KeyError, ValueError) as exc:
        return f"unreadable: {exc}"
    if key != tuple(float(f"{v:g}") for v in TABLE3_ROWS[row - 1]):
        return f"parameters {key}"
    if not all(math.isfinite(x) for x in numbers):
        return "non-finite gap or oscillation"
    return None


def _preset_job(name: str) -> SimulateJob:
    cfg = preset(name)
    return SimulateJob(
        label=name,
        args=("simulate", name),
        final_time=cfg.T,
        cells=cfg.mesh().n_cells,
        steps=_steps(cfg.T, cfg.dt),
    )


class PresetSweep:
    """The everyday user commands on catalog presets at their standard grids.

    Each pass runs ``acidfront simulate`` (with CSV and summary output) on
    one preset per size class, so every pass runs 400x2000 + 2 x 200x2000
    + 500x4000 cell-steps, and ``acidfront homogenize`` on one table3 row:
    its periodic profiles and their effective twins, four 200x2000 runs that
    share mesh, dt and T.
    """

    name = "preset-sweep"
    SLOTS = (
        (("table1-d0.5", "table1-d1.5", "table1-d2.5", "table1-d12.5"), 1),
        (
            (
                "jump-increasing-d0.5",
                "jump-increasing-d12.5",
                "jump-increasing-d35",
                "jump-decreasing-d0.5",
                "jump-decreasing-mild-pl-d12.5",
                "periodic-w50-d0.5",
                "periodic-w50-d20",
                "periodic-w100-d1.5",
                "periodic-w100-d60",
                "periodic-w50-a0.4-0.6-d20",
                "appendix-w50-a0.8-1-d20",
                "appendix-w200-a0.01-0.06-d200",
            ),
            2,
        ),
        # growth-r10-w50-d30 and -d60 are left out: their fronts reach the
        # right boundary by T = 40 and classification fails there.
        (("growth-r10-w50-d0.5", "growth-r10-w50-d1.5"), 1),
    )

    def __init__(self, inputs: Path):
        self._jobs = {
            name: _preset_job(name) for names, _ in self.SLOTS for name in names
        }
        cfg = preset("table3-row01-pc")
        self._cells = cfg.mesh().n_cells
        self._steps = _steps(cfg.T, cfg.dt)

    def _homogenize(self, row: int) -> HomogenizeJob:
        return HomogenizeJob(rows=(row,), cells_per_run=self._cells, steps_per_run=self._steps)

    def draw(self, rng: random.Random) -> list:
        jobs = [self._jobs[name] for names, count in self.SLOTS for name in rng.sample(names, count)]
        return jobs + [self._homogenize(rng.randint(1, len(TABLE3_ROWS)))]

    def pool(self) -> list[SimulateJob]:
        return list(self._jobs.values())

    def tiny(self) -> list:
        # Row 3 holds one NO and one HOM verdict.
        return [self._jobs["periodic-w50-d20"], self._homogenize(3)]


class FineMesh:
    """A few presets refined with ``--dx`` to 4 000-20 000 cells, with a
    shortened ``--T``.

    The preset is passed as a config file whose only snapshot is the
    shortened final time, so the final fields are written and checked.
    """

    name = "fine-mesh"
    # (presets, dx, T): each size class gives one job per pass.
    SLOTS = (
        (("periodic-w100-d20", "jump-increasing-d12.5"), 0.00025, 5.0),
        (("table1-d0.5", "table1-d12.5"), 0.0002, 3.0),
        # One preset only: each 20 000-cell golden takes about 350 KB.
        (("table3-row03-sin",), 0.00005, 2.0),
    )

    def __init__(self, inputs: Path):
        inputs.mkdir(parents=True, exist_ok=True)
        self._slots = []
        for names, dx, T in self.SLOTS:
            jobs = []
            for name in names:
                cfg = dataclasses.replace(preset(name), snapshots=(T,))
                path = inputs / f"{name}-T{T:g}.cfg"
                path.write_text(render_config(cfg))
                jobs.append(
                    SimulateJob(
                        label=f"{name}@dx={dx!r}@T={T:g}",
                        args=("simulate", str(path), "--dx", repr(dx), "--T", repr(T)),
                        final_time=T,
                        cells=round((cfg.xmax - cfg.xmin) / dx),
                        steps=_steps(T, cfg.dt),
                    )
                )
            self._slots.append(jobs)

    def draw(self, rng: random.Random) -> list[SimulateJob]:
        return [rng.choice(jobs) for jobs in self._slots]

    def pool(self) -> list[SimulateJob]:
        return [job for jobs in self._slots for job in jobs]

    def tiny(self) -> list[SimulateJob]:
        return [self._slots[0][0]]


WORKLOADS = {cls.name: cls for cls in (PresetSweep, FineMesh)}


def make(name: str, inputs: Path):
    return WORKLOADS[name](inputs)


def load_goldens(name: str) -> dict[str, np.ndarray]:
    with np.load(GOLDENS / f"{name}.npz") as data:
        return {key: data[key] for key in data.files}
