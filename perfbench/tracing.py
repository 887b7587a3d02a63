"""Spans around the program's public functions, recorded from outside it.

``install`` rebinds each traced function to a timing wrapper in every
``acidfront`` module that holds it (a name imported with ``from .x import
f`` is a separate binding that must be replaced too), and rebinds the
traced methods on their classes. ``uninstall`` restores the originals.
Nothing in the package changes.

A span carries its name, start, end, parent span and run id (the job index
within the pass). Spans are kept in flat arrays in memory and written out
when the pass ends. A span's self time is its duration minus the durations
of its child spans. Code the program runs outside every traced function
counts in its caller's self time; ``trace.unattributed_frac`` is the share
of the pass spent in no layer below ``cli.main`` (the benchmark's own loop
and ``cli.main``'s self time).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench.pass"

# (module, attribute path) of each traced function. Methods are rebound on
# their class; functions in every acidfront module that imported them.
TARGETS = (
    ("cli", "main"),
    ("scenarios", "run_scenario"),
    ("scenarios", "run_homogenization_suite"),
    ("scenarios", "SnapshotWriter.write"),
    ("scenarios", "run_config"),
    ("analysis", "homogenization_compare"),
    ("analysis", "effective_diffusivity"),
    ("analysis", "WaveSpeedRecorder.__call__"),
    ("analysis", "PositivityRecorder.__call__"),
    ("analysis", "tail_speed"),
    ("analysis", "detect_gap"),
    ("analysis", "classify_invasion"),
    ("scheme", "run"),
    ("scheme", "step_imex"),
    ("scheme", "assemble_implicit_v"),
    ("scheme", "assemble_implicit_w"),
    ("scheme", "solve_tridiagonal"),
    ("core", "reaction_u"),
    ("core", "reaction_v"),
    ("core", "reaction_w"),
    ("mesh", "project_cell_averages"),
)

# Bindings the package makes by ``from .x import f``; install() must find
# each of them, or calls through it would go untraced.
REQUIRED_REBINDINGS = (
    "acidfront.scheme.run",
    "acidfront.scenarios.run",
    "acidfront.scenarios.homogenization_compare",
    "acidfront.scheme.reaction_u",
    "acidfront.scheme.reaction_v",
    "acidfront.scheme.reaction_w",
    "acidfront.scenarios.solve_tridiagonal",
    "acidfront.scenarios.assemble_implicit_w",
    "acidfront.cli.run_scenario",
    "acidfront.cli.run_homogenization_suite",
)


def _system_size(system, *args, **kwargs) -> int:
    return int(system.diag.size)


SIZE_OF = {"scheme.solve_tridiagonal": _system_size}


class Tracer:
    """In-memory span store; ``wrap`` returns a timing wrapper for a callable."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_run = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size_of=None):
        nid = len(self.names)
        self.names.append(name)
        stack, parents, runs, sizes = self._stack, self.parent, self.run_id, self.size
        names, starts, ends = self.name_id, self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.current_run)
            sizes.append(size_of(*args, **kwargs) if size_of is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)), **self.arrays())


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every traced function; returns the (owner, attribute, original)
    list that ``uninstall`` restores."""
    modules = {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "acidfront" or name.startswith("acidfront."))
    }
    patches = []
    for module_name, path in TARGETS:
        owner = modules[f"acidfront.{module_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(f"{module_name}.{path}", original, SIZE_OF.get(f"{module_name}.{path}"))
        if outer:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def rebinding_sites(patches) -> list[str]:
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in patches
    )


class SpanTable:
    """Per-span durations and self times of a finished trace."""

    def __init__(self, tracer: Tracer):
        data = tracer.arrays()
        self.names = tracer.names
        self.name_id = data["name_id"]
        self.parent = data["parent"]
        self.size = data["size"]
        self.duration = data["end"] - data["start"]
        nested = self.parent >= 0
        children = np.bincount(
            self.parent[nested], weights=self.duration[nested], minlength=self.duration.size
        )
        self.self_time = self.duration - children

    def mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names]
        return np.isin(self.name_id, ids)

    def calls(self, *names) -> int:
        return int(self.mask(names).sum())

    def total(self, *names) -> float:
        """Time inside the named spans, counting nested ones once."""
        inside = self.mask(names)
        has_parent = self.parent >= 0
        parent_inside = np.zeros_like(inside)
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        return float(self.duration[inside & ~parent_inside].sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self.mask(names)].sum())

    def percentile_us(self, name: str, q: float) -> float:
        durations = self.duration[self.mask([name])]
        return float(np.percentile(durations, q) * 1e6) if durations.size else 0.0

    def wall(self) -> float:
        return self.total(ROOT_SPAN)

    def self_by_name(self) -> dict[str, float]:
        sums = np.bincount(self.name_id, weights=self.self_time, minlength=len(self.names))
        return {name: float(s) for name, s in zip(self.names, sums)}


def layer_metrics(spans: SpanTable) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    reactions = ("core.reaction_u", "core.reaction_v", "core.reaction_w")
    observers = ("analysis.WaveSpeedRecorder.__call__", "analysis.PositivityRecorder.__call__")
    diagnostics = ("analysis.tail_speed", "analysis.detect_gap", "analysis.classify_invasion")
    solve = "scheme.solve_tridiagonal"
    solve_mask = spans.mask([solve])
    # Bytes a tridiagonal solve must touch: three bands (3N - 2 values) and
    # the right-hand side read, the solution written, 8 bytes per value.
    solve_bytes = float(np.sum(8 * (5 * spans.size[solve_mask] - 2)))
    io_s = (
        spans.total("scenarios.SnapshotWriter.write")
        + spans.self_s("scenarios.run_scenario")
        + spans.self_s("scenarios.run_homogenization_suite")
    )
    return {
        "scheme.step_imex.calls": (spans.calls("scheme.step_imex"), "count"),
        "scheme.step_imex.self_s": (spans.self_s("scheme.step_imex"), "s"),
        "scheme.step_imex.p50_us": (spans.percentile_us("scheme.step_imex", 50), "us"),
        "scheme.step_imex.p99_us": (spans.percentile_us("scheme.step_imex", 99), "us"),
        "core.reactions.calls": (spans.calls(*reactions), "count"),
        "core.reactions.total_s": (spans.total(*reactions), "s"),
        "scheme.solve_tridiagonal.calls": (spans.calls(solve), "count"),
        "scheme.solve_tridiagonal.total_s": (spans.total(solve), "s"),
        "scheme.solve_tridiagonal.p50_us": (spans.percentile_us(solve, 50), "us"),
        "scheme.solve_tridiagonal.bytes_computed": (solve_bytes, "B"),
        "scheme.assemble_implicit_v.total_s": (spans.total("scheme.assemble_implicit_v"), "s"),
        "scheme.assemble_implicit_w.total_s": (spans.total("scheme.assemble_implicit_w"), "s"),
        "scheme.run.calls": (spans.calls("scheme.run"), "count"),
        "scheme.run.self_s": (spans.self_s("scheme.run"), "s"),
        "analysis.observers.total_s": (spans.total(*observers), "s"),
        "analysis.homogenization_compare.calls": (spans.calls("analysis.homogenization_compare"), "count"),
        "scenarios.run_config.calls": (spans.calls("scenarios.run_config"), "count"),
        "scenarios.run_config.self_s": (spans.self_s("scenarios.run_config"), "s"),
        "analysis.diagnostics.total_s": (spans.total(*diagnostics), "s"),
        "mesh.project_cell_averages.total_s": (spans.total("mesh.project_cell_averages"), "s"),
        "scenarios.io.total_s": (io_s, "s"),
        "cli.main.calls": (spans.calls("cli.main"), "count"),
        "cli.main.self_s": (spans.self_s("cli.main"), "s"),
        "bench.pass.self_s": (spans.self_s(ROOT_SPAN), "s"),
        "trace.wall_s": (spans.wall(), "s"),
        "trace.unattributed_frac": (
            (spans.self_s(ROOT_SPAN) + spans.self_s("cli.main")) / spans.wall(), "frac"),
    }


def _p50_us(fn, repeats: int) -> float:
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples) * 1e6


def kernel_timings(seed: int, repeats: int = 2000) -> dict[str, tuple[float, str]]:
    """Isolated, untraced timings: one tridiagonal solve at N = 200, 400
    and 1600, and one IMEX step at N = 400."""
    from acidfront.mesh import build_uniform_mesh, project_cell_averages
    from acidfront.scenarios import initial_state, preset
    from acidfront.scheme import SchemeOptions, assemble_implicit_w, solve_tridiagonal, step_imex

    rng = np.random.default_rng(seed)
    opts = SchemeOptions(dt=0.01)
    metrics = {}
    for n in (200, 400, 1600):
        mesh = build_uniform_mesh(0.0, 1.0, 1.0 / n)
        system = assemble_implicit_w(rng.uniform(0.1, 1.0, n), rng.uniform(0.0, 1.0, n), opts, mesh)
        metrics[f"scheme.solve_tridiagonal.n{n}_p50_us"] = (
            _p50_us(lambda: solve_tridiagonal(system), repeats), "us")

    cfg = preset("table1-d12.5")
    mesh = cfg.mesh()
    a_cells = project_cell_averages(cfg.profile, mesh)
    opts = SchemeOptions(dt=cfg.dt)
    state = initial_state(cfg.initial, mesh)

    def step():
        nonlocal state
        state = step_imex(state, a_cells, cfg.params, opts)

    metrics["scheme.step_imex.n400_p50_us"] = (_p50_us(step, repeats // 2), "us")
    return metrics
