"""Scenario catalog, configuration files, experiment drivers, and file output.

A scenario bundles model parameters, a diffusivity profile, the initial
profile kind, and a finite space-time grid whose final time and snapshot
times are whole numbers of steps dt (the final time at least one).  A run's
RunResult holds the front speed, gap, classification and warnings that
``summary.txt`` renders; their thresholds are constants of ``analysis``.

The preset catalog reproduces the reference experiments: the
homogeneous-diffusivity baseline (four destructiveness regimes), single-jump
and periodic diffusivities, the fast-growth variant, and the 12-row
homogenization benchmark matrix.

All file output is deterministic.  CSV floats carry 17 significant digits
(``%.17g``), except in ``speeds.csv``, which writes each float's repr, and
the row parameters of ``homogenization.csv``, which are written with ``%g``.
Summaries and configs are flat key=value text.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    GAP_THRESHOLD,
    GapReport,
    PositivityRecorder,
    WaveSpeedRecorder,
    WaveSpeedSeries,
    classify_invasion,
    detect_gap,
    effective_diffusivity,
    homogenization_compare,
    tail_speed,
)
from .core import ModelParameters, fkpp_minimal_speed
from .errors import ConfigurationError
from .mesh import (
    Constant,
    DiffusionProfile,
    Mesh,
    PeriodicPiecewiseConstant,
    Sinusoidal,
    SingleJump,
    aliasing_multiple,
    build_uniform_mesh,
    cell_count,
    project_cell_averages,
)
from .scheme import (
    GRID_TOL,
    SchemeOptions,
    SimulationState,
    assemble_implicit_w,
    reaction_step_limit,
    run,
    solve_tridiagonal,
    step_count,
)

RIEMANN = "riemann"
PIECEWISE_LINEAR = "piecewise_linear"

_FLOAT_FMT = "%.17g"
# Rows per ``%`` call in _write_csv: 256 formatted a 20 000-row snapshot a
# few per cent faster than 64, but raised a preset run's peak RSS by 0.3 MiB.
_ROWS_PER_WRITE = 64


def _off_grid(t: float, dt: float) -> bool:
    return abs(t / dt - step_count(0.0, t, dt)) > GRID_TOL


def _snapshot_name(t: float) -> str:
    return f"snapshot_t{t:g}.csv"


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    params: ModelParameters
    profile: DiffusionProfile
    initial: str
    xmin: float
    xmax: float
    dx: float
    dt: float
    T: float
    snapshots: tuple[float, ...] = ()

    def __post_init__(self):
        cell_count(self.xmin, self.xmax, self.dx)
        _initial_edges(self.initial, self.xmin, self.xmax)
        if not 0.0 < self.dt < math.inf:
            raise ConfigurationError(f"time step must be positive and finite, got dt={self.dt!r}")
        if not 0.0 < self.T < math.inf:
            raise ConfigurationError(f"final time must be positive and finite, got T={self.T!r}")
        if not self.T / self.dt < np.iinfo(np.intp).max:
            raise ConfigurationError(f"T/dt = {self.T / self.dt!r} is more than an array can index")
        if step_count(0.0, self.T, self.dt) == 0:
            raise ConfigurationError(
                f"final time {self.T!r} is shorter than one step dt={self.dt!r}"
            )
        if _off_grid(self.T, self.dt):
            raise ConfigurationError(
                f"final time {self.T!r} is not a whole number of steps dt={self.dt!r}"
            )
        if len({_snapshot_name(t) for t in self.snapshots}) < len(set(self.snapshots)):
            raise ConfigurationError(f"distinct snapshot times {self.snapshots!r} share a file name")
        for t in self.snapshots:
            if not 0.0 <= t <= self.T:
                raise ConfigurationError(
                    f"snapshot time {t!r} outside [0, {self.T!r}]"
                )
            if _off_grid(t, self.dt):
                raise ConfigurationError(
                    f"snapshot time {t!r} is not a whole number of steps dt={self.dt!r}"
                )
        if isinstance(self.profile, SingleJump) and not (
            self.xmin < self.profile.x_jump < self.xmax
        ):
            raise ConfigurationError(
                f"diffusivity jump at {self.profile.x_jump!r} lies outside "
                f"({self.xmin!r}, {self.xmax!r})"
            )

    def mesh(self) -> Mesh:
        return build_uniform_mesh(self.xmin, self.xmax, self.dx)


def _initial_edges(kind: str, xmin: float, xmax: float) -> tuple[float, ...]:
    """The tumour edge L/4 of a ``riemann`` initial profile on [xmin, xmax],
    or the ends L/8 and 3L/8 of a ``piecewise_linear`` one's ramp, where
    L = xmax.  An unknown kind, or an edge not strictly inside the domain,
    is a ConfigurationError."""
    if kind == RIEMANN:
        edges = (0.25 * xmax,)
    elif kind == PIECEWISE_LINEAR:
        edges = (0.125 * xmax, 0.375 * xmax)
    else:
        raise ConfigurationError(
            f"unknown initial profile kind {kind!r} (choose {RIEMANN!r} or {PIECEWISE_LINEAR!r})"
        )
    if not (xmin < edges[0] and edges[-1] < xmax):
        raise ConfigurationError(
            f"initial {kind} profile edges {edges!r} do not lie inside the domain "
            f"[{xmin!r}, {xmax!r}]"
        )
    return edges


def initial_state(kind: str, m: Mesh) -> SimulationState:
    """Initial fields on ``m``: a tumour core on the left, complementary
    healthy tissue (u = 1 - v), no acid.

    ``riemann`` drops v from 1 to 0 at L/4 (in-vitro inoculation with a
    sharp edge); ``piecewise_linear`` keeps the core at full density up to
    L/8 and ramps linearly to zero at 3L/8 (gradual in-vivo development),
    where L is the right end of the mesh.
    """
    x = m.centers
    edges = _initial_edges(kind, m.xmin, m.xmax)
    if kind == RIEMANN:
        (jump,) = edges
        v = np.where(x < jump, 1.0, 0.0)
    else:
        x0, x1 = edges
        v = np.clip((x1 - x) / (x1 - x0), 0.0, 1.0)
        v = np.where(x <= x0, 1.0, v)
    return SimulationState(mesh=m, time=0.0, u=1.0 - v, v=v, w=np.zeros(m.n_cells))


# ---------------------------------------------------------------------------
# Preset catalog

# Shared experimental constants: growth ratio, diffusivity ratio, acid rate,
# and the space-time grid.
_R, _D, _C = 1.0, 4e-5, 70.0
_DX, _DT, _T = 0.005, 0.01, 20.0

# Homogenization benchmark rows: (d, omega, alpha0, alpha1).  Piecewise
# square waves use beta = 1/2 and omega/2 periods per unit length.
TABLE3_ROWS: tuple[tuple[float, float, float, float], ...] = (
    (0.5, 100.0, 0.01, 1.0),
    (1.5, 100.0, 0.01, 1.0),
    (30.0, 100.0, 0.01, 1.0),
    (60.0, 100.0, 0.01, 1.0),
    (0.5, 50.0, 0.95, 1.0),
    (1.5, 50.0, 0.95, 1.0),
    (30.0, 50.0, 0.95, 1.0),
    (60.0, 50.0, 0.95, 1.0),
    (0.5, 50.0, 0.4, 0.6),
    (1.5, 50.0, 0.4, 0.6),
    (30.0, 50.0, 0.4, 0.6),
    (60.0, 50.0, 0.4, 0.6),
)


def _config(d, profile, initial, xmin, xmax, T=_T, r=_R):
    return ScenarioConfig(
        params=ModelParameters(d=d, r=r, D=_D, c=_C),
        profile=profile,
        initial=initial,
        xmin=xmin,
        xmax=xmax,
        dx=_DX,
        dt=_DT,
        T=T,
        snapshots=(0.0, T),
    )


def _build_catalog() -> dict[str, ScenarioConfig]:
    cat: dict[str, ScenarioConfig] = {}

    # Homogeneous diffusivity baseline on [-1, 1]: the four invasion regimes.
    for d in (0.5, 1.5, 2.5, 12.5):
        cat[f"table1-d{d:g}"] = _config(d, Constant(1.0), PIECEWISE_LINEAR, -1.0, 1.0)

    # Single-jump diffusivity at 5L/8 on [0, 1].
    up = SingleJump(0.1, 1.0, 0.625)
    down = SingleJump(1.0, 0.1, 0.625)
    for d in (0.5, 1.5, 12.5, 35.0):
        cat[f"jump-increasing-d{d:g}"] = _config(d, up, RIEMANN, 0.0, 1.0)
    for d in (0.5, 12.5):
        cat[f"jump-decreasing-d{d:g}"] = _config(d, down, RIEMANN, 0.0, 1.0)
    cat["jump-increasing-pl-d0.5"] = _config(0.5, up, PIECEWISE_LINEAR, 0.0, 1.0)
    cat["jump-decreasing-pl-d0.5"] = _config(0.5, down, PIECEWISE_LINEAR, 0.0, 1.0)
    cat["jump-decreasing-mild-pl-d12.5"] = _config(
        12.5, SingleJump(1.0, 0.8, 0.625), PIECEWISE_LINEAR, 0.0, 1.0
    )
    cat["jump-decreasing-weak-pl-d12.5"] = _config(
        12.5, SingleJump(0.3, 0.1, 0.625), PIECEWISE_LINEAR, 0.0, 1.0
    )

    # Sinusoidal diffusivity on [0, 1].
    for omega, ds in ((50.0, (0.5, 1.5, 20.0, 30.0, 60.0)), (100.0, (0.5, 1.5, 20.0, 30.0, 50.0, 60.0))):
        for d in ds:
            cat[f"periodic-w{omega:g}-d{d:g}"] = _config(
                d, Sinusoidal(0.1, 1.0, omega), PIECEWISE_LINEAR, 0.0, 1.0
            )
    for d in (0.5, 20.0):
        cat[f"periodic-w50-a0.4-0.6-d{d:g}"] = _config(
            d, Sinusoidal(0.4, 0.6, 50.0), PIECEWISE_LINEAR, 0.0, 1.0
        )
        cat[f"appendix-w50-a0.8-1-d{d:g}"] = _config(
            d, Sinusoidal(0.8, 1.0, 50.0), PIECEWISE_LINEAR, 0.0, 1.0
        )
        cat[f"appendix-w50-a0.1-0.3-d{d:g}"] = _config(
            d, Sinusoidal(0.1, 0.3, 50.0), PIECEWISE_LINEAR, 0.0, 1.0
        )
        cat[f"appendix-w50-a0.95-1-d{d:g}"] = _config(
            d, Sinusoidal(0.95, 1.0, 50.0), PIECEWISE_LINEAR, 0.0, 1.0
        )
    cat["appendix-w200-a0.01-0.06-d200"] = _config(
        200.0, Sinusoidal(0.01, 0.06, 200.0), PIECEWISE_LINEAR, 0.0, 1.0
    )

    # Fast tumour growth (r = 10) needs a longer domain and horizon to watch
    # the quicker front.  (At d = 30 and 60 the front left [0, 2.5] before
    # T = 40, so those runs could never be classified.)
    for d in (0.5, 1.5):
        cat[f"growth-r10-w50-d{d:g}"] = _config(
            d, Sinusoidal(0.1, 1.0, 50.0), PIECEWISE_LINEAR, 0.0, 2.5, T=40.0, r=10.0
        )

    # Homogenization benchmark rows, both profile families.
    for i, (d, omega, a0, a1) in enumerate(TABLE3_ROWS, start=1):
        pc = PeriodicPiecewiseConstant(alpha0=a0, alpha1=a1, beta=0.5, periods=omega / 2.0)
        sin = Sinusoidal(alpha0=a0, alpha1=a1, omega=omega)
        cat[f"table3-row{i:02d}-pc"] = _config(d, pc, PIECEWISE_LINEAR, 0.0, 1.0)
        cat[f"table3-row{i:02d}-sin"] = _config(d, sin, PIECEWISE_LINEAR, 0.0, 1.0)
    return cat


_CATALOG = _build_catalog()


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def preset(name: str) -> ScenarioConfig:
    """Look up a catalog scenario by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        available = "\n  ".join(preset_names())
        raise ConfigurationError(
            f"unknown preset {name!r}; available presets:\n  {available}"
        ) from None


# ---------------------------------------------------------------------------
# Config file format: flat key=value text

_PROFILE_KINDS = {
    "constant": Constant,
    "single_jump": SingleJump,
    "periodic_piecewise_constant": PeriodicPiecewiseConstant,
    "sinusoidal": Sinusoidal,
}


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: {raw!r} is not a number") from None


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    items = raw.split(",") if raw else []
    if "" in items:
        raise ConfigurationError(f"key {key!r}: empty item in {raw!r}")
    return tuple(_parse_float(key, item) for item in items)


# How a value of each field annotation is written and read back.
_FORMATS = {
    "float": (repr, _parse_float),
    "str": (str, lambda key, raw: raw),
    "tuple[float, ...]": (lambda values: ",".join(map(repr, values)), _parse_floats),
}

# The keys of the scenario itself; its first two fields, params and profile,
# nest the keys of their own dataclasses.
_SCENARIO_FIELDS = dataclasses.fields(ScenarioConfig)[2:]


def render_config(cfg: ScenarioConfig) -> str:
    """Serialize a scenario to flat key=value text (parse round-trips)."""
    kind = next((k for k, cls in _PROFILE_KINDS.items() if type(cfg.profile) is cls), None)
    if kind is None:
        raise ConfigurationError(f"unsupported profile type {type(cfg.profile).__name__}")

    def lines(obj, fields, prefix=""):
        return [f"{prefix}{f.name}={_FORMATS[f.type][0](getattr(obj, f.name))}" for f in fields]

    return "\n".join([
        *lines(cfg.params, dataclasses.fields(cfg.params)),
        f"profile={kind}",
        *lines(cfg.profile, dataclasses.fields(cfg.profile), "profile."),
        *lines(cfg, _SCENARIO_FIELDS),
    ]) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat key=value scenario format; unknown keys are rejected."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = raw.strip()

    def take(key: str) -> str:
        try:
            return entries.pop(key)
        except KeyError:
            raise ConfigurationError(f"missing required key {key!r}") from None

    def values(fields, prefix="") -> dict:
        return {f.name: _FORMATS[f.type][1](prefix + f.name, take(prefix + f.name)) for f in fields}

    kind = take("profile")
    if kind not in _PROFILE_KINDS:
        raise ConfigurationError(
            f"unknown profile kind {kind!r} (choose one of {sorted(_PROFILE_KINDS)})"
        )
    cls = _PROFILE_KINDS[kind]
    try:
        profile = cls(**values(dataclasses.fields(cls), "profile."))
    except ValueError as exc:
        raise ConfigurationError(f"invalid profile: {exc}") from exc
    try:
        params = ModelParameters(**values(dataclasses.fields(ModelParameters)))
    except ValueError as exc:
        raise ConfigurationError(f"invalid parameters: {exc}") from exc
    cfg = ScenarioConfig(params, profile, **values(_SCENARIO_FIELDS))
    if entries:
        raise ConfigurationError(f"unknown keys: {sorted(entries)}")
    return cfg


# ---------------------------------------------------------------------------
# Experiment drivers

@dataclass(frozen=True)
class RunResult:
    """Outcome of one run (no file output) and its diagnostics, which
    ``render`` digests as deterministic key=value text.  ``wall_time_s`` is
    the time of the whole batch the run marched in (see ``run_configs``).
    A front that has left the domain cannot be classified: the
    classification is then None, the tail speed statistics are NaN and a
    warning says why."""

    config: ScenarioConfig
    final_state: SimulationState
    speed_series: WaveSpeedSeries
    min_u: float
    min_v: float
    min_w: float
    max_u: float
    max_v: float
    max_w: float
    steps: int
    wall_time_s: float
    warnings: tuple[str, ...]
    classification: str | None
    gap: GapReport
    tail_mean: float
    tail_peak_to_peak: float

    def render(self) -> str:
        def fmt(value) -> str:
            if value is None:
                return "none"
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, float):
                return _FLOAT_FMT % value
            return str(value)

        lines = [
            f"classification={fmt(self.classification)}",
            f"gap_present={fmt(self.gap.present)}",
            f"gap_left={fmt(self.gap.left_edge)}",
            f"gap_right={fmt(self.gap.right_edge)}",
            f"gap_width={fmt(self.gap.width)}",
            f"gap_threshold={fmt(GAP_THRESHOLD)}",
            f"tail_mean={fmt(self.tail_mean)}",
            f"tail_peak_to_peak={fmt(self.tail_peak_to_peak)}",
            f"steps={self.steps}",
            f"wall_time_s={fmt(self.wall_time_s)}",
            "warnings=" + "|".join(self.warnings),
        ]
        return "\n".join(lines) + "\n"


def _write_csv(path, header: str, formats, columns):
    """Write the equal-length ``columns`` as CSV rows under ``header``, each
    value formatted by its column's entry of ``formats``: one ``%`` and one
    write per _ROWS_PER_WRITE rows, which holds one chunk's values at once."""
    row = ",".join(formats) + "\n"
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while chunk := tuple(itertools.chain.from_iterable(itertools.islice(rows, _ROWS_PER_WRITE))):
            fh.write((row * (len(chunk) // len(formats))) % chunk)


class SnapshotWriter:
    """Run observer writing x,u,v,w CSV snapshots of a single run on
    ``mesh`` at requested times, which must be whole numbers of steps dt;
    each is written from the state after its step (a time of 0 from the
    state the run starts from)."""

    def __init__(self, outdir: Path, mesh: Mesh, times, dt: float):
        self._outdir = Path(outdir)
        self._centers = mesh.centers
        self._pending = {round(t / dt): t for t in times}

    def write(self, fields: np.ndarray, label_time: float):
        """Write the (3, N) fields u, v, w as the snapshot at ``label_time``."""
        path = self._outdir / _snapshot_name(label_time)
        _write_csv(path, "x,u,v,w", (_FLOAT_FMT,) * 4, (self._centers, *fields))

    def __call__(self, first_step: int, times: np.ndarray, fields: np.ndarray):
        last = first_step + len(times) - 1
        for step in sorted(s for s in self._pending if first_step <= s <= last):
            self.write(fields[step - first_step], self._pending.pop(step))


def _diagnose(cfg: ScenarioConfig, state: SimulationState, series: WaveSpeedSeries, near) -> dict:
    """The warnings, classification, gap and tail speed of a finished run
    (``near`` if its front came near the boundary), as keyword arguments of
    its RunResult."""
    run_warnings = []
    limit = reaction_step_limit(cfg.params)
    if cfg.dt > limit:
        run_warnings.append(f"dt={cfg.dt!r} exceeds the explicit reaction limit {limit!r}")
    nearest = aliasing_multiple(cfg.dx, cfg.profile)
    if nearest:
        run_warnings.append(f"cell width ~ {nearest} x diffusivity period; oscillations alias")
    if near:
        run_warnings.append("tumour front approached the domain boundary")
    classification = None
    try:
        classification = str(classify_invasion(state, cfg.params.d))
    except ValueError:
        run_warnings.append("no tumour front left inside the domain; not classified")
    # a tail taken after the front left the domain averages no front speed
    tail_mean, tail_peak_to_peak = (
        tail_speed(series) if classification is not None else (math.nan, math.nan)
    )
    return dict(warnings=tuple(run_warnings), classification=classification, gap=detect_gap(state),
                tail_mean=tail_mean, tail_peak_to_peak=tail_peak_to_peak)


def _batch_key(cfg: ScenarioConfig):
    """What the runs of one batch must share: mesh, dt, T and D."""
    return (cfg.xmin, cfg.xmax, cfg.dx, cfg.dt, cfg.T, cfg.params.D)


def _run_batch(cfgs, extra_observers=(), mesh=None) -> list[RunResult]:
    """March scenarios sharing one ``_batch_key`` on ``mesh`` (the first's if
    None) as one block-diagonal batch; each result's wall time is the batch's."""
    first = cfgs[0]
    mesh = first.mesh() if mesh is None else mesh
    positivity, recorder = PositivityRecorder(), WaveSpeedRecorder(mesh, first.dt)

    started = time.perf_counter()
    # run drops the initial states once it seeds its history: no name here keeps them
    finals = run(
        [initial_state(cfg.initial, mesh) for cfg in cfgs],
        [cfg.profile for cfg in cfgs],
        [cfg.params for cfg in cfgs],
        SchemeOptions(dt=first.dt),
        first.T,
        observers=[*extra_observers, positivity, recorder],
    )
    elapsed = time.perf_counter() - started

    # one column per run
    ranges = np.concatenate((positivity.minima, positivity.maxima)).reshape(6, -1)
    near = np.atleast_1d(recorder.front_near_boundary)
    steps = step_count(0.0, first.T, first.dt)
    results = []
    for b, (cfg, state) in enumerate(zip(cfgs, finals)):
        series = recorder.series(b)
        min_u, min_v, min_w, max_u, max_v, max_w = ranges[:, b].tolist()
        results.append(RunResult(
            config=cfg,
            final_state=state,
            speed_series=series,
            min_u=min_u, min_v=min_v, min_w=min_w, max_u=max_u, max_v=max_v, max_w=max_w,
            steps=steps,
            wall_time_s=elapsed,
            **_diagnose(cfg, state, series, near[b]),
        ))
    return results


def run_config(cfg: ScenarioConfig, extra_observers=()) -> RunResult:
    """Execute a scenario in memory and collect diagnostics."""
    return _run_batch([cfg], extra_observers)[0]


def run_configs(cfgs) -> list[RunResult]:
    """Execute scenarios in memory, in the order given.  Those sharing the
    mesh, dt, T and D march together as one batch: one block-diagonal
    system, one LAPACK call per solve for all of them."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_batch_key(cfg), []).append(i)
    results: list = [None] * len(cfgs)
    for members in groups.values():
        for i, result in zip(members, _run_batch([cfgs[i] for i in members])):
            results[i] = result
    return results


def run_scenario(cfg: ScenarioConfig, outdir) -> RunResult:
    """Execute a scenario and write snapshots, the wave-speed series, the
    rendered RunResult (``summary.txt``) and the config under ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = cfg.mesh()  # one mesh serves the writer and the run
    writer = SnapshotWriter(outdir, mesh, cfg.snapshots, cfg.dt)
    result = _run_batch([cfg], (writer,), mesh)[0]

    series = result.speed_series
    _write_csv(
        outdir / "wavespeed.csv", "step,time,theta", ("%d", _FLOAT_FMT, _FLOAT_FMT),
        (range(1, len(series) + 1), series.times, series.thetas),
    )

    (outdir / "summary.txt").write_text(result.render())
    (outdir / "config.txt").write_text(render_config(cfg))
    return result


def _reject_repeats(items, what: str):
    """Raise ConfigurationError for the first item selected more than once:
    it would run twice and be written twice."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigurationError(f"{what} {item!r} selected more than once")


def effective_twin(cfg: ScenarioConfig) -> ScenarioConfig:
    """The scenario with its periodic diffusivity replaced by the constant
    effective one (its harmonic mean); raises ValueError for an aperiodic
    profile."""
    return dataclasses.replace(cfg, profile=Constant(effective_diffusivity(cfg.profile)))


def run_homogenization_suite(numbers, outdir=None):
    """Homogenization comparison for the TABLE3_ROWS rows numbered (from 1)
    by ``numbers``: each row's ``table3-rowNN-pc`` and ``-sin`` presets
    against their effective twins, which march with them as one batch.

    Returns one dict per row with the two verdicts; also writes
    ``homogenization.csv`` when ``outdir`` is given.  Raises
    ConfigurationError, before any run, for an empty selection, an item
    that is not an int (a bool neither), a number outside 1..12 or a row
    selected twice.
    """
    if not numbers:
        raise ConfigurationError("no homogenization row selected")
    for i in numbers:
        if not isinstance(i, int) or isinstance(i, bool):
            raise ConfigurationError(f"row {i!r} is not an integer")
        if not 1 <= i <= len(TABLE3_ROWS):
            raise ConfigurationError(f"row {i} out of range 1..{len(TABLE3_ROWS)}")
    rows = [TABLE3_ROWS[i - 1] for i in numbers]
    _reject_repeats(rows, "homogenization row")
    periodic = [preset(f"table3-row{i:02d}-{family}") for i in numbers for family in ("pc", "sin")]
    runs = run_configs(periodic + [effective_twin(cfg) for cfg in periodic])
    verdicts = [
        homogenization_compare(p.speed_series, e.speed_series)
        for p, e in zip(runs[: len(periodic)], runs[len(periodic) :])
    ]
    pc, sin = verdicts[0::2], verdicts[1::2]  # each row's pc run comes before its sin run
    results = [
        {"d": d, "omega": omega, "alpha0": a0, "alpha1": a1, "pc": pc_verdict, "sin": sin_verdict}
        for (d, omega, a0, a1), pc_verdict, sin_verdict in zip(rows, pc, sin)
    ]

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_csv(
            outdir / "homogenization.csv",
            "d,omega,alpha0,alpha1,piecewise_constant,sinusoidal,"
            "pc_relative_gap,pc_oscillation,sin_relative_gap,sin_oscillation",
            ("%g",) * 4 + ("%s",) * 2 + (_FLOAT_FMT,) * 4,
            (
                *zip(*rows),
                ["HOM" if v.homogenized else "NO" for v in pc],
                ["HOM" if v.homogenized else "NO" for v in sin],
                [v.relative_gap for v in pc],
                [v.oscillation_amplitude for v in pc],
                [v.relative_gap for v in sin],
                [v.oscillation_amplitude for v in sin],
            ),
        )
    return results


# ---------------------------------------------------------------------------
# Manufactured-solution convergence study for the acid equation

def _manufactured_fields(c: float):
    """Exact solution W(x,t) = exp(-t) cos(pi x) for the acid equation with
    A = 0.5 + 0.1 sin(10 x) on [0, 1]; the tumour field is chosen so that
    the kinetics term supplies exactly the needed source.  W has zero flux
    at both ends, matching the scheme's Neumann closure."""

    def exact(x, t):
        return np.exp(-t) * np.cos(np.pi * x)

    def tumour_source(x, t):
        decay = np.exp(-t)
        w_t = -decay * np.cos(np.pi * x)
        w_x = -np.pi * decay * np.sin(np.pi * x)
        w_xx = -(np.pi**2) * decay * np.cos(np.pi * x)
        a = 0.5 + 0.1 * np.sin(10.0 * x)
        a_x = np.cos(10.0 * x)
        return exact(x, t) + (w_t - (a_x * w_x + a * w_xx)) / c

    return exact, tumour_source


def convergence_study(levels: int):
    """Max-norm error of the acid update against a smooth manufactured
    solution at T = 0.25, halving dx = 0.05 ``levels`` times with dt
    proportional to dx^2.

    Each step is an explicit Euler stage of the acid kinetics, then a
    backward-Euler diffusion solve with the oscillatory coefficient A in
    [0.4, 0.6], assembled by ``assemble_implicit_w`` and solved with gtsv
    (``solve_tridiagonal``) every step.  A run factors that matrix once
    (gttrf) and solves with the factors (gttrs) instead, so this checks the
    discretization, not the stepper's solves.  Returns a list of dicts with
    dx, dt, error, and observed order between levels.
    """
    if levels < 1:
        raise ConfigurationError(f"need at least one refinement, got {levels!r}")
    c, base_dx, T = 1.0, 0.05, 0.25
    exact, tumour_source = _manufactured_fields(c)
    profile = Sinusoidal(0.4, 0.6, 10.0)
    rows = []
    prev_err = None
    for k in range(levels + 1):
        dx = base_dx / 2**k
        mesh = build_uniform_mesh(0.0, 1.0, dx)
        a_cells = project_cell_averages(profile, mesh)
        n_steps = math.ceil(T / (8.0 * dx * dx))
        dt = T / n_steps
        opts = SchemeOptions(dt=dt)
        x = mesh.centers
        w = exact(x, 0.0)
        t = 0.0
        for _ in range(n_steps):
            w_expl = w + dt * c * (tumour_source(x, t) - w)
            w = solve_tridiagonal(assemble_implicit_w(a_cells, w_expl, opts, mesh))
            t += dt
        err = float(np.max(np.abs(w - exact(x, T))))
        order = None if prev_err is None else math.log2(prev_err / err)
        rows.append({"dx": dx, "dt": dt, "steps": n_steps, "error": err, "order": order})
        prev_err = err
    return rows


def observed_order(rows) -> float:
    """Least-squares slope of log(error) against log(dx)."""
    dxs = np.log([row["dx"] for row in rows])
    errs = np.log([row["error"] for row in rows])
    return float(np.polyfit(dxs, errs, 1)[0])


def speed_table(names, outdir=None) -> list[dict]:
    """Tail speed statistics for a batch of presets; presets sharing the
    mesh, dt, T and D march together.  Also writes ``speeds.csv`` when
    ``outdir`` is given.  Raises ConfigurationError, before any run, for a
    preset named twice."""
    _reject_repeats(names, "preset")
    cfgs = [preset(name) for name in names]
    keys = ("preset", "tail_mean", "tail_peak_to_peak", "fkpp_bound")
    rows = []
    for name, cfg, result in zip(names, cfgs, run_configs(cfgs)):
        bound = fkpp_minimal_speed(cfg.params.r, cfg.params.D)
        rows.append(dict(zip(keys, (name, result.tail_mean, result.tail_peak_to_peak, bound))))

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        columns = [[row[key] for row in rows] for key in keys]
        _write_csv(outdir / "speeds.csv", ",".join(keys), ("%s",) + ("%r",) * 3, columns)
    return rows
