"""Scenario catalog, configuration files, experiment drivers, and file output.

A scenario bundles model parameters, a diffusivity profile, the initial
profile kind, and a finite space-time grid whose final time and snapshot
times are whole numbers of steps dt (the final time at least one).  Its
wavespeed, gap and classification switches turn diagnostics on or off; the
thresholds of those are fixed constants of ``analysis``.

The preset catalog reproduces the reference experiments: the
homogeneous-diffusivity baseline (four destructiveness regimes), single-jump
and periodic diffusivities, the fast-growth variant, and the 12-row
homogenization benchmark matrix.

All file output is deterministic: CSV floats carry 17 significant digits
and summaries are flat key=value text.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_HOMOGENIZATION_GAP_TOL,
    DEFAULT_HOMOGENIZATION_OSC_TOL,
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


def _off_grid(t: float, dt: float) -> bool:
    return abs(t / dt - step_count(0.0, t, dt)) > GRID_TOL


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
    wavespeed: bool = True
    gap: bool = True
    classification: bool = True

    def __post_init__(self):
        if self.initial not in (RIEMANN, PIECEWISE_LINEAR):
            raise ConfigurationError(
                f"unknown initial profile kind {self.initial!r} "
                f"(choose {RIEMANN!r} or {PIECEWISE_LINEAR!r})"
            )
        for name in ("xmin", "xmax", "dx", "dt", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.xmax > self.xmin:
            raise ConfigurationError(
                f"degenerate domain [{self.xmin!r}, {self.xmax!r}]"
            )
        if not self.dx > 0.0 or not self.dt > 0.0:
            raise ConfigurationError(
                f"grid steps must be positive, got dx={self.dx!r}, dt={self.dt!r}"
            )
        if not self.T > 0.0:
            raise ConfigurationError(f"final time must be positive, got {self.T!r}")
        if step_count(0.0, self.T, self.dt) == 0:
            raise ConfigurationError(
                f"final time {self.T!r} is shorter than one step dt={self.dt!r}"
            )
        if _off_grid(self.T, self.dt):
            raise ConfigurationError(
                f"final time {self.T!r} is not a whole number of steps dt={self.dt!r}"
            )
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


def initial_state(kind: str, m: Mesh) -> SimulationState:
    """Initial fields on ``m``: a tumour core on the left, complementary
    healthy tissue (u = 1 - v), no acid.

    ``riemann`` drops v from 1 to 0 at L/4 (in-vitro inoculation with a
    sharp edge); ``piecewise_linear`` keeps the core at full density up to
    L/8 and ramps linearly to zero at 3L/8 (gradual in-vivo development),
    where L is the right end of the mesh.
    """
    L = m.xmax
    x = m.centers
    if kind == RIEMANN:
        jump = 0.25 * L
        if not m.xmin < jump < m.xmax:
            raise ConfigurationError(
                f"initial tumour edge at {jump!r} lies outside the mesh "
                f"[{m.xmin!r}, {m.xmax!r}]"
            )
        v = np.where(x < jump, 1.0, 0.0)
    elif kind == PIECEWISE_LINEAR:
        x0, x1 = 0.125 * L, 0.375 * L
        if not (m.xmin < x0 < x1 < m.xmax):
            raise ConfigurationError(
                f"initial ramp [{x0!r}, {x1!r}] does not fit inside the mesh "
                f"[{m.xmin!r}, {m.xmax!r}]"
            )
        v = np.clip((x1 - x) / (x1 - x0), 0.0, 1.0)
        v = np.where(x <= x0, 1.0, v)
    else:
        raise ConfigurationError(f"unknown initial profile kind {kind!r}")
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


def table3_profile(family: str, omega: float, alpha0: float, alpha1: float) -> DiffusionProfile:
    if family == "pc":
        return PeriodicPiecewiseConstant(
            alpha0=alpha0, alpha1=alpha1, beta=0.5, periods=omega / 2.0
        )
    if family == "sin":
        return Sinusoidal(alpha0=alpha0, alpha1=alpha1, omega=omega)
    raise ConfigurationError(f"unknown profile family {family!r} (choose pc or sin)")


def _config(d, profile, initial, xmin, xmax, T=_T, r=_R, snapshots=None):
    return ScenarioConfig(
        params=ModelParameters(d=d, r=r, D=_D, c=_C),
        profile=profile,
        initial=initial,
        xmin=xmin,
        xmax=xmax,
        dx=_DX,
        dt=_DT,
        T=T,
        snapshots=(0.0, T) if snapshots is None else snapshots,
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
    cat["appendix-omega100"] = cat["periodic-w100-d60"]

    # Fast tumour growth (r = 10) needs a longer domain and horizon to watch
    # the quicker front.
    for d in (0.5, 1.5, 30.0, 60.0):
        cat[f"growth-r10-w50-d{d:g}"] = _config(
            d, Sinusoidal(0.1, 1.0, 50.0), PIECEWISE_LINEAR, 0.0, 2.5, T=40.0, r=10.0
        )
    cat["growth-r10-w50"] = cat["growth-r10-w50-d0.5"]

    # Homogenization benchmark rows, both profile families.
    for i, (d, omega, a0, a1) in enumerate(TABLE3_ROWS, start=1):
        for family in ("pc", "sin"):
            cat[f"table3-row{i:02d}-{family}"] = _config(
                d, table3_profile(family, omega, a0, a1), PIECEWISE_LINEAR, 0.0, 1.0
            )
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
    "constant": (Constant, ("a",)),
    "single_jump": (SingleJump, ("a1", "a2", "x_jump")),
    "periodic_piecewise_constant": (
        PeriodicPiecewiseConstant,
        ("alpha0", "alpha1", "beta", "periods"),
    ),
    "sinusoidal": (Sinusoidal, ("alpha0", "alpha1", "omega")),
}

_BOOL_KEYS = ("wavespeed", "gap", "classification")


def _profile_kind(profile: DiffusionProfile) -> str:
    for kind, (cls, _) in _PROFILE_KINDS.items():
        if type(profile) is cls:
            return kind
    raise ConfigurationError(f"unsupported profile type {type(profile).__name__}")


def render_config(cfg: ScenarioConfig) -> str:
    """Serialize a scenario to flat key=value text (parse round-trips)."""
    kind = _profile_kind(cfg.profile)
    lines = [
        f"d={cfg.params.d!r}",
        f"r={cfg.params.r!r}",
        f"D={cfg.params.D!r}",
        f"c={cfg.params.c!r}",
        f"profile={kind}",
    ]
    for field in _PROFILE_KINDS[kind][1]:
        lines.append(f"profile.{field}={getattr(cfg.profile, field)!r}")
    lines += [
        f"initial={cfg.initial}",
        f"xmin={cfg.xmin!r}",
        f"xmax={cfg.xmax!r}",
        f"dx={cfg.dx!r}",
        f"dt={cfg.dt!r}",
        f"T={cfg.T!r}",
        "snapshots=" + ",".join(repr(t) for t in cfg.snapshots),
        f"wavespeed={str(cfg.wavespeed).lower()}",
        f"gap={str(cfg.gap).lower()}",
        f"classification={str(cfg.classification).lower()}",
    ]
    return "\n".join(lines) + "\n"


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: {raw!r} is not a number") from None


def _parse_bool(key: str, raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigurationError(f"key {key!r}: expected true or false, got {raw!r}")


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

    kind = take("profile")
    if kind not in _PROFILE_KINDS:
        raise ConfigurationError(
            f"unknown profile kind {kind!r} (choose one of {sorted(_PROFILE_KINDS)})"
        )
    cls, fields = _PROFILE_KINDS[kind]
    try:
        profile = cls(**{f: _parse_float(f"profile.{f}", take(f"profile.{f}")) for f in fields})
    except ValueError as exc:
        raise ConfigurationError(f"invalid profile: {exc}") from exc

    try:
        params = ModelParameters(
            d=_parse_float("d", take("d")),
            r=_parse_float("r", take("r")),
            D=_parse_float("D", take("D")),
            c=_parse_float("c", take("c")),
        )
    except ValueError as exc:
        raise ConfigurationError(f"invalid parameters: {exc}") from exc

    raw_snapshots = take("snapshots")
    snapshots = tuple(
        _parse_float("snapshots", item) for item in raw_snapshots.split(",") if item
    )
    cfg = ScenarioConfig(
        params=params,
        profile=profile,
        initial=take("initial"),
        xmin=_parse_float("xmin", take("xmin")),
        xmax=_parse_float("xmax", take("xmax")),
        dx=_parse_float("dx", take("dx")),
        dt=_parse_float("dt", take("dt")),
        T=_parse_float("T", take("T")),
        snapshots=snapshots,
        wavespeed=_parse_bool("wavespeed", take("wavespeed")),
        gap=_parse_bool("gap", take("gap")),
        classification=_parse_bool("classification", take("classification")),
    )
    if entries:
        raise ConfigurationError(f"unknown keys: {sorted(entries)}")
    return cfg


# ---------------------------------------------------------------------------
# Experiment drivers

@dataclass(frozen=True)
class RunResult:
    """In-memory outcome of one run (no file output).  ``wall_time_s`` is
    the time of the whole batch the run marched in (see ``run_configs``)."""

    config: ScenarioConfig
    final_state: SimulationState
    speed_series: WaveSpeedSeries | None
    min_u: float
    min_v: float
    min_w: float
    steps: int
    wall_time_s: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class RunSummary:
    """Deterministically serializable digest of a finished run."""

    classification: str | None
    gap: GapReport | None
    tail_mean: float | None
    tail_peak_to_peak: float | None
    steps: int
    wall_time_s: float
    warnings: tuple[str, ...]

    def render(self) -> str:
        def fmt(value) -> str:
            if value is None:
                return "none"
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, float):
                return _FLOAT_FMT % value
            return str(value)

        lines = [f"classification={fmt(self.classification)}"]
        if self.gap is None:
            lines.append("gap_present=none")
        else:
            lines += [
                f"gap_present={fmt(self.gap.present)}",
                f"gap_left={fmt(self.gap.left_edge)}",
                f"gap_right={fmt(self.gap.right_edge)}",
                f"gap_width={fmt(self.gap.width)}",
                f"gap_threshold={fmt(self.gap.threshold)}",
            ]
        lines += [
            f"tail_mean={fmt(self.tail_mean)}",
            f"tail_peak_to_peak={fmt(self.tail_peak_to_peak)}",
            f"steps={self.steps}",
            f"wall_time_s={fmt(self.wall_time_s)}",
            "warnings=" + "|".join(self.warnings),
        ]
        return "\n".join(lines) + "\n"


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
        path = self._outdir / f"snapshot_t{label_time:g}.csv"
        with open(path, "w") as fh:
            fh.write("x,u,v,w\n")
            for x, u, v, w in zip(self._centers, *fields):
                fh.write(
                    f"{_FLOAT_FMT % x},{_FLOAT_FMT % u},{_FLOAT_FMT % v},{_FLOAT_FMT % w}\n"
                )

    def __call__(self, first_step: int, times: np.ndarray, fields: np.ndarray):
        last = first_step + len(times) - 1
        for step in sorted(s for s in self._pending if first_step <= s <= last):
            self.write(fields[step - first_step], self._pending.pop(step))


def _run_warnings(cfg: ScenarioConfig, front_near_boundary) -> tuple[str, ...]:
    run_warnings = []
    limit = reaction_step_limit(cfg.params)
    if cfg.dt > limit:
        run_warnings.append(
            f"dt={cfg.dt!r} exceeds the explicit reaction stability heuristic {limit!r}"
        )
    nearest = aliasing_multiple(cfg.dx, cfg.profile)
    if nearest:
        run_warnings.append(f"cell width ~ {nearest} x diffusivity period; oscillations alias")
    if cfg.wavespeed and front_near_boundary:
        run_warnings.append("tumour front approached the domain boundary")
    return tuple(run_warnings)


def _batch_key(cfg: ScenarioConfig):
    """What the runs of one batch must share: mesh, dt, T and D."""
    return (cfg.xmin, cfg.xmax, cfg.dx, cfg.dt, cfg.T, cfg.params.D)


def _run_batch(cfgs, extra_observers=()) -> list[RunResult]:
    """March scenarios sharing one ``_batch_key`` as one block-diagonal
    batch; each result's wall time is that of the whole batch.

    The runs that track the front speed march first, so that the speed
    recorder observes a leading slice of the batch and checks and warns
    about those runs only."""
    order = sorted(range(len(cfgs)), key=lambda b: not cfgs[b].wavespeed)
    batch = [cfgs[b] for b in order]
    first = batch[0]
    mesh = first.mesh()
    state0 = SimulationState.stack([initial_state(cfg.initial, mesh) for cfg in batch])

    observers = list(extra_observers)
    positivity = PositivityRecorder(initial=state0)
    observers.append(positivity)
    tracked = sum(cfg.wavespeed for cfg in batch)
    recorder = WaveSpeedRecorder(mesh, first.dt) if tracked else None
    if tracked == len(batch):
        observers.append(recorder)
    elif tracked:
        observers.append(lambda step, times, fields: recorder(step, times, fields[:, :, :tracked]))

    started = time.perf_counter()
    final = run(
        state0,
        [cfg.profile for cfg in batch],
        [cfg.params for cfg in batch],
        SchemeOptions(dt=first.dt),
        first.T,
        observers=observers,
    )
    elapsed = time.perf_counter() - started

    runs = (len(batch),)
    min_u, min_v, min_w = (
        np.broadcast_to(m, runs) for m in (positivity.min_u, positivity.min_v, positivity.min_w)
    )
    near = np.zeros(runs, dtype=bool)
    if recorder is not None:
        near[:tracked] = recorder.front_near_boundary
    steps = step_count(state0.time, first.T, first.dt)
    results: list = [None] * len(batch)
    for b, (cfg, state) in enumerate(zip(batch, final.unstack())):
        results[order[b]] = RunResult(
            config=cfg,
            final_state=state,
            speed_series=recorder.series(b) if cfg.wavespeed else None,
            min_u=float(min_u[b]),
            min_v=float(min_v[b]),
            min_w=float(min_w[b]),
            steps=steps,
            wall_time_s=elapsed,
            warnings=_run_warnings(cfg, near[b]),
        )
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


def summarize(result: RunResult) -> RunSummary:
    """Digest of a run.  A front that has left the domain cannot be
    classified: the classification is then none and a warning says why."""
    cfg = result.config
    classification = None
    run_warnings = result.warnings
    if cfg.classification:
        try:
            classification = str(classify_invasion(result.final_state, cfg.params.d))
        except ValueError:
            run_warnings += ("no tumour front left inside the domain; not classified",)
    gap = detect_gap(result.final_state) if cfg.gap else None
    tail_mean = tail_ptp = None
    if result.speed_series is not None and len(result.speed_series) > 0:
        tail_mean, tail_ptp = tail_speed(result.speed_series)
    return RunSummary(
        classification=classification,
        gap=gap,
        tail_mean=tail_mean,
        tail_peak_to_peak=tail_ptp,
        steps=result.steps,
        wall_time_s=result.wall_time_s,
        warnings=run_warnings,
    )


def run_scenario(cfg: ScenarioConfig, outdir) -> RunSummary:
    """Execute a scenario and write snapshots, the wave-speed series, and a
    key=value summary under ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    writer = SnapshotWriter(outdir, cfg.mesh(), cfg.snapshots, cfg.dt)
    result = run_config(cfg, extra_observers=(writer,))

    if result.speed_series is not None:
        with open(outdir / "wavespeed.csv", "w") as fh:
            fh.write("step,time,theta\n")
            for i, (t, theta) in enumerate(
                zip(result.speed_series.times, result.speed_series.thetas), start=1
            ):
                fh.write(f"{i},{_FLOAT_FMT % t},{_FLOAT_FMT % theta}\n")

    summary = summarize(result)
    (outdir / "summary.txt").write_text(summary.render())
    (outdir / "config.txt").write_text(render_config(cfg))
    return summary


def effective_twin(cfg: ScenarioConfig) -> ScenarioConfig:
    """The scenario with its periodic diffusivity replaced by the constant
    effective one (its harmonic mean); raises ValueError for an aperiodic
    profile."""
    return dataclasses.replace(
        cfg, profile=Constant(effective_diffusivity(cfg.profile)), wavespeed=True
    )


def run_homogenization_suite(
    rows,
    outdir=None,
    tol_gap: float = DEFAULT_HOMOGENIZATION_GAP_TOL,
    tol_osc: float = DEFAULT_HOMOGENIZATION_OSC_TOL,
):
    """Homogenization comparison for each (d, omega, alpha0, alpha1) row,
    run for both profile families.

    Every periodic run and its effective twin march as one batch.  Returns
    one dict per row with the two verdicts; also writes
    ``homogenization.csv`` when ``outdir`` is given.
    """
    families = ("pc", "sin")
    periodic = [
        _config(d, table3_profile(family, omega, a0, a1), PIECEWISE_LINEAR, 0.0, 1.0)
        for d, omega, a0, a1 in rows
        for family in families
    ]
    runs = run_configs(periodic + [effective_twin(cfg) for cfg in periodic])
    verdicts = iter(
        homogenization_compare(p.speed_series, e.speed_series, tol_gap=tol_gap, tol_osc=tol_osc)
        for p, e in zip(runs[: len(periodic)], runs[len(periodic) :])
    )
    results = []
    for d, omega, a0, a1 in rows:
        row = {"d": d, "omega": omega, "alpha0": a0, "alpha1": a1}
        for family in families:
            row[family] = next(verdicts)
        results.append(row)

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "homogenization.csv", "w") as fh:
            fh.write(
                "d,omega,alpha0,alpha1,piecewise_constant,sinusoidal,"
                "pc_relative_gap,pc_oscillation,sin_relative_gap,sin_oscillation\n"
            )
            for row in results:
                pc, sin = row["pc"], row["sin"]
                fh.write(
                    f"{row['d']:g},{row['omega']:g},{row['alpha0']:g},{row['alpha1']:g},"
                    f"{'HOM' if pc.homogenized else 'NO'},"
                    f"{'HOM' if sin.homogenized else 'NO'},"
                    f"{_FLOAT_FMT % pc.relative_gap},{_FLOAT_FMT % pc.oscillation_amplitude},"
                    f"{_FLOAT_FMT % sin.relative_gap},{_FLOAT_FMT % sin.oscillation_amplitude}\n"
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

    Exercises the production path (explicit kinetics + implicit diffusion
    solve) with the oscillatory coefficient A in [0.4, 0.6].  Returns a list
    of dicts with dx, dt, error, and observed order between levels.
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


def speed_table(names) -> list[dict]:
    """Tail speed statistics for a batch of presets; presets sharing the
    mesh, dt, T and D march together."""
    cfgs = [dataclasses.replace(preset(name), wavespeed=True) for name in names]
    rows = []
    for name, cfg, result in zip(names, cfgs, run_configs(cfgs)):
        mean, ptp = tail_speed(result.speed_series)
        rows.append(
            {
                "preset": name,
                "tail_mean": mean,
                "tail_peak_to_peak": ptp,
                "fkpp_bound": fkpp_minimal_speed(cfg.params.r, cfg.params.D),
            }
        )
    return rows
