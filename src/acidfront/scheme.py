"""Finite-volume spatial operators and the semi-implicit time stepper.

Diffusion terms are discretized in flux form: the flux through an interior
interface is an averaged interface coefficient times the difference of the
adjacent cell values over the center-to-center distance, and the exterior
fluxes of the first and last cell are zero (Neumann closure).  Written this
way the operator telescopes, so totals are conserved exactly.

Time stepping is IMEX: reactions advance by one explicit Euler stage, then
each diffusing field is corrected by a backward-Euler diffusion solve.  The
tumour solve uses the coefficient (1 - u) built from the *already updated*
healthy field, so one step runs u -> v -> w.  Both implicit matrices are
tridiagonal and strictly diagonally dominant (the dominance gap is exactly
the 1 on the identity), so the direct solves are safe whenever the interface
coefficients stay nonnegative.

One stepper serves a single run and a batch of B runs on the same mesh with
the same dt (and tumour diffusivity D).  A batch lays its runs end to end in
flat B*N arrays, one block of N cells per run, with its own d, r and c (as
per-cell vectors) and its own A.  The interface coefficient at each junction
between two blocks is set to zero, so both tridiagonal systems are block
diagonal: one LAPACK call solves every run, and each block gets exactly the
numbers a run on its own would.  A single run is the batch of one.

The acid matrix depends only on A, dt and the mesh, which a run holds fixed,
so it is factored once per run (LAPACK gttrf) and each step solves with the
factors (gttrs).  The tumour matrix changes with u and is solved each step
with LAPACK gtsv.  ``run`` is the hot loop: it steps plain arrays and wraps
each new, already checked set of fields in a SimulationState without copying
or re-validating it."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .core import ModelParameters, reaction_u, reaction_v, reaction_w
from .errors import InstabilityError, StabilityWarning
from .mesh import DiffusionProfile, Mesh, project_cell_averages

ARITHMETIC = "arithmetic"
HARMONIC = "harmonic"

# How far a step count (T - t0)/dt may sit from a whole number and still
# count as that number (float noise: 0.055/0.011 = 5.000000000000001).
GRID_TOL = 1e-9


@dataclass(frozen=True)
class SchemeOptions:
    """Time step and interface-averaging choices.

    The acid coefficient may be averaged arithmetically (width-weighted) or
    harmonically at cell interfaces.  The tumour coefficient (1 - u) is
    degenerate (it vanishes where u = 1), which rules the harmonic mean out
    for that equation, so it is always averaged arithmetically.
    """

    dt: float
    interface_average_w: str = ARITHMETIC

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"time step must be positive, got {self.dt!r}")
        if self.interface_average_w not in (ARITHMETIC, HARMONIC):
            raise ValueError(
                f"unknown interface average {self.interface_average_w!r} "
                f"(choose {ARITHMETIC!r} or {HARMONIC!r})"
            )


@dataclass(frozen=True)
class SimulationState:
    """Cell-averaged fields u, v, w on a shared mesh at one time.

    The fields of one run have shape (N,); a batch of B runs on the same
    mesh holds them as (B, N), one row per run (see ``stack``).  Arrays are
    validated (matching shape, all finite) and frozen on construction, so
    states can be shared across threads and kept as snapshots without
    defensive copies.
    """

    mesh: Mesh
    time: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = self.mesh.n_cells
        lead = np.shape(self.u)[:-1]
        expected = (lead[0], n) if len(lead) == 1 and lead[0] > 0 else (n,)
        for name in ("u", "v", "w"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != expected:
                raise ValueError(
                    f"field {name} has shape {arr.shape}, expected {expected}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"field {name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def stack(cls, states):
        """Batch state whose runs are ``states`` (one mesh object, one time);
        a single state is returned as it is."""
        first = states[0]
        if len(states) == 1:
            return first
        if any(s.mesh is not first.mesh or s.time != first.time or s.u.ndim != 1 for s in states):
            raise ValueError("stacked states must be single runs sharing one mesh and time")
        return cls._trusted(
            first.mesh, first.time, *(np.stack([getattr(s, f) for s in states]) for f in "uvw")
        )

    def unstack(self) -> tuple:
        """One state per run of a batch state (the state itself for one run)."""
        if self.u.ndim == 1:
            return (self,)
        return tuple(
            SimulationState._trusted(self.mesh, self.time, u, v, w)
            for u, v, w in zip(self.u, self.v, self.w)
        )

    @classmethod
    def _trusted(cls, mesh: Mesh, time: float, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """State from fresh float arrays of the right shape already checked
        finite; freezes them in place instead of copying and re-validating."""
        state = object.__new__(cls)
        object.__setattr__(state, "mesh", mesh)
        object.__setattr__(state, "time", time)
        for name, arr in (("u", u), ("v", v), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(state, name, arr)
        return state


@dataclass(frozen=True)
class TridiagonalSystem:
    """Tridiagonal linear system: sub/super are the N-1 off-diagonal bands."""

    sub: np.ndarray
    diag: np.ndarray
    super: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("sub", "diag", "super", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.diag.size
        if self.sub.size != n - 1 or self.super.size != n - 1 or self.rhs.size != n:
            raise ValueError("inconsistent tridiagonal band lengths")

    def is_diagonally_dominant(self) -> bool:
        mag = np.zeros_like(self.diag)
        mag[1:] += np.abs(self.sub)
        mag[:-1] += np.abs(self.super)
        return bool(np.all(self.diag > 0.0) and np.all(self.diag > mag))

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.sub, -1)
            + np.diag(self.super, 1)
        )


def interface_diffusivity_arithmetic(aL, aR, dxL, dxR):
    """Width-weighted average of the two cell coefficients at an interface."""
    return (aL * dxL + aR * dxR) / (dxL + dxR)


def interface_diffusivity_harmonic(aL, aR):
    """Harmonic mean of the two cell coefficients; requires both positive."""
    if np.any(np.asarray(aL) <= 0.0) or np.any(np.asarray(aR) <= 0.0):
        raise ValueError("harmonic interface averaging needs strictly positive values")
    return 2.0 * aL * aR / (aL + aR)


def _interface_coefficients(cells: np.ndarray, mesh: Mesh, average: str) -> np.ndarray:
    """Coefficient at each of the N-1 interior interfaces."""
    if average == ARITHMETIC:
        return interface_diffusivity_arithmetic(
            cells[:-1], cells[1:], mesh.widths[:-1], mesh.widths[1:]
        )
    return interface_diffusivity_harmonic(cells[:-1], cells[1:])


def diffusion_operator(kappa: np.ndarray, mesh: Mesh):
    """Tridiagonal bands (sub, diag, super) of the flux-form operator L.

    (L q)_i = (F_{i+1/2} - F_{i-1/2}) / dx_i with interior fluxes
    F = kappa * (q_right - q_left) / (center distance) and zero exterior
    fluxes.  Interior row sums vanish identically, boundary rows lose one
    off-diagonal to the Neumann closure.
    """
    widths = mesh.widths
    gaps = 0.5 * (widths[:-1] + widths[1:])
    cond = kappa / gaps
    super_ = cond / widths[:-1]
    sub = cond / widths[1:]
    diag = np.zeros(mesh.n_cells)
    diag[:-1] -= super_
    diag[1:] -= sub
    return sub, diag, super_


def _backward_euler_bands(kappa: np.ndarray, gamma: float, mesh: Mesh):
    """Bands (sub, diag, super) of I - gamma*L for the diffusion operator above."""
    sub, diag, super_ = diffusion_operator(kappa, mesh)
    return -gamma * sub, 1.0 - gamma * diag, -gamma * super_


def _tumour_bands(u_next: np.ndarray, gamma: float, mesh: Mesh, block: int):
    """Bands of I - gamma*L(1 - u_next), arithmetic interface averages.

    ``mesh`` lays runs of ``block`` cells end to end; the coefficient at each
    junction between two runs is zeroed, which decouples them.  A negative
    interface coefficient means u exceeded 1 upstream, which would break the
    dominance of the matrix; that is reported rather than clamped.
    """
    kappa = _interface_coefficients(1.0 - u_next, mesh, ARITHMETIC)
    kappa[block - 1 :: block] = 0.0
    if (kappa < 0.0).any():
        raise InstabilityError(
            "negative tumour interface coefficient: healthy density exceeded 1"
        )
    return _backward_euler_bands(kappa, gamma, mesh)


def assemble_implicit_v(
    u_next: np.ndarray,
    v_expl: np.ndarray,
    p: ModelParameters,
    opts: SchemeOptions,
    m: Mesh,
) -> TridiagonalSystem:
    """Backward-Euler system for the tumour diffusion stage.

    Encodes (I - dt*D*L) v = v_expl where L carries the degenerate
    coefficient (1 - u) evaluated from the freshly updated healthy field.
    Raises InstabilityError when an interface coefficient is negative.
    """
    bands = _tumour_bands(np.asarray(u_next, dtype=float), p.D * opts.dt, m, m.n_cells)
    return TridiagonalSystem(*bands, rhs=v_expl)


def _acid_bands(A_cells, opts: SchemeOptions, mesh: Mesh, block: int):
    """Bands of I - dt*L_A, decoupled at the junctions between runs of
    ``block`` cells as in _tumour_bands."""
    kappa = _interface_coefficients(np.asarray(A_cells, dtype=float), mesh, opts.interface_average_w)
    kappa[block - 1 :: block] = 0.0
    return _backward_euler_bands(kappa, opts.dt, mesh)


def assemble_implicit_w(
    A_cells: np.ndarray,
    w_expl: np.ndarray,
    opts: SchemeOptions,
    m: Mesh,
) -> TridiagonalSystem:
    """Backward-Euler system (I - dt*L_A) w = w_expl for the acid stage."""
    return TridiagonalSystem(*_acid_bands(A_cells, opts, m, m.n_cells), rhs=w_expl)


def _gtsv(sub, diag, super_, rhs, overwrite: bool = False) -> np.ndarray:
    """LAPACK gtsv on the bands; ``overwrite`` lets it reuse all four inputs."""
    *_, x, info = dgtsv(sub, diag, super_, rhs, overwrite, overwrite, overwrite, overwrite)
    if info:
        raise InstabilityError(f"singular tridiagonal system (LAPACK gtsv info={info})")
    return x


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Direct solve of a tridiagonal system (LAPACK gtsv: elimination with
    partial pivoting and back substitution).

    The assembled systems are strictly diagonally dominant so a zero pivot
    cannot occur for them; singular input is still caught and reported.
    """
    return _gtsv(sys.sub, sys.diag, sys.super, sys.rhs)


def _end_to_end(mesh: Mesh, runs: int) -> Mesh:
    """``runs`` copies of ``mesh`` laid end to end.  The widths repeat the
    block's widths exactly (rather than being differences of the shifted
    interfaces), so every block gets the coefficients of a single run."""
    if runs == 1:
        return mesh
    shift = mesh.length * np.arange(runs)[:, None]
    return Mesh(
        interfaces=np.append(mesh.interfaces[:-1] + shift, mesh.xmin + runs * mesh.length),
        centers=(mesh.centers + shift).ravel(),
        widths=np.tile(mesh.widths, runs),
        uniform=mesh.uniform,
    )


def _per_cell(values, block: int):
    """A per-run parameter as the kinetics take it: the scalar for one run,
    a per-cell vector (each run's value over its block) for a batch."""
    return values[0] if len(values) == 1 else np.repeat(values, block)


def _prepare(s: SimulationState, A_cells, params, opts: SchemeOptions):
    """Stacked mesh, kinetics (d, r, D, c) and acid LU factors for stepping
    the runs of ``s`` with one parameter set and one row of A_cells each."""
    runs = 1 if s.u.ndim == 1 else s.u.shape[0]
    A_cells = np.ravel(np.asarray(A_cells, dtype=float))
    if len(params) != runs or A_cells.size != s.u.size:
        raise ValueError(
            f"a state of {runs} run(s) needs one parameter set and one diffusivity "
            f"row per run, got {len(params)} and {A_cells.size / s.mesh.n_cells:g} rows"
        )
    if any(q.D != params[0].D for q in params):
        raise ValueError("the runs of a batch must share the tumour diffusivity D")
    block = s.mesh.n_cells
    mesh = _end_to_end(s.mesh, runs)
    kinetics = (
        _per_cell([q.d for q in params], block),
        _per_cell([q.r for q in params], block),
        params[0].D,
        _per_cell([q.c for q in params], block),
    )
    return mesh, kinetics, _factor_acid(A_cells, opts, mesh, block)


def _factor_acid(A_cells, opts: SchemeOptions, mesh: Mesh, block: int):
    """LU factors (LAPACK gttrf) of the acid matrix I - dt*L_A, as the
    (dl, d, du, du2, ipiv) arguments gttrs takes before the right-hand side."""
    bands = _acid_bands(A_cells, opts, mesh, block)
    *factors, info = dgttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise InstabilityError(f"singular acid matrix (LAPACK gttrf info={info})")
    return tuple(factors)


def _imex_step(u, v, w, t: float, kinetics, dt: float, mesh: Mesh, block: int, acid_lu):
    """Fresh flat fields (u, v, w) one IMEX step after time t; the inputs are
    not modified.  ``mesh``, ``kinetics`` and ``acid_lu`` come from _prepare
    for runs of ``block`` cells and the same dt."""
    d, r, D, c = kinetics
    u_next = u + dt * reaction_u(u, w, d)
    v_expl = v + dt * reaction_v(v, r)
    v_next = _gtsv(*_tumour_bands(u_next, D * dt, mesh, block), v_expl, overwrite=True)
    w_expl = w + dt * reaction_w(v, w, c)
    w_next, info = dgttrs(*acid_lu, w_expl, overwrite_b=1)
    if info:
        raise InstabilityError(f"acid solve failed (LAPACK gttrs info={info})", time=t)
    if not (
        np.isfinite(u_next).all() and np.isfinite(v_next).all() and np.isfinite(w_next).all()
    ):
        raise InstabilityError(f"non-finite field values after step from t={t!r}", time=t)
    return u_next, v_next, w_next


def _apply_operator(kappa: np.ndarray, q: np.ndarray, mesh: Mesh) -> np.ndarray:
    """L q for the flux-form diffusion operator with coefficients kappa.

    The diagonal is minus the sum of the off-diagonal bands, so each row is
    applied to neighbour differences, which keeps L q exactly zero on
    constant fields."""
    sub, _, super_ = diffusion_operator(kappa, mesh)
    jumps = np.diff(q)
    out = np.zeros_like(q)
    out[:-1] += super_ * jumps
    out[1:] -= sub * jumps
    return out


def semidiscrete_rhs(
    s: SimulationState,
    A_cells: np.ndarray,
    p: ModelParameters,
    opts: SchemeOptions,
):
    """Time derivatives (du, dv, dw) of the semi-discrete system."""
    du = reaction_u(s.u, s.w, p.d)
    kappa_v = _interface_coefficients(1.0 - s.u, s.mesh, ARITHMETIC)
    dv = reaction_v(s.v, p.r) + p.D * _apply_operator(kappa_v, s.v, s.mesh)
    kappa_w = _interface_coefficients(np.asarray(A_cells), s.mesh, opts.interface_average_w)
    dw = reaction_w(s.v, s.w, p.c) + _apply_operator(kappa_w, s.w, s.mesh)
    return du, dv, dw


def _per_run(value, kind) -> tuple:
    """A batch argument as one entry per run; a lone ``kind`` is one run's."""
    return (value,) if isinstance(value, kind) else tuple(value)


def step_imex(
    s: SimulationState,
    A_cells: np.ndarray,
    p,
    opts: SchemeOptions,
) -> SimulationState:
    """Advance the state by one IMEX step of size opts.dt.

    For a batch state, ``A_cells`` has the state's (B, N) shape and ``p``
    holds one ModelParameters per run.
    """
    mesh, kinetics, acid_lu = _prepare(s, A_cells, _per_run(p, ModelParameters), opts)
    flat = (s.u.ravel(), s.v.ravel(), s.w.ravel())
    fields = _imex_step(*flat, s.time, kinetics, opts.dt, mesh, s.mesh.n_cells, acid_lu)
    return SimulationState._trusted(
        s.mesh, s.time + opts.dt, *(f.reshape(s.u.shape) for f in fields)
    )


def reaction_step_limit(p: ModelParameters) -> float:
    """Largest dt for which the explicit reaction stage keeps densities in
    [0, 1].

    From u, v, w in [0, 1], one explicit Euler stage stays in [0, 1] while
    dt*max(1, r, c) <= 1 (each logistic or relaxation update is then a
    monotone map of [0, 1] into itself) and dt*d <= 1 (the healthy update
    u*(1 + dt*(1 - u - d*w)) stays nonnegative under saturated acid, w = 1).
    Each implicit diffusion solve is an M-matrix solve with unit row sums,
    so it keeps the range.  Hence the limit min(1/max(1, r, c), 1/d) (no
    1/d term for d = 0).
    """
    limit = 1.0 / max(1.0, p.r, p.c)
    return min(limit, 1.0 / p.d) if p.d > 0.0 else limit


def step_count(t0: float, T: float, dt: float) -> int:
    """Steps of size dt from t0 to T: ceil((T - t0)/dt), where a quotient
    within GRID_TOL of a whole number counts as that number."""
    return max(0, math.ceil((T - t0) / dt - GRID_TOL))


def run(
    s0: SimulationState,
    A,
    p,
    opts: SchemeOptions,
    T: float,
    observers=(),
) -> SimulationState:
    """March the state from its current time to T with a fixed step.

    A batch state (fields of shape (B, N)) takes one diffusivity profile and
    one ModelParameters per run, as sequences of length B, and marches all B
    runs in one block-diagonal system; they must share D.  Takes
    step_count(t0, T, dt) steps; each observer is called as
    ``observer(step_index, previous_state, new_state)`` after every step.
    Instability aborts the run with the failing step index and time.
    """
    if T < s0.time:
        raise ValueError(f"final time {T!r} precedes state time {s0.time!r}")
    params = _per_run(p, ModelParameters)
    for k, q in enumerate(params):
        limit = reaction_step_limit(q)
        if opts.dt > limit:
            which = f" (run {k} of the batch)" if len(params) > 1 else ""
            warnings.warn(
                f"dt={opts.dt!r} exceeds the explicit reaction limit "
                f"min(1/max(1, r, c), 1/d) = {limit!r}{which}; densities "
                "may leave [0, 1]",
                StabilityWarning,
                stacklevel=2,
            )
    A_cells = [project_cell_averages(a, s0.mesh) for a in _per_run(A, DiffusionProfile)]
    mesh, kinetics, acid_lu = _prepare(s0, np.concatenate(A_cells), params, opts)
    n_steps = step_count(s0.time, T, opts.dt)
    block, dt, shape = s0.mesh.n_cells, opts.dt, s0.u.shape
    u, v, w = s0.u.ravel(), s0.v.ravel(), s0.w.ravel()
    state = s0
    for k in range(n_steps):
        previous = state
        try:
            u, v, w = _imex_step(u, v, w, previous.time, kinetics, dt, mesh, block, acid_lu)
        except InstabilityError as exc:
            raise InstabilityError(
                f"run became unstable at step {k} (t={previous.time!r}): {exc}",
                step=k,
                time=previous.time,
            ) from exc
        state = SimulationState._trusted(
            s0.mesh, previous.time + dt, u.reshape(shape), v.reshape(shape), w.reshape(shape)
        )
        for observer in observers:
            observer(k, previous, state)
    return state
