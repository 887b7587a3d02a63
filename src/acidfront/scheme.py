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

    Arrays are validated (matching length, all finite) and frozen on
    construction, so states can be shared across threads and kept as
    snapshots without defensive copies.
    """

    mesh: Mesh
    time: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = self.mesh.n_cells
        for name in ("u", "v", "w"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(
                    f"field {name} has shape {arr.shape}, expected ({n},)"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"field {name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, mesh: Mesh, time: float, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """State from fresh float arrays of the right length already checked
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


def _tumour_bands(u_next: np.ndarray, gamma: float, mesh: Mesh):
    """Bands of I - gamma*L(1 - u_next), arithmetic interface averages.

    A negative interface coefficient means u exceeded 1 upstream, which
    would break the dominance of the matrix; that is reported rather than
    clamped.
    """
    kappa = _interface_coefficients(1.0 - u_next, mesh, ARITHMETIC)
    if np.any(kappa < 0.0):
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
    return TridiagonalSystem(*_tumour_bands(np.asarray(u_next), p.D * opts.dt, m), rhs=v_expl)


def _acid_bands(A_cells, opts: SchemeOptions, mesh: Mesh):
    """Bands of I - dt*L_A."""
    kappa = _interface_coefficients(np.asarray(A_cells), mesh, opts.interface_average_w)
    return _backward_euler_bands(kappa, opts.dt, mesh)


def assemble_implicit_w(
    A_cells: np.ndarray,
    w_expl: np.ndarray,
    opts: SchemeOptions,
    m: Mesh,
) -> TridiagonalSystem:
    """Backward-Euler system (I - dt*L_A) w = w_expl for the acid stage."""
    return TridiagonalSystem(*_acid_bands(A_cells, opts, m), rhs=w_expl)


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


def _factor_acid(A_cells, opts: SchemeOptions, mesh: Mesh):
    """LU factors (LAPACK gttrf) of the acid matrix I - dt*L_A, as the
    (dl, d, du, du2, ipiv) arguments gttrs takes before the right-hand side."""
    bands = _acid_bands(A_cells, opts, mesh)
    *factors, info = dgttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise InstabilityError(f"singular acid matrix (LAPACK gttrf info={info})")
    return tuple(factors)


def _imex_step(u, v, w, t: float, p: ModelParameters, dt: float, mesh: Mesh, acid_lu):
    """Fresh fields (u, v, w) one IMEX step after time t; the inputs are not
    modified.  ``acid_lu`` comes from _factor_acid for the same dt and mesh."""
    u_next = u + dt * reaction_u(u, w, p.d)
    v_expl = v + dt * reaction_v(v, p.r)
    v_next = _gtsv(*_tumour_bands(u_next, p.D * dt, mesh), v_expl, overwrite=True)
    w_expl = w + dt * reaction_w(v, w, p.c)
    w_next, info = dgttrs(*acid_lu, w_expl, overwrite_b=1)
    if info:
        raise InstabilityError(f"acid solve failed (LAPACK gttrs info={info})", time=t)
    if not (
        np.isfinite(u_next).all() and np.isfinite(v_next).all() and np.isfinite(w_next).all()
    ):
        raise InstabilityError(f"non-finite field values after step from t={t!r}", time=t)
    return u_next, v_next, w_next


def _flux_divergence(kappa: np.ndarray, q: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Apply the flux-form diffusion operator with zero exterior fluxes."""
    gaps = 0.5 * (mesh.widths[:-1] + mesh.widths[1:])
    flux = kappa * np.diff(q) / gaps
    div = np.zeros_like(q)
    div[:-1] += flux
    div[1:] -= flux
    return div / mesh.widths


def semidiscrete_rhs(
    s: SimulationState,
    A_cells: np.ndarray,
    p: ModelParameters,
    opts: SchemeOptions,
):
    """Time derivatives (du, dv, dw) of the semi-discrete system."""
    du = reaction_u(s.u, s.w, p.d)
    kappa_v = _interface_coefficients(1.0 - s.u, s.mesh, ARITHMETIC)
    dv = reaction_v(s.v, p.r) + p.D * _flux_divergence(kappa_v, s.v, s.mesh)
    kappa_w = _interface_coefficients(np.asarray(A_cells), s.mesh, opts.interface_average_w)
    dw = reaction_w(s.v, s.w, p.c) + _flux_divergence(kappa_w, s.w, s.mesh)
    return du, dv, dw


def step_imex(
    s: SimulationState,
    A_cells: np.ndarray,
    p: ModelParameters,
    opts: SchemeOptions,
) -> SimulationState:
    """Advance the state by one IMEX step of size opts.dt."""
    acid_lu = _factor_acid(A_cells, opts, s.mesh)
    u, v, w = _imex_step(s.u, s.v, s.w, s.time, p, opts.dt, s.mesh, acid_lu)
    return SimulationState._trusted(s.mesh, s.time + opts.dt, u, v, w)


def reaction_step_limit(p: ModelParameters) -> float:
    """Largest dt the explicit reaction stage tolerates, heuristically 2/rate.

    The stiffest linearized reaction rate among the three equations is
    max(1, r, c); explicit Euler on q' = -k q is stable for dt <= 2/k.
    """
    return 2.0 / max(1.0, p.r, p.c)


def run(
    s0: SimulationState,
    A: DiffusionProfile,
    p: ModelParameters,
    opts: SchemeOptions,
    T: float,
    observers=(),
) -> SimulationState:
    """March the state from its current time to T with a fixed step.

    Takes ceil((T - t0)/dt) steps; each observer is called as
    ``observer(step_index, previous_state, new_state)`` after every step.
    Instability aborts the run with the failing step index and time.
    """
    if T < s0.time:
        raise ValueError(f"final time {T!r} precedes state time {s0.time!r}")
    if opts.dt > reaction_step_limit(p):
        warnings.warn(
            f"dt={opts.dt!r} exceeds the explicit reaction stability "
            f"heuristic 2/max(1, r, c) = {reaction_step_limit(p)!r}",
            StabilityWarning,
            stacklevel=2,
        )
    A_cells = project_cell_averages(A, s0.mesh)
    n_steps = max(0, math.ceil((T - s0.time) / opts.dt - 1e-9))
    mesh, dt = s0.mesh, opts.dt
    acid_lu = _factor_acid(A_cells, opts, mesh)
    state = s0
    for k in range(n_steps):
        previous = state
        try:
            fields = _imex_step(
                previous.u, previous.v, previous.w, previous.time, p, dt, mesh, acid_lu
            )
        except InstabilityError as exc:
            raise InstabilityError(
                f"run became unstable at step {k} (t={previous.time!r}): {exc}",
                step=k,
                time=previous.time,
            ) from exc
        state = SimulationState._trusted(mesh, previous.time + dt, *fields)
        for observer in observers:
            observer(k, previous, state)
    return state
