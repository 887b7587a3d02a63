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
with LAPACK gtsv, its bands built in reused buffers from mesh constants
computed once per run.

``run`` is the hot loop, and it marches in blocks.  Each step writes its
fields into the next row of one preallocated (K+1, 3, B*N) history array
(about _BLOCK_BYTES of memory), reusing it from block to block; row 0 is
the state the block starts from.  No step runs a reduction or builds a
state.  After each block one vectorised pass over its rows does what a
per-step check would: it finds the first step whose tumour interface
coefficient went negative or whose fields are not finite, and aborts with
that step and time.  Then the observers get the block, once, as
``observer(first_step, times, fields)`` (see ``run``), so the wave-speed
increments, the running minima, the front-proximity test and the snapshots
are one vectorised pass per block too.  ``step_imex`` is the march with a
block of one step.  Every operation runs in the order of a step at a time,
so the numbers do not depend on the block size."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .core import ModelParameters, reaction_u, reaction_v, reaction_w
from .errors import InstabilityError, StabilityWarning
from .mesh import DiffusionProfile, Mesh, project_cell_averages

ARITHMETIC = "arithmetic"
HARMONIC = "harmonic"

# How far a step count (T - t0)/dt may sit from a whole number and still
# count as that number (float noise: 0.055/0.011 = 5.000000000000001).
GRID_TOL = 1e-9

# Memory for the history block ``run`` marches in: K + 1 rows of the three
# fields, 24 bytes per cell and row.
_BLOCK_BYTES = 512 * 1024


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


_NEGATIVE_KAPPA = "negative tumour interface coefficient: healthy density exceeded 1"
_SINGULAR = "singular tridiagonal system (LAPACK gtsv info={})"


class _TumourSystem:
    """The tumour matrix I - gamma*L(1 - u), arithmetic interface averages,
    for runs of ``block`` cells laid end to end on ``mesh``.

    The coefficient at each junction between two runs is zeroed, which
    decouples them.  A negative interface coefficient means u exceeded 1
    upstream, which would break the dominance of the matrix; callers report
    it rather than clamp it.  The mesh constants are computed once and the
    bands are written into buffers that every ``bands`` call reuses (gtsv
    overwrites them), with the operations of _interface_coefficients and
    _backward_euler_bands in the same order, so the numbers are the same.
    """

    def __init__(self, mesh: Mesh, block: int, gamma: float):
        widths = mesh.widths
        n = widths.size
        self._widths = widths
        self._wsum = widths[:-1] + widths[1:]
        self._gaps = 0.5 * self._wsum
        # The widths left and right of each interface, as a (2, N-1) view.
        self._sides = as_strided(
            widths, shape=(2, n - 1), strides=(widths.strides[0],) * 2, writeable=False
        )
        # A single run has no junction.
        self._junctions = slice(block - 1, None, block) if block < n else None
        self._gamma = gamma
        # Holds 1 - u until the coefficients are formed, then the diagonal.
        self._cells = np.empty(n)
        self._kappa = np.empty(n - 1)
        # super = flat[:n-1] and sub = flat[n+1:], so that flat[:n] + flat[n:]
        # is super_i + sub_{i-1}, the off-diagonal sum of row i; flat[n-1]
        # and flat[n] stay zero for the two boundary rows.
        self._flat = np.zeros(2 * n)
        step = self._flat.itemsize
        self._off = as_strided(self._flat, shape=(2, n - 1), strides=((n + 1) * step, step))

    def kappa(self, u: np.ndarray, cells=None, out=None) -> np.ndarray:
        """Interface coefficients of (1 - u) along the last axis (zero at the
        junctions); ``cells`` and ``out`` are optional work buffers."""
        cells = np.subtract(1.0, u, out=cells)
        cells *= self._widths
        kappa = np.add(cells[..., :-1], cells[..., 1:], out=out)
        kappa /= self._wsum
        if self._junctions is not None:
            kappa[..., self._junctions] = 0.0
        return kappa

    def bands(self, u: np.ndarray):
        """(sub, diag, super) for the healthy field u; the next call
        overwrites them."""
        cond = self.kappa(u, self._cells, self._kappa)
        cond /= self._gaps
        off = np.divide(cond, self._sides, out=self._off)
        n = self._cells.size
        # 1 - gamma*((0 - super_i) - sub_{i-1}) is exactly 1 + gamma*(super_i + sub_{i-1})
        diag = np.add(self._flat[:n], self._flat[n:], out=self._cells)
        diag *= self._gamma
        diag += 1.0
        off *= -self._gamma
        return off[1], diag, off[0]


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
    u_next = np.asarray(u_next, dtype=float)
    system = _TumourSystem(m, m.n_cells, p.D * opts.dt)
    if (system.kappa(u_next) < 0.0).any():
        raise InstabilityError(_NEGATIVE_KAPPA)
    return TridiagonalSystem(*system.bands(u_next), rhs=v_expl)


def _acid_bands(A_cells, opts: SchemeOptions, mesh: Mesh, block: int):
    """Bands of I - dt*L_A, decoupled at the junctions between runs of
    ``block`` cells as in _TumourSystem."""
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


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Direct solve of a tridiagonal system (LAPACK gtsv: elimination with
    partial pivoting and back substitution).

    The assembled systems are strictly diagonally dominant so a zero pivot
    cannot occur for them; singular input is still caught and reported.
    """
    *_, x, info = dgtsv(sys.sub, sys.diag, sys.super, sys.rhs)
    if info:
        raise InstabilityError(_SINGULAR.format(info))
    return x


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


def _factor_acid(A_cells, opts: SchemeOptions, mesh: Mesh, block: int):
    """LU factors (LAPACK gttrf) of the acid matrix I - dt*L_A, as the
    (dl, d, du, du2, ipiv) arguments gttrs takes before the right-hand side."""
    bands = _acid_bands(A_cells, opts, mesh, block)
    *factors, info = dgttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise InstabilityError(f"singular acid matrix (LAPACK gttrf info={info})")
    return tuple(factors)


class _Stepper:
    """A march of the runs of ``s`` laid end to end, with one parameter set
    and one row of A_cells each: what it holds fixed (the kinetics, the acid
    LU factors and the tumour system) and the history block it steps in, of
    ``rows`` rows of flat (u, v, w), whose row 0 starts as the fields of
    ``s``."""

    def __init__(self, s: SimulationState, A_cells, params, opts: SchemeOptions, rows: int):
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
        self._dt = opts.dt
        self._kinetics = tuple(_per_cell([getattr(q, k) for q in params], block) for k in "drc")
        self._acid_lu = _factor_acid(A_cells, opts, mesh, block)
        self._tumour = _TumourSystem(mesh, block, params[0].D * opts.dt)
        self.history = np.empty((rows, 3, s.u.size))
        for i, field in enumerate((s.u, s.v, s.w)):
            self.history[0, i] = field.ravel()
        # Each row with its three fields, as views made once.
        self._rows = [(row, *row) for row in self.history]

    def march(self, m: int, times):
        """Step row 0 of the history m times into rows 1..m; ``times`` holds
        the time of each row.

        Nothing is checked while stepping.  Afterwards one pass over the
        block finds the first step that broke down, as the checks of a
        single step would have, in their order: a negative tumour interface
        coefficient, a failed LAPACK solve (which stops the block), a
        non-finite field.  Returns (steps, error): the number of good steps
        and the InstabilityError of the step after them, or None.  Floating
        point warnings are silenced; the error reports the breakdown.
        """
        with np.errstate(all="ignore"):
            done, failure = self._step(m, times)
            return self._check(done, failure, times)

    def _step(self, m, times):
        d, r, c = self._kinetics
        dt, acid_lu, bands, rows = self._dt, self._acid_lu, self._tumour.bands, self._rows
        for j in range(m):
            now, u, v, w = rows[j]
            new, u_new, v_new, w_new = rows[j + 1]
            np.multiply(reaction_u(u, w, d), dt, out=u_new)
            np.multiply(reaction_v(v, r), dt, out=v_new)
            np.multiply(reaction_w(v, w, c), dt, out=w_new)
            new += now
            # Both solves overwrite their right-hand side, the contiguous
            # row of v or w, with the solution.
            info = dgtsv(*bands(u_new), v_new, 1, 1, 1, 1)[-1]
            if info:
                return j, InstabilityError(_SINGULAR.format(info))
            info = dgttrs(*acid_lu, w_new, overwrite_b=1)[-1]
            if info:
                t = float(times[j])
                return j, InstabilityError(f"acid solve failed (LAPACK gttrs info={info})", time=t)
        return m, None

    def _check(self, done: int, failure, times):
        # A step's tumour coefficients come from its new u, which a step
        # stopped by LAPACK has written too.
        history = self.history
        tried = done + (failure is not None)
        u = history[1 : tried + 1, 0]
        # With no u above 1 every coefficient is >= 0, and a finite block
        # has no non-finite row: the common case needs two reductions.
        finite = np.isfinite(history[1 : done + 1])
        if failure is None and finite.all() and not u.max(initial=0.0) > 1.0:
            return done, None
        broken = (self._tumour.kappa(u) < 0.0).any(axis=-1)
        negative = broken.copy()
        broken[:done] |= ~finite.all(axis=(1, 2))
        if failure is not None:
            broken[done] = True
        if not broken.any():
            return done, None
        k = int(broken.argmax())
        t = float(times[k])
        if negative[k]:
            return k, InstabilityError(_NEGATIVE_KAPPA)
        if k == done:
            return k, failure
        return k, InstabilityError(f"non-finite field values after step from t={t!r}", time=t)


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
    """Advance the state by one IMEX step of size opts.dt: the march of
    ``run`` with a block of one step.

    For a batch state, ``A_cells`` has the state's (B, N) shape and ``p``
    holds one ModelParameters per run.
    """
    stepper = _Stepper(s, A_cells, _per_run(p, ModelParameters), opts, rows=2)
    _, error = stepper.march(1, (s.time,))
    if error is not None:
        raise error
    return SimulationState._trusted(
        s.mesh, s.time + opts.dt, *(f.reshape(s.u.shape) for f in stepper.history[1])
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
    step_count(t0, T, dt) steps.

    The steps go in blocks of up to K = _BLOCK_BYTES // (24*B*N) (at least
    one): each is written into the next row of one reused (K+1, 3, B*N)
    history array, and once per block a vectorised pass finds the first
    step that broke down (see _Stepper.march).  Then each observer is
    called as ``observer(first_step, times, fields)``: ``fields`` is a
    read-only (m+1, 3, *state_shape) view of the block whose row j holds
    (u, v, w) after first_step + j steps, at ``times[j]``.  Row 0 is the
    state the block started from (the initial state in the first call, the
    last row of the previous call after that).  The view and ``times`` are
    valid only during the call; an observer copies what it keeps.

    Instability aborts the run with the failing step index and time, after
    the observers have seen the rows before that step.  The returned state
    holds copies of the final fields.
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
    n_steps = step_count(s0.time, T, opts.dt)
    size = max(1, min(n_steps, _BLOCK_BYTES // (24 * s0.u.size)))
    stepper = _Stepper(s0, np.concatenate(A_cells), params, opts, rows=size + 1)
    del A_cells  # only the acid factors needed the diffusivities
    if n_steps == 0:
        return s0
    shape = s0.u.shape
    history = stepper.history
    fields = history.reshape((size + 1, 3) + shape)
    fields.flags.writeable = False
    # Times add dt one step at a time, as a state's time always has.
    increments = np.full(size + 1, opts.dt)
    increments[0] = s0.time
    times = np.empty(size + 1)
    shown = times.view()
    shown.flags.writeable = False
    first = 0
    while first < n_steps:
        m = min(size, n_steps - first)
        np.add.accumulate(increments[: m + 1], out=times[: m + 1])
        good, error = stepper.march(m, times)
        if good:
            for observer in observers:
                observer(first, shown[: good + 1], fields[: good + 1])
        if error is not None:
            step, t = first + good, float(times[good])
            raise InstabilityError(
                f"run became unstable at step {step} (t={t!r}): {error}", step=step, time=t
            ) from error
        history[0] = history[m]
        increments[0] = times[m]
        first += m
    del stepper  # releases its buffers before the final fields are copied
    return SimulationState._trusted(
        s0.mesh, float(increments[0]), *(f.reshape(shape) for f in history[0].copy())
    )
