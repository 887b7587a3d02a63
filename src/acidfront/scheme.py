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

Both implicit matrices are I - gamma*L(kappa), and one builder assembles
them (``_BackwardEuler``): from constants computed once from the cell
widths it forms the interface coefficients (width-weighted arithmetic
averages, in place), zeroes them at the junctions between runs and writes
the bands into reused buffers.  Its readable reference is the flux-form
operator L in ``tests/oracles.py``; the tests hold the builder's bands
equal to it bit for bit.  The acid matrix depends only on A, dt and the
mesh, which a run holds fixed, so it is factored once per run (LAPACK
gttrf) and each step solves with the factors (gttrs).  The tumour matrix
changes with u and is rebuilt and solved each step with LAPACK gtsv.

The explicit stage is ``core.reaction_u/v/w`` times dt plus the old fields,
fused into eight numpy calls over stacked rows: 1 - [u, v], then
[d, r] * [w, v], then [r*v, c] * [1 - v, v - w] and so on (see
``_Stepper._step``).  They do the operations of the three functions on the
same operands in the same order, so every value rounds as theirs does; the
functions stay as the readable reference.  With the nine calls of the
tumour bands a step makes 17 numpy calls and 2 LAPACK calls (a batch makes
one more, to zero its junctions).  The tests hold the stepper's fields equal,
byte for byte, to a step built from reaction_u/v/w, the reference
operator L and the LAPACK routines called one at a time
(``tests/oracles.py``).

``run`` is the hot loop, and it marches in blocks.  Each step writes its
fields into the next row of one preallocated (K+1, 3, B*N) history array
(about _BLOCK_BYTES of memory), reusing it from block to block; row 0 is
the state the block starts from.  ``run`` seeds it with the initial fields
and drops the state before it builds anything else, so a march holds each
field once (and one mesh, the state's).  No step runs a reduction or
builds a state.  After each block one vectorised pass over its rows does
what a per-step check would: it finds the first step whose tumour
interface coefficient went negative or whose fields are not finite, and
returns that step and the reason.  Then the observers get the block, once,
as ``observer(first_step, times, fields)`` (see ``run``), so the
wave-speed increments, the per-run minima, the front-proximity test and
the snapshots are one vectorised pass per block too.  ``run`` raises the
breakdown as one InstabilityError with its step and time; ``step_imex``,
the march with a block of one step, raises it with the time of the state
it stepped.  Every operation runs in the order of a step at a time, so the
numbers do not depend on the block size.

The three LAPACK routines (dgtsv, dgttrf, dgttrs) are scipy's, bound from
its f2py extension module ``scipy.linalg._flapack``, which this module
loads on its own (``_lapack_routines``): it finds scipy without running
the package, so neither ``scipy`` nor ``scipy.linalg`` is executed (except
on Windows, see below).  Importing the routines through ``scipy.linalg``
would run that package's ``__init__``, which costs about 0.3 s (mostly
scipy's array-API copy of numpy): more than an everyday preset run
marches; ``import scipy`` alone costs about 10 ms and 1 MiB.  The module is
registered under its own name, so ``scipy.linalg.lapack`` exports the very
same function objects, whichever of the two is imported first."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

if sys.platform == "win32":
    # the wheel's __init__ puts scipy.libs, which _flapack needs, on the DLL search path
    import scipy  # noqa: F401

# reaction_u/v/w are the readable reference of the kinetics that
# _Stepper._step fuses; perfbench/tracing.py rebinds them in this module.
from .core import ModelParameters, reaction_u, reaction_v, reaction_w  # noqa: F401
from .errors import InstabilityError, StabilityWarning
from .mesh import DiffusionProfile, Mesh, project_cell_averages

_FLAPACK = "scipy.linalg._flapack"


def _lapack_routines():
    """LAPACK's dgtsv, dgttrf and dgttrs from scipy's f2py extension module,
    loaded without running ``scipy`` or ``scipy.linalg`` (on Windows,
    ``scipy`` has run at import).

    The import system finds scipy's directory and picks the extension file
    in its ``linalg`` directory.  The module is reused if ``scipy.linalg``
    loaded it first, and otherwise registered under its own name, so a later
    ``import scipy.linalg`` reuses it: both see the same function objects."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        package = importlib.util.find_spec("scipy")
        if package is None:
            raise ImportError("acidfront needs scipy, which is not installed")
        linalg = str(Path(package.origin).parent / "linalg")
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, [linalg])
        if spec is None:
            raise ImportError(f"scipy has no LAPACK extension in {linalg}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module.dgtsv, module.dgttrf, module.dgttrs


dgtsv, dgttrf, dgttrs = _lapack_routines()

# How far a step count (T - t0)/dt may sit from a whole number and still
# count as that number (float noise: 0.055/0.011 = 5.000000000000001).
GRID_TOL = 1e-9

# Memory for the history block ``run`` marches in: K + 1 rows of the three
# fields, 24 bytes per cell and row.
_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class SchemeOptions:
    """The time step of a march: positive and finite."""

    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"time step must be positive and finite, got {self.dt!r}")


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


_NEGATIVE_KAPPA = "negative tumour interface coefficient: healthy density exceeded 1"
_SINGULAR = "singular tridiagonal system (LAPACK gtsv info={})"


class _BackwardEuler:
    """The matrix I - gamma*L(kappa) of the reference flux-form operator
    (``tests/oracles.py``) for runs of ``block`` cells laid end to end, with
    cell ``widths``.

    Interface coefficients are width-weighted arithmetic averages of the
    cell coefficients.  The tumour coefficient (1 - u) is degenerate (it
    vanishes where u = 1), which rules a harmonic mean out: a cell of intact
    tissue would zero both of its interfaces, so the tumour could never
    diffuse into it (and two such cells give 0/0).

    The coefficient at each junction between two runs is zeroed, which
    decouples them.  A negative coefficient (the tumour's, once u exceeds
    1) would break the dominance of the matrix; callers report it rather
    than clamp it.  The mesh constants are computed once and the bands are
    written into buffers that every ``bands`` call reuses (LAPACK may
    overwrite them).
    """

    def __init__(self, widths: np.ndarray, block: int, gamma: float):
        n = widths.size
        self._widths = widths
        # wL + wR is twice the reference operator's gap: kappa/wsum is exactly
        # half its kappa/gap (no band is subnormal), so ``bands`` scales by
        # -2*gamma.
        self._wsum = widths[:-1] + widths[1:]
        # The widths left and right of each interface: two overlapping rows
        # over the widths, a view (a stacked copy would cost 2N floats of peak).
        step = widths.itemsize
        self._sides = np.ndarray((2, n - 1), widths.dtype, buffer=widths, strides=(step, step))
        # A single run has no junction.
        self._junctions = slice(block - 1, None, block) if block < n else None
        self._scale = -2.0 * gamma
        # One buffer [super | pad | sub | diag] of n - 1, 2, n - 1 and n
        # entries: flat[:n] + flat[n:2n] is super_i + sub_{i-1}, the
        # off-diagonal sum of row i (the pad stands in for the missing one of
        # the two boundary rows), and one multiplication scales every band.
        self._flat = np.zeros(3 * n)
        self._off = self._flat[: 2 * n + 2].reshape(2, n + 1)[:, : n - 1]
        self._diag = self._flat[2 * n :]

    def kappa(self, cells: np.ndarray, out=None) -> np.ndarray:
        """Interface coefficients of the cell coefficients ``cells`` along
        the last axis, zero at the junctions.  They are formed in place
        (``cells`` is overwritten), into ``out`` if given."""
        cells *= self._widths
        kappa = np.add(cells[..., :-1], cells[..., 1:], out=out)
        kappa /= self._wsum
        if self._junctions is not None:
            kappa[..., self._junctions] = 0.0
        return kappa

    def bands(self, kappa: np.ndarray):
        """(sub, diag, super) of I - gamma*L(kappa); overwrites ``kappa``,
        and the next call overwrites the bands."""
        kappa /= self._wsum
        off = np.divide(kappa, self._sides, out=self._off)
        flat, diag = self._flat, self._diag
        n = diag.size
        np.add(flat[:n], flat[n : 2 * n], out=diag)
        # 1 - gamma*((0 - super_i) - sub_{i-1}) is exactly 1 + gamma*(super_i + sub_{i-1}),
        # and that is 1 - ((super_i + sub_{i-1})/2)*(-2*gamma): (x/2)*(-2*gamma) = -(x*gamma).
        flat *= self._scale
        np.subtract(1.0, diag, out=diag)
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
    system = _BackwardEuler(m.widths, m.n_cells, p.D * opts.dt)
    kappa = system.kappa(1.0 - np.asarray(u_next, dtype=float))
    if (kappa < 0.0).any():
        raise InstabilityError(_NEGATIVE_KAPPA)
    return TridiagonalSystem(*system.bands(kappa), rhs=v_expl)


def assemble_implicit_w(
    A_cells: np.ndarray,
    w_expl: np.ndarray,
    opts: SchemeOptions,
    m: Mesh,
) -> TridiagonalSystem:
    """Backward-Euler system (I - dt*L_A) w = w_expl for the acid stage."""
    system = _BackwardEuler(m.widths, m.n_cells, opts.dt)
    kappa = system.kappa(np.array(A_cells, dtype=float))
    return TridiagonalSystem(*system.bands(kappa), rhs=w_expl)


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


def _factor_acid(A_cells: np.ndarray, opts: SchemeOptions, widths: np.ndarray, block: int):
    """LU factors (LAPACK gttrf) of the acid matrix I - dt*L_A: gttrs's
    arguments before b.  Overwrites the float array ``A_cells``."""
    system = _BackwardEuler(widths, block, opts.dt)
    bands = system.bands(system.kappa(A_cells))
    *factors, info = dgttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise InstabilityError(f"singular acid matrix (LAPACK gttrf info={info})")
    return tuple(factors)


def _history(s: SimulationState, rows: int) -> np.ndarray:
    """A (rows, 3, B*N) history block whose row 0 holds the fields of ``s``."""
    history = np.empty((rows, 3, s.u.size))
    row = history[0].reshape((3,) + s.u.shape)
    row[0], row[1], row[2] = s.u, s.v, s.w
    return history


class _Stepper:
    """A march of runs on ``mesh`` laid end to end, with one parameter set
    and one row of A_cells each: what it holds fixed (the kinetics, the acid
    LU factors and the tumour system) and the ``history`` block it steps in,
    whose row 0 (see ``_history``) is the only copy of the fields it starts from.
    It empties the list ``A_cells`` into the one copy of A that it factors."""

    def __init__(self, history: np.ndarray, mesh: Mesh, A_cells: list, params, opts: SchemeOptions):
        block, runs = mesh.n_cells, history.shape[-1] // mesh.n_cells
        A = np.concatenate(A_cells, axis=None, dtype=float)
        A_cells.clear()
        if len(params) != runs or A.size != history.shape[-1]:
            raise ValueError(
                f"a state of {runs} run(s) needs one parameter set and one diffusivity "
                f"row per run, got {len(params)} and {A.size / block:g} rows"
            )
        if any(q.D != params[0].D for q in params):
            raise ValueError("the runs of a batch must share the tumour diffusivity D")
        widths = np.tile(mesh.widths, runs) if runs > 1 else mesh.widths
        self._acid_lu = _factor_acid(A, opts, widths, block)
        del A  # before the buffers below are allocated
        self._dt = opts.dt
        # Rows d, r and c: one column for one run, each run's values over its
        # block for a batch.
        kinetics = np.array([[q.d, q.r, q.c] for q in params], dtype=float).T
        if runs > 1:
            kinetics = kinetics.repeat(block, axis=1)
        self._rates = kinetics[:2]
        self._tumour = _BackwardEuler(widths, block, params[0].D * opts.dt)
        # Work rows d*w, r*v and c (see _step): [d*w, r*v] and [r*v, c] are
        # each the operand or result of one call.
        self._work = np.empty((3, history.shape[-1]))
        self._work[2] = kinetics[2]
        self.history = history
        # Each row with the views a step reads and writes, made once:
        # (u, v, w), u, v, w, (u, v), (v, w) and (w, v).
        self._rows = [(row, *row, row[:2], row[1:], row[2:0:-1]) for row in self.history]

    def march(self, m: int, times):
        """Step row 0 of the history m times into rows 1..m; ``times`` holds
        the time of each row.

        Nothing is checked while stepping.  Afterwards one pass over the
        block finds the first step that broke down, as the checks of a
        single step would have, in their order: a negative tumour interface
        coefficient, a failed LAPACK solve (which stops the block), a
        non-finite field.  Returns (steps, reason): the number of good steps
        and why the step after them broke down, or None.  Floating point
        warnings are silenced; the caller reports the breakdown.
        """
        with np.errstate(all="ignore"):
            done, failure = self._step(m)
            return self._check(done, failure, times)

    def _step(self, m):
        dt, rates, acid_lu, rows = self._dt, self._rates, self._acid_lu, self._rows
        interface, bands = self._tumour.kappa, self._tumour.bands
        # The explicit stage is built in the new row itself: 1 - u and 1 - v
        # go into its u and v, v - w into its w.  The work rows hold d*w, r*v
        # and c, then the tumour's 1 - u and its interface coefficients.
        work = self._work
        products, dw, rv_c = work[0:2], work[0], work[1:3]
        cells, kappa = work[0], work[1, :-1]
        for j in range(m):
            now, u, v, w, uv, _, wv = rows[j]
            new, u_new, v_new, w_new, uv_new, vw_new, _ = rows[j + 1]
            # reaction_u/v/w times dt: the same operations on the same
            # operands, over stacked rows, so each value rounds as theirs.
            np.subtract(1.0, uv, out=uv_new)
            np.multiply(rates, wv, out=products)
            np.subtract(u_new, dw, out=u_new)
            np.subtract(v, w, out=w_new)
            np.multiply(u, u_new, out=u_new)
            np.multiply(rv_c, vw_new, out=vw_new)
            new *= dt
            new += now
            # Both solves overwrite their right-hand side, the contiguous
            # row of v or w, with the solution.
            np.subtract(1.0, u_new, out=cells)
            info = dgtsv(*bands(interface(cells, kappa)), v_new, 1, 1, 1, 1)[-1]
            if info:
                return j, _SINGULAR.format(info)
            info = dgttrs(*acid_lu, w_new, overwrite_b=1)[-1]
            if info:
                return j, f"acid solve failed (LAPACK gttrs info={info})"
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
        broken = (self._tumour.kappa(1.0 - u) < 0.0).any(axis=-1)
        negative = broken.copy()
        broken[:done] |= ~finite.all(axis=(1, 2))
        if failure is not None:
            broken[done] = True
        if not broken.any():
            return done, None
        k = int(broken.argmax())
        if negative[k]:
            return k, _NEGATIVE_KAPPA
        if k == done:
            return k, failure
        return k, f"non-finite field values after step from t={float(times[k])!r}"


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
    stepper = _Stepper(_history(s, 2), s.mesh, [A_cells], _per_run(p, ModelParameters), opts)
    _, reason = stepper.march(1, (s.time,))
    if reason is not None:
        raise InstabilityError(reason, time=s.time)
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
    valid only during the call; an observer copies what it keeps.  ``run``
    drops ``s0`` once row 0 holds its fields (unless it takes no step).

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
    mesh, t0, shape = s0.mesh, s0.time, s0.u.shape
    A_cells = [project_cell_averages(a, mesh) for a in _per_run(A, DiffusionProfile)]
    n_steps = step_count(t0, T, opts.dt)
    size = max(1, min(n_steps, _BLOCK_BYTES // (24 * s0.u.size)))
    history = _history(s0, size + 1)
    if n_steps:
        del s0  # row 0 holds its fields now; the march keeps no second copy
    stepper = _Stepper(history, mesh, A_cells, params, opts)  # it empties A_cells
    if n_steps == 0:
        return s0
    fields = history.reshape((size + 1, 3) + shape)
    fields.flags.writeable = False
    # Times add dt one step at a time, as a state's time always has.
    increments = np.full(size + 1, opts.dt)
    increments[0] = t0
    times = np.empty(size + 1)
    shown = times.view()
    shown.flags.writeable = False
    first = 0
    while first < n_steps:
        m = min(size, n_steps - first)
        np.add.accumulate(increments[: m + 1], out=times[: m + 1])
        good, reason = stepper.march(m, times)
        if good:
            for observer in observers:
                observer(first, shown[: good + 1], fields[: good + 1])
        if reason is not None:
            step, t = first + good, float(times[good])
            raise InstabilityError(
                f"run became unstable at step {step} (t={t!r}): {reason}", step=step, time=t
            )
        history[0] = history[m]
        increments[0] = times[m]
        first += m
    del stepper  # releases its buffers before the final fields are copied
    return SimulationState._trusted(
        mesh, float(increments[0]), *(f.reshape(shape) for f in history[0].copy())
    )
