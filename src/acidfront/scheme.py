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
the same dt (and tumour diffusivity D).  A state is one run; a batch is B
states, B profiles and B parameter sets, which ``run`` lays end to end in
flat B*N arrays, one block of N cells per run, with its own d, r and c (as
per-cell vectors) and its own A.  The interface coefficient at each junction
between two blocks is set to zero, so both tridiagonal systems are block
diagonal: one LAPACK call solves every run, and each block gets exactly the
numbers a run on its own would.  ``step_imex`` steps one run.

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
fused into nine numpy calls over stacked rows: 1 - [u, v], then
[d, r] * [w, v], then r*v * (1 - v), c * (v - w) and so on (see
``_Stepper._step``).  They do the operations of the three functions on the
same operands in the same order, so every value rounds as theirs does; the
functions stay as the readable reference.  With the nine calls of the
tumour bands a step makes 18 numpy calls and 2 LAPACK calls (a batch makes
one more, to zero its junctions).  The tests hold the stepper's fields equal,
byte for byte, to a step built from reaction_u/v/w, the reference
operator L and the LAPACK routines called one at a time
(``tests/oracles.py``).

``run`` is the hot loop, and it marches in blocks.  Each step writes its
fields into the next row of one preallocated (K+1, 3, B*N) history array
(about _BLOCK_BYTES of memory), reusing it from block to block; row 0 is
the state the block starts from.  ``run`` seeds it with the initial fields
and drops the states before it builds anything else, so a march holds each
field once (and one mesh, the states').  No step runs a reduction or
builds a state, and each LAPACK solve writes its INFO into its row's slot
of a small array.  After each block one vectorised pass over its rows does
what a per-step check would: it finds the first step whose tumour
interface coefficient went negative, whose solve failed or whose fields
are not finite, and returns that step and the reason.  Then the observers get the block, once,
as ``observer(first_step, times, fields)`` (see ``run``), so the
wave-speed increments, the per-run minima, the front-proximity test and
the snapshots are one vectorised pass per block too.  ``run`` raises the
breakdown as one InstabilityError with its step and time; ``step_imex``,
the march with a block of one step, raises it with the time of the state
it stepped.  Every operation runs in the order of a step at a time, so the
numbers do not depend on the block size.

The three LAPACK routines (dgtsv, dgttrf, dgttrs) are called through
ctypes (``_Lapack``), from the library chosen at import (``_bind``):
numpy's bundled OpenBLAS where numpy's wheel ships one (``numpy.libs`` on
Linux and Windows, ``numpy/.dylibs`` on macOS x86-64), which ``import
numpy`` has mapped already, so binding it costs no memory and no import;
else scipy's Cython LAPACK (``scipy.linalg.cython_lapack``), whose entry
points its capsules export.  The first takes 64-bit integer arguments
(ILP64), the second C ints (LP64).  scipy's f2py LAPACK module would map
a second OpenBLAS, with its own libgfortran, next to numpy's: about
2.6 MiB resident in every process.  A solve gets pointer objects only, and
the stepper builds them once per history row (see ``_Stepper``), so a
step pays no more for its two calls than it did through scipy's wrappers."""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# reaction_u/v/w are the readable reference of the kinetics that
# _Stepper._step fuses; perfbench/tracing.py rebinds them in this module.
from .core import ModelParameters, reaction_u, reaction_v, reaction_w  # noqa: F401
from .errors import InstabilityError, StabilityWarning
from .mesh import DiffusionProfile, Mesh, project_cell_averages

_ROUTINES = ("dgtsv", "dgttrf", "dgttrs")
# Where numpy's wheels put the OpenBLAS they bundle: numpy.libs beside the
# package (Linux, Windows) or numpy/.dylibs (macOS x86-64).
_NUMPY = Path(np.__file__).parent
_BUNDLE_DIRS = (_NUMPY.parent / "numpy.libs", _NUMPY / ".dylibs")
_BUNDLE_GLOB = "libscipy_openblas64_*"
# dgttrs solves with A, not its transpose; gfortran passes the length of
# the character argument last, by value.
_NO_TRANSPOSE = ctypes.c_char_p(b"N")
_TRANS_LENGTH = ctypes.c_size_t(1)


def _address(array: np.ndarray) -> int:
    """Address of a writable contiguous array (cheaper than ``array.ctypes.data``)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


class _Lapack:
    """LAPACK's dgtsv, dgttrf and dgttrs as ctypes functions whose integer
    arguments have the dtype ``index``: int64 (ILP64) or int32 (LP64).

    Every argument goes as a pointer object (``c_void_p`` or ``byref``):
    ctypes would pass a bare Python int as a C int.  ``argtypes`` stay
    undeclared, because converting through them cost about 0.5 us per
    call, a microsecond per step.  dgttrs also gets the hidden length of
    its character argument last, which an entry point that takes none
    ignores."""

    def __init__(self, gtsv, gttrf, gttrs, index):
        for routine in (gtsv, gttrf, gttrs):
            routine.restype = None
        self.gtsv, self.gttrf, self.gttrs = gtsv, gttrf, gttrs
        self.index = np.dtype(index)
        self.integer = ctypes.c_int64 if self.index.itemsize == 8 else ctypes.c_int32
        self.one = self.size(1)

    def size(self, n: int):
        """An integer argument of value ``n``."""
        return ctypes.byref(self.integer(n))


def _numpy_openblas():
    """The OpenBLAS file numpy's wheel bundles, or None."""
    for directory in _BUNDLE_DIRS:
        found = sorted(directory.glob(_BUNDLE_GLOB))
        if found:
            return found[0]
    return None


def _bind(find=_numpy_openblas) -> _Lapack:
    """The three routines from the OpenBLAS that ``find`` returns (numpy's,
    ILP64), or, if it returns None, from the capsules of scipy's Cython
    LAPACK (LP64).  Importing that module runs ``scipy.linalg``'s
    ``__init__``, about 0.3 s of start-up that only the fallback pays."""
    path = find()
    if path is not None:
        library = ctypes.CDLL(str(path))
        return _Lapack(*(getattr(library, f"scipy_{name}_64_") for name in _ROUTINES), np.int64)
    try:
        from scipy.linalg.cython_lapack import __pyx_capi__ as capsules
    except ImportError as error:
        searched = " and ".join(str(d) for d in _BUNDLE_DIRS)
        raise ImportError(
            f"acidfront found no LAPACK: no {_BUNDLE_GLOB} (numpy's bundled OpenBLAS) in "
            f"{searched}, and scipy.linalg.cython_lapack did not import ({error})"
        ) from None

    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )

    def entry_point(name):
        capsule = capsules[name]
        return ctypes.CFUNCTYPE(None)(pointer_of(capsule, name_of(capsule)))

    return _Lapack(*(entry_point(name) for name in _ROUTINES), np.int32)


_LAPACK = _bind()

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
    """Cell-averaged fields u, v, w of one run on a mesh at one time.

    Each field has shape (N,); a batch of B runs is a sequence of B states
    (see ``run``).  Arrays are validated (shape (N,), all finite) and
    frozen on construction, so states can be shared and kept as snapshots
    without defensive copies.
    """

    mesh: Mesh
    time: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        expected = (self.mesh.n_cells,)
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

    def pointers(self) -> tuple:
        """Pointers to the bands (sub, diag, super) that ``bands`` writes:
        LAPACK's dl, d and du."""
        base, n, item = _address(self._flat), self._diag.size, self._flat.itemsize
        at = ctypes.c_void_p
        return at(base + (n + 1) * item), at(base + 2 * n * item), at(base)


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
    lapack, n = _LAPACK, sys.diag.size
    # LAPACK overwrites the bands and the right-hand side: it gets copies,
    # in one buffer [dl | d | du | b].
    buffer = np.concatenate((sys.sub, sys.diag, sys.super, sys.rhs), axis=None)
    base, item, size, info = _address(buffer), buffer.itemsize, lapack.size(n), lapack.integer()
    at = ctypes.c_void_p
    lapack.gtsv(
        size, lapack.one, at(base), at(base + (n - 1) * item), at(base + (2 * n - 1) * item),
        at(base + (3 * n - 2) * item), size, ctypes.byref(info),
    )
    if info.value:
        raise InstabilityError(_SINGULAR.format(info.value))
    return buffer[3 * n - 2 :].copy()


def _factor_acid(A_cells: np.ndarray, opts: SchemeOptions, widths: np.ndarray, block: int):
    """LU factors (LAPACK gttrf) of the acid matrix I - dt*L_A: the arrays
    that hold them (bands, du2, ipiv) and gttrs's pointers to them (dl, d,
    du, du2, ipiv).  Overwrites the float array ``A_cells``."""
    lapack, n = _LAPACK, widths.size
    system = _BackwardEuler(widths, block, opts.dt)
    system.bands(system.kappa(A_cells))
    # LAPACK's du2 has n - 2 entries; a pointer to a one-cell array stands in for none
    du2, ipiv = np.empty(max(n - 2, 1)), np.empty(n, lapack.index)
    pointers = (*system.pointers(), ctypes.c_void_p(_address(du2)), ctypes.c_void_p(_address(ipiv)))
    info = lapack.integer()
    lapack.gttrf(lapack.size(n), *pointers, ctypes.byref(info))
    if info.value:
        raise InstabilityError(f"singular acid matrix (LAPACK gttrf info={info.value})")
    return (system._flat, du2, ipiv), pointers


def _history(states, rows: int) -> np.ndarray:
    """A (rows, 3, B*N) history block whose row 0 holds the fields of the B
    ``states``, one block of N cells each."""
    runs, n = len(states), states[0].u.size
    history = np.empty((rows, 3, runs * n))
    row = history[0].reshape(3, runs, n)
    for b, s in enumerate(states):
        row[0, b], row[1, b], row[2, b] = s.u, s.v, s.w
    return history


class _Stepper:
    """A march of runs on ``mesh`` laid end to end, with one parameter set
    and one row of A_cells each: what it holds fixed (the kinetics, the acid
    LU factors and the tumour system) and the ``history`` block it steps in,
    whose row 0 (see ``_history``) is the only copy of the fields it starts from.
    It empties the list ``A_cells`` into the one copy of A that it factors.

    A step makes its two solves one after the other: the acid solve
    (gttrs) right after the explicit stage, then the tumour bands and their
    solve (gtsv).  The arguments of both are built once per history
    row: the tumour bands, or the acid factors, then the row's v, or w, as
    the right-hand side, and the row's two slots of ``_info`` for INFO."""

    def __init__(self, history: np.ndarray, mesh: Mesh, A_cells: list, params, opts: SchemeOptions):
        block, runs = mesh.n_cells, history.shape[-1] // mesh.n_cells
        A = np.concatenate(A_cells, axis=None, dtype=float)
        A_cells.clear()
        if len(params) != runs or A.size != history.shape[-1]:
            raise ValueError(
                f"{runs} state(s) need one parameter set and one diffusivity row "
                f"each, got {len(params)} and {A.size / block:g} rows"
            )
        if any(q.D != params[0].D for q in params):
            raise ValueError("the runs of a batch must share the tumour diffusivity D")
        widths = np.tile(mesh.widths, runs) if runs > 1 else mesh.widths
        # _acid_lu holds the factors that the pointers ``acid`` point to
        self._acid_lu, acid = _factor_acid(A, opts, widths, block)
        del A  # before the buffers below are allocated
        self._dt = opts.dt
        # Rows d, r and c: one column for one run, each run's values over its
        # block for a batch.
        kinetics = np.array([[q.d, q.r, q.c] for q in params], dtype=float).T
        if runs > 1:
            kinetics = kinetics.repeat(block, axis=1)
        self._rates, self._c = kinetics[:2], kinetics[2]
        self._tumour = _BackwardEuler(widths, block, params[0].D * opts.dt)
        # Work rows d*w and r*v (see _step), the result of one call.
        self._work = np.empty((2, history.shape[-1]))
        self.history = history
        # Each row with the views a step reads and writes, made once:
        # (u, v, w), u, v, w, (u, v) and (w, v).
        self._rows = [(row, *row, row[:2], row[2:0:-1]) for row in self.history]
        # The two solves of the step that writes row j: its v and w (fields
        # 3j + 1 and 3j + 2 of the history) and its INFO slots (2j, 2j + 1).
        lapack, (rows, _, n) = _LAPACK, history.shape
        self._info = np.zeros((rows, 2), lapack.index)
        fields, info = _address(history), _address(self._info)
        field, slot = n * history.itemsize, self._info.itemsize
        size, at = lapack.size(n), ctypes.c_void_p
        tumour = (size, lapack.one, *self._tumour.pointers())
        acid = (_NO_TRANSPOSE, size, lapack.one, *acid)
        self._solves = []
        for j in range(1, rows):
            v, w = at(fields + (3 * j + 1) * field), at(fields + (3 * j + 2) * field)
            info_v, info_w = at(info + 2 * j * slot), at(info + (2 * j + 1) * slot)
            self._solves.append(((*tumour, v, size, info_v), (*acid, w, size, info_w, _TRANS_LENGTH)))

    def march(self, m: int, times):
        """Step row 0 of the history m times into rows 1..m; ``times`` holds
        the time of each row.

        Nothing is checked while stepping: each LAPACK solve writes its INFO
        into its row's slot.  Afterwards one pass over the block finds the
        first step that broke down, as the checks of a single step would
        have, in their order: a negative tumour interface coefficient, a
        failed tumour or acid solve, a non-finite field.  Returns (steps,
        reason): the number of good steps and why the step after them broke
        down, or None.  Floating point warnings are silenced; the caller
        reports the breakdown.
        """
        with np.errstate(all="ignore"):
            self._step(m)
            return self._check(m, times)

    def _step(self, m):
        dt, rates, c, rows, solves = self._dt, self._rates, self._c, self._rows, self._solves
        interface, bands = self._tumour.kappa, self._tumour.bands
        gtsv, gttrs = _LAPACK.gtsv, _LAPACK.gttrs
        # The explicit stage is built in the new row itself: 1 - u and 1 - v
        # go into its u and v, v - w into its w.  The work rows hold d*w and
        # r*v, then the tumour's 1 - u and its interface coefficients.
        work = self._work
        dw, rv = work
        cells, kappa = work[0], work[1, :-1]
        for j in range(m):
            now, u, v, w, uv, wv = rows[j]
            new, u_new, v_new, w_new, uv_new, _ = rows[j + 1]
            # reaction_u/v/w times dt: the same operations on the same
            # operands, over stacked rows, so each value rounds as theirs.
            np.subtract(1.0, uv, out=uv_new)
            np.multiply(rates, wv, out=work)
            np.subtract(u_new, dw, out=u_new)
            np.subtract(v, w, out=w_new)
            np.multiply(u, u_new, out=u_new)
            np.multiply(rv, v_new, out=v_new)
            np.multiply(c, w_new, out=w_new)
            new *= dt
            new += now
            # Both solves overwrite their right-hand side, the row's v or w,
            # with the solution, and write their own INFO slot.
            tumour, acid = solves[j]
            gttrs(*acid)
            np.subtract(1.0, u_new, out=cells)
            bands(interface(cells, kappa))
            gtsv(*tumour)

    def _check(self, m: int, times):
        history, info = self.history, self._info[1 : m + 1]
        u = history[1 : m + 1, 0]
        # With no u above 1 every coefficient is >= 0, and a finite block
        # has no non-finite row: the common case needs three reductions.
        finite = np.isfinite(history[1 : m + 1])
        if not info.any() and finite.all() and not u.max(initial=0.0) > 1.0:
            return m, None
        negative = (self._tumour.kappa(1.0 - u) < 0.0).any(axis=-1)
        broken = negative | info.any(axis=1) | ~finite.all(axis=(1, 2))
        if not broken.any():
            return m, None
        k = int(broken.argmax())
        tumour, acid = info[k]
        if negative[k]:
            return k, _NEGATIVE_KAPPA
        if tumour:
            return k, _SINGULAR.format(tumour)
        if acid:
            return k, f"acid solve failed (LAPACK gttrs info={acid})"
        return k, f"non-finite field values after step from t={float(times[k])!r}"


def _per_run(value, kind) -> tuple:
    """A batch argument as one entry per run; a lone ``kind`` is one run's."""
    return (value,) if isinstance(value, kind) else tuple(value)


def step_imex(
    s: SimulationState,
    A_cells: np.ndarray,
    p: ModelParameters,
    opts: SchemeOptions,
) -> SimulationState:
    """Advance one run by one IMEX step of size opts.dt: the march of
    ``run`` with a block of one step.  The new state owns one copy of its
    fields, not views of the stepper's two-row history.
    """
    stepper = _Stepper(_history((s,), 2), s.mesh, [A_cells], (p,), opts)
    _, reason = stepper.march(1, (s.time,))
    if reason is not None:
        raise InstabilityError(reason, time=s.time)
    return SimulationState._trusted(s.mesh, s.time + opts.dt, *stepper.history[1].copy())


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
    s0,
    A,
    p,
    opts: SchemeOptions,
    T: float,
    observers=(),
):
    """March a run, or a batch of runs, from its current time to T with a
    fixed step; takes step_count(t0, T, dt) steps.

    A run is one SimulationState, diffusivity profile and ModelParameters,
    and returns its final state.  A batch of B runs is B states (one mesh
    object, one time), B profiles and B parameter sets, as sequences; it
    marches in one block-diagonal system (the runs must share D) and
    returns a tuple of B final states, each with its own copy of its fields.

    The steps go in blocks of up to K = _BLOCK_BYTES // (24*B*N) (at least
    one): each is written into the next row of one reused (K+1, 3, B*N)
    history array, and once per block a vectorised pass finds the first
    step that broke down (see _Stepper.march).  Then each observer is
    called as ``observer(first_step, times, fields)``: ``fields`` is a
    read-only view of the block, (m+1, 3, N) for one run and (m+1, 3, B, N)
    for B > 1, whose row j holds (u, v, w) after first_step + j steps, at
    ``times[j]``.  Row 0 is the state the block started from (the initial
    states in the first call, the last row of the previous call after
    that).  The view and ``times`` are valid only during the call; an
    observer copies what it keeps.  ``run`` drops the states once row 0
    holds their fields (unless it takes no step).

    The march makes every solve on the calling thread and starts no other.
    Instability aborts the run with the failing step index and time, after
    the observers have seen the rows before that step.
    """
    lone = isinstance(s0, SimulationState)
    states = (s0,) if lone else tuple(s0)
    if not states or any(s.mesh is not states[0].mesh or s.time != states[0].time for s in states):
        raise ValueError("a batch needs one or more states sharing one mesh object and one time")
    mesh, t0 = states[0].mesh, states[0].time
    if T < t0:
        raise ValueError(f"final time {T!r} precedes state time {t0!r}")
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
    runs, n = len(states), mesh.n_cells
    A_cells = [project_cell_averages(a, mesh) for a in _per_run(A, DiffusionProfile)]
    n_steps = step_count(t0, T, opts.dt)
    size = max(1, min(n_steps, _BLOCK_BYTES // (24 * runs * n)))
    history = _history(states, size + 1)
    if n_steps:
        del s0, states  # row 0 holds their fields now; the march keeps no second copy
    stepper = _Stepper(history, mesh, A_cells, params, opts)  # it empties A_cells
    if n_steps == 0:
        return s0 if lone else states
    fields = history.reshape((size + 1, 3) + ((n,) if runs == 1 else (runs, n)))
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
    t, last = float(increments[0]), history[0].reshape(3, runs, n)
    finals = tuple(
        SimulationState._trusted(mesh, t, *(f.copy() for f in last[:, b])) for b in range(runs)
    )
    return finals[0] if lone else finals
