"""1-D finite-volume meshes and space-dependent acid diffusivity profiles.

Cells are the intervals between consecutive interfaces; unknowns live as
per-cell integral averages.  Diffusivity profiles come in four families
(constant, single jump, periodic piecewise-constant, sinusoidal), all with
closed-form antiderivatives, so projection onto cell averages is exact and
needs no quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ResolutionWarning

# Relative tolerance for calling a mesh uniform, and for accepting a cell
# count as integer in build_uniform_mesh.
_UNIFORM_RTOL = 1e-12
_COUNT_RTOL = 1e-6


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Mesh:
    """Partition of an interval into finite-volume cells.

    ``interfaces`` holds the N+1 strictly increasing cell boundaries,
    ``centers`` the N cell midpoints, ``widths`` the N cell sizes.
    ``uniform`` is true when all widths agree to within 1e-12 of the
    domain length.  Construct through :func:`build_uniform_mesh` or
    :func:`mesh_from_interfaces`; instances are immutable.
    """

    interfaces: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    uniform: bool

    @property
    def n_cells(self) -> int:
        return self.centers.size

    @property
    def xmin(self) -> float:
        return float(self.interfaces[0])

    @property
    def xmax(self) -> float:
        return float(self.interfaces[-1])

    @property
    def length(self) -> float:
        return self.xmax - self.xmin

    @property
    def dx(self) -> float:
        """Common cell width; only meaningful on uniform meshes."""
        if not self.uniform:
            raise ValueError("mesh is not uniform, cells have no common width")
        return float(self.widths[0])


def mesh_from_interfaces(interfaces) -> Mesh:
    """Build a (possibly nonuniform) mesh from an explicit interface sequence."""
    ifc = _readonly(interfaces)
    if ifc.ndim != 1 or ifc.size < 4:
        raise ValueError("mesh needs at least 3 cells (4 interfaces)")
    if not np.all(np.isfinite(ifc)):
        raise ValueError("mesh interfaces must be finite")
    widths = np.diff(ifc)
    if not np.all(widths > 0.0):
        raise ValueError("mesh interfaces must be strictly increasing")
    centers = 0.5 * (ifc[:-1] + ifc[1:])
    length = float(ifc[-1] - ifc[0])
    uniform = float(widths.max() - widths.min()) <= _UNIFORM_RTOL * length
    return Mesh(
        interfaces=ifc,
        centers=_readonly(centers),
        widths=_readonly(widths),
        uniform=uniform,
    )


def build_uniform_mesh(xmin: float, xmax: float, dx: float) -> Mesh:
    """Tile [xmin, xmax] with cells of width dx.

    The spacing must divide the domain into an integer number (>= 3) of
    cells, up to a small relative tolerance for float noise.
    """
    if not xmax > xmin:
        raise ConfigurationError(f"empty domain: xmin={xmin!r}, xmax={xmax!r}")
    if not dx > 0.0:
        raise ConfigurationError(f"cell width must be positive, got {dx!r}")
    ratio = (xmax - xmin) / dx
    n = round(ratio)
    if abs(ratio - n) > _COUNT_RTOL * max(1.0, ratio):
        raise ConfigurationError(
            f"dx={dx!r} does not evenly divide [{xmin!r}, {xmax!r}] "
            f"({ratio!r} cells)"
        )
    if n < 3:
        raise ConfigurationError(
            f"mesh needs at least 3 cells, got {n} from dx={dx!r} "
            f"on [{xmin!r}, {xmax!r}]"
        )
    return mesh_from_interfaces(np.linspace(xmin, xmax, n + 1))


class DiffusionProfile:
    """Space-dependent acid diffusivity A(x) > 0.

    Subclasses implement pointwise evaluation and exact per-cell integral
    averaging.  ``period`` is the spatial period for the two oscillatory
    families and None otherwise.
    """

    period: float | None = None

    def value(self, x):
        """Pointwise A(x); accepts scalars or arrays."""
        raise NotImplementedError

    def cell_averages(self, mesh: Mesh) -> np.ndarray:
        """Exact integral average of A over every cell of ``mesh``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(DiffusionProfile):
    """Homogeneous diffusivity A(x) = a."""

    a: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError(f"diffusivity must be positive, got {self.a!r}")

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.a)

    def cell_averages(self, mesh):
        return np.full(mesh.n_cells, self.a)


@dataclass(frozen=True)
class SingleJump(DiffusionProfile):
    """Two-tissue diffusivity: a1 left of x_jump, a2 from x_jump on.

    The jump point itself takes the right value (right-closed convention);
    the choice never affects integrals.
    """

    a1: float
    a2: float
    x_jump: float

    def __post_init__(self):
        if not self.a1 > 0.0 or not self.a2 > 0.0:
            raise ValueError(
                f"diffusivities must be positive, got a1={self.a1!r}, a2={self.a2!r}"
            )
        if not math.isfinite(self.x_jump):
            raise ValueError(f"jump location must be finite, got {self.x_jump!r}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.x_jump, self.a1, self.a2)

    def cell_averages(self, mesh):
        # Exact piecewise integration: split each cell at the jump.
        left_len = np.clip(self.x_jump - mesh.interfaces[:-1], 0.0, mesh.widths)
        return (self.a1 * left_len + self.a2 * (mesh.widths - left_len)) / mesh.widths


@dataclass(frozen=True)
class PeriodicPiecewiseConstant(DiffusionProfile):
    """Square-wave diffusivity with ``periods`` oscillations per unit length.

    Each period takes the value alpha1 on its first beta-fraction and
    alpha0 on the rest, modelling alternating easy and obstructed passage.
    """

    alpha0: float
    alpha1: float
    beta: float
    periods: float

    def __post_init__(self):
        if not self.alpha0 > 0.0 or not self.alpha1 > 0.0:
            raise ValueError(
                f"diffusivities must be positive, got alpha0={self.alpha0!r}, "
                f"alpha1={self.alpha1!r}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"duty fraction beta must be in (0, 1), got {self.beta!r}")
        if not self.periods >= 1.0:
            raise ValueError(
                f"need at least one oscillation per unit interval, got {self.periods!r}"
            )

    @property
    def period(self) -> float:
        return 1.0 / self.periods

    def value(self, x):
        phase = np.asarray(x, dtype=float) * self.periods
        frac = phase - np.floor(phase)
        return np.where(frac < self.beta, self.alpha1, self.alpha0)

    def _antiderivative(self, x):
        # Integral of A from 0 to x, via the unit-period primitive.
        y = np.asarray(x, dtype=float) * self.periods
        whole = np.floor(y)
        frac = y - whole
        per_period = self.alpha1 * self.beta + self.alpha0 * (1.0 - self.beta)
        partial = self.alpha1 * np.minimum(frac, self.beta) + self.alpha0 * np.maximum(
            frac - self.beta, 0.0
        )
        return (whole * per_period + partial) / self.periods

    def cell_averages(self, mesh):
        prim = self._antiderivative(mesh.interfaces)
        return np.diff(prim) / mesh.widths


@dataclass(frozen=True)
class Sinusoidal(DiffusionProfile):
    """Smooth oscillatory diffusivity ranging over [alpha0, alpha1].

    A(x) = (alpha1+alpha0)/2 + (alpha1-alpha0)/2 * sin(omega*x).
    """

    alpha0: float
    alpha1: float
    omega: float

    def __post_init__(self):
        if not 0.0 < self.alpha0 <= self.alpha1:
            raise ValueError(
                f"need 0 < alpha0 <= alpha1, got alpha0={self.alpha0!r}, "
                f"alpha1={self.alpha1!r}"
            )
        if not self.omega > 0.0:
            raise ValueError(f"frequency must be positive, got {self.omega!r}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def _mean(self) -> float:
        return 0.5 * (self.alpha1 + self.alpha0)

    @property
    def _half_amplitude(self) -> float:
        return 0.5 * (self.alpha1 - self.alpha0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self._mean + self._half_amplitude * np.sin(self.omega * x)

    def cell_averages(self, mesh):
        # Exact: integral of sin via -cos(omega x)/omega.
        cos = np.cos(self.omega * mesh.interfaces)
        osc = (cos[:-1] - cos[1:]) / (self.omega * mesh.widths)
        return self._mean + self._half_amplitude * osc


def aliasing_multiple(width: float, profile: DiffusionProfile) -> int:
    """The multiple of a periodic profile's period that ``width`` sits within
    5% of, else 0.  Cells that wide sample every period at the same phase,
    so the projected averages degenerate to near-constants."""
    if profile.period is None:
        return 0
    ratio = width / profile.period
    nearest = round(ratio)
    return nearest if nearest >= 1 and abs(ratio - nearest) <= 0.05 * nearest else 0


def project_cell_averages(profile: DiffusionProfile, mesh: Mesh) -> np.ndarray:
    """Exact per-cell integral averages of A on ``mesh``; warns when the
    widest cell aliases an oscillatory profile (``aliasing_multiple``)."""
    width = float(mesh.widths.max())
    nearest = aliasing_multiple(width, profile)
    if nearest:
        warnings.warn(
            f"cell width ~ {nearest} x profile period (ratio {width / profile.period:.4g}); "
            "oscillations of the diffusivity will alias on this mesh",
            ResolutionWarning,
            stacklevel=2,
        )
    return profile.cell_averages(mesh)
