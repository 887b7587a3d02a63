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

# Relative tolerance for the spread of a mesh's cell widths, and for
# accepting a cell count as integer in cell_count.
_UNIFORM_RTOL = 1e-12
_COUNT_RTOL = 1e-6


@dataclass(frozen=True)
class Mesh:
    """Partition of an interval into cells of one width.

    ``interfaces`` holds the N+1 strictly increasing cell boundaries,
    ``centers`` the N cell midpoints, ``widths`` the N cell sizes, which
    must agree to within 1e-12 of the domain length.  Construct through
    :func:`build_uniform_mesh`; instances are immutable.  The readable
    operators the tests compare the scheme against (``tests/oracles.py``)
    read only ``widths``.
    """

    interfaces: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        narrowest, widest = float(self.widths.min()), float(self.widths.max())
        if not widest - narrowest <= _UNIFORM_RTOL * (self.xmax - self.xmin):
            raise ConfigurationError(
                f"floats near [{self.xmin!r}, {self.xmax!r}] cannot space {self.n_cells} "
                f"cells evenly: their widths range from {narrowest!r} to {widest!r}"
            )

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
    def dx(self) -> float:
        """Common cell width."""
        return float(self.widths[0])


def cell_count(xmin: float, xmax: float, dx: float) -> int:
    """The number N >= 3 of cells of width dx that tile the finite, non-empty
    [xmin, xmax], up to a small relative tolerance for float noise.  A dx
    that is not finite and positive, or a count that is not a whole number,
    below 3 or past an array index, is a ConfigurationError."""
    for name, bound in (("xmin", xmin), ("xmax", xmax)):
        if not math.isfinite(bound):
            raise ConfigurationError(f"domain bound {name} must be finite, got {bound!r}")
    if not xmax > xmin:
        raise ConfigurationError(f"empty domain: xmin={xmin!r}, xmax={xmax!r}")
    if not 0.0 < dx < math.inf:
        raise ConfigurationError(f"cell width must be positive and finite, got {dx!r}")
    ratio = (xmax - xmin) / dx
    if not ratio < np.iinfo(np.intp).max:
        raise ConfigurationError(f"(xmax - xmin)/dx = {ratio!r} is more than an array can index")
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
    return n


def build_uniform_mesh(xmin: float, xmax: float, dx: float) -> Mesh:
    """Tile [xmin, xmax] with the ``cell_count(xmin, xmax, dx)`` = N cells
    of width dx.  The interfaces are ``np.linspace(xmin, xmax, N + 1)``;
    where the floats near them are too coarse to space them evenly (cell
    widths spreading by more than 1e-12 of the domain length),
    :class:`Mesh` rejects them."""
    interfaces = np.linspace(xmin, xmax, cell_count(xmin, xmax, dx) + 1)
    widths = np.diff(interfaces)
    centers = 0.5 * (interfaces[:-1] + interfaces[1:])
    for array in (interfaces, centers, widths):
        array.setflags(write=False)
    return Mesh(interfaces=interfaces, centers=centers, widths=widths)


class DiffusionProfile:
    """Space-dependent acid diffusivity A(x) > 0.

    Subclasses implement exact per-cell integral averaging.  ``period`` is
    the spatial period for the two oscillatory families and None otherwise.
    """

    period: float | None = None

    def cell_averages(self, mesh: Mesh) -> np.ndarray:
        """Exact integral average of A over every cell of ``mesh``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(DiffusionProfile):
    """Homogeneous diffusivity A(x) = a."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"diffusivity must be finite and positive, got {self.a!r}")

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
        if not (0.0 < self.a1 < math.inf and 0.0 < self.a2 < math.inf):
            raise ValueError(
                f"diffusivities must be finite and positive, got a1={self.a1!r}, a2={self.a2!r}"
            )
        if not math.isfinite(self.x_jump):
            raise ValueError(f"jump location must be finite, got {self.x_jump!r}")

    def cell_averages(self, mesh):
        # Exact piecewise integration: split each cell at the jump.  A cell
        # wholly on one side takes that side's value exactly (a1*w/w may
        # round an ulp off it).
        left_len = np.clip(self.x_jump - mesh.interfaces[:-1], 0.0, mesh.widths)
        averages = (self.a1 * left_len + self.a2 * (mesh.widths - left_len)) / mesh.widths
        return np.select([left_len == mesh.widths, left_len == 0.0], [self.a1, self.a2], averages)


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
        if not (0.0 < self.alpha0 < math.inf and 0.0 < self.alpha1 < math.inf):
            raise ValueError(
                f"diffusivities must be finite and positive, got alpha0={self.alpha0!r}, "
                f"alpha1={self.alpha1!r}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"duty fraction beta must be in (0, 1), got {self.beta!r}")
        if not 1.0 <= self.periods < math.inf:
            raise ValueError(
                f"need a finite number (at least one) of oscillations per unit interval, "
                f"got {self.periods!r}"
            )

    @property
    def period(self) -> float:
        return 1.0 / self.periods

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
        if not 0.0 < self.alpha0 <= self.alpha1 < math.inf:
            raise ValueError(
                f"need finite 0 < alpha0 <= alpha1, got alpha0={self.alpha0!r}, "
                f"alpha1={self.alpha1!r}"
            )
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"frequency must be finite and positive, got {self.omega!r}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def _mean(self) -> float:
        return 0.5 * (self.alpha1 + self.alpha0)

    @property
    def _half_amplitude(self) -> float:
        return 0.5 * (self.alpha1 - self.alpha0)

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
