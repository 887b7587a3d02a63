"""Reference implementations the tests compare the package against.

They are written for reading, not speed: the interface coefficients come
from ``interface_diffusivity_arithmetic`` and the operator from
``diffusion_operator``, independently of the band builder the stepper uses,
and ``harmonic_mean_quadrature`` checks the closed-form harmonic means,
from the pointwise diffusivity of ``profile_value``.  The LAPACK routines
``imex_step`` calls are scipy's, not the package's binding.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from acidfront.core import reaction_u, reaction_v, reaction_w
from acidfront.mesh import (
    Constant,
    DiffusionProfile,
    Mesh,
    PeriodicPiecewiseConstant,
    SingleJump,
    Sinusoidal,
)


def interface_diffusivity_arithmetic(aL, aR, dxL, dxR):
    """Width-weighted average of the two cell coefficients at an interface."""
    return (aL * dxL + aR * dxR) / (dxL + dxR)


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


def profile_value(p: DiffusionProfile, x):
    """Pointwise A(x) of a diffusivity profile; accepts scalars or arrays.

    A single jump takes its right value at the jump itself (right-closed);
    a square wave takes alpha1 on the first beta-fraction of each period."""
    x = np.asarray(x, dtype=float)
    if isinstance(p, Constant):
        return np.full_like(x, p.a)
    if isinstance(p, SingleJump):
        return np.where(x < p.x_jump, p.a1, p.a2)
    if isinstance(p, PeriodicPiecewiseConstant):
        phase = x * p.periods
        frac = phase - np.floor(phase)
        return np.where(frac < p.beta, p.alpha1, p.alpha0)
    if isinstance(p, Sinusoidal):
        mean, half_amplitude = 0.5 * (p.alpha1 + p.alpha0), 0.5 * (p.alpha1 - p.alpha0)
        return mean + half_amplitude * np.sin(p.omega * x)
    raise TypeError(f"no pointwise values for {type(p).__name__}")


def harmonic_mean_quadrature(p: DiffusionProfile, tol: float = 1e-10) -> float:
    """Harmonic mean of a periodic profile over one period, by composite
    midpoint quadrature of 1/A refined until two successive estimates agree
    to ``tol`` relatively."""
    period = p.period
    if period is None:
        raise ValueError(f"{type(p).__name__} profile is not periodic")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")

    def midpoint(n: int) -> float:
        x = (np.arange(n) + 0.5) * (period / n)
        return float(np.mean(1.0 / profile_value(p, x))) * period

    n = 32
    estimate = midpoint(n)
    while n <= 2**23:
        n *= 2
        refined = midpoint(n)
        if abs(refined - estimate) <= tol * abs(refined):
            return period / refined
        estimate = refined
    raise RuntimeError(f"harmonic-mean quadrature did not converge to tol={tol!r}")


def interface_coefficients(cells, mesh):
    """Coefficient at each of the N-1 interior interfaces."""
    cells = np.asarray(cells, dtype=float)
    return interface_diffusivity_arithmetic(
        cells[:-1], cells[1:], mesh.widths[:-1], mesh.widths[1:]
    )


def backward_euler_bands(kappa, gamma, mesh):
    """Bands (sub, diag, super) of I - gamma*L(kappa)."""
    sub, diag, super_ = diffusion_operator(kappa, mesh)
    return -gamma * sub, 1.0 - gamma * diag, -gamma * super_


def end_to_end(mesh, runs):
    """The cells of ``runs`` copies of ``mesh`` laid end to end, as one mesh:
    what the operators of a batch see (they read only the widths)."""
    widths = np.tile(mesh.widths, runs)
    return Mesh(
        interfaces=np.concatenate(([0.0], np.cumsum(widths))),
        centers=np.tile(mesh.centers, runs),
        widths=widths,
    )


def imex_step(fields, A_cells, params, opts, mesh):
    """One IMEX step of the flat (u, v, w) ``fields`` of ``len(params)``
    runs on ``mesh`` laid end to end, each with its own ModelParameters and
    row of ``A_cells``; returns the new (u, v, w).

    The kinetics are reaction_u/v/w times dt plus the old field.  Each
    diffusion stage solves I - gamma*L(kappa) of ``diffusion_operator``,
    with kappa zeroed at the junctions between runs: the tumour's with
    LAPACK gtsv, the acid's with its gttrf factors and gttrs."""
    runs, block = len(params), mesh.n_cells
    line = end_to_end(mesh, runs)
    u, v, w = fields
    d, r, c = (np.repeat([getattr(q, k) for q in params], block) for k in "drc")
    dt = opts.dt
    u = reaction_u(u, w, d) * dt + u
    v, w = reaction_v(v, r) * dt + v, reaction_w(v, w, c) * dt + w

    def bands(cells, gamma):
        kappa = interface_coefficients(cells, line)
        kappa[block - 1 :: block] = 0.0
        return backward_euler_bands(kappa, gamma, line)

    *_, v, info = dgtsv(*bands(1.0 - u, params[0].D * dt), v)
    assert info == 0
    *factors, info = dgttrf(*bands(np.ravel(A_cells), dt))
    assert info == 0
    w, info = dgttrs(*factors, w)
    assert info == 0
    return u, v, w


def apply_operator(kappa, q, mesh):
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


def semidiscrete_rhs(s, A_cells, p):
    """Time derivatives (du, dv, dw) of the semi-discrete system."""
    du = reaction_u(s.u, s.w, p.d)
    kappa_v = interface_coefficients(1.0 - s.u, s.mesh)
    dv = reaction_v(s.v, p.r) + p.D * apply_operator(kappa_v, s.v, s.mesh)
    kappa_w = interface_coefficients(A_cells, s.mesh)
    dw = reaction_w(s.v, s.w, p.c) + apply_operator(kappa_w, s.w, s.mesh)
    return du, dv, dw


def dense(system):
    """The tridiagonal system's matrix as a dense array."""
    return np.diag(system.diag) + np.diag(system.sub, -1) + np.diag(system.super, 1)


def is_diagonally_dominant(system) -> bool:
    """Whether every diagonal entry is positive and exceeds the magnitudes
    of its row's off-diagonal entries."""
    mag = np.zeros_like(system.diag)
    mag[1:] += np.abs(system.sub)
    mag[:-1] += np.abs(system.super)
    return bool(np.all(system.diag > 0.0) and np.all(system.diag > mag))
