"""Reference implementations the tests compare the package against.

They are written for reading, not speed: the interface coefficients come
from ``interface_diffusivity_arithmetic/harmonic`` and the operator from
``diffusion_operator``, independently of the band builder the stepper uses.
"""

import numpy as np

from acidfront.core import reaction_u, reaction_v, reaction_w
from acidfront.scheme import (
    ARITHMETIC,
    diffusion_operator,
    interface_diffusivity_arithmetic,
    interface_diffusivity_harmonic,
)


def interface_coefficients(cells, mesh, average=ARITHMETIC):
    """Coefficient at each of the N-1 interior interfaces."""
    cells = np.asarray(cells, dtype=float)
    if average == ARITHMETIC:
        return interface_diffusivity_arithmetic(
            cells[:-1], cells[1:], mesh.widths[:-1], mesh.widths[1:]
        )
    return interface_diffusivity_harmonic(cells[:-1], cells[1:])


def backward_euler_bands(kappa, gamma, mesh):
    """Bands (sub, diag, super) of I - gamma*L(kappa)."""
    sub, diag, super_ = diffusion_operator(kappa, mesh)
    return -gamma * sub, 1.0 - gamma * diag, -gamma * super_


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


def semidiscrete_rhs(s, A_cells, p, opts):
    """Time derivatives (du, dv, dw) of the semi-discrete system."""
    du = reaction_u(s.u, s.w, p.d)
    kappa_v = interface_coefficients(1.0 - s.u, s.mesh)
    dv = reaction_v(s.v, p.r) + p.D * apply_operator(kappa_v, s.v, s.mesh)
    kappa_w = interface_coefficients(A_cells, s.mesh, opts.interface_average_w)
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
