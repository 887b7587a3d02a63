"""Model parameters, reaction kinetics, and far-field equilibrium states.

The simulator works on the nondimensional three-species system coupling
healthy tissue u, tumour density v, and excess acid w:

    u_t = u (1 - u - d w)
    v_t = r v (1 - v) + D [(1 - u) v_x]_x
    w_t = c (v - w)   + [A(x) w_x]_x

This module owns the dimensionless parameter quadruple (d, r, D, c), the
reduction from dimensional rates, the pointwise reaction terms, and the
equilibrium triples the invasion front connects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .errors import ParameterWarning


@dataclass(frozen=True)
class DimensionalParameters:
    """Rates and capacities of the dimensional model.

    rho1, rho2, rho3 are the healthy growth, tumour growth, and acid
    production rates (1/time); delta1 and delta3 the acid-induced tissue
    degradation and acid deactivation rates; kappa1, kappa2 the carrying
    capacities; D2 the tumour diffusivity and D3max the maximum acid
    diffusivity (length^2/time).
    """

    rho1: float
    rho2: float
    rho3: float
    delta1: float
    delta3: float
    kappa1: float
    kappa2: float
    D2: float
    D3max: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0.0:
                raise ValueError(
                    f"dimensional parameter {f.name} must be strictly positive, "
                    f"got {value!r}"
                )


@dataclass(frozen=True)
class ModelParameters:
    """Nondimensional parameters (d, r, D, c).

    d measures how destructive the acid is to healthy tissue, r the tumour
    growth rate relative to the healthy one, D the tumour/acid diffusivity
    ratio, and c the acid production/deactivation rate.
    """

    d: float
    r: float
    D: float
    c: float

    def __post_init__(self):
        for name in ("d", "r", "D", "c"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"model parameter {name} must be finite and strictly positive, "
                    f"got {value!r}"
                )
        if self.D >= 1.0:
            warnings.warn(
                f"D={self.D!r} is not small; the model assumes the acid "
                "diffuses much faster than the tumour (D << 1)",
                ParameterWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class AsymptoticStates:
    """Far-field equilibria (u, v, w) of an invasion front.

    ``left`` is the fully invaded state behind the front, ``right`` the
    intact-tissue state ahead of it.
    """

    left: tuple[float, float, float]
    right: tuple[float, float, float]


def nondimensionalize(p: DimensionalParameters) -> ModelParameters:
    """Collapse the dimensional rates into the quadruple (d, r, D, c).

    d = delta1*rho3*kappa2 / (delta3*rho1), r = rho2/rho1, c = delta3/rho1,
    D = D2/D3max.
    """
    return ModelParameters(
        d=p.delta1 * p.rho3 * p.kappa2 / (p.delta3 * p.rho1),
        r=p.rho2 / p.rho1,
        D=p.D2 / p.D3max,
        c=p.delta3 / p.rho1,
    )


def reaction_u(u, w, d):
    """Healthy-tissue kinetics: logistic growth minus acid-induced death."""
    return u * (1.0 - u - d * w)


def reaction_v(v, r):
    """Tumour kinetics: logistic growth at relative rate r."""
    return r * v * (1.0 - v)


def reaction_w(v, w, c):
    """Acid kinetics: production by tumour and first-order deactivation."""
    return c * (v - w)


def asymptotic_states(d: float) -> AsymptoticStates:
    """Equilibrium triples connected by the invasion front for a given d.

    Ahead of the front the tissue is intact, (1, 0, 0).  Behind it the
    healthy residue is max(1-d, 0): zero for d >= 1 (homogeneous invasion,
    tissue fully destroyed) and 1-d for 0 < d < 1 (heterogeneous invasion).
    The two formulas coincide at d = 1; the d >= 1 branch is closed on the
    left when classifying regimes.
    """
    if not d > 0.0:
        raise ValueError(f"destructiveness d must be strictly positive, got {d!r}")
    residual = 0.0 if d >= 1.0 else 1.0 - d
    return AsymptoticStates(left=(residual, 1.0, 1.0), right=(1.0, 0.0, 0.0))


def fkpp_minimal_speed(r: float, D: float) -> float:
    """Minimal Fisher-KPP front speed 2*sqrt(r*D).

    The tumour equation reduces to Fisher-KPP where the healthy tissue has
    been cleared (u = 0), so this bounds the invasion speed from above as
    long as u <= 1.
    """
    if not r > 0.0:
        raise ValueError(f"growth ratio r must be strictly positive, got {r!r}")
    if not D > 0.0:
        raise ValueError(f"diffusivity ratio D must be strictly positive, got {D!r}")
    return 2.0 * math.sqrt(r * D)
