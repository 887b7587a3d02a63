"""Model parameters, reaction kinetics, and the Fisher-KPP speed bound.

The simulator works on the nondimensional three-species system coupling
healthy tissue u, tumour density v, and excess acid w:

    u_t = u (1 - u - d w)
    v_t = r v (1 - v) + D [(1 - u) v_x]_x
    w_t = c (v - w)   + [A(x) w_x]_x

This module owns the dimensionless parameter quadruple (d, r, D, c), the
pointwise reaction terms, and the minimal Fisher-KPP front speed; the
far-field states an invasion front connects live in ``analysis``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ParameterWarning


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


def reaction_u(u, w, d):
    """Healthy-tissue kinetics: logistic growth minus acid-induced death."""
    return u * (1.0 - u - d * w)


def reaction_v(v, r):
    """Tumour kinetics: logistic growth at relative rate r."""
    return r * v * (1.0 - v)


def reaction_w(v, w, c):
    """Acid kinetics: production by tumour and first-order deactivation."""
    return c * (v - w)


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
