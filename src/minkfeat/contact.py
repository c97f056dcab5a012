"""Order of contact between two feature curves at a common point.

The order m(a, b : p) is the vanishing order of the field b along a
regular local parametrization of {a = 0} at p: transversal crossings
have order 1, ordinary tangencies order 2.  The primary route solves
{a = 0} as a power series (implicit function theorem) and reads off the
first nonvanishing coefficient of b composed with it.  An independent
numeric estimate along a traced polyline is ``oracle.numeric_contact``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import series_along_graph
from .jets import ift_series
from .patch import FeatureField

__all__ = ["ContactResult", "SingularBaseCurve", "contact_order"]

#: composed-series coefficients below this (times the coefficient scale)
#: count as zero
SERIES_ZERO_RTOL = 1e-9


class SingularBaseCurve(ValueError):
    """The base curve has vanishing gradient at p; classify it instead."""


@dataclass(frozen=True)
class ContactResult:
    point: tuple
    kinds: tuple
    order: int           # contact order; == cap means ">= cap"
    capped: bool
    method: str          # always "jet-series"

    def __int__(self):
        return self.order


def contact_order(a: FeatureField, b: FeatureField, p=(0.0, 0.0), cap: int = 6,
                  tol: float = SERIES_ZERO_RTOL) -> ContactResult:
    """Vanishing order of b along the IFT parametrization of {a = 0}."""
    aj = a.jet.recenter(p[0], p[1])
    bj = b.jet.recenter(p[0], p[1])
    ascale = max(1.0, float(np.max(np.abs(aj.c))))
    bscale = max(1.0, float(np.max(np.abs(bj.c))))
    if abs(aj.coeff(0, 0)) > tol * ascale or abs(bj.coeff(0, 0)) > tol * bscale:
        raise ValueError("both fields must vanish at p")
    g = np.array([aj.coeff(1, 0), aj.coeff(0, 1)])
    if np.linalg.norm(g) <= tol * ascale:
        raise SingularBaseCurve(f"gradient of {a.kind} vanishes at {p}")
    solve_for = "x" if abs(g[0]) >= abs(g[1]) else "y"
    gser = ift_series(aj, solve_for, cap + 1)
    comp = series_along_graph(bj, gser, solve_for, cap)
    for k in range(1, cap + 1):
        if abs(comp[k]) > tol * bscale:
            return ContactResult(tuple(p), (a.kind, b.kind), k, False, "jet-series")
    return ContactResult(tuple(p), (a.kind, b.kind), cap, True, "jet-series")
