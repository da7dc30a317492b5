"""Parametric charts with derivative bundles.

A chart maps the two grid parameters to ambient coordinates: four
components either way (coordinates in R^4 for surfaces of the unit
3-sphere, or the tuple (t, w1, w2, w3) with w on the unit 2-sphere for
warped ambients).  The geometry engine consumes nodal arrays of the chart
and its parameter derivatives, packed as a dict keyed by multi-index
strings "0", "u", "v", "uu", "uv", "vv", "uuu", ...

Every chart offers derivatives through order 3 (MAX_ORDER).  A
SymbolicChart's components are sympy expressions; its derivatives are
generated symbolically and compiled once per distinct expression set, so
curvature computations see machine-exact inputs.  All catalog shapes use
it.  Images of these charts under conformal dilations are charts too (see
`conformal`); they push the bundle through the dilation numerically.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import sympy as sp

from .errors import DomainError
from .grids import Grid

__all__ = [
    "PARAM_U",
    "PARAM_V",
    "derivative_keys",
    "MAX_ORDER",
    "SymbolicChart",
    "real_sph_harm",
    "unit_sphere_chart_exprs",
]

PARAM_U, PARAM_V = sp.symbols("u v", real=True)
MAX_ORDER = 3

_ORDER_KEYS = {
    0: ("0",),
    1: ("u", "v"),
    2: ("uu", "uv", "vv"),
    3: ("uuu", "uuv", "uvv", "vvv"),
}


def derivative_keys(max_order: int) -> tuple[str, ...]:
    if not 0 <= max_order <= MAX_ORDER:
        raise DomainError(f"charts offer derivatives of order 0 to {MAX_ORDER}")
    keys: list[str] = []
    for m in range(max_order + 1):
        keys.extend(_ORDER_KEYS[m])
    return tuple(keys)


def _diff_by_key(expr, key: str):
    if key == "0":
        return expr
    return sp.diff(expr, *[PARAM_U if c == "u" else PARAM_V for c in key])


@lru_cache(maxsize=256)
def _compile_bundle(expr_reprs: tuple[str, ...]):
    """One vectorized function evaluating every derivative through order 3.

    Keyed by the expressions alone: a chart is differentiated and compiled
    once, whichever order is asked for first.
    """
    exprs = [sp.sympify(s) for s in expr_reprs]
    flat = [
        _diff_by_key(e, key)
        for key in derivative_keys(MAX_ORDER)
        for e in exprs
    ]
    return sp.lambdify((PARAM_U, PARAM_V), flat, modules="numpy", cse=True)


class SymbolicChart:
    """Chart whose four components are sympy expressions in (u, v)."""

    def __init__(self, exprs):
        exprs = [sp.sympify(e) for e in exprs]
        if len(exprs) != 4:
            raise DomainError("a chart has exactly four components")
        extra = set().union(*(e.free_symbols for e in exprs)) - {PARAM_U, PARAM_V}
        if extra:
            raise DomainError(f"chart expressions contain free symbols {extra}")
        self.exprs = tuple(exprs)
        self._key = tuple(sp.srepr(e) for e in self.exprs)

    def evaluate(self, grid: Grid, max_order: int) -> dict[str, np.ndarray]:
        fn = _compile_bundle(self._key)
        uu, vv = grid.mesh()
        raw = fn(uu, vv)
        n = grid.node_count
        out: dict[str, np.ndarray] = {}
        for k, key in enumerate(derivative_keys(max_order)):
            out[key] = np.column_stack([
                np.broadcast_to(np.asarray(raw[4 * k + c], dtype=float), (n,))
                for c in range(4)
            ])
        return out


def unit_sphere_chart_exprs(theta, phi):
    """Standard latitude-longitude embedding of the unit 2-sphere."""
    return (
        sp.sin(theta) * sp.cos(phi),
        sp.sin(theta) * sp.sin(phi),
        sp.cos(theta),
    )


def real_sph_harm(l: int, m: int, theta, phi):
    """Real orthonormal spherical harmonic on the unit 2-sphere, as sympy.

    Zonal for m = 0; cos(m phi) flavor for m > 0, sin(|m| phi) for m < 0.
    Normalized to unit L^2 norm over the sphere.
    """
    l = int(l)
    m = int(m)
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid harmonic indices l={l}, m={m}")
    am = abs(m)
    norm = sp.sqrt(
        sp.Rational(2 * l + 1, 4)
        / sp.pi
        * sp.Rational(math.factorial(l - am), math.factorial(l + am))
    )
    P = sp.assoc_legendre(l, am, sp.cos(theta))
    if m == 0:
        return norm * P
    angular = sp.cos(am * phi) if m > 0 else sp.sin(am * phi)
    return sp.sqrt(2) * norm * angular * P
