"""Parametric charts with derivative bundles.

A chart maps the two grid parameters to ambient coordinates: four
components either way (coordinates in R^4 for surfaces of the unit
3-sphere, or the tuple (t, w1, w2, w3) with w on the unit 2-sphere for
warped ambients).  The geometry engine consumes nodal arrays of the chart
and its parameter derivatives, packed as a dict keyed by multi-index
strings "0", "u", "v", "uu", "uv", "vv", "uuu", ...

Two implementations:

  * SymbolicChart: components are sympy expressions; derivatives through
    third order are generated symbolically and compiled once per distinct
    expression set, so curvature computations see machine-exact inputs.
    All catalog shapes use this path.  Images of these charts under
    conformal dilations are charts too (see `conformal`); they push the
    bundle through the dilation numerically.
  * NumericChart: a plain callable sampled on the grid; derivatives come
    from 4th-order stencils (one-sided in theta on sphere grids).  Third
    derivatives are not offered, so intrinsic curvature falls back to
    differentiating the metric field.
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
    "SymbolicChart",
    "NumericChart",
    "real_sph_harm",
    "unit_sphere_chart_exprs",
]

PARAM_U, PARAM_V = sp.symbols("u v", real=True)

_ORDER_KEYS = {
    0: ("0",),
    1: ("u", "v"),
    2: ("uu", "uv", "vv"),
    3: ("uuu", "uuv", "uvv", "vvv"),
}


def derivative_keys(max_order: int) -> tuple[str, ...]:
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
        for key in derivative_keys(SymbolicChart.max_order)
        for e in exprs
    ]
    return sp.lambdify((PARAM_U, PARAM_V), flat, modules="numpy", cse=True)


class SymbolicChart:
    """Chart whose four components are sympy expressions in (u, v)."""

    max_order = 3

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
        if max_order > self.max_order:
            raise DomainError(f"chart supports derivatives up to order {self.max_order}")
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


class NumericChart:
    """Chart given as a plain callable (u, v) -> 4 components.

    The callable may be vectorized over numpy arrays or scalar-only; both
    are handled.  Derivatives are grid-based 4th-order stencils.
    """

    max_order = 2

    def __init__(self, func):
        self.func = func

    def _values(self, grid: Grid) -> np.ndarray:
        uu, vv = grid.mesh()
        try:
            vals = np.asarray(self.func(uu, vv), dtype=float)
            if vals.shape == (4, grid.node_count):
                vals = vals.T
            vals = vals.reshape(grid.node_count, 4)
        except Exception:
            vals = np.array(
                [np.asarray(self.func(float(a), float(b)), dtype=float).ravel()
                 for a, b in zip(uu, vv)]
            )
            if vals.shape != (grid.node_count, 4):
                raise DomainError("chart callable must produce four components")
        return vals

    def evaluate(self, grid: Grid, max_order: int) -> dict[str, np.ndarray]:
        if max_order > self.max_order:
            raise DomainError(
                "numeric charts provide derivatives up to order 2; "
                "intrinsic curvature uses the metric-differencing fallback"
            )
        vals = self._values(grid)
        out = {"0": vals}
        for key in derivative_keys(max_order)[1:]:
            du_order = key.count("u")
            dv_order = key.count("v")
            cols = [
                grid.diff_field(vals[:, c], du_order, dv_order, accuracy=4)
                for c in range(4)
            ]
            out[key] = np.column_stack(cols)
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
