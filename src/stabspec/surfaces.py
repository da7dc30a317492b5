"""Discrete differential geometry of immersed surfaces.

A surface is a chart over a structured grid into one of two ambients: the
round unit 3-sphere sitting in R^4, or a warped product (interval) x S^2
with metric dt^2 + h(t)^2 ds^2.  From the chart's derivative bundle this
module produces nodal fields: induced metric, unit normal, second
fundamental form, mean curvature, squared norm of the shape operator,
intrinsic Gauss curvature, and the ambient Ricci curvature in the normal
direction.

One body serves both ambients.  Chart values are points of R^4 (the
position on the 3-sphere, or (t, w) with w on the unit 2-sphere), and
both ambient metrics are diagonal there, W = diag(1, H, H, H) with H = 1
on the 3-sphere and H = h(t)^2 on the warped product.  An ambient
supplies only H and its parameter derivatives, the radial direction the
normal must also be orthogonal to (the position X, or (0, w)), the
Christoffel contraction Gamma(X_a, X_b) (zero on the 3-sphere) and
Ric(nu, nu); metric, normal, second fundamental form and curvatures are
computed the same way for both.

Sign conventions.  The second fundamental form is
sigma(X, Y) = <D_X nu, Y>, so a slice {t} x S^2 with normal +d/dt has
principal curvatures h'/h.  On the 3-sphere the normal is oriented so
that (position, chart_u, chart_v, normal) is a positively oriented frame
of R^4; on warped ambients it has a non-negative d/dt component.

Gauss curvature is computed intrinsically (Brioschi formula) from the
metric and its parameter derivatives, never from the shape operator, so
the Gauss-equation defect 2K - 2 - 4H^2 + |sigma|^2 is a genuine
consistency check between two independent curvature computations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import warping as wp
from .errors import (
    DegenerateChartError,
    DomainError,
    MeshTooCoarseError,
    UnsupportedAmbientError,
)
from .grids import Grid

__all__ = [
    "Sphere3",
    "WarpedProduct",
    "ImmersedSurface",
    "GeometryFields",
    "compute_geometry",
    "gauss_equation_residual",
    "area",
    "total_curvature",
    "euler_characteristic",
]

UNIT_NORM_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-10


@dataclass(frozen=True)
class AmbientTerms:
    """What the geometry body needs to know of the ambient at the nodes.

    sphere_weight: the ambient metric in chart coordinates is
                  W = diag(1, H, H, H); H under key "0" (scalar or (N,))
                  and its nonzero parameter derivatives through order 2
                  under their bundle keys ("u", "uv", ...)
    radial:       (N, 4) direction the normal is also orthogonal to
    christoffel:  (X_a, X_b) -> Gamma(X_a, X_b), or None where it vanishes
    ricci:        unit normal (N, 4) -> Ric(nu, nu), (N,)
    """

    sphere_weight: dict[str, np.ndarray | float]
    radial: np.ndarray
    christoffel: Callable | None
    ricci: Callable


def _require_unit(x: np.ndarray, message: str) -> None:
    if float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0))) > UNIT_NORM_TOL:
        raise DomainError(message)


@dataclass(frozen=True)
class Sphere3:
    """Round unit 3-sphere ambient; Ric(v, v) = 2 on unit directions."""

    def terms(self, b: dict[str, np.ndarray]) -> AmbientTerms:
        x = b["0"]
        _require_unit(x, "chart values must lie on the unit 3-sphere")
        return AmbientTerms({"0": 1.0}, x, None, lambda nu: np.full(len(nu), 2.0))


@dataclass(frozen=True)
class WarpedProduct:
    """Warped-product ambient I x S^2."""

    warping: wp.WarpingFunction

    def terms(self, b: dict[str, np.ndarray]) -> AmbientTerms:
        w = self.warping
        t, om = b["0"][:, 0], b["0"][:, 1:]
        _require_unit(om, "sphere part of a warped chart must have unit norm")
        w.require_inside(t)
        h, dh, d2h = (np.asarray(fn(t), dtype=float) for fn in (w.h, w.dh, w.d2h))

        # H = h(t)^2, its first two t-derivatives chained through t(u, v)
        w1, w2 = 2.0 * h * dh, 2.0 * (dh * dh + h * d2h)
        f = {key: b[key][:, 0] for key in ("u", "v", "uu", "uv", "vv")}
        weight = {"0": h * h, "u": w1 * f["u"], "v": w1 * f["v"]}
        weight.update({key: w2 * f[key[0]] * f[key[1]] + w1 * f[key]
                       for key in ("uu", "uv", "vv")})

        def christoffel(xa, xb):
            # Gamma^t = -h h' <w_a, w_b>,  Gamma^w = (h'/h) (t_a w_b + t_b w_a)
            gt = -h * dh * np.einsum("ij,ij->i", xa[:, 1:], xb[:, 1:])
            gw = (dh / h)[:, None] * (xa[:, :1] * xb[:, 1:] + xb[:, :1] * xa[:, 1:])
            return np.column_stack([gt, gw])

        def ricci(nu):
            return np.asarray(wp.ricci_direction(w, t, nu[:, 0]))

        return AmbientTerms(weight, np.column_stack([np.zeros_like(t), om]),
                            christoffel, ricci)


class ImmersedSurface:
    """A chart over a structured grid into a supported ambient."""

    def __init__(self, ambient, chart, grid: Grid):
        if not isinstance(ambient, (Sphere3, WarpedProduct)):
            raise UnsupportedAmbientError(f"unsupported ambient {ambient!r}")
        self.ambient = ambient
        self.chart = chart
        self.grid = grid
        self._bundle: dict[str, np.ndarray] | None = None

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    @property
    def is_sphere3(self) -> bool:
        return isinstance(self.ambient, Sphere3)

    def bundle(self) -> dict[str, np.ndarray]:
        """Chart derivative arrays through order 3, keyed by `charts.BUNDLE_KEYS`.

        The chart is evaluated once, and every later request is served
        from that cached bundle.
        """
        if self._bundle is None:
            self._bundle = self.chart.evaluate(self.grid)
        return self._bundle


@dataclass
class GeometryFields:
    """Nodal geometric data of an immersed surface.

    metric:       (N, 2, 2) induced first fundamental form
    metric_inv:   (N, 2, 2)
    area_element: (N,) sqrt(det metric) * du * dv  (nodal quadrature weight)
    normal:       (N, 4) unit normal; ambient coordinates for the 3-sphere,
                  (t-component, R^3 sphere-part) for warped ambients
    shape:        (N, 2, 2) second fundamental form sigma_ab
    mean_curv:    (N,) average of principal curvatures
    sigma_sq:     (N,) squared norm of the second fundamental form
    gauss_curv:   (N,) intrinsic Gauss curvature, or None when it was not
                  asked for (want_gauss=False)
    ricci_normal: (N,) ambient Ric(normal, normal)
    """

    metric: np.ndarray
    metric_inv: np.ndarray
    area_element: np.ndarray
    normal: np.ndarray
    shape: np.ndarray
    mean_curv: np.ndarray
    sigma_sq: np.ndarray
    gauss_curv: np.ndarray | None
    ricci_normal: np.ndarray


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector d with <d, w> = det[a; b; c; w] for all w in R^4.

    det[a, b, c, d] = |d|^2 >= 0, which fixes the orientation convention.
    """

    def minor(cols):
        i, j, k = cols
        return (
            a[:, i] * (b[:, j] * c[:, k] - b[:, k] * c[:, j])
            - a[:, j] * (b[:, i] * c[:, k] - b[:, k] * c[:, i])
            + a[:, k] * (b[:, i] * c[:, j] - b[:, j] * c[:, i])
        )

    d = np.empty_like(a)
    d[:, 0] = -minor((1, 2, 3))
    d[:, 1] = minor((0, 2, 3))
    d[:, 2] = -minor((0, 1, 3))
    d[:, 3] = minor((0, 1, 2))
    return d


def _sym2x2(a11, a12, a22) -> np.ndarray:
    out = np.empty((a11.size, 2, 2))
    out[:, 0, 0] = a11
    out[:, 0, 1] = a12
    out[:, 1, 0] = a12
    out[:, 1, 1] = a22
    return out


def _invert_metric(g: np.ndarray, det: np.ndarray) -> np.ndarray:
    inv = np.empty_like(g)
    inv[:, 0, 0] = g[:, 1, 1] / det
    inv[:, 1, 1] = g[:, 0, 0] / det
    inv[:, 0, 1] = -g[:, 0, 1] / det
    inv[:, 1, 0] = -g[:, 1, 0] / det
    return inv


def _check_not_degenerate(det: np.ndarray):
    threshold = DEGENERACY_REL_TOL * float(np.mean(det))
    bad = np.where(~(det > threshold))[0]
    if bad.size:
        i = int(bad[np.argmin(det[bad])])
        raise DegenerateChartError(i, float(det[i]), threshold)


def _brioschi(E, F, G, E_u, E_v, G_u, G_v, F_u, F_v, E_vv, G_uu, F_uv):
    """Intrinsic Gauss curvature from the metric and its derivatives."""
    det = E * G - F * F
    m_a = np.array(
        [
            [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
            [F_v - 0.5 * G_u, E, F],
            [0.5 * G_v, F, G],
        ]
    )
    m_b = np.array(
        [
            [np.zeros_like(E), 0.5 * E_v, 0.5 * G_u],
            [0.5 * E_v, E, F],
            [0.5 * G_u, F, G],
        ]
    )

    def det3(m):
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )

    return (det3(m_a) - det3(m_b)) / det**2


def _bundle_key(letters: str) -> str:
    """Bundle key of a parameter derivative given as letters in any order."""
    return "".join(sorted(letters)) or "0"


# Brioschi's metric derivatives: name -> (metric entry, derivative), where
# E, F, G are the entries uu, uv, vv of the first fundamental form.
_METRIC_DERIVATIVES = {
    "E_u": ("uu", "u"), "E_v": ("uu", "v"), "E_vv": ("uu", "vv"),
    "F_u": ("uv", "u"), "F_v": ("uv", "v"), "F_uv": ("uv", "uv"),
    "G_u": ("vv", "u"), "G_v": ("vv", "v"), "G_uu": ("vv", "uu"),
}


def _metric_derivative(wdot, entry: str, by: str) -> np.ndarray:
    """Parameter derivative `by` of g_ab = <X_a, X_b>_W, entry = "ab".

    Leibniz rule over the three factors W, X_a, X_b: each way of handing
    the letters of `by` to the factors gives the term
    wdot(W key, X_a key, X_b key), whose last two keys are symmetric and
    passed in sorted order.
    """
    total = 0.0
    for owners in itertools.product(range(3), repeat=len(by)):
        parts = ["", entry[0], entry[1]]
        for letter, owner in zip(by, owners):
            parts[owner] += letter
        wkey, *xykeys = map(_bundle_key, parts)
        total = total + wdot(wkey, *sorted(xykeys))
    return total


def compute_geometry(s: ImmersedSurface, want_gauss: bool = True) -> GeometryFields:
    """All nodal geometric fields of the surface."""
    b = s.bundle()
    amb = s.ambient.terms(b)
    H = np.reshape(amb.sphere_weight["0"], (-1, 1))
    W = np.hstack([np.ones_like(H), H, H, H])  # (N, 4), or (1, 4) where H is constant

    @functools.cache
    def wdot(wkey, xkey, ykey):
        """sum_i (d_wkey W)_i (X_xkey)_i (X_ykey)_i, 0 where d_wkey W vanishes."""
        x, y = b[xkey], b[ykey]
        if wkey == "0":
            return np.einsum("ij,ij->i", W * x, y)
        dw = amb.sphere_weight.get(wkey)
        return 0.0 if dw is None else dw * np.einsum("ij,ij->i", x[:, 1:], y[:, 1:])

    E, F, G = wdot("0", "u", "u"), wdot("0", "u", "v"), wdot("0", "v", "v")
    det = E * G - F * F
    _check_not_degenerate(det)
    g = _sym2x2(E, F, G)
    ginv = _invert_metric(g, det)

    # W nu is Euclidean-orthogonal to radial, X_u and X_v; unit in the W-norm.
    nu = _cross4(amb.radial, b["u"], b["v"]) / W
    nu /= np.linalg.norm(nu * np.sqrt(W), axis=1)[:, None]
    if not s.is_sphere3:
        nu[nu[:, 0] < 0.0] *= -1.0

    w_nu = W * nu

    def second(key):  # sigma_ab = -<nu, X_ab + Gamma(X_a, X_b)>_W
        xab = b[key]
        if amb.christoffel is not None:
            xab = xab + amb.christoffel(b[key[0]], b[key[1]])
        return -np.einsum("ij,ij->i", w_nu, xab)

    shape = _sym2x2(second("uu"), second("uv"), second("vv"))
    shape_op = np.einsum("nab,nbc->nac", ginv, shape)
    mean_curv = 0.5 * np.einsum("naa->n", shape_op)
    sigma_sq = np.einsum("nab,nba->n", shape_op, shape_op)

    gauss = None
    if want_gauss:
        gauss = _brioschi(E, F, G, **{
            name: _metric_derivative(wdot, entry, by)
            for name, (entry, by) in _METRIC_DERIVATIVES.items()
        })

    return GeometryFields(
        metric=g,
        metric_inv=ginv,
        area_element=np.sqrt(det) * s.grid.cell_weight,
        normal=nu,
        shape=shape,
        mean_curv=mean_curv,
        sigma_sq=sigma_sq,
        gauss_curv=gauss,
        ricci_normal=amb.ricci(nu),
    )


def gauss_equation_residual(s: ImmersedSurface, f: GeometryFields) -> float:
    """max over nodes of |2K - 2 - 4H^2 + |sigma|^2| on the 3-sphere.

    Zero in exact arithmetic; measures the gap between the intrinsic and
    the extrinsic curvature computations.
    """
    if not s.is_sphere3:
        raise UnsupportedAmbientError("the Gauss-equation defect is a 3-sphere check")
    if f.gauss_curv is None:
        raise DomainError("surface has no intrinsic curvature field")
    res = 2.0 * f.gauss_curv - 2.0 - 4.0 * f.mean_curv**2 + f.sigma_sq
    return float(np.max(np.abs(res)))


def area(s: ImmersedSurface, f: GeometryFields) -> float:
    return float(np.sum(f.area_element))


def total_curvature(s: ImmersedSurface, f: GeometryFields) -> float:
    """Integral of the Gauss curvature (equals 2 pi Euler characteristic)."""
    if f.gauss_curv is None:
        raise DomainError("surface has no intrinsic curvature field")
    return float(np.sum(f.gauss_curv * f.area_element))


def euler_characteristic(s: ImmersedSurface, f: GeometryFields) -> int:
    x = total_curvature(s, f) / (2.0 * np.pi)
    chi = round(x)
    if abs(x - chi) > 0.1:
        raise MeshTooCoarseError(
            f"total curvature / 2pi = {x:.6f} is not close to an integer; refine the mesh"
        )
    return int(chi)
