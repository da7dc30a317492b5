"""Discrete differential geometry of immersed surfaces.

A surface is a chart over a structured grid into one of two ambients: the
round unit 3-sphere sitting in R^4, or a warped product (interval) x S^2
with metric dt^2 + h(t)^2 ds^2.  From the chart's derivative bundle this
module produces nodal fields: induced metric, unit normal, second
fundamental form, mean curvature, squared norm of the shape operator,
intrinsic Gauss curvature, and the ambient Ricci curvature in the normal
direction.

Sign conventions.  The second fundamental form is
sigma(X, Y) = <D_X nu, Y>, so a slice {t} x S^2 with normal +d/dt has
principal curvatures h'/h.  On the 3-sphere the normal is oriented so
that (position, chart_u, chart_v, normal) is a positively oriented frame
of R^4.

Gauss curvature is computed intrinsically (Brioschi formula) from the
metric and its parameter derivatives, never from the shape operator, so
the Gauss-equation defect 2K - 2 - 4H^2 + |sigma|^2 is a genuine
consistency check between two independent curvature computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import warping as wp
from .errors import (
    DegenerateChartError,
    DomainError,
    MeshTooCoarseError,
    UnsupportedAmbientError,
)
from .grids import Grid, sphere_grid, torus_grid

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
class Sphere3:
    """Round unit 3-sphere ambient; Ric(v, v) = 2 on unit directions."""

    kind: str = "sphere3"


@dataclass(frozen=True)
class WarpedProduct:
    """Warped-product ambient I x S^n; surfaces here use n = 2."""

    warping: wp.WarpingFunction
    kind: str = "warped"

    def __post_init__(self):
        if self.warping.dim_n != 2:
            raise DomainError(
                "two-dimensional meshes require a warped ambient over S^2 "
                f"(got sphere factor dimension {self.warping.dim_n})"
            )


class ImmersedSurface:
    """A chart over a structured grid into a supported ambient."""

    def __init__(self, ambient, chart, grid: Grid, topology_hint: str | None = None,
                 name: str = "surface"):
        if not isinstance(ambient, (Sphere3, WarpedProduct)):
            raise UnsupportedAmbientError(f"unsupported ambient {ambient!r}")
        self.ambient = ambient
        self.chart = chart
        self.grid = grid
        self.topology_hint = topology_hint or grid.topology
        self.name = name
        self._bundle: dict[str, np.ndarray] | None = None

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    @property
    def is_sphere3(self) -> bool:
        return isinstance(self.ambient, Sphere3)

    def bundle(self, max_order: int) -> dict[str, np.ndarray]:
        """Chart derivative arrays through at least min(max_order, chart order).

        The chart is evaluated once, through the highest order it offers,
        and every later request is served from that cached bundle.
        """
        if self._bundle is None:
            self._bundle = self.chart.evaluate(self.grid, self.chart.max_order)
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
    gauss_curv:   (N,) intrinsic Gauss curvature, or None when the chart
                  cannot support it (no third derivatives on a sphere grid)
    ricci_normal: (N,) ambient Ric(normal, normal)
    cos_normal_t: (N,) <normal, d/dt> on warped ambients, else None
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
    cos_normal_t: np.ndarray | None


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.cross(a, b)


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


def _metric_derivs_numeric(grid: Grid, E, F, G):
    d = grid.diff_field
    return dict(
        E_u=d(E, 1, 0), E_v=d(E, 0, 1), G_u=d(G, 1, 0), G_v=d(G, 0, 1),
        F_u=d(F, 1, 0), F_v=d(F, 0, 1),
        E_vv=d(E, 0, 2), G_uu=d(G, 2, 0), F_uv=d(F, 1, 1),
    )


def _geometry_sphere3(s: ImmersedSurface, want_gauss: bool) -> GeometryFields:
    has_third = s.chart.max_order >= 3
    b = s.bundle(3)
    X, Xu, Xv = b["0"], b["u"], b["v"]
    Xuu, Xuv, Xvv = b["uu"], b["uv"], b["vv"]

    norms = np.linalg.norm(X, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > UNIT_NORM_TOL:
        raise DomainError("chart values must lie on the unit 3-sphere")

    E = np.einsum("ij,ij->i", Xu, Xu)
    F = np.einsum("ij,ij->i", Xu, Xv)
    G = np.einsum("ij,ij->i", Xv, Xv)
    det = E * G - F * F
    _check_not_degenerate(det)
    g = _sym2x2(E, F, G)
    ginv = _invert_metric(g, det)

    nu = _cross4(X, Xu, Xv)
    nu /= np.linalg.norm(nu, axis=1)[:, None]

    s_uu = -np.einsum("ij,ij->i", nu, Xuu)
    s_uv = -np.einsum("ij,ij->i", nu, Xuv)
    s_vv = -np.einsum("ij,ij->i", nu, Xvv)
    shape = _sym2x2(s_uu, s_uv, s_vv)

    shape_op = np.einsum("nab,nbc->nac", ginv, shape)
    mean_curv = 0.5 * np.einsum("naa->n", shape_op)
    sigma_sq = np.einsum("nab,nba->n", shape_op, shape_op)

    gauss = None
    if want_gauss:
        if has_third:
            Xuuu, Xuuv, Xuvv, Xvvv = b["uuu"], b["uuv"], b["uvv"], b["vvv"]
            dd = dict(
                E_u=2 * np.einsum("ij,ij->i", Xu, Xuu),
                E_v=2 * np.einsum("ij,ij->i", Xu, Xuv),
                G_u=2 * np.einsum("ij,ij->i", Xv, Xuv),
                G_v=2 * np.einsum("ij,ij->i", Xv, Xvv),
                F_u=np.einsum("ij,ij->i", Xuu, Xv) + np.einsum("ij,ij->i", Xu, Xuv),
                F_v=np.einsum("ij,ij->i", Xuv, Xv) + np.einsum("ij,ij->i", Xu, Xvv),
                E_vv=2 * (np.einsum("ij,ij->i", Xuv, Xuv) + np.einsum("ij,ij->i", Xu, Xuvv)),
                G_uu=2 * (np.einsum("ij,ij->i", Xuv, Xuv) + np.einsum("ij,ij->i", Xv, Xuuv)),
                F_uv=(
                    np.einsum("ij,ij->i", Xuuv, Xv)
                    + np.einsum("ij,ij->i", Xuu, Xvv)
                    + np.einsum("ij,ij->i", Xuv, Xuv)
                    + np.einsum("ij,ij->i", Xu, Xuvv)
                ),
            )
            gauss = _brioschi(E, F, G, **dd)
        elif s.grid.topology == "torus":
            gauss = _brioschi(E, F, G, **_metric_derivs_numeric(s.grid, E, F, G))
        # Sphere grids without third derivatives: differencing the metric
        # through the polar rows is unreliable, so gauss_curv stays None.

    return GeometryFields(
        metric=g,
        metric_inv=ginv,
        area_element=np.sqrt(det) * s.grid.cell_weight,
        normal=nu,
        shape=shape,
        mean_curv=mean_curv,
        sigma_sq=sigma_sq,
        gauss_curv=gauss,
        ricci_normal=np.full(s.node_count, 2.0),
        cos_normal_t=None,
    )


def _geometry_warped(s: ImmersedSurface, want_gauss: bool) -> GeometryFields:
    w = s.ambient.warping
    has_third = s.chart.max_order >= 3
    b = s.bundle(3)

    def split(key):
        return b[key][:, 0], b[key][:, 1:4]

    t, om = split("0")
    fu, om_u = split("u")
    fv, om_v = split("v")
    fuu, om_uu = split("uu")
    fuv, om_uv = split("uv")
    fvv, om_vv = split("vv")

    norms = np.linalg.norm(om, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > UNIT_NORM_TOL:
        raise DomainError("sphere part of a warped chart must have unit norm")
    w.require_inside(t)

    h = np.asarray(w.h(t), dtype=float)
    dh = np.asarray(w.dh(t), dtype=float)

    dot = lambda a, b_: np.einsum("ij,ij->i", a, b_)
    suu, suv, svv = dot(om_u, om_u), dot(om_u, om_v), dot(om_v, om_v)
    h2 = h * h
    E = fu * fu + h2 * suu
    F = fu * fv + h2 * suv
    G = fv * fv + h2 * svv
    det = E * G - F * F
    _check_not_degenerate(det)
    g = _sym2x2(E, F, G)
    ginv = _invert_metric(g, det)

    # Orthonormal frame (e1, e2) of the sphere factor at each node.
    lu = np.linalg.norm(om_u, axis=1)
    lv = np.linalg.norm(om_v, axis=1)
    scale = np.sqrt(np.maximum(np.mean(suu + svv), 1e-30))
    first, second = (om_u, om_v) if float(np.min(lu)) >= float(np.min(lv)) else (om_v, om_u)
    n1 = np.linalg.norm(first, axis=1)
    if float(np.min(n1)) <= 1e-14 * scale:
        raise DegenerateChartError(int(np.argmin(n1)), float(np.min(n1)), 1e-14 * scale)
    e1 = first / n1[:, None]
    res = second - dot(second, e1)[:, None] * e1
    n2 = np.linalg.norm(res, axis=1)
    if float(np.min(n2)) <= 1e-14 * scale:
        # Chart tangents are parallel on the sphere factor; fall back to a
        # completion of e1 inside the tangent plane om-perp.
        res = _cross3(om, e1)
        n2 = np.linalg.norm(res, axis=1)
    e2 = res / n2[:, None]

    # Tangents in the orthonormal ambient frame (d/dt, e1/h, e2/h).
    Tu = np.column_stack([fu, h * dot(om_u, e1), h * dot(om_u, e2)])
    Tv = np.column_stack([fv, h * dot(om_v, e1), h * dot(om_v, e2)])
    nu_frame = _cross3(Tu, Tv)
    nu_frame /= np.linalg.norm(nu_frame, axis=1)[:, None]
    flip = nu_frame[:, 0] < 0.0
    nu_frame[flip] *= -1.0

    nu_t = nu_frame[:, 0]
    nu_om = (nu_frame[:, 1, None] * e1 + nu_frame[:, 2, None] * e2) / h[:, None]

    # sigma_ab = -[nu_t (f_ab - h h' <om_a, om_b>) + h^2 <om_ab, nu_om>
    #             + h h' (f_a <om_b, nu_om> + f_b <om_a, nu_om>)]
    hdh = h * dh
    pu = dot(om_u, nu_om)
    pv = dot(om_v, nu_om)
    s_uu = -(nu_t * (fuu - hdh * suu) + h2 * dot(om_uu, nu_om) + hdh * (fu * pu + fu * pu))
    s_uv = -(nu_t * (fuv - hdh * suv) + h2 * dot(om_uv, nu_om) + hdh * (fu * pv + fv * pu))
    s_vv = -(nu_t * (fvv - hdh * svv) + h2 * dot(om_vv, nu_om) + hdh * (fv * pv + fv * pv))
    shape = _sym2x2(s_uu, s_uv, s_vv)

    shape_op = np.einsum("nab,nbc->nac", ginv, shape)
    mean_curv = 0.5 * np.einsum("naa->n", shape_op)
    sigma_sq = np.einsum("nab,nba->n", shape_op, shape_op)

    ricci_normal = np.asarray(wp.ricci_direction(w, t, np.clip(nu_t, -1.0, 1.0)))

    gauss = None
    if want_gauss:
        if has_third:
            fuuu, om_uuu = split("uuu")
            fuuv, om_uuv = split("uuv")
            fuvv, om_uvv = split("uvv")
            fvvv, om_vvv = split("vvv")
            d2h = np.asarray(w.d2h(t), dtype=float)
            # W = h(f)^2 and its parameter derivatives.
            Wc = 2.0 * (dh * dh + h * d2h)
            W_u = 2.0 * h * dh * fu
            W_v = 2.0 * h * dh * fv
            W_uu = Wc * fu * fu + 2.0 * h * dh * fuu
            W_uv = Wc * fu * fv + 2.0 * h * dh * fuv
            W_vv = Wc * fv * fv + 2.0 * h * dh * fvv
            suu_u = 2 * dot(om_uu, om_u)
            suu_v = 2 * dot(om_uv, om_u)
            svv_u = 2 * dot(om_uv, om_v)
            svv_v = 2 * dot(om_vv, om_v)
            suv_u = dot(om_uu, om_v) + dot(om_u, om_uv)
            suv_v = dot(om_uv, om_v) + dot(om_u, om_vv)
            suu_vv = 2 * (dot(om_uvv, om_u) + dot(om_uv, om_uv))
            svv_uu = 2 * (dot(om_uuv, om_v) + dot(om_uv, om_uv))
            suv_uv = dot(om_uuv, om_v) + dot(om_uu, om_vv) + dot(om_uv, om_uv) + dot(om_u, om_uvv)
            dd = dict(
                E_u=2 * fu * fuu + W_u * suu + h2 * suu_u,
                E_v=2 * fu * fuv + W_v * suu + h2 * suu_v,
                G_u=2 * fv * fuv + W_u * svv + h2 * svv_u,
                G_v=2 * fv * fvv + W_v * svv + h2 * svv_v,
                F_u=fuu * fv + fu * fuv + W_u * suv + h2 * suv_u,
                F_v=fuv * fv + fu * fvv + W_v * suv + h2 * suv_v,
                E_vv=2 * fuv * fuv + 2 * fu * fuvv + W_vv * suu + 2 * W_v * suu_v + h2 * suu_vv,
                G_uu=2 * fuv * fuv + 2 * fv * fuuv + W_uu * svv + 2 * W_u * svv_u + h2 * svv_uu,
                F_uv=(
                    fuuv * fv + fuu * fvv + fuv * fuv + fu * fuvv
                    + W_uv * suv + W_u * suv_v + W_v * suv_u + h2 * suv_uv
                ),
            )
            gauss = _brioschi(E, F, G, **dd)
        elif s.grid.topology == "torus":
            gauss = _brioschi(E, F, G, **_metric_derivs_numeric(s.grid, E, F, G))
        # Sphere grids without third derivatives: differencing the metric
        # through the polar rows is unreliable, so gauss_curv stays None.

    return GeometryFields(
        metric=g,
        metric_inv=ginv,
        area_element=np.sqrt(det) * s.grid.cell_weight,
        normal=np.column_stack([nu_t, nu_om]),
        shape=shape,
        mean_curv=mean_curv,
        sigma_sq=sigma_sq,
        gauss_curv=gauss,
        ricci_normal=ricci_normal,
        cos_normal_t=nu_t,
    )


def compute_geometry(s: ImmersedSurface, want_gauss: bool = True) -> GeometryFields:
    """All nodal geometric fields of the surface."""
    if s.is_sphere3:
        return _geometry_sphere3(s, want_gauss)
    return _geometry_warped(s, want_gauss)


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
