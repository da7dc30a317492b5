"""Discrete differential geometry of immersed surfaces.

A surface is a chart over a structured grid into one of two ambients: the
round unit 3-sphere sitting in R^4, or a warped product (interval) x S^2
with metric dt^2 + h(t)^2 ds^2.  From the chart's derivative bundle this
module produces the nodal fields that assembly and the checks read: the
inverse induced metric, the area element, the mean curvature, the squared
norm of the shape operator, Ric(nu, nu), the ambient's Ricci data, and on
request the Gauss curvature, and on a warped ambient the t range of the
chart values.  The induced metric, the unit normal, the second fundamental
form and the chart's bundle itself are intermediates and are not kept: a
surface evaluates its chart when asked and caches nothing, so
`compute_geometry` evaluates it once per call and no bundle stays alive
through assembly and the solve.

One body serves both ambients.  Chart values are points of R^4 (the
position on the 3-sphere, or (t, w) with w on the unit 2-sphere), and
both ambient metrics are diagonal there, W = diag(1, H, H, H) with H = 1
on the 3-sphere and H = h(t)^2 on the warped product.  A surface's
ambient is its warping h, or None for the 3-sphere, and with the chart
values it fixes all the body reads of the ambient: H, the radial
direction the normal must also be orthogonal to (the position X, or
(0, w)), h h' (0 on the 3-sphere) and the Ricci data
(Ric_tt, Ric_tan, R), (2, 2, 6) on the 3-sphere.
Metric, normal, second fundamental form, Ric(nu, nu) and curvatures are
computed the same way for both, from the chart's derivatives through
order 2.  With X_a = (t_a, w_a) and Euclidean dots of the sphere parts,
sigma_ab = -<nu, X_ab>_W - h h' (t_a <nu, w_b> + t_b <nu, w_a> - nu_t <w_a, w_b>).

Sign conventions.  The second fundamental form is
sigma(X, Y) = <D_X nu, Y>, so a slice {t} x S^2 with normal +d/dt has
principal curvatures h'/h.  On the 3-sphere the normal is oriented so
that (position, chart_u, chart_v, normal) is a positively oriented frame
of R^4; on warped ambients it has a non-negative d/dt component.

A surface may declare grid maps it is invariant under
(`ImmersedSurface.maps`, see `grids.NodeMap`): each field at a node's
image must then equal its value at the node, and g^uv that value times the
map's `cross_sign`, which checks the declaration.  A surface of revolution
about v is evaluated on its meridian at v = 0 and the next v column (the
nu x 2 grid `ImmersedSurface.chart_grid`), and the one body runs over
those nodes.  Its mark is checked as the one map of that grid, the turn by
one node along v (the half-turn of two columns); the meridian's fields are
then repeated nv times along v, so the later stages read N-node fields
either way, exactly constant along v.

Gauss curvature comes from the Gauss equation of a surface in a
3-dimensional ambient, K = R/2 - Ric(nu, nu) + k1 k2, with
k1 k2 = 2 H^2 - |sigma|^2 / 2 (H the mean of the principal curvatures):
on the 3-sphere, K = 1 + k1 k2.  No metric derivative is needed, so the
charts stop at second derivatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import warping as wp
from .errors import (
    DegenerateChartError,
    DomainError,
    MeshTooCoarseError,
    UnsupportedAmbientError,
)
from .grids import Grid, NodeMap

__all__ = [
    "ImmersedSurface",
    "GeometryFields",
    "compute_geometry",
    "total_curvature",
    "euler_characteristic",
]

UNIT_NORM_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-10
# A surface's fields and their image under a map it declares, the turn of
# a surface of revolution's two chart columns among them, may differ by
# this much, relative to max(1, |field|).  Marked catalog shapes differ
# by at most 4e-14 at 8 to 1024 nodes per direction, and the catalog's
# Y_l,m graphs from their images by at most 1.1e-13 at 8 to 512; a 24^2
# perturbed torus (r 0.7, eps 0.05) marked by mistake misses its turn by 0.57.
SYMMETRY_TOL = 1e-10


def _require_unit(x: np.ndarray, message: str) -> None:
    if float(np.max(np.abs(np.linalg.norm(x, axis=0) - 1.0))) > UNIT_NORM_TOL:
        raise DomainError(message)


def _sphere_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean dot of the sphere parts (components 1-3) of (4, N) rows."""
    return np.einsum("ij,ij->j", x[1:], y[1:])


def _ambient(w: wp.WarpingFunction | None, x0: np.ndarray):
    """(H, radial, h h', Ricci data) of the ambient at the chart values x0,
    (4, N): H weights W = diag(1, H, H, H), radial is the direction the
    normal is also orthogonal to, and h h' weights the Christoffel term; it
    is 0 on the 3-sphere, where that term vanishes.  A warped profile is
    evaluated once, and (h, h', h'') feed the Christoffel term, Ric(nu, nu)
    and the bounds alike.
    """
    if w is None:
        _require_unit(x0, "chart values must lie on the unit 3-sphere")
        return 1.0, x0, 0.0, wp.AmbientCurvature(2.0, 2.0, 6.0)
    _require_unit(x0[1:], "sphere part of a warped chart must have unit norm")
    h, dh, d2h = wp._hs(w, x0[0])
    return (h * h, np.vstack([np.zeros_like(x0[0]), x0[1:]]), h * dh,
            wp._curvature(h, dh, d2h))


class ImmersedSurface:
    """A chart over a structured grid into the unit 3-sphere (`warping`
    None) or into the warped product I x S^2 with profile `warping`.

    A surface of revolution about v (`revolution=True`) has every node
    (i, j) the image of its meridian node (i, 0) under an ambient isometry,
    so its chart is evaluated on the meridian and one further column:
    `chart_grid` is then the nu x 2 grid of the first two v columns, and
    `grid` otherwise.  `compute_geometry` checks the mark as the turn of
    those two columns, and `assemble` reads it to mark the pencil invariant
    along v.  `maps` are commuting involutions of the grid
    (`grids.NodeMap`) that the surface is invariant under;
    `compute_geometry` checks them, and `assemble` hands them to the pencil.
    A surface declares one or the other: the two chart columns of a marked
    surface can check no map but their turn.
    """

    def __init__(self, chart, grid: Grid, warping: wp.WarpingFunction | None = None,
                 revolution: bool = False, maps: tuple[NodeMap, ...] = ()):
        if warping is not None and not isinstance(warping, wp.WarpingFunction):
            raise UnsupportedAmbientError(f"unsupported ambient warping {warping!r}")
        if revolution and maps:
            raise DomainError("a surface of revolution declares no grid maps: its two "
                              f"chart columns cannot check {', '.join(map(str, maps))}")
        self.warping = warping
        self.chart = chart
        self.grid = grid
        self.revolution = revolution
        self.maps = maps
        self.chart_grid = replace(grid, nv=2, v=grid.v[:2]) if revolution else grid

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    @property
    def is_sphere3(self) -> bool:
        return self.warping is None

    def bundle(self) -> dict[str, np.ndarray]:
        """Chart derivative arrays through order 2 at the nodes of
        `chart_grid`, keyed by `charts.BUNDLE_KEYS`, evaluated on every
        call: nothing is cached, so no bundle outlives its one reader on a
        rung, `compute_geometry`, which hands on the t range the convexity
        hypothesis reads."""
        return self.chart.evaluate(self.chart_grid)

    def points(self) -> np.ndarray:
        """(N, 4) chart values at every node of `grid`, as a C-contiguous
        copy of the values alone, not a view keeping the full-grid bundle
        alive.  Only balancing reads them, once per balance."""
        return self.chart.evaluate(self.grid)["0"].copy()


@dataclass
class GeometryFields:
    """Nodal geometric data of an immersed surface, as the later stages read it.

    metric_inv:   (3, N) inverse induced metric by rows g^uu, g^uv, g^vv
    area_element: (N,) sqrt(det metric) * du * dv  (nodal quadrature weight)
    mean_curv:    (N,) average of principal curvatures
    sigma_sq:     (N,) squared norm of the second fundamental form
    gauss_curv:   (N,) Gauss curvature from the Gauss equation, or None when
                  it was not asked for (want_gauss=False)
    ricci_normal: (N,) ambient Ric(normal, normal)
    ambient_curvature: Ricci data (Ric_tt, Ric_tan, R) of the ambient, the
                  one ambient fact every bound reads; (2, 2, 6) on the 3-sphere
    t_range:      (min, max) of the chart's t at the nodes of `chart_grid` on
                  a warped ambient, the range the convexity hypothesis scans;
                  None on the 3-sphere
    """

    metric_inv: np.ndarray
    area_element: np.ndarray
    mean_curv: np.ndarray
    sigma_sq: np.ndarray
    gauss_curv: np.ndarray | None
    ricci_normal: np.ndarray
    ambient_curvature: wp.AmbientCurvature
    t_range: tuple[float, float] | None


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector d with <d, w> = det[a; b; c; w] for all w in R^4, on (4, N) rows.

    det[a, b, c, d] = |d|^2 >= 0, which fixes the orientation convention.
    The four cofactors share the six 2x2 minors of (b, c).
    """
    m = {(j, k): b[j] * c[k] - b[k] * c[j] for j, k in itertools.combinations(range(4), 2)}
    d = np.empty_like(a)
    d[0] = a[2] * m[1, 3] - a[1] * m[2, 3] - a[3] * m[1, 2]
    d[1] = a[0] * m[2, 3] - a[2] * m[0, 3] + a[3] * m[0, 2]
    d[2] = a[1] * m[0, 3] - a[0] * m[1, 3] - a[3] * m[0, 1]
    d[3] = a[0] * m[1, 2] - a[1] * m[0, 2] + a[2] * m[0, 1]
    return d


def _check_not_degenerate(det: np.ndarray, nv: int, cols: int):
    """Refuse a numerically singular metric; chart-grid node c, on `cols`
    v columns, is grid node (c // cols) * nv + c % cols."""
    threshold = DEGENERACY_REL_TOL * float(np.mean(det))
    bad = np.where(~(det > threshold))[0]
    if bad.size:
        i = int(bad[np.argmin(det[bad])])
        raise DegenerateChartError((i // cols) * nv + i % cols, float(det[i]), threshold)


def _rows(f: GeometryFields) -> list:
    """The per-node data of f in one list: the rows g^uu, g^uv, g^vv, the
    scalar fields and the ambient's Ricci data, each an (N,) array, or a
    float or None where it does not vary or was not asked for."""
    c = f.ambient_curvature
    return [*f.metric_inv, f.area_element, f.mean_curv, f.sigma_sq, f.gauss_curv,
            f.ricci_normal, c.ricci_tt, c.ricci_tangential, c.scalar]


def _check_maps(f: GeometryFields, grid: Grid, maps: tuple[NodeMap, ...]):
    """Refuse a declared map whose image of the fields is not the fields.
    Row by row, each row in cache: 6 ms at 256^2, against 24 ms on one
    block of all the rows (one BLAS thread, 2 vCPU)."""
    images = [m.image(grid) for m in maps]
    gaps = [0.0] * len(maps)
    for r, row in enumerate(a for a in _rows(f) if isinstance(a, np.ndarray)):
        scale = np.maximum(1.0, np.abs(row))
        for i, m in enumerate(maps):
            miss = row[images[i]]
            if r == 1:  # g^uv
                miss *= m.cross_sign
            miss -= row
            np.abs(miss, out=miss)
            miss /= scale
            gaps[i] = max(gaps[i], float(np.max(miss)))
    for m, gap in zip(maps, gaps):
        if gap > SYMMETRY_TOL:
            raise DomainError(f"chart declared invariant under {m}, which is not one of its "
                              f"symmetries: its fields and their image differ by {gap:.3e} "
                              f"(tolerance {SYMMETRY_TOL:g})")


def _along_v(f: GeometryFields, nv: int) -> GeometryFields:
    """The N-node fields of a surface of revolution: those of its meridian,
    the first of its two chart columns, repeated nv times along v (meridian
    node i becomes grid nodes i * nv to i * nv + nv - 1).  The per-node
    arrays, the ambient's Ricci data among them, become rows of one block:
    five 64/128/256 symmetric CLI ladders took 67 ms in one process that
    way and 81 ms with one np.repeat per field, though the copies alone
    cost the same (0.26 and 0.27 ms at 256^2, warm)."""
    values = _rows(f)
    live = [i for i, a in enumerate(values) if isinstance(a, np.ndarray)]
    meridian = np.array([values[i][::2] for i in live])  # chart node 2 i is meridian node i
    block = np.repeat(meridian, nv, axis=1)
    for i, row in zip(live, block):
        values[i] = row
    return GeometryFields(block[:3], *values[3:8], wp.AmbientCurvature(*values[8:]),
                          f.t_range)


def compute_geometry(s: ImmersedSurface, want_gauss: bool = True) -> GeometryFields:
    """The nodal fields of the surface that assembly and the checks read.

    The body works on the component rows x[key] = bundle[key].T, (4, n)
    views of the chart's component-major storage at the n nodes of
    `s.chart_grid`.  The fields are checked against their image under
    each declared map, which on a surface of revolution is the turn of its
    two chart columns; its meridian's fields are then repeated nv times
    along v, so every stage after this one reads N-node fields either way.
    The unit and degeneracy checks lose nothing, since every other node is
    an isometry image of a meridian node.
    """
    x = {key: arr.T for key, arr in s.bundle().items()}
    H, radial, hdh, curvature = _ambient(s.warping, x["0"])

    def wdot(p, q):  # <p, q>_W = p0 q0 + H (p1 q1 + p2 q2 + p3 q3)
        return p[0] * q[0] + H * _sphere_dot(p, q)

    E, F, G = wdot(x["u"], x["u"]), wdot(x["u"], x["v"]), wdot(x["v"], x["v"])
    det = E * G - F * F
    _check_not_degenerate(det, s.grid.nv, s.chart_grid.nv)
    metric_inv = np.stack([G / det, -F / det, E / det])
    inv_uu, inv_uv, inv_vv = metric_inv

    # W nu is Euclidean-orthogonal to radial, X_u and X_v; unit in the W-norm.
    nu = _cross4(radial, x["u"], x["v"])
    nu[1:] /= H
    nu /= np.sqrt(wdot(nu, nu))
    if not s.is_sphere3:
        nu *= np.where(nu[0] < 0.0, -1.0, 1.0)
    # before sigma, while fewer (N,) arrays are live: its temporaries set no peak
    ricci = wp.ricci_direction(curvature, nu[0])

    nw = {key: _sphere_dot(nu, x[key]) for key in "uv"}  # <nu, w_a>

    def second(key):  # sigma_ab, see the module docstring
        a, b = key
        christoffel = x[a][0] * nw[b] + x[b][0] * nw[a] - nu[0] * _sphere_dot(x[a], x[b])
        return -wdot(nu, x[key]) - hdh * christoffel

    s_uu, s_uv, s_vv = second("uu"), second("uv"), second("vv")
    # shape operator g^-1 sigma, entry by entry
    a11, a12 = inv_uu * s_uu + inv_uv * s_uv, inv_uu * s_uv + inv_uv * s_vv
    a21, a22 = inv_uv * s_uu + inv_vv * s_uv, inv_uv * s_uv + inv_vv * s_vv
    mean = 0.5 * (a11 + a22)
    sigma_sq = a11 * a11 + 2.0 * a12 * a21 + a22 * a22

    gauss = None
    if want_gauss:  # Gauss equation: K = R/2 - Ric(nu, nu) + k1 k2
        gauss = 0.5 * curvature.scalar - ricci + (2.0 * mean * mean - 0.5 * sigma_sq)

    fields = GeometryFields(
        metric_inv=metric_inv,
        area_element=np.sqrt(det) * s.grid.cell_weight,
        mean_curv=mean,
        sigma_sq=sigma_sq,
        gauss_curv=gauss,
        ricci_normal=ricci,
        ambient_curvature=curvature,
        t_range=None if s.is_sphere3 else (float(np.min(x["0"][0])), float(np.max(x["0"][0]))),
    )
    _check_maps(fields, s.chart_grid, (NodeMap(shift=1),) if s.revolution else s.maps)
    return _along_v(fields, s.grid.nv) if s.revolution else fields


def total_curvature(f: GeometryFields) -> float:
    """Integral of the Gauss curvature (equals 2 pi Euler characteristic)."""
    if f.gauss_curv is None:
        raise DomainError("surface has no Gauss curvature field")
    return float(np.sum(f.gauss_curv * f.area_element))


def euler_characteristic(f: GeometryFields) -> int:
    x = total_curvature(f) / (2.0 * np.pi)
    chi = round(x)
    if abs(x - chi) > 0.1:
        raise MeshTooCoarseError(
            f"total curvature / 2pi = {x:.6f} is not close to an integer; refine the mesh"
        )
    return int(chi)
