"""Independent oracles and test-only helpers shared by the tests.

`sympy_chart` writes each catalog chart out again in sympy.  The chart
tests differentiate it at 30 digits; `intrinsic_gauss_curvature` takes the
induced metric's derivatives from it for Brioschi's formula, so the Gauss
curvature the package takes from the Gauss equation is checked against a
purely intrinsic computation.  sympy's `assoc_legendre` also fixes the
Condon-Shortley sign of the spherical harmonics.  `dense_window` solves a
pencil with a plain dense generalized eigensolver, sharing no code with
either path of `smallest_eigenpairs`, which it is the reference for.

The helpers at the end serve only the tests, so the package does not
carry them: grid coordinates and indices, the item-assignment build of
the difference operators, a surface's chart on its full grid, the total
area, the list of accepted perturbations, the closed-form slice data, the
slice's second eigenvalue as n times the convexity condition, the ambient
Ricci data at given t, and the conformal image of a surface.  The dilation
is written here as stereographic conjugation (`axis_and_scale`,
`stereographic_dilation`), independently of `conformal.mobius_apply`,
which writes it as the projective action of a Lorentz boost.  The image's
chart composes the base chart's Taylor jets with that dilation written on
jets (`_dilate_jets`); the quantities the dilations leave invariant (the
Willmore integral, Dirichlet energy equal to twice the image area) are
computed from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import sympy as sp

from stabspec.catalog import MAX_PERTURBATION_DEGREE
from stabspec.charts import _MONOMIALS, _PRODUCT, JetChart, _jet_mul
from stabspec.eigen import cluster_indices
from stabspec.errors import UnsupportedAmbientError
from stabspec.surfaces import ImmersedSurface, compute_geometry
from stabspec.warping import SPHERE_DIM, _curvature, _hs, convexity_condition

ORACLE_DIGITS = 30
U, V = sp.symbols("u v", real=True)

# warping profiles h(t) by builtin name
H_EXPRS = {
    "product": lambda t: sp.Integer(1),
    "sphere": sp.sin,
    "hyperbolic": sp.sinh,
    "euclidean": lambda t: t,
    "cosh": sp.cosh,
}


def _sympy_harmonic(l, m, theta, phi):
    # sympy's assoc_legendre carries the Condon-Shortley sign (-1)^m
    am = abs(m)
    norm = sp.sqrt(sp.Rational(2 * l + 1, 4) / sp.pi
                   * sp.Rational(math.factorial(l - am), math.factorial(l + am)))
    y = norm * sp.assoc_legendre(l, am, sp.cos(theta))
    if m == 0:
        return y
    return sp.sqrt(2) * y * (sp.cos(am * phi) if m > 0 else sp.sin(am * phi))


def sympy_chart(spec, u=U, v=V):
    """The catalog chart of `spec` as sympy expressions, parameters at 30 digits."""
    p = {k: sp.Float(x, ORACLE_DIGITS) for k, x in spec.params.items()
         if isinstance(x, float)}
    om = (sp.sin(u) * sp.cos(v), sp.sin(u) * sp.sin(v), sp.cos(u))
    if spec.kind in ("clifford-torus", "flat-torus", "perturbed-torus"):
        rho = 1 / sp.sqrt(2) if spec.kind == "clifford-torus" else p["r"]
        if spec.kind == "perturbed-torus":
            rho = rho + p["eps"] * sp.cos(spec.params["wave"] * v)
        s = sp.sqrt(1 - rho**2)
        return (rho * sp.cos(u), rho * sp.sin(u), s * sp.cos(v), s * sp.sin(v))
    if spec.kind == "geodesic-sphere":
        return tuple(sp.sin(p["rho"]) * c for c in om) + (sp.cos(p["rho"]),)
    t = p["t0"]
    if spec.kind == "graph-over-slice":
        l, m = (int(x) for x in spec.params["perturbation"][1:].split(","))
        t = t + p["amplitude"] * _sympy_harmonic(l, m, u, v)
    return (t,) + om


def brioschi(E, F, G, E_u, E_v, G_u, G_v, F_u, F_v, E_vv, G_uu, F_uv):
    """Intrinsic Gauss curvature from the metric and its derivatives."""
    det = E * G - F * F
    m_a = ((-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v),
           (F_v - 0.5 * G_u, E, F),
           (0.5 * G_v, F, G))
    m_b = ((0.0, 0.5 * E_v, 0.5 * G_u),
           (0.5 * E_v, E, F),
           (0.5 * G_u, F, G))

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    return (det3(m_a) - det3(m_b)) / det**2


def intrinsic_gauss_curvature(chart, grid, warping=None) -> np.ndarray:
    """Brioschi's K at the grid nodes, for a chart given as four sympy
    expressions in U, V: in R^4 (the 3-sphere), or as (t, w) in
    dt^2 + h(t)^2 |dw|^2 for the builtin `warping` of that name.

    The chart's derivatives and those of the metric weight
    W = diag(1, H, H, H), H = h(t)^2, are symbolic; the nine metric
    derivatives follow from them numerically by the Leibniz rule, which is
    far cheaper than differentiating the metric's expressions.
    """
    keys = ("", "u", "v", "uu", "uv", "vv", "uuv", "uvv")
    h2 = sp.Integer(1) if warping is None else H_EXPRS[warping](chart[0]) ** 2
    x, weight = {"": list(chart)}, {"": h2}
    for key in keys[1:]:
        by = U if key[-1] == "u" else V
        x[key] = [sp.diff(c, by) for c in x[key[:-1]]]
        if len(key) < 3:
            weight[key] = sp.diff(weight[key[:-1]], by)
    u, v = mesh(grid)

    def nodal(exprs):  # (N, len(exprs)) values, constants broadcast
        values = sp.lambdify((U, V), exprs, "numpy")(u, v)
        return np.stack([np.broadcast_to(np.asarray(a, dtype=float), u.shape)
                         for a in values], axis=1)

    x = {key: nodal(c) for key, c in x.items()}
    weight = {key: nodal([w])[:, 0] for key, w in weight.items()}

    def dot(wkey, akey, bkey):  # sum_i (d_wkey W)_i (X_akey)_i (X_bkey)_i
        a, b = x[akey], x[bkey]
        sphere = weight[wkey] * np.einsum("ni,ni->n", a[:, 1:], b[:, 1:])
        return sphere + a[:, 0] * b[:, 0] if wkey == "" else sphere

    def metric(entry, by=""):  # d_by <X_a, X_b>_W, handing each letter to a factor
        total = 0.0
        for owners in itertools.product(range(3), repeat=len(by)):
            parts = ["", entry[0], entry[1]]
            for letter, owner in zip(by, owners):
                parts[owner] += letter
            total = total + dot(*("".join(sorted(p)) for p in parts))
        return total

    return brioschi(metric("uu"), metric("uv"), metric("vv"),
                    metric("uu", "u"), metric("uu", "v"), metric("vv", "u"), metric("vv", "v"),
                    metric("uv", "u"), metric("uv", "v"), metric("uu", "vv"),
                    metric("vv", "uu"), metric("uv", "uv"))


def gauss_equation_residual(chart, f, grid) -> float:
    """max over nodes of |2K - 2 - 4H^2 + |sigma|^2| on the 3-sphere, with K
    the intrinsic curvature of the sympy `chart` and H, sigma the package's
    extrinsic fields f: zero in exact arithmetic."""
    k = intrinsic_gauss_curvature(chart, grid)
    return float(np.max(np.abs(2.0 * k - 2.0 - 4.0 * f.mean_curv**2 + f.sigma_sq)))


def dense_window(pencil, k):
    """(eigenvalues, M-orthonormal eigenvectors) of the k smallest
    eigenvalues of (A, M) and the rest of the k-th one's cluster, from one
    dense generalized eigh of A against M = diag(mass_diagonal)."""
    vals, vecs = sla.eigh(pencil.stiffness_minus_potential.toarray(),
                          np.diag(pencil.mass_diagonal))
    size = next(g for g in cluster_indices(vals) if k - 1 in g)[-1] + 1
    return vals[:size], vecs[:, :size]


def unmarked(pencil):
    """The pencil with A formed and the meridian dropped: not invariant
    along v, so it takes the sparse eigen path."""
    return replace(pencil, csr=pencil.stiffness_minus_potential, meridian=None)


# ----------------------------------------------------------------------
# Test-only helpers over the package's objects.  No CLI path needs them,
# so they live here and not in `src/`.


def mesh(grid):
    """Flattened coordinate arrays (uu, vv) of the grid, each of length
    node_count, in the grid's row-major node order."""
    uu, vv = np.meshgrid(grid.u, grid.v, indexing="ij")
    return uu.ravel(), vv.ravel()


def flat(grid, i, j):
    """Flat index of node (i, j)."""
    return np.asarray(i) * grid.nv + np.asarray(j)


def d1_by_kron(g, axis):
    """The first-derivative operator of `Grid.d1_sparse` built the plain
    way: the 1-D central bands with the periodic corners or the one-sided
    end rows assigned entry by entry, then a Kronecker product with the
    identity of the other axis."""
    n, h, periodic = (g.nu, g.du, g.periodic_u) if axis == 0 else (g.nv, g.dv, True)
    c = 0.5 / h
    D = sps.diags([-c, c], [-1, 1], shape=(n, n)).tolil()
    if periodic:
        D[0, n - 1], D[n - 1, 0] = -c, c
    else:
        D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
        D[n - 1, n - 3:] = np.array([0.5, -2.0, 1.5]) / h
    if axis == 0:
        return sps.kron(D, sps.identity(g.nv), format="csr")
    return sps.kron(sps.identity(g.nu), D, format="csr")


def full_grid(s: ImmersedSurface) -> ImmersedSurface:
    """The surface with its chart evaluated at every node of its grid: the
    reference for a surface of revolution, whose chart the package
    evaluates on the meridian alone."""
    return ImmersedSurface(s.chart, s.grid, s.warping)


def area(f) -> float:
    """Total area: the sum of the nodal area elements."""
    return float(np.sum(f.area_element))


def registered_perturbations() -> list[str]:
    """Every `Yl,m` the catalog accepts: 0 <= l <= 4 and |m| <= l."""
    return [f"Y{l},{m}" for l in range(MAX_PERTURBATION_DEGREE + 1)
            for m in range(-l, l + 1)]


@dataclass(frozen=True)
class SliceData:
    """Extrinsic data of the centered slice {t} x S^n, normal +d/dt.

    All principal curvatures equal h'/h, so mean_curv is h'/h and
    sigma_sq = n (h'/h)^2.  ricci_normal is Ric(d/dt, d/dt) = -n h''/h.
    """

    sigma_sq: float
    mean_curv: float
    ricci_normal: float


def slice_data(w, t: float) -> SliceData:
    """Extrinsic invariants of the slice {t} x S^n with normal +d/dt."""
    h, dh, d2h = (float(fn(t)) for fn in (w.h, w.dh, w.d2h))
    n = SPHERE_DIM
    k = dh / h
    return SliceData(sigma_sq=n * k**2, mean_curv=k, ricci_normal=-n * d2h / h)


def slice_lambda2(w, t):
    """Second eigenvalue of the slice stability operator, n * convexity:
    the reference for the band formula `slice_eigenvalue_band(w, t, 1)`,
    which the package reports."""
    return SPHERE_DIM * convexity_condition(w, t)


def ambient_ricci(w, t):
    """Ricci data of the warped ambient at t (scalar or array), as the
    package's warped geometry computes it from one profile evaluation."""
    return _curvature(*_hs(w, t))


def jet_reciprocal(x: np.ndarray) -> np.ndarray:
    """Truncated jet of 1/x, solved degree by degree from x * (1/x) = 1."""
    r = np.empty_like(x)
    r[0] = 1.0 / x[0]
    for m in range(1, len(_MONOMIALS)):
        # every l here has lower degree than m, so r[l] is already known
        r[m] = -r[0] * sum(x[k] * r[l] for k, l in _PRODUCT[m] if k != 0)
    return r


def axis_and_scale(param) -> tuple[np.ndarray, float]:
    """(p, s) of the dilation with parameter a != 0 as stereographic
    conjugation: project from the antipode of the pole p = a/|a| onto the
    hyperplane orthogonal to p, scale by s = (1 - |a|)/(1 + |a|), and
    project back."""
    mag = param.magnitude
    return param.a / mag, (1.0 - mag) / (1.0 + mag)


def stereographic_dilation(param, x) -> tuple:
    """The dilation of the point with components x = (x0, x1, x2, x3),
    numeric arrays or sympy expressions; with c = <x, p> the three steps
    of the conjugation collapse to
    (2 s x + (1 - s^2 + (1 - s)^2 c) p) / (1 + s^2 + (1 - s^2) c)."""
    p, s = axis_and_scale(param)
    c = sum(float(pi) * xi for pi, xi in zip(p, x))
    den = (1 + s * s) + (1 - s * s) * c
    return tuple((2 * s * xi + ((1 - s * s) + (1 - s) ** 2 * c) * float(pi)) / den
                 for pi, xi in zip(p, x))


def _dilate_jets(param, jets: np.ndarray) -> np.ndarray:
    """The stereographic dilation applied to position jets of shape
    (coefficients, ..., 4): affine in x up to one reciprocal."""
    p, s = axis_and_scale(param)
    c = jets @ p
    num = 2.0 * s * jets + ((1.0 - s) ** 2 * c)[..., None] * p
    num[0] += (1.0 - s * s) * p
    den = (1.0 - s * s) * c
    den[0] += 1.0 + s * s
    return _jet_mul(num, jet_reciprocal(den)[..., None])


def mobius_image_surface(s: ImmersedSurface, param) -> ImmersedSurface:
    """The surface re-charted through the conformal dilation: its chart
    composes the base chart's coordinate jets with phi, so the image's
    geometry comes from the package's one geometry pipeline."""
    if not s.is_sphere3:
        raise UnsupportedAmbientError("conformal dilations act on the 3-sphere")
    if param.magnitude < 1e-15:
        return s

    def image(u, v):
        jets = np.stack(np.broadcast_arrays(*s.chart.fn(u, v)), axis=-1)
        return np.moveaxis(_dilate_jets(param, jets), -1, 0)

    return ImmersedSurface(JetChart(image), s.grid)


def conformal_willmore_invariant(s: ImmersedSurface, param) -> float:
    """Integral of |sigma|^2 - 2 H^2 over the transformed surface.

    Invariant under the conformal group of the 3-sphere up to
    discretization error.
    """
    g = compute_geometry(mobius_image_surface(s, param), want_gauss=False)
    return float(np.sum((g.sigma_sq - 2.0 * g.mean_curv**2) * g.area_element))


def dirichlet_energy_check(s: ImmersedSurface, param) -> tuple[float, float]:
    """(coordinate Dirichlet energy, twice the image area) — independently.

    The energy integrates the original metric's gradient of the
    transformed coordinates over the original measure; the comparison
    value is twice the area of the image surface.  For a conformal map
    of a two-dimensional immersion the two agree.
    """
    image = mobius_image_surface(s, param)
    base = compute_geometry(s, want_gauss=False)
    b = image.chart.evaluate(image.grid)
    psi_u, psi_v = b["u"], b["v"]
    ginv_uu, ginv_uv, ginv_vv = base.metric_inv
    integrand = (
        ginv_uu * np.einsum("ij,ij->i", psi_u, psi_u)
        + 2.0 * ginv_uv * np.einsum("ij,ij->i", psi_u, psi_v)
        + ginv_vv * np.einsum("ij,ij->i", psi_v, psi_v)
    )
    energy = float(np.sum(integrand * base.area_element))
    image_fields = compute_geometry(image, want_gauss=False)
    return energy, 2.0 * area(image_fields)


def willmore_type_inequality_check(s: ImmersedSurface, param) -> tuple[float, float]:
    """(integral of H^2 + 1 over the image, image area); first >= second."""
    g = compute_geometry(mobius_image_surface(s, param), want_gauss=False)
    lhs = float(np.sum((g.mean_curv**2 + 1.0) * g.area_element))
    return lhs, float(np.sum(g.area_element))
