"""Geometry-pipeline tests: fundamental forms, curvature, serialization.

Closed-form references (area, curvatures, inverse metric of the catalog
shapes) are derived by hand from the charts and frozen here; the discrete
pipeline has to reproduce them at machine precision for analytic charts.
The Gauss curvature, which the package takes from the Gauss equation, is
also checked against Brioschi's intrinsic formula on the sympy chart
(`oracles`).
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import stabspec as ss
from stabspec.charts import JetChart, _jet_cos, _jet_mul, _jet_sin, _plus
from stabspec.errors import (
    DegenerateChartError,
    DomainError,
    MeshTooCoarseError,
    UnsupportedAmbientError,
)
from stabspec.grids import torus_grid

from oracles import (
    along_v,
    area,
    gauss_equation_residual,
    intrinsic_gauss_curvature,
    slice_data,
    sympy_chart,
)


def _build(spec, want_gauss=True):
    s = ss.build(spec)
    return s, ss.compute_geometry(s, want_gauss=want_gauss)


# ---------------------------------------------------------------- Clifford


def test_clifford_torus_geometry_is_exact():
    spec = ss.clifford_torus((24, 24))
    s, f = _build(spec)
    # g = I / 2, so g^uu = g^vv = 2 and g^uv = 0
    np.testing.assert_allclose(along_v(f).metric_inv,
                               np.broadcast_to([[2.0], [0.0], [2.0]], (3, s.node_count)),
                               atol=1e-15)
    np.testing.assert_allclose(f.area_element, 0.5 * s.grid.cell_weight,
                               atol=1e-15)
    np.testing.assert_allclose(f.mean_curv, 0.0, atol=1e-14)
    np.testing.assert_allclose(f.sigma_sq, 2.0, atol=1e-13)
    np.testing.assert_allclose(f.gauss_curv, 0.0, atol=1e-13)
    np.testing.assert_allclose(f.ricci_normal, 2.0, atol=1e-15)
    assert area(f) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert gauss_equation_residual(sympy_chart(spec), f, s.grid) < 1e-13
    assert ss.euler_characteristic(f) == 0


# --------------------------------------------------------------- flat tori


@pytest.mark.parametrize("r", [0.45, 0.6, 1 / math.sqrt(2), 0.8])
def test_flat_torus_curvatures_match_closed_forms(r):
    spec = ss.flat_torus(r, (16, 16))
    s, f = _build(spec)
    rho = math.sqrt(1 - r * r)
    np.testing.assert_allclose(
        f.mean_curv, (1 - 2 * r * r) / (2 * r * rho), atol=1e-13)
    np.testing.assert_allclose(
        f.sigma_sq, rho**2 / r**2 + r**2 / rho**2, rtol=1e-13)
    np.testing.assert_allclose(f.gauss_curv, 0.0, atol=1e-12)
    # |sigma|^2 + 2 collapses to 1 / (r^2 (1 - r^2))
    q = f.sigma_sq + f.ricci_normal
    np.testing.assert_allclose(q, 1.0 / (r * r * (1 - r * r)), rtol=1e-13)
    assert area(f) == pytest.approx(4 * math.pi**2 * r * rho, rel=1e-13)
    assert gauss_equation_residual(sympy_chart(spec), f, s.grid) < 1e-13


# --------------------------------------------------------- geodesic spheres


@pytest.mark.parametrize("rho", [0.7, 1.0, math.pi / 2, 2.2])
def test_geodesic_sphere_geometry(rho):
    spec = ss.geodesic_sphere(rho, (24, 24))
    s, f = _build(spec)
    cot = math.cos(rho) / math.sin(rho)
    np.testing.assert_allclose(f.mean_curv, -cot, atol=1e-12)
    np.testing.assert_allclose(f.sigma_sq, 2 * cot * cot, atol=1e-12)
    np.testing.assert_allclose(f.gauss_curv, 1 / math.sin(rho) ** 2,
                               rtol=1e-11)
    np.testing.assert_allclose(f.ricci_normal, 2.0, atol=1e-14)
    assert gauss_equation_residual(sympy_chart(spec), f, s.grid) < 1e-11
    assert ss.euler_characteristic(f) == 2
    # trapezoid quadrature on the polar grid: area converges to 4 pi sin^2
    exact = 4 * math.pi * math.sin(rho) ** 2
    assert area(f) == pytest.approx(exact, rel=2e-2)


def test_sphere_area_quadrature_is_second_order():
    errs = []
    for m in (16, 32, 64):
        _, f = _build(ss.geodesic_sphere(1.0, (m, m)), want_gauss=False)
        errs.append(abs(area(f) - 4 * math.pi * math.sin(1.0) ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


# ------------------------------------------------------------ warped slices


def test_cosh_slice_extrinsic_data_matches_warping_closed_forms():
    t0 = 0.3
    s, f = _build(ss.slice_shape("cosh", t0, (16, 16)))
    h = math.cosh(t0)
    ratio = math.sinh(t0) / h
    np.testing.assert_allclose(f.mean_curv, ratio, atol=1e-13)
    np.testing.assert_allclose(f.sigma_sq, 2 * ratio**2, atol=1e-13)
    np.testing.assert_allclose(f.ricci_normal, -2.0, atol=1e-12)
    np.testing.assert_allclose(f.gauss_curv, 1 / h**2, rtol=1e-11)
    d = slice_data(ss.builtin_warping("cosh"), t0)
    np.testing.assert_allclose(f.mean_curv, d.mean_curv, atol=1e-13)
    np.testing.assert_allclose(f.sigma_sq, d.sigma_sq, atol=1e-13)
    np.testing.assert_allclose(f.ricci_normal, d.ricci_normal, atol=1e-12)
    assert area(f) == pytest.approx(4 * math.pi * h * h, rel=2e-3)
    assert ss.euler_characteristic(f) == 2


def _counted_cosh(calls: Counter) -> ss.WarpingFunction:
    """The cosh profile, counting each evaluation of h, h', h'' by input size."""
    def counted(name, fn):
        def profile(t):
            calls[name, np.size(t)] += 1
            return fn(t)
        return profile

    return ss.WarpingFunction(h=counted("h", np.cosh), dh=counted("dh", np.sinh),
                              d2h=counted("d2h", np.cosh), interval=(-2.0, 2.0))


@pytest.mark.parametrize("want_gauss", [False, True])
def test_warped_geometry_evaluates_the_profile_once(want_gauss):
    # one evaluation of (h, h', h'') gives h h' for the Christoffel term and
    # the Ricci data for Ric(nu, nu) and the scalar curvature of the Gauss equation
    calls = Counter()
    w = _counted_cosh(calls)
    base = ss.build(ss.graph_over_slice("cosh", 0.2, "Y2,1", 0.05, (12, 12)))
    s = ss.ImmersedSurface(base.chart, base.grid, w)
    calls.clear()
    f = ss.compute_geometry(s, want_gauss=want_gauss)
    assert calls == {(name, s.node_count): 1 for name in ("h", "dh", "d2h")}
    ref = ss.compute_geometry(base, want_gauss=want_gauss)
    np.testing.assert_array_equal(f.ricci_normal, ref.ricci_normal)
    np.testing.assert_array_equal(f.mean_curv, ref.mean_curv)
    np.testing.assert_array_equal(f.sigma_sq, ref.sigma_sq)
    if want_gauss:
        np.testing.assert_array_equal(f.gauss_curv, ref.gauss_curv)


def test_a_t13_rung_evaluates_the_profile_once():
    # the bound reads the Ricci data of the rung's geometry call; the
    # 512-point scan of the convexity hypothesis is the one other evaluation
    calls = Counter()
    spec = ss.graph_over_slice(_counted_cosh(calls), 0.2, "Y2,1", 0.05)
    nodes = [ss.build(dataclasses.replace(spec, resolution=(r, r))).node_count for r in (8, 12)]
    calls.clear()
    assert ss.check_theorem("t13", spec, [8, 12]).verdict is True
    assert calls == {(name, size): 1 for name in ("h", "dh", "d2h") for size in (512, *nodes)}


def test_product_slice_is_totally_geodesic():
    s, f = _build(ss.slice_shape("product", -0.7, (16, 16)))
    np.testing.assert_allclose(f.sigma_sq, 0.0, atol=1e-13)
    np.testing.assert_allclose(f.mean_curv, 0.0, atol=1e-13)
    np.testing.assert_allclose(f.ricci_normal, 0.0, atol=1e-13)
    np.testing.assert_allclose(f.gauss_curv, 1.0, rtol=1e-11)


def test_graph_over_slice_reduces_to_slice_at_zero_amplitude():
    sl = ss.build(ss.slice_shape("cosh", 0.3, (12, 12)))
    gr = ss.build(ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.0, (12, 12)))
    np.testing.assert_allclose(gr.bundle()["0"], sl.bundle()["0"],
                               atol=1e-15)


def test_graph_over_slice_perturbs_continuously():
    _, f0 = _build(ss.slice_shape("cosh", 0.3, (12, 12)), want_gauss=False)
    _, f1 = _build(ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.01, (12, 12)),
                   want_gauss=False)
    assert np.max(np.abs(f1.mean_curv - f0.mean_curv)) < 0.05
    assert np.max(np.abs(f1.area_element / f0.area_element - 1.0)) < 0.05


# ------------------------------------------------------------ both ambients


@pytest.mark.parametrize("pert, amp", [("Y3,1", 0.05), ("Y2,-2", 0.08)])
def test_graph_over_sine_slice_is_the_same_surface_in_the_3_sphere(pert, amp):
    # (0, pi) x_sin S^2 is the 3-sphere minus two points, via
    # (t, w) -> (sin t w, cos t); both ambients must give one geometry
    warped = ss.build(ss.graph_over_slice("sphere", 1.2, pert, amp, (32, 32)))

    def embedded(u, v):
        t, *om = warped.chart.fn(u, v)
        return [_jet_mul(_jet_sin(t), c) for c in om] + [_jet_cos(t)]

    sphere = ss.ImmersedSurface(JetChart(embedded), warped.grid)
    fw, fs = ss.compute_geometry(warped), ss.compute_geometry(sphere)

    def close(a, b, rel):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(a))

    close(fs.area_element, fw.area_element, 1e-13)
    close(fs.sigma_sq, fw.sigma_sq, 1e-13)
    close(fs.ricci_normal, fw.ricci_normal, 1e-13)
    # the two normals point opposite ways, so H flips sign
    close(np.abs(fs.mean_curv), np.abs(fw.mean_curv), 1e-13)
    close(fs.gauss_curv, fw.gauss_curv, 1e-11)
    lam_w = ss.smallest_eigenpairs(ss.assemble(warped, fw), 6).eigenvalues
    lam_s = ss.smallest_eigenpairs(ss.assemble(sphere, fs), 6).eigenvalues
    np.testing.assert_allclose(lam_s, lam_w, rtol=0, atol=1e-11)


# ----------------------------------------------------------- perturbed tori


def test_perturbed_torus_keeps_torus_invariants():
    spec = ss.perturbed_torus(1 / math.sqrt(2), 0.1, 3, (32, 32))
    s, f = _build(spec)
    assert ss.euler_characteristic(f) == 0
    assert gauss_equation_residual(sympy_chart(spec), f, s.grid) < 1e-12
    assert abs(ss.total_curvature(f)) < 1e-8
    assert np.min(f.sigma_sq - 2 * f.mean_curv**2) > -1e-12


# ------------------------------------------------- intrinsic Gauss curvature


@pytest.mark.parametrize("spec", [
    ss.clifford_torus((12, 12)),
    ss.flat_torus(0.6, (12, 12)),
    ss.perturbed_torus(0.7, 0.05, 3, (24, 24)),
    ss.geodesic_sphere(1.1, (12, 12)),
    ss.slice_shape("cosh", 0.3, (12, 12)),
    ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (24, 24)),
    ss.graph_over_slice("sphere", 1.2, "Y2,-2", 0.08, (24, 24)),
], ids=lambda s: s.label)
def test_gauss_curvature_matches_the_intrinsic_oracle(spec):
    # the Gauss equation against Brioschi's formula on the sympy chart, in
    # both ambients
    s, f = _build(spec)
    warping = spec.params["warping"].name if "warping" in spec.params else None
    k = intrinsic_gauss_curvature(sympy_chart(spec), s.grid, warping)
    np.testing.assert_allclose(along_v(f).gauss_curv, k, rtol=0,
                               atol=1e-11 * max(1.0, float(np.max(np.abs(k)))))


# ------------------------------------------------------------- chart guards


def test_degenerate_chart_is_rejected():
    c = 1 / math.sqrt(2)
    chart = JetChart(lambda u, v: (c * _jet_cos(u + v), c * _jet_sin(u + v),
                                   c * _jet_cos(u + v), c * _jet_sin(u + v)))
    s = ss.ImmersedSurface(chart, torus_grid(8, 8))
    with pytest.raises(DegenerateChartError) as err:
        ss.compute_geometry(s)
    assert err.value.det < 1e-10


def test_a_degenerate_meridian_names_its_grid_node():
    # X_u vanishes on the u row 3 alone, so the error names grid node (3, 0)
    # whether the chart was evaluated on the meridian or on the full grid
    grid = torus_grid(8, 12)
    c = 1 / math.sqrt(2)

    def chart(u, v):
        phi = u - _jet_sin(_plus(u, -grid.u[3]))
        return c * _jet_cos(phi), c * _jet_sin(phi), c * _jet_cos(v), c * _jet_sin(v)

    for revolution in (True, False):
        s = ss.ImmersedSurface(JetChart(chart), grid, revolution=revolution)
        with pytest.raises(DegenerateChartError) as err:
            ss.compute_geometry(s)
        assert err.value.node == 3 * grid.nv


def test_off_sphere_chart_is_rejected():
    # norm sqrt(2), not 1
    chart = JetChart(lambda u, v: (_jet_cos(u), _jet_sin(u), _jet_cos(v), _jet_sin(v)))
    s = ss.ImmersedSurface(chart, torus_grid(8, 8))
    with pytest.raises(DomainError):
        ss.compute_geometry(s)


def test_a_warping_that_is_not_a_warping_function_is_refused():
    # the ambient is the warping or None; a name, a bare profile or a
    # factory of warpings is none of these
    base = ss.build(ss.slice_shape("cosh", 0.3, (8, 8)))
    for warping in ("cosh", np.cosh, ss.builtin_warping, 1.0):
        with pytest.raises(UnsupportedAmbientError, match="unsupported ambient"):
            ss.ImmersedSurface(base.chart, base.grid, warping)
    assert ss.ImmersedSurface(base.chart, base.grid, base.warping).warping is base.warping
    assert ss.ImmersedSurface(base.chart, base.grid).is_sphere3


def test_euler_characteristic_guards_against_bad_totals():
    _, f = _build(ss.geodesic_sphere(1.0, (16, 16)))
    skewed = dataclasses.replace(f, gauss_curv=1.2 * f.gauss_curv)
    with pytest.raises(MeshTooCoarseError):
        ss.euler_characteristic(skewed)
