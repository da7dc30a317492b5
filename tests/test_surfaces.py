"""Geometry-pipeline tests: fundamental forms, curvature, serialization.

Closed-form references (area, curvatures, fundamental forms of the catalog
shapes) are derived by hand from the charts and frozen here; the discrete
pipeline has to reproduce them at machine precision for analytic charts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import stabspec as ss
from stabspec.charts import JetChart, _jet_cos, _jet_mul, _jet_sin
from stabspec.errors import (
    DegenerateChartError,
    DomainError,
    MeshTooCoarseError,
    UnsupportedAmbientError,
)
from stabspec.grids import sphere_grid, torus_grid
from stabspec.surfaces import Sphere3


def _build(spec, want_gauss=True):
    s = ss.build(spec)
    return s, ss.compute_geometry(s, want_gauss=want_gauss)


# ---------------------------------------------------------------- Clifford


def test_clifford_torus_geometry_is_exact():
    s, f = _build(ss.clifford_torus((24, 24)))
    half = np.full(s.node_count, 0.5)
    np.testing.assert_allclose(f.metric[:, 0, 0], half, atol=1e-15)
    np.testing.assert_allclose(f.metric[:, 1, 1], half, atol=1e-15)
    np.testing.assert_allclose(f.metric[:, 0, 1], 0.0, atol=1e-15)
    np.testing.assert_allclose(f.area_element, 0.5 * s.grid.cell_weight,
                               atol=1e-15)
    np.testing.assert_allclose(f.mean_curv, 0.0, atol=1e-14)
    np.testing.assert_allclose(f.sigma_sq, 2.0, atol=1e-13)
    np.testing.assert_allclose(f.gauss_curv, 0.0, atol=1e-13)
    np.testing.assert_allclose(f.ricci_normal, 2.0, atol=1e-15)
    assert ss.area(s, f) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert ss.gauss_equation_residual(s, f) < 1e-13
    assert ss.euler_characteristic(s, f) == 0


# --------------------------------------------------------------- flat tori


@pytest.mark.parametrize("r", [0.45, 0.6, 1 / math.sqrt(2), 0.8])
def test_flat_torus_curvatures_match_closed_forms(r):
    s, f = _build(ss.flat_torus(r, (16, 16)))
    rho = math.sqrt(1 - r * r)
    np.testing.assert_allclose(
        f.mean_curv, (1 - 2 * r * r) / (2 * r * rho), atol=1e-13)
    np.testing.assert_allclose(
        f.sigma_sq, rho**2 / r**2 + r**2 / rho**2, rtol=1e-13)
    np.testing.assert_allclose(f.gauss_curv, 0.0, atol=1e-12)
    # |sigma|^2 + 2 collapses to 1 / (r^2 (1 - r^2))
    q = f.sigma_sq + f.ricci_normal
    np.testing.assert_allclose(q, 1.0 / (r * r * (1 - r * r)), rtol=1e-13)
    assert ss.area(s, f) == pytest.approx(4 * math.pi**2 * r * rho, rel=1e-13)
    assert ss.gauss_equation_residual(s, f) < 1e-13


# --------------------------------------------------------- geodesic spheres


@pytest.mark.parametrize("rho", [0.7, 1.0, math.pi / 2, 2.2])
def test_geodesic_sphere_geometry(rho):
    s, f = _build(ss.geodesic_sphere(rho, (24, 24)))
    cot = math.cos(rho) / math.sin(rho)
    np.testing.assert_allclose(f.mean_curv, -cot, atol=1e-12)
    np.testing.assert_allclose(f.sigma_sq, 2 * cot * cot, atol=1e-12)
    np.testing.assert_allclose(f.gauss_curv, 1 / math.sin(rho) ** 2,
                               rtol=1e-11)
    np.testing.assert_allclose(f.ricci_normal, 2.0, atol=1e-14)
    assert ss.gauss_equation_residual(s, f) < 1e-11
    assert ss.euler_characteristic(s, f) == 2
    # trapezoid quadrature on the polar grid: area converges to 4 pi sin^2
    exact = 4 * math.pi * math.sin(rho) ** 2
    assert ss.area(s, f) == pytest.approx(exact, rel=2e-2)


def test_sphere_area_quadrature_is_second_order():
    errs = []
    for m in (16, 32, 64):
        s, f = _build(ss.geodesic_sphere(1.0, (m, m)), want_gauss=False)
        errs.append(abs(ss.area(s, f) - 4 * math.pi * math.sin(1.0) ** 2))
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
    np.testing.assert_allclose(f.cos_normal_t, 1.0, atol=1e-13)
    np.testing.assert_allclose(f.gauss_curv, 1 / h**2, rtol=1e-11)
    d = ss.slice_data(ss.builtin_warping("cosh"), t0)
    np.testing.assert_allclose(f.mean_curv, d.mean_curv, atol=1e-13)
    np.testing.assert_allclose(f.sigma_sq, d.sigma_sq, atol=1e-13)
    np.testing.assert_allclose(f.ricci_normal, d.ricci_normal, atol=1e-12)
    assert ss.area(s, f) == pytest.approx(4 * math.pi * h * h, rel=2e-3)
    assert ss.euler_characteristic(s, f) == 2


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
    assert np.max(np.abs(f1.cos_normal_t - 1.0)) < 0.01
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

    sphere = ss.ImmersedSurface(Sphere3(), JetChart(embedded), warped.grid)
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
    s, f = _build(ss.perturbed_torus(1 / math.sqrt(2), 0.1, 3, (32, 32)))
    assert ss.euler_characteristic(s, f) == 0
    assert ss.gauss_equation_residual(s, f) < 1e-12
    assert abs(ss.total_curvature(s, f)) < 1e-8
    assert np.min(f.sigma_sq - 2 * f.mean_curv**2) > -1e-12


# ---------------------------------------------------- orientation machinery


def test_normal_is_unit_tangent_orthogonal_and_oriented(rng):
    for spec in (ss.clifford_torus((12, 12)), ss.flat_torus(0.55, (12, 12)),
                 ss.geodesic_sphere(1.1, (12, 12))):
        s, f = _build(spec, want_gauss=False)
        b = s.bundle()
        x, xu, xv = b["0"], b["u"], b["v"]
        nu = f.normal
        np.testing.assert_allclose(np.einsum("ij,ij->i", nu, nu), 1.0,
                                   atol=1e-13)
        for tangent in (x, xu, xv):
            np.testing.assert_allclose(
                np.einsum("ij,ij->i", nu, tangent), 0.0, atol=1e-12)
        # orientation: det[x, xu, xv, nu] is a positive multiple of |nu|^2
        dets = np.linalg.det(np.stack([x, xu, xv, nu], axis=1))
        assert np.min(dets) > 0


def test_shape_operator_symmetry_and_trace(rng):
    s, f = _build(ss.perturbed_torus(0.7, 0.08, 2, (16, 16)),
                  want_gauss=False)
    shape = f.shape
    np.testing.assert_allclose(shape[:, 0, 1], shape[:, 1, 0], atol=1e-12)
    ginv_shape = np.einsum("nab,nbc->nac", f.metric_inv, shape)
    half_trace = 0.5 * (ginv_shape[:, 0, 0] + ginv_shape[:, 1, 1])
    np.testing.assert_allclose(half_trace, f.mean_curv, atol=1e-12)
    sq = np.einsum("nab,nba->n", ginv_shape, ginv_shape)
    np.testing.assert_allclose(sq, f.sigma_sq, atol=1e-12)


# ------------------------------------------------------------- chart guards


def test_degenerate_chart_is_rejected():
    c = 1 / math.sqrt(2)
    chart = JetChart(lambda u, v: (c * _jet_cos(u + v), c * _jet_sin(u + v),
                                   c * _jet_cos(u + v), c * _jet_sin(u + v)))
    s = ss.ImmersedSurface(Sphere3(), chart, torus_grid(8, 8))
    with pytest.raises(DegenerateChartError) as err:
        ss.compute_geometry(s)
    assert err.value.det < 1e-10


def test_off_sphere_chart_is_rejected():
    # norm sqrt(2), not 1
    chart = JetChart(lambda u, v: (_jet_cos(u), _jet_sin(u), _jet_cos(v), _jet_sin(v)))
    s = ss.ImmersedSurface(Sphere3(), chart, torus_grid(8, 8))
    with pytest.raises(DomainError):
        ss.compute_geometry(s)


def test_gauss_equation_residual_requires_sphere_ambient():
    s, f = _build(ss.slice_shape("cosh", 0.0, (8, 8)))
    with pytest.raises(UnsupportedAmbientError):
        ss.gauss_equation_residual(s, f)


def test_euler_characteristic_guards_against_bad_totals():
    s, f = _build(ss.geodesic_sphere(1.0, (16, 16)))
    skewed = dataclasses.replace(f, gauss_curv=1.2 * f.gauss_curv)
    with pytest.raises(MeshTooCoarseError):
        ss.euler_characteristic(s, skewed)
