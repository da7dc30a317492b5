"""Grid bookkeeping, difference stencils, and chart evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp

from stabspec import charts
from stabspec.charts import (
    PARAM_U,
    PARAM_V,
    SymbolicChart,
    real_sph_harm,
)
from stabspec.errors import DomainError
from stabspec.grids import fornberg_weights, sphere_grid, torus_grid


def test_fornberg_reproduces_central_stencils():
    w1 = fornberg_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 1)
    np.testing.assert_allclose(w1, [-0.5, 0.0, 0.5], atol=1e-14)
    w2 = fornberg_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 2)
    np.testing.assert_allclose(w2, [1.0, -2.0, 1.0], atol=1e-14)
    w4 = fornberg_weights(np.arange(-2.0, 3.0), 0.0, 1)
    np.testing.assert_allclose(w4, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12],
                               atol=1e-13)
    with pytest.raises(DomainError):
        fornberg_weights(np.array([0.0, 1.0]), 0.0, 2)


def test_torus_grid_layout():
    g = torus_grid(8, 12)
    assert g.periodic_u and g.periodic_v
    assert g.node_count == 96
    assert g.du == pytest.approx(2 * math.pi / 8)
    assert g.dv == pytest.approx(2 * math.pi / 12)
    assert g.flat(2, 3) == 2 * 12 + 3
    u, v = g.mesh()
    assert u.shape == (96,)
    assert u[g.flat(5, 7)] == pytest.approx(g.u[5])
    assert v[g.flat(5, 7)] == pytest.approx(g.v[7])
    with pytest.raises(DomainError):
        torus_grid(4, 8)


def test_sphere_grid_is_cell_centered_in_latitude():
    g = sphere_grid(10, 16)
    assert not g.periodic_u and g.periodic_v
    np.testing.assert_allclose(g.u[0], 0.5 * math.pi / 10)
    np.testing.assert_allclose(g.u[-1], math.pi - 0.5 * math.pi / 10)
    # cell-centered rows integrate sin(theta) with no boundary correction,
    # at second order in the spacing
    errs = []
    for n in (10, 20):
        gn = sphere_grid(n, 16)
        errs.append(abs(np.sum(np.sin(gn.u)) * gn.du - 2.0))
    assert errs[0] == pytest.approx(2 * math.pi**2 / (24 * 100), rel=1e-2)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_d1_sparse_matches_diff_field():
    # d1_sparse against the analytic derivative of the same wave: on a
    # periodic grid of spacing h the centered second-order stencil takes
    # cos(k x + c) to -k sin(k x + c) * sin(k h) / (k h), exactly
    g = torus_grid(16, 16)
    u, v = g.mesh()
    field = np.cos(u + 2 * v)
    for axis, k, h in ((0, 1, g.du), (1, 2, g.dv)):
        got = g.d1_sparse(axis, accuracy=2) @ field
        exact = -k * np.sin(u + 2 * v)
        np.testing.assert_allclose(got, exact * np.sin(k * h) / (k * h), atol=1e-12)


def test_symbolic_chart_derivatives_are_exact():
    exprs = (sp.cos(PARAM_U) / sp.sqrt(2), sp.sin(PARAM_U) / sp.sqrt(2),
             sp.cos(PARAM_V) / sp.sqrt(2), sp.sin(PARAM_V) / sp.sqrt(2))
    chart = SymbolicChart(exprs)
    g = torus_grid(8, 8)
    b = chart.evaluate(g, 3)
    u, _ = g.mesh()
    np.testing.assert_allclose(b["u"][:, 0], -np.sin(u) / math.sqrt(2),
                               atol=1e-15)
    np.testing.assert_allclose(b["uuu"][:, 0], np.sin(u) / math.sqrt(2),
                               atol=1e-14)
    assert set(b) >= {"0", "u", "v", "uu", "uv", "vv", "uuu"}


def test_symbolic_chart_compiles_once_for_every_order():
    exprs = (sp.cos(PARAM_U) / 3, sp.sin(PARAM_U) / 3,
             sp.cos(PARAM_V) * sp.sqrt(8) / 3, sp.sin(PARAM_V) * sp.sqrt(8) / 3)
    chart = SymbolicChart(exprs)
    g = torus_grid(8, 8)
    before = charts._compile_bundle.cache_info().misses
    low = chart.evaluate(g, 1)
    high = chart.evaluate(g, 3)
    assert charts._compile_bundle.cache_info().misses == before + 1
    assert set(low) == {"0", "u", "v"}
    for key in low:
        np.testing.assert_array_equal(low[key], high[key])


def test_real_spherical_harmonics_are_orthonormal():
    g = sphere_grid(48, 48)
    th, ph = g.mesh()
    weight = np.sin(th) * g.cell_weight
    t_sym, p_sym = sp.symbols("t p", real=True)
    basis = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    fields = {
        (l, m): sp.lambdify((t_sym, p_sym),
                            real_sph_harm(l, m, t_sym, p_sym), "numpy")(th, ph)
        for (l, m) in basis
    }
    for i, key1 in enumerate(basis):
        for key2 in basis[i:]:
            ip = float(np.sum(fields[key1] * fields[key2] * weight))
            expected = 1.0 if key1 == key2 else 0.0
            assert ip == pytest.approx(expected, abs=2e-3)
    with pytest.raises(DomainError):
        real_sph_harm(2, 3, t_sym, p_sym)
