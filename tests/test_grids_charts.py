"""Grid bookkeeping, difference stencils, and chart evaluation.

Independent oracle for the Taylor-jet charts: each catalog chart written
out again in sympy, differentiated symbolically and evaluated at 30
digits.  sympy's `assoc_legendre` also fixes the Condon-Shortley sign of
the spherical harmonics.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

import stabspec as ss
from stabspec.charts import (
    BUNDLE_KEYS,
    JetChart,
    _jet_cos,
    _jet_sin,
    real_sph_harm,
)
from stabspec.errors import DomainError
from stabspec.grids import sphere_grid, torus_grid


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
        got = g.d1_sparse(axis) @ field
        exact = -k * np.sin(u + 2 * v)
        np.testing.assert_allclose(got, exact * np.sin(k * h) / (k * h), atol=1e-12)
    # along theta of a sphere grid the one-sided end rows, like the central
    # ones, differentiate a quadratic exactly
    g = sphere_grid(12, 8)
    theta, _ = g.mesh()
    np.testing.assert_allclose(g.d1_sparse(0) @ theta**2, 2 * theta, atol=1e-12)


def test_symbolic_chart_derivatives_are_exact():
    c = 1 / math.sqrt(2)
    chart = JetChart(lambda u, v: (c * _jet_cos(u), c * _jet_sin(u),
                                   c * _jet_cos(v), c * _jet_sin(v)))
    g = torus_grid(8, 8)
    b = chart.evaluate(g)
    u, _ = g.mesh()
    np.testing.assert_allclose(b["u"][:, 0], -np.sin(u) / math.sqrt(2),
                               atol=1e-15)
    np.testing.assert_allclose(b["uuu"][:, 0], np.sin(u) / math.sqrt(2),
                               atol=1e-14)
    assert set(b) >= {"0", "u", "v", "uu", "uv", "vv", "uuu"}


def _harmonic_values(l, m, th, ph):
    theta, phi = np.zeros((2, 10, th.size))
    theta[0], phi[0] = th, ph
    return real_sph_harm(l, m, theta, phi)[0]


def test_real_spherical_harmonics_are_orthonormal():
    g = sphere_grid(48, 48)
    th, ph = g.mesh()
    weight = np.sin(th) * g.cell_weight
    basis = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    fields = {(l, m): _harmonic_values(l, m, th, ph) for (l, m) in basis}
    for i, key1 in enumerate(basis):
        for key2 in basis[i:]:
            ip = float(np.sum(fields[key1] * fields[key2] * weight))
            expected = 1.0 if key1 == key2 else 0.0
            assert ip == pytest.approx(expected, abs=2e-3)
    with pytest.raises(DomainError):
        _harmonic_values(2, 3, th, ph)


# ---------------------------------------------- 30-digit symbolic oracle

ORACLE_DIGITS = 30


def _sympy_harmonic(l, m, theta, phi):
    # sympy's assoc_legendre carries the Condon-Shortley sign (-1)^m
    am = abs(m)
    norm = sp.sqrt(sp.Rational(2 * l + 1, 4) / sp.pi
                   * sp.Rational(math.factorial(l - am), math.factorial(l + am)))
    y = norm * sp.assoc_legendre(l, am, sp.cos(theta))
    if m == 0:
        return y
    return sp.sqrt(2) * y * (sp.cos(am * phi) if m > 0 else sp.sin(am * phi))


def _sympy_chart(spec, u, v):
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


def _oracle_nodes(grid):
    # about 20 nodes, the first and last rows among them
    rows = [0, 1, grid.nu // 2, grid.nu - 2, grid.nu - 1]
    cols = [0, 3, 7, 12]
    return [int(grid.flat(i, j)) for i in rows for j in cols]


def _assert_matches_oracle(spec, components=slice(None)):
    u, v = sp.symbols("u v", real=True)
    derivs = {"0": sp.Matrix(_sympy_chart(spec, u, v)[components])}
    for key in BUNDLE_KEYS[1:]:
        derivs[key] = derivs[key[:-1] or "0"].diff(u if key[-1] == "u" else v)
    surface = ss.build(spec)
    bundle, grid = surface.bundle(), surface.grid
    nodes = _oracle_nodes(grid)
    uu, vv = grid.mesh()
    keys = BUNDLE_KEYS
    with mpmath.workdps(ORACLE_DIGITS):
        fn = sp.lambdify((u, v), [derivs[key] for key in keys], "mpmath")
        exact = np.array([[[float(x) for x in d] for d in fn(uu[n], vv[n])]
                          for n in nodes])
    for order in range(4):
        in_order = [i for i, key in enumerate(keys) if len(key.strip("0")) == order]
        scale = np.max(np.abs(exact[:, in_order]))
        for i in in_order:
            got = bundle[keys[i]][nodes][:, components]
            err = np.max(np.abs(got - exact[:, i]))
            assert err <= 1e-13 * scale, (spec.label, keys[i], err / scale)


@pytest.mark.parametrize("spec", [
    ss.clifford_torus((16, 16)),
    ss.flat_torus(0.6, (16, 16)),
    ss.perturbed_torus(0.7, 0.05, 3, (16, 16)),
    ss.geodesic_sphere(1.1, (16, 16)),
    ss.slice_shape("cosh", 0.3, (16, 16)),
    ss.graph_over_slice("cosh", 0.2, "Y3,1", 0.05, (16, 16)),
], ids=lambda s: s.kind)
def test_catalog_bundles_match_a_30_digit_oracle(spec):
    _assert_matches_oracle(spec)


@pytest.mark.parametrize("key", ss.registered_perturbations())
def test_harmonic_graph_bundles_match_a_30_digit_oracle(key):
    # amplitude 1 over the product ambient, so the t component's bundle
    # entries are the harmonic's own derivatives
    _assert_matches_oracle(ss.graph_over_slice("product", 0.0, key, 1.0, (16, 16)),
                           components=slice(0, 1))
