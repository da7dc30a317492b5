"""Grid bookkeeping, difference stencils, and chart evaluation.

Independent oracle for the Taylor-jet charts: each catalog chart written
out again in sympy (`oracles.sympy_chart`), differentiated symbolically and
evaluated at 30 digits.
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

from oracles import (
    ORACLE_DIGITS,
    d1_by_kron,
    flat,
    mesh,
    registered_perturbations,
    sympy_chart,
)


def test_torus_grid_layout():
    g = torus_grid(8, 12)
    assert g.periodic_u
    assert g.node_count == 96
    assert g.du == pytest.approx(2 * math.pi / 8)
    assert g.dv == pytest.approx(2 * math.pi / 12)
    assert flat(g, 2, 3) == 2 * 12 + 3
    u, v = mesh(g)
    assert u.shape == (96,)
    assert u[flat(g, 5, 7)] == pytest.approx(g.u[5])
    assert v[flat(g, 5, 7)] == pytest.approx(g.v[7])
    with pytest.raises(DomainError, match="^torus grid needs at least 8"):
        torus_grid(4, 8)


def test_sphere_grid_is_cell_centered_in_latitude():
    g = sphere_grid(10, 16)
    assert not g.periodic_u
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
    with pytest.raises(DomainError, match="^sphere grid needs at least 8"):
        sphere_grid(16, 4)


def test_d1_sparse_matches_diff_field():
    # d1_sparse against the analytic derivative of the same wave: on a
    # periodic grid of spacing h the centered second-order stencil takes
    # cos(k x + c) to -k sin(k x + c) * sin(k h) / (k h), exactly
    g = torus_grid(16, 16)
    u, v = mesh(g)
    field = np.cos(u + 2 * v)
    for axis, k, h in ((0, 1, g.du), (1, 2, g.dv)):
        got = g.d1_sparse(axis) @ field
        exact = -k * np.sin(u + 2 * v)
        np.testing.assert_allclose(got, exact * np.sin(k * h) / (k * h), atol=1e-12)
    # along theta of a sphere grid the one-sided end rows, like the central
    # ones, differentiate a quadratic exactly
    g = sphere_grid(12, 8)
    theta, _ = mesh(g)
    np.testing.assert_allclose(g.d1_sparse(0) @ theta**2, 2 * theta, atol=1e-12)


@pytest.mark.parametrize("make", [torus_grid, sphere_grid])
@pytest.mark.parametrize("shape", [(8, 8), (12, 8), (9, 16), (33, 20), (64, 64)])
def test_d1_sparse_is_the_item_assignment_build(make, shape):
    g = make(*shape)
    for axis in (0, 1):
        got, want = g.d1_sparse(axis), d1_by_kron(g, axis)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def test_symbolic_chart_derivatives_are_exact():
    c = 1 / math.sqrt(2)
    chart = JetChart(lambda u, v: (c * _jet_cos(u), c * _jet_sin(u),
                                   c * _jet_cos(v), c * _jet_sin(v)))
    g = torus_grid(8, 8)
    b = chart.evaluate(g)
    u, _ = mesh(g)
    np.testing.assert_allclose(b["u"][:, 0], -np.sin(u) / math.sqrt(2),
                               atol=1e-15)
    np.testing.assert_allclose(b["uu"][:, 0], -np.cos(u) / math.sqrt(2),
                               atol=1e-15)
    assert set(b) == {"0", "u", "v", "uu", "uv", "vv"}


def test_bundle_keys_stop_at_second_order():
    assert BUNDLE_KEYS == ("0", "u", "v", "uu", "uv", "vv")


def _harmonic_values(l, m, th, ph):
    theta, phi = np.zeros((2, len(BUNDLE_KEYS), th.size))
    theta[0], phi[0] = th, ph
    return real_sph_harm(l, m, theta, phi)[0]


def test_real_spherical_harmonics_are_orthonormal():
    g = sphere_grid(48, 48)
    th, ph = mesh(g)
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


def _oracle_nodes(grid):
    # about 20 nodes, the first and last rows among them
    rows = [0, 1, grid.nu // 2, grid.nu - 2, grid.nu - 1]
    cols = [0, 3, 7, 12]
    return [int(flat(grid, i, j)) for i in rows for j in cols]


def _assert_matches_oracle(spec, components=slice(None)):
    u, v = sp.symbols("u v", real=True)
    derivs = {"0": sp.Matrix(sympy_chart(spec, u, v)[components])}
    for key in BUNDLE_KEYS[1:]:
        derivs[key] = derivs[key[:-1] or "0"].diff(u if key[-1] == "u" else v)
    surface = ss.build(spec)
    # the chart on the full grid, where balancing reads it
    bundle, grid = surface.chart.evaluate(surface.grid), surface.grid
    nodes = _oracle_nodes(grid)
    uu, vv = mesh(grid)
    keys = BUNDLE_KEYS
    with mpmath.workdps(ORACLE_DIGITS):
        fn = sp.lambdify((u, v), [derivs[key] for key in keys], "mpmath")
        exact = np.array([[[float(x) for x in d] for d in fn(uu[n], vv[n])]
                          for n in nodes])
    for order in range(3):
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


@pytest.mark.parametrize("key", registered_perturbations())
def test_harmonic_graph_bundles_match_a_30_digit_oracle(key):
    # amplitude 1 over the product ambient, so the t component's bundle
    # entries are the harmonic's own derivatives
    _assert_matches_oracle(ss.graph_over_slice("product", 0.0, key, 1.0, (16, 16)),
                           components=slice(0, 1))
