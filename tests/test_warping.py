"""Warped-ambient curvature and slice-spectrum tests.

The independent oracle here is generic tensor calculus in sympy: build the
3-metric dt^2 + h(t)^2 (dtheta^2 + sin^2 theta dphi^2), grind out Christoffel
symbols and the Ricci tensor from first principles, and compare against the
closed-form expressions used by the package.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

import stabspec.warping as W
from stabspec.errors import DomainError

from oracles import H_EXPRS, ambient_ricci, slice_data, slice_lambda2

NAMED = sorted(W.BUILTIN_WARPINGS)


@functools.lru_cache(maxsize=None)
def _oracle_curvature(name: str):
    """Ricci data of dt^2 + h^2 g_{S^2} via generic Christoffel machinery."""
    t, th, ph, c = sp.symbols("t theta phi c", real=True)
    h = H_EXPRS[name](t)
    x = (t, th, ph)
    g = sp.diag(1, h**2, h**2 * sp.sin(th) ** 2)
    ginv = g.inv()
    dim = 3
    gamma = [[[
        sum(
            ginv[i, l]
            * (sp.diff(g[l, j], x[k]) + sp.diff(g[l, k], x[j])
               - sp.diff(g[j, k], x[l]))
            for l in range(dim)
        ) / 2
        for k in range(dim)
    ] for j in range(dim)] for i in range(dim)]
    ric = sp.zeros(dim)
    for j in range(dim):
        for k in range(dim):
            term = sp.Integer(0)
            for i in range(dim):
                term += sp.diff(gamma[i][j][k], x[i])
                term -= sp.diff(gamma[i][j][i], x[k])
                for p in range(dim):
                    term += gamma[i][i][p] * gamma[p][j][k]
                    term -= gamma[i][k][p] * gamma[p][j][i]
            ric[j, k] = sp.simplify(term)
    assert sp.simplify(ric[0, 1]) == 0 and sp.simplify(ric[0, 2]) == 0
    scalar = sp.simplify(sum(ginv[i, i] * ric[i, i] for i in range(dim)))
    # unit normal nu = c d/dt + sqrt(1-c^2)/h d/dtheta
    s = sp.sqrt(1 - c**2)
    ric_dir = sp.simplify(c**2 * ric[0, 0] + (s / h) ** 2 * ric[1, 1])
    subs = {th: sp.pi / 3}
    return (
        sp.lambdify(t, ric[0, 0].subs(subs), "numpy"),
        sp.lambdify(t, sp.simplify(ric[1, 1] / g[1, 1]).subs(subs), "numpy"),
        sp.lambdify(t, scalar.subs(subs), "numpy"),
        sp.lambdify((t, c), ric_dir.subs(subs), "numpy"),
    )


def _interior_points(w, count=7):
    lo, hi = w.interval
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)


@pytest.mark.parametrize("name", NAMED)
def test_ambient_ricci_matches_tensor_calculus_oracle(name):
    w = W.builtin_warping(name)
    ric_tt, ric_tan, scalar, ric_dir = _oracle_curvature(name)
    for t in _interior_points(w):
        amb = ambient_ricci(w, t)
        assert amb.ricci_tt == pytest.approx(float(ric_tt(t)), abs=1e-11)
        assert amb.ricci_tangential == pytest.approx(
            float(ric_tan(t)), abs=1e-11)
        assert amb.scalar == pytest.approx(float(scalar(t)), abs=1e-11)
        for c in (1.0, 0.0, 0.6, -0.8):
            assert W.ricci_direction(amb, c) == pytest.approx(
                float(ric_dir(t, c)), abs=1e-11)


def test_ambient_ricci_accepts_arrays():
    w = W.builtin_warping("cosh")
    t = np.array([-0.5, 0.0, 0.7])
    amb = ambient_ricci(w, t)
    assert amb.ricci_tt.shape == t.shape
    np.testing.assert_allclose(amb.ricci_tt, -2.0, atol=1e-14)
    np.testing.assert_allclose(amb.scalar, -6.0 + 4.0 / np.cosh(t) ** 2,
                               atol=1e-12)


def test_frozen_curvature_values():
    # values pinned from the tensor-calculus oracle above
    cases = {
        "sphere": (2.0, 2.0, 6.0),
        "hyperbolic": (-2.0, -2.0, -6.0),
        "euclidean": (0.0, 0.0, 0.0),
        "product": (0.0, 1.0, 2.0),
    }
    for name, (tt, tan, sc) in cases.items():
        w = W.builtin_warping(name)
        t = _interior_points(w, 3)
        amb = ambient_ricci(w, t)
        np.testing.assert_allclose(amb.ricci_tt, tt, atol=1e-12)
        np.testing.assert_allclose(amb.ricci_tangential, tan, atol=1e-12)
        np.testing.assert_allclose(amb.scalar, sc, atol=1e-12)


def test_convexity_condition_closed_forms():
    t = 0.3
    cosh = W.builtin_warping("cosh")
    assert W.convexity_condition(cosh, t) == pytest.approx(
        2.0 / math.cosh(t) ** 2, rel=1e-14)
    assert W.convexity_condition(W.builtin_warping("product"), t) == 1.0
    for flat_name in ("sphere", "hyperbolic", "euclidean"):
        w = W.builtin_warping(flat_name)
        vals = [W.convexity_condition(w, ti) for ti in _interior_points(w)]
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)


def test_slice_lambda2_equals_first_band():
    # dual route: n * convexity versus the k = 1 entry of the band formula
    for name in NAMED:
        w = W.builtin_warping(name)
        for t in _interior_points(w):
            assert slice_lambda2(w, t) == pytest.approx(
                W.slice_eigenvalue_band(w, t, 1), rel=1e-13, abs=1e-13)


def test_slice_value_is_the_ricci_gap():
    # n * convexity = n/(n-1) (Ric_tan - Ric_tt), the route the t12/t13 bounds take
    n = W.SPHERE_DIM
    poly = W.polynomial_warping([1.5, 0.3, 0.4, -0.1], (-1.0, 1.0))
    for w in [W.builtin_warping(name) for name in NAMED] + [poly]:
        t = _interior_points(w)
        np.testing.assert_allclose(W.slice_lambda2_from_ricci(ambient_ricci(w, t)),
                                   n * W.convexity_condition(w, t), rtol=0, atol=1e-12)


def test_slice_band_closed_forms():
    cosh = W.builtin_warping("cosh")
    for k in range(4):
        assert W.slice_eigenvalue_band(cosh, 0.0, k) == pytest.approx(
            k * (k + 1) + 2.0, abs=1e-13)
    prod = W.builtin_warping("product")
    for k in range(4):
        assert W.slice_eigenvalue_band(prod, 1.3, k) == pytest.approx(
            k * (k + 1), abs=1e-13)
    sphere = W.builtin_warping("sphere")
    for k in range(4):
        assert W.slice_eigenvalue_band(sphere, math.pi / 2, k) == (
            pytest.approx(k * (k + 1) - 2.0, abs=1e-13))


def test_slice_spectrum_orders_bands_with_multiplicity():
    w = W.builtin_warping("cosh")
    np.testing.assert_allclose(W.slice_spectrum(w, 0.0, 6),
                               [2, 4, 4, 4, 8, 8], atol=1e-13)
    np.testing.assert_allclose(
        W.slice_spectrum(W.builtin_warping("sphere"), math.pi / 2, 5),
        [-2, 0, 0, 0, 4], atol=1e-13)


def test_harmonic_multiplicity_on_the_two_sphere():
    for k in range(6):
        assert W.harmonic_multiplicity(k) == 2 * k + 1


def test_condition_strictness_locates_minimum():
    w = W.builtin_warping("cosh")
    value, arg = W.condition_strictness(w)
    assert value == pytest.approx(2.0 / math.cosh(2.0) ** 2, rel=1e-6)
    assert abs(arg) == pytest.approx(2.0, abs=1e-6)
    v2, _ = W.condition_strictness(w, t_range=(-0.5, 0.5))
    assert v2 == pytest.approx(2.0 / math.cosh(0.5) ** 2, rel=1e-6)
    vneg, _ = W.condition_strictness(W.builtin_warping("sphere"))
    assert vneg <= 1e-12


@given(st.sampled_from(NAMED), st.floats(0.05, 0.95))
def test_derivatives_match_finite_differences(name, frac):
    w = W.builtin_warping(name)
    lo, hi = w.interval
    pad = 0.06 * (hi - lo)
    t = lo + pad + frac * (hi - lo - 2 * pad)
    eps = 1e-5 * max(1.0, abs(t))
    fd1 = (w.h(t + eps) - w.h(t - eps)) / (2 * eps)
    fd2 = (w.h(t + eps) - 2 * w.h(t) + w.h(t - eps)) / eps**2
    assert w.dh(t) == pytest.approx(fd1, rel=1e-7, abs=1e-7)
    assert w.d2h(t) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


def test_slice_data_bundle_is_consistent():
    w = W.builtin_warping("cosh")
    d = slice_data(w, 0.4)
    ratio = math.sinh(0.4) / math.cosh(0.4)
    assert d.mean_curv == pytest.approx(ratio, rel=1e-14)
    assert d.sigma_sq == pytest.approx(2 * ratio**2, rel=1e-14)
    assert d.ricci_normal == pytest.approx(-2.0, rel=1e-14)


def test_polynomial_and_trigonometric_builders():
    poly = W.polynomial_warping([1.0, 0.0, 0.5], interval=(-1.0, 1.0))
    assert poly.h(0.5) == pytest.approx(1.125)
    assert poly.dh(0.5) == pytest.approx(0.5)
    assert poly.d2h(0.5) == pytest.approx(1.0)


def test_positivity_screen_rejects_vanishing_profiles():
    with pytest.raises(DomainError):
        W.polynomial_warping([0.0, 1.0], interval=(-1.0, 1.0))


def test_require_inside_raises_outside_interval():
    w = W.builtin_warping("cosh")
    w.require_inside(0.0)
    with pytest.raises(DomainError):
        w.require_inside(5.0)
    with pytest.raises(DomainError):
        w.require_inside(np.array([0.0, 2.5]))


def test_unknown_builtin_name_raises():
    with pytest.raises(DomainError):
        W.builtin_warping("paraboloid")
