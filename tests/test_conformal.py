"""Conformal dilations, balancing, and the variational bound.

Oracles used here:
- the dilation as stereographic conjugation, from `oracles`, against the
  package's projective action of a Lorentz boost;
- group structure of the dilations (fixed points, inverses, the
  velocity-addition law for collinear parameters, two boosts composing to
  a rotation after one boost), checked to rounding;
- finite differences for conformality of the differential;
- construct-and-invert for the balancing solver: displace a balanced mass
  distribution by a known dilation and demand recovery of its inverse;
- the closed-form balancing dilation of an off-center geodesic sphere;
- the conformal image of a surface, from `oracles`: its chart composes the
  base chart's jets with the dilation written on jets, independently of
  `mobius_apply`.  The inverse dilation returns the base bundle, order 0
  reproduces `mobius_apply`, the jet reciprocal matches the Taylor series
  of 1/(1 + w), the image's curvatures satisfy the Gauss equation against
  Brioschi's formula on the dilated sympy chart, and the image keeps the
  conformal invariants (Willmore integral, Dirichlet energy equal to
  twice the image area).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import stabspec as ss
from stabspec import charts, conformal, harness
from stabspec.charts import BUNDLE_KEYS
from stabspec.errors import (
    DomainError,
    NonConvergenceError,
    UnsupportedAmbientError,
)

from oracles import (
    area,
    conformal_willmore_invariant,
    dirichlet_energy_check,
    gauss_equation_residual,
    jet_reciprocal,
    mobius_image_surface,
    stereographic_dilation,
    sympy_chart,
    willmore_type_inequality_check,
)


def _param(*vals):
    return ss.MobiusParam(np.asarray(vals, dtype=float))


def _sphere_cloud(rng, n=64):
    x = rng.standard_normal((n, 4))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ------------------------------------------------------------ dilation basics


def test_identity_dilation_is_exact(rng):
    x = _sphere_cloud(rng)
    np.testing.assert_array_equal(ss.mobius_apply(_param(0, 0, 0, 0), x), x)


def test_dilation_preserves_the_sphere(rng):
    x = _sphere_cloud(rng)
    y = ss.mobius_apply(_param(0.3, -0.5, 0.1, 0.4), x)
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-14)


def test_inverse_parameter_undoes_the_map(rng):
    a = _param(0.45, 0.2, -0.3, 0.1)
    x = _sphere_cloud(rng)
    back = ss.mobius_apply(ss.MobiusParam(-a.a), ss.mobius_apply(a, x))
    np.testing.assert_allclose(back, x, atol=1e-13)


def test_collinear_composition_follows_velocity_addition(rng):
    # dilations along one axis compose like hyperbolic velocity addition
    e = np.array([0.0, 1.0, 0.0, 0.0])
    for alpha, beta in [(0.3, 0.4), (0.7, -0.5), (-0.2, -0.6)]:
        gamma = (alpha + beta) / (1 + alpha * beta)
        x = _sphere_cloud(rng)
        two_step = ss.mobius_apply(ss.MobiusParam(beta * e),
                                   ss.mobius_apply(ss.MobiusParam(alpha * e), x))
        one_step = ss.mobius_apply(ss.MobiusParam(gamma * e), x)
        np.testing.assert_allclose(two_step, one_step, atol=1e-13)


def test_dilation_fixes_its_axis_poles():
    a = _param(0.6, 0.0, 0.0, 0.0)
    poles = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    np.testing.assert_allclose(ss.mobius_apply(a, poles), poles, atol=1e-14)


def test_differential_is_conformal(rng):
    a = _param(0.35, -0.15, 0.2, 0.05)
    eps = 1e-6
    for _ in range(10):
        x = _sphere_cloud(rng, 1)[0]
        # orthonormal tangent pair at x
        t1 = rng.standard_normal(4)
        t1 -= x * (x @ t1)
        t1 /= np.linalg.norm(t1)
        t2 = rng.standard_normal(4)
        t2 -= x * (x @ t2) + t1 * (t1 @ t2)
        t2 /= np.linalg.norm(t2)

        def push(t):
            plus = (x + eps * t) / np.linalg.norm(x + eps * t)
            minus = (x - eps * t) / np.linalg.norm(x - eps * t)
            return (ss.mobius_apply(a, plus[None]) -
                    ss.mobius_apply(a, minus[None]))[0] / (2 * eps)

        j1, j2 = push(t1), push(t2)
        n1, n2 = np.linalg.norm(j1), np.linalg.norm(j2)
        assert n1 == pytest.approx(n2, rel=1e-6)
        assert abs(j1 @ j2) <= 1e-6 * n1 * n2


@pytest.mark.parametrize("magnitude", [0.1, 0.5, 0.9])
def test_the_lorentz_action_matches_the_stereographic_oracle(rng, magnitude):
    # both formulas lose digits where the map stretches most, next to the
    # repelling pole -a/|a|, by the stretch (1 + |a|)/(1 - |a|): 19 at 0.9
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(4)
        a = ss.MobiusParam(magnitude * d / np.linalg.norm(d))
        x = _sphere_cloud(rng, 256)
        want = np.stack(stereographic_dilation(a, x.T), axis=1)
        worst = max(worst, float(np.max(np.abs(ss.mobius_apply(a, x) - want))))
    assert worst <= 4e-15 * (1 + magnitude) / (1 - magnitude)


def test_two_dilations_compose_to_a_rotation_after_one_dilation(rng):
    # L(b) L(a) = R L(a') with R a rotation fixing e5 and a' read off the
    # product's last row, which is all balancing keeps of a composed step.
    # Round-off grows with the product's entries, L(a)[4, 4] L(b)[4, 4]:
    # below 1e-13 for |a|, |b| <= 0.7
    e5 = np.eye(5)[4]
    x = _sphere_cloud(rng)
    for _ in range(20):
        a, b = (ss.MobiusParam(rng.uniform(0, 0.9) * d / np.linalg.norm(d))
                for d in rng.standard_normal((2, 4)))
        la, lb = conformal._boost(a.a), conformal._boost(b.a)
        tol = 1e-14 * la[4, 4] * lb[4, 4]
        product = lb @ la
        composed = ss.MobiusParam(product[4, :4] / (1 + product[4, 4]))
        rotation = product @ conformal._boost(-composed.a)
        np.testing.assert_allclose(rotation[4], e5, rtol=0, atol=tol)
        np.testing.assert_allclose(rotation[:, 4], e5, rtol=0, atol=tol)
        q = rotation[:4, :4]
        np.testing.assert_allclose(q.T @ q, np.eye(4), rtol=0, atol=tol)
        np.testing.assert_allclose(ss.mobius_apply(b, ss.mobius_apply(a, x)),
                                   ss.mobius_apply(composed, x) @ q.T, rtol=0, atol=tol)


def test_parameter_validation():
    with pytest.raises(DomainError):
        _param(1.0, 0, 0, 0)
    with pytest.raises(DomainError):
        _param(0.8, 0.8, 0, 0)
    with pytest.raises(DomainError):
        ss.MobiusParam(np.array([np.nan, 0, 0, 0]))
    with pytest.raises(DomainError):
        ss.mobius_apply(_param(0.2, 0, 0, 0), 1.5 * np.eye(4))
    assert ss.MobiusParam(np.zeros(4)).magnitude == 0.0


def test_image_surface_requires_sphere_ambient():
    s = ss.build(ss.slice_shape("cosh", 0.0, (8, 8)))
    with pytest.raises(UnsupportedAmbientError):
        mobius_image_surface(s, _param(0.2, 0, 0, 0))


def test_image_surface_geometry_is_still_spherical():
    spec, a = ss.clifford_torus((16, 16)), _param(0.3, 0.0, 0.1, 0.0)
    s = ss.build(spec)
    si = mobius_image_surface(s, a)
    fi = ss.compute_geometry(si)
    chart = stereographic_dilation(a, sympy_chart(spec))
    assert gauss_equation_residual(chart, fi, si.grid) < 1e-10
    assert ss.euler_characteristic(fi) == 0
    assert area(fi) < 2 * math.pi**2  # dilations shrink the total area


def test_jet_reciprocal_matches_the_geometric_series():
    # x = 1 + w with w = u + 2v: 1/x = 1 - w + w^2 + O(3)
    w = np.zeros(len(BUNDLE_KEYS))
    w[[1, 2]] = 1.0, 2.0
    x = w.copy()
    x[0] = 1.0
    series = np.zeros(len(BUNDLE_KEYS))
    series[0] = 1.0
    term = np.zeros(len(BUNDLE_KEYS))
    term[0] = 1.0
    for sign in (-1.0, 1.0):
        term = charts._jet_mul(term, w)
        series += sign * term
    np.testing.assert_allclose(jet_reciprocal(x), series, atol=1e-15)
    # and the coefficients of w^2: u^2 + 4uv + 4v^2
    np.testing.assert_array_equal(charts._jet_mul(w, w)[3:6], [1.0, 4.0, 4.0])


@pytest.mark.parametrize("spec", [
    ss.clifford_torus((16, 16)),
    ss.perturbed_torus(0.7, 0.05, 3, (16, 16)),
    ss.geodesic_sphere(1.0, (16, 16)),
], ids=lambda s: s.label)
def test_jet_image_round_trip_and_order_zero(spec):
    s = ss.build(spec)
    a = _param(0.3, -0.1, 0.2, 0.25)
    image = mobius_image_surface(s, a)
    np.testing.assert_allclose(image.bundle()["0"],
                               ss.mobius_apply(a, s.points()),
                               rtol=0, atol=1e-14)
    # an image of an image: the inverse dilation returns the base bundle
    back = mobius_image_surface(image, ss.MobiusParam(-a.a)).bundle()
    base = s.chart.evaluate(s.grid)
    for key in BUNDLE_KEYS:
        # relative to the largest derivative of the same order
        scale = max(np.max(np.abs(base[k])) for k in base if len(k) == len(key))
        assert np.max(np.abs(back[key] - base[key])) <= 1e-12 * scale, key


# ----------------------------------------------------------------- balancing


def test_centered_shapes_balance_at_zero(solve):
    for spec in (ss.clifford_torus((16, 16)), ss.flat_torus(0.6, (16, 16)),
                 ss.geodesic_sphere(math.pi / 2, (16, 16))):
        sol = solve(spec, k=2)
        f1 = sol.spectrum.eigenvectors[:, 0]
        a, _, _ = ss.hersch_balance(sol.surface, sol.fields, f1)
        assert a.magnitude <= 1e-9


def test_balance_recovers_a_known_displacement(solve):
    # move a balanced distribution by a dilation, keep the original weights,
    # and ask the solver to undo it: it must return the inverse parameter
    sol = solve(ss.clifford_torus((20, 20)), k=2)
    a0 = _param(0.3, 0.1, -0.2, 0.0)
    moved = mobius_image_surface(sol.surface, a0)
    recovered, _, _ = ss.hersch_balance(moved, sol.fields,
                                        np.ones(sol.surface.node_count))
    np.testing.assert_allclose(recovered.a, -a0.a, atol=1e-8)


def test_balance_residual_definition(solve):
    sol = solve(ss.geodesic_sphere(1.0, (16, 16)), k=2)
    f1 = sol.spectrum.eigenvectors[:, 0]
    a, balanced, returned = ss.hersch_balance(sol.surface, sol.fields, f1)
    w = np.maximum(f1, 0.0) * sol.fields.area_element
    y = ss.mobius_apply(a, sol.surface.points())
    resid = np.linalg.norm(w @ y) / w.sum()
    assert resid <= 1e-9
    # the frame handed on is the dilation's, measured the same way
    np.testing.assert_array_equal(balanced, y)
    assert returned == pytest.approx(resid, rel=0, abs=1e-15)


@pytest.mark.parametrize("rho", [0.3, 2.8])
def test_balance_small_and_near_antipodal_spheres(solve, rho):
    # the area measure of a geodesic sphere balances under the axial
    # dilation with |a| = |1 - tan(rho/2)| / (1 + tan(rho/2))
    sol = solve(ss.geodesic_sphere(rho, (48, 48)), k=2)
    f1 = sol.spectrum.eigenvectors[:, 0]
    a, _, _ = ss.hersch_balance(sol.surface, sol.fields, np.abs(f1))
    t = math.tan(rho / 2)
    assert a.magnitude == pytest.approx(abs(1 - t) / (1 + t), abs=1e-6)
    np.testing.assert_allclose(np.abs(a.a[:3]), 0.0, atol=1e-9)


def test_a_balanced_bound_applies_few_dilations(monkeypatch):
    # Newton in the moving frame applies one dilation per trial step (a
    # finite-difference Jacobian took 30-49 per op), and the bound is taken
    # on the frame balancing stopped at: no dilation outside the balancing,
    # and the chart values are read once per op
    calls, points, balancing = [], [], []
    real_apply, real_balance = conformal.mobius_apply, conformal.hersch_balance
    real_points = ss.ImmersedSurface.points

    def applied(param, x):
        calls.append(bool(balancing))
        return real_apply(param, x)

    def balanced(*args):
        balancing.append(True)
        try:
            return real_balance(*args)
        finally:
            balancing.pop()

    def read(self):
        points.append(self)
        return real_points(self)

    monkeypatch.setattr(conformal, "mobius_apply", applied)
    monkeypatch.setattr(conformal, "hersch_balance", balanced)
    monkeypatch.setattr(ss.ImmersedSurface, "points", read)
    for rho in (0.5, 0.7, 1.0, 2.0, 2.4):
        calls.clear()
        points.clear()
        harness.balance_bound_scenario(ss.geodesic_sphere(rho), 48)
        assert 1 <= len(calls) <= 10 and all(calls), rho
        assert len(points) == 1, rho


def test_balance_rejects_bad_weights(solve):
    sol = solve(ss.clifford_torus((12, 12)), k=2)
    n = sol.surface.node_count
    with pytest.raises(DomainError):
        ss.hersch_balance(sol.surface, sol.fields, np.zeros(n))
    with pytest.raises(DomainError):
        ss.hersch_balance(sol.surface, sol.fields, -np.ones(n))
    with pytest.raises(DomainError):
        ss.hersch_balance(sol.surface, sol.fields, np.ones(n - 1))


def test_point_mass_cannot_be_balanced(solve):
    sol = solve(ss.clifford_torus((12, 12)), k=2)
    w = np.zeros(sol.surface.node_count)
    w[17] = 1.0
    with pytest.raises(NonConvergenceError) as err:
        ss.hersch_balance(sol.surface, sol.fields, w)
    assert err.value.residuals is not None


# ----------------------------------------------------- quadrature invariants


def test_willmore_integral_is_conformally_invariant(solve):
    sol = solve(ss.clifford_torus((24, 24)), k=2)
    base = float(np.sum((sol.fields.sigma_sq - 2 * sol.fields.mean_curv**2)
                        * sol.fields.area_element))
    assert base == pytest.approx(4 * math.pi**2, rel=1e-12)
    vals = [conformal_willmore_invariant(sol.surface, _param(*a))
            for a in [(0, 0, 0, 0), (0.2, 0, 0, 0), (0.0, 0.4, 0, 0),
                      (0.25, -0.2, 0.1, 0.0)]]
    np.testing.assert_allclose(vals, base, rtol=1e-12)


def test_willmore_invariance_on_a_non_minimal_torus(solve):
    sol = solve(ss.flat_torus(0.6, (24, 24)), k=2)
    f = sol.fields
    base = float(np.sum((f.sigma_sq - 2 * f.mean_curv**2) * f.area_element))
    r, rho2 = 0.6, 1 - 0.36
    pointwise = (0.64 / 0.36 + 0.36 / 0.64) - 2 * ((1 - 2 * r * r) ** 2
                                                   / (4 * r * r * rho2))
    assert base == pytest.approx(pointwise * 4 * math.pi**2 * r
                                 * math.sqrt(rho2), rel=1e-12)
    moved = conformal_willmore_invariant(sol.surface,
                                            _param(0.3, 0.0, -0.2, 0.1))
    assert moved == pytest.approx(base, rel=1e-12)


def test_dirichlet_energy_equals_twice_image_area(solve):
    sol = solve(ss.clifford_torus((20, 20)), k=2)
    for a in [(0, 0, 0, 0), (0.2, 0, 0, 0), (0.3, -0.1, 0.0, 0.2)]:
        energy, twice_area = dirichlet_energy_check(sol.surface,
                                                       _param(*a))
        assert energy == pytest.approx(twice_area, rel=1e-12)
    base_area = float(np.sum(sol.fields.area_element))
    _, twice_moved = dirichlet_energy_check(sol.surface,
                                               _param(0.3, 0, 0, 0))
    assert twice_moved < 2 * base_area


def test_willmore_type_inequality_with_equality_at_identity(solve):
    sol = solve(ss.clifford_torus((20, 20)), k=2)
    lhs0, rhs0 = willmore_type_inequality_check(sol.surface,
                                                   _param(0, 0, 0, 0))
    assert lhs0 == pytest.approx(rhs0, rel=1e-12)
    for a in [(0.2, 0, 0, 0), (0.0, -0.35, 0.1, 0.0)]:
        lhs, rhs = willmore_type_inequality_check(sol.surface, _param(*a))
        assert lhs >= rhs - 1e-12 * abs(lhs)
        # invariant in the continuum; discretely only up to quadrature error
        assert lhs == pytest.approx(lhs0, rel=1e-6)


# ------------------------------------------------------------ balanced bound


@pytest.mark.parametrize("spec", [
    ss.clifford_torus((20, 20)),
    ss.flat_torus(0.6, (20, 20)),
    ss.geodesic_sphere(math.pi / 2, (20, 20)),
    ss.perturbed_torus(0.7, 0.05, 3, (20, 20)),
], ids=lambda s: s.label)
def test_balanced_bound_dominates_lambda2(solve, spec):
    sol = solve(spec, k=2)
    bound = ss.balanced_bound_report(sol.surface, sol.fields, sol.pencil,
                                     sol.spectrum).bound
    assert bound >= sol.spectrum.eigenvalues[1] - 1e-8


def test_balanced_bound_is_tight_for_the_off_center_sphere(solve):
    # balancing pulls a non-equatorial sphere onto a great sphere, where the
    # coordinate functions are genuine second eigenfunctions
    sol = solve(ss.geodesic_sphere(1.0, (32, 32)), k=2)
    rep = ss.balanced_bound_report(sol.surface, sol.fields, sol.pencil,
                                   sol.spectrum)
    assert rep.param.magnitude > 0.1  # it genuinely moved
    gap = rep.bound - sol.spectrum.eigenvalues[1]
    assert -1e-8 <= gap <= 1e-2


def test_balanced_bound_is_the_quotient_of_dilated_coordinates(solve):
    sol = solve(ss.geodesic_sphere(1.0, (24, 24)), k=2)
    rep = ss.balanced_bound_report(sol.surface, sol.fields, sol.pencil,
                                   sol.spectrum)
    psi = ss.mobius_apply(rep.param, sol.surface.points())
    A, d = sol.pencil.stiffness_minus_potential, sol.pencil.mass_diagonal
    quotient = np.sum(psi * (A @ psi)) / np.sum(psi * (d[:, None] * psi))
    assert rep.bound == pytest.approx(quotient, rel=1e-14)
    # the bound is the pencil's one block quotient, not a copy of it
    assert rep.bound == ss.rayleigh(sol.pencil, psi)


def test_balancing_rejects_warped_ambient():
    s = ss.build(ss.slice_shape("cosh", 0.0, (8, 8)))
    f = ss.compute_geometry(s, want_gauss=False)
    with pytest.raises(UnsupportedAmbientError):
        ss.hersch_balance(s, f, np.ones(s.node_count))
