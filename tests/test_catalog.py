"""Catalog builders and closed-form spectra.

Independent oracle for the flat tori: the stability operator diagonalizes in
a double Fourier basis, so its second eigenvalue reduces algebraically to
-max(1/r^2, 1/(1-r^2)).  The catalog's box enumeration must reproduce that
for every radius, and the frozen leading eigenvalues below were derived from
the same closed forms by hand.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stabspec as ss
from stabspec.errors import ConfigError, DomainError
from stabspec.grids import NodeMap

from oracles import full_grid, registered_perturbations


# ------------------------------------------------------------ frozen spectra


def test_clifford_spectrum_leading_eigenvalues():
    vals = ss.exact_jacobi_spectrum(ss.clifford_torus(), 9)
    np.testing.assert_allclose(vals, [-4, -2, -2, -2, -2, 0, 0, 0, 0],
                               atol=1e-12)


def test_equatorial_sphere_spectrum():
    vals = ss.exact_jacobi_spectrum(ss.geodesic_sphere(math.pi / 2), 9)
    np.testing.assert_allclose(vals, [-2, 0, 0, 0, 4, 4, 4, 4, 4],
                               atol=1e-12)


def test_geodesic_sphere_spectrum_general_radius():
    rho = 1.1
    vals = ss.exact_jacobi_spectrum(ss.geodesic_sphere(rho), 4)
    lam = lambda l: l * (l + 1) / math.sin(rho) ** 2 \
        - 2 / math.tan(rho) ** 2 - 2
    np.testing.assert_allclose(vals, [lam(0), lam(1), lam(1), lam(1)],
                               rtol=1e-13)


def test_product_slice_spectrum():
    vals = ss.exact_jacobi_spectrum(ss.slice_shape("product", 0.0), 4)
    np.testing.assert_allclose(vals, [0, 2, 2, 2], atol=1e-12)


def test_cosh_slice_spectrum_at_center():
    vals = ss.exact_jacobi_spectrum(ss.slice_shape("cosh", 0.0), 9)
    np.testing.assert_allclose(vals, [2, 4, 4, 4, 8, 8, 8, 8, 8],
                               atol=1e-12)


def test_flat_torus_spectrum_value():
    # lambda2(0.6) = -1/(1-0.36) * 1/0.36 * 0.36 ... = -1/0.36 = -2.7778
    vals = ss.exact_jacobi_spectrum(ss.flat_torus(0.6), 3)
    assert vals[0] == pytest.approx(-1 / (0.36 * 0.64), rel=1e-13)
    assert vals[1] == pytest.approx(-1 / 0.36, rel=1e-13)
    assert vals[2] == pytest.approx(-1 / 0.36, rel=1e-13)


# ------------------------------------------------- algebraic property routes


@given(st.floats(0.25, 0.95))
def test_flat_torus_lambda2_equals_minus_max_curvature_rate(r):
    # independent algebra: with a = 1/r^2, b = 1/(1-r^2) the potential is
    # q = a + b and the modes are m^2 a + k^2 b - q, so lambda2 = -max(a, b)
    a, b = 1 / r**2, 1 / (1 - r**2)
    vals = ss.exact_jacobi_spectrum(ss.flat_torus(r), 2)
    assert vals[0] == pytest.approx(-(a + b), rel=1e-12)
    assert vals[1] == pytest.approx(-max(a, b), rel=1e-12)


@given(st.floats(0.25, 0.95))
def test_flat_torus_lambda2_at_most_minus_two(r):
    lam2 = ss.exact_jacobi_spectrum(ss.flat_torus(r), 2)[1]
    assert lam2 <= -2 + 1e-12
    if abs(r - 1 / math.sqrt(2)) > 1e-3:
        assert lam2 < -2 - 1e-6


def test_flat_torus_equality_exactly_at_square_torus():
    lam2 = ss.exact_jacobi_spectrum(ss.flat_torus(1 / math.sqrt(2)), 2)[1]
    assert lam2 == pytest.approx(-2.0, abs=1e-12)


@given(st.floats(0.3, math.pi - 0.3))
def test_geodesic_sphere_lambda2_is_zero_for_every_radius(rho):
    vals = ss.exact_jacobi_spectrum(ss.geodesic_sphere(rho), 2)
    assert vals[1] == pytest.approx(0.0, abs=1e-10)


def test_spectrum_enumeration_is_complete_prefix():
    # a larger request must extend, not reorder, a smaller one
    small = ss.exact_jacobi_spectrum(ss.flat_torus(0.52), 6)
    large = ss.exact_jacobi_spectrum(ss.flat_torus(0.52), 24)
    np.testing.assert_allclose(small, large[:6], rtol=1e-14)
    assert np.all(np.diff(large) >= -1e-14)


# -------------------------------------------------------------- shape specs


def test_shape_spec_labels_and_resolutions():
    spec = ss.flat_torus(0.6, (32, 48))
    assert spec.resolution == (32, 48)
    assert "0.6" in spec.label
    s = ss.build(spec)
    assert (s.grid.nu, s.grid.nv) == (32, 48)
    assert s.node_count == 32 * 48


def test_build_covers_every_catalog_kind():
    specs = [
        ss.clifford_torus((8, 8)),
        ss.flat_torus(0.5, (8, 8)),
        ss.geodesic_sphere(1.0, (8, 8)),
        ss.slice_shape("cosh", 0.2, (8, 8)),
        ss.graph_over_slice("cosh", 0.2, "Y2,0", 0.05, (8, 8)),
        ss.perturbed_torus(0.7, 0.05, 3, (8, 8)),
    ]
    for spec in specs:
        s = ss.build(spec)
        assert s.node_count == 64
        f = ss.compute_geometry(s, want_gauss=False)
        assert np.all(np.isfinite(f.area_element))


# surfaces of revolution about v: every node an ambient isometry image of its
# meridian node, so the chart is evaluated on the meridian and, to check
# the mark, the next v column
REVOLUTION = [
    ss.clifford_torus(),
    ss.flat_torus(0.6),
    ss.geodesic_sphere(1.0),
    *(ss.slice_shape(w, t0) for w, t0 in (("product", 0.3), ("sphere", 1.2),
                                          ("hyperbolic", 1.0), ("euclidean", 1.0),
                                          ("cosh", 0.3))),
    ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05),
    ss.graph_over_slice("sphere", 1.2, "Y3,0", 0.05),
    ss.perturbed_torus(0.7, 0.0, 3),
    ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.0),
]


def _per_node(f):
    """(name, array, error scale) of every per-node field, the ambient's
    Ricci data among them.  The scale is the largest magnitude, and at least
    1 for the curvatures, which vanish on minimal and flat surfaces."""
    fields = {**vars(f), **vars(f.ambient_curvature)}
    return [(name, a, np.max(np.abs(a)) if name == "area_element"
             else max(1.0, np.max(np.abs(a))))
            for name, a in fields.items() if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("resolution", [(16, 16), (12, 20)], ids=str)
@pytest.mark.parametrize("spec", REVOLUTION, ids=lambda s: s.label)
def test_surfaces_of_revolution_repeat_their_meridian(spec, resolution):
    s = ss.build(replace(spec, resolution=resolution))
    nu, nv = resolution
    assert (s.chart_grid.nu, s.chart_grid.nv) == (nu, 2)
    assert s.bundle()["0"].shape == (2 * nu, 4)
    f = ss.compute_geometry(s)
    oracle = full_grid(s)
    g = ss.compute_geometry(oracle)
    # the repeated meridian fields are exactly constant along v
    for (name, got, _), (_, want, scale) in zip(_per_node(f), _per_node(g)):
        assert got.shape == want.shape, name
        assert np.all(got.reshape(-1, nu, nv) == got.reshape(-1, nu, nv)[..., :1]), name
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
    # the unmarked full-grid oracle takes the sparse path
    pencil, full = ss.assemble(s, f), ss.assemble(oracle, g)
    assert pencil.invariant_along_v and not full.invariant_along_v
    reduced, sparse = ss.smallest_eigenpairs(pencil, 4), ss.smallest_eigenpairs(full, 4)
    assert (reduced.method, sparse.method) == ("reduced", "sparse")
    np.testing.assert_allclose(reduced.eigenvalues, sparse.eigenvalues, rtol=0, atol=1e-8)


@pytest.mark.parametrize("spec", [
    ss.perturbed_torus(0.7, 0.05, 3, (12, 20)),
    ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (12, 20)),
    ss.graph_over_slice("product", 0.3, "Y3,-2", 0.05, (12, 20)),
], ids=lambda s: s.label)
def test_other_shapes_keep_the_full_grid(spec):
    s = ss.build(spec)
    assert s.chart_grid is s.grid
    assert not ss.assemble(s, ss.compute_geometry(s, want_gauss=False)).invariant_along_v


# (perturbation, grid) -> the maps `build` declares: the phi-mirror where the
# grid carries it, then the theta-mirror (l + m even), the half-turn (m even)
# or the antipodal map (l even), whichever comes first and the grid carries
FLIP_U, HALF_TURN = NodeMap(flip_u=True), NodeMap(shift=8)
DECLARED = [
    ("Y3,1", (16, 16), (NodeMap(flip_v=True), FLIP_U)),
    ("Y3,-2", (16, 16), (NodeMap(flip_v=True, shift=4), HALF_TURN)),
    ("Y4,-3", (16, 16), (NodeMap(flip_v=True, shift=8), NodeMap(flip_u=True, shift=8))),
    ("Y2,1", (16, 16), (NodeMap(flip_v=True), NodeMap(flip_u=True, shift=8))),
    ("Y2,-2", (16, 16), (NodeMap(flip_v=True, shift=4), FLIP_U)),
    ("Y4,-4", (16, 16), (NodeMap(flip_v=True, shift=2), FLIP_U)),
    ("Y2,-2", (16, 18), (FLIP_U,)),  # 4 divides no odd multiple of 18
    ("Y4,-4", (16, 12), (FLIP_U,)),
    ("Y2,1", (16, 15), (NodeMap(flip_v=True),)),  # odd nv: no antipodal map
    ("Y3,-2", (16, 15), ()),
]


@pytest.mark.parametrize("pert, resolution, maps", DECLARED,
                         ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else None)
def test_graphs_declare_the_maps_their_grid_carries(pert, resolution, maps):
    s = ss.build(ss.graph_over_slice("cosh", 0.3, pert, 0.05, resolution))
    assert s.maps == maps
    f = ss.compute_geometry(s, want_gauss=False)  # checks each map
    for m in maps:
        image = m.image(s.grid)
        assert np.array_equal(np.sort(image), np.arange(s.node_count))
        assert np.array_equal(image[image], np.arange(s.node_count))  # an involution
        np.testing.assert_allclose(f.sigma_sq[image], f.sigma_sq, rtol=1e-13)
        np.testing.assert_allclose(f.metric_inv[1][image], m.cross_sign * f.metric_inv[1],
                                   rtol=0, atol=1e-13 * np.max(np.abs(f.metric_inv)))
    # surfaces of revolution and flat graphs declare none
    for spec in (ss.graph_over_slice("cosh", 0.3, pert, 0.0, resolution),
                 ss.graph_over_slice("cosh", 0.3, "Y3,0", 0.05, resolution)):
        assert ss.build(spec).maps == ()


@pytest.mark.parametrize("want_gauss", [True, False])
def test_a_wrong_revolution_mark_is_refused(want_gauss):
    # a perturbed torus is no surface of revolution: the fields of its first
    # two v columns differ by 5.677e-01, where marked shapes agree to 4e-14;
    # trusted, the mark would give a wrong reduced spectrum
    s = ss.build(ss.perturbed_torus(0.7, 0.05, 3, (24, 24)))
    marked = ss.ImmersedSurface(s.chart, s.grid, revolution=True)
    with pytest.raises(DomainError, match="is not one") as err:
        ss.compute_geometry(marked, want_gauss)
    assert err.value.exit_code == 2


def test_the_grid_owns_the_resolution_floor():
    # a spec does not restate the floor; building its grid refuses it
    spec = ss.flat_torus(0.6, (4, 8))
    with pytest.raises(DomainError, match="^torus grid needs at least 8") as err:
        ss.build(spec)
    assert err.value.exit_code == 2


def test_points_of_a_surface_of_revolution_hold_the_values_alone():
    # and those of a full-grid graph: a copy the caller owns either way, since
    # a view into a kept bundle would let a write to the points corrupt it
    for spec in (ss.geodesic_sphere(1.0, (16, 16)),
                 ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16))):
        s = ss.build(spec)
        ss.compute_geometry(s)
        points = s.points()
        assert points.shape == (256, 4) and points.flags.c_contiguous
        assert points.base is None  # not a view keeping the full-grid bundle alive
        np.testing.assert_array_equal(points, s.chart.evaluate(s.grid)["0"])


def test_graph_spectrum_has_no_closed_form():
    with pytest.raises(DomainError):
        ss.exact_jacobi_spectrum(
            ss.graph_over_slice("cosh", 0.0, "Y2,0", 0.1), 2)
    with pytest.raises(DomainError):
        ss.exact_jacobi_spectrum(ss.perturbed_torus(0.7, 0.05), 2)


# ----------------------------------------------------- perturbation registry


def test_perturbation_registry_contents():
    names = registered_perturbations()
    assert len(names) == 25  # all degrees l <= 4
    for l in range(5):
        for m in range(-l, l + 1):
            assert f"Y{l},{m}" in names


def test_perturbation_degree_and_order_limits():
    with pytest.raises((ConfigError, DomainError)):
        ss.build(ss.graph_over_slice("cosh", 0.0, "Y5,0", 0.01, (8, 8)))
    with pytest.raises((ConfigError, DomainError)):
        ss.build(ss.graph_over_slice("cosh", 0.0, "Y2,3", 0.01, (8, 8)))
    with pytest.raises((ConfigError, DomainError)):
        ss.build(ss.graph_over_slice("cosh", 0.0, "bogus", 0.01, (8, 8)))


def test_graph_amplitude_must_stay_inside_interval():
    # the first reader of the chart refuses it, with the interval's message
    surface = ss.build(ss.graph_over_slice("cosh", 1.9, "Y2,0", 0.5, (12, 12)))
    with pytest.raises(DomainError, match=r"t outside the domain \[-2.0, 2.0\]"):
        ss.compute_geometry(surface)


def test_perturbed_torus_radius_validation():
    with pytest.raises(DomainError):
        ss.perturbed_torus(0.9, 0.2)  # r + eps exceeds 1
    with pytest.raises(DomainError):
        ss.perturbed_torus(0.1, 0.2)  # r - eps is nonpositive


def test_geodesic_sphere_radius_validation():
    with pytest.raises(DomainError):
        ss.build(ss.geodesic_sphere(0.0, (8, 8)))
    with pytest.raises(DomainError):
        ss.build(ss.geodesic_sphere(math.pi, (8, 8)))


def test_flat_torus_radius_validation():
    for r in (0.0, 1.0, -0.3):
        with pytest.raises(DomainError):
            ss.build(ss.flat_torus(r, (8, 8)))
