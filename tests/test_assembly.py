"""Discrete operator assembly: structural identities and convergence.

The load-bearing checks are exact identities the finite-volume construction
satisfies by design (symmetry, constant-vector action, potential shifts) and
a convergence test through a sheared parametrization that activates the
off-diagonal metric coupling.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp_sparse

import stabspec as ss
import stabspec.assembly as assembly
from stabspec.charts import JetChart, _jet_cos, _jet_sin
from stabspec.cli import main as cli_main
from stabspec.eigen import _circulant_parts
from stabspec.errors import AssemblyError
from stabspec.grids import torus_grid

from oracles import along_v, dense_coupling

SHAPES = [
    ss.clifford_torus((12, 12)),
    ss.flat_torus(0.6, (12, 12)),
    ss.geodesic_sphere(1.0, (12, 12)),
    ss.slice_shape("cosh", 0.3, (12, 12)),
    ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05, (12, 12)),
    ss.perturbed_torus(0.7, 0.05, 3, (12, 12)),
]
# non-zonal graphs, whose off-diagonal metric adds the cross term C + C^T
CROSSED = [pytest.param(ss.graph_over_slice(w, 0.3, y, 0.05, (n, n)), id=f"{w}-{y}-{n}")
           for w, y in (("cosh", "Y2,1"), ("cosh", "Y3,-2"), ("product", "Y4,-4"))
           for n in (12, 24)]


def _pencil(spec):
    s = ss.build(spec)
    f = ss.compute_geometry(s, want_gauss=False)
    return s, f, ss.assemble(s, f)


@pytest.mark.parametrize("spec", SHAPES + CROSSED, ids=lambda s: s.label)
def test_operator_is_exactly_symmetric(spec):
    _, _, p = _pencil(spec)
    # the cross term widens the 5-point stencil to 9 points
    assert (p.stiffness_minus_potential.nnz > 5 * p.node_count) == all(
        spec is not s for s in SHAPES)
    diff = (p.stiffness_minus_potential
            - p.stiffness_minus_potential.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


@pytest.mark.parametrize("spec", SHAPES + CROSSED, ids=lambda s: s.label)
def test_constant_vector_reproduces_potential(spec):
    # stiffness rows sum to zero, so A 1 = -q . (M 1) exactly
    _, _, p = _pencil(spec)
    ones = np.ones(p.node_count)
    lhs = p.stiffness_minus_potential @ ones
    rhs = -p.potential * p.mass_diagonal
    scale = np.max(np.abs(rhs)) + 1.0
    np.testing.assert_allclose(lhs, rhs, atol=5e-13 * scale)


def test_zero_potential_gives_nonnegative_laplacian(rng):
    # the Laplacian is the Jacobi operator with its potential added back
    _, _, p = _pencil(ss.flat_torus(0.6, (12, 12)))
    lap = p.stiffness_minus_potential + sp_sparse.diags(p.potential * p.mass_diagonal)
    ones = np.ones(p.node_count)
    assert np.max(np.abs(lap @ ones)) < 1e-13
    for _ in range(10):
        u = rng.standard_normal(p.node_count)
        assert u @ (lap @ u) > -1e-10


def test_mass_matrix_is_total_area():
    s, f, p = _pencil(ss.clifford_torus((16, 16)))
    assert p.mass_diagonal.sum() == pytest.approx(2 * math.pi**2, rel=1e-13)
    assert np.min(p.mass_diagonal) > 0


def test_shifted_spectrum_identity():
    c = 2.5
    s, f, p0 = _pencil(ss.clifford_torus((16, 16)))
    # the Jacobi pencil with its potential raised by c: (A - c M, M) up to
    # round-off, still invariant along v
    pc = ss.assemble(s, dataclasses.replace(f, ricci_normal=f.ricci_normal + c))
    assert pc.invariant_along_v
    np.testing.assert_allclose(
        (pc.stiffness_minus_potential - p0.stiffness_minus_potential).diagonal(),
        -c * p0.mass_diagonal, rtol=0, atol=1e-13 * c)
    e0 = ss.smallest_eigenpairs(p0, 5).eigenvalues
    ec = ss.smallest_eigenpairs(pc, 5).eigenvalues
    # raising the potential by c lowers every eigenvalue by c
    np.testing.assert_allclose(ec, e0 - c, atol=1e-12 * (1 + abs(c)) * 5)


def test_degenerate_mass_is_rejected():
    s = ss.build(ss.clifford_torus((8, 8)))
    f = ss.compute_geometry(s, want_gauss=False)
    # the fields are the meridian's: meridian node 5 is grid node 5 * nv
    bad = dataclasses.replace(
        f, area_element=np.where(np.arange(f.area_element.size) == 5, 0.0,
                                 f.area_element))
    with pytest.raises(AssemblyError) as err:
        ss.assemble(s, bad)
    assert f"node {5 * s.grid.nv}" in str(err.value)


def test_permuting_nodes_preserves_the_spectrum(rng):
    _, _, p = _pencil(ss.flat_torus(0.55, (12, 12)))
    e0 = ss.smallest_eigenpairs(p, 4).eigenvalues
    perm = rng.permutation(p.node_count)
    P = sp_sparse.csr_matrix(
        (np.ones(p.node_count), (np.arange(p.node_count), perm)),
        shape=(p.node_count, p.node_count))
    shuffled = ss.OperatorPencil(
        csr=(P @ p.stiffness_minus_potential @ P.T).tocsr(),
        mass=p.mass_diagonal[perm],
        q=np.asarray(p.potential)[perm],
    )
    e1 = ss.smallest_eigenpairs(shuffled, 4).eigenvalues
    np.testing.assert_allclose(e1, e0, atol=1e-10)


def test_sheared_chart_activates_mixed_coupling_and_converges():
    # same Clifford torus, parametrized with a shear so the inverse metric
    # picks up off-diagonal terms; the spectrum must stay (-4, -2 x4)
    c = math.sqrt(2) / 2
    chart = JetChart(lambda u, v: (c * _jet_cos(u), c * _jet_sin(u),
                                   c * _jet_cos(v + u), c * _jet_sin(v + u)))
    errs = []
    for n in (16, 32):
        s = ss.ImmersedSurface(chart, torus_grid(n, n))
        f = ss.compute_geometry(s, want_gauss=False)
        assert np.max(np.abs(f.metric_inv[1] + 2.0)) < 1e-13
        p = ss.assemble(s, f)
        sym = (p.stiffness_minus_potential
               - p.stiffness_minus_potential.T).tocoo()
        assert sym.nnz == 0 or np.max(np.abs(sym.data)) == 0.0
        ev = ss.smallest_eigenpairs(p, 5).eigenvalues
        assert ev[0] == pytest.approx(-4.0, abs=5e-2)
        errs.append(np.max(np.abs(ev[1:5] - (-2.0))))
    assert errs[1] < errs[0] / 3


def test_non_zonal_graph_keeps_exact_symmetry_through_the_poles():
    # the one-sided theta stencil makes the cross term couple phi-neighbours
    # in the pole rows; summing it as S + (C + C^T) keeps A == A^T exactly,
    # where (S + C) + C^T leaves 4 entries of this graph's A one ulp apart
    spec = ss.graph_over_slice("cosh", 0.0, "Y3,1", 0.05, (12, 12))
    _, _, p = _pencil(spec)
    a = p.stiffness_minus_potential
    assert (a != a.T).nnz == 0


def test_each_invariance_condition_is_checked():
    # the pencil of a surface marked as a surface of revolution is invariant
    # along v; the same chart unmarked, or the pencil built by hand, is not
    # (a marked chart with a cross term: tests/test_eigen.py)
    s = ss.build(ss.clifford_torus((16, 16)))
    f = ss.compute_geometry(s, want_gauss=False)
    p = ss.assemble(s, f)
    assert p.invariant_along_v
    assert not ss.OperatorPencil(p.stiffness_minus_potential, p.mass_diagonal, p.potential,
                                 p.grid).invariant_along_v  # built by hand
    unmarked = ss.ImmersedSurface(s.chart, s.grid)
    unmarked_fields = ss.compute_geometry(unmarked, want_gauss=False)
    assert not ss.assemble(unmarked, unmarked_fields).invariant_along_v
    # a pencil holds A or the meridian it is formed from, never both or neither
    for csr, meridian in ((None, None), (p.stiffness_minus_potential, p.meridian)):
        with pytest.raises(ss.DomainError):
            ss.OperatorPencil(csr, p.mass_diagonal, p.potential, p.grid, meridian)


def _coo_reference(s, f):
    """A summed the long way: two-point face triplets per axis through COO,
    the cross term D_u^T diag(gamma w) D_v plus its transpose, then the
    potential subtracted as a sparse diagonal."""
    grid = s.grid
    sqrtg = f.area_element / grid.cell_weight
    idx = np.arange(s.node_count).reshape(grid.nu, grid.nv)
    faces = []
    for coeff, ratio, axis, periodic in (
            (sqrtg * f.metric_inv[0], grid.dv / grid.du, 0, grid.periodic_u),
            (sqrtg * f.metric_inv[2], grid.du / grid.dv, 1, True)):
        left, right = idx, np.roll(idx, -1, axis=axis)
        if not periodic:
            left, right = left[:-1], right[:-1]
        li, ri = left.ravel(), right.ravel()
        c = 0.5 * (coeff[li] + coeff[ri]) * ratio
        faces.append(sp_sparse.coo_matrix(
            (np.concatenate([c, c, -c, -c]),
             (np.concatenate([li, ri, li, ri]), np.concatenate([li, ri, ri, li]))),
            shape=(s.node_count,) * 2))
    stiffness = faces[0] + faces[1]
    gamma = sqrtg * f.metric_inv[1]
    scale = np.mean(sqrtg * (f.metric_inv[0] + f.metric_inv[2]))
    if np.max(np.abs(gamma)) > 1e-14 * scale:  # a cross term above round-off
        cross = (grid.d1_sparse(0).T @ sp_sparse.diags(gamma * grid.cell_weight)
                 @ grid.d1_sparse(1)).tocsr()
        stiffness = stiffness + (cross + cross.T)
    q = f.sigma_sq + f.ricci_normal
    return (stiffness - sp_sparse.diags(q * f.area_element)).tocsr()


def _sheared_torus(nu, nv):
    c = math.sqrt(2) / 2
    chart = JetChart(lambda u, v: (c * _jet_cos(u), c * _jet_sin(u),
                                   c * _jet_cos(v + u), c * _jet_sin(v + u)))
    return ss.ImmersedSurface(chart, torus_grid(nu, nv))


# marked surfaces of revolution, whose A is formed from the meridian when read
MARKED = [pytest.param(ss.build(make(res)), False, id=f"{name}-{res[0]}x{res[1]}")
          for name, make in (("flat-torus", lambda res: ss.flat_torus(0.6, res)),
                             ("clifford", ss.clifford_torus),
                             ("sphere", lambda res: ss.geodesic_sphere(1.0, res)),
                             ("slice", lambda res: ss.slice_shape("cosh", 0.3, res)),
                             ("zonal-Y30", lambda res: ss.graph_over_slice(
                                 "cosh", 0.3, "Y3,0", 0.05, res)))
          for res in ((9, 16), (16, 8), (24, 24), (24, 15), (17, 9))]


@pytest.mark.parametrize("surface, crossed", [
    (ss.build(ss.clifford_torus((12, 8))), False),
    (ss.build(ss.perturbed_torus(0.7, 0.05, 3, (8, 12))), False),
    (ss.build(ss.geodesic_sphere(1.0, (9, 16))), False),
    (ss.build(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (9, 16))), True),
    (_sheared_torus(12, 8), True),
    # odd numbers of v nodes
    (ss.build(ss.perturbed_torus(0.7, 0.05, 3, (16, 15))), False),
    (ss.build(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (15, 9))), True),
    *MARKED,
], ids=["torus-12x8", "varying-torus-8x12", "sphere-9x16", "crossed-Y21-9x16",
        "crossed-torus-12x8", "varying-torus-16x15", "crossed-Y21-15x9",
        *(case.id for case in MARKED)])
def test_csr_writer_matches_the_coo_face_sum(surface, crossed):
    # the 5-point CSR writer against the face triplets summed through COO,
    # bit for bit: same rows, same sorted columns, same values, no zeros
    f = ss.compute_geometry(surface, want_gauss=False)
    pencil = ss.assemble(surface, f)
    assert pencil.invariant_along_v == (surface.revolution and not crossed)
    got = pencil.stiffness_minus_potential
    want = _coo_reference(surface, along_v(f))
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
    assert got.has_sorted_indices and np.all(got.data != 0.0)
    per_row = np.diff(got.indptr)
    assert (np.max(per_row) > 5) == crossed
    if not crossed:
        # 5 points per row; on a sphere grid the first and last latitude
        # rows have no face towards the pole
        nv = surface.grid.nv
        ends = 5 if surface.grid.periodic_u else 4
        assert set(per_row[:nv]) == set(per_row[-nv:]) == {ends}
        assert set(per_row[nv:-nv]) == {5}
    if pencil.invariant_along_v:
        # the CSR formed from the meridian is the one written on the
        # repeated N-node fields, and the meridian's (T, w, d) are the rows
        # at v index 0 sliced from it
        full = ss.assemble(ss.ImmersedSurface(surface.chart, surface.grid), along_v(f))
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part),
                                          getattr(full.stiffness_minus_potential, part))
        nv, head = surface.grid.nv, got[::surface.grid.nv]
        t, w, d = _circulant_parts(pencil)
        # a sphere grid's T is kept as its diagonals
        assert isinstance(t, np.ndarray) == surface.grid.periodic_u
        for x, y in zip((dense_coupling(t), w, d),
                        (head[:, ::nv].toarray(), head[:, 1::nv].diagonal(),
                         pencil.mass_diagonal[::nv])):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("args, formed", [
    (["check", "t13", "shape=slice", "warping=cosh", "t0=0.3", "resolutions=8,12,18"], 0),
    (["converge", "shape=geodesic-sphere", "rho=1.0", "resolutions=8,12,18"], 0),
    (["balance-bound", "shape=geodesic-sphere", "rho=1.0", "resolution=24"], 1),
    (["check", "t13", "shape=graph-over-slice", "warping=cosh", "t0=0.3",
      "perturbation=Y2,1", "amplitude=0.05", "resolutions=12,24"], 2),
], ids=["slice-ladder", "sphere-ladder", "sphere-balance", "non-zonal-ladder"])
def test_the_n_node_csr_is_formed_only_where_it_is_read(tmp_path, monkeypatch, args, formed):
    # a ladder of invariant pencils forms no N-node CSR; balancing reads A
    # once per op (its rayleigh), and a non-zonal graph forms one per rung
    calls = []
    real = assembly._layout

    def counted(*parts):
        calls.append(parts)
        return real(*parts)

    monkeypatch.setattr(assembly, "_layout", counted)
    assert cli_main(args + ["--out", str(tmp_path)]) == 0
    assert len(calls) == formed


def test_rayleigh_quotient_of_constants_is_mean_potential():
    _, _, p = _pencil(ss.clifford_torus((12, 12)))
    assert ss.rayleigh(p, np.ones(p.node_count)) == pytest.approx(-4.0,
                                                                  rel=1e-13)


def test_rayleigh_of_a_block_is_the_aggregate_quotient(rng):
    _, _, p = _pencil(ss.flat_torus(0.6, (12, 12)))
    A, M = p.stiffness_minus_potential.toarray(), np.diag(p.mass_diagonal)
    u = rng.standard_normal((p.node_count, 4))
    want = np.trace(u.T @ A @ u) / np.trace(u.T @ M @ u)
    assert ss.rayleigh(p, u) == pytest.approx(want, rel=1e-12)
    assert ss.rayleigh(p, u[:, :1]) == pytest.approx(ss.rayleigh(p, u[:, 0]), rel=1e-14)
    for bad in (u[:-1], u[None], np.zeros((p.node_count, 2))):
        with pytest.raises(ss.DomainError):
            ss.rayleigh(p, bad)
