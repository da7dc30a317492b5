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
from stabspec.charts import JetChart, _jet_cos, _jet_sin
from stabspec.errors import AssemblyError
from stabspec.grids import torus_grid
from stabspec.surfaces import Sphere3

SHAPES = [
    ss.clifford_torus((12, 12)),
    ss.flat_torus(0.6, (12, 12)),
    ss.geodesic_sphere(1.0, (12, 12)),
    ss.slice_shape("cosh", 0.3, (12, 12)),
    ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05, (12, 12)),
    ss.perturbed_torus(0.7, 0.05, 3, (12, 12)),
]


def _pencil(spec):
    s = ss.build(spec)
    f = ss.compute_geometry(s, want_gauss=False)
    return s, f, ss.assemble(s, f)


@pytest.mark.parametrize("spec", SHAPES, ids=lambda s: s.label)
def test_operator_is_exactly_symmetric(spec):
    _, _, p = _pencil(spec)
    diff = (p.stiffness_minus_potential
            - p.stiffness_minus_potential.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


@pytest.mark.parametrize("spec", SHAPES, ids=lambda s: s.label)
def test_constant_vector_reproduces_potential(spec):
    # stiffness rows sum to zero, so A 1 = -q . (M 1) exactly
    _, _, p = _pencil(spec)
    ones = np.ones(p.node_count)
    lhs = p.stiffness_minus_potential @ ones
    rhs = -p.potential * (p.mass @ ones)
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
    _, _, p0 = _pencil(ss.clifford_torus((16, 16)))
    # the Jacobi pencil with its potential raised by c: (A - c M, M)
    pc = dataclasses.replace(
        p0, stiffness_minus_potential=(p0.stiffness_minus_potential - c * p0.mass).tocsr(),
        potential=p0.potential + c)
    e0 = ss.smallest_eigenpairs(p0, 5).eigenvalues
    ec = ss.smallest_eigenpairs(pc, 5).eigenvalues
    # raising the potential by c lowers every eigenvalue by c
    np.testing.assert_allclose(ec, e0 - c, atol=1e-12 * (1 + abs(c)) * 5)


def test_degenerate_mass_is_rejected():
    s = ss.build(ss.clifford_torus((8, 8)))
    f = ss.compute_geometry(s, want_gauss=False)
    bad = dataclasses.replace(
        f, area_element=np.where(np.arange(s.node_count) == 5, 0.0,
                                 f.area_element))
    with pytest.raises(AssemblyError) as err:
        ss.assemble(s, bad)
    assert "5" in str(err.value)


def test_permuting_nodes_preserves_the_spectrum(rng):
    _, _, p = _pencil(ss.flat_torus(0.55, (12, 12)))
    e0 = ss.smallest_eigenpairs(p, 4).eigenvalues
    perm = rng.permutation(p.node_count)
    P = sp_sparse.csr_matrix(
        (np.ones(p.node_count), (np.arange(p.node_count), perm)),
        shape=(p.node_count, p.node_count))
    shuffled = ss.OperatorPencil(
        stiffness_minus_potential=(
            P @ p.stiffness_minus_potential @ P.T).tocsr(),
        mass=(P @ p.mass @ P.T).tocsr(),
        potential=np.asarray(p.potential)[perm],
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
        s = ss.ImmersedSurface(Sphere3(), chart, torus_grid(n, n))
        f = ss.compute_geometry(s, want_gauss=False)
        assert np.max(np.abs(f.metric[:, 0, 1] - 0.5)) < 1e-13
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
    # in the pole rows; summing it as S + (C + C^T) keeps A == A^T exactly
    spec = ss.graph_over_slice("cosh", 0.275005, "Y3,1", 0.048658, (128, 128))
    _, _, p = _pencil(spec)
    a = p.stiffness_minus_potential
    assert (a != a.T).nnz == 0


def test_rayleigh_quotient_of_constants_is_mean_potential():
    _, _, p = _pencil(ss.clifford_torus((12, 12)))
    assert ss.rayleigh(p, np.ones(p.node_count)) == pytest.approx(-4.0,
                                                                  rel=1e-13)
