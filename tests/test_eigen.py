"""Eigensolver guarantees: residuals, orthonormality, and path agreement."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp_sparse

import stabspec as ss
from stabspec.eigen import (
    _invariant_along_v,
    _ritz_pairs,
    _solve_reduced,
    cluster_indices,
    eigenvalue_multiplicity,
)
from stabspec.errors import NonConvergenceError

CATALOG = [
    ss.clifford_torus((16, 16)),
    ss.flat_torus(0.6, (16, 16)),
    ss.geodesic_sphere(1.0, (16, 16)),
    ss.slice_shape("cosh", 0.3, (16, 16)),
    ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05, (16, 16)),
    ss.perturbed_torus(0.7, 0.05, 3, (16, 16)),
]


def test_eigenvalues_match_the_closed_form_catalog(solve):
    cases = [
        (ss.clifford_torus((24, 24)), [-4, -2, -2, -2, -2], 0.02),
        (ss.geodesic_sphere(math.pi / 2, (24, 24)), [-2, 0, 0, 0], 0.02),
        (ss.slice_shape("product", 0.0, (24, 24)), [0, 2, 2, 2], 0.02),
        (ss.slice_shape("cosh", 0.0, (24, 24)), [2, 4, 4, 4], 0.02),
    ]
    for spec, expected, tol in cases:
        got = solve(spec, k=len(expected)).spectrum.eigenvalues
        np.testing.assert_allclose(got, expected, atol=tol)


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.label)
def test_residuals_and_orthonormality(solve, spec):
    sol = solve(spec, k=5)
    p, sp_ = sol.pencil, sol.spectrum
    A, M = p.stiffness_minus_potential, p.mass
    V = sp_.eigenvectors
    scale = np.max(np.abs(A.data))
    for i, lam in enumerate(sp_.eigenvalues):
        r = A @ V[:, i] - lam * (M @ V[:, i])
        assert np.linalg.norm(r) <= 1e-9 * max(scale, abs(lam))
    gram = V.T @ (M @ V)
    np.testing.assert_allclose(gram, np.eye(V.shape[1]), atol=1e-10)
    assert np.all(np.asarray(sp_.residuals) >= 0)


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.label)
def test_ground_state_is_single_signed(solve, spec):
    sol = solve(spec, k=3)
    f1 = sol.spectrum.eigenvectors[:, 0]
    assert np.min(f1) > 0  # sign normalization puts the positive lobe up


def _pencil(spec):
    s = ss.build(spec)
    return ss.assemble(s, ss.compute_geometry(s, want_gauss=False))


@pytest.mark.parametrize("spec", [
    ss.clifford_torus((24, 24)),
    *(ss.graph_over_slice(w, 0.3, y, 0.05, (n, n))
      for w, y in (("cosh", "Y2,1"), ("product", "Y3,-2")) for n in (16, 32)),
], ids=lambda s: f"{s.label}-{s.resolution[0]}")
def test_dense_and_sparse_paths_agree(spec):
    p = _pencil(spec)
    dense = ss.smallest_eigenpairs(p, 6, method="dense")
    sparse = ss.smallest_eigenpairs(p, 6, method="sparse")
    assert dense.method == "dense" and sparse.method == "sparse"
    np.testing.assert_allclose(dense.eigenvalues, sparse.eigenvalues,
                               atol=1e-8)


def _diagonal_pencil(n):
    """diag(0, 1, ..., n - 1) against the identity mass, with no grid."""
    return ss.OperatorPencil(
        stiffness_minus_potential=sp_sparse.diags(np.arange(n, dtype=float)).tocsr(),
        mass=sp_sparse.identity(n, format="csr"),
        potential=np.zeros(n),
    )


def test_auto_method_switches_on_problem_size():
    # a pencil with no invariant axis takes the sparse path at every size,
    # one invariant along v the reduced path; only k >= n - 1 goes dense
    graph = lambda n: ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (n, n))
    for n in (12, 48):
        assert ss.smallest_eigenpairs(_pencil(graph(n)), 3).method == "sparse"
        clifford = _pencil(ss.clifford_torus((n, n)))
        assert ss.smallest_eigenpairs(clifford, 3).method == "reduced"
    dense = ss.smallest_eigenpairs(_diagonal_pencil(40), 39)
    assert dense.method == "dense"
    np.testing.assert_allclose(dense.eigenvalues, np.arange(39), atol=1e-12)


def test_window_that_cuts_a_cluster_is_widened():
    # the flat torus' four-fold eigenvalue 0 sits at places 6-9, so a window
    # of six pairs cuts it; at this radius the cut pairs stay unconverged
    s = ss.build(ss.flat_torus(0.775594, (64, 64)))
    p = ss.assemble(s, ss.compute_geometry(s, want_gauss=False))
    sp_ = ss.smallest_eigenpairs(p, 6, tol=1e-9, method="sparse")
    assert sp_.method == "sparse" and sp_.eigenvalues.size == 6
    assert float(np.max(sp_.residuals)) <= 1e-9
    gram = sp_.eigenvectors.T @ (p.mass @ sp_.eigenvectors)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
    wide = ss.smallest_eigenpairs(p, 12, tol=1e-9, method="sparse")
    np.testing.assert_allclose(sp_.eigenvalues, wide.eigenvalues[:6], atol=1e-10)


INVARIANT = [
    ss.flat_torus(0.6, (24, 32)),
    ss.geodesic_sphere(1.0, (32, 24)),
    ss.slice_shape("cosh", 0.3, (24, 24)),
    ss.graph_over_slice("cosh", 0.3, "Y3,0", 0.05, (32, 32)),
]


@pytest.mark.parametrize("spec", INVARIANT, ids=lambda s: s.label)
def test_reduced_dense_and_sparse_paths_agree(spec):
    p = _pencil(spec)
    A, M = p.stiffness_minus_potential, p.mass
    got = {m: ss.smallest_eigenpairs(p, 6, method=m) for m in ("auto", "dense", "sparse")}
    assert got["auto"].method == "reduced"
    for sp_ in got.values():
        np.testing.assert_allclose(sp_.eigenvalues, got["dense"].eigenvalues, atol=1e-10)
        V = sp_.eigenvectors
        np.testing.assert_allclose(V.T @ (M @ V), np.eye(6), atol=1e-10)
        for i, lam in enumerate(sp_.eigenvalues):
            r = A @ V[:, i] - lam * (M @ V[:, i])
            assert np.linalg.norm(r) / np.linalg.norm(M @ V[:, i]) <= 1e-9
        assert (eigenvalue_multiplicity(sp_.eigenvalues, 1)
                == eigenvalue_multiplicity(got["dense"].eigenvalues, 1))


@pytest.mark.parametrize("spec", [
    # r + eps cos(wave v) varies along v; the torus is invariant along u only
    ss.perturbed_torus(0.7, 0.05, 3, (24, 24)),
    ss.graph_over_slice("cosh", 0.3, "Y2,1", 1e-9, (24, 24)),
], ids=lambda s: s.label)
def test_pencil_varying_along_v_is_not_reduced(spec):
    p = _pencil(spec)
    assert _invariant_along_v(p) is None
    assert ss.smallest_eigenpairs(p, 4).method == "sparse"


def test_each_invariance_condition_is_checked():
    p = _pencil(ss.clifford_torus((16, 16)))
    A, M = p.stiffness_minus_potential, p.mass
    assert _invariant_along_v(p) is not None
    # one node's mass off by 1e-11: A is untouched, M is not invariant
    mass = M.diagonal().copy()
    mass[0] *= 1.0 + 1e-11
    assert _invariant_along_v(replace(p, mass=sp_sparse.diags(mass).tocsr())) is None
    # one coupling off the stencil, at 1e-11 of the largest entry
    size = 1e-11 * abs(A).max()
    stray = sp_sparse.coo_matrix(([size, size], ([0, 17], [17, 0])), shape=A.shape)
    assert _invariant_along_v(replace(p, stiffness_minus_potential=(A + stray).tocsr())) is None
    # an invariant pencil whose axis coupling is positive
    assert _invariant_along_v(replace(p, stiffness_minus_potential=(-A).tocsr())) is None


@pytest.mark.parametrize("r", [0.775594, math.sqrt(1.0 - 0.775594**2)])
def test_reduced_window_visits_modes_past_the_first(r):
    # both radii give the same spectrum; at the second, lambda_10 and
    # lambda_11 come from Fourier mode 2 along v
    p = _pencil(ss.flat_torus(r, (64, 64)))
    reduced = ss.smallest_eigenpairs(p, 12)
    assert reduced.method == "reduced"
    sparse = ss.smallest_eigenpairs(p, 12, method="sparse")
    np.testing.assert_allclose(reduced.eigenvalues, sparse.eigenvalues, atol=1e-10)


def test_reduced_window_holds_the_whole_cluster_it_cuts():
    # places 6-9 hold the four-fold eigenvalue 0; a window of six cuts it
    p = _pencil(ss.flat_torus(0.775594, (64, 64)))
    block = _solve_reduced(p.grid, _invariant_along_v(p), 6)
    assert block.shape[1] == 9
    vals, _, res = _ritz_pairs(p.stiffness_minus_potential, p.mass, 9, block)
    assert float(np.max(res)) <= 1e-9
    assert [len(g) for g in cluster_indices(vals)] == [1, 2, 2, 4]
    sp_ = ss.smallest_eigenpairs(p, 6, tol=1e-9)
    assert sp_.method == "reduced" and sp_.eigenvalues.size == 6
    np.testing.assert_allclose(sp_.eigenvalues, vals[:6], atol=1e-10)


def test_determinism_across_runs_and_seeds():
    s = ss.build(ss.flat_torus(0.55, (20, 20)))
    f = ss.compute_geometry(s, want_gauss=False)
    p = ss.assemble(s, f)
    a = ss.smallest_eigenpairs(p, 4, seed=0, method="sparse")
    b = ss.smallest_eigenpairs(p, 4, seed=0, method="sparse")
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    c = ss.smallest_eigenpairs(p, 4, seed=7, method="sparse")
    np.testing.assert_allclose(c.eigenvalues, a.eigenvalues, atol=1e-10)


def test_minmax_characterization_of_lambda2(solve, rng):
    sol = solve(ss.clifford_torus((20, 20)), k=2)
    p, sp_ = sol.pencil, sol.spectrum
    lam2 = sp_.eigenvalues[1]
    f1 = sp_.eigenvectors[:, 0]
    M = p.mass
    for _ in range(20):
        u = rng.standard_normal(p.node_count)
        u -= f1 * (f1 @ (M @ u))  # M-orthogonal to the ground state
        assert ss.rayleigh(p, u) >= lam2 - 1e-8


def test_diagonal_pencil_is_solved_exactly():
    got = ss.smallest_eigenpairs(_diagonal_pencil(40), 4).eigenvalues
    np.testing.assert_allclose(got, [0, 1, 2, 3], atol=1e-12)


def test_unreachable_tolerance_raises_with_residuals(solve):
    sol = solve(ss.clifford_torus((10, 10)), k=2)
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(sol.pencil, 2, tol=1e-300)
    assert err.value.residuals is not None


def test_cluster_detection_helpers():
    vals = np.array([-4.0, -2.0, -2.0 + 1e-9, -2.0 + 2e-9, 0.5])
    assert cluster_indices(vals) == [[0], [1, 2, 3], [4]]
    assert eigenvalue_multiplicity(vals, 1) == 3
    assert eigenvalue_multiplicity(vals, 0) == 1
    assert eigenvalue_multiplicity(vals, 4) == 1


def test_multiplicity_of_clifford_lambda2(solve):
    sol = solve(ss.clifford_torus((24, 24)), k=6)
    vals = sol.spectrum.eigenvalues
    assert eigenvalue_multiplicity(vals, 1) == 4
