"""Eigensolver guarantees: residuals, orthonormality, and path agreement."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp_sparse

import stabspec as ss
from stabspec.eigen import cluster_indices, eigenvalue_multiplicity
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


def test_dense_and_sparse_paths_agree():
    s = ss.build(ss.clifford_torus((24, 24)))
    f = ss.compute_geometry(s, want_gauss=False)
    p = ss.assemble(s, f)
    dense = ss.smallest_eigenpairs(p, 6, method="dense")
    sparse = ss.smallest_eigenpairs(p, 6, method="sparse")
    assert dense.method == "dense" and sparse.method == "sparse"
    np.testing.assert_allclose(dense.eigenvalues, sparse.eigenvalues,
                               atol=1e-8)


def test_auto_method_switches_on_problem_size():
    small = ss.build(ss.clifford_torus((12, 12)))
    fs = ss.compute_geometry(small, want_gauss=False)
    assert ss.smallest_eigenpairs(ss.assemble(small, fs), 3).method == "dense"
    big = ss.build(ss.clifford_torus((48, 48)))
    fb = ss.compute_geometry(big, want_gauss=False)
    assert ss.smallest_eigenpairs(ss.assemble(big, fb), 3).method == "sparse"


def test_window_that_cuts_a_cluster_is_widened():
    # the flat torus' four-fold eigenvalue 0 sits at places 6-9, so a window
    # of six pairs cuts it; at this radius the cut pairs stay unconverged
    s = ss.build(ss.flat_torus(0.775594, (64, 64)))
    p = ss.assemble(s, ss.compute_geometry(s, want_gauss=False))
    sp_ = ss.smallest_eigenpairs(p, 6, tol=1e-9)
    assert sp_.method == "sparse" and sp_.k == 6
    assert float(np.max(sp_.residuals)) <= 1e-9
    gram = sp_.eigenvectors.T @ (p.mass @ sp_.eigenvectors)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
    wide = ss.smallest_eigenpairs(p, 12, tol=1e-9)
    np.testing.assert_allclose(sp_.eigenvalues, wide.eigenvalues[:6], atol=1e-10)


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
    n = 40
    diag = np.arange(n, dtype=float)
    p = ss.OperatorPencil(
        stiffness_minus_potential=sp_sparse.diags(diag).tocsr(),
        mass=sp_sparse.identity(n, format="csr"),
        node_count=n,
        potential=np.zeros(n),
    )
    got = ss.smallest_eigenpairs(p, 4).eigenvalues
    np.testing.assert_allclose(got, [0, 1, 2, 3], atol=1e-12)


def test_unreachable_tolerance_raises_with_residuals(solve):
    sol = solve(ss.clifford_torus((10, 10)), k=2)
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(sol.pencil, 2, tol=1e-300)
    assert err.value.residuals is not None


def test_cluster_detection_helpers():
    vals = np.array([-4.0, -2.0, -2.0 + 1e-9, -2.0 + 2e-9, 0.5])
    assert cluster_indices(vals, rel_tol=1e-6) == [[0], [1, 2, 3], [4]]
    assert eigenvalue_multiplicity(vals, 1) == 3
    assert eigenvalue_multiplicity(vals, 0) == 1
    assert eigenvalue_multiplicity(vals, 4) == 1


def test_multiplicity_of_clifford_lambda2(solve):
    sol = solve(ss.clifford_torus((24, 24)), k=6)
    vals = sol.spectrum.eigenvalues
    assert eigenvalue_multiplicity(vals, 1) == 4
