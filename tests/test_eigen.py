"""Eigensolver guarantees: residuals, orthonormality, and path agreement.

A test that needs the sparse path on a pencil invariant along v says so in
the data, `replace(pencil, invariant_along_v=False)`; both paths are
checked against the dense oracle `oracles.dense_window`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp_sparse

import stabspec as ss
import stabspec.eigen as eigen
from stabspec.assembly import INVARIANCE_TOL
from stabspec.charts import JetChart, _jet_cos, _jet_sin
from stabspec.eigen import (
    _circulant_parts,
    _exact_pairs,
    _solve_reduced,
    cluster_indices,
    eigenvalue_multiplicity,
)
from stabspec.errors import DomainError, NonConvergenceError
from stabspec.grids import torus_grid

from oracles import dense_window

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
    A, M = p.stiffness_minus_potential, sp_sparse.diags(p.mass_diagonal)
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
    p = replace(_pencil(spec), invariant_along_v=False)
    sparse = ss.smallest_eigenpairs(p, 6)
    assert sparse.method == "sparse"
    np.testing.assert_allclose(dense_window(p, 6)[0], sparse.eigenvalues,
                               atol=1e-8)


def _diagonal_pencil(n):
    """diag(0, 1, ..., n - 1) against the identity mass, with no grid."""
    return ss.OperatorPencil(
        stiffness_minus_potential=sp_sparse.diags(np.arange(n, dtype=float)).tocsr(),
        mass_diagonal=np.ones(n),
        potential=np.zeros(n),
    )


def test_path_follows_the_pencil_data():
    # a pencil with no invariant axis takes the sparse path at every size,
    # one invariant along v the reduced path
    graph = lambda n: ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (n, n))
    for n in (12, 48):
        assert ss.smallest_eigenpairs(_pencil(graph(n)), 3).method == "sparse"
        clifford = _pencil(ss.clifford_torus((n, n)))
        assert ss.smallest_eigenpairs(clifford, 3).method == "reduced"


def test_argument_guards_raise_domain_error():
    # k = 0, k > n, and k >= n - 1 on the sparse path, which ARPACK cannot
    # take; the reduced path serves k up to n
    for k in (0, 41, 40, 39):
        with pytest.raises(DomainError) as err:
            ss.smallest_eigenpairs(_diagonal_pencil(40), k)
        assert err.value.exit_code == 2
    clifford = _pencil(ss.clifford_torus((8, 8)))
    assert ss.smallest_eigenpairs(clifford, 63).eigenvalues.size >= 63


def test_ncv_widens_until_arpack_gives_up(monkeypatch):
    # every ARPACK run fails to converge: ncv doubles from 20 up to
    # 8 * max(2 window + 1, 20) and the failure is a NonConvergenceError
    tried = []

    def no_convergence(op, k, ncv, **kwargs):
        tried.append(ncv)
        raise eigen.spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(eigen.spla, "eigsh", no_convergence)
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(p, 2)
    assert tried == [20, 40, 80, 160]
    assert err.value.exit_code == 3


def _logged_windows(monkeypatch):
    """The list that each Lanczos run's window size is appended to."""
    windows = []
    real = eigen._solve_sparse

    def logged(op, k, *rest):
        windows.append(k)
        return real(op, k, *rest)

    monkeypatch.setattr(eigen, "_solve_sparse", logged)
    return windows


def test_sparse_window_that_cuts_a_cluster_is_widened_to_close_it(monkeypatch):
    # the flat torus' four-fold eigenvalue 0 sits at places 6-9, so the first
    # window of k + 2 = 8 pairs ends inside it and is doubled; the returned
    # window holds the whole cluster and agrees with that of a 12-pair window
    windows = _logged_windows(monkeypatch)
    s = ss.build(ss.flat_torus(0.775594, (64, 64)))
    p = replace(ss.assemble(s, ss.compute_geometry(s, want_gauss=False)),
                invariant_along_v=False)
    sp_ = ss.smallest_eigenpairs(p, 6, tol=1e-9)
    assert windows == [8, 16]
    assert sp_.method == "sparse" and sp_.eigenvalues.size == 9
    assert [len(g) for g in cluster_indices(sp_.eigenvalues)] == [1, 2, 2, 4]
    assert float(np.max(sp_.residuals)) <= 1e-9
    gram = sp_.eigenvectors.T @ (p.mass_diagonal[:, None] * sp_.eigenvectors)
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)
    wide = ss.smallest_eigenpairs(p, 12, tol=1e-9)
    np.testing.assert_allclose(sp_.eigenvalues, wide.eigenvalues[:9], atol=1e-10)


def test_sparse_window_doubles_while_a_residual_exceeds_tol(monkeypatch):
    windows = _logged_windows(monkeypatch)
    p = replace(_pencil(ss.flat_torus(0.6, (16, 16))), invariant_along_v=False)
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(p, 3, tol=1e-300)
    assert windows == [5, 10, 20]  # up to 4(k + 2), each judged on its closed window
    assert err.value.residuals.shape == (3,)  # lambda_2 = lambda_3 closes it


def test_sparse_path_closes_the_clifford_lambda2_cluster(monkeypatch):
    # k = 2: the window of k + 2 = 4 pairs ends inside the four-fold lambda_2
    # and is doubled once; the returned window is lambda_1 and that cluster
    windows = _logged_windows(monkeypatch)
    p = _pencil(ss.clifford_torus((24, 24)))
    sparse = ss.smallest_eigenpairs(replace(p, invariant_along_v=False), 2)
    assert windows == [4, 8]
    assert [len(g) for g in cluster_indices(sparse.eigenvalues)] == [1, 4]
    assert eigenvalue_multiplicity(sparse.eigenvalues, 1) == 4
    reduced = ss.smallest_eigenpairs(p, 2)
    assert reduced.method == "reduced"
    for other in (dense_window(p, 2)[0], reduced.eigenvalues):
        np.testing.assert_allclose(sparse.eigenvalues, other, rtol=0, atol=1e-10)


def test_standard_form_lanczos_vectors_are_mass_orthonormal():
    # Lanczos runs on D^(1/2) (A - sigma D)^-1 D^(1/2), and its orthonormal
    # vectors y become u = D^(-1/2) y, orthonormal in the mass inner product
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (24, 24)))
    sparse = ss.smallest_eigenpairs(p, 2)
    assert sparse.method == "sparse"
    V = sparse.eigenvectors
    np.testing.assert_allclose(V.T @ (p.mass_diagonal[:, None] * V), np.eye(V.shape[1]),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(sparse.eigenvalues, dense_window(p, 2)[0], rtol=0, atol=1e-10)


INVARIANT = [
    ss.flat_torus(0.6, (24, 32)),
    ss.geodesic_sphere(1.0, (32, 24)),
    ss.slice_shape("cosh", 0.3, (24, 24)),
    ss.graph_over_slice("cosh", 0.3, "Y3,0", 0.05, (32, 32)),
]


@pytest.mark.parametrize("spec", INVARIANT, ids=lambda s: s.label)
def test_reduced_dense_and_sparse_paths_agree(spec):
    p = _pencil(spec)
    A, M = p.stiffness_minus_potential, sp_sparse.diags(p.mass_diagonal)
    got = [ss.smallest_eigenpairs(q, 6) for q in (p, replace(p, invariant_along_v=False))]
    assert [sp_.method for sp_ in got] == ["reduced", "sparse"]
    dense, _ = dense_window(p, 6)
    for sp_ in got:
        np.testing.assert_allclose(sp_.eigenvalues, dense, atol=1e-10)
        V = sp_.eigenvectors
        np.testing.assert_allclose(V.T @ (M @ V), np.eye(V.shape[1]), atol=1e-10)
        for i, lam in enumerate(sp_.eigenvalues):
            r = A @ V[:, i] - lam * (M @ V[:, i])
            assert np.linalg.norm(r) / np.linalg.norm(M @ V[:, i]) <= 1e-9
        assert (eigenvalue_multiplicity(sp_.eigenvalues, 1)
                == eigenvalue_multiplicity(dense, 1))


@pytest.mark.parametrize("spec", [
    # r + eps cos(wave v) varies along v; the torus is invariant along u only
    ss.perturbed_torus(0.7, 0.05, 3, (24, 24)),
    ss.graph_over_slice("cosh", 0.3, "Y2,1", 1e-9, (24, 24)),
], ids=lambda s: s.label)
def test_pencil_varying_along_v_is_not_reduced(spec):
    p = _pencil(spec)
    assert not p.invariant_along_v
    assert ss.smallest_eigenpairs(p, 4).method == "sparse"


SYMMETRIC = {
    "clifford-torus": ss.clifford_torus,
    "flat-torus": lambda res: ss.flat_torus(0.6, res),
    "geodesic-sphere": lambda res: ss.geodesic_sphere(1.0, res),
    "cosh-slice": lambda res: ss.slice_shape("cosh", 0.3, res),
    "product-slice": lambda res: ss.slice_shape("product", 0.2, res),
    "sphere-slice": lambda res: ss.slice_shape("sphere", 1.0, res),
    "zonal-graph": lambda res: ss.graph_over_slice("cosh", 0.3, "Y3,0", 0.05, res),
}


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_rotation_invariant_shapes_take_the_reduced_path(name, n):
    # a silent fall-back to the sparse path keeps every result right and
    # only costs time, so it is asserted here
    p = _pencil(SYMMETRIC[name]((n, n)))
    assert ss.smallest_eigenpairs(p, 6).method == "reduced"


def _kron_invariance(pencil):
    """The invariance check as the block-circulant pencil rebuilt with a
    sparse kron: (T, w, d) or None."""
    grid = pencil.grid
    a = pencil.stiffness_minus_potential
    d = pencil.mass_diagonal.reshape(grid.nu, grid.nv)
    if np.max(np.abs(d - d[:, :1])) > INVARIANCE_TOL * np.max(d):
        return None
    n = grid.nv
    base = np.arange(grid.nu) * n
    t = a[base][:, base].toarray()
    w = np.asarray(a[base, base + 1]).ravel()
    if np.any(w > 0.0):
        return None
    ring = sp_sparse.diags([1.0] * 4, [1, -1, n - 1, 1 - n], shape=(n, n))
    ref = (sp_sparse.kron(sp_sparse.csr_matrix(t), sp_sparse.identity(n))
           + sp_sparse.kron(sp_sparse.diags(w), ring))
    if abs(a - ref).max() > INVARIANCE_TOL * abs(a).max():
        return None
    return t, w, d[:, 0]


def _one_node_off(field, size):
    """The 16x16 Clifford torus pencil with one node of one geometry field
    moved by `size` relative to its scale."""
    s = ss.build(ss.clifford_torus((16, 16)))
    f = ss.compute_geometry(s, want_gauss=False)
    value = getattr(f, field).copy()
    if field == "metric_inv":  # an off-diagonal term adds the cross coupling
        value[1, 0] = size * value[0, 0]
    else:
        value[0] *= 1.0 + size
    return ss.assemble(s, replace(f, **{field: value}))


def _oracle_pencils():
    c = math.sqrt(2) / 2
    sheared = JetChart(lambda u, v: (c * _jet_cos(u), c * _jet_sin(u),
                                     c * _jet_cos(v + u), c * _jet_sin(v + u)))
    s = ss.ImmersedSurface(sheared, torus_grid(16, 16))
    specs = [ss.clifford_torus((16, 16)), *INVARIANT,
             ss.perturbed_torus(0.7, 0.05, 3, (24, 24)),
             ss.graph_over_slice("cosh", 0.3, "Y2,1", 1e-9, (24, 24))]
    pencils = {spec.label: _pencil(spec) for spec in specs}
    pencils.update({f"{name}-32": _pencil(make((32, 32)))
                    for name, make in SYMMETRIC.items()})
    pencils["sheared"] = ss.assemble(s, ss.compute_geometry(s, want_gauss=False))
    # one node's mass, and with it its coefficients, off by 1e-11
    pencils["mass"] = _one_node_off("area_element", 1e-11)
    # a cross term couples nodes off the stencil, unless it is negligible
    pencils["stray"] = _one_node_off("metric_inv", 1e-11)
    pencils["faint-stray"] = _one_node_off("metric_inv", 1e-15)
    return pencils


ORACLE = _oracle_pencils()


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_invariance_read_agrees_with_the_kron_rebuild(name):
    # assemble's decision against the rebuilt pencil, and the parts the
    # reduced path slices from A against the ones the rebuild matched
    p = ORACLE[name]
    want = _kron_invariance(p)
    assert p.invariant_along_v == (want is not None)
    if want is not None:
        for x, y in zip(_circulant_parts(p), want):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", [ss.flat_torus(0.6, (24, 24)),
                                  ss.geodesic_sphere(1.0, (24, 24))],
                         ids=lambda s: s.label)
def test_reduced_vectors_need_no_rayleigh_ritz_pass(spec):
    p = _pencil(spec)
    A, M = p.stiffness_minus_potential, sp_sparse.diags(p.mass_diagonal)
    block = _solve_reduced(p, 6)
    np.testing.assert_allclose(block.T @ (M @ block), np.eye(block.shape[1]),
                               rtol=0, atol=1e-12)
    sp_ = ss.smallest_eigenpairs(p, 6)
    assert sp_.method == "reduced"
    V = sp_.eigenvectors
    np.testing.assert_allclose(V.T @ (M @ V), np.eye(block.shape[1]), rtol=0, atol=1e-12)
    assert float(np.max(sp_.residuals)) <= 1e-9
    for i, lam in enumerate(sp_.eigenvalues):
        r = A @ V[:, i] - lam * (M @ V[:, i])
        assert np.linalg.norm(r) / np.linalg.norm(M @ V[:, i]) <= 1e-9
    np.testing.assert_allclose(sp_.eigenvalues, dense_window(p, 6)[0], rtol=0, atol=1e-10)
    if spec.kind == "flat-torus":
        # the window mixes mode 0 (constant along v) with modes 0 < m < n/2
        spread = np.ptp(V.reshape(24, 24, -1), axis=1).max(axis=0)
        assert np.any(spread < 1e-12) and np.any(spread > 1e-3)


@pytest.mark.parametrize("r", [0.775594, math.sqrt(1.0 - 0.775594**2)])
def test_reduced_window_visits_modes_past_the_first(r):
    # both radii give the same spectrum; at the second, lambda_10 and
    # lambda_11 come from Fourier mode 2 along v
    p = _pencil(ss.flat_torus(r, (64, 64)))
    reduced = ss.smallest_eigenpairs(p, 12)
    assert reduced.method == "reduced"
    sparse = ss.smallest_eigenpairs(replace(p, invariant_along_v=False), 12)
    np.testing.assert_allclose(reduced.eigenvalues, sparse.eigenvalues, atol=1e-10)


def test_reduced_window_holds_the_whole_cluster_it_cuts():
    # places 6-9 hold the four-fold eigenvalue 0; a window of six cuts it
    p = _pencil(ss.flat_torus(0.775594, (64, 64)))
    block = _solve_reduced(p, 6)
    assert block.shape[1] == 9
    vals, _, res = _exact_pairs(p.stiffness_minus_potential, p.mass_diagonal, block)
    assert float(np.max(res)) <= 1e-9
    assert [len(g) for g in cluster_indices(vals)] == [1, 2, 2, 4]
    sp_ = ss.smallest_eigenpairs(p, 6, tol=1e-9)
    assert sp_.method == "reduced" and sp_.eigenvalues.size == 9
    np.testing.assert_allclose(sp_.eigenvalues, vals, atol=1e-10)


def test_exact_pairs_sort_flip_and_judge_each_vector():
    # four vectors, not eigenvectors, given in descending quotient order and
    # with mixed signs: each comes back once, peak positive, in ascending
    # order, with its own quotient and residual against a non-uniform mass
    n = 10
    a = sp_sparse.diags([np.full(n - 1, 0.1), np.arange(n, dtype=float), np.full(n - 1, 0.1)],
                        [-1, 0, 1], format="csr")
    d = np.linspace(1.0, 2.0, n)
    vecs = np.array([sign * (np.eye(n)[i] + 0.05) for sign, i
                     in zip((1.0, -1.0, 1.0, 1.0), (3, 2, 1, 0))]).T
    vals, out, res = _exact_pairs(a, d, vecs)
    assert np.all(np.diff(vals) > 0)
    for j in range(4):
        x = out[:, j]
        assert x[np.argmax(np.abs(x))] > 0
        assert np.array_equal(np.abs(x), np.abs(vecs[:, 3 - j]))
        assert vals[j] == pytest.approx(x @ (a @ x) / (x @ (d * x)), rel=1e-14)
        r = a @ x - vals[j] * d * x
        assert res[j] == pytest.approx(np.linalg.norm(r) / np.linalg.norm(d * x), rel=1e-12)
        assert res[j] > 1e-3


def _block_solves(monkeypatch, pencil, k):
    """The reduced solve of k pairs, and {block solver: the count of values
    each of its calls asked for}."""
    counts = {"eigh": [], "eigh_tridiagonal": []}

    def logger(name):
        real = getattr(eigen.sla, name)

        def logged(*args, **kwargs):
            index = kwargs.get("subset_by_index", kwargs.get("select_range"))
            counts[name].append(index[1] + 1)
            return real(*args, **kwargs)
        return logged

    for name in counts:
        monkeypatch.setattr(eigen.sla, name, logger(name))
    sp_ = ss.smallest_eigenpairs(pencil, k)
    assert sp_.method == "reduced"
    return sp_, counts


def test_reduced_path_solves_each_block_once(monkeypatch):
    # a first solve of k values always doubles, because the k-th value lies
    # inside its own window; k + 1 settle each block of a slice in one
    # solve, and on its sphere grid every block is tridiagonal
    _, counts = _block_solves(monkeypatch, _pencil(ss.slice_shape("cosh", 0.3, (32, 32))), 6)
    got = counts["eigh_tridiagonal"]
    assert got and got == [7] * len(got)
    assert counts["eigh"] == []


def test_reduced_path_solves_dense_blocks_on_a_torus_grid(monkeypatch):
    # T wraps along u, so the blocks are dense; their values come in cos/sin
    # pairs along u, so a 7th value would pair with an 8th and double the
    # mode-0 window: k + 2 = 8 settle each block in one solve
    _, counts = _block_solves(monkeypatch, _pencil(ss.flat_torus(0.6, (32, 32))), 6)
    assert counts == {"eigh": [8, 8, 8], "eigh_tridiagonal": []}


@pytest.mark.parametrize("spec", [ss.slice_shape("cosh", 0.3, (128, 128)),
                                  ss.geodesic_sphere(1.0, (160, 128))],
                         ids=lambda s: s.label)
def test_tridiagonal_blocks_match_dense_blocks(monkeypatch, spec):
    # on a sphere grid T has no wrap along u, so every Fourier block is
    # tridiagonal; the reduced path against a dense eigh of the same blocks
    p = _pencil(spec)
    t, w, d = _circulant_parts(p)
    assert not np.any(np.triu(t, 2)) and np.all(np.diagonal(t, 1) != 0.0)
    n = p.grid.nv
    s = 1.0 / np.sqrt(d)
    dense = []
    for mode in range(n // 2 + 1):
        block = s[:, None] * (t + np.diag(2.0 * math.cos(2.0 * math.pi * mode / n) * w)) * s
        vals = np.linalg.eigvalsh(0.5 * (block + block.T))[:8]
        dense += list(vals) * (1 if 2 * mode % n == 0 else 2)
    # the 8th value is the first of a pair, so the closed window holds 9
    sp_, counts = _block_solves(monkeypatch, p, 8)
    assert counts["eigh_tridiagonal"] and counts["eigh"] == []
    k = sp_.eigenvalues.size
    assert k == 9
    np.testing.assert_allclose(sp_.eigenvalues, np.sort(dense)[:k], rtol=0, atol=1e-10)
    A, M, V = p.stiffness_minus_potential, sp_sparse.diags(p.mass_diagonal), sp_.eigenvectors
    for i, lam in enumerate(sp_.eigenvalues):
        r = A @ V[:, i] - lam * (M @ V[:, i])
        assert np.linalg.norm(r) / np.linalg.norm(M @ V[:, i]) <= 1e-9
    np.testing.assert_allclose(V.T @ (M @ V), np.eye(k), rtol=0, atol=1e-10)


def test_determinism_across_runs_and_seeds():
    s = ss.build(ss.flat_torus(0.55, (20, 20)))
    f = ss.compute_geometry(s, want_gauss=False)
    p = replace(ss.assemble(s, f), invariant_along_v=False)
    a = ss.smallest_eigenpairs(p, 4, seed=0)
    b = ss.smallest_eigenpairs(p, 4, seed=0)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    c = ss.smallest_eigenpairs(p, 4, seed=7)
    np.testing.assert_allclose(c.eigenvalues, a.eigenvalues, atol=1e-10)


def test_minmax_characterization_of_lambda2(solve, rng):
    sol = solve(ss.clifford_torus((20, 20)), k=2)
    p, sp_ = sol.pencil, sol.spectrum
    lam2 = sp_.eigenvalues[1]
    f1 = sp_.eigenvectors[:, 0]
    M = sp_sparse.diags(p.mass_diagonal)
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
