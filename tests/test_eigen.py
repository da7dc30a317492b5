"""Eigensolver guarantees: residuals, orthonormality, and path agreement.

A test that needs the sparse path on a pencil invariant along v says so in
the data, `oracles.unmarked(pencil)`, and one that needs a pencil with
symmetry maps solved unsplit, as the one block of the trivial group,
`replace(pencil, maps=())`; every path is checked against the dense oracle
`oracles.dense_window`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp_sparse

import stabspec as ss
import stabspec.eigen as eigen
from stabspec.charts import JetChart, _jet_cos, _jet_sin
from stabspec.eigen import (
    _circulant_parts,
    _exact_pairs,
    _solve_reduced,
    cluster_indices,
    eigenvalue_multiplicity,
)
from stabspec.errors import DomainError, NonConvergenceError
from stabspec.grids import NodeMap, sphere_grid, torus_grid

from oracles import dense_coupling, dense_window, unmarked

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
    p = unmarked(_pencil(spec))
    sparse = ss.smallest_eigenpairs(p, 6)
    assert sparse.method == "sparse"
    np.testing.assert_allclose(dense_window(p, 6)[0], sparse.eigenvalues,
                               atol=1e-8)


def _diagonal_pencil(n):
    """diag(0, 1, ..., n - 1) against the identity mass, with no grid."""
    return ss.OperatorPencil(
        csr=sp_sparse.diags(np.arange(n, dtype=float)).tocsr(),
        mass=np.ones(n),
        q=np.zeros(n),
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


def _arpack_never_converges(monkeypatch):
    """The list that each ARPACK run's ncv is appended to; every run fails."""
    tried = []

    def no_convergence(op, k, ncv, **kwargs):
        tried.append(ncv)
        raise eigen.spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(eigen.spla, "eigsh", no_convergence)
    return tried


def test_ncv_widens_until_arpack_gives_up(monkeypatch):
    # every ARPACK run fails to converge: ncv doubles from 20 up to
    # 8 * max(2 window + 1, 20) and the failure is a NonConvergenceError
    tried = _arpack_never_converges(monkeypatch)
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(replace(p, maps=()), 2)
    assert tried == [20, 40, 80, 160]
    assert err.value.exit_code == 3


def test_ncv_on_a_symmetry_block_stops_below_its_size(monkeypatch):
    # the same graph split into blocks: its symmetric block has 72 nodes,
    # so ncv stops at 71
    tried = _arpack_never_converges(monkeypatch)
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(p, 2)
    assert tried == [20, 40, 71]
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
    p = unmarked(ss.assemble(s, ss.compute_geometry(s, want_gauss=False)))
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
    p = unmarked(_pencil(ss.flat_torus(0.6, (16, 16))))
    with pytest.raises(NonConvergenceError) as err:
        ss.smallest_eigenpairs(p, 3, tol=1e-300)
    assert windows == [5, 10, 20]  # up to 4(k + 2), each judged on its closed window
    assert err.value.residuals.shape == (3,)  # lambda_2 = lambda_3 closes it


def test_sparse_path_closes_the_clifford_lambda2_cluster(monkeypatch):
    # k = 2: the window of k + 2 = 4 pairs ends inside the four-fold lambda_2
    # and is doubled once; the returned window is lambda_1 and that cluster
    windows = _logged_windows(monkeypatch)
    p = _pencil(ss.clifford_torus((24, 24)))
    sparse = ss.smallest_eigenpairs(unmarked(p), 2)
    assert windows == [4, 8]
    assert [len(g) for g in cluster_indices(sparse.eigenvalues)] == [1, 4]
    assert eigenvalue_multiplicity(sparse.eigenvalues, 1) == 4
    reduced = ss.smallest_eigenpairs(p, 2)
    assert reduced.method == "reduced"
    for other in (dense_window(p, 2)[0], reduced.eigenvalues):
        np.testing.assert_allclose(sparse.eigenvalues, other, rtol=0, atol=1e-10)


def test_a_pencil_without_maps_closes_a_cluster_past_its_widest_window(monkeypatch):
    # k = 2 on a diagonal pencil: lambda_2 is a 20-fold near-degenerate
    # cluster, and the widest window of k, 4(k + 2) = 16 pairs, ends inside
    # it; the trivial group's one block is counted at the window's limit and
    # solved for that count, so the window holds the whole cluster
    vals = np.concatenate([[0.0], 1.0 + 1e-8 * np.arange(20), np.linspace(2.0, 10.0, 279)])
    p = ss.OperatorPencil(csr=sp_sparse.csr_matrix(sp_sparse.diags(vals)),
                          mass=np.ones(vals.size), q=np.zeros(vals.size))
    windows = _logged_windows(monkeypatch)
    sp_ = ss.smallest_eigenpairs(p, 2)
    assert eigenvalue_multiplicity(sp_.eigenvalues, 1) == 20
    assert sp_.eigenvalues.size == 21
    assert windows == [4, 8, 16, 23]  # a count of 21, then its first window
    np.testing.assert_allclose(sp_.eigenvalues, vals[:21], rtol=0, atol=1e-12)
    assert float(np.max(sp_.residuals)) <= 1e-9


def test_the_trivial_group_folds_a_pencil_into_a_itself():
    # a pencil with no maps is its own one block, with A's own arrays and
    # no second N-node CSR, and a block vector spreads to itself bit for bit
    p = _pencil(ss.perturbed_torus(0.7, 0.05, 3, (24, 24)))
    assert p.maps == ()
    [(b, d, domain)], orbits = eigen._fold(p)
    assert b is p.stiffness_minus_potential and d is p.mass_diagonal
    n = p.node_count
    least, element, size = orbits
    assert np.array_equal(domain, np.arange(n)) and np.array_equal(least, np.arange(n))
    assert not np.any(element) and np.all(size == 1)
    z = np.random.default_rng(3).standard_normal(n)
    spread = eigen._spread(orbits, eigen._character(0, 1), domain, z)
    assert np.array_equal(spread.view(np.uint64), z.view(np.uint64))


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
    # odd nv: no m = n/2 mode, and every mode but 0 has two phases
    ss.geodesic_sphere(1.0, (24, 15)),
    ss.flat_torus(0.6, (16, 15)),
    ss.slice_shape("cosh", 0.3, (17, 9)),
]


def _case_id(spec):
    """The spec's label, and its grid where nv is odd."""
    nu, nv = spec.resolution
    return f"{spec.label}-{nu}x{nv}" if nv % 2 else spec.label


@pytest.mark.parametrize("spec", INVARIANT, ids=_case_id)
def test_reduced_dense_and_sparse_paths_agree(spec):
    p = _pencil(spec)
    A, M = p.stiffness_minus_potential, sp_sparse.diags(p.mass_diagonal)
    got = [ss.smallest_eigenpairs(q, 6) for q in (p, unmarked(p))]
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
    # degenerate members of the kinds that keep the full grid
    "unperturbed-torus": lambda res: ss.perturbed_torus(0.7, 0.0, 3, res),
    "flat-graph": lambda res: ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.0, res),
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
    sparse kron: (T, w, d), or None unless the pencil equals its rebuild
    exactly."""
    grid = pencil.grid
    a = pencil.stiffness_minus_potential
    d = pencil.mass_diagonal.reshape(grid.nu, grid.nv)
    if np.any(d != d[:, :1]):
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
    if abs(a - ref).max() > 0.0:
        return None
    return t, w, d[:, 0]


def _one_node_off(size):
    """The 16x16 Clifford torus pencil with an off-diagonal metric term of
    `size` relative to g^uu at one node."""
    s = ss.build(ss.clifford_torus((16, 16)))
    f = ss.compute_geometry(s, want_gauss=False)
    value = f.metric_inv.copy()
    value[1, 0] = size * value[0, 0]
    return ss.assemble(s, replace(f, metric_inv=value))


def _sheared_surface(revolution=False, maps=()):
    """The 16x16 Clifford torus charted by (u, v + u): a surface of
    revolution about v with a mixed metric term."""
    c = math.sqrt(2) / 2
    sheared = JetChart(lambda u, v: (c * _jet_cos(u), c * _jet_sin(u),
                                     c * _jet_cos(v + u), c * _jet_sin(v + u)))
    return ss.ImmersedSurface(sheared, torus_grid(16, 16), revolution=revolution, maps=maps)


def _sheared(revolution=False):
    s = _sheared_surface(revolution)
    return ss.assemble(s, ss.compute_geometry(s, want_gauss=False))


def _oracle_pencils():
    specs = [ss.clifford_torus((16, 16)), *INVARIANT,
             ss.perturbed_torus(0.7, 0.05, 3, (24, 24)),
             ss.graph_over_slice("cosh", 0.3, "Y2,1", 1e-9, (24, 24))]
    pencils = {_case_id(spec): _pencil(spec) for spec in specs}
    pencils.update({f"{name}-32": _pencil(make((32, 32)))
                    for name, make in SYMMETRIC.items()})
    pencils["sheared"] = _sheared()
    # a cross term couples nodes off the stencil, unless it is negligible
    pencils["stray"] = _one_node_off(1e-11)
    pencils["faint-stray"] = _one_node_off(1e-15)
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
        t, w, d = _circulant_parts(p)
        # a sphere grid's T is kept as its diagonals
        assert isinstance(t, np.ndarray) == p.grid.periodic_u
        for x, y in zip((dense_coupling(t), w, d), want):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13)


def test_a_marked_chart_with_a_cross_term_takes_the_sparse_path():
    # the reduced path models the 5-point stencil alone, so the mark does
    # not carry a pencil with a cross term there
    marked = _sheared(revolution=True)
    assert not marked.invariant_along_v
    got = ss.smallest_eigenpairs(marked, 5)
    assert got.method == "sparse"
    # its fields are the meridian's, the unmarked build's the full grid's
    unmarked = ss.smallest_eigenpairs(ORACLE["sheared"], 5)
    np.testing.assert_allclose(got.eigenvalues, unmarked.eigenvalues, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec, k", [
    pytest.param(ss.flat_torus(0.6, (24, 24)), 6, id="flat-torus(r=0.6)"),
    pytest.param(ss.geodesic_sphere(1.0, (24, 24)), 6, id="geodesic-sphere(rho=1.0)"),
    pytest.param(ss.clifford_torus((128, 128)), 6, id="clifford-torus-128"),
    pytest.param(ss.slice_shape("cosh", 0.3, (128, 128)), 6, id="cosh-slice-128"),
    # at odd nv the top Fourier mode (nv - 1) / 2 has a sine phase too, and
    # only a window of all but two pairs reaches it; the sparse path
    # refuses k >= N - 1, so the dense oracle alone checks it
    *(pytest.param(spec, math.prod(spec.resolution) - 2, id=_case_id(spec))
      for spec in (ss.flat_torus(0.6, (8, 9)), ss.geodesic_sphere(1.0, (8, 9)),
                   ss.slice_shape("cosh", 0.3, (9, 11)))),
])
def test_reduced_vectors_need_no_rayleigh_ritz_pass(spec, k):
    # each pair is judged on its Fourier block alone: its value is the
    # Rayleigh quotient of the returned N-node vector on the formed A, and
    # that vector's N-node residual is within tol
    p = _pencil(spec)
    sp_ = ss.smallest_eigenpairs(p, k)
    assert sp_.method == "reduced"
    A, M = p.stiffness_minus_potential, sp_sparse.diags(p.mass_diagonal)
    V = sp_.eigenvectors
    np.testing.assert_allclose(V.T @ (M @ V), np.eye(V.shape[1]), rtol=0, atol=1e-12)
    assert float(np.max(sp_.residuals)) <= 1e-9
    for i, lam in enumerate(sp_.eigenvalues):
        x = V[:, i]
        assert abs(lam - x @ (A @ x) / (x @ (M @ x))) <= 1e-12 * max(1.0, abs(lam))
        r = A @ x - lam * (M @ x)
        assert np.linalg.norm(r) / np.linalg.norm(M @ x) <= 1e-9
    if p.node_count <= 1024:
        np.testing.assert_allclose(sp_.eigenvalues, dense_window(p, k)[0], rtol=0, atol=1e-10)
    if spec.kind == "flat-torus":
        # the window mixes mode 0 (constant along v) with modes 0 < m < n/2
        spread = np.ptp(V.reshape(*spec.resolution, -1), axis=1).max(axis=0)
        assert np.any(spread < 1e-12) and np.any(spread > 1e-3)


@pytest.mark.parametrize("r", [0.775594, math.sqrt(1.0 - 0.775594**2)])
def test_reduced_window_visits_modes_past_the_first(r):
    # both radii give the same spectrum; at the second, lambda_10 and
    # lambda_11 come from Fourier mode 2 along v
    p = _pencil(ss.flat_torus(r, (64, 64)))
    reduced = ss.smallest_eigenpairs(p, 12)
    assert reduced.method == "reduced"
    sparse = ss.smallest_eigenpairs(unmarked(p), 12)
    np.testing.assert_allclose(reduced.eigenvalues, sparse.eigenvalues, atol=1e-10)


def test_reduced_window_holds_the_whole_cluster_it_cuts():
    # places 6-9 hold the four-fold eigenvalue 0; a window of six cuts it
    p = _pencil(ss.flat_torus(0.775594, (64, 64)))
    reduced = _solve_reduced(p, 6)
    vals, block, res = reduced.eigenvalues, reduced.eigenvectors, reduced.residuals
    assert block.shape[1] == 9
    assert float(np.max(res)) <= 1e-9
    assert [len(g) for g in cluster_indices(vals)] == [1, 2, 2, 4]
    # the block-judged pairs against the same vectors judged on (A, M)
    whole, _, whole_res = _exact_pairs(p.stiffness_minus_potential, p.mass_diagonal, block)
    np.testing.assert_allclose(vals, whole, rtol=0, atol=1e-12)
    assert float(np.max(whole_res)) <= 1e-9
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


def test_reduced_path_widens_a_block_whose_window_ends_in_a_cluster(monkeypatch):
    # an 8 x 12 sphere-grid pencil whose u faces conduct 1e-9: the 8 values
    # of mode 0 lie within 4e-9, one cluster, so its solve of k + 1 = 3
    # values doubles to 6 and then takes the whole block; mode 1 lies 0.27
    # above and is solved once
    cu = np.full((8, 1), 1e-9)
    cu[-1] = 0.0  # no face past the last latitude row
    cv = np.ones((8, 1))
    p = ss.OperatorPencil(csr=None, mass=np.ones(8), q=np.zeros(8), grid=sphere_grid(8, 12),
                          meridian=(cu, cv, (cu + np.roll(cu, 1, axis=0)) + 2.0 * cv))
    dense, _ = dense_window(p, 2)
    sp_, counts = _block_solves(monkeypatch, p, 2)
    assert counts == {"eigh": [], "eigh_tridiagonal": [3, 6, 8, 3]}
    assert sp_.eigenvalues.size == dense.size == 8
    np.testing.assert_allclose(sp_.eigenvalues, dense, rtol=0, atol=1e-13)
    assert float(np.max(sp_.residuals)) <= 1e-9


@pytest.mark.parametrize("spec", [ss.slice_shape("cosh", 0.3, (128, 128)),
                                  ss.geodesic_sphere(1.0, (160, 128))],
                         ids=lambda s: s.label)
def test_tridiagonal_blocks_match_dense_blocks(monkeypatch, spec):
    # on a sphere grid T has no wrap along u, so every Fourier block is
    # tridiagonal; the reduced path against a dense eigh of the same blocks
    p = _pencil(spec)
    t, w, d = _circulant_parts(p)
    assert not isinstance(t, np.ndarray)  # kept as its diagonals
    t = dense_coupling(t)
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
    p = unmarked(ss.assemble(s, f))
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


# Graphs of Y_l,m with m != 0 declare grid maps (tests/test_catalog.py), and
# the sparse path solves their pencil as one block per character of the
# group the maps generate: four blocks with two maps, two with one.
SPLIT = [
    ("Y3,1", (16, 16), 4),  # phi- and theta-mirror
    ("Y3,-2", (16, 16), 4),  # phi-mirror and half-turn
    ("Y4,-3", (16, 16), 4),  # phi-mirror and antipodal map
    ("Y2,1", (24, 24), 4),
    ("Y2,-2", (16, 16), 4),  # all three maps available; two are declared
    ("Y4,-4", (24, 24), 4),
    ("Y2,-2", (16, 18), 2),  # no phi-mirror on these grids
    ("Y4,-4", (16, 12), 2),
    ("Y2,1", (16, 15), 2),  # odd nv: no antipodal map
    ("Y3,-2", (16, 15), 1),  # no map: the trivial group's one block
]


def _split_id(case):
    pert, (nu, nv), _ = case
    return f"{pert}-{nu}x{nv}"


def _character(pencil, u):
    """The sign u takes under each of the pencil's maps."""
    signs = [float(np.sign(u[m.image(pencil.grid)] @ u)) for m in pencil.maps]
    for m, sign in zip(pencil.maps, signs):
        np.testing.assert_allclose(u[m.image(pencil.grid)], sign * u, rtol=0, atol=1e-8)
    return tuple(signs)


@pytest.mark.parametrize("case", SPLIT, ids=_split_id)
def test_symmetry_blocks_give_the_dense_window(monkeypatch, case):
    pert, resolution, blocks = case
    p = _pencil(ss.graph_over_slice("cosh", 0.3, pert, 0.05, resolution))
    assert 2 ** len(p.maps) == blocks
    runs = []  # the node count of each Lanczos run's block
    real = eigen._solve_sparse
    monkeypatch.setattr(eigen, "_solve_sparse",
                        lambda op, k, v0: runs.append(v0.size) or real(op, k, v0))
    for k in (2, 4):
        runs.clear()
        sp_ = ss.smallest_eigenpairs(p, k)
        assert sp_.method == "sparse"
        dense, _ = dense_window(p, k)
        assert sp_.eigenvalues.size == dense.size
        np.testing.assert_allclose(sp_.eigenvalues, dense, rtol=0, atol=1e-10)
        assert ([len(g) for g in cluster_indices(sp_.eigenvalues)]
                == [len(g) for g in cluster_indices(dense)])
        # every pair is judged on the N-node pencil
        A, d, V = p.stiffness_minus_potential, p.mass_diagonal, sp_.eigenvectors
        np.testing.assert_allclose(V.T @ (d[:, None] * V), np.eye(V.shape[1]), rtol=0,
                                   atol=1e-10)
        for lam, res, x in zip(sp_.eigenvalues, sp_.residuals, V.T):
            assert abs(lam - x @ (A @ x) / (x @ (d * x))) <= 1e-12 * max(1.0, abs(lam))
            r = np.linalg.norm(A @ x - lam * d * x) / np.linalg.norm(d * x)
            assert r == pytest.approx(res, rel=1e-6, abs=1e-15) and r <= 1e-9
        # the symmetric block holds the ground state and is solved first; a
        # block whose count is 0 runs no Lanczos, and at k = 2 one is skipped
        if blocks > 1:
            assert _character(p, V[:, 0]) == (1.0,) * len(p.maps)
            assert runs[0] == max(runs) and len(runs) < blocks + (k > 2), runs
            for x in V.T:
                _character(p, x)
        else:
            assert runs == [p.node_count]


def test_a_pair_across_two_blocks_keeps_its_multiplicity():
    # the graph of Y4,-4 has a lambda_2 pair: its two vectors lie in blocks
    # of different characters
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y4,-4", 0.05, (24, 24)))
    sp_ = ss.smallest_eigenpairs(p, 2)
    assert eigenvalue_multiplicity(sp_.eigenvalues, 1) == 2 == sp_.eigenvalues.size - 1
    assert eigenvalue_multiplicity(dense_window(p, 2)[0], 1) == 2
    pair = [_character(p, x) for x in sp_.eigenvectors[:, 1:].T]
    assert pair[0] != pair[1]


def test_each_skipped_block_counts_no_eigenvalue_below_the_window(monkeypatch):
    # the counts at the window's limit against the dense count of each block
    p = _pencil(ss.graph_over_slice("product", 0.3, "Y3,1", 0.05, (16, 16)))
    counted = []
    real = eigen._count_below
    monkeypatch.setattr(eigen, "_count_below",
                        lambda b, d, limit: counted.append((b, d, limit)) or real(b, d, limit))
    ss.smallest_eigenpairs(p, 2)
    assert len(counted) == 3
    for b, d, limit in counted:
        vals = np.linalg.eigvalsh(b.toarray() / np.sqrt(np.outer(d, d)))
        assert real(b, d, limit) == np.count_nonzero(vals < limit)


def test_a_block_without_a_count_is_solved_whole(monkeypatch):
    # a singular factor at the limit, or one that pivots off the diagonal,
    # gives no count: every block is then solved for k values
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    want = ss.smallest_eigenpairs(p, 2)
    monkeypatch.setattr(eigen, "_count_below", lambda b, d, limit: None)
    windows = _logged_windows(monkeypatch)
    got = ss.smallest_eigenpairs(p, 2)
    assert windows == [4] * 4
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)


def test_one_block_without_a_count_is_solved_for_k(monkeypatch):
    # the first block counted gets no count: it is solved for k values and
    # never counted again, the others are counted, and the window is the
    # unsplit one
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    real_count, real_window = eigen._count_below, eigen._lanczos_window
    counted, solved = [], []

    def count(b, d, limit):
        counted.append(id(b))
        return None if len(counted) == 1 else real_count(b, d, limit)

    def window(b, d, sigma, k, v0, tol, below=np.inf):
        solved.append((id(b), k, below))
        return real_window(b, d, sigma, k, v0, tol, below)

    monkeypatch.setattr(eigen, "_count_below", count)
    monkeypatch.setattr(eigen, "_lanczos_window", window)
    split = ss.smallest_eigenpairs(p, 2)
    assert len(set(counted)) == len(counted) == 3
    assert solved[1] == (counted[0], 2, np.inf)
    monkeypatch.undo()
    unsplit = ss.smallest_eigenpairs(replace(p, maps=()), 2)
    assert split.eigenvalues.size == unsplit.eigenvalues.size
    np.testing.assert_allclose(split.eigenvalues, unsplit.eigenvalues, rtol=0, atol=1e-12)


@pytest.mark.parametrize("matrix, limit", [
    ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], 1.0),  # an exactly singular factor
    ([[0.0, 1.0], [1.0, 0.0]], 0.0),  # a zero diagonal: the factor pivots off it
], ids=["singular", "off-diagonal-pivot"])
def test_a_block_factor_that_cannot_count_gives_none(matrix, limit):
    m = np.array(matrix)
    b, d = sp_sparse.csr_matrix(m), np.ones(m.shape[0])
    assert eigen._count_below(b, d, limit) is None
    # a regular shift counts the values below it
    assert eigen._count_below(b, d, limit + 0.5) == np.count_nonzero(
        np.linalg.eigvalsh(m) < limit + 0.5)


def test_a_block_short_of_its_count_widens_then_fails(monkeypatch):
    # a count above what the block holds below the limit: the window widens
    # to its widest, then the solve is a NonConvergenceError
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    monkeypatch.setattr(eigen, "_count_below", lambda b, d, limit: 3)
    windows = _logged_windows(monkeypatch)
    with pytest.raises(NonConvergenceError, match="counts 3 eigenvalues"):
        ss.smallest_eigenpairs(p, 2)
    assert windows == [4, 5, 10, 20]


def test_a_wrongly_declared_map_is_refused():
    # the graph of Y2,1 is odd under the theta-mirror
    s = ss.build(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (16, 16)))
    wrong = ss.ImmersedSurface(s.chart, s.grid, s.warping, maps=(NodeMap(flip_u=True),))
    with pytest.raises(DomainError, match="declared invariant") as err:
        ss.compute_geometry(wrong)
    assert err.value.exit_code == 2


def test_a_surface_of_revolution_declares_no_map():
    # the sheared torus is no mirror image of itself under u -> -u: its g^uv
    # keeps its sign, and the full-grid check refuses the map ...
    mirror = (NodeMap(flip_u=True),)
    with pytest.raises(DomainError, match="declared invariant"):
        ss.compute_geometry(_sheared_surface(maps=mirror))
    # ... which a marked surface's two chart columns cannot check, so the
    # surface refuses the two declarations together, before any pencil has
    # the map to split by
    with pytest.raises(DomainError, match="declares no grid maps") as err:
        marked = _sheared_surface(revolution=True, maps=mirror)
        ss.assemble(marked, ss.compute_geometry(marked, want_gauss=False))
    assert err.value.exit_code == 2


def test_a_cluster_across_blocks_recounts_the_blocks_below_its_top(monkeypatch):
    # the lambda_2 triple of this 64^2 graph lies in three blocks: a second
    # block's copy raises the window limit past the first count of a skipped
    # block, which is counted again there; the window is the unsplit one
    p = _pencil(ss.graph_over_slice("cosh", 0.3, "Y3,-2", 0.05, (64, 64)))
    counted = []
    real = eigen._count_below
    monkeypatch.setattr(eigen, "_count_below",
                        lambda b, d, limit: counted.append((id(b), limit)) or real(b, d, limit))
    split = ss.smallest_eigenpairs(p, 2)
    blocks = [block for block, _ in counted]
    again = [block for block in set(blocks) if blocks.count(block) > 1]
    assert again and all(
        np.all(np.diff([limit for b, limit in counted if b == block]) > 0) for block in again)
    unsplit = ss.smallest_eigenpairs(replace(p, maps=()), 2)
    assert eigenvalue_multiplicity(split.eigenvalues, 1) == 3
    np.testing.assert_allclose(split.eigenvalues, unsplit.eigenvalues, rtol=0, atol=1e-12)
