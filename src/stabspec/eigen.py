"""Smallest eigenpairs of the symmetric pencil (A, M).

`smallest_eigenpairs` has three paths and picks one from the pencil's data:

* reduced: taken whenever the pencil is invariant along v, the periodic
  axis of both grid kinds, at any size.  Invariance means that A equals,
  to 1e-13 of its largest entry, the block-circulant pencil built from its
  own rows at v index 0: the coupling T among those nodes, repeated at
  every v index, plus the coupling w of each node to its two v neighbours;
  the diagonal of M must be constant along v to the same tolerance, and
  w <= 0.  A discrete Fourier transform along v then splits the pencil
  into one block per mode m, B_m = T + 2 cos(2 pi m / n) diag(w).  Each
  block is solved densely.  Because w <= 0, the blocks grow with m for
  0 <= m <= n/2 (Weyl), so modes are visited in order and the loop stops at the first mode whose lowest eigenvalue lies above the
  window: every eigenvalue below the window's top is found, and the
  window takes in the whole cluster at its edge.  The vectors
  y cos(m theta) and y sin(m theta) of the window go through the same
  Rayleigh-Ritz pass and residual check on the full pencil as the other
  paths, and the k lowest pairs are kept.
* sparse: every other pencil, at every size, by shift-invert Lanczos
  with the shift placed strictly below the bottom of the spectrum
  (lambda_1 >= -max q because the stiffness part is positive
  semidefinite), which makes A - shift*M positive definite and the
  smallest eigenvalues the dominant ones of the transformed problem.
  A - shift*M is factored once (minimum-degree ordering on A + A^T) and
  the factor serves every Lanczos run.  A Rayleigh-Ritz pass through the
  returned subspace tightens clustered eigenvalues.  A window of k pairs
  that cuts an eigenvalue cluster can leave the pairs at its edge short
  of the residual tolerance; the solve is then repeated with a doubled
  window, up to min(n - 2, 4k), and the first k Ritz pairs are kept.
* dense: an explicit symmetric reduction, taken only for k >= n - 1,
  which ARPACK cannot handle; as method="dense" it is also the
  independent cross-check of the other two.

Results are deterministic: the Lanczos starting vector is drawn from a
seeded generator recorded in the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp_sparse
import scipy.sparse.linalg as spla

from .assembly import OperatorPencil
from .errors import DomainError, NonConvergenceError

__all__ = [
    "Spectrum",
    "smallest_eigenpairs",
    "cluster_indices",
    "eigenvalue_multiplicity",
]

CLUSTER_REL_TOL = 1e-6
INVARIANCE_TOL = 1e-13


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with M-orthonormal vectors and residuals."""

    eigenvalues: np.ndarray  # (k,)
    eigenvectors: np.ndarray  # (n, k), columns M-orthonormal
    residuals: np.ndarray  # (k,) ||A u - lambda M u|| / ||M u||
    method: str
    seed: int

    @property
    def k(self) -> int:
        return self.eigenvalues.size


def _residuals(a, m, vals, vecs) -> np.ndarray:
    res = np.empty(vals.size)
    for i in range(vals.size):
        u = vecs[:, i]
        mu = m @ u
        res[i] = np.linalg.norm(a @ u - vals[i] * mu) / np.linalg.norm(mu)
    return res


def _normalize_signs(vecs: np.ndarray) -> np.ndarray:
    for i in range(vecs.shape[1]):
        j = int(np.argmax(np.abs(vecs[:, i])))
        if vecs[j, i] < 0:
            vecs[:, i] = -vecs[:, i]
    return vecs


def _rayleigh_ritz(a, m, vecs) -> tuple[np.ndarray, np.ndarray]:
    """M-orthonormalize the block and diagonalize the projected pencil."""
    gram = vecs.T @ (m @ vecs)
    gram = 0.5 * (gram + gram.T)
    chol = sla.cholesky(gram, lower=True)
    basis = sla.solve_triangular(chol, vecs.T, lower=True).T
    proj = basis.T @ (a @ basis)
    proj = 0.5 * (proj + proj.T)
    vals, rot = sla.eigh(proj)
    return vals, basis @ rot


def _solve_dense(a, m, k) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues, by a dense solve.

    The mass is diagonal, so the pencil reduces to the symmetric matrix
    M^(-1/2) A M^(-1/2).
    """
    s = 1.0 / np.sqrt(np.asarray(m.diagonal()))
    sym = s[:, None] * a.toarray() * s[None, :]
    sym = 0.5 * (sym + sym.T)
    _, y = sla.eigh(sym, subset_by_index=[0, k - 1])
    return s[:, None] * y


def _ritz_pairs(a, m, k, vecs):
    """The k lowest Rayleigh-Ritz pairs of a block, with their residuals."""
    try:
        vals, vecs = _rayleigh_ritz(a, m, vecs)
    except np.linalg.LinAlgError as err:
        raise NonConvergenceError(f"eigenvector block lost rank: {err}") from err
    vals = vals[:k]
    vecs = _normalize_signs(np.ascontiguousarray(vecs[:, :k]))
    return vals, vecs, _residuals(a, m, vals, vecs)


def _invariant_along_v(pencil: OperatorPencil):
    """(T, w, d) if the pencil is invariant along v, the periodic axis of
    both grid kinds, or None.

    T is the coupling among the nodes at v index 0, w[i] the coupling of
    node (i, 0) to its v neighbour and d[i] its mass.
    """
    grid = pencil.grid
    if grid is None or not grid.periodic_v:
        return None
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


def _window(values, k) -> tuple[int, float]:
    """(size, limit) of the window of the k smallest values widened to the
    end of its edge cluster; limit is where a further value would join it."""
    vals = np.sort(values)
    if vals.size < k:
        return vals.size, np.inf
    edge = next(g for g in cluster_indices(vals) if k - 1 in g)
    top = vals[edge[-1]]
    return edge[-1] + 1, top + CLUSTER_REL_TOL * (1.0 + abs(top))


def _solve_reduced(grid, invariant, k) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues and of the rest of the
    cluster at the k-th, ascending; one dense block per Fourier mode along
    v."""
    t, w, d = invariant
    n, nb = grid.nv, d.size
    s = 1.0 / np.sqrt(d)
    sym = s[:, None] * t * s[None, :]
    sym = 0.5 * (sym + sym.T)
    found = []  # (value, mode, cos 0 | sin 1, block eigenvector)
    limit = np.inf
    for mode in range(n // 2 + 1):
        block = sym + np.diag(2.0 * math.cos(2.0 * math.pi * mode / n) * w * s * s)
        phases = (0,) if 2 * mode % n == 0 else (0, 1)
        count = min(nb, k)
        while True:
            vals, ys = sla.eigh(block, subset_by_index=[0, count - 1])
            _, limit = _window([f[0] for f in found] + list(vals) * len(phases), k)
            if count == nb or vals[-1] > limit:
                break
            count = min(nb, 2 * count)
        if vals[0] > limit:
            break
        found += [(v, mode, ph, s * ys[:, i]) for i, v in enumerate(vals) for ph in phases]
    size, _ = _window([f[0] for f in found], k)
    theta = 2.0 * math.pi * np.arange(n) / n
    vecs = []
    for _, mode, ph, y in sorted(found, key=lambda f: f[0])[:size]:
        wave = np.cos(mode * theta) if ph == 0 else np.sin(mode * theta)
        vecs.append(np.outer(y, wave).ravel())
    return np.stack(vecs, axis=1)


def _solve_sparse(a, m, k, sigma, opinv, v0) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues, ascending, by shift-invert
    Lanczos with `opinv` applying (A - sigma M)^-1; ncv widens until ARPACK
    converges."""
    n = v0.size
    ncv = min(n - 1, max(2 * k + 1, 20))
    while True:
        try:
            vals, vecs = spla.eigsh(
                a, k=k, M=m, sigma=sigma, which="LM", v0=v0, OPinv=opinv,
                ncv=ncv, maxiter=max(1000, 10 * n), tol=0,
            )
            break
        except spla.ArpackNoConvergence as err:
            if ncv >= min(n - 1, 8 * max(2 * k + 1, 20)):
                raise NonConvergenceError(
                    f"eigensolver failed to converge (ncv up to {ncv}): {err}",
                    residuals=None,
                ) from err
            ncv = min(n - 1, 2 * ncv)
    return vecs[:, np.argsort(vals)]


def smallest_eigenpairs(
    pencil: OperatorPencil,
    k: int,
    tol: float = 1e-9,
    seed: int = 0,
    method: str = "auto",
) -> Spectrum:
    """The k smallest eigenpairs of (A, M) with residuals bounded by tol.

    method is "auto" (the path the module docstring describes), "dense" or
    "sparse".
    """
    if k < 1:
        raise DomainError("need at least one eigenpair")
    n = pencil.node_count
    if k > n:
        raise DomainError(f"cannot extract {k} eigenpairs from {n} nodes")
    a = pencil.stiffness_minus_potential
    m = pencil.mass
    if method not in ("auto", "dense", "sparse"):
        raise DomainError(f"unknown eigensolver method {method!r}")
    invariant = _invariant_along_v(pencil) if method == "auto" else None
    if invariant is not None:
        method = "reduced"
    elif method == "auto":
        method = "dense" if k >= n - 1 else "sparse"
    if method == "sparse" and k >= n - 1:
        raise DomainError("sparse path needs k < node_count - 1")

    if method == "reduced":
        vals, vecs, res = _ritz_pairs(a, m, k, _solve_reduced(pencil.grid, invariant, k))
    elif method == "dense":
        vals, vecs, res = _ritz_pairs(a, m, k, _solve_dense(a, m, k))
    else:
        sigma = -float(np.max(pencil.potential)) - 1.0
        lu = spla.splu((a - sigma * m).tocsc(), permc_spec="MMD_AT_PLUS_A")
        opinv = spla.LinearOperator(a.shape, matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        window, widest = k, min(n - 2, 4 * k)
        vals, vecs, res = _ritz_pairs(a, m, k, _solve_sparse(a, m, window, sigma, opinv, v0))
        while float(np.max(res)) > tol and window < widest:
            window = min(widest, 2 * window)
            vals, vecs, res = _ritz_pairs(
                a, m, k, _solve_sparse(a, m, window, sigma, opinv, v0))
    if float(np.max(res)) > tol:
        raise NonConvergenceError(
            f"eigen-residual {np.max(res):.3e} exceeds tolerance {tol:.3e}",
            residuals=res,
        )
    return Spectrum(
        eigenvalues=vals, eigenvectors=vecs, residuals=res, method=method, seed=seed
    )


def cluster_indices(eigenvalues: np.ndarray,
                    rel_tol: float = CLUSTER_REL_TOL) -> list[list[int]]:
    """Group ascending eigenvalues into clusters of near-equal values.

    Neighbors closer than rel_tol * (1 + |value|) join the same cluster.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    groups: list[list[int]] = []
    for i in range(vals.size):
        if groups and vals[i] - vals[groups[-1][-1]] <= rel_tol * (1.0 + abs(vals[i])):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def eigenvalue_multiplicity(eigenvalues: np.ndarray, index: int,
                            rel_tol: float = CLUSTER_REL_TOL) -> int:
    """Size of the cluster containing the given eigenvalue index.

    The count is a lower bound when the cluster may extend past the
    computed window.
    """
    for group in cluster_indices(eigenvalues, rel_tol):
        if index in group:
            return len(group)
    raise DomainError(f"eigenvalue index {index} outside the computed window")
