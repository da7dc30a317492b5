"""Smallest eigenpairs of the symmetric pencil (A, M).

The sparse path uses shift-invert Lanczos with the shift placed strictly
below the bottom of the spectrum (lambda_1 >= -max q because the
stiffness part is positive semidefinite), which makes A - shift*M
positive definite and the smallest eigenvalues the dominant ones of the
transformed problem.  A Rayleigh-Ritz pass through the returned subspace
tightens clustered eigenvalues.  A window of k pairs that cuts an
eigenvalue cluster can leave the pairs at its edge short of the residual
tolerance; the solve is then repeated with a doubled window, up to
min(n - 2, 4k), and the first k Ritz pairs are kept.  A dense path
(explicit symmetric reduction) covers small problems and serves as an
independent cross-check of the sparse solver.

Results are deterministic: the Lanczos starting vector is drawn from a
seeded generator recorded in the output.
"""

from __future__ import annotations

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

DENSE_NODE_LIMIT = 2000
CLUSTER_REL_TOL = 1e-6


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


def _solve_sparse(a, m, k, sigma, v0) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues, ascending, by shift-invert
    Lanczos; ncv widens until ARPACK converges."""
    n = v0.size
    ncv = min(n - 1, max(2 * k + 1, 20))
    while True:
        try:
            vals, vecs = spla.eigsh(
                a, k=k, M=m, sigma=sigma, which="LM", v0=v0,
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
    """The k smallest eigenpairs of (A, M) with residuals bounded by tol."""
    if k < 1:
        raise DomainError("need at least one eigenpair")
    n = pencil.node_count
    if k > n:
        raise DomainError(f"cannot extract {k} eigenpairs from {n} nodes")
    a = pencil.stiffness_minus_potential
    m = pencil.mass
    if method not in ("auto", "dense", "sparse"):
        raise DomainError(f"unknown eigensolver method {method!r}")
    if method == "auto":
        method = "dense" if (n <= DENSE_NODE_LIMIT or k >= n - 1) else "sparse"
    if method == "sparse" and k >= n - 1:
        raise DomainError("sparse path needs k < node_count - 1")

    if method == "dense":
        vals, vecs, res = _ritz_pairs(a, m, k, _solve_dense(a, m, k))
    else:
        sigma = -float(np.max(pencil.potential)) - 1.0
        v0 = np.random.default_rng(seed).standard_normal(n)
        window, widest = k, min(n - 2, 4 * k)
        vals, vecs, res = _ritz_pairs(a, m, k, _solve_sparse(a, m, window, sigma, v0))
        while float(np.max(res)) > tol and window < widest:
            window = min(widest, 2 * window)
            vals, vecs, res = _ritz_pairs(a, m, k, _solve_sparse(a, m, window, sigma, v0))
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
