"""Smallest eigenpairs of the symmetric pencil (A, M).

`smallest_eigenpairs` has three paths and picks one from the pencil's data:

* reduced: taken whenever `assemble` marked the pencil invariant along v,
  the periodic axis of both grid kinds, at any size.  A is then
  block-circulant: the coupling T among the nodes at v index 0, repeated
  at every v index, plus the coupling w <= 0 of each node to its two v
  neighbours; T, w and the mass d are sliced from the rows at v index 0.
  A discrete Fourier transform along v splits the pencil into one block
  per mode m, B_m = T + 2 cos(2 pi m / n) diag(w).  On sphere grids,
  which do not wrap along u, T and every block are tridiagonal and solved
  as such; on torus grids T wraps, and the blocks are solved densely.
  Because w <= 0, the blocks grow with m for 0 <= m <= n/2 (Weyl), so
  modes are visited in order and the loop stops at the first mode whose
  lowest eigenvalue lies above the window: every eigenvalue
  below the window's top is found, and the window takes in the whole
  cluster at its edge.  The vectors y cos(m theta) and y sin(m theta) of
  the window are exact block eigenvectors, and the discrete waves are
  orthogonal, so they are normalized in closed form.
* sparse: every other pencil, at every size, by shift-invert Lanczos
  with the shift placed strictly below the bottom of the spectrum
  (lambda_1 >= -max q because the stiffness part is positive
  semidefinite), which makes A - shift*M positive definite and the
  smallest eigenvalues the dominant ones of the transformed problem.
  A - shift*M is factored once (minimum-degree ordering on A + A^T) and
  the factor serves every Lanczos run.  A window of k pairs that cuts an
  eigenvalue cluster can leave the pairs at its edge short of the
  residual tolerance; the solve is then repeated with a doubled window,
  up to min(n - 2, 4k), and the first k vectors are kept.  The residual,
  not the reduced path's cluster rule, triggers the doubling: that rule
  would run Lanczos twice wherever lambda_k = lambda_(k+1), although the
  first run's pairs already meet the tolerance.
* dense: an explicit symmetric reduction, taken only for k >= n - 1,
  which ARPACK cannot handle; as method="dense" it is also the
  independent cross-check of the other two.

One tail serves the three paths.  Each yields M-orthonormal vectors (exact
eigenvectors, or Lanczos vectors converged to round-off), and
`_exact_pairs` alone makes them pairs: each eigenvalue is the Rayleigh
quotient theta of its vector, the value a residual enclosure of
|lambda - theta| (Weinstein) bounds, so no path needs a Rayleigh-Ritz pass.

Results are deterministic: the Lanczos starting vector is drawn from a
generator seeded by the caller, and reports record that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
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


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with M-orthonormal vectors and residuals."""

    eigenvalues: np.ndarray  # (k,)
    eigenvectors: np.ndarray  # (n, k), columns M-orthonormal
    residuals: np.ndarray  # (k,) ||A u - lambda M u|| / ||M u||
    method: str


def _scaled(t, d):
    """(D^(-1/2) T D^(-1/2), symmetrized, and D^(-1/2)) for the diagonal mass d."""
    s = 1.0 / np.sqrt(d)
    sym = s[:, None] * t * s[None, :]
    return 0.5 * (sym + sym.T), s


def _solve_dense(pencil: OperatorPencil, k) -> np.ndarray:
    """M-orthonormal eigenvectors s y of the k smallest eigenvalues, with y
    the orthonormal eigenvectors of M^(-1/2) A M^(-1/2) (M is diagonal)."""
    sym, s = _scaled(pencil.stiffness_minus_potential.toarray(), pencil.mass_diagonal)
    _, y = sla.eigh(sym, subset_by_index=[0, k - 1])
    return s[:, None] * y


def _exact_pairs(a, d, vecs):
    """Ascending pairs from M-orthonormal vectors (M = diag(d)), each flipped to
    peak positive: Rayleigh quotients lambda and residuals ||A u - lambda M u|| / ||M u||.
    Every pass runs along one contiguous vector, a row of vecs^T; neither
    lambda nor the residual depends on the sign, so the flip comes last."""
    u = np.ascontiguousarray(vecs.T)
    au = np.abs(u)
    peak = u[np.arange(u.shape[0]), np.argmax(au, axis=1)]
    for row, x in zip(au, u):
        row[:] = a @ x
    mu = u * d
    vals = np.einsum("ij,ij->i", u, au) / np.einsum("ij,ij->i", u, mu)
    norms = np.einsum("ij,ij->i", mu, mu)
    mu *= vals[:, None]
    au -= mu  # now the residuals A u - lambda M u
    res = np.sqrt(np.einsum("ij,ij->i", au, au) / norms)
    order = np.argsort(vals, kind="stable")
    u = u[order]
    u *= np.where(peak[order] < 0, -1.0, 1.0)[:, None]
    return vals[order], u.T, res[order]


def _circulant_parts(pencil: OperatorPencil):
    """(T, w, d) of a pencil invariant along v, from the rows at v index 0:
    T the coupling among those nodes, w[i] the coupling of node (i, 0) to
    its v neighbour and d[i] its mass."""
    n = pencil.grid.nv
    head = pencil.stiffness_minus_potential[::n]
    return head[:, ::n].toarray(), head[:, 1::n].diagonal(), pencil.mass_diagonal[::n]


def _window(values, k) -> tuple[int, float]:
    """(size, limit) of the window of the k smallest values widened to the
    end of its edge cluster; limit is where a further value would join it."""
    vals = np.sort(values)
    if vals.size < k:
        return vals.size, np.inf
    edge = next(g for g in cluster_indices(vals) if k - 1 in g)
    top = vals[edge[-1]]
    return edge[-1] + 1, top + CLUSTER_REL_TOL * (1.0 + abs(top))


def _solve_reduced(pencil: OperatorPencil, k) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues and of the rest of the
    cluster at the k-th, ascending; one block per Fourier mode along v,
    tridiagonal where T is (no wrap along u) and dense otherwise.  They are
    M-orthonormal: y cos(m theta) and y sin(m theta) are exact block
    eigenvectors, and each wave is scaled to unit norm."""
    t, w, d = _circulant_parts(pencil)
    n, nb = pencil.grid.nv, d.size
    sym, s = _scaled(t, d)
    tridiagonal = not np.any(np.triu(t, 2))
    found = []  # (value, mode, cos 0 | sin 1, block eigenvector)
    limit = np.inf
    for mode in range(n // 2 + 1):
        shift = 2.0 * math.cos(2.0 * math.pi * mode / n) * w * s * s
        phases = (0,) if 2 * mode % n == 0 else (0, 1)
        # k + 1: a first solve of k values always doubles, since the k-th
        # lies inside its own window
        count = min(nb, k + 1)
        while True:
            if tridiagonal:
                vals, ys = sla.eigh_tridiagonal(np.diagonal(sym) + shift, np.diagonal(sym, 1),
                                                select="i", select_range=(0, count - 1))
            else:
                vals, ys = sla.eigh(sym + np.diag(shift), subset_by_index=[0, count - 1])
            _, limit = _window([f[0] for f in found] + list(vals) * len(phases), k)
            if count == nb or vals[-1] > limit:
                break
            count = min(nb, 2 * count)
        if vals[0] > limit:
            break
        found += [(v, mode, ph, s * ys[:, i]) for i, v in enumerate(vals) for ph in phases]
    size, _ = _window([f[0] for f in found], k)
    window = sorted(found, key=lambda f: f[0])[:size]
    theta = 2.0 * math.pi * np.arange(n) / n
    # y is D-orthonormal; sum cos^2 = n at m = 0 and m = n/2, else n/2
    waves = np.array([(np.sin if ph else np.cos)(mode * theta)
                      / math.sqrt(n if 2 * mode % n == 0 else n / 2)
                      for _, mode, ph, _ in window])
    ys = np.array([y for *_, y in window])
    return (ys[:, :, None] * waves[:, None, :]).reshape(size, nb * n).T


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
                    f"eigensolver failed to converge (ncv up to {ncv}): {err}") from err
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
    if method == "auto":
        method = ("reduced" if pencil.invariant_along_v
                  else "dense" if k >= n - 1 else "sparse")
    if method == "sparse" and k >= n - 1:
        raise DomainError("sparse path needs k < node_count - 1")

    if method == "sparse":
        sigma = -float(np.max(pencil.potential)) - 1.0
        lu = spla.splu((a - sigma * m).tocsc(), permc_spec="MMD_AT_PLUS_A")
        opinv = spla.LinearOperator(a.shape, matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        window, widest = k, min(n - 2, 4 * k)
        while True:
            vecs = _solve_sparse(a, m, window, sigma, opinv, v0)[:, :k]
            vals, vecs, res = _exact_pairs(a, pencil.mass_diagonal, vecs)
            if float(np.max(res)) <= tol or window == widest:
                break
            window = min(widest, 2 * window)
    else:
        vecs = (_solve_reduced(pencil, k)[:, :k] if method == "reduced"
                else _solve_dense(pencil, k))
        vals, vecs, res = _exact_pairs(a, pencil.mass_diagonal, vecs)
    if float(np.max(res)) > tol:
        raise NonConvergenceError(
            f"eigen-residual {np.max(res):.3e} exceeds tolerance {tol:.3e}",
            residuals=res,
        )
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residuals=res, method=method)


def cluster_indices(eigenvalues: np.ndarray) -> list[list[int]]:
    """Group ascending eigenvalues into clusters of near-equal values.

    Neighbors closer than CLUSTER_REL_TOL * (1 + |value|) join the same
    cluster.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    groups: list[list[int]] = []
    for i in range(vals.size):
        close = CLUSTER_REL_TOL * (1.0 + abs(vals[i]))
        if groups and vals[i] - vals[groups[-1][-1]] <= close:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def eigenvalue_multiplicity(eigenvalues: np.ndarray, index: int) -> int:
    """Size of the cluster containing the given eigenvalue index.

    The count is a lower bound when the cluster may extend past the
    computed window.
    """
    for group in cluster_indices(eigenvalues):
        if index in group:
            return len(group)
    raise DomainError(f"eigenvalue index {index} outside the computed window")
