"""Smallest eigenpairs of the symmetric pencil (A, M).

`smallest_eigenpairs(pencil, k)` returns a closed window: the k smallest
eigenpairs and the rest of the cluster the k-th eigenvalue belongs to, so
the multiplicity of any eigenvalue up to the k-th is the size of its
cluster in the window.  It has two paths and picks one from the pencil's
data alone:

* reduced: taken whenever `assemble` marked the pencil invariant along v,
  the periodic axis of both grid kinds, at any size: the pencil of a
  surface of revolution about v with no cross term.  A is then
  block-circulant: the coupling T among the nodes at v index 0, repeated
  at every v index, plus the coupling w <= 0 of each node to its two v
  neighbours; T, w and the mass d are read from the pencil's meridian
  stencil and mass, and no N-node array is formed.  A discrete Fourier
  transform along v splits the pencil into one block per mode m,
  B_m = T + 2 cos(2 pi m / n) diag(w).  On sphere grids, which do not
  wrap along u, T and every block are tridiagonal, kept as their
  diagonals and solved as such; on torus grids T wraps, and T and the
  blocks are dense.  Because w <= 0, the blocks grow with m for
  0 <= m <= n/2 (Weyl), so modes are visited in order and the loop stops
  at the first mode whose lowest eigenvalue lies above the window: every
  eigenvalue below the window's top is found, and the window takes in the
  whole cluster at its edge.  The vectors y cos(m theta) and
  y sin(m theta) of the window are exact block eigenvectors, and the
  discrete waves are orthogonal, so they are normalized in closed form.  Each mode's block
  vectors are judged on B_m as soon as the mode is solved: theta =
  y^T B_m y / y^T D y and the residual ||(B_m - theta D) y|| / ||D y|| equal
  the quotient and residual of either N-node wave on (A, M) in exact
  arithmetic (the discrete waves are eigenvectors of the circulant).  The
  window is cut from the judged pairs.  Its vectors are handed on as the
  meridian factors y and their waves, and the N-node vectors are formed
  only when a reader asks (`Spectrum.eigenvectors`).
* sparse: every other pencil, at every size, by shift-invert Lanczos
  (Ericsson & Ruhe 1980) with the shift sigma placed strictly below the
  bottom of the spectrum (lambda_1 >= -max q because the stiffness part
  is positive semidefinite), which makes A - sigma M positive definite.
  A - sigma M is factored once (minimum-degree ordering on A + A^T) and
  the factor serves every Lanczos run.  M = D is diagonal, so Lanczos
  runs in ARPACK's standard mode on the symmetric positive definite
  D^(1/2) (A - sigma D)^-1 D^(1/2), one factor solve per step and no
  product with M: its largest eigenvalues nu = 1 / (lambda - sigma) are
  the smallest lambda, and its orthonormal vectors y give M-orthonormal
  u = D^(-1/2) y.  The first window holds k + 2 pairs, enough to close a
  pair at the k-th eigenvalue.  It doubles, up to min(n - 2, 4(k + 2)),
  while its top value still belongs to the k-th eigenvalue's cluster or a
  pair of the closed window exceeds the residual tolerance.  ARPACK cannot
  take k >= n - 1, so that request is a DomainError here.  One function,
  `_lanczos_window`, runs this window rule, and one driver,
  `_solve_blocks`, runs it on the blocks below.

  Symmetry blocks.  Every sparse pencil is solved as blocks.  A pencil
  with grid maps (`OperatorPencil.maps`, the commuting involutions a Y_l,m
  graph declares) commutes with the group G they generate, of order 2 or
  4, so it splits into one real block per character chi of G (Fassler &
  Stiefel 1992; Bossavit 1986).  A block lives on the orbits whose
  stabilizer chi is 1 on; its vector for orbit O with least node r is sum
  over x in O of chi(g_x) e_x / sqrt(|O|), g_x mapping r to x.  `_fold`
  forms each block from A's CSR rows at those r by index arithmetic alone:
  the entry of row r in column y goes to the vector of y's orbit O_y times
  chi(g_y) sqrt(|O_r| / |O_y|); the block is then symmetrized, its CSR
  arrays cut to its own nnz, and its mass is d at r.  A block keeps no
  N-node array: all blocks share one orbit record (each node's least orbit
  node, the element mapping the node there and the orbit size, in
  int32/int8 arrays), and `_spread` forms a window vector on the N nodes
  from it.  A pencil with no maps, or with a block too small for the
  widest window of k, is folded by the trivial group: one block, A itself
  with its own arrays, and no second N-node matrix.  The trivial
  character's block, which holds the ground state, is solved first by the
  window rule for k.  Then every block whose level (the top of its last
  window, or the limit it last counted 0 at) lies below the window limit
  L (`_window`) is counted at L: the negative
  pivots of a symmetric factor of B - L D with diagonal pivots
  (Sylvester's law of inertia).  That counts the trivial block where its
  widest window ended inside the k-th value's cluster, and a block again
  where L rises past its level (a cluster that spans blocks grows at its
  top).  A count of 0 skips the block; a count of c runs the window rule
  for c, whose window must hold c values below L (the widest window short
  of them is a NonConvergenceError).  A factor that is singular or pivots
  off the diagonal gives no count, and its block is solved for k with no
  bound: only there can a window be cut, where the k-th value's cluster
  reaches the top of that block's widest window.  The window is cut from
  the union of the block pairs, and only its vectors are formed on the N
  nodes, to be judged on (A, M) by the tail below.

One tail serves both paths.  Each yields M-orthonormal vectors (exact
block eigenvectors, or Lanczos vectors converged to round-off), and
`_exact_pairs` alone makes them pairs, on B_m and diag(d), or on (A, M)
(blocks only choose the window; their pairs are judged again on (A, M)):
each eigenvalue is the Rayleigh quotient theta of its vector, the value a
residual enclosure of |lambda - theta| (Weinstein) bounds, so no path
needs a Rayleigh-Ritz pass.

Results are deterministic: the Lanczos starting vector is drawn from a
generator seeded by the caller, and reports record that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a closed window (k asked for, and the rest
    of the k-th value's cluster: j >= k in all) with M-orthonormal vectors
    and residuals.  The sparse path hands on the N-node vectors as
    `factors`; the reduced path hands on each vector's meridian factor y
    and its wave along v, and `eigenvectors` forms the N-node vectors from
    them when first read."""

    eigenvalues: np.ndarray  # (j,)
    residuals: np.ndarray  # (j,) ||A u - lambda M u|| / ||M u||
    method: str  # "reduced" or "sparse"
    factors: np.ndarray  # (n, j) the vectors, or (nu, j) their meridian factors
    waves: np.ndarray | None = None  # (j, nv) their waves along v, reduced path only

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(n, j), columns M-orthonormal: `factors`, or column j the outer
        product of meridian factor j and wave j, flattened row-major."""
        if self.waves is None:
            return self.factors
        ys, size = self.factors.T, self.eigenvalues.size
        return (ys[:, :, None] * self.waves[:, None, :]).reshape(size, -1).T


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


@dataclass(frozen=True)
class _Tridiagonal:
    """The symmetric tridiagonal matrix with diagonal `main` and first
    off-diagonal `off`.  Its product sums each row's two neighbour terms and
    then adds the diagonal term: the order in which OpenBLAS's dense row
    product (dgemv, 0.3.31 on an AVX-512 Xeon) sums the three, so that
    there a product agrees bit for bit with one by the dense form."""

    main: np.ndarray
    off: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        y[1:] = self.off * x[:-1]
        y[:-1] += self.off * x[1:]
        y += self.main * x
        return y


def _circulant_parts(pencil: OperatorPencil):
    """(T, w, d) of a pencil invariant along v, from its meridian stencil and
    mass: T the coupling among the nodes at v index 0, w[i] the coupling of
    node (i, 0) to its v neighbour and d[i] its mass.  On a torus grid, where
    T wraps along u, T is a dense array; a sphere grid has no face past its
    last latitude row, and T is kept as its diagonals (`_Tridiagonal`)."""
    cu, cv, diag = (x.ravel() for x in pencil.meridian)
    if pencil.grid.periodic_u:
        up = np.zeros((cu.size, cu.size))
        up[np.arange(cu.size), (np.arange(cu.size) + 1) % cu.size] = cu
        t = np.diag(diag) - (up + up.T)
    else:
        t = _Tridiagonal(diag, -cu[:-1])
    return t, -cv, pencil.mass


def _window(values, k) -> tuple[int, float]:
    """(size, limit) of the window of the k smallest values widened to the
    end of its edge cluster; limit is where a further value would join it."""
    vals = np.sort(values)
    if vals.size < k:
        return vals.size, np.inf
    edge = next(g for g in cluster_indices(vals) if k - 1 in g)
    top = vals[edge[-1]]
    return edge[-1] + 1, top + CLUSTER_REL_TOL * (1.0 + abs(top))


def _solve_reduced(pencil: OperatorPencil, k):
    """The spectrum of the k smallest eigenvalues and of the rest of the
    cluster at the k-th, its vectors as meridian factors y and waves: each
    mode's block vectors are judged on its Fourier block once the mode is
    solved, and the window is cut from them.  The vectors are M-orthonormal,
    each wave scaled to unit norm, and y and its wave each peak positive."""
    t, w, d = _circulant_parts(pencil)
    n, nb = pencil.grid.nv, d.size
    s = 1.0 / np.sqrt(d)
    tridiagonal = not pencil.grid.periodic_u
    if tridiagonal:  # the two diagonals of the dense form below, bit for bit
        off = t.off
        sym = s * t.main * s, 0.5 * ((s[:-1] * off) * s[1:] + (s[1:] * off) * s[:-1])
    else:
        sym = s[:, None] * t * s[None, :]
        sym = 0.5 * (sym + sym.T)  # D^(-1/2) T D^(-1/2), exactly symmetric
    found = []  # (quotient, residual, mode, cos 0 | sin 1, y)
    limit = np.inf
    for mode in range(n // 2 + 1):
        c = 2.0 * math.cos(2.0 * math.pi * mode / n)
        shift = c * w * s * s
        phases = (0,) if 2 * mode % n == 0 else (0, 1)
        # k + 1: a first solve of k values always doubles, since the k-th
        # lies inside its own window; k + 2 where T wraps along u, whose
        # values come in cos/sin pairs along u on the tori, so that the
        # (k + 1)-th would pair with the (k + 2)-th
        count = min(nb, k + 1 if tridiagonal else k + 2)
        while True:
            if tridiagonal:
                vals, ys = sla.eigh_tridiagonal(sym[0] + shift, sym[1],
                                                select="i", select_range=(0, count - 1))
            else:
                vals, ys = sla.eigh(sym + np.diag(shift), subset_by_index=[0, count - 1])
            _, limit = _window([f[0] for f in found] + list(vals) * len(phases), k)
            if count == nb or vals[-1] > limit:
                break
            count = min(nb, 2 * count)
        if vals[0] > limit:
            break
        block = _Tridiagonal(t.main + c * w, t.off) if tridiagonal else t + np.diag(c * w)
        vals, ys, res = _exact_pairs(block, d, s[:, None] * ys)
        found += [(v, r, mode, ph, y) for ph in phases for v, r, y in zip(vals, res, ys.T)]
    found.sort(key=lambda f: f[0])
    size, _ = _window([f[0] for f in found], k)
    vals, res, modes, sines, ys = (np.array(part) for part in zip(*found[:size]))
    # y is D-orthonormal; sum cos^2 = n at m = 0 and m = n/2, else n/2
    angles = np.outer(modes, 2.0 * math.pi * np.arange(n) / n)
    waves = np.where(sines[:, None] == 1, np.sin(angles), np.cos(angles))
    waves /= np.sqrt(np.where(2 * modes % n == 0, n, n / 2))[:, None]
    waves *= np.sign(waves[np.arange(size), np.argmax(np.abs(waves), axis=1)])[:, None]
    return Spectrum(vals, res, "reduced", ys.T, waves)


def _solve_sparse(op, k, v0) -> np.ndarray:
    """Orthonormal eigenvectors of the k largest eigenvalues of the symmetric
    positive definite operator `op`, by Lanczos in ARPACK's standard mode;
    ncv widens until ARPACK converges."""
    n = v0.size
    ncv = min(n - 1, max(2 * k + 1, 20))
    while True:
        try:
            return spla.eigsh(op, k=k, which="LA", v0=v0, ncv=ncv,
                              maxiter=max(1000, 10 * n), tol=0)[1]
        except spla.ArpackNoConvergence as err:
            if ncv >= min(n - 1, 8 * max(2 * k + 1, 20)):
                raise NonConvergenceError(
                    f"eigensolver failed to converge (ncv up to {ncv}): {err}") from err
            ncv = min(n - 1, 2 * ncv)


def _lanczos_window(a, d, sigma, k, v0, tol, below=np.inf):
    """Pairs of the closed window of the k smallest eigenvalues of
    (a, diag(d)), as `_exact_pairs` returns them, by shift-invert Lanczos
    at sigma from v0 (see the module docstring).  The window doubles while
    its top value belongs to the k-th value's cluster, a pair of the closed
    window exceeds tol, or fewer than k of its values lie below `below`; a
    widest window still short of those is a NonConvergenceError.  Also
    returns the top value of the last window: the pencil has no eigenvalue
    below it that the window lacks."""
    n = d.size
    lu = spla.splu(_shifted(a, d, sigma), permc_spec="MMD_AT_PLUS_A")
    root = np.sqrt(d)
    # D^(1/2) (A - sigma D)^-1 D^(1/2): eigenvalues 1 / (lambda - sigma)
    op = spla.LinearOperator(a.shape, matvec=lambda y: root * lu.solve(root * y), dtype=float)
    window, widest = min(n - 2, k + 2), min(n - 2, 4 * (k + 2))
    while True:
        vals, vecs, res = _exact_pairs(a, d, _solve_sparse(op, window, v0) / root[:, None])
        size, limit = _window(vals, k)
        held = np.count_nonzero(vals < below) >= k
        if window == widest or (held and vals[-1] > limit
                                and float(np.max(res[:size])) <= tol):
            break
        window = min(widest, 2 * window)
    if not held:
        raise NonConvergenceError(
            f"a block counts {k} eigenvalues below {below:.6g}; its widest "
            f"window of {window} holds {np.count_nonzero(vals < below)}")
    return vals[:size], vecs[:, :size], res[:size], vals[-1]


def _character(c: int, order: int) -> np.ndarray:
    """chi[g] of character c of the group of `order` (2 or 4) that the
    maps generate, element g the product of the maps whose bits it sets:
    -1 where g has an odd number of bits in common with c, else 1."""
    return np.array([(-1.0) ** bin(c & g).count("1") for g in range(order)])


def _fold(pencil: OperatorPencil):
    """(blocks, orbits): one block (B, d, domain) per character chi of the
    group that the pencil's maps generate, the trivial character first, with
    `domain` the least nodes of the orbits chi lives on in block order and d
    the mass there; and the orbit record (least, element, size) by node that
    all blocks share (see the module docstring).  Where A commutes with the
    maps, B = Q^T A Q for the orthonormal Q of the block vectors (`_spread`).
    B keeps arrays of its own nnz, where a CSR sum keeps buffers for the nnz
    of both terms."""
    a, n = pencil.stiffness_minus_potential, pencil.node_count
    if not pencil.maps:  # the trivial group: A itself is the one block
        nodes = np.arange(n, dtype=np.int32)
        return ([(a, pencil.mass_diagonal, nodes)],
                (nodes, np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)))
    images = [np.arange(n)]  # images[g][x]: the image of node x under element g
    for m in pencil.maps:
        image = m.image(pencil.grid)
        images += [image[x] for x in images]
    images = np.array(images)
    least, to_least = images.min(axis=0), images.argmin(axis=0)
    fixed = images == np.arange(n)
    size = len(images) / np.count_nonzero(fixed, axis=0)  # |group| / |stabilizer|
    reps = np.flatnonzero(least == np.arange(n))
    rows = a[reps]
    owner = np.repeat(reps, np.diff(rows.indptr))
    scaled = 0.5 * rows.data * np.sqrt(size[owner])  # halved for the symmetrization
    blocks = []
    for c in range(len(images)):
        chi = _character(c, len(images))
        # chi lives on an orbit unless it is -1 on an element fixing the orbit
        kept = ~np.any(fixed & (chi < 0)[:, None], axis=0)
        coef = np.where(kept, chi[to_least] / np.sqrt(size), 0.0)
        domain = reps[kept[reps]]
        place = np.zeros(n, dtype=np.int64)
        place[domain] = np.arange(domain.size)
        weight = coef[rows.indices] * kept[owner]
        on = np.flatnonzero(weight)
        half = sp_sparse.csr_matrix(
            (scaled[on] * weight[on], (place[owner[on]], place[least[rows.indices[on]]])),
            shape=(domain.size,) * 2)
        b = half + half.T
        b.data, b.indices = b.data.copy(), b.indices.copy()
        blocks.append((b, pencil.mass_diagonal[domain], domain.astype(np.int32)))
    return blocks, (least.astype(np.int32), to_least.astype(np.int8), size.astype(np.int8))


def _spread(orbits, chi, domain, z) -> np.ndarray:
    """The N-node vector of a vector z of the block of character chi, with
    domain `domain`: coef * z[col], where node x of an orbit O that chi
    lives on has coef[x] = chi(g) / sqrt(|O|), g the element mapping x to
    O's least node, and col[x] the orbit's place in the block; elsewhere
    coef is 0."""
    least, element, size = orbits
    place = np.zeros(least.size, dtype=np.int64)
    place[domain] = np.arange(domain.size)
    coef = np.where(np.isin(least, domain), chi[element] / np.sqrt(size, dtype=float), 0.0)
    return coef * z[place[least]]


def _shifted(a, d, shift):
    """a - shift diag(d) in CSC form, for a factor; a is exactly symmetric,
    so the arrays of its CSR form are those of its CSC form."""
    c = a - sp_sparse.diags(shift * d, format="csr")
    return sp_sparse.csc_matrix((c.data, c.indices, c.indptr), shape=c.shape)


def _count_below(b, d, limit) -> int | None:
    """The number of eigenvalues of (b, diag(d)) below limit: the negative
    pivots of a symmetric factor of b - limit diag(d) with diagonal pivots
    (Sylvester's law of inertia), or None where that factor is singular or
    pivots off the diagonal."""
    try:
        lu = spla.splu(_shifted(b, d, limit), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError:  # an exactly singular factor
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _solve_blocks(blocks, orbits, k, sigma, tol, rng):
    """The N-node vectors of the window of k, cut from pairs found and
    judged on the blocks of `_fold` (see the module docstring)."""
    b, d = blocks[0][:2]
    *pairs, top = _lanczos_window(b, d, sigma, k, rng.standard_normal(d.size), tol)
    found, level = {0: pairs}, {0: top}  # a block has no eigenvalue below its level unfound
    while True:
        _, limit = _window(np.concatenate([f[0] for f in found.values()]), k)
        i = next((i for i in range(len(blocks)) if level.get(i, -np.inf) < limit), None)
        if i is None:
            break
        b, d = blocks[i][:2]
        count = _count_below(b, d, limit)
        level[i] = limit
        if count == 0:
            continue
        *found[i], top = _lanczos_window(b, d, sigma, count or k, rng.standard_normal(d.size),
                                         tol, limit if count else np.inf)
        level[i] = max(limit, top)
    owner = [(i, j) for i, f in found.items() for j in range(f[0].size)]
    values = np.concatenate([f[0] for f in found.values()])
    size, _ = _window(values, k)
    vectors = []
    for i, j in (owner[at] for at in np.argsort(values, kind="stable")[:size]):
        vectors.append(_spread(orbits, _character(i, len(blocks)), blocks[i][2],
                               found[i][1][:, j]))
    return np.column_stack(vectors)


def smallest_eigenpairs(
    pencil: OperatorPencil,
    k: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> Spectrum:
    """The k smallest eigenpairs of (A, M) and the rest of the k-th
    eigenvalue's cluster, with residuals bounded by tol, on the path the
    module docstring describes."""
    if k < 1:
        raise DomainError("need at least one eigenpair")
    n = pencil.node_count
    if k > n:
        raise DomainError(f"cannot extract {k} eigenpairs from {n} nodes")
    if pencil.invariant_along_v:
        spectrum = _solve_reduced(pencil, k)
    else:
        a, d = pencil.stiffness_minus_potential, pencil.mass_diagonal
        if k >= n - 1:
            raise DomainError("sparse path needs k < node_count - 1")
        sigma = -float(np.max(pencil.potential)) - 1.0
        rng = np.random.default_rng(seed)
        blocks, orbits = _fold(pencil)
        # every block must hold the widest window of k, or A is the one block
        if pencil.maps and min(block[1].size for block in blocks) < 4 * (k + 2) + 2:
            blocks, orbits = _fold(replace(pencil, maps=()))
        vals, vecs, res = _exact_pairs(a, d, _solve_blocks(blocks, orbits, k, sigma, tol, rng))
        spectrum = Spectrum(vals, res, "sparse", vecs)
    res = spectrum.residuals
    if float(np.max(res)) > tol:
        raise NonConvergenceError(
            f"eigen-residual {np.max(res):.3e} exceeds tolerance {tol:.3e}",
            residuals=res,
        )
    return spectrum


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

    On a window from `smallest_eigenpairs(pencil, k)` the count is exact for
    every index below k, with one exception on the sparse path: a block
    whose factor gives no inertia count is solved for k with no bound, and
    where the k-th value's cluster reaches the top of that block's widest
    window, the count of that cluster is a lower bound.
    """
    for group in cluster_indices(eigenvalues):
        if index in group:
            return len(group)
    raise DomainError(f"eigenvalue index {index} outside the computed window")
