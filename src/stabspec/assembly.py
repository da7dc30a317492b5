"""Assembly of the discrete stability pencil (A, M).

A is the weak form of -Laplacian - q on the immersed surface and M the
quadrature mass matrix, so generalized eigenvalues of (A, M) approximate
the spectrum of the stability operator.  q = |sigma|^2 + Ric(normal) —
which is |sigma|^2 + 2 on the 3-sphere.

Scheme.  The Laplace-Beltrami energy
    integral of [a u_u^2 + 2 c u_u u_v + b u_v^2] du dv,
with a = sqrt(g) g^uu, b = sqrt(g) g^vv, c = sqrt(g) g^uv, is discretized
by finite-volume face conductances for the diagonal terms (two-point
fluxes with arithmetically averaged coefficients) plus a symmetric
collocation product D_u^T diag(c w) D_v + transpose for the cross term.
The face conductances and the potential are written as one 5-point CSR
matrix from (row, col, value) triplets, the diagonal and each face both
ways; on a grid of at least 3 nodes per axis (the floor is 8) no two share
an entry, so the CSR is bit for bit the COO sum of the faces.  A cross
term C is added to it in one piece, as C + C^T, which has no diagonal.  A
is therefore exactly symmetric for any field values, and nothing checks it
at run time: both couplings of a face are one float, and the (i, j) and
(j, i) entries of C + C^T are the same IEEE sum (addition commutes).
`tests/test_assembly.py` and the golden CLI traffic guard it.
Constants are annihilated exactly: face differences cancel and the
first-derivative stencils have exactly representable weights summing to
zero.  Potential and mass use the same nodal quadrature
(trapezoid/midpoint weights sqrt(g) du dv), so A·1 = -q∘(M·1) holds
entrywise to round-off.

On non-periodic (sphere) grids the missing boundary faces implement the
natural zero-flux closure; polar caps carry no face but keep their mass,
which is the correct cell-centered treatment of the coordinate poles.

Invariance along v, the periodic axis of both grid kinds.  A pencil is
invariant along v when its surface is marked a surface of revolution
(`ImmersedSurface.revolution`, set by `catalog.build`) and no cross term
was added: the reduced eigen path models the 5-point stencil alone.  The
fields are then the meridian's, repeated along v
(`surfaces.compute_geometry`), so `assemble` writes the stencil on the nu
nodes at v index 0 alone, with the expressions of the full grid: on a
nu x 1 array a v face averages a value with itself and the roll along v is
the identity, so each value is bit for bit that of every v column.  A is
then exactly block-circulant: the coupling T among the nodes at v index 0
repeats at every v index, and each node couples to its two v neighbours
by w = -cv < 0.  The pencil keeps the meridian stencil, and the same
layout code forms its N-node CSR only when A is first read.

Grid maps.  The maps a surface declares (`ImmersedSurface.maps`: mirrors
and half-turns of the grid, see `grids.NodeMap`) pass to the pencil.  A
map carries each face to a face and each first-derivative stencil to
itself or, where it reverses that axis, to its negative; so where the
fields are invariant, with g^uv taking the map's sign (which
`compute_geometry` checks), A and M commute with the map up to round-off
in the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp_sparse

from .errors import AssemblyError, DomainError
from .grids import Grid, NodeMap
from .surfaces import GeometryFields, ImmersedSurface

__all__ = ["OperatorPencil", "assemble", "rayleigh"]


@dataclass(frozen=True)
class OperatorPencil:
    """Symmetric generalized eigenproblem pair for the stability operator.

    A is `stiffness_minus_potential`; the lumped mass M is diagonal and is
    stored as its diagonal `mass_diagonal` (the area element at each node).
    `grid` is the parameter grid the pencil was assembled on (node i * nv + j
    at (u[i], v[j])); a pencil built by hand has none.  A pencil holds
    either A as `csr` or, when it is invariant along v, the `meridian`
    stencil (cu, cv, diag) of the nodes at v index 0, each nu x 1, from
    which A is formed when first read (see the module docstring).  `maps`
    are the grid maps (`grids.NodeMap`) the surface declared and its
    fields passed: A and M commute with each, so the eigensolver may
    split the pencil by them.
    """

    csr: sp_sparse.csr_matrix | None
    mass_diagonal: np.ndarray
    potential: np.ndarray
    grid: Grid | None = None
    meridian: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    maps: tuple[NodeMap, ...] = ()

    def __post_init__(self):
        if (self.csr is None) == (self.meridian is None):
            raise DomainError("a pencil holds either A or the meridian stencil A is formed from")

    @property
    def node_count(self) -> int:
        return self.mass_diagonal.size

    @property
    def invariant_along_v(self) -> bool:
        return self.meridian is not None

    @cached_property
    def stiffness_minus_potential(self: OperatorPencil) -> sp_sparse.csr_matrix:
        """A: `csr`, or the CSR written from the meridian on first read."""
        if self.csr is not None:
            return self.csr
        return _layout(self.grid, *self.meridian)


def _faces(grid, alpha, beta, potential):
    """(cu, cv, diag) of the 5-point stencil on the nu x m nodes the fields
    are given on: the whole grid (m = nv) or its meridian (m = 1).  A u face
    conducts cu = mean alpha * dv/du and a v face cv = mean beta * du/dv, and
    a node's diagonal is ((cu + cu') + (cv + cv')) - potential.  A sphere
    grid has no face past its last latitude row: its cu is 0."""
    a, b = alpha.reshape(grid.nu, -1), beta.reshape(grid.nu, -1)
    cu = 0.5 * (a + np.roll(a, -1, axis=0)) * (grid.dv / grid.du)
    cv = 0.5 * (b + np.roll(b, -1, axis=1)) * (grid.du / grid.dv)
    if not grid.periodic_u:
        cu[-1] = 0.0
    diag = (((cu + np.roll(cu, 1, axis=0)) + (cv + np.roll(cv, 1, axis=1)))
            - potential.reshape(grid.nu, -1))
    return cu, cv, diag


def _layout(grid, cu, cv, diag) -> sp_sparse.csr_matrix:
    """The stencil as one 5-point CSR matrix with sorted indices and no
    stored zeros, summed from (row, col, value) triplets: the diagonal, and
    each u and v face coupling its two nodes by -c both ways.  No two
    triplets share an entry (see the module docstring).  A meridian's nu x 1
    values are repeated along v."""
    nu, nv = grid.nu, grid.nv
    cu, cv, diag = (np.broadcast_to(x, (nu, nv)).ravel() for x in (cu, cv, diag))
    idx = np.arange(nu * nv, dtype=np.int32).reshape(nu, nv)
    below, right = (np.roll(idx, -1, axis=ax).ravel() for ax in (0, 1))
    idx = idx.ravel()
    rows = np.concatenate([idx, idx, below, idx, right])
    cols = np.concatenate([idx, below, idx, right, idx])
    s = sp_sparse.csr_matrix((np.concatenate([diag, -cu, -cu, -cv, -cv]), (rows, cols)),
                             shape=(nu * nv,) * 2)
    s.eliminate_zeros()
    return s


def assemble(surface: ImmersedSurface, fields: GeometryFields) -> OperatorPencil:
    """Build the symmetric pencil (A, M) with q = |sigma|^2 + Ric(normal)."""
    grid = surface.grid
    q = fields.sigma_sq + fields.ricci_normal
    if not np.all(np.isfinite(q)):
        raise AssemblyError("potential must be a finite per-node vector")
    weights = fields.area_element
    bad = np.where(~(weights > 0.0))[0]
    if bad.size:
        raise AssemblyError(f"mass is not positive at node {int(bad[0])}")

    # a surface of revolution's fields repeat its meridian's along v
    nodes = slice(None, None, grid.nv) if surface.revolution else slice(None)
    sqrtg = weights[nodes] / grid.cell_weight
    inv_uu, inv_uv, inv_vv = fields.metric_inv[:, nodes]
    alpha, beta, gamma = sqrtg * inv_uu, sqrtg * inv_vv, sqrtg * inv_uv
    faces = _faces(grid, alpha, beta, q[nodes] * weights[nodes])
    crossed = float(np.max(np.abs(gamma))) > 1e-14 * float(np.mean(alpha + beta))
    if surface.revolution and not crossed:
        return OperatorPencil(None, weights, q, grid, meridian=faces)
    a = _layout(grid, *faces)
    if crossed:
        gamma = np.broadcast_to(gamma.reshape(grid.nu, -1), (grid.nu, grid.nv)).ravel()
        cross = (grid.d1_sparse(0).T @ sp_sparse.diags(gamma * grid.cell_weight)
                 @ grid.d1_sparse(1)).tocsr()
        a = a + (cross + cross.T)  # in one piece: see the module docstring
    return OperatorPencil(a, weights, q, grid, maps=surface.maps)


def rayleigh(pencil: OperatorPencil, u: np.ndarray) -> float:
    """Quadratic-form quotient (u^T A u) / (u^T M u); for an (n, k) block u,
    the aggregate quotient trace(u^T A u) / trace(u^T M u)."""
    u = np.asarray(u, dtype=float)
    if u.ndim > 2 or u.shape[:1] != (pencil.node_count,):
        raise DomainError("vector length does not match the pencil")
    u = u.reshape(u.shape[0], -1)
    # M u in C order for any layout of u: einsum sums in memory order
    mu = np.multiply(pencil.mass_diagonal[:, None], u, order="C")
    denom = float(np.einsum("ik,ik->", u, mu))
    if denom <= 0.0:
        raise DomainError("rayleigh quotient needs a nonzero vector")
    return float(np.einsum("ik,ik->", u, pencil.stiffness_minus_potential @ u)) / denom
