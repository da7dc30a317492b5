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
matrix, whose rows the grid fixes; a cross term is added to it in one
piece.
Constants are annihilated exactly: face differences cancel and the
first-derivative stencils have exactly representable weights summing to
zero.  Potential and mass use the same nodal quadrature
(trapezoid/midpoint weights sqrt(g) du dv), so A·1 = -q∘(M·1) holds
entrywise to round-off.

On non-periodic (sphere) grids the missing boundary faces implement the
natural zero-flux closure; polar caps carry no face but keep their mass,
which is the correct cell-centered treatment of the coordinate poles.

Invariance along v, the periodic axis of both grid kinds.  `assemble`
marks the pencil invariant along v when no cross term was added and a, b,
q sqrt(g) du dv and sqrt(g) du dv are each constant along v to
INVARIANCE_TOL of their largest magnitude.  A is then block-circulant:
the coupling among the nodes at v index 0 repeats at every v index, and
each node couples to its two v neighbours by w = -b du/dv < 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp_sparse

from .errors import AssemblyError, DomainError
from .grids import Grid
from .surfaces import GeometryFields, ImmersedSurface

__all__ = ["OperatorPencil", "assemble", "rayleigh"]

INVARIANCE_TOL = 1e-13


@dataclass(frozen=True)
class OperatorPencil:
    """Symmetric generalized eigenproblem pair for the stability operator.

    `grid` is the parameter grid the pencil was assembled on (node i * nv + j
    at (u[i], v[j])); a pencil built by hand has none.  `invariant_along_v`
    is derived by `assemble` (see the module docstring), and a pencil built
    by hand is not marked; `dataclasses.replace` keeps the mark, so A and M
    may be replaced only by matrices just as invariant along v.
    """

    stiffness_minus_potential: sp_sparse.csr_matrix
    mass: sp_sparse.csr_matrix
    potential: np.ndarray
    grid: Grid | None = None
    invariant_along_v: bool = False

    @property
    def node_count(self) -> int:
        return self.mass.shape[0]

    @property
    def mass_diagonal(self) -> np.ndarray:
        return np.asarray(self.mass.diagonal())


def _stiffness(grid, alpha, beta, potential) -> sp_sparse.csr_matrix:
    """Face-conductance stiffness minus diag(potential) as one 5-point CSR
    matrix with sorted indices and no stored zeros.  A u face conducts
    cu = mean alpha * dv/du and a v face cv = mean beta * du/dv; each
    couples its two nodes by -c, and a node's diagonal is
    ((cu + cu') + (cv + cv')) - potential.  A sphere grid has no face past
    its last latitude row: its cu is 0, and the zeros it writes are dropped.
    """
    nu, nv = grid.nu, grid.nv
    a, b = alpha.reshape(nu, nv), beta.reshape(nu, nv)
    cu = 0.5 * (a + np.roll(a, -1, axis=0)) * (grid.dv / grid.du)
    cv = 0.5 * (b + np.roll(b, -1, axis=1)) * (grid.du / grid.dv)
    if not grid.periodic_u:
        cu[-1] = 0.0
    cu_up, cv_left = np.roll(cu, 1, axis=0), np.roll(cv, 1, axis=1)
    diag = ((cu + cu_up) + (cv + cv_left)) - potential.reshape(nu, nv)
    idx = np.arange(nu * nv, dtype=np.int32).reshape(nu, nv)
    # row (i, j) holds the nodes above, left, itself, right and below, in
    # ascending order except where a neighbour wraps round the grid
    cols = np.stack([np.roll(idx, 1, axis=0), np.roll(idx, 1, axis=1), idx,
                     np.roll(idx, -1, axis=1), np.roll(idx, -1, axis=0)], axis=-1)
    vals = np.stack([-cu_up, -cv_left, diag, -cv, -cu], axis=-1)
    for slots in (cols, vals):  # a wrapped neighbour moves to the far end of its row
        slots[:, 0, 1:4] = np.roll(slots[:, 0, 1:4], -1, axis=-1)
        slots[:, -1, 1:4] = np.roll(slots[:, -1, 1:4], 1, axis=-1)
        slots[0] = np.roll(slots[0], -1, axis=-1)
        slots[-1] = np.roll(slots[-1], 1, axis=-1)
    indptr = np.arange(0, 5 * nu * nv + 1, 5, dtype=np.int32)
    s = sp_sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(nu * nv,) * 2)
    s.eliminate_zeros()
    return s


def _constant_along_v(grid, coeff) -> bool:
    """Whether a per-node coefficient is constant along v, to INVARIANCE_TOL
    of its largest magnitude."""
    c = coeff.reshape(grid.nu, grid.nv)
    return float(np.max(np.abs(c - c[:, :1]))) <= INVARIANCE_TOL * float(np.max(np.abs(c)))


def assemble(surface: ImmersedSurface, fields: GeometryFields) -> OperatorPencil:
    """Build the symmetric pencil (A, M) with q = |sigma|^2 + Ric(normal)."""
    grid = surface.grid
    q = fields.sigma_sq + fields.ricci_normal
    if not np.all(np.isfinite(q)):
        raise AssemblyError("potential must be a finite per-node vector")

    sqrtg = fields.area_element / grid.cell_weight
    alpha = sqrtg * fields.metric_inv[:, 0, 0]
    beta = sqrtg * fields.metric_inv[:, 1, 1]
    gamma = sqrtg * fields.metric_inv[:, 0, 1]

    weights = fields.area_element
    bad = np.where(~(weights > 0.0))[0]
    if bad.size:
        raise AssemblyError(f"mass is not positive at node {int(bad[0])}")
    mass = sp_sparse.diags(weights).tocsr()
    potential = q * weights
    a = _stiffness(grid, alpha, beta, potential)
    crossed = float(np.max(np.abs(gamma))) > 1e-14 * float(np.mean(alpha + beta))
    if crossed:
        cross = (grid.d1_sparse(0).T @ sp_sparse.diags(gamma * grid.cell_weight)
                 @ grid.d1_sparse(1)).tocsr()
        # cross + cross.T is exactly symmetric (IEEE addition commutes) and
        # has no diagonal; adding it to A in one piece keeps A exactly
        # symmetric and leaves the diagonal as written.
        a = a + (cross + cross.T)

    asym = abs(a - a.T)
    if asym.nnz and asym.max() > 0.0:
        raise AssemblyError("assembled operator lost exact symmetry")
    invariant = not crossed and all(
        _constant_along_v(grid, c) for c in (alpha, beta, potential, weights))
    return OperatorPencil(stiffness_minus_potential=a, mass=mass, potential=q, grid=grid,
                          invariant_along_v=invariant)


def rayleigh(pencil: OperatorPencil, u: np.ndarray) -> float:
    """Quadratic-form quotient (u^T A u) / (u^T M u); for an (n, k) block u,
    the aggregate quotient trace(u^T A u) / trace(u^T M u)."""
    u = np.asarray(u, dtype=float)
    if u.ndim > 2 or u.shape[:1] != (pencil.node_count,):
        raise DomainError("vector length does not match the pencil")
    u = u.reshape(u.shape[0], -1)
    denom = float(np.einsum("ik,ik->", u, pencil.mass @ u))
    if denom <= 0.0:
        raise DomainError("rayleigh quotient needs a nonzero vector")
    return float(np.einsum("ik,ik->", u, pencil.stiffness_minus_potential @ u)) / denom
