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


def _face_stiffness(grid, coeff, axis: str) -> sp_sparse.coo_matrix:
    """Two-point flux stiffness for one coordinate direction."""
    nu, nv = grid.nu, grid.nv
    idx = np.arange(nu * nv).reshape(nu, nv)
    if axis == "u":
        periodic, ratio = grid.periodic_u, grid.dv / grid.du
        left = idx if periodic else idx[:-1, :]
        right = np.roll(idx, -1, axis=0) if periodic else idx[1:, :]
    else:  # v is periodic on every grid
        ratio = grid.du / grid.dv
        left, right = idx, np.roll(idx, -1, axis=1)
    li = left.ravel()
    ri = right.ravel()
    c = 0.5 * (coeff[li] + coeff[ri]) * ratio
    rows = np.concatenate([li, ri, li, ri])
    cols = np.concatenate([li, ri, ri, li])
    vals = np.concatenate([c, c, -c, -c])
    return sp_sparse.coo_matrix((vals, (rows, cols)), shape=(nu * nv, nu * nv))


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

    stiffness = (_face_stiffness(grid, alpha, "u") + _face_stiffness(grid, beta, "v")).tocsr()
    crossed = float(np.max(np.abs(gamma))) > 1e-14 * float(np.mean(alpha + beta))
    if crossed:
        d_u = grid.d1_sparse(0)
        d_v = grid.d1_sparse(1)
        lam = sp_sparse.diags(gamma * grid.cell_weight)
        cross = (d_u.T @ lam @ d_v).tocsr()
        # cross + cross.T is exactly symmetric (IEEE addition commutes);
        # adding it to S in one piece keeps the sum exactly symmetric too.
        stiffness = stiffness + (cross + cross.T)

    weights = fields.area_element
    bad = np.where(~(weights > 0.0))[0]
    if bad.size:
        raise AssemblyError(f"mass is not positive at node {int(bad[0])}")
    mass = sp_sparse.diags(weights).tocsr()
    potential = q * weights
    a = (stiffness - sp_sparse.diags(potential)).tocsr()
    a.sum_duplicates()

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
