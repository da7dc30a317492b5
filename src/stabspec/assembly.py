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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp_sparse

from .errors import AssemblyError, DomainError
from .surfaces import GeometryFields, ImmersedSurface, compute_geometry

__all__ = ["OperatorPencil", "assemble", "rayleigh"]


@dataclass(frozen=True)
class OperatorPencil:
    """Symmetric generalized eigenproblem pair for the stability operator."""

    stiffness_minus_potential: sp_sparse.csr_matrix
    mass: sp_sparse.csr_matrix
    node_count: int
    potential: np.ndarray

    @property
    def mass_diagonal(self) -> np.ndarray:
        return np.asarray(self.mass.diagonal())


def _face_stiffness(grid, coeff, axis: str) -> sp_sparse.coo_matrix:
    """Two-point flux stiffness for one coordinate direction."""
    nu, nv = grid.nu, grid.nv
    idx = np.arange(nu * nv).reshape(nu, nv)
    if axis == "u":
        periodic, n, ratio = grid.periodic_u, nu, grid.dv / grid.du
        left = idx if periodic else idx[:-1, :]
        right = np.roll(idx, -1, axis=0) if periodic else idx[1:, :]
    else:
        periodic, n, ratio = grid.periodic_v, nv, grid.du / grid.dv
        left = idx if periodic else idx[:, :-1]
        right = np.roll(idx, -1, axis=1) if periodic else idx[:, 1:]
    if n < 2:
        raise AssemblyError(f"grid too small along {axis}")
    li = left.ravel()
    ri = right.ravel()
    c = 0.5 * (coeff[li] + coeff[ri]) * ratio
    rows = np.concatenate([li, ri, li, ri])
    cols = np.concatenate([li, ri, ri, li])
    vals = np.concatenate([c, c, -c, -c])
    return sp_sparse.coo_matrix((vals, (rows, cols)), shape=(nu * nv, nu * nv))


def assemble(
    surface: ImmersedSurface,
    fields: GeometryFields | None = None,
    potential_mode: str = "jacobi",
    shift: float = 0.0,
    custom_potential=None,
) -> OperatorPencil:
    """Build the symmetric pencil (A, M) for the requested potential.

    potential_mode: "jacobi" uses q = |sigma|^2 + Ric(normal); "shifted"
    uses the jacobi q plus `shift`; "custom" uses `custom_potential`
    verbatim (per-node values; zero gives the pure Laplace-Beltrami pencil).
    """
    if fields is None:
        fields = compute_geometry(surface, want_gauss=False)
    grid = surface.grid
    n = surface.node_count

    if potential_mode == "jacobi":
        q = fields.sigma_sq + fields.ricci_normal
    elif potential_mode == "shifted":
        q = fields.sigma_sq + fields.ricci_normal + float(shift)
    elif potential_mode == "custom":
        if custom_potential is None:
            raise DomainError("custom potential mode requires per-node values")
        q = np.broadcast_to(np.asarray(custom_potential, dtype=float), (n,)).copy()
    else:
        raise DomainError(f"unknown potential mode {potential_mode!r}")
    if q.shape != (n,) or not np.all(np.isfinite(q)):
        raise AssemblyError("potential must be a finite per-node vector")

    sqrtg = fields.area_element / grid.cell_weight
    alpha = sqrtg * fields.metric_inv[:, 0, 0]
    beta = sqrtg * fields.metric_inv[:, 1, 1]
    gamma = sqrtg * fields.metric_inv[:, 0, 1]

    stiffness = (_face_stiffness(grid, alpha, "u") + _face_stiffness(grid, beta, "v")).tocsr()
    if float(np.max(np.abs(gamma))) > 1e-14 * float(np.mean(alpha + beta)):
        d_u = grid.d1_sparse(0, accuracy=2)
        d_v = grid.d1_sparse(1, accuracy=2)
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
    a = (stiffness - sp_sparse.diags(q * weights)).tocsr()
    a.sum_duplicates()

    asym = abs(a - a.T)
    if asym.nnz and asym.max() > 0.0:
        raise AssemblyError("assembled operator lost exact symmetry")
    return OperatorPencil(
        stiffness_minus_potential=a,
        mass=mass,
        node_count=n,
        potential=q,
    )


def rayleigh(pencil: OperatorPencil, u: np.ndarray) -> float:
    """Quadratic-form quotient (u^T A u) / (u^T M u)."""
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (pencil.node_count,):
        raise DomainError("vector length does not match the pencil")
    denom = float(u @ (pencil.mass @ u))
    if denom <= 0.0:
        raise DomainError("rayleigh quotient needs a nonzero vector")
    return float(u @ (pencil.stiffness_minus_potential @ u)) / denom
