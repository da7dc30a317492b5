"""Structured parameter grids and finite-difference operators.

Two grid topologies cover every surface in the catalog:

  * torus grid: (u, v) in [0, 2pi) x [0, 2pi), periodic in both directions,
    nodes at integer multiples of the spacings;
  * sphere grid: latitude-longitude (theta, phi) with phi periodic and
    theta at cell centers (j + 1/2) * pi / ntheta.  No node sits on a pole,
    so the induced metric stays non-degenerate, and the vanishing area
    element at the poles closes the flux balance naturally.

The sparse first-derivative operators used by assembly are second order:
central differences (-1, 0, 1) / 2h, and the one-sided rows
(-3/2, 2, -1/2) / h and their mirror at the two theta ends of sphere grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError

__all__ = ["Grid", "torus_grid", "sphere_grid"]


@dataclass(frozen=True)
class Grid:
    """Structured nu x nv parameter grid, flattened row-major (u fastest last).

    Node (i, j) has flat index i * nv + j, coordinates (u[i], v[j]).  Both
    grid kinds are periodic along v; `periodic_u` tells them apart.
    """

    nu: int
    nv: int
    du: float
    dv: float
    u: np.ndarray
    v: np.ndarray
    periodic_u: bool

    @property
    def node_count(self) -> int:
        return self.nu * self.nv

    @property
    def cell_weight(self) -> float:
        """Parameter-space quadrature weight per node."""
        return self.du * self.dv

    def d1_sparse(self, axis: int) -> sp.csr_matrix:
        """Sparse second-order first-derivative operator on flattened fields.

        The CSR arrays come from the 1-D stencil D by index arithmetic, with
        no Kronecker product: along v, row (i, j) is row j of D with its
        columns k moved to i * nv + k; along u, it is row i of D with its
        columns moved to k * nv + j.  The arrays equal those of kron(I, D)
        along v and kron(D, I) along u entry for entry.
        """
        n, h, periodic = ((self.nu, self.du, self.periodic_u) if axis == 0
                          else (self.nv, self.dv, True))
        c = 0.5 / h
        i = np.arange(n) if periodic else np.arange(1, n - 1)
        rows, cols = np.r_[i, i], np.r_[i - 1, i + 1] % n
        vals = np.r_[np.full(i.size, -c), np.full(i.size, c)]
        if not periodic:  # the one-sided end rows
            rows = np.r_[rows, 0, 0, 0, n - 1, n - 1, n - 1]
            cols = np.r_[cols, 0, 1, 2, n - 3, n - 2, n - 1]
            vals = np.r_[vals, np.array([-1.5, 2.0, -0.5, 0.5, -2.0, 1.5]) / h]
        D = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        D.sort_indices()
        nu, nv = self.nu, self.nv
        lens = np.diff(D.indptr)
        if axis == 1:  # row (i, j): stencil row j, columns i * nv + k
            indices = np.arange(0, nu * nv, nv, dtype=np.int32)[:, None] + D.indices
            data = np.tile(D.data, nu)
            lens = np.tile(lens, nu)
        else:  # row (i, j): stencil row i, columns k * nv + j
            indices, data = [], []
            for run in np.split(np.arange(n), np.flatnonzero(np.diff(lens)) + 1):
                # a run of stencil rows of one length, as (row, j, entry) blocks
                span = slice(D.indptr[run[0]], D.indptr[run[-1] + 1])
                block = (run.size, 1, lens[run[0]])
                indices.append((D.indices[span].reshape(block) * nv
                                + np.arange(nv, dtype=np.int32)[:, None]).ravel())
                data.append(np.broadcast_to(D.data[span].reshape(block),
                                            (run.size, nv, block[2])).ravel())
            indices, data = np.concatenate(indices), np.concatenate(data)
            lens = np.repeat(lens, nv)
        indptr = np.zeros(nu * nv + 1, dtype=np.int32)
        np.cumsum(lens, out=indptr[1:])
        return sp.csr_matrix((data, indices.ravel(), indptr), shape=(nu * nv,) * 2)


def torus_grid(nu: int, nv: int) -> Grid:
    if nu < 8 or nv < 8:
        raise DomainError("torus grid needs at least 8 nodes per direction")
    du = 2.0 * math.pi / nu
    dv = 2.0 * math.pi / nv
    return Grid(
        nu=nu, nv=nv, du=du, dv=dv,
        u=np.arange(nu) * du, v=np.arange(nv) * dv,
        periodic_u=True,
    )


def sphere_grid(ntheta: int, nphi: int) -> Grid:
    if ntheta < 8 or nphi < 8:
        raise DomainError("sphere grid needs at least 8 nodes per direction")
    dth = math.pi / ntheta
    dph = 2.0 * math.pi / nphi
    return Grid(
        nu=ntheta, nv=nphi, du=dth, dv=dph,
        u=(np.arange(ntheta) + 0.5) * dth, v=np.arange(nphi) * dph,
        periodic_u=False,
    )
