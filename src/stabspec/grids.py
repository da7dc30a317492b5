"""Structured parameter grids and finite-difference operators.

Two grid topologies cover every surface in the catalog:

  * torus grid: (u, v) in [0, 2pi) x [0, 2pi), periodic in both directions,
    nodes at integer multiples of the spacings;
  * sphere grid: latitude-longitude (theta, phi) with phi periodic and
    theta at cell centers (j + 1/2) * pi / ntheta.  No node sits on a pole,
    so the induced metric stays non-degenerate, and the vanishing area
    element at the poles closes the flux balance naturally.

The sparse first-derivative operators used by assembly come from
stencils centered where the axis wraps and one-sided (Fornberg weights)
near the theta boundary of sphere grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import DomainError

__all__ = ["Grid", "torus_grid", "sphere_grid", "fornberg_weights"]


def fornberg_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Weights of the order-m derivative at x0 from samples at points x.

    Classic recursive construction; exact for polynomials of degree
    len(x) - 1, so len(x) - m is the formal order of accuracy.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if m >= n:
        raise DomainError("need more stencil points than the derivative order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=64)
def _line_diff_matrix(n: int, spacing: float, periodic: bool) -> np.ndarray:
    """Dense (n x n) second-order first-derivative matrix along one axis."""
    D = np.zeros((n, n))
    if periodic:
        offs = np.arange(-1, 2)
        w = fornberg_weights(offs * spacing, 0.0, 1)
        for i in range(n):
            D[i, (i + offs) % n] = w
    else:
        for i in range(n):
            lo = min(max(i - 1, 0), n - 3)
            idx = np.arange(lo, lo + 3)
            D[i, idx] = fornberg_weights((idx - i) * spacing, 0.0, 1)
    return D


@dataclass(frozen=True)
class Grid:
    """Structured nu x nv parameter grid, flattened row-major (u fastest last).

    Node (i, j) has flat index i * nv + j, coordinates (u[i], v[j]).
    """

    topology: str  # "torus" | "sphere"
    nu: int
    nv: int
    du: float
    dv: float
    u: np.ndarray
    v: np.ndarray
    periodic_u: bool
    periodic_v: bool

    @property
    def node_count(self) -> int:
        return self.nu * self.nv

    @property
    def cell_weight(self) -> float:
        """Parameter-space quadrature weight per node."""
        return self.du * self.dv

    def mesh(self):
        """Flattened coordinate arrays (uu, vv), each of length node_count."""
        uu, vv = np.meshgrid(self.u, self.v, indexing="ij")
        return uu.ravel(), vv.ravel()

    def flat(self, i, j):
        return np.asarray(i) * self.nv + np.asarray(j)

    def d1_sparse(self, axis: int) -> sp.csr_matrix:
        """Sparse first-derivative operator on flattened fields."""
        if axis == 0:
            D = _line_diff_matrix(self.nu, self.du, self.periodic_u)
            return sp.csr_matrix(sp.kron(sp.csr_matrix(D), sp.identity(self.nv, format="csr")))
        D = _line_diff_matrix(self.nv, self.dv, self.periodic_v)
        return sp.csr_matrix(sp.kron(sp.identity(self.nu, format="csr"), sp.csr_matrix(D)))


def torus_grid(nu: int, nv: int) -> Grid:
    if nu < 8 or nv < 8:
        raise DomainError("torus grid needs at least 8 nodes per direction")
    du = 2.0 * math.pi / nu
    dv = 2.0 * math.pi / nv
    return Grid(
        topology="torus", nu=nu, nv=nv, du=du, dv=dv,
        u=np.arange(nu) * du, v=np.arange(nv) * dv,
        periodic_u=True, periodic_v=True,
    )


def sphere_grid(ntheta: int, nphi: int) -> Grid:
    if ntheta < 8 or nphi < 8:
        raise DomainError("sphere grid needs at least 8 nodes per direction")
    dth = math.pi / ntheta
    dph = 2.0 * math.pi / nphi
    return Grid(
        topology="sphere", nu=ntheta, nv=nphi, du=dth, dv=dph,
        u=(np.arange(ntheta) + 0.5) * dth, v=np.arange(nphi) * dph,
        periodic_u=False, periodic_v=True,
    )
