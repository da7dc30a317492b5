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

A `NodeMap` is an involution of a grid's nodes that reverses u, reverses
v about a node, or turns v by half a period: the mirrors and half-turns a
catalog surface may be invariant under (see `catalog.build`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError

__all__ = ["Grid", "NodeMap", "torus_grid", "sphere_grid"]


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
        """Sparse second-order first-derivative operator on flattened fields."""
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
        if axis == 0:
            return sp.kron(D, sp.identity(self.nv), format="csr")
        return sp.kron(sp.identity(self.nu), D, format="csr")


@dataclass(frozen=True)
class NodeMap:
    """The involution (i, j) -> (i', j') of a grid's nodes, with
    i' = nu - 1 - i if `flip_u` else i, and j' = shift - j (mod nv) if
    `flip_v` else j + shift (mod nv) with shift 0 or nv / 2.  On a sphere
    grid flip_u is the mirror theta -> pi - theta, and flip_v the mirror
    phi -> shift dv - phi."""

    flip_u: bool = False
    flip_v: bool = False
    shift: int = 0

    @property
    def cross_sign(self) -> float:
        """The factor the map puts on g^uv: -1 where it reverses one axis."""
        return -1.0 if self.flip_u != self.flip_v else 1.0

    def image(self, grid: Grid) -> np.ndarray:
        """The flat index of each node's image, in flat node order."""
        i, j = np.arange(grid.nu), np.arange(grid.nv)
        i = grid.nu - 1 - i if self.flip_u else i
        j = (self.shift - j if self.flip_v else j + self.shift) % grid.nv
        return (i[:, None] * grid.nv + j[None, :]).ravel()


def _grid(nu: int, nv: int, periodic_u: bool) -> Grid:
    """The nu x nv grid with v at multiples of 2pi / nv; u spans [0, 2pi)
    at multiples of its spacing on a torus, and (0, pi) at cell centers
    on a sphere."""
    if nu < 8 or nv < 8:
        kind = "torus" if periodic_u else "sphere"
        raise DomainError(f"{kind} grid needs at least 8 nodes per direction")
    du = (2.0 if periodic_u else 1.0) * math.pi / nu
    dv = 2.0 * math.pi / nv
    return Grid(nu=nu, nv=nv, du=du, dv=dv,
                u=(np.arange(nu) + (0.0 if periodic_u else 0.5)) * du,
                v=np.arange(nv) * dv, periodic_u=periodic_u)


def torus_grid(nu: int, nv: int) -> Grid:
    return _grid(nu, nv, True)


def sphere_grid(ntheta: int, nphi: int) -> Grid:
    return _grid(ntheta, nphi, False)
