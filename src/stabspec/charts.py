"""Parametric charts as truncated Taylor jets.

A chart maps the two grid parameters to ambient coordinates: four
components either way (coordinates in R^4 for surfaces of the unit
3-sphere, or the tuple (t, w1, w2, w3) with w on the unit 2-sphere for
warped ambients).  The geometry engine consumes nodal arrays of the chart
and its parameter derivatives, packed as a dict keyed by multi-index
strings "0", "u", "v", "uu", "uv", "vv", "uuu", ...

Every chart returns derivatives through order 3, computed with truncated
bivariate Taylor jets (Griewank & Walther, Evaluating Derivatives,
ch. 13).  A jet is an array whose first axis holds the coefficients of the
monomials u^i v^j, i + j <= 3, in the order of BUNDLE_KEYS; further axes
are nodes (and components).  Sums and scalar multiples of jets are plain
array arithmetic, except that a constant only shifts the coefficient of 1
(`_plus`).  Products and reciprocals are truncated series, and sin, cos,
sqrt and polynomials enter through the univariate composition
f(x0 + d) = sum_k f^(k)(x0)/k! d^k, d the jet's non-constant part.
A JetChart's function maps the coordinate jets of (u, v) to four component
jets, so derivatives are exact up to rounding with no symbolic step.
JetChart is the only chart class: the chart of a conformal image composes
its base chart's function with the dilation in the same jet arithmetic
(see `conformal`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grids import Grid

__all__ = [
    "BUNDLE_KEYS",
    "JetChart",
    "real_sph_harm",
]

# The keys of a chart's derivative bundle: every parameter derivative
# through order 3, by order.
BUNDLE_KEYS = ("0", "u", "v", "uu", "uv", "vv", "uuu", "uuv", "uvv", "vvv")
_MONOMIALS = [(key.count("u"), key.count("v")) for key in BUNDLE_KEYS]
# A jet coefficient times _FACTORIALS is the bundle's partial derivative.
_FACTORIALS = np.array([math.factorial(i) * math.factorial(j) for i, j in _MONOMIALS],
                       dtype=float)
# _PRODUCT[m]: index pairs (k, l) whose monomials multiply to monomial m.
_PRODUCT = [
    [(k, _MONOMIALS.index((i - a, j - b)))
     for k, (a, b) in enumerate(_MONOMIALS) if a <= i and b <= j]
    for i, j in _MONOMIALS
]


def _jet_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Truncated product of two jets (broadcasting over trailing axes)."""
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for m, pairs in enumerate(_PRODUCT):
        for k, l in pairs:
            out[m] += x[k] * y[l]
    return out


def _jet_reciprocal(x: np.ndarray) -> np.ndarray:
    """Truncated jet of 1/x, solved degree by degree from x * (1/x) = 1."""
    r = np.empty_like(x)
    r[0] = 1.0 / x[0]
    for m in range(1, len(_MONOMIALS)):
        # every l here has lower degree than m, so r[l] is already known
        r[m] = -r[0] * sum(x[k] * r[l] for k, l in _PRODUCT[m] if k != 0)
    return r


def _plus(x: np.ndarray, c) -> np.ndarray:
    """The jet x + c for a constant c."""
    out = x.copy()
    out[0] += c
    return out


def _compose(x: np.ndarray, derivs) -> np.ndarray:
    """Jet of f(x) from f and its first three derivatives at x's constant term.

    f(x0 + d) = f0 + f1 d + f2 d^2 / 2 + f3 d^3 / 6, d the non-constant part.
    """
    d = x.copy()
    d[0] = 0.0
    d2 = _jet_mul(d, d)
    out = derivs[1] * d + derivs[2] / 2.0 * d2 + derivs[3] / 6.0 * _jet_mul(d2, d)
    out[0] = derivs[0]
    return out


def _jet_sin(x: np.ndarray) -> np.ndarray:
    s, c = np.sin(x[0]), np.cos(x[0])
    return _compose(x, (s, c, -s, -c))


def _jet_cos(x: np.ndarray) -> np.ndarray:
    s, c = np.sin(x[0]), np.cos(x[0])
    return _compose(x, (c, -s, -c, s))


def _jet_sqrt(x: np.ndarray) -> np.ndarray:
    r = np.sqrt(x[0])
    return _compose(x, (r, 0.5 / r, -0.25 / (r * x[0]), 0.375 / (r * x[0] * x[0])))


class JetChart:
    """Chart given by a function of the coordinate jets.

    `fn(u, v)` receives the jets of the two grid parameters, shaped
    (coefficients, nu, 1) and (coefficients, 1, nv), so that a function of
    one parameter is evaluated once per grid line.  It returns four
    component jets that broadcast to (coefficients, nu, nv).
    """

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, grid: Grid) -> dict[str, np.ndarray]:
        u = np.zeros((len(BUNDLE_KEYS), grid.nu, 1))
        v = np.zeros((len(BUNDLE_KEYS), 1, grid.nv))
        u[0, :, 0], v[0, 0, :] = grid.u, grid.v
        u[1] = v[2] = 1.0
        comps = self.fn(u, v)
        if len(comps) != 4:
            raise DomainError("a chart has exactly four components")
        jets = np.empty((len(BUNDLE_KEYS), grid.nu, grid.nv, 4))
        for c, comp in enumerate(comps):
            jets[..., c] = comp * _FACTORIALS[:, None, None]
        jets = jets.reshape(len(BUNDLE_KEYS), grid.node_count, 4)
        return dict(zip(BUNDLE_KEYS, jets))


def real_sph_harm(l: int, m: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonic on the unit 2-sphere, as a jet.

    Zonal for m = 0; cos(m phi) flavor for m > 0, sin(|m| phi) for m < 0.
    Normalized to unit L^2 norm over the sphere.  The associated Legendre
    function carries the Condon-Shortley sign:
    P_l^m(cos theta) = (-1)^m sin^m(theta) (d^m P_l / dx^m)(cos theta).
    """
    l = int(l)
    m = int(m)
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid harmonic indices l={l}, m={m}")
    am = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    if m:
        norm *= math.sqrt(2.0)
    dp = np.polynomial.Legendre.basis(l).deriv(am)
    c = _jet_cos(theta)
    y = (-1) ** am * norm * _compose(c, [dp.deriv(k)(c[0]) for k in range(4)])
    sin_theta = _jet_sin(theta)
    for _ in range(am):
        y = _jet_mul(y, sin_theta)
    if m > 0:
        y = _jet_mul(y, _jet_cos(am * phi))
    elif m < 0:
        y = _jet_mul(y, _jet_sin(am * phi))
    return y
