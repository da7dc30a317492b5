"""Closed-form geometry of rotationally symmetric ambient spaces.

The ambient spaces handled here are products of a compact interval with a
round unit n-sphere, n = SPHERE_DIM = 2, carrying the metric
dt^2 + h(t)^2 ds^2  for a smooth positive profile h.  Every quantity below is an exact algebraic function of
the triple (h, h', h''); nothing is differentiated numerically.

Conventions:
  * the normal direction of a centered slice {t} x S^n is +d/dt;
  * mean curvature is the average (not the sum) of principal curvatures;
  * the stability operator of a two-sided hypersurface is
    L = -laplacian - |shape|^2 - Ric(normal, normal).

The profile combination  h''/h + (1 - h'^2)/h^2  ("convexity condition")
controls everything: it is positive exactly when the Ricci curvature,
evaluated on unit directions, is strictly minimized by d/dt, it vanishes
identically on the constant-curvature profiles (h = t, sin t, sinh t), and
n times it equals the second eigenvalue of the slice stability operator,
which in the Ricci data of `_curvature` reads n/(n-1) (Ric_tan - Ric_tt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "SPHERE_DIM",
    "WarpingFunction",
    "AmbientCurvature",
    "builtin_warping",
    "polynomial_warping",
    "BUILTIN_WARPINGS",
    "convexity_condition",
    "ricci_direction",
    "slice_lambda2_from_ricci",
    "slice_eigenvalue_band",
    "slice_spectrum",
    "harmonic_multiplicity",
    "harmonic_degrees",
    "condition_strictness",
]

# Dimension n of the sphere factor, and so of the hypersurfaces (slices and
# graphs over them) studied in the ambient.
SPHERE_DIM = 2


@dataclass(frozen=True)
class WarpingFunction:
    """Profile h > 0 on a compact interval, with its first two derivatives.

    h, dh, d2h must accept floats or numpy arrays.
    """

    h: Callable
    dh: Callable
    d2h: Callable
    interval: tuple[float, float]
    name: str = "custom"

    def __post_init__(self):
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"interval must be a finite non-empty range, got {self.interval}")
        # Cheap positivity screen at a few sample points; full checks happen
        # wherever h is actually evaluated.
        ts = np.linspace(lo, hi, 7)
        hs = np.asarray(self.h(ts), dtype=float)
        if not np.all(hs > 0.0):
            raise DomainError(f"profile '{self.name}' is not positive on {self.interval}")

    def require_inside(self, t) -> None:
        t = np.asarray(t, dtype=float)
        lo, hi = self.interval
        if not np.all((t >= lo) & (t <= hi)):
            raise DomainError(
                f"t outside the domain [{lo}, {hi}] of warping '{self.name}'"
            )


@dataclass(frozen=True)
class AmbientCurvature:
    """Ricci data of dt^2 + h^2 ds^2 at a fixed t, on unit directions."""

    ricci_tt: float
    ricci_tangential: float
    scalar: float


def _hs(w: WarpingFunction, t):
    """Evaluate (h, h', h'') with domain and positivity checks."""
    w.require_inside(t)
    t = np.asarray(t, dtype=float)
    h = np.asarray(w.h(t), dtype=float)
    if not np.all(h > 0.0):
        raise DomainError(f"profile '{w.name}' is non-positive at some requested t")
    return h, np.asarray(w.dh(t), dtype=float), np.asarray(w.d2h(t), dtype=float)


def _scalarize(x):
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def convexity_condition(w: WarpingFunction, t):
    """h''/h + (1 - h'^2)/h^2 at t.  Accepts scalars or arrays.

    Positive values certify that d/dt strictly minimizes Ric on unit
    directions; zero identifies the constant-curvature profiles.
    """
    h, dh, d2h = _hs(w, t)
    return _scalarize(d2h / h + (1.0 - dh**2) / h**2)


def _curvature(h, dh, d2h) -> AmbientCurvature:
    """Ricci curvature of the warped ambient on unit directions, from the
    profile values (h, h', h'') at t (scalars or arrays of one shape).

    Ric(d/dt, d/dt)      = -n h''/h
    Ric(v, v), v tangent = -(h''/h - (n-1)(1 - h'^2)/h^2)
    scalar               = -n (2 h''/h - (n-1)(1 - h'^2)/h^2)
    """
    n = SPHERE_DIM
    a = d2h / h
    b = (1.0 - dh**2) / h**2
    return AmbientCurvature(
        ricci_tt=_scalarize(-n * a),
        ricci_tangential=_scalarize(-(a - (n - 1) * b)),
        scalar=_scalarize(-n * (2.0 * a - (n - 1) * b)),
    )


def ricci_direction(amb: AmbientCurvature, cos_angle):
    """Ric(v, v) for a unit direction v with <v, d/dt> = cos_angle, from
    the ambient's Ricci data `amb` at the point (see `_curvature`).

    Interpolates the two distinguished values quadratically:
    c^2 Ric(dt,dt) + (1 - c^2) Ric(tangential).  Accepts arrays in both
    the fields of `amb` and cos_angle (broadcast together).
    """
    c = np.asarray(cos_angle, dtype=float)
    if np.any(np.abs(c) > 1.0 + 1e-12):
        raise DomainError("cos_angle must lie in [-1, 1]")
    c = np.clip(c, -1.0, 1.0)
    return _scalarize(c**2 * amb.ricci_tt + (1.0 - c**2) * amb.ricci_tangential)


def slice_lambda2_from_ricci(amb: AmbientCurvature):
    """n * convexity as n/(n-1) (Ric_tan - Ric_tt), from the Ricci data at t."""
    n = SPHERE_DIM
    return n / (n - 1) * (amb.ricci_tangential - amb.ricci_tt)


def slice_eigenvalue_band(w: WarpingFunction, t, k: int):
    """Eigenvalue of the slice stability operator on degree-k harmonics.

    The slice is a round n-sphere of radius h(t); restricting
    L = -laplacian - |shape|^2 - Ric(normal, normal) to degree-k spherical
    harmonics gives  k(k+n-1)/h^2 - n (h'/h)^2 + n h''/h.
    """
    if k < 0:
        raise DomainError("harmonic degree k must be >= 0")
    h, dh, d2h = _hs(w, t)
    n = SPHERE_DIM
    return _scalarize(k * (k + n - 1) / h**2 - n * (dh / h) ** 2 + n * d2h / h)


def harmonic_multiplicity(k: int) -> int:
    """Dimension 2k + 1 of degree-k spherical harmonics on S^2."""
    if k < 0:
        raise DomainError("need k >= 0")
    return 2 * k + 1


def harmonic_degrees(count: int) -> list[int]:
    """Harmonic degree of each of the first `count` values of a spectrum
    made of spherical-harmonic bands: k = 0, 1, ..., each 2k + 1 times.

    Degrees below K hold K^2 values, so the last degree is ceil(sqrt(count)) - 1.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    bands = range(math.isqrt(count - 1) + 1)
    return [k for k in bands for _ in range(harmonic_multiplicity(k))][:count]


def slice_spectrum(w: WarpingFunction, t: float, count: int) -> np.ndarray:
    """First `count` eigenvalues of the slice operator, with multiplicity.

    The bands increase with k, so the values come out sorted.
    """
    return np.array([slice_eigenvalue_band(w, t, k) for k in harmonic_degrees(count)])


def condition_strictness(w: WarpingFunction, t_range):
    """Scan the convexity condition over the t-range (lo, hi).

    Returns (min_value, argmin_t).  Strict positivity of min_value is the
    hypothesis under which the slice-averaged eigenvalue bounds apply.
    """
    lo, hi = t_range
    ts = np.linspace(lo, hi, 512)
    vals = np.asarray(convexity_condition(w, ts), dtype=float)
    i = int(np.argmin(vals))
    return float(vals[i]), float(ts[i])


# ----------------------------------------------------------------------
# Registry


def _const_like(c: float):
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, c) if t.ndim else float(c)

    return f


_BUILTIN_DEFS = {
    # name: (h, h', h'', default interval)
    "product": (_const_like(1.0), _const_like(0.0), _const_like(0.0), (-2.0, 2.0)),
    "sphere": (np.sin, np.cos, lambda t: -np.sin(t), (0.15, math.pi - 0.15)),
    "hyperbolic": (np.sinh, np.cosh, np.sinh, (0.15, 4.0)),
    "euclidean": (
        lambda t: np.asarray(t, dtype=float),
        _const_like(1.0),
        _const_like(0.0),
        (0.15, 4.0),
    ),
    "cosh": (np.cosh, np.sinh, np.cosh, (-2.0, 2.0)),
}

BUILTIN_WARPINGS = tuple(_BUILTIN_DEFS)


def builtin_warping(name: str, interval=None) -> WarpingFunction:
    """Look up a named profile: product, sphere, hyperbolic, euclidean, cosh."""
    try:
        h, dh, d2h, default_interval = _BUILTIN_DEFS[name]
    except KeyError:
        raise DomainError(
            f"unknown warping '{name}'; known: {', '.join(BUILTIN_WARPINGS)}"
        ) from None
    return WarpingFunction(
        h=h,
        dh=dh,
        d2h=d2h,
        interval=tuple(interval) if interval is not None else default_interval,
        name=name,
    )


def polynomial_warping(coeffs, interval) -> WarpingFunction:
    """Profile h(t) = sum_k coeffs[k] t^k (coefficients low order first)."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("polynomial coefficients must be a non-empty 1-d sequence")
    p = np.polynomial.Polynomial(c)
    return WarpingFunction(
        h=p, dh=p.deriv(1), d2h=p.deriv(2), interval=tuple(interval),
        name=f"poly[{','.join(f'{x:g}' for x in c)}]",
    )
