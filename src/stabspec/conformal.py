"""Conformal dilations of the 3-sphere and the balancing construction.

A dilation with parameter `a` (|a| < 1) is stereographic conjugation:
project from the antipode of p = a/|a| onto the equatorial hyperplane
orthogonal to p, scale by s = (1 - |a|)/(1 + |a|), and project back.
With c = <x, p> the three steps collapse to

    phi(x) = (2 s x + (1 - s^2 + (1 - s)^2 c) p) / (1 + s^2 + (1 - s^2) c),

whose denominator stays >= 2 min(1, s^2) on the whole sphere, so the
projection pole needs no special case.  a = 0 is the identity, and
negating `a` inverts the map, because switching the projection pole
inverts the Euclidean scale.

The balancing routine moves `a` by damped Newton steps until the
weighted center of mass of the transformed surface vanishes.  With the
resulting map, the four ambient coordinates of the transformed immersion
are (numerically) orthogonal to the chosen weight function, so their
aggregate Rayleigh quotient upper-bounds the second eigenvalue of the
original pencil — the certified bound returned here.  The bound needs
the transformed node positions only.

An image surface carries a `charts.JetChart` whose function composes the
base chart's coordinate jets with phi, in the truncated bivariate Taylor
jets every catalog chart is built with: phi is affine in x up to one
reciprocal, so a jet product and a jet reciprocal are all it takes.  All
image geometry then flows through the one geometry pipeline, and an image
surface can itself be dilated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import OperatorPencil, rayleigh
from .charts import JetChart, _jet_mul, _jet_reciprocal
from .eigen import Spectrum
from .errors import DomainError, NonConvergenceError, UnsupportedAmbientError
from .surfaces import (
    GeometryFields,
    ImmersedSurface,
    area,
    compute_geometry,
)

__all__ = [
    "MobiusParam",
    "mobius_apply",
    "mobius_image_surface",
    "hersch_balance",
    "balanced_bound_report",
    "BalancedBoundReport",
    "conformal_willmore_invariant",
    "dirichlet_energy_check",
    "willmore_type_inequality_check",
]

BOUNDARY_MARGIN = 1e-9
BALANCE_CAP = 1.0 - 1e-6
BALANCE_MAX_ITER = 50
# Balancing stops once the weighted center of mass is this small, relative
# to the total weight.
BALANCE_TOL = 1e-9
# Central-difference step of the balancing Jacobian, relative to 1 - |a|.
JACOBIAN_STEP = 1e-5


@dataclass(frozen=True)
class MobiusParam:
    """Parameter of a conformal dilation: a point strictly inside the ball."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float).reshape(4)
        object.__setattr__(self, "a", arr)
        if not np.all(np.isfinite(arr)):
            raise DomainError("dilation parameter must be finite")
        if np.linalg.norm(arr) >= 1.0 - BOUNDARY_MARGIN:
            raise DomainError(
                f"dilation parameter norm {np.linalg.norm(arr):.12g} too close to 1"
            )

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.a))

    def axis_and_scale(self) -> tuple[np.ndarray, float]:
        """(p, s): fixed pole p = a/|a| and Euclidean scale (1 - |a|)/(1 + |a|)."""
        mag = self.magnitude
        return self.a / mag, (1.0 - mag) / (1.0 + mag)


def mobius_apply(param: MobiusParam, x) -> np.ndarray:
    """Apply the conformal dilation to the rows of an (N, 4) array of unit
    vectors."""
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise DomainError("points must be an (N, 4) array")
    norms = np.linalg.norm(rows, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > 1e-8:
        raise DomainError("dilation input points must lie on the unit sphere")
    if param.magnitude < 1e-15:
        return rows.copy()

    p, s = param.axis_and_scale()
    c = rows @ p
    num = 2.0 * s * rows + ((1.0 - s * s) + (1.0 - s) ** 2 * c)[:, None] * p
    out = num / ((1.0 + s * s) + (1.0 - s * s) * c)[:, None]
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def _dilate_jets(param: MobiusParam, jets: np.ndarray) -> np.ndarray:
    """phi applied to position jets of shape (coefficients, ..., 4)."""
    p, s = param.axis_and_scale()
    c = jets @ p
    num = 2.0 * s * jets + ((1.0 - s) ** 2 * c)[..., None] * p
    num[0] += (1.0 - s * s) * p
    den = (1.0 - s * s) * c
    den[0] += 1.0 + s * s
    return _jet_mul(num, _jet_reciprocal(den)[..., None])


def mobius_image_surface(s: ImmersedSurface, param: MobiusParam) -> ImmersedSurface:
    """The surface re-charted through the conformal dilation."""
    if not s.is_sphere3:
        raise UnsupportedAmbientError("conformal dilations act on the 3-sphere")
    if param.magnitude < 1e-15:
        return s

    def image(u, v):
        jets = np.stack(np.broadcast_arrays(*s.chart.fn(u, v)), axis=-1)
        return np.moveaxis(_dilate_jets(param, jets), -1, 0)

    return ImmersedSurface(s.ambient, JetChart(image), s.grid)


def _capped(a: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(a))
    return a * (BALANCE_CAP / nrm) if nrm > BALANCE_CAP else a


def hersch_balance(
    s: ImmersedSurface,
    f: GeometryFields,
    f1: np.ndarray,
) -> MobiusParam:
    """Dilation parameter nulling the f1-weighted center of mass.

    Damped Newton iteration on the center map a -> c(a), the weighted
    mean of the transformed node positions, from a = 0 (the identity).
    The Jacobian comes from central differences; each step is halved
    until |c| decreases, and |a| stays within BALANCE_CAP.  The residual
    |c| is measured relative to the total weight: the iteration stops at
    ||integral of f1 * (transformed position)|| <= BALANCE_TOL * integral
    of f1.
    """
    if not s.is_sphere3:
        raise UnsupportedAmbientError("balancing acts on surfaces in the 3-sphere")
    f1 = np.asarray(f1, dtype=float).ravel()
    if f1.shape != (s.node_count,):
        raise DomainError("weight vector length does not match the surface")
    peak = float(np.max(np.abs(f1))) if f1.size else 0.0
    if peak == 0.0:
        raise DomainError("weight function is identically zero")
    if float(np.min(f1)) < -1e-8 * peak:
        raise DomainError("weight function must be nonnegative")
    weights = np.maximum(f1, 0.0) * f.area_element
    total = float(np.sum(weights))
    if total <= 0.0:
        raise DomainError("weight function has zero total mass")
    weights = weights / total

    coords = s.bundle()["0"]

    def center(a):
        return weights @ mobius_apply(MobiusParam(a), coords)

    a = np.zeros(4)
    c = center(a)
    residuals = [float(np.linalg.norm(c))]
    while residuals[-1] > BALANCE_TOL:
        if len(residuals) > BALANCE_MAX_ITER:
            raise NonConvergenceError(
                f"balancing did not reach residual {BALANCE_TOL:.3e} in "
                f"{BALANCE_MAX_ITER} Newton steps (final residual "
                f"{residuals[-1]:.3e}); the weighted measure may be concentrating "
                "near a point",
                residuals=residuals,
            )
        h = JACOBIAN_STEP * (1.0 - float(np.linalg.norm(a)))
        jac = np.column_stack([
            (center(a + h * e) - center(a - h * e)) / (2.0 * h) for e in np.eye(4)
        ])
        step = np.linalg.lstsq(jac, -c, rcond=None)[0]
        t = 1.0
        while True:
            trial = _capped(a + t * step)
            c_trial = center(trial)
            if np.linalg.norm(c_trial) < (1.0 - 1e-4 * t) * residuals[-1]:
                break
            t *= 0.5
            if t < 1e-12:
                raise NonConvergenceError(
                    f"balancing stalled at residual {residuals[-1]:.3e} (target "
                    f"{BALANCE_TOL:.3e}); the weighted measure may be "
                    "concentrating near a point",
                    residuals=residuals,
                )
        a, c = trial, c_trial
        residuals.append(float(np.linalg.norm(c)))
    return MobiusParam(a)


@dataclass(frozen=True)
class BalancedBoundReport:
    """The certified bound, the balancing dilation and its residual."""

    bound: float
    param: MobiusParam
    balance_residual: float


def balanced_bound_report(
    s: ImmersedSurface,
    f: GeometryFields,
    pencil: OperatorPencil,
    spectrum: Spectrum,
) -> BalancedBoundReport:
    """Balance from the identity, weighted by the ground state as the
    eigensolver orients it (peak positive), and evaluate the bound."""
    f1 = spectrum.eigenvectors[:, 0]
    m = hersch_balance(s, f, f1)
    psi = mobius_apply(m, s.bundle()["0"])
    weights = np.maximum(f1, 0.0) * f.area_element
    residual = float(np.linalg.norm(weights @ psi) / np.sum(weights))
    return BalancedBoundReport(
        bound=rayleigh(pencil, psi), param=m, balance_residual=residual)


def conformal_willmore_invariant(s: ImmersedSurface, param: MobiusParam) -> float:
    """Integral of |sigma|^2 - 2 H^2 over the transformed surface.

    Invariant under the conformal group of the 3-sphere up to
    discretization error.
    """
    image = mobius_image_surface(s, param)
    g = compute_geometry(image, want_gauss=False)
    return float(np.sum((g.sigma_sq - 2.0 * g.mean_curv**2) * g.area_element))


def dirichlet_energy_check(s: ImmersedSurface, param: MobiusParam) -> tuple[float, float]:
    """(coordinate Dirichlet energy, twice the image area) — independently.

    The energy integrates the original metric's gradient of the
    transformed coordinates over the original measure; the comparison
    value is twice the area of the image surface.  For a conformal map
    of a two-dimensional immersion the two agree.
    """
    image = mobius_image_surface(s, param)
    base = compute_geometry(s, want_gauss=False)
    b = image.bundle()
    psi_u, psi_v = b["u"], b["v"]
    ginv = base.metric_inv
    integrand = (
        ginv[:, 0, 0] * np.einsum("ij,ij->i", psi_u, psi_u)
        + 2.0 * ginv[:, 0, 1] * np.einsum("ij,ij->i", psi_u, psi_v)
        + ginv[:, 1, 1] * np.einsum("ij,ij->i", psi_v, psi_v)
    )
    energy = float(np.sum(integrand * base.area_element))
    image_fields = compute_geometry(image, want_gauss=False)
    return energy, 2.0 * area(image, image_fields)


def willmore_type_inequality_check(s: ImmersedSurface, param: MobiusParam) -> tuple[float, float]:
    """(integral of H^2 + 1 over the image, image area); first >= second."""
    image = mobius_image_surface(s, param)
    g = compute_geometry(image, want_gauss=False)
    lhs = float(np.sum((g.mean_curv**2 + 1.0) * g.area_element))
    return lhs, float(np.sum(g.area_element))
