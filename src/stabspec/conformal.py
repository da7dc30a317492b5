"""Conformal dilations of the 3-sphere and the balancing construction.

The dilations of S^3 are the Lorentz group SO+(4, 1) acting projectively
on the null lines (x, 1), x on the sphere (Ratcliffe, Foundations of
Hyperbolic Manifolds; Hersch 1970).  The dilation with parameter
`a` (|a| < 1) is the boost

    L(a) = diag(1, 1, 1, 1, -1) + 2 v v^T / (1 - |a|^2),   v = (a, 1),

with blocks I + 2 a a^T / (1 - |a|^2), 2 a / (1 - |a|^2) and
(1 + |a|^2) / (1 - |a|^2), whose action L (x, 1) ~ (phi_a(x), 1) is

    phi_a(x) = ((1 - |a|^2) x + 2 (1 + <a, x>) a) / (1 + |a|^2 + 2 <a, x>).

Its denominator, |x + a|^2 / (1 - |a|^2) on the sphere, stays
>= (1 - |a|)/(1 + |a|), so no point needs a special case.  It fixes the
poles +-a/|a|, L(0) is exactly the identity and L(-a) inverts L(a).  Two
dilations compose as a 5x5 product P = R L(a'), R a rotation of the sphere
fixing e5; P's last row is that of L(a'), so a' = P[4, :4] / (1 + P[4, 4]).

The balancing routine composes dilations by damped Newton steps until the
weighted center of mass of the transformed surface vanishes.  It works in
the moving frame: following the current points y = phi_a(x) by phi_b moves
the center by J b + O(|b|^2), with the closed-form moment
J = 2 (I - sum_i w_i y_i y_i^T) (weights summing to 1), and a step
composes L(t b) L(a).  R only rotates the center, so a' alone is kept:
phi_a' balances the weight as P does.  With the resulting map, the
four ambient coordinates of the transformed immersion are (numerically)
orthogonal to the chosen weight function, so their aggregate Rayleigh
quotient upper-bounds the second eigenvalue of the original pencil — the
certified bound returned here.  The bound needs the transformed node
positions only, so phi acts on points alone, and balancing returns them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import OperatorPencil, rayleigh
from .eigen import Spectrum
from .errors import DomainError, NonConvergenceError, UnsupportedAmbientError
from .surfaces import GeometryFields, ImmersedSurface

__all__ = [
    "MobiusParam",
    "mobius_apply",
    "hersch_balance",
    "balanced_bound_report",
    "BalancedBoundReport",
]

BOUNDARY_MARGIN = 1e-9
BALANCE_CAP = 1.0 - 1e-6
BALANCE_MAX_ITER = 50
# Balancing stops once the weighted center of mass is this small, relative
# to the total weight.
BALANCE_TOL = 1e-9


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


def _boost(a: np.ndarray) -> np.ndarray:
    """The 5x5 Lorentz boost L(a), |a| < 1."""
    v = np.append(a, 1.0)
    return np.diag([1.0, 1.0, 1.0, 1.0, -1.0]) + (2.0 / (1.0 - a @ a)) * np.outer(v, v)


def mobius_apply(param: MobiusParam, x) -> np.ndarray:
    """Apply the conformal dilation to the rows of an (N, 4) array of unit
    vectors: the projective action of L(a) on the rows (x, 1)."""
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise DomainError("points must be an (N, 4) array")
    norms = np.linalg.norm(rows, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > 1e-8:
        raise DomainError("dilation input points must lie on the unit sphere")
    boost = _boost(param.a)
    image = rows @ boost[:, :4].T + boost[:, 4]
    return image[:, :4] / image[:, 4:]


def _capped(a: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(a))
    return a * (BALANCE_CAP / nrm) if nrm > BALANCE_CAP else a


def hersch_balance(
    s: ImmersedSurface,
    f: GeometryFields,
    f1: np.ndarray,
) -> tuple[MobiusParam, np.ndarray, float]:
    """The dilation nulling the f1-weighted center of mass, as (parameter,
    dilated (N, 4) positions, residual), all three at the stop.

    Damped Newton iteration from a = 0 (the identity) in the moving frame:
    at the points y = phi_a(x) the step b solves 2 (I - sum w y y^T) b = -c
    by least squares (the moment is singular under a point mass).  The new
    a is read off L(t b) L(a), with t halved until |c| decreases, and |a|
    and |b| stay within BALANCE_CAP.  The residual |c| is measured
    relative to the total weight: the iteration stops at
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

    coords = s.points()
    a, y = np.zeros(4), coords
    c = weights @ y
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
        jac = 2.0 * (np.eye(4) - (weights[:, None] * y).T @ y)
        step = _capped(np.linalg.lstsq(jac, -c, rcond=None)[0])
        t = 1.0
        while True:
            moved = _boost(t * step) @ _boost(a)
            trial = _capped(moved[4, :4] / (1.0 + moved[4, 4]))
            y_trial = mobius_apply(MobiusParam(trial), coords)
            c_trial = weights @ y_trial
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
        a, y, c = trial, y_trial, c_trial
        residuals.append(float(np.linalg.norm(c)))
    return MobiusParam(a), y, residuals[-1]


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
    eigensolver orients it (peak positive), and evaluate the bound on the
    balanced positions."""
    m, psi, residual = hersch_balance(s, f, spectrum.eigenvectors[:, 0])
    return BalancedBoundReport(
        bound=rayleigh(pencil, psi), param=m, balance_residual=residual)
