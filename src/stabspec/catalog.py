"""Catalog of closed-form test surfaces with known stability spectra.

Every builder returns a ShapeSpec; `build` turns a spec into an
ImmersedSurface over a closed-form chart, written as a function of the
coordinate jets (see `charts`), and
`exact_jacobi_spectrum` returns closed-form eigenvalues of the stability
operator -Laplacian - |sigma|^2 - Ric(normal, normal) for the kinds that
have them:

* flat tori (r cos u, r sin u, sqrt(1-r^2) cos v, sqrt(1-r^2) sin v):
  Fourier modes give m^2/r^2 + k^2/(1-r^2) - |sigma|^2(r) - 2, and
  |sigma|^2(r) + 2 simplifies to 1/(r^2 (1-r^2)).
* geodesic spheres of radius rho: l(l+1)/sin^2(rho) - 2 cot^2(rho) - 2
  with multiplicity 2l+1.
* slices {t0} x S^2 of a warped product: spherical-harmonic bands (see
  warping.slice_spectrum).

Rotationally perturbed tori and graphs over slices have no closed form;
they are exercised against inequalities only.

`build` alone decides which surfaces are surfaces of revolution about v:
the flat and Clifford tori (v turns the (x3, x4) plane), geodesic spheres
(v turns the (x1, x2) plane), slices, the zonal graphs Y_l,0 (v turns the
S^2 factor about its axis), perturbed tori with eps = 0 and graphs of
amplitude 0.  Each of their nodes is an ambient isometry image of its
meridian node at v = 0, so they are built with `revolution=True`: their
chart is evaluated on that meridian and the next v column, and that mark
alone lets the eigensolver split their pencil by Fourier modes along v.
Other perturbed tori and graphs of Y_l,m with m != 0 keep the full grid.

A graph of Y_l,m with m != 0 and amplitude != 0 declares instead up to two
commuting involutions of its sphere grid that map it to itself
(`ImmersedSurface.maps`, each a `grids.NodeMap`), which let the
eigensolver split its pencil into symmetry blocks.  It declares only maps
the grid carries:
* the phi-mirror phi -> c - phi, with c = 0 for the cos type (m > 0), and
  c = pi (2t + 1) / |m| for the sin type, carried when 2|m| divides
  nphi (2t + 1) for some t;
* then the first of these that Y_l,m is even under: the theta-mirror
  theta -> pi - theta (always carried; even when l + m is even), the
  half-turn phi -> phi + pi (nphi even; even when m is even), and the
  antipodal map (theta, phi) -> (pi - theta, phi + pi) (nphi even; even
  when l is even).
On a 2^k grid every such graph declares two maps.  `compute_geometry`
refuses a declared map the fields are not invariant under, and a
revolution mark as the one map of its two chart columns, their turn; a
surface refuses a mark declared with maps.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import warping as wp
from .charts import JetChart, _jet_cos, _jet_mul, _jet_sin, _jet_sqrt, _plus, real_sph_harm
from .errors import DomainError
from .grids import NodeMap, sphere_grid, torus_grid
from .surfaces import ImmersedSurface

__all__ = [
    "ShapeSpec",
    "clifford_torus",
    "flat_torus",
    "geodesic_sphere",
    "slice_shape",
    "graph_over_slice",
    "perturbed_torus",
    "build",
    "exact_jacobi_spectrum",
]

MAX_PERTURBATION_DEGREE = 4


@dataclass
class ShapeSpec:
    """A catalog surface: construction kind, parameters, grid resolution."""

    kind: str
    resolution: tuple[int, int] = (64, 64)
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if not self.params:
            return self.kind
        shown = []
        for k, v in sorted(self.params.items()):
            if isinstance(v, wp.WarpingFunction):
                v = v.name
            shown.append(f"{k}={v}")
        return f"{self.kind}({', '.join(shown)})"


def clifford_torus(resolution=(64, 64)) -> ShapeSpec:
    return ShapeSpec("clifford-torus", tuple(resolution), {})


def flat_torus(r: float, resolution=(64, 64)) -> ShapeSpec:
    if not 0.0 < r < 1.0:
        raise DomainError(f"flat torus radius must satisfy 0 < r < 1, got {r}")
    return ShapeSpec("flat-torus", tuple(resolution), {"r": float(r)})


def geodesic_sphere(rho: float, resolution=(64, 64)) -> ShapeSpec:
    if not 0.0 < rho < math.pi:
        raise DomainError(f"geodesic radius must satisfy 0 < rho < pi, got {rho}")
    return ShapeSpec("geodesic-sphere", tuple(resolution), {"rho": float(rho)})


def slice_shape(warping, t0: float, resolution=(64, 64)) -> ShapeSpec:
    w = _resolve_warping(warping)
    w.require_inside(t0)
    return ShapeSpec("slice", tuple(resolution), {"warping": w, "t0": float(t0)})


def graph_over_slice(warping, t0: float, perturbation: str, amplitude: float,
                     resolution=(64, 64)) -> ShapeSpec:
    if not math.isfinite(amplitude):
        raise DomainError(f"graph amplitude must be finite, got {amplitude}")
    w = _resolve_warping(warping)
    w.require_inside(t0)
    _perturbation_indices(perturbation)
    return ShapeSpec(
        "graph-over-slice",
        tuple(resolution),
        {"warping": w, "t0": float(t0), "perturbation": perturbation,
         "amplitude": float(amplitude)},
    )


def perturbed_torus(r: float, eps: float, wave: int = 3,
                    resolution=(64, 64)) -> ShapeSpec:
    """Rotationally symmetric torus with radius r + eps*cos(wave*v)."""
    if eps < 0:
        raise DomainError("perturbation size must be nonnegative")
    if not (0.0 < r - eps and r + eps < 1.0):
        raise DomainError("perturbed radius range must stay inside (0, 1)")
    if wave < 1 or int(wave) != wave:
        raise DomainError("wave number must be a positive integer")
    return ShapeSpec(
        "perturbed-torus", tuple(resolution),
        {"r": float(r), "eps": float(eps), "wave": int(wave)},
    )


def _resolve_warping(warping) -> wp.WarpingFunction:
    if isinstance(warping, wp.WarpingFunction):
        return warping
    return wp.builtin_warping(str(warping))


_PERT_KEY = re.compile(r"^Y(\d+),(-?\d+)$")


def _perturbation_indices(perturbation: str) -> tuple[int, int]:
    """Spherical-harmonic indices (l, m) of a perturbation named 'Yl,m'."""
    match = _PERT_KEY.match(perturbation.strip())
    if not match:
        raise DomainError(
            f"unknown perturbation {perturbation!r}; use 'Yl,m' with l <= "
            f"{MAX_PERTURBATION_DEGREE}"
        )
    l, m = int(match.group(1)), int(match.group(2))
    if not (0 <= l <= MAX_PERTURBATION_DEGREE and -l <= m <= l):
        raise DomainError(
            f"spherical-harmonic perturbation needs 0 <= l <= "
            f"{MAX_PERTURBATION_DEGREE} and |m| <= l, got ({l}, {m})"
        )
    return l, m


def _unit_sphere(theta, phi):
    """Jets of the latitude-longitude embedding of the unit 2-sphere."""
    sin_theta = _jet_sin(theta)
    return (_jet_mul(sin_theta, _jet_cos(phi)), _jet_mul(sin_theta, _jet_sin(phi)),
            _jet_cos(theta))


def _torus(radius):
    """(rho cos u, rho sin u, s cos v, s sin v), rho = radius(v), s = sqrt(1 - rho^2)."""
    def fn(u, v):
        rho = radius(v)
        s = _jet_sqrt(_jet_mul(_plus(-rho, 1.0), _plus(rho, 1.0)))
        return (_jet_mul(rho, _jet_cos(u)), _jet_mul(rho, _jet_sin(u)),
                _jet_mul(s, _jet_cos(v)), _jet_mul(s, _jet_sin(v)))
    return JetChart(fn)


def _graph_maps(l: int, m: int, nv: int) -> tuple[NodeMap, ...]:
    """The maps the graph of Y_l,m (m != 0) over an nv-node sphere grid
    declares (see the module docstring)."""
    maps = []
    # Y_l,m(theta, c - phi) = Y_l,m at c = 0 (cos type) or c = pi (2t + 1) / |m| (sin type)
    odd = [2 * t + 1 for t in range(abs(m)) if nv * (2 * t + 1) % (2 * abs(m)) == 0]
    if m > 0 or odd:
        maps.append(NodeMap(flip_v=True, shift=0 if m > 0 else nv * odd[0] // (2 * abs(m))))
    # under theta -> pi - theta and phi -> phi + pi, Y_l,m takes (-1)^(l + m) and (-1)^m
    if (l + m) % 2 == 0:
        maps.append(NodeMap(flip_u=True))
    elif nv % 2 == 0:  # the half-turn (m even) or else the antipodal map (l even)
        maps.append(NodeMap(flip_u=m % 2 == 1, shift=nv // 2))
    return tuple(maps)


def build(spec: ShapeSpec) -> ImmersedSurface:
    """Construct the immersed surface for a catalog spec."""
    nu, nv = spec.resolution
    kind = spec.kind
    p = spec.params

    if kind in ("clifford-torus", "flat-torus"):
        r = p["r"] if kind == "flat-torus" else math.sqrt(0.5)
        chart = _torus(lambda v: _plus(0.0 * v, r))
        return ImmersedSurface(chart, torus_grid(nu, nv), revolution=True)

    if kind == "perturbed-torus":
        chart = _torus(lambda v: _plus(p["eps"] * _jet_cos(p["wave"] * v), p["r"]))
        return ImmersedSurface(chart, torus_grid(nu, nv), revolution=p["eps"] == 0)

    if kind == "geodesic-sphere":
        rho = p["rho"]

        def sphere(u, v):
            return tuple(math.sin(rho) * c for c in _unit_sphere(u, v)) + (
                _plus(0.0 * u, math.cos(rho)),)

        return ImmersedSurface(JetChart(sphere), sphere_grid(nu, nv), revolution=True)

    if kind in ("slice", "graph-over-slice"):
        w = p["warping"]
        harmonic = (_perturbation_indices(p["perturbation"])
                    if kind == "graph-over-slice" else None)

        def graph(u, v):
            t = 0.0 * u
            if harmonic is not None:
                t = p["amplitude"] * real_sph_harm(*harmonic, u, v)
            return (_plus(t, p["t0"]),) + _unit_sphere(u, v)

        # A graph must stay inside the warping interval: every evaluation of
        # the profile checks that, so the first reader of the chart refuses
        # a graph that leaves it, with a DomainError.
        revolution = harmonic is None or harmonic[1] == 0 or p["amplitude"] == 0
        return ImmersedSurface(JetChart(graph), sphere_grid(nu, nv), w, revolution=revolution,
                               maps=() if revolution else _graph_maps(*harmonic, nv))

    raise DomainError(f"unknown shape kind {kind!r}")


def _flat_torus_eigenvalues(r: float, count: int):
    a = 1.0 / (r * r)
    b = 1.0 / (1.0 - r * r)
    q = a + b  # equals |sigma|^2 + 2 for the flat torus family
    half = 1
    while True:
        vals = sorted(
            a * m * m + b * k * k - q
            for m in range(-half, half + 1)
            for k in range(-half, half + 1)
        )
        # Any mode outside the box exceeds this, so values below it are
        # enumerated completely.
        boundary = min(a, b) * (half + 1) ** 2 - q
        if len(vals) >= count and vals[count - 1] < boundary:
            return vals[:count]
        half += 1


def exact_jacobi_spectrum(spec: ShapeSpec, count: int) -> list[float]:
    """Closed-form ascending stability eigenvalues, repeated by multiplicity."""
    if count < 1:
        raise DomainError("count must be positive")
    kind = spec.kind
    if kind in ("clifford-torus", "flat-torus"):
        r = spec.params["r"] if kind == "flat-torus" else math.sqrt(0.5)
        return _flat_torus_eigenvalues(float(r), count)
    if kind == "geodesic-sphere":
        rho = spec.params["rho"]
        sin2 = math.sin(rho) ** 2
        cot2 = math.cos(rho) ** 2 / sin2
        return [l * (l + 1) / sin2 - 2.0 * cot2 - 2.0 for l in wp.harmonic_degrees(count)]
    if kind == "slice":
        return list(wp.slice_spectrum(spec.params["warping"], spec.params["t0"], count))
    raise DomainError(f"no closed-form spectrum for shape kind {kind!r}")
