"""Scenario runner: theorem checks, sweeps, refinement studies, reports.

Each check builds a catalog shape at one or more resolutions, solves the
stability pencil, Richardson-extrapolates the second eigenvalue, and
compares it against the relevant bound:

* t11 — closed orientable surface of nonpositive Euler characteristic in
  the 3-sphere: second eigenvalue <= -2 (equality at the square torus).
* t12 — hypersurface of the product ambient (warping h = 1): bound n.
* t13 — hypersurface of a warped ambient whose warping satisfies the
  strict convexity condition: bound is the area-weighted mean of the
  slice second eigenvalue over the surface.
* esi — the conformal-volume upper bound: area-weighted mean of
  n H^2 + (R - 2 Ric(normal)) / (n - 1) - |sigma|^2 - Ric(normal).

The genus hypothesis is verified from the computed total curvature,
never assumed.  The report tolerance is max(5 * Richardson error
estimate, 1e-6) so that no violation is claimed inside discretization
noise.  Every scenario returns one `Report`: a JSON body (one file per
scenario), its rows of the shared CSV summary, and a verdict.  Every
float is written with 12 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import catalog, warping as wp
from .assembly import assemble
from .conformal import balanced_bound_report
from .eigen import eigenvalue_multiplicity, smallest_eigenpairs
from .errors import ConfigError, DomainError, HypothesisError
from .surfaces import compute_geometry, euler_characteristic

__all__ = [
    "Report",
    "check_theorem",
    "convergence_study",
    "sweep_flat_torus",
    "sweep_graph_amplitude",
    "balance_bound_scenario",
    "slice_spectrum_report",
    "richardson_extrapolate",
    "observed_order",
    "report_tolerance",
    "write_json_report",
    "write_csv_summary",
    "scenario_slug",
]

MIN_REPORT_TOL = 1e-6
# reports read lambda_1, lambda_2 and lambda_2's multiplicity; the solver
# closes the window at the end of lambda_2's cluster
DEFAULT_EIGEN_COUNT = 2


def richardson_extrapolate(values, spacings) -> tuple[float, float]:
    """(extrapolated value, error estimate) assuming second-order bias.

    Uses the finest two entries of a strictly refining ladder, which
    `_steps` checks before any rung is built.
    """
    ratio = float(spacings[-2]) / float(spacings[-1])
    fine, coarse = float(values[-1]), float(values[-2])
    correction = (fine - coarse) / (ratio**2 - 1.0)
    return fine + correction, abs(correction)


def observed_order(values, spacings):
    """Convergence order from the last three values, or None.

    Needs three entries with a constant refinement ratio and nonzero
    consecutive differences; warns (and returns None) otherwise.
    """
    if len(values) < 3:
        return None
    v1, v2, v3 = (float(v) for v in values[-3:])
    h1, h2, h3 = (float(h) for h in spacings[-3:])
    r1, r2 = h1 / h2, h2 / h3
    if abs(r1 - r2) > 1e-9 * r1:
        warnings.warn("refinement ratios differ; observed order skipped")
        return None
    d1, d2 = v2 - v1, v3 - v2
    if d2 == 0.0 or d1 == 0.0:
        warnings.warn("stalled eigenvalue differences; observed order skipped")
        return None
    if d1 * d2 < 0.0:
        warnings.warn("non-monotone eigenvalue sequence under refinement")
    return math.log(abs(d1 / d2)) / math.log(r1)


def report_tolerance(error_estimate: float) -> float:
    return max(5.0 * abs(error_estimate), MIN_REPORT_TOL)


@dataclass(frozen=True)
class Report:
    """One scenario's outcome: its JSON body, its summary.csv rows, a verdict.

    The verdict is True/False for a theorem check (a sweep member is one)
    and None where nothing is checked: refinement studies, balanced
    bounds and slice spectra.
    """

    scenario: str
    body: dict
    rows: list[dict]
    verdict: bool | None = None


def scenario_slug(*parts) -> str:
    text = "-".join(str(p) for p in parts if p is not None and str(p) != "")
    text = text.lower().replace("|", "-")
    text = re.sub(r"[^a-z0-9.+-]+", "-", text)
    return re.sub(r"-{2,}", "-", text).strip("-")


def _csv_row(scenario, resolution, lambda1, lambda2, bound, order=None) -> dict:
    margin = None if bound is None or lambda2 is None else bound - lambda2
    return {"scenario": scenario, "resolution": resolution, "lambda1": lambda1,
            "lambda2": lambda2, "bound": bound, "margin": margin, "order": order}


def _ladder(spec: catalog.ShapeSpec, resolutions, seed: int, measure,
            hypothesis=None):
    """Build -> geometry -> assemble -> solve at each resolution in turn.

    Each rung's geometry is computed once, with the Gauss curvature on the
    first rung alone: `hypothesis(surface, fields)` runs there, after its
    geometry and before its assembly, so a shape that fails it is built
    once and never solved.  Returns (what the hypothesis returned,
    [measure(surface, fields, pencil, spectrum) per resolution]).
    """
    found, measured = None, []
    for i, res in enumerate(resolutions):
        surface = catalog.build(replace(spec, resolution=(res, res)))
        fields = compute_geometry(surface, want_gauss=i == 0)
        if i == 0 and hypothesis is not None:
            found = hypothesis(surface, fields)
        pencil = assemble(surface, fields)
        spectrum = smallest_eigenpairs(pencil, DEFAULT_EIGEN_COUNT, seed=seed)
        measured.append(measure(surface, fields, pencil, spectrum))
    return found, measured


def _steps(spec, resolutions, seed, bound_fn, hypothesis=None):
    """(hypothesis result, the JSON `results` entry of each resolution).

    A verdict needs a discretization-error estimate from a strictly
    refining ladder, so fewer than two resolutions, or resolutions that do
    not increase, raise DomainError before any of them is built.  The
    grid's floor of 8 refuses the coarsest rung, built first.
    """
    if len(resolutions) < 2:
        raise DomainError("a check or study needs at least two resolutions")
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise DomainError("resolutions must be strictly increasing")

    def measure(surface, fields, pencil, spectrum):
        lam = spectrum.eigenvalues
        return {
            "resolution": [surface.grid.nu, surface.grid.nv],
            "spacing": max(surface.grid.du, surface.grid.dv),
            "lambda1": float(lam[0]),
            "lambda2": float(lam[1]),
            "bound": bound_fn(fields),
            "lambda2_multiplicity": eigenvalue_multiplicity(lam, 1),
        }

    return _ladder(spec, resolutions, seed, measure, hypothesis)


def _trend(steps):
    """(observed order after each step, Richardson value, its error estimate)."""
    spacings = [s["spacing"] for s in steps]
    lams = [s["lambda2"] for s in steps]
    orders = [observed_order(lams[: i + 1], spacings[: i + 1]) for i in range(len(steps))]
    return (orders, *richardson_extrapolate(lams, spacings))


def _res_text(step: dict) -> str:
    return "{}x{}".format(*step["resolution"])


def _step_rows(scenario: str, steps, orders) -> list[dict]:
    return [_csv_row(scenario, _res_text(s), s["lambda1"], s["lambda2"], s["bound"], o)
            for s, o in zip(steps, orders)]


def _require_sphere3(surface, fields) -> dict:
    if not surface.is_sphere3:
        raise HypothesisError("the bound applies to surfaces in the 3-sphere")
    return {}


def _torus_hypothesis(surface, fields) -> dict:
    _require_sphere3(surface, fields)
    chi = euler_characteristic(fields)  # the one reader of the Gauss curvature
    if chi > 0:
        raise HypothesisError(
            f"surface has Euler characteristic {chi}; the bound needs genus >= 1 "
            "(nonpositive Euler characteristic)"
        )
    return {"euler_characteristic": chi}


def _require_warped(surface, fields) -> dict:
    if surface.is_sphere3:
        raise HypothesisError("this check applies to hypersurfaces of a warped ambient")
    return {}


def _convexity_hypothesis(surface, fields) -> dict:
    _require_warped(surface, fields)
    cond_min, cond_arg = wp.condition_strictness(surface.warping, fields.t_range)
    if cond_min <= 0.0:
        raise HypothesisError(
            f"strict convexity condition fails at t = {cond_arg:.6g} "
            f"(value {cond_min:.6g}); the bound requires it positive"
        )
    return {"condition_min": cond_min, "condition_argmin": cond_arg}


def _area_mean(values, fields) -> float:
    """The area-weighted mean over the nodes the fields are given at: on a
    surface of revolution the meridian, each of whose nodes stands for the
    same nv grid nodes, so the mean is that over the grid."""
    return float(np.sum(values * fields.area_element) / np.sum(fields.area_element))


def _slice_mean_bound(fields) -> float:
    return _area_mean(wp.slice_lambda2_from_ricci(fields.ambient_curvature), fields)


def _product_hypothesis(surface, fields) -> dict:
    _require_warped(surface, fields)
    w = surface.warping
    samples = np.linspace(w.interval[0], w.interval[1], 17)
    if (float(np.max(np.abs(w.h(samples) - 1.0))) > 1e-12
            or float(np.max(np.abs(w.dh(samples)))) > 1e-12):
        raise HypothesisError(
            "this specialization requires the product ambient (warping h = 1); "
            f"got warping {w.name!r}"
        )
    return {}


def _esi_bound(fields) -> float:
    n, ric, r = wp.SPHERE_DIM, fields.ricci_normal, fields.ambient_curvature.scalar
    return _area_mean(n * fields.mean_curv**2 + (r - 2.0 * ric) / (n - 1) - fields.sigma_sq - ric,
                      fields)


# check name -> (theorem id, hypothesis, bound); see the module docstring.
# A hypothesis reads the first rung's surface and fields (see `_ladder`);
# a bound is a function of the geometry fields alone. t12 is t13 on the
# product ambient, where every slice value is n = 2.
_CHECKS = {
    "t11": ("T11", _torus_hypothesis, lambda f: -2.0),
    "t12": ("T12", _product_hypothesis, _slice_mean_bound),
    "t13": ("T13", _convexity_hypothesis, _slice_mean_bound),
    "esi": ("ESI", _require_warped, _esi_bound),
}


def check_theorem(theorem: str, spec: catalog.ShapeSpec, resolutions,
                  seed: int = 0) -> Report:
    """One eigenvalue-bound check (t11, t12, t13 or esi) over a resolution ladder."""
    key = theorem.lower()
    if key not in _CHECKS:
        raise DomainError(f"unknown check {theorem!r}; pick one of {sorted(_CHECKS)}")
    theorem_id, hypothesis, bound_fn = _CHECKS[key]
    extra, steps = _steps(spec, resolutions, seed, bound_fn, hypothesis)
    orders, lam_hat, err_est = _trend(steps)
    tol = report_tolerance(err_est)
    bound = steps[-1]["bound"]
    margin = bound - lam_hat
    scenario = scenario_slug(theorem_id, spec.label)
    body = {
        "theorem_id": theorem_id,
        "scenario": scenario,
        "shape": spec.label,
        "results": steps,
        "bound": bound,
        "lambda2_extrapolated": lam_hat,
        "margin": margin,
        "tol_report": tol,
        "passed": bool(margin >= -tol),
        "equality": bool(abs(margin) <= tol),
        "order": orders[-1],
        "seed": seed,
        **({"extra": extra} if extra else {}),
    }
    return Report(scenario, body, _step_rows(scenario, steps, orders), body["passed"])


def convergence_study(spec: catalog.ShapeSpec, resolutions, seed: int = 0) -> Report:
    """Second-eigenvalue refinement table with observed convergence orders."""
    try:
        oracle = float(catalog.exact_jacobi_spectrum(spec, 2)[1])
    except DomainError:
        oracle = None
    _, steps = _steps(spec, resolutions, seed, lambda f: oracle)
    orders, lam_hat, err_est = _trend(steps)
    scenario = scenario_slug("converge", spec.label)
    body = {
        "scenario": scenario,
        "shape": spec.label,
        "rows": [
            {"resolution": _res_text(s), "spacing": s["spacing"], "lambda1": s["lambda1"],
             "lambda2": s["lambda2"], "order": o}
            for s, o in zip(steps, orders)
        ],
        "lambda2_extrapolated": lam_hat,
        "error_estimate": err_est,
        "oracle": oracle,
        "seed": seed,
    }
    return Report(scenario, body, _step_rows(scenario, steps, orders))


def _sweep(theorem, family, key, members, resolutions, seed) -> list[Report]:
    """`theorem` checked on each (spec, value, extra) member, relabelled
    `family-key=value` with `extra` joining its extra entries.  Members that
    share a name would share a report file: ConfigError, before any solve."""
    names = [scenario_slug(family, f"{key}={value:.6g}") for _, value, _ in members]
    if len(set(names)) < len(names):
        raise ConfigError(f"two sweep members share a scenario name: {', '.join(names)}")
    reports = []
    for name, (spec, _, extra) in zip(names, members):
        rep = check_theorem(theorem, spec, resolutions, seed=seed)
        body = {**rep.body, "scenario": name, "extra": {**rep.body.get("extra", {}), **extra}}
        rows = [{**row, "scenario": name} for row in rep.rows]
        reports.append(Report(name, body, rows, rep.verdict))
    return reports


def sweep_flat_torus(rs, resolutions, seed: int = 0) -> list[Report]:
    """t11 check across the flat-torus family; tightest at r = 1/sqrt(2)."""
    radii = [float(r) for r in rs]
    specs = [catalog.flat_torus(r) for r in radii]
    return _sweep("t11", "sweep-flat-torus", "r", [
        (spec, r, {"r": r, "oracle_lambda2": catalog.exact_jacobi_spectrum(spec, 2)[1]})
        for spec, r in zip(specs, radii)], resolutions, seed)


def sweep_graph_amplitude(warping, t0, perturbation, amplitudes, resolutions,
                          seed: int = 0) -> list[Report]:
    """t13 check across graph amplitudes; margin grows with amplitude."""
    amps = [float(amp) for amp in amplitudes]
    graphs = [catalog.graph_over_slice(warping, t0, perturbation, amp) for amp in amps]
    return _sweep("t13", "sweep-graph-amplitude", "amp", [
        (catalog.slice_shape(warping, t0) if amp == 0.0 else graph, amp, {"amplitude": amp})
        for graph, amp in zip(graphs, amps)], resolutions, seed)


def balance_bound_scenario(spec: catalog.ShapeSpec, resolution, seed: int = 0) -> Report:
    """Balanced-coordinate upper bound vs the computed second eigenvalue."""

    def measure(surface, fields, pencil, spectrum):
        return surface.grid, spectrum, balanced_bound_report(surface, fields, pencil, spectrum)

    _, [(grid, spectrum, rep)] = _ladder(spec, [resolution], seed, measure,
                                         _require_sphere3)
    lam1, lam2 = float(spectrum.eigenvalues[0]), float(spectrum.eigenvalues[1])
    scenario = scenario_slug("balance-bound", spec.label)
    body = {
        "scenario": scenario,
        "shape": spec.label,
        "resolution": f"{grid.nu}x{grid.nv}",
        "lambda1": lam1,
        "lambda2": lam2,
        "bound": rep.bound,
        "gap": rep.bound - lam2,
        "balance_residual": rep.balance_residual,
        "param_norm": rep.param.magnitude,
        "param": [float(x) for x in rep.param.a],
        "seed": seed,
    }
    return Report(scenario, body,
                  [_csv_row(scenario, body["resolution"], lam1, lam2, rep.bound)])


def slice_spectrum_report(warping, t0: float, count: int = 8) -> Report:
    """Closed-form slice spectrum with band multiplicities."""
    w = catalog._resolve_warping(warping)
    degrees = wp.harmonic_degrees(count)
    bands = [{"band": k, "eigenvalue": wp.slice_eigenvalue_band(w, t0, k),
              "multiplicity": wp.harmonic_multiplicity(k)} for k in range(degrees[-1] + 1)]
    values = [bands[k]["eigenvalue"] for k in degrees]
    scenario = scenario_slug("slice-spectrum", w.name, f"t0={t0:.6g}")
    bound = wp.slice_eigenvalue_band(w, t0, 1)
    body = {
        "scenario": scenario,
        "warping": w.name,
        "t0": float(t0),
        "sphere_dim": wp.SPHERE_DIM,
        "count": count,
        "eigenvalues": values,
        "bands": bands,
        "slice_lambda2": bound,
        "condition_value": wp.convexity_condition(w, t0),
    }
    lam2 = values[1] if len(values) > 1 else None
    return Report(scenario, body, [_csv_row(scenario, "exact", values[0], lam2, bound)])


# ----------------------------------------------------------------------
# Report output (12 significant digits everywhere)


def fmt12(x) -> str:
    """A float with the 12 significant digits every report carries."""
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(fmt12(obj))
    return obj


def write_json_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(_round12(report), fh, indent=2, sort_keys=False)
        fh.write("\n")


CSV_COLUMNS = ["scenario", "resolution", "lambda1", "lambda2", "bound", "margin", "order"]


def write_csv_summary(rows: list[dict], path) -> None:
    """One line per row; csv writes None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows({col: fmt12(v) if isinstance(v, (float, np.floating)) else v
                          for col, v in row.items()} for row in rows)
