"""Closed forms and output checks for the benchmark's operations.

The closed forms are written out here from the formulas, independently of
the package, so a wrong value in the package cannot also be the value it
is checked against.  Every check returns a list of problems; an empty list
means the op's output is right.
"""

from __future__ import annotations

import math

ORDER = 2.0
ORDER_TOL = 0.2
MIN_REPORT_TOL = 1e-6
BOUND_SLACK = 1e-8
PARAM_NORM_TOL = 1e-4
EXACT_REL = 1e-12


# ----------------------------------------------------------------------
# closed forms


def flat_torus_eigenvalue(r: float, m: int, k: int) -> float:
    """Fourier mode (m, k) of the flat torus of radius r in the 3-sphere."""
    return m * m / r**2 + k * k / (1.0 - r**2) - 1.0 / (r**2 * (1.0 - r**2))


def flat_torus_spectrum(r: float, count: int) -> list[float]:
    """The `count` smallest flat-torus eigenvalues, repeated by multiplicity."""
    half = 1
    while True:
        vals = sorted(
            flat_torus_eigenvalue(r, m, k)
            for m in range(-half, half + 1)
            for k in range(-half, half + 1)
        )
        # every mode outside the box is at least this large
        edge = min(1.0 / r**2, 1.0 / (1.0 - r**2)) * (half + 1) ** 2 \
            - 1.0 / (r**2 * (1.0 - r**2))
        if len(vals) >= count and vals[count - 1] < edge:
            return vals[:count]
        half += 1


def sphere_band(rho: float, l: int) -> float:
    """Degree-l band of the geodesic sphere of radius rho (multiplicity 2l+1)."""
    s2 = math.sin(rho) ** 2
    return l * (l + 1) / s2 - 2.0 * math.cos(rho) ** 2 / s2 - 2.0


def balanced_param_norm(rho: float) -> float:
    """|a| of the dilation that balances the geodesic sphere of radius rho."""
    t = math.tan(rho / 2.0)
    return abs(1.0 - t) / (1.0 + t)


WARPINGS = {
    # name: (h, h', h'')
    "product": (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0),
    "cosh": (math.cosh, math.sinh, math.cosh),
    "sphere": (math.sin, math.cos, lambda t: -math.sin(t)),
}


def slice_band(warping: str, t0: float, k: int) -> float:
    """Degree-k band of the slice {t0} x S^2: k(k+1)/h^2 - 2h'^2/h^2 + 2h''/h."""
    h, dh, d2h = (f(t0) for f in WARPINGS[warping])
    return k * (k + 1) / h**2 - 2.0 * dh**2 / h**2 + 2.0 * d2h / h


def slice_spectrum(warping: str, t0: float, count: int) -> list[float]:
    vals: list[float] = []
    k = 0
    while len(vals) < count:
        vals.extend([slice_band(warping, t0, k)] * (2 * k + 1))
        k += 1
    return sorted(vals)[:count]


# ----------------------------------------------------------------------
# report checks


def report_tolerance(error_estimate: float) -> float:
    return max(5.0 * abs(error_estimate), MIN_REPORT_TOL)


def _close(a, b, rel=EXACT_REL) -> bool:
    return abs(float(a) - float(b)) <= rel * max(1.0, abs(float(a)), abs(float(b)))


def _order(order, where: str) -> list[str]:
    if order is None or abs(float(order) - ORDER) > ORDER_TOL:
        return [f"{where}: observed order {order} is not {ORDER} +- {ORDER_TOL}"]
    return []


def check_theorem(rep: dict, expect: dict) -> list[str]:
    """A check t11/t12/t13/esi report against its expectations.

    expect keys (all optional): lambda2 (closed form of the second
    eigenvalue), bound (closed-form bound), margin_positive, equality,
    order (whether an observed order is due).
    """
    name = rep.get("scenario", "?")
    bad: list[str] = []
    margin, tol = float(rep["margin"]), float(rep["tol_report"])
    lam = float(rep["lambda2_extrapolated"])
    if not _close(margin, float(rep["bound"]) - lam, 1e-10):
        bad.append(f"{name}: margin {margin} is not bound - lambda2")
    if rep["passed"] != (margin >= -tol):
        bad.append(f"{name}: verdict passed={rep['passed']} contradicts margin {margin}")
    if rep["equality"] != (abs(margin) <= tol):
        bad.append(f"{name}: equality={rep['equality']} contradicts margin {margin}")
    if not rep["passed"]:
        bad.append(f"{name}: the bound check did not pass (margin {margin}, tol {tol})")
    if expect.get("order"):
        bad += _order(rep["order"], name)
    if expect.get("lambda2") is not None and abs(lam - expect["lambda2"]) > tol:
        bad.append(f"{name}: extrapolated lambda2 {lam} is not within {tol} of "
                   f"the closed form {expect['lambda2']}")
    if expect.get("bound") is not None and not _close(rep["bound"], expect["bound"], 1e-9):
        bad.append(f"{name}: bound {rep['bound']} is not the closed form {expect['bound']}")
    if expect.get("margin_positive") and not margin > 0.0:
        bad.append(f"{name}: margin {margin} is not positive")
    if expect.get("equality") is not None and rep["equality"] != expect["equality"]:
        bad.append(f"{name}: equality={rep['equality']}, expected {expect['equality']}")
    return bad


def check_converge(rep: dict, expect: dict) -> list[str]:
    """A refinement study against the closed-form second eigenvalue.

    expect keys: lambda2 (closed form), order (whether an order is due).
    """
    name = rep.get("scenario", "?")
    bad = _order(rep["rows"][-1]["order"], name) if expect.get("order") else []
    closed = expect["lambda2"]
    if rep["oracle"] is None or not _close(rep["oracle"], closed, 1e-10):
        bad.append(f"{name}: closed-form value {rep['oracle']} is not {closed}")
    tol = report_tolerance(rep["error_estimate"])
    lam = float(rep["lambda2_extrapolated"])
    if abs(lam - closed) > tol:
        bad.append(f"{name}: extrapolated lambda2 {lam} is not within {tol} of {closed}")
    return bad


def check_balance(rep: dict, expect: dict) -> list[str]:
    """Balanced bound: an upper bound, balanced to tol, with the closed-form |a|."""
    name = rep.get("scenario", "?")
    bad: list[str] = []
    lam, bound = float(rep["lambda2"]), float(rep["bound"])
    if not bound >= lam - BOUND_SLACK:
        bad.append(f"{name}: balanced bound {bound} is below lambda2 {lam}")
    if not _close(rep["gap"], bound - lam, 1e-10):
        bad.append(f"{name}: gap {rep['gap']} is not bound - lambda2")
    if not float(rep["balance_residual"]) <= expect["tol"]:
        bad.append(f"{name}: balance residual {rep['balance_residual']} exceeds {expect['tol']}")
    norm = float(rep["param_norm"])
    if abs(norm - expect["param_norm"]) > PARAM_NORM_TOL:
        bad.append(f"{name}: dilation norm {norm} is not the closed form "
                   f"{expect['param_norm']}")
    return bad


def check_slice_spectrum(rep: dict, expect: dict) -> list[str]:
    name = rep.get("scenario", "?")
    bad: list[str] = []
    want = expect["eigenvalues"]
    got = rep["eigenvalues"]
    if len(got) != len(want) or not all(_close(a, b, 1e-10) for a, b in zip(got, want)):
        bad.append(f"{name}: eigenvalues {got} are not the closed form {want}")
    if not _close(rep["slice_lambda2"], expect["lambda2"], 1e-10):
        bad.append(f"{name}: slice lambda2 {rep['slice_lambda2']} is not {expect['lambda2']}")
    for band in rep["bands"]:
        k = band["band"]
        if band["multiplicity"] != 2 * k + 1:
            bad.append(f"{name}: band {k} has multiplicity {band['multiplicity']}")
    return bad


def check_sweep(reps: list[dict], expect: dict) -> list[str]:
    """Sweep members, matched to expectations by their sweep parameter."""
    key = expect["key"]
    members = expect["members"]
    if len(reps) != len(members):
        return [f"sweep wrote {len(reps)} reports for {len(members)} members"]
    bad: list[str] = []
    reps = sorted(reps, key=lambda r: r["extra"][key])
    members = sorted(members, key=lambda m: m[key])
    for rep, member in zip(reps, members):
        if not _close(rep["extra"][key], member[key], 1e-9):
            bad.append(f"sweep member {key}={rep['extra'][key]} was not asked for")
        bad += check_theorem(rep, member)
    if expect.get("increasing_margin"):
        margins = [float(r["margin"]) for r in reps]
        if any(b <= a for a, b in zip(margins, margins[1:])):
            bad.append(f"sweep margins {margins} do not increase with {key}")
    return bad


CHECKS = {
    "theorem": lambda reps, e: check_theorem(_single(reps), e),
    "converge": lambda reps, e: check_converge(_single(reps), e),
    "balance": lambda reps, e: check_balance(_single(reps), e),
    "slice-spectrum": lambda reps, e: check_slice_spectrum(_single(reps), e),
    "sweep": check_sweep,
}


def _single(reps: list[dict]) -> dict:
    if len(reps) != 1:
        raise ValueError(f"expected one JSON report, found {len(reps)}")
    return reps[0]


# ----------------------------------------------------------------------
# CSV against JSON


def _csv_float(text: str):
    return None if text == "" else float(text)


def _rows_from_json(rep: dict) -> list[dict]:
    """The CSV rows a JSON report implies: (resolution, lambda1, lambda2, bound, margin)."""
    if "results" in rep:  # theorem report
        rows = [
            {"resolution": f"{r['resolution'][0]}x{r['resolution'][1]}",
             "lambda1": r["lambda1"], "lambda2": r["lambda2"], "bound": r["bound"],
             "margin": r["bound"] - r["lambda2"]}
            for r in rep["results"]
        ]
        for row in rows[:2]:
            row["order"] = None
        if len(rows) >= 3:
            rows[-1]["order"] = rep["order"]
        return rows
    if "rows" in rep:  # refinement study
        return [
            {"resolution": r["resolution"], "lambda1": r["lambda1"],
             "lambda2": r["lambda2"], "bound": rep["oracle"],
             "margin": None if rep["oracle"] is None else rep["oracle"] - r["lambda2"],
             "order": r["order"]}
            for r in rep["rows"]
        ]
    if "gap" in rep:  # balanced bound
        return [{"resolution": rep["resolution"], "lambda1": rep["lambda1"],
                 "lambda2": rep["lambda2"], "bound": rep["bound"], "margin": rep["gap"]}]
    ev = rep["eigenvalues"]  # slice spectrum
    return [{"resolution": "exact", "lambda1": ev[0], "lambda2": ev[1],
             "bound": rep["slice_lambda2"], "margin": rep["slice_lambda2"] - ev[1]}]


def check_csv(reps: list[dict], rows: list[dict]) -> list[str]:
    """summary.csv must carry the JSON reports' values at 12 significant digits.

    Stored values must match to the digit.  A margin the CSV derived from
    unrounded numbers may differ from one derived from the rounded JSON
    values by the rounding of both operands, up to 1e-11 of the larger.
    """
    bad: list[str] = []
    by_scenario: dict[str, list[dict]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(row)
    if sorted(by_scenario) != sorted(r["scenario"] for r in reps):
        return [f"CSV scenarios {sorted(by_scenario)} differ from the JSON reports"]
    for rep in reps:
        got, want = by_scenario[rep["scenario"]], _rows_from_json(rep)
        if len(got) != len(want):
            bad.append(f"{rep['scenario']}: {len(got)} CSV rows for {len(want)} results")
            continue
        for g, w in zip(got, want):
            if g["resolution"] != w["resolution"]:
                bad.append(f"{rep['scenario']}: CSV resolution {g['resolution']} "
                           f"is not {w['resolution']}")
            for col in ("lambda1", "lambda2", "bound", "order"):
                if col in w and _csv_float(g[col]) != w[col]:
                    bad.append(f"{rep['scenario']} {g['resolution']}: CSV {col} "
                               f"{g[col]} is not the JSON value {w[col]}")
            m = _csv_float(g["margin"])
            if (m is None) != (w["margin"] is None) or (
                    m is not None and abs(m - w["margin"]) > 1e-11 * max(
                        1.0, abs(w["bound"] or 0.0), abs(w["lambda2"]))):
                bad.append(f"{rep['scenario']} {g['resolution']}: CSV margin "
                           f"{g['margin']} is not {w['margin']}")
    return bad
