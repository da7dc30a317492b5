"""End-to-end acceptance criteria, each at its stated tolerance.

Each test evaluates one criterion, records a PASS/FAIL line for the terminal
summary, and then asserts.  Tolerances and resolutions are the contract —
do not loosen them here.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

import stabspec as ss
from stabspec.eigen import eigenvalue_multiplicity

from conftest import record_acceptance
from oracles import (
    conformal_willmore_invariant,
    dense_window,
    dirichlet_energy_check,
    gauss_equation_residual,
    sympy_chart,
    unmarked,
    willmore_type_inequality_check,
)

SQ2INV = 1 / math.sqrt(2)


def _fmt(x, digits=3):
    return f"{x:.{digits}g}"


# criterion 1 -----------------------------------------------------------


def test_criterion_1_minimal_square_torus_spectrum(solve):
    t0 = time.time()
    lam2s, spacings = [], []
    final = None
    for n in (32, 64, 128):
        sol = solve(ss.clifford_torus((n, n)), k=6)
        lam2s.append(sol.spectrum.eigenvalues[1])
        spacings.append(2 * math.pi / n)
        final = sol
    elapsed = time.time() - t0
    vals = final.spectrum.eigenvalues
    mult = eigenvalue_multiplicity(vals, 1)
    order = ss.observed_order(lam2s, spacings)
    checks = [
        abs(vals[0] + 4.0) <= 1e-3,
        abs(vals[1] + 2.0) <= 1e-3,
        mult == 4,
        order is not None and abs(order - 2.0) <= 0.2,
        elapsed < 60.0,
    ]
    detail = (f"lambda1={_fmt(vals[0], 6)} lambda2={_fmt(vals[1], 6)} "
              f"mult={mult} order={_fmt(order)} time={elapsed:.1f}s")
    record_acceptance(1, all(checks), detail)
    assert all(checks), detail


# criterion 2 -----------------------------------------------------------


def test_criterion_2_flat_torus_radius_sweep():
    radii = [0.45, 0.5, 0.55, 0.6, 0.65, SQ2INV, 0.75]
    t0 = time.time()
    reports = ss.sweep_flat_torus(radii, [48, 96])
    elapsed = time.time() - t0
    worst_err = 0.0
    checks = [elapsed < 180.0]
    for r, rep in zip(radii, reports):
        oracle = rep.body["extra"]["oracle_lambda2"]
        err = abs(rep.body["results"][-1]["lambda2"] - oracle)
        worst_err = max(worst_err, err)
        checks.append(err <= 1e-3)
        checks.append(rep.body["lambda2_extrapolated"] <= -2.0 + 1e-6)
        if r == SQ2INV:
            checks.append(abs(rep.body["lambda2_extrapolated"] + 2.0) <= 1e-6)
            checks.append(rep.body["equality"])
        else:
            checks.append(rep.body["lambda2_extrapolated"] < -2.0 - 1e-6)
            checks.append(not rep.body["equality"])
    detail = (f"max|lambda2-oracle|={_fmt(worst_err)} "
              f"equality-only-at-r=1/sqrt2 time={elapsed:.1f}s")
    record_acceptance(2, all(checks), detail)
    assert all(checks), detail


# criterion 3 -----------------------------------------------------------


def test_criterion_3_slice_eigenvalues(solve):
    results = {}
    checks = []
    for name, target in [("product", 2.0), ("cosh", 4.0)]:
        t0 = time.time()
        sol = solve(ss.slice_shape(name, 0.0, (96, 96)), k=4)
        elapsed = time.time() - t0
        lam2 = sol.spectrum.eigenvalues[1]
        checks.append(abs(lam2 - target) <= 1e-3)
        checks.append(elapsed < 60.0)
        results[name] = (lam2, target, elapsed)
    detail = " ".join(
        f"{k}: lambda2={_fmt(v[0], 6)} target={v[1]} ({v[2]:.1f}s)"
        for k, v in results.items())
    record_acceptance(3, all(checks), detail)
    assert all(checks), detail


# criterion 4 -----------------------------------------------------------


def test_criterion_4_equatorial_sphere(solve):
    sol = solve(ss.geodesic_sphere(math.pi / 2, (96, 96)), k=4)
    lam2 = sol.spectrum.eigenvalues[1]
    ok = abs(lam2) <= 1e-3
    detail = f"lambda2={_fmt(lam2)}"
    record_acceptance(4, ok, detail)
    assert ok, detail


# criterion 5 -----------------------------------------------------------


def test_criterion_5_amplitude_margins():
    res = [48, 96]
    reports = ss.sweep_graph_amplitude(
        "cosh", 0.3, "Y2,0", [0.0, 0.02, 0.05, 0.1], res)
    zero, rest = reports[0], reports[1:]
    margins = [rep.body["margin"] for rep in rest]
    checks = [
        abs(zero.body["margin"]) <= zero.body["tol_report"],
        all(m > 0 for m in margins),
        margins[0] < margins[1] < margins[2],
        all(rep.verdict for rep in reports),
    ]
    detail = (f"margin(0)={_fmt(zero.body['margin'])} "
              f"tol={_fmt(zero.body['tol_report'])} "
              f"margins={[_fmt(m) for m in margins]}")
    record_acceptance(5, all(checks), detail)
    assert all(checks), detail


# criterion 6 -----------------------------------------------------------


def test_criterion_6_geometric_identities():
    shapes = [
        ss.clifford_torus((96, 96)),
        ss.flat_torus(0.6, (96, 96)),
        ss.geodesic_sphere(1.0, (96, 96)),
        ss.slice_shape("cosh", 0.3, (96, 96)),
        ss.perturbed_torus(SQ2INV, 0.05, 3, (96, 96)),
    ]
    checks = []
    worst = {"gauss": 0.0, "total": 0.0, "pinch": 0.0}
    for spec in shapes:
        s = ss.build(spec)
        f = ss.compute_geometry(s)
        if s.is_sphere3:  # against Brioschi's intrinsic K of the sympy chart
            res = gauss_equation_residual(sympy_chart(spec), f, s.grid)
            worst["gauss"] = max(worst["gauss"], res)
            checks.append(res <= 1e-4)
        chi = ss.euler_characteristic(f)
        gb = abs(ss.total_curvature(f) - 2 * math.pi * chi)
        worst["total"] = max(worst["total"], gb)
        checks.append(gb <= 1e-3)
        pinch = float(np.min(f.sigma_sq - 2 * f.mean_curv**2))
        worst["pinch"] = min(worst["pinch"], pinch)
        checks.append(pinch >= -1e-10)
    detail = (f"max gauss residual={_fmt(worst['gauss'])} "
              f"max |total curvature - 2 pi chi|={_fmt(worst['total'])} "
              f"min(|sigma|^2-2H^2)={_fmt(worst['pinch'])}")
    record_acceptance(6, all(checks), detail)
    assert all(checks), detail


# criterion 7 -----------------------------------------------------------


def test_criterion_7_conformal_suite(solve):
    sol = solve(ss.clifford_torus((48, 48)), k=2)
    target = 4 * math.pi**2
    params = [ss.MobiusParam(np.array([m, 0.0, 0.0, 0.0]))
              for m in (0.0, 0.2, 0.4)]
    checks = []
    willmores, dir_rel = [], 0.0
    for p in params:
        w = conformal_willmore_invariant(sol.surface, p)
        willmores.append(w)
        checks.append(abs(w - target) <= 1e-3 * target)
        energy, twice_area = dirichlet_energy_check(sol.surface, p)
        rel = abs(energy - twice_area) / abs(twice_area)
        dir_rel = max(dir_rel, rel)
        checks.append(rel <= 1e-3)
        lhs, rhs = willmore_type_inequality_check(sol.surface, p)
        checks.append(lhs >= rhs - 1e-9 * abs(lhs))
    spread = (max(willmores) - min(willmores)) / target
    checks.append(spread <= 1e-3)
    detail = (f"willmore spread={_fmt(spread)} "
              f"max dirichlet mismatch={_fmt(dir_rel)}")
    record_acceptance(7, all(checks), detail)
    assert all(checks), detail


# criterion 8 -----------------------------------------------------------


def test_criterion_8_balanced_bound(solve):
    checks = []
    worst_resid, worst_slack = 0.0, 0.0
    # residual and bound domination on every shape with a computed ground state
    for spec in [ss.clifford_torus((32, 32)), ss.flat_torus(0.6, (32, 32)),
                 ss.geodesic_sphere(1.0, (32, 32)),
                 ss.perturbed_torus(0.7, 0.05, 3, (32, 32))]:
        sol = solve(spec, k=2)
        f1 = sol.spectrum.eigenvectors[:, 0]
        a, _, _ = ss.hersch_balance(sol.surface, sol.fields, f1)
        w = np.maximum(f1, 0.0) * sol.fields.area_element
        y = ss.mobius_apply(a, sol.surface.points())
        resid = float(np.linalg.norm(w @ y)) / float(w.sum())
        worst_resid = max(worst_resid, resid)
        checks.append(resid <= 1e-9)
        bound = ss.balanced_bound_report(sol.surface, sol.fields,
                                         sol.pencil, sol.spectrum).bound
        slack = sol.spectrum.eigenvalues[1] - bound
        worst_slack = max(worst_slack, slack)
        checks.append(bound >= sol.spectrum.eigenvalues[1] - 1e-8)
    # sharpness at 96 x 96 on the minimal torus and geodesic spheres
    gaps = []
    for spec in [ss.clifford_torus((96, 96)),
                 ss.geodesic_sphere(math.pi / 2, (96, 96)),
                 ss.geodesic_sphere(1.0, (96, 96))]:
        sol = solve(spec, k=2)
        bound = ss.balanced_bound_report(sol.surface, sol.fields,
                                         sol.pencil, sol.spectrum).bound
        gaps.append(bound - sol.spectrum.eigenvalues[1])
        checks.append(abs(gaps[-1]) <= 1e-3)
    detail = (f"max residual={_fmt(worst_resid)} "
              f"max bound slack={_fmt(worst_slack)} "
              f"96x96 gaps={[_fmt(g) for g in gaps]}")
    record_acceptance(8, all(checks), detail)
    assert all(checks), detail


# criterion 9 -----------------------------------------------------------


def test_criterion_9_solver_guarantees(solve):
    spec = ss.clifford_torus((24, 24))
    s = ss.build(spec)
    f = ss.compute_geometry(s, want_gauss=False)
    p = ss.assemble(s, f)
    # the two production paths: reduced on the invariant pencil, sparse once
    # the data no longer marks it; lambda_6 opens the four-fold cluster at
    # places 6-9, and both windows close it
    paths = [ss.smallest_eigenpairs(q, 6)
             for q in (p, unmarked(p))]
    windows = [sp_.eigenvalues.size for sp_ in paths]
    A, d = p.stiffness_minus_potential, p.mass_diagonal
    scale = float(np.max(np.abs(A.data)))
    res_max, gram_err = [], []
    for sp_ in paths:
        V = sp_.eigenvectors
        res_max.append(max(
            float(np.linalg.norm(A @ V[:, i] - lam * (d * V[:, i])))
            for i, lam in enumerate(sp_.eigenvalues)))
        gram_err.append(float(np.max(np.abs(V.T @ (d[:, None] * V) - np.eye(V.shape[1])))))
    oracle, _ = dense_window(p, 6)
    path_diff = max(float(np.max(np.abs(sp_.eigenvalues - oracle))) for sp_ in paths)

    c = 2.0
    # the Jacobi pencil with its potential raised by c: (A - c M, M) up to
    # round-off, still invariant along v
    shifted = ss.assemble(s, dataclasses.replace(f, ricci_normal=f.ricci_normal + c))
    sh = ss.smallest_eigenpairs(shifted, 6)
    shift_err = float(np.max(np.abs(sh.eigenvalues
                                    - (paths[0].eigenvalues - c))))

    signed = []
    for catalog_spec in [ss.clifford_torus((16, 16)),
                         ss.flat_torus(0.6, (16, 16)),
                         ss.geodesic_sphere(1.0, (16, 16)),
                         ss.slice_shape("cosh", 0.3, (16, 16)),
                         ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05,
                                             (16, 16)),
                         ss.perturbed_torus(0.7, 0.05, 3, (16, 16))]:
        sol = solve(catalog_spec, k=2)
        signed.append(float(np.min(sol.spectrum.eigenvectors[:, 0])) > 0)

    checks = [
        max(res_max) <= 1e-9 * scale,
        max(gram_err) <= 1e-10,
        all(signed),
        sh.method == "reduced" and shift_err <= 1e-12 * (1 + abs(c)) * 10,
        path_diff <= 1e-8,
        windows == [9, 9],
        [sp_.method for sp_ in paths] == ["reduced", "sparse"],
    ]
    detail = (f"reduced/sparse residual={[_fmt(r / scale) for r in res_max]} "
              f"gram={[_fmt(g) for g in gram_err]} shift={_fmt(shift_err)} "
              f"paths-vs-dense-oracle={_fmt(path_diff)} windows={windows} "
              f"ground states single-signed={all(signed)}")
    record_acceptance(9, all(checks), detail)
    assert all(checks), detail
