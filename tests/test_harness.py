"""Reporting harness, extrapolation, config parsing, and the CLI surface."""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import stabspec as ss
import stabspec.config as cfgmod
import stabspec.eigen as eigen
import stabspec.harness as harness
import stabspec.surfaces as surfaces
from stabspec.charts import JetChart
from stabspec.cli import main as cli_main
from stabspec.errors import (
    ConfigError,
    DomainError,
    HypothesisError,
    NonConvergenceError,
    StabspecError,
)

FAST = [12, 24]


# ------------------------------------------------------------- extrapolation


def test_richardson_recovers_a_quadratic_limit():
    limit, c = -2.5, 0.8
    spac = [0.4, 0.2]
    vals = [limit + c * h**2 for h in spac]
    est, corr = ss.richardson_extrapolate(vals, spac)
    assert est == pytest.approx(limit, abs=1e-14)
    assert corr == pytest.approx(abs(vals[-1] - limit), rel=1e-12)


def test_richardson_uses_the_finest_pair():
    limit = 1.0
    spac = [0.8, 0.4, 0.2]
    vals = [limit + h**2 for h in spac]
    est, _ = ss.richardson_extrapolate(vals, spac)
    assert est == pytest.approx(limit, abs=1e-14)


def test_observed_order_detects_second_order():
    spac = [0.4, 0.2, 0.1]
    vals = [3.0 + 0.5 * h**2 for h in spac]
    assert ss.observed_order(vals, spac) == pytest.approx(2.0, abs=1e-10)
    cubic = [3.0 + 0.5 * h**3 for h in spac]
    assert ss.observed_order(cubic, spac) == pytest.approx(3.0, abs=1e-10)


def test_observed_order_needs_a_consistent_sequence():
    spac = [0.4, 0.2, 0.1]
    with pytest.warns(UserWarning):  # non-monotone: warn but still estimate
        assert ss.observed_order([1.0, 2.0, 1.5], spac) == pytest.approx(1.0)
    with pytest.warns(UserWarning):  # stalled differences: no estimate
        assert ss.observed_order([1.0, 1.0, 1.0], spac) is None
    with pytest.warns(UserWarning):  # inconsistent refinement ratio
        assert ss.observed_order([1.0, 1.2, 1.3], [0.4, 0.2, 0.15]) is None
    assert ss.observed_order([1.0, 1.1], spac[:2]) is None


def test_report_tolerance_floor():
    assert ss.report_tolerance(1e-9) == 1e-6
    assert ss.report_tolerance(0.01) == pytest.approx(0.05)


# ------------------------------------------------------------ theorem checks


def test_torus_check_passes_with_equality_on_the_square_torus(solve):
    rep = ss.check_theorem("t11", ss.clifford_torus(), resolutions=FAST)
    assert rep.verdict and rep.body["equality"]
    assert rep.body["bound"] == -2.0
    assert rep.body["lambda2_extrapolated"] == pytest.approx(
        -2.0, abs=rep.body["tol_report"])
    assert rep.body["results"][-1]["lambda2_multiplicity"] == 4


def test_torus_check_strict_inequality_off_the_square_shape():
    rep = ss.check_theorem("t11", ss.flat_torus(0.6), resolutions=FAST)
    assert rep.verdict and not rep.body["equality"]
    assert rep.body["margin"] == pytest.approx(1 / 0.36 - 2.0, abs=5e-3)


def test_torus_check_accepts_perturbed_tori():
    rep = ss.check_theorem("t11", ss.perturbed_torus(1 / math.sqrt(2), 0.05, 3),
                           resolutions=FAST)
    assert rep.verdict
    assert rep.body["lambda2_extrapolated"] < -2.0


def test_torus_check_rejects_spheres():
    with pytest.raises(HypothesisError):
        ss.check_theorem("t11", ss.geodesic_sphere(1.0), resolutions=FAST)


def test_product_check_requires_constant_profile():
    rep = ss.check_theorem("t12", ss.slice_shape("product", 0.4),
                           resolutions=FAST)
    assert rep.verdict and rep.body["bound"] == 2.0
    with pytest.raises(HypothesisError):
        ss.check_theorem("t12", ss.slice_shape("cosh", 0.0), resolutions=FAST)


def test_convex_check_needs_a_strictly_convex_profile():
    rep = ss.check_theorem("t13", ss.slice_shape("cosh", 0.3), resolutions=FAST)
    assert rep.verdict and rep.body["equality"]
    assert rep.body["bound"] == pytest.approx(4.0 / math.cosh(0.3) ** 2, rel=1e-9)
    for name in ("sphere", "hyperbolic", "euclidean"):
        t0 = 1.0
        with pytest.raises(HypothesisError):
            ss.check_theorem("t13", ss.slice_shape(name, t0), resolutions=FAST)


def test_convex_check_margin_grows_with_amplitude():
    reps = [
        ss.check_theorem(
            "t13", ss.graph_over_slice("cosh", 0.3, "Y2,0", amp), resolutions=FAST)
        for amp in (0.02, 0.1)
    ]
    assert all(r.verdict for r in reps)
    assert 0 < reps[0].body["margin"] < reps[1].body["margin"]


def test_curvature_integral_check_on_graphs():
    rep = ss.check_theorem("esi", ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05),
                           resolutions=FAST)
    assert rep.verdict
    assert rep.body["margin"] > 0
    assert rep.body["bound"] == pytest.approx(
        rep.body["lambda2_extrapolated"] + rep.body["margin"], rel=1e-12)


def test_curvature_integral_check_rejects_sphere_ambient():
    with pytest.raises(HypothesisError):
        ss.check_theorem("esi", ss.clifford_torus(), resolutions=FAST)


def test_check_dispatch_and_unknown_id():
    rep = ss.check_theorem("t12", ss.slice_shape("product", 0.0), FAST)
    assert rep.body["theorem_id"] == "T12"
    with pytest.raises((ConfigError, KeyError, ValueError)):
        ss.check_theorem("t99", ss.slice_shape("product", 0.0), FAST)


def test_slice_equality_is_attained_on_the_slice_itself():
    rep = ss.check_theorem("t13", ss.slice_shape("cosh", 0.0),
                           resolutions=[16, 32])
    assert rep.body["equality"]
    assert rep.body["margin"] <= rep.body["tol_report"]


@pytest.mark.parametrize("theorem, warping", [("t13", "cosh"), ("t12", "product")])
def test_a_quarter_turn_leaves_a_graph_check_unchanged(theorem, warping):
    # Y2,-1 is Y2,1 turned a quarter turn about the axis, an ambient isometry
    # that maps the 16/32/64 grids to themselves: both checks, on the sparse
    # path, agree rung by rung to round-off ("order", a quotient of
    # differences, amplifies the round-off and is not compared)
    specs = [ss.graph_over_slice(warping, 0.3, p, 0.05) for p in ("Y2,1", "Y2,-1")]
    assert not any(ss.build(spec).revolution for spec in specs)
    a, b = (ss.check_theorem(theorem, spec, [16, 32, 64]).body for spec in specs)
    for x, y in zip(a["results"], b["results"]):
        assert abs(x["lambda2"] - y["lambda2"]) <= 1e-12
        assert abs(x["bound"] - y["bound"]) <= 1e-12
    assert abs(a["lambda2_extrapolated"] - b["lambda2_extrapolated"]) <= 1e-12


@pytest.mark.parametrize("perturbation, lo, hi", [
    ("Y2,1", 0.95, 1.15), ("Y3,1", 1.95, 2.05), ("Y4,-4", 1.95, 2.05),
])
def test_the_t13_margin_follows_the_selection_rule_in_the_amplitude(perturbation, lo, hi):
    # At amplitude 0, lambda2 is the band-1 slice eigenvalue (multiplicity
    # 3).  By the Wigner-Eckart theorem a Y_l,m graph moves it at first
    # order only for l = 2 (Y1 x Y1 holds l in {0, 2}), so the margin is
    # first order in the amplitude for l = 2 and second order for l >= 3.
    # The order log2(m(2 eps) / m(eps)) on 16/32/64 measured 1.03 and 1.06
    # (Y2,1) and 1.994-1.998 (Y3,1, Y4,-4).
    margins = [ss.check_theorem("t13", ss.graph_over_slice("cosh", 0.3, perturbation, eps),
                                [16, 32, 64]).body["margin"] for eps in (0.005, 0.01, 0.02)]
    for small, large in zip(margins, margins[1:]):
        assert lo <= math.log2(large / small) <= hi


# ------------------------------------------------------- convergence studies


def test_convergence_study_against_the_closed_form():
    st = ss.convergence_study(ss.flat_torus(0.6),
                              resolutions=[12, 24, 48])
    assert st.body["oracle"] == pytest.approx(-1 / 0.36, rel=1e-12)
    assert st.body["lambda2_extrapolated"] == pytest.approx(st.body["oracle"],
                                                            abs=2e-4)
    orders = [row.get("order") for row in st.body["rows"] if row.get("order")]
    assert st.body["rows"][-1]["order"] == pytest.approx(2.0, abs=0.2)
    assert len(st.body["rows"]) == 3


def test_convergence_study_without_an_oracle():
    st = ss.convergence_study(ss.perturbed_torus(0.7, 0.05, 3),
                              resolutions=FAST)
    assert st.body["oracle"] is None
    assert st.body["lambda2_extrapolated"] < -2.0


@pytest.mark.parametrize("degenerate, plain", [
    (ss.perturbed_torus(0.7, 0.0, 3), ss.flat_torus(0.7)),
    (ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.0), ss.slice_shape("cosh", 0.3)),
], ids=["unperturbed-torus", "flat-graph"])
def test_degenerate_members_give_their_surface_of_revolution_rows(degenerate, plain):
    # eps = 0 and amplitude 0 leave the flat torus and the slice, and the
    # catalog marks them as surfaces of revolution too: the same rows exactly
    res = [16, 32, 64]
    a, b = (ss.convergence_study(spec, res).body for spec in (degenerate, plain))
    assert a["rows"] == b["rows"]
    assert a["lambda2_extrapolated"] == b["lambda2_extrapolated"]


def test_convergence_study_needs_two_resolutions():
    with pytest.raises((ConfigError, ValueError, HypothesisError)):
        ss.convergence_study(ss.clifford_torus(), resolutions=[12])


# -------------------------------------------------------------------- sweeps


def test_flat_torus_sweep_marks_equality_only_at_the_square_torus():
    reps = ss.sweep_flat_torus([0.6, 1 / math.sqrt(2)], FAST)
    assert [r.body["equality"] for r in reps] == [False, True]
    assert all(r.verdict for r in reps)
    assert reps[0].body["extra"]["oracle_lambda2"] == pytest.approx(
        -1 / 0.36, rel=1e-12)


def test_amplitude_sweep_uses_the_slice_at_zero():
    reps = ss.sweep_graph_amplitude("cosh", 0.3, "Y2,0", [0.0, 0.05], FAST)
    assert reps[0].body["equality"]
    assert not reps[1].body["equality"]
    margins = [r.body["margin"] for r in reps]
    assert margins[0] < margins[1]


def test_balance_bound_scenario_summary():
    out = ss.balance_bound_scenario(ss.clifford_torus((24, 24)),
                                    resolution=24).body
    for key in ("lambda1", "lambda2", "bound", "gap", "balance_residual",
                "param_norm", "param"):
        assert key in out
    assert out["balance_residual"] <= 1e-9
    assert out["bound"] >= out["lambda2"] - 1e-8
    assert out["gap"] <= 1e-3


def test_slice_spectrum_report_contents():
    rep = ss.slice_spectrum_report("cosh", 0.0, count=6).body
    assert rep["slice_lambda2"] == pytest.approx(4.0, rel=1e-12)
    np.testing.assert_allclose(rep["eigenvalues"], [2, 4, 4, 4, 8, 8],
                               atol=1e-12)
    assert rep["condition_value"] > 0


# ------------------------------------------------------ one build per solve


@pytest.fixture
def build_log(monkeypatch):
    """Resolutions passed to catalog.build, in call order."""
    log = []
    real = ss.catalog.build

    def logged(spec):
        log.append(spec.resolution)
        return real(spec)

    monkeypatch.setattr(ss.catalog, "build", logged)
    return log


@pytest.mark.parametrize("run, members", [
    (lambda: ss.check_theorem("t11", ss.flat_torus(0.6), FAST), 1),
    (lambda: ss.check_theorem(
        "t13", ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05), FAST), 1),
    (lambda: ss.check_theorem(
        "esi", ss.graph_over_slice("cosh", 0.3, "Y2,0", 0.05), FAST), 1),
    (lambda: ss.sweep_flat_torus([0.6, 0.65], FAST), 2),
    (lambda: ss.sweep_graph_amplitude("cosh", 0.3, "Y2,0", [0.0, 0.05], FAST), 2),
], ids=["t11", "t13", "esi", "sweep-flat-torus", "sweep-graph-amplitude"])
def test_each_resolution_is_built_once(build_log, run, members):
    # the hypothesis is tested on the first resolution's surface, not on a
    # separate probe at the spec's default resolution
    run()
    assert build_log == [(n, n) for n in FAST] * members


def test_failed_hypothesis_stops_before_any_solve(tmp_path, monkeypatch,
                                                  build_log):
    solves = []
    real = harness.smallest_eigenpairs

    def logged(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "smallest_eigenpairs", logged)
    code = cli_main(["check", "t13", "shape=slice", "warping=sphere", "t0=1.0",
                     "resolutions=12,24", "--out", str(tmp_path / "r")])
    assert code == 2
    assert solves == []
    assert build_log == [(12, 12)]


@pytest.mark.parametrize("ladder", [[32, 16], [16, 16], [16, 16, 32]],
                         ids=lambda ladder: ",".join(map(str, ladder)))
@pytest.mark.parametrize("run", [
    lambda ladder: ss.check_theorem("t11", ss.flat_torus(0.6), ladder),
    lambda ladder: ss.convergence_study(ss.geodesic_sphere(1.0), ladder),
    lambda ladder: ss.sweep_graph_amplitude("cosh", 0.3, "Y2,1", [0.05], ladder),
], ids=["check", "converge", "sweep-member"])
def test_a_bad_ladder_is_refused_before_anything_is_built(build_log, run, ladder):
    # a rung no finer than the one before gives no Richardson error estimate
    with pytest.raises(DomainError, match="^resolutions must be strictly increasing$") as err:
        run(ladder)
    assert err.value.exit_code == 2
    assert build_log == []


@pytest.mark.parametrize("command, message, built", [
    (["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=32,16"],
     "resolutions must be strictly increasing", []),
    (["converge", "shape=geodesic-sphere", "rho=1.0", "resolutions=16,16,32"],
     "resolutions must be strictly increasing", []),
    (["sweep", "graph-amplitude", "warping=cosh", "t0=0.3", "perturbation=Y2,1",
      "amplitudes=0.05", "resolutions=16,16"], "resolutions must be strictly increasing", []),
    # the coarsest rung is built first, and its grid refuses it
    (["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=4,8"],
     "torus grid needs at least 8 nodes per direction", [(4, 4)]),
], ids=["check", "converge", "sweep", "floor"])
def test_cli_refuses_a_bad_ladder_before_any_solve(tmp_path, capsys, build_log,
                                                   command, message, built):
    assert cli_main([*command, "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert build_log == built
    assert not (tmp_path / "r").exists()


# ----------------------------------------------------------------- reporting


def test_report_json_file_rounds_to_twelve_digits(tmp_path):
    rep = ss.check_theorem("t12", ss.slice_shape("product", 0.0),
                           resolutions=FAST)
    path = tmp_path / "report.json"
    ss.write_json_report(rep.body, path)
    data = json.loads(path.read_text())
    assert data["theorem_id"] == "T12"
    for row in data["results"]:
        for key in ("lambda1", "lambda2"):
            val = row[key]
            assert val == float(f"{val:.12g}")


def test_csv_summary_format(tmp_path):
    reps = ss.sweep_flat_torus([0.6], FAST)
    path = tmp_path / "summary.csv"
    ss.write_csv_summary([r for rep in reps for r in rep.rows], path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "resolution", "lambda1", "lambda2",
                       "bound", "margin", "order"]
    assert len(rows) == 1 + len(FAST)
    assert rows[1][1] == "12x12"
    lam2 = float(rows[2][3])
    assert lam2 == pytest.approx(-2.77, abs=0.05)
    for cell in rows[1][2:6]:
        assert cell == "" or len(cell.lstrip("-").replace(".", "").
                                 replace("e", "").replace("+", "")) <= 14


# --------------------------------------------------------------- config text


def test_parse_kv_text_rules():
    cfg = cfgmod.parse_kv_text(
        "# comment\nshape = flat-torus\nr=0.6  # inline\n\nseed=3\nr=0.65\n")
    assert cfg == {"shape": "flat-torus", "r": "0.65", "seed": "3"}
    with pytest.raises(ConfigError):
        cfgmod.parse_kv_text("just words\n")
    with pytest.raises(ConfigError):
        cfgmod.parse_kv_text("key=\n")
    with pytest.raises(ConfigError):  # misspelled key
        cfgmod.parse_kv_text("shape=flat-torus\nradius=0.6\n")


def test_typed_getters():
    cfg = {"x": "1.5", "n": "4", "xs": "1,2,3"}
    assert cfgmod.get(cfg, "x", float) == 1.5
    assert cfgmod.get(cfg, "n", int) == 4
    assert cfgmod.get(cfg, "xs", cfgmod.floats) == [1.0, 2.0, 3.0]
    assert cfgmod.get(cfg, "missing", float, 2.5) == 2.5
    with pytest.raises(ConfigError):
        cfgmod.get({"x": "abc"}, "x", float)
    with pytest.raises(ConfigError):
        cfgmod.get({}, "x", float)


def test_shape_from_config_kinds():
    spec = cfgmod.shape_from_config(
        {"shape": "graph-over-slice", "warping": "cosh", "amplitude": "0.05"})
    assert spec.kind == "graph-over-slice"
    assert spec.params["perturbation"] == "Y2,0"  # default mode label
    # the constructor's default resolution stands: each rung sets its own
    assert cfgmod.shape_from_config({"shape": "flat-torus", "r": "0.6"}) == ss.flat_torus(0.6)
    with pytest.raises(ConfigError, match=", ".join(cfgmod.SHAPES)):
        cfgmod.shape_from_config({"shape": "dodecahedron"})


def test_warping_from_config():
    w = cfgmod.warping_from_config({"warping": "cosh"})
    assert w.name == "cosh"
    poly = cfgmod.warping_from_config(
        {"warping_poly": "1,0,0.5", "warping_interval": "-1,1"})
    assert poly.h(0.5) == pytest.approx(1.125)
    # the warping module's own message, under one prefix
    for bad, match in (
            ({"warping": "nope"}, "^bad warping: unknown warping 'nope'; known: product"),
            ({"warping_poly": "1,0,0.5", "warping_interval": "1,-1"},
             r"^bad warping: interval must be a finite non-empty range, got \(1.0, -1.0\)$"),
            ({"warping_poly": "-1", "warping_interval": "-1,1"},
             r"^bad warping: profile 'poly\[-1\]' is not positive on"),
            ({"warping": "sphere", "warping_interval": "-1,1"},
             "^bad warping: profile 'sphere' is not positive on")):
        with pytest.raises(ConfigError, match=match):
            cfgmod.warping_from_config(bad)


@pytest.mark.parametrize("name, entries", [
    ("polynomial_warping", {"warping_poly": "1,0,0.5", "warping_interval": "-1,1"}),
    ("builtin_warping", {"warping": "cosh"}),
])
def test_an_internal_fault_in_a_warping_constructor_propagates(monkeypatch, name, entries):
    # only a DomainError is the user's invalid value; anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("internal fault")

    monkeypatch.setattr(cfgmod.wp, name, broken)
    with pytest.raises(TypeError, match="internal fault"):
        cfgmod.warping_from_config(entries)


def test_resolution_list_parsing():
    # the CLI parses the list; the ladder checks its shape, and the grid its
    # floor (`test_a_bad_ladder_is_refused_before_anything_is_built`)
    assert cfgmod.get({"resolutions": "12,24"}, "resolutions", cfgmod.ints, [48]) == [12, 24]
    assert cfgmod.get({}, "resolutions", cfgmod.ints, [48]) == [48]
    with pytest.raises(ConfigError):
        cfgmod.get({"resolutions": ","}, "resolutions", cfgmod.ints, [48])


# ------------------------------------------------------------------ CLI shell


def test_cli_check_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    code = cli_main(["check", "t12", "shape=slice", "warping=product", "t0=0.0",
                     "resolutions=12,24", "--out", str(out)])
    assert code == 0
    jsons = list(out.glob("*.json"))
    assert len(jsons) == 1
    data = json.loads(jsons[0].read_text())
    assert data["passed"] is True
    summary = out / "summary.csv"
    assert summary.exists()
    text = capsys.readouterr().out
    assert "PASS" in text


def test_cli_reports_hypothesis_violation_as_exit_two(tmp_path):
    code = cli_main(["check", "t13", "shape=slice", "warping=sphere", "t0=1.0",
                     "resolutions=12,24", "--out", str(tmp_path / "r")])
    assert code == 2


def test_cli_refused_run_removes_exactly_the_directories_it_made(tmp_path):
    # the genus hypothesis refuses a sphere after --out was made
    refused = ["check", "t11", "shape=geodesic-sphere", "rho=1.0", "resolutions=8,12"]
    assert cli_main([*refused, "--out", str(tmp_path / "r" / "s" / "t")]) == 2
    assert not (tmp_path / "r").exists()
    assert tmp_path.is_dir()
    (tmp_path / "p").mkdir()
    assert cli_main([*refused, "--out", str(tmp_path / "p" / "q" / "")]) == 2
    assert (tmp_path / "p").is_dir() and not (tmp_path / "p" / "q").exists()


def test_cli_refuses_a_grid_below_the_floor(tmp_path, capsys):
    # balance-bound reads one `resolution`, which only the grid checks
    assert cli_main(["balance-bound", "shape=geodesic-sphere", "rho=1.0", "resolution=4",
                     "--out", str(tmp_path / "r")]) == 2
    assert "sphere grid needs at least 8 nodes per direction" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_cli_rejects_bad_overrides(tmp_path, build_log):
    assert cli_main(["check", "t11", "shape=clifford-torus", "resolutions",
                     "--out", str(tmp_path / "r")]) == 2
    assert cli_main(["check", "t11", "shape=dodecahedron",
                     "--out", str(tmp_path / "r")]) == 2
    # a misspelled key would otherwise leave the default Y2,0 in place
    assert cli_main(["check", "t13", "shape=graph-over-slice", "warping=cosh", "t0=0.3",
                     "amplitude=0.05", "perturbaton=Y3,1", "resolutions=16",
                     "--out", str(tmp_path / "r")]) == 2
    # the balancing tolerance is a constant, not a key
    assert cli_main(["balance-bound", "shape=clifford-torus", "resolution=16", "tol=1e-9",
                     "--out", str(tmp_path / "r")]) == 2
    # one rung gives no error estimate, so no verdict
    assert cli_main(["check", "t13", "shape=slice", "warping=cosh", "t0=0.3",
                     "resolutions=24", "--out", str(tmp_path / "r")]) == 2
    # an empty sweep would pass vacuously
    assert cli_main(["sweep", "flat-torus", "rs=,", "resolutions=8,12",
                     "--out", str(tmp_path / "r")]) == 2
    # the amplitude-0 member is a slice, yet the perturbation is still checked
    assert cli_main(["sweep", "graph-amplitude", "warping=cosh", "t0=0.3",
                     "perturbation=bogus", "amplitudes=0", "resolutions=8,12",
                     "--out", str(tmp_path / "r")]) == 2
    # every radius is checked before the first member is solved
    assert cli_main(["sweep", "flat-torus", "rs=0.6,1.5", "resolutions=8,12",
                     "--out", str(tmp_path / "r")]) == 2
    # a negative seed, whether or not the eigen path draws from it
    for shape in (["t11", "shape=flat-torus", "r=0.6"],
                  ["t13", "shape=graph-over-slice", "warping=cosh", "t0=0.3",
                   "perturbation=Y2,1", "amplitude=0.05"]):
        assert cli_main(["check", *shape, "resolutions=8,12", "seed=-1",
                         "--out", str(tmp_path / "r")]) == 2
    assert build_log == []
    assert not (tmp_path / "r").exists()


def test_cli_refuses_an_override_the_subcommand_does_not_read(tmp_path, build_log):
    # `resolution` belongs to balance-bound; check reads `resolutions`
    assert cli_main(["check", "t11", "shape=flat-torus", "r=0.6", "resolution=16",
                     "--out", str(tmp_path / "r")]) == 2
    assert cli_main(["check", "t11", "shape=clifford-torus", "r=0.6", "resolutions=12",
                     "--out", str(tmp_path / "r")]) == 2
    assert cli_main(["slice-spectrum", "warping=cosh", "t0=0.3", "seed=1",
                     "--out", str(tmp_path / "r")]) == 2
    assert build_log == []
    assert not (tmp_path / "r").exists()


def test_cli_names_the_warping_poly_conflict(tmp_path, capsys):
    # every warped subcommand reads `warping`, unless `warping_poly` overrides it
    poly = ["warping_poly=1,0,0.5", "warping_interval=-1,1"]
    for command in (["slice-spectrum"], ["sweep", "graph-amplitude", "amplitudes=0",
                                         "resolutions=8,12"]):
        assert cli_main([*command, "warping=cosh", *poly,
                         "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "warping_poly overrides warping" in err and "does not read" not in err
    assert not (tmp_path / "r").exists()
    # a configuration file's `warping` is overridden silently
    cfg = tmp_path / "cosh.cfg"
    cfg.write_text("warping=cosh\nt0=0.3\n")
    assert cli_main(["slice-spectrum", "--config", str(cfg), *poly,
                     "--out", str(tmp_path / "r")]) == 0
    assert json.loads(next((tmp_path / "r").glob("*.json")).read_text())["warping"] \
        == "poly[1,0,0.5]"


def test_cli_config_file_may_hold_keys_of_other_subcommands(tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("shape=flat-torus\nr=0.6\namplitudes=0,0.05\nresolution=16\n")
    assert cli_main(["check", "t11", "--config", str(cfg), "resolutions=12,24",
                     "--out", str(tmp_path / "r")]) == 0


def test_cli_overrides_may_follow_the_config_option(tmp_path):
    cfg = tmp_path / "torus.cfg"
    cfg.write_text("shape=flat-torus\nr=0.6\nresolutions=12,24\n")
    out = tmp_path / "r"
    code = cli_main(["check", "t11", "--config", str(cfg), "r=0.7071067811865476",
                     "--out", str(out)])
    assert code == 0
    data = json.loads(next(out.glob("*.json")).read_text())
    assert data["equality"] is True  # the override reached the shape


def test_cli_rejects_stray_tokens_after_the_config_option(tmp_path):
    cfg = tmp_path / "torus.cfg"
    cfg.write_text("shape=flat-torus\nr=0.6\nresolutions=12,24\n")
    for stray in ("r0.7", "--radius=0.7"):
        with pytest.raises(SystemExit) as err:
            cli_main(["check", "t11", "--config", str(cfg), stray,
                      "--out", str(tmp_path / "r")])
        assert err.value.code == 2


def test_cli_converge_emits_order_column(tmp_path):
    out = tmp_path / "conv"
    code = cli_main(["converge", "shape=flat-torus", "r=0.6",
                     "resolutions=12,24,48", "--out", str(out)])
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[-1][6] != ""
    assert float(rows[-1][6]) == pytest.approx(2.0, abs=0.3)


def test_cli_balance_bound(tmp_path):
    out = tmp_path / "bal"
    code = cli_main(["balance-bound", "shape=clifford-torus", "resolution=24",
                     "--out", str(out)])
    assert code == 0
    data = json.loads(next(out.glob("*.json")).read_text())
    assert data["gap"] <= 1e-3


def test_cli_slice_spectrum(tmp_path, capsys):
    code = cli_main(["slice-spectrum", "warping=cosh", "t0=0.0", "count=4",
                     "--out", str(tmp_path / "s")])
    assert code == 0
    text = capsys.readouterr().out
    assert "2" in text and "4" in text


def test_cli_sweep_flat_torus(tmp_path):
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "flat-torus", "rs=0.6,0.7071067811865476",
                     "resolutions=12,24", "--out", str(out)])
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # header + 2 radii x 2 resolutions


def test_cli_runs_without_sympy(tmp_path):
    # sympy is a test-only dependency: a fresh interpreter running a check
    # must never import it
    script = (
        "import sys\n"
        "import stabspec.cli as cli\n"
        "code = cli.main(['check', 't11', 'shape=clifford-torus', "
        f"'resolutions=8,16', '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = str(pathlib.Path(ss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_cli_maps_nonconvergence_to_exit_three(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NonConvergenceError("no convergence")

    monkeypatch.setattr(harness, "check_theorem", boom)
    code = cli_main(["check", "t11", "shape=clifford-torus", "resolutions=12,24",
                     "--out", str(tmp_path / "r")])
    assert code == 3


def test_cli_rejects_warped_balance_bound_before_any_solve(tmp_path, monkeypatch,
                                                           build_log):
    solves = []
    monkeypatch.setattr(harness, "smallest_eigenpairs",
                        lambda *args, **kwargs: solves.append(args))
    code = cli_main(["balance-bound", "shape=slice", "warping=cosh", "t0=0.0",
                     "resolution=16", "--out", str(tmp_path / "r")])
    assert code == 2
    assert solves == []
    assert build_log == [(16, 16)]


@pytest.mark.parametrize("members", [
    ["flat-torus", "rs=0.6,0.6000001"],
    ["graph-amplitude", "warping=cosh", "t0=0.3", "amplitudes=0,0"],
], ids=["radii", "amplitudes"])
def test_cli_refuses_sweep_members_that_share_a_name(tmp_path, monkeypatch, build_log,
                                                     members):
    # both members would write one report file, and the first would be lost
    solves = []
    monkeypatch.setattr(harness, "smallest_eigenpairs",
                        lambda *args, **kwargs: solves.append(args))
    (tmp_path / "r").mkdir()
    code = cli_main(["sweep", *members, "resolutions=8,16", "--out", str(tmp_path / "r")])
    assert code == 2
    assert solves == [] and build_log == []
    assert (tmp_path / "r").is_dir()  # a directory that was there stays


@pytest.mark.parametrize("out", ["file", "file/r"], ids=["a-file", "under-a-file"])
def test_cli_refuses_an_unusable_out_before_any_solve(tmp_path, monkeypatch, build_log,
                                                      capsys, out):
    (tmp_path / "file").write_text("")
    solves = []
    monkeypatch.setattr(harness, "smallest_eigenpairs",
                        lambda *args, **kwargs: solves.append(args))
    code = cli_main(["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=8,16",
                     "--out", str(tmp_path / out)])
    assert code == 2
    assert solves == [] and build_log == []
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_cli_maps_an_allocation_failure_to_exit_three(tmp_path, monkeypatch, capsys):
    # a stand-in for a grid too fine for the machine; a real oversized
    # allocation could be granted and exhaust the memory it probes
    def greedy(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array")

    monkeypatch.setattr(harness, "smallest_eigenpairs", greedy)
    code = cli_main(["check", "t11", "shape=clifford-torus", "resolutions=8,16",
                     "--out", str(tmp_path / "r")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: out of memory: Unable to allocate 7.45 TiB for an array"]
    assert not (tmp_path / "r").exists()  # the fresh report directory is gone


@pytest.mark.parametrize("argv", [
    ["check", "t13", "shape=graph-over-slice", "amplitude=nan"],
    ["check", "t13", "shape=graph-over-slice", "amplitude=inf"],
    ["sweep", "graph-amplitude", "amplitudes=0,nan"],
    ["sweep", "graph-amplitude", "amplitudes=-inf"],
], ids=["check-nan", "check-inf", "sweep-nan", "sweep-neg-inf"])
def test_cli_refuses_a_non_finite_amplitude_before_any_build(tmp_path, build_log, capsys,
                                                             argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main([*argv, "warping=cosh", "t0=0.3", "resolutions=8,16",
                         "--out", str(tmp_path / "r")])
    assert code == 2
    assert "amplitude must be finite" in capsys.readouterr().err
    assert build_log == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv, rungs", [
    (["check", "t11", "shape=clifford-torus", "resolutions=8,16"], 2),
    (["check", "t13", "shape=graph-over-slice", "warping=cosh", "t0=0.3",
      "amplitude=0.05", "resolutions=8,16"], 2),
    (["converge", "shape=clifford-torus", "resolutions=8,16,32"], 3),
    (["balance-bound", "shape=geodesic-sphere", "rho=1.0", "resolution=24"], 1),
], ids=["check-t11", "check-t13", "converge", "balance-bound"])
def test_each_rung_computes_its_geometry_once(tmp_path, monkeypatch, argv, rungs):
    # the hypothesis reads the first rung's fields, so no check computes a
    # rung's geometry twice; only the first call asks for the Gauss curvature
    log = []
    real = surfaces.compute_geometry

    def logged(surface, want_gauss=True):
        log.append(want_gauss)
        return real(surface, want_gauss)

    monkeypatch.setattr(harness, "compute_geometry", logged)
    assert cli_main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert log == [True] + [False] * (rungs - 1)


_GRAPH = ["shape=graph-over-slice", "warping=cosh", "t0=0.3", "amplitude=0.05"]


@pytest.mark.parametrize("argv, grids", [
    (["check", "t11", "shape=clifford-torus", "resolutions=8,16"], [(8, 2), (16, 2)]),
    (["check", "t13", "shape=slice", "warping=cosh", "t0=0.3", "resolutions=8,12"],
     [(8, 2), (12, 2)]),
    (["check", "t13", *_GRAPH, "perturbation=Y2,0", "resolutions=8,12"], [(8, 2), (12, 2)]),
    (["check", "t13", *_GRAPH, "perturbation=Y2,1", "resolutions=8,12"], [(8, 8), (12, 12)]),
    (["converge", "shape=geodesic-sphere", "rho=1.0", "resolutions=8,12"], [(8, 2), (12, 2)]),
    (["converge", "shape=flat-torus", "r=0.6", "resolutions=8,12"], [(8, 2), (12, 2)]),
    (["balance-bound", "shape=geodesic-sphere", "rho=1.0", "resolution=16"],
     [(16, 2), (16, 16)]),
], ids=["t11-clifford", "t13-slice", "t13-zonal-graph", "t13-graph", "converge-sphere",
        "converge-flat-torus", "balance-bound"])
def test_each_surface_evaluates_its_chart_once(tmp_path, monkeypatch, argv, grids):
    # one evaluation per rung's surface, on the meridian and the next v
    # column for a surface of revolution; balancing alone reads one on its
    # full grid as well
    log = []
    real = JetChart.evaluate

    def logged(chart, grid):
        log.append((chart, grid.nu, grid.nv))
        return real(chart, grid)

    monkeypatch.setattr(JetChart, "evaluate", logged)
    assert cli_main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert [(nu, nv) for _, nu, nv in log] == grids
    charts = [chart for chart, _, _ in log]
    assert len({id(c) for c in charts}) == (1 if argv[0] == "balance-bound" else len(log))


def test_a_rung_holds_only_what_its_later_stages_read(monkeypatch):
    # the chart's bundle dies with the geometry pass, the t13 hypothesis
    # included, and the symmetry blocks that live through every factor hold
    # buffers of their own size and no N-node array
    calls, arrays = [], []  # weak references to each array and the buffer under it
    real = JetChart.evaluate

    def logged(chart, grid):
        bundle = real(chart, grid)
        calls.append(grid)
        for a in bundle.values():
            while a is not None:
                arrays.append(weakref.ref(a))
                a = a.base
        return bundle

    monkeypatch.setattr(JetChart, "evaluate", logged)
    s = ss.build(ss.graph_over_slice("cosh", 0.3, "Y2,1", 0.05, (32, 32)))
    fields = ss.compute_geometry(s)
    harness._CHECKS["t13"][1](s, fields)
    gc.collect()
    assert len(calls) == 1 and all(ref() is None for ref in arrays)
    n = s.node_count
    blocks, orbits = eigen._fold(ss.assemble(s, fields))
    assert len(blocks) == 4
    for b, *arrays in blocks:
        for a in (b.data, b.indices):
            assert a.base is None and a.size == b.nnz
        assert max(b.shape[0], b.indptr.size, *(a.size for a in arrays)) < n
    assert [(a.size, a.dtype) for a in orbits] == [(n, np.int32), (n, np.int8), (n, np.int8)]


def test_every_error_class_has_an_exit_code():
    def family(cls):
        return [cls] + [c for sub in cls.__subclasses__() for c in family(sub)]

    codes = {cls.__name__: cls.exit_code for cls in family(StabspecError)}
    assert len(codes) == 9
    assert set(codes.values()) == {2, 3}
    assert {name for name, code in codes.items() if code == 3} == {
        "DegenerateChartError", "AssemblyError", "NonConvergenceError",
        "MeshTooCoarseError"}


def test_cli_maps_failed_checks_to_exit_four(tmp_path, monkeypatch):
    real = harness.check_theorem

    def pessimist(*args, **kwargs):
        rep = real(*args, **kwargs)
        import dataclasses
        return dataclasses.replace(rep, verdict=False)

    monkeypatch.setattr(harness, "check_theorem", pessimist)
    code = cli_main(["check", "t11", "shape=clifford-torus", "resolutions=12,24",
                     "--out", str(tmp_path / "r")])
    assert code == 4


def _json_rows(rep: dict) -> list[dict]:
    """summary.csv rows as they follow from one JSON report."""
    def row(resolution, lam1, lam2, bound, order=None):
        margin = None if bound is None else bound - lam2
        return {"resolution": resolution, "lambda1": lam1, "lambda2": lam2,
                "bound": bound, "margin": margin, "order": order}

    if "results" in rep:  # theorem check or sweep member
        orders = [None] * len(rep["results"])
        orders[-1] = rep["order"]
        return [row("{}x{}".format(*r["resolution"]), r["lambda1"], r["lambda2"],
                    r["bound"], o) for r, o in zip(rep["results"], orders)]
    if "rows" in rep:  # refinement study
        return [row(r["resolution"], r["lambda1"], r["lambda2"], rep["oracle"],
                    r["order"]) for r in rep["rows"]]
    if "gap" in rep:  # balanced bound
        return [row(rep["resolution"], rep["lambda1"], rep["lambda2"], rep["bound"])]
    ev = rep["eigenvalues"]  # slice spectrum
    return [row("exact", ev[0], ev[1], rep["slice_lambda2"])]


@pytest.mark.parametrize("argv", [
    ["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=8,12,18"],
    ["sweep", "graph-amplitude", "warping=cosh", "t0=0.3",
     "amplitudes=0,0.05", "resolutions=12,24"],
    ["converge", "shape=flat-torus", "r=0.6", "resolutions=8,12,18"],
    ["balance-bound", "shape=clifford-torus", "resolution=24"],
    ["slice-spectrum", "warping=cosh", "t0=0.3", "count=6"],
], ids=lambda argv: argv[0])
def test_summary_rows_match_the_json_reports(tmp_path, argv):
    out = tmp_path / "r"
    assert cli_main(argv + ["--out", str(out)]) == 0
    reports = {}
    for path in sorted(out.glob("*.json")):
        rep = json.loads(path.read_text())
        reports[rep["scenario"]] = rep
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({r["scenario"] for r in rows}) == sorted(reports)
    for scenario, rep in reports.items():
        got = [r for r in rows if r["scenario"] == scenario]
        want = _json_rows(rep)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g["resolution"] == w["resolution"]
            for col in ("lambda1", "lambda2", "bound", "order"):
                assert (float(g[col]) if g[col] else None) == w[col], col
            # the CSV margin comes from unrounded values, the JSON one from
            # two values rounded to 12 digits
            scale = max(1.0, abs(w["bound"] or 0.0), abs(w["lambda2"]))
            if w["margin"] is None:
                assert g["margin"] == ""
            else:
                assert float(g["margin"]) == pytest.approx(w["margin"],
                                                           rel=0, abs=1e-11 * scale)
