"""Tests of the benchmark's own closed forms, checks and inputs.

    python3 -m pytest bench/test_bench.py -q

Every check must accept a real report of the package and reject the same
report with one value made wrong.
"""

from __future__ import annotations

import copy
import csv
import glob
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spec
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# closed forms reproduce the acceptance values


def test_clifford_torus_spectrum():
    vals = checks.flat_torus_spectrum(1 / math.sqrt(2), 6)
    assert vals[0] == pytest.approx(-4.0, abs=1e-12)
    assert vals[1:5] == pytest.approx([-2.0] * 4, abs=1e-12)
    assert vals[5] > -2.0 + 1e-6


@pytest.mark.parametrize("warping,t0,lam2", [("cosh", 0.0, 4.0), ("product", 0.7, 2.0)])
def test_slice_second_eigenvalue(warping, t0, lam2):
    assert checks.slice_band(warping, t0, 1) == pytest.approx(lam2, abs=1e-12)
    assert checks.slice_spectrum(warping, t0, 4)[1:] == pytest.approx([lam2] * 3, abs=1e-12)


def test_equatorial_sphere():
    assert checks.sphere_band(math.pi / 2, 1) == pytest.approx(0.0, abs=1e-12)
    assert checks.balanced_param_norm(math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_geodesic_sphere_matches_sphere_warped_slice():
    # a slice at t0 of the sphere warping is the geodesic sphere of radius t0
    for k in range(4):
        assert checks.sphere_band(1.1, k) == pytest.approx(checks.slice_band("sphere", 1.1, k))


# ----------------------------------------------------------------------
# each check accepts real output and rejects one wrong value


def _run(tmp_path, argv):
    from stabspec.cli import main

    out = tmp_path / "_".join(argv[:2])
    assert main(argv + ["--out", str(out)]) == 0
    reps = [json.loads(Path(p).read_text()) for p in sorted(glob.glob(f"{out}/*.json"))]
    with open(out / "summary.csv", newline="") as fh:
        return reps, list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    # the refine ladder, where the report tolerance is below 1e-3
    tmp = tmp_path_factory.mktemp("reports")
    return {
        "t11": _run(tmp, ["check", "t11", "shape=flat-torus", "r=0.6",
                          workloads.res_arg(workloads.REFINE)]),
        "t13": _run(tmp, ["check", "t13", "shape=slice", "warping=cosh", "t0=0.3",
                          "resolutions=16,32,64"]),
        "converge": _run(tmp, ["converge", "shape=geodesic-sphere", "rho=1.2",
                               workloads.res_arg(workloads.REFINE)]),
        "slice": _run(tmp, ["slice-spectrum", "warping=cosh", "t0=0.3", "count=8"]),
    }


T11 = {"lambda2": checks.flat_torus_spectrum(0.6, 2)[1], "bound": -2.0, "order": True}
T13 = {"lambda2": checks.slice_band("cosh", 0.3, 1), "bound": checks.slice_band("cosh", 0.3, 1),
       "equality": True, "order": True}


def test_theorem_check_accepts_and_rejects(reports):
    rep = reports["t11"][0][0]
    assert checks.check_theorem(rep, T11) == []
    off = copy.deepcopy(rep)
    off["lambda2_extrapolated"] += 1e-3
    off["margin"] -= 1e-3
    assert checks.check_theorem(off, T11)
    swapped = copy.deepcopy(rep)
    swapped["passed"] = not rep["passed"]
    assert checks.check_theorem(swapped, T11)
    assert checks.check_theorem(rep, {**T11, "lambda2": T11["lambda2"] + 1e-3})


def test_slice_check_needs_equality(reports):
    rep = reports["t13"][0][0]
    assert checks.check_theorem(rep, T13) == []
    swapped = copy.deepcopy(rep)
    swapped["equality"] = not rep["equality"]
    assert checks.check_theorem(swapped, T13)


def test_order_check(reports):
    rep = copy.deepcopy(reports["t11"][0][0])
    rep["order"] = 1.7
    assert checks.check_theorem(rep, T11)


def test_converge_check(reports):
    rep = reports["converge"][0][0]
    expect = {"lambda2": checks.sphere_band(1.2, 1), "order": True}
    assert checks.check_converge(rep, expect) == []
    off = copy.deepcopy(rep)
    off["lambda2_extrapolated"] += 1e-3
    assert checks.check_converge(off, expect)


def test_slice_spectrum_check(reports):
    rep = reports["slice"][0][0]
    expect = {"eigenvalues": checks.slice_spectrum("cosh", 0.3, 8),
              "lambda2": checks.slice_band("cosh", 0.3, 1)}
    assert checks.check_slice_spectrum(rep, expect) == []
    off = copy.deepcopy(rep)
    off["eigenvalues"][3] += 1e-3
    assert checks.check_slice_spectrum(off, expect)


def test_balance_check():
    # a balance-bound op takes about 20 s, so its report is written out here
    rho = 1.0
    lam2 = -0.00403087819772
    rep = {"scenario": "balance", "lambda2": lam2, "bound": lam2 + 7e-15, "gap": 7e-15,
           "balance_residual": 2.9e-10, "param_norm": checks.balanced_param_norm(rho) + 1e-10}
    expect = {"param_norm": checks.balanced_param_norm(rho), "tol": 1e-9}
    assert checks.check_balance(rep, expect) == []
    assert checks.check_balance({**rep, "param_norm": rep["param_norm"] + 1e-3}, expect)
    assert checks.check_balance({**rep, "bound": lam2 - 1e-6, "gap": -1e-6}, expect)
    assert checks.check_balance({**rep, "balance_residual": 2e-9}, expect)


@pytest.mark.parametrize("name", ["t11", "t13", "converge", "slice"])
def test_csv_agrees_with_json(reports, name):
    reps, rows = reports[name]
    assert checks.check_csv(reps, rows) == []
    bad = copy.deepcopy(rows)
    bad[-1]["lambda2"] = f"{float(bad[-1]['lambda2']) + 1e-9:.12g}"
    assert checks.check_csv(reps, bad)


def test_sweep_check_matches_members(reports):
    rep = copy.deepcopy(reports["t11"][0][0])
    rep["extra"]["r"] = 0.6
    expect = {"key": "r", "members": [{"r": 0.6, **T11}]}
    assert checks.check_sweep([rep], expect) == []
    assert checks.check_sweep([rep], {"key": "r", "members": [{"r": 0.61, **T11}]})
    assert checks.check_sweep([], expect)


# ----------------------------------------------------------------------
# inputs and spec


def test_ops_follow_the_seed():
    for name in workloads.ROUNDS:
        a = workloads.make_ops(name, 3, spec.RUN_SECONDS)
        assert a == workloads.make_ops(name, 3, spec.RUN_SECONDS)
        assert a != workloads.make_ops(name, 4, spec.RUN_SECONDS)
        assert len(a) % len(workloads.ROUNDS[name]) == 0
        shapes = [" ".join(arg for arg in op["argv"] if not arg.startswith("resol"))
                  for op in a]
        assert len(set(shapes)) == len(shapes)


def test_benchmark_json_is_written_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert [w["name"] for w in spec.WORKLOADS] == list(workloads.ROUNDS)
    assert all(len(w["why"]) <= 200 for w in spec.WORKLOADS)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "balance",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
