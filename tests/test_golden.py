"""Golden reports: the CLI's JSON and CSV output against recorded reports.

`tests/golden/<name>.json` maps each JSON report file that
`stabspec <COMMANDS[name]> --out DIR` writes to its contents, and
`tests/golden/<name>.csv` is the summary.csv it writes.  The commands are
five small ones at 24x24 or coarser, every distinct `stabspec` line of the
README's `sh` blocks, the `# Run:` line of each `configs/*.cfg` (run from
the repository root, where their `--config` paths point) and four commands
on non-zonal surfaces.  The first five were recorded before the 3-sphere
and warped-product geometry pipelines were merged into one (their CSVs
before assembly took over the invariance decision from the eigensolver),
the rest before `GeometryFields` dropped its metric, normal and second
fundamental form.  The balance-bound files have since lost the body's
`attempts` list, which repeated `bound`, `balance_residual` and
`param_norm`.  Exactly the amplitude sweep's non-zonal Y3,1 graphs
and the `SPARSE` commands take the sparse eigen path, every other solve
the reduced one.  Non-float entries must match exactly; floats must match
within 1e-10 * max(1, |value|), far below the 12 significant digits the
reports round to, yet above the round-off that a change of summation
order leaves.  A CSV cell is a float when it parses as one.

The same traffic guards the pencil's exact symmetry, which `assemble`
guarantees by construction and does not check at run time: every
pencil the commands build (both eigen paths, crossed and uncrossed
stencils, 8x8 to 96x96, both ambients) must have A equal to its
transpose entry for entry.
"""

from __future__ import annotations

import csv
import json
import pathlib
import re
import shlex
import shutil

import compare_parent
import pytest
from test_readme import COMMANDS as README_LINES

import stabspec.eigen as eigen
import stabspec.harness as harness
from stabspec.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
REL_TOL = 1e-10

COMMANDS = {
    "check_t11": ["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=8,12,18"],
    "converge": ["converge", "shape=geodesic-sphere", "rho=1.0", "resolutions=8,12,18"],
    "sweep_graph_amplitude": ["sweep", "graph-amplitude", "warping=cosh", "t0=0.3",
                              "perturbation=Y3,1", "amplitudes=0,0.05",
                              "resolutions=8,12,18"],
    "balance_bound": ["balance-bound", "shape=geodesic-sphere", "rho=1.0",
                      "resolution=24"],
    "slice_spectrum": ["slice-spectrum", "warping=cosh", "t0=0.3", "count=6"],
    "sparse_check_t13": ["check", "t13", "shape=graph-over-slice", "warping=cosh",
                         "t0=0.3", "perturbation=Y2,1", "amplitude=0.05",
                         "resolutions=24,48"],
    "sparse_check_esi": ["check", "esi", "shape=graph-over-slice", "warping=cosh",
                         "t0=0.3", "perturbation=Y3,-2", "amplitude=0.05",
                         "resolutions=24,48"],
    "sparse_check_t11": ["check", "t11", "shape=perturbed-torus", "r=0.7", "eps=0.05",
                         "wave=3", "resolutions=24,48"],
    "sparse_balance_bound": ["balance-bound", "shape=perturbed-torus", "r=0.7",
                             "eps=0.05", "wave=3", "resolution=48"],
}
SPARSE = {"sweep_graph_amplitude", "sparse_check_t13", "sparse_check_esi",
          "sparse_check_t11", "sparse_balance_bound"}
CONFIG_LINES = [re.search(r"^# Run:\s+(stabspec .*)$", path.read_text(), re.M).group(1)
                for path in sorted((ROOT / "configs").glob("*.cfg"))]
COMMANDS.update({re.sub(r"[^a-z0-9]+", "_", " ".join(args).lower()).strip("_"): args
                 for args in (shlex.split(line)[1:]
                              for line in dict.fromkeys(README_LINES + CONFIG_LINES))})


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= REL_TOL * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _csv_cells(path) -> list[list]:
    """summary.csv as rows of cells, each a float where it parses as one."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        return [[cell(text) for text in row] for row in csv.reader(fh)]


def test_mismatches_tell_floats_from_exact_entries(tmp_path):
    assert _mismatches({"a": [1.0, 2, "x"]}, {"a": [1.0 + 1e-12, 2, "x"]}) == []
    assert _mismatches({"a": 1e6 + 1e-5}, {"a": 1e6}) == []
    assert _mismatches({"a": 1.0 + 1e-9}, {"a": 1.0})
    assert _mismatches({"a": 2.0}, {"a": 2})
    assert _mismatches({"a": True}, {"a": 1})
    assert _mismatches({"a": [1.0]}, {"a": [1.0, 2.0]})
    path = tmp_path / "summary.csv"
    path.write_text("scenario,resolution,order\nt11-r-0.6,8x8,\nt11-r-0.6,12x12,1.95\n")
    assert _csv_cells(path) == [["scenario", "resolution", "order"],
                                ["t11-r-0.6", "8x8", ""], ["t11-r-0.6", "12x12", 1.95]]
    assert _mismatches(_csv_cells(path)[2], ["t11-r-0.6", "12x12", 1.95 + 1e-12]) == []
    assert _mismatches(_csv_cells(path)[1], ["t11-r-0.6", "8x8", 0.0])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reports_match_the_golden_files(tmp_path, monkeypatch, name):
    lanczos_windows = []
    real = eigen._solve_sparse

    def logged(op, k, *rest):
        lanczos_windows.append(k)
        return real(op, k, *rest)

    asymmetric = []
    real_assemble = harness.assemble

    def checked(surface, fields):
        pencil = real_assemble(surface, fields)
        a = pencil.stiffness_minus_potential
        asymmetric.append((a != a.T).nnz)
        return pencil

    monkeypatch.setattr(eigen, "_solve_sparse", logged)
    monkeypatch.setattr(harness, "assemble", checked)
    monkeypatch.chdir(ROOT)
    assert cli_main(COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    assert bool(lanczos_windows) == (name in SPARSE)
    assert bool(asymmetric) == (not name.startswith("slice_spectrum"))
    assert not any(asymmetric)
    _assert_golden(tmp_path, name)


def _assert_golden(out, name):
    """The reports in `out` against the golden files of command `name`."""
    got = {p.name: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _mismatches(got, want) == []
    assert _mismatches(_csv_cells(out / "summary.csv"),
                       _csv_cells(GOLDEN / f"{name}.csv")) == []


def test_one_process_serves_many_commands(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: two subcommands in turn write
    # their golden reports, and a usage error after them is refused with the
    # text a fresh process prints (tests/golden/cli_help.txt)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("check_t11", "converge"):
        assert cli_main(COMMANDS[name] + ["--out", str(tmp_path / name)]) == 0
        _assert_golden(tmp_path / name, name)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        cli_main(["check", "t99"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stabspec check") and "invalid choice: 't99'" in err
    assert f"$ stabspec check t99\n{err}exit 2\n" in (GOLDEN / "cli_help.txt").read_text()


def test_compare_parent_finds_no_move_against_a_copy_of_this_tree(tmp_path, capsys):
    # the tree compared with a copy of itself, given as a directory (no git)
    for part in ("src", "configs"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    names = ["check_t11", "converge", "refused_sphere_genus"]
    assert compare_parent.main([str(tmp_path), *names]) == 0
    # one peak-memory line per command, which is no move
    *peaks, last = capsys.readouterr().out.splitlines()
    assert last == "0 moved in 3 commands"
    assert [re.fullmatch(r"(\S+) peak MB: parent [\d.]+, change [\d.]+ \([-+][\d.]+%\)",
                         line)[1] for line in peaks] == names
    # a refused run is recorded by its exit code, stderr and missing --out
    got, peak = compare_parent.outputs(ROOT, compare_parent.REFUSED["refused_sphere_genus"],
                                       tmp_path / "out")
    assert (got["exit code"], got["--out exists"], len(got)) == (2, False, 3)
    assert peak > 10.0  # MB: an interpreter that imported numpy and scipy
