"""Compare the CLI output of a parent tree with this tree's, value by value.

    python tests/compare_parent.py REV_OR_DIR [NAME ...]

REV_OR_DIR is a git revision, unpacked with `git archive` into a temporary
directory, or the directory of a tree of this repository.  Each golden
command (`tests/test_golden.py`), then each refused run (`REFUSED`), each
generic-graph ladder (`GENERIC`) and each fine ladder of a surface of
revolution (`FINE`), or each NAME given, runs once on each tree in a
process of its own, with the two trees taking turns to go first.  Every
JSON value, CSV cell, standard output or error line, exit code or
presence of the `--out` directory that differs between the two is
printed with the parent's value and this tree's; the run's own `--out`
path reads OUT in standard output, since each side writes its own.  Each
command's peak resident memory on either tree (the child's `ru_maxrss`,
from `os.wait4`) is printed too, so a change aimed at memory shows its
effect next to the report diff; it is no move.  The exit status is 0 when
nothing moved and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = "import sys; from stabspec.cli import main; sys.exit(main(sys.argv[1:]))"

# runs the CLI refuses, with no --out directory: exit 2 on invalid input, and
# exit 3 on the fine sphere ladder whose residual check fails (ROADMAP item 5)
REFUSED = {
    "refused_coarse_ladder": ["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=4,8"],
    "refused_decreasing_ladder": ["check", "t11", "shape=flat-torus", "r=0.6",
                                  "resolutions=16,8"],
    "refused_repeated_rung": ["converge", "shape=geodesic-sphere", "rho=1.0",
                              "resolutions=16,16,32"],
    "refused_unknown_key": ["check", "t11", "shape=flat-torus", "r=0.6", "resolutions=8,12",
                            "bogus=1"],
    "refused_sphere_genus": ["check", "t11", "shape=geodesic-sphere", "rho=1.0",
                             "resolutions=8,12"],
    "refused_coarse_balance": ["balance-bound", "shape=geodesic-sphere", "rho=1.0",
                               "resolution=4"],
    "refused_t0_outside_warping": ["check", "t13", "shape=slice", "warping=cosh", "t0=5",
                                   "resolutions=8,12"],
    "refused_t12_warped": ["check", "t12", "shape=slice", "warping=cosh", "t0=0.3",
                           "resolutions=8,12"],
    "refused_empty_warping_interval": ["slice-spectrum", "warping=cosh",
                                       "warping_interval=1,1"],
    "refused_unknown_warping": ["slice-spectrum", "warping=bogus"],
    "unconverged_fine_sphere": ["converge", "shape=geodesic-sphere", "rho=0.45",
                                "resolutions=256,512,1024"],
}


# graphs of Y_l,m with m != 0 on the benchmark's rungs: their pencils are
# solved as symmetry blocks, on grids no golden command reaches
GENERIC = {
    "generic_product_t12": ["check", "t12", "shape=graph-over-slice", "warping=product",
                            "t0=0.2", "perturbation=Y2,-2", "amplitude=0.05",
                            "resolutions=16,32,64"],
    "generic_cosh_t13_y3": ["check", "t13", "shape=graph-over-slice", "warping=cosh",
                            "t0=0.3", "perturbation=Y3,-2", "amplitude=0.05",
                            "resolutions=64,128,256"],
    "generic_cosh_t13_y4": ["check", "t13", "shape=graph-over-slice", "warping=cosh",
                            "t0=-0.2", "perturbation=Y4,-3", "amplitude=0.04",
                            "resolutions=64,128,256"],
}


# fine ladders of surfaces of revolution, which stay on their meridian from
# geometry to report, and balancing, which forms their N-node forms: a
# change aimed at their memory shows its peak MB here
FINE = {
    "fine_cosh_slice_t13": ["check", "t13", "shape=slice", "warping=cosh", "t0=0.3",
                            "resolutions=256,512,1024"],
    "fine_clifford_t11": ["check", "t11", "shape=clifford-torus", "resolutions=256,512"],
    "fine_product_slice_converge": ["converge", "shape=slice", "warping=product", "t0=0.3",
                                    "resolutions=256,512,1024"],
    "fine_sphere_balance": ["balance-bound", "shape=geodesic-sphere", "rho=1.0",
                            "resolution=256"],
}


def unpack(ref: str, into: Path) -> Path:
    """The tree at `ref`: a directory as it is, a git revision unpacked."""
    if Path(ref).is_dir():
        return Path(ref)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def _leaves(value, path: str) -> dict:
    """{path: value} of every scalar in a parsed JSON document."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in _leaves(value[key], f"{path}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in _leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def outputs(tree: Path, args: list[str], out: Path) -> tuple[dict, float]:
    """({where: value} of everything one CLI run on `tree` leaves behind,
    the run's peak resident memory in MB)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        child = subprocess.Popen([sys.executable, "-c", RUN, *args, "--out", str(out)],
                                 cwd=tree, env=env, stdout=stdout, stderr=stderr, text=True)
        _, status, usage = os.wait4(child.pid, 0)  # reaps it with its own rusage
        child.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        lines = {"stdout": stdout.read().splitlines(), "stderr": stderr.read().splitlines()}
    found = {"exit code": child.returncode, "--out exists": out.exists()}
    found.update({f"stdout[{i}]": line.replace(str(out), "OUT")
                  for i, line in enumerate(lines["stdout"])})
    found.update({f"stderr[{i}]": line for i, line in enumerate(lines["stderr"])})
    for path in sorted(out.glob("*.json")):
        found.update(_leaves(json.loads(path.read_text()), path.name))
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            found.update({f"{path.name}[{i}][{j}]": cell
                          for i, row in enumerate(csv.reader(fh))
                          for j, cell in enumerate(row)})
    return found, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def moves(parent: dict, change: dict) -> list[str]:
    """One line per place whose value differs, absent ones included."""
    missing = "(absent)"
    return [f"{where}: {parent.get(where, missing)!r} -> {change.get(where, missing)!r}"
            for where in dict.fromkeys([*parent, *change])
            if parent.get(where, missing) != change.get(where, missing)]


def golden_commands() -> dict:
    """`test_golden.COMMANDS`, read in a process of its own.  A child's
    `ru_maxrss` starts at the resident memory of the process that starts
    it, so this one imports neither numpy nor the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", "import json, test_golden; "
                           "print(json.dumps(test_golden.COMMANDS))"],
                          cwd=ROOT / "tests", env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    commands = {**golden_commands(), **REFUSED, **GENERIC, **FINE}
    names = argv[1:] or list(commands)
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        parent = unpack(argv[0], Path(tmp) / "parent")
        for turn, name in enumerate(names):
            got, peak = {}, {}
            trees = [("parent", parent), ("change", ROOT)]
            for side, tree in trees if turn % 2 == 0 else trees[::-1]:
                out = Path(tmp) / "out" / side / name
                got[side], peak[side] = outputs(tree, commands[name], out)
            lines = moves(got["parent"], got["change"])
            moved += len(lines)
            for line in lines:
                print(f"{name} {line}")
            print(f"{name} peak MB: parent {peak['parent']:.1f}, change {peak['change']:.1f} "
                  f"({peak['change'] / peak['parent'] - 1.0:+.1%})")
    print(f"{moved} moved in {len(names)} commands")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
