"""README drift: its Quick start runs and its command lines parse.

The Python block under "Quick start" runs as written, and every package
name the Python prose after it cites (the constructor table and the
warping and closed-form sentences) is an attribute of `stabspec`, so a
public name the README uses cannot disappear unnoticed.  Every
`stabspec ...` line of the README's `sh` blocks is parsed by the CLI's
own parser, its key=value tokens (and those of a `--config` file) must be
recognized keys, and its subcommand must read every key given on the
line; the commands are parsed and configured, not run.  The
configuration-key table lists exactly the recognized keys, its `shape`
row exactly the shapes of the config table, and the sample configurations
load.  The one-line recipe the numerical notes give for unmarking an
invariant pencil sends it down the sparse path to the same eigenvalues.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import shlex

import numpy as np
import pytest

import stabspec
import stabspec.config as cfgmod
from stabspec.cli import _SUBCOMMANDS, parse_args

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


COMMANDS = [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("stabspec ")]


def test_quick_start_runs_as_written():
    quick_start = README.split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["bound"] >= namespace["spectrum"].eigenvalues[1] - 1e-8


def _cited_names() -> list[str]:
    """The backticked calls `name(...)` and snake_case `names` of the
    Python prose between "Shape constructors" and "## Command line"."""
    prose = README.split("Shape constructors", 1)[1].split("## Command line", 1)[0]
    spans = [re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span)
             for span in re.findall(r"`([^`]+)`", prose)]
    return [m.group(1) for m in spans if m and (m.group(2) or "_" in m.group(1))]


def test_python_prose_cites_package_names():
    names = _cited_names()
    assert {"clifford_torus", "perturbed_torus", "builtin_warping", "polynomial_warping",
            "slice_spectrum", "exact_jacobi_spectrum"} <= set(names)
    assert [name for name in names if not hasattr(stabspec, name)] == []


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_lines_parse(line):
    args = parse_args(shlex.split(line)[1:])
    cfg = cfgmod.load_config_file(ROOT / args.config) if args.config else {}
    cfg = cfgmod.merge_overrides(cfg, args.params)
    _SUBCOMMANDS[args.command][2](args, cfg)  # reads the configuration, solves nothing
    assert cfg.overrides <= cfg.read


def test_key_table_lists_the_recognized_keys():
    table = README.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.strip().splitlines()[1:]]
    named = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert len(named) == len(set(named))
    assert set(named) == set(cfgmod.KEYS)


def test_shape_row_lists_the_shape_table():
    row = re.search(r"^\| `shape` \|(.*)\|$", README, re.M).group(1)
    named = re.findall(r"`([^`]+)`", row)
    assert len(named) == len(set(named))
    assert set(named) == set(cfgmod.SHAPES)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_sample_configs_load(path):
    assert cfgmod.load_config_file(path)


def test_the_unmarking_recipe_sends_an_invariant_pencil_down_the_sparse_path():
    recipe = re.search(r"unmarks it,\s*`(dataclasses\.replace\(pencil,[^`]*)`", README).group(1)
    surface = stabspec.build(stabspec.clifford_torus((16, 16)))
    pencil = stabspec.assemble(surface, stabspec.compute_geometry(surface, want_gauss=False))
    unmarked = eval(" ".join(recipe.split()), {"dataclasses": dataclasses, "pencil": pencil})
    assert pencil.invariant_along_v and not unmarked.invariant_along_v
    reduced = stabspec.smallest_eigenpairs(pencil, 2)
    sparse = stabspec.smallest_eigenpairs(unmarked, 2)
    assert (reduced.method, sparse.method) == ("reduced", "sparse")
    np.testing.assert_allclose(sparse.eigenvalues, reduced.eigenvalues, rtol=0, atol=1e-10)
