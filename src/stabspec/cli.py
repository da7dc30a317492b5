"""Command-line scenario runner.

Subcommands, one row each of the table `_SUBCOMMANDS` that builds the
parser and dispatches the run:
  slice-spectrum   closed-form slice eigenvalues of a warped ambient
  check            t11 | t12 | t13 | esi on a configured shape
  sweep            flat-torus | graph-amplitude families
  converge         refinement study with observed orders
  balance-bound    balanced-coordinate upper bound vs computed lambda2

Configuration comes from an optional key=value file (--config) with
command-line key=value overrides; an override the subcommand does not
read is a configuration error.  Each scenario writes a JSON report into
the output directory plus a shared summary.csv.

Exit codes: 0 all checks pass; 2 a theorem hypothesis (or the
configuration) is invalid; 3 a numerical routine failed to converge or
ran out of memory; 4 an inequality is violated beyond the report tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod
from . import harness
from .errors import ConfigError, StabspecError

EXIT_OK = 0
EXIT_VIOLATION = 4


def _load_cfg(args) -> cfgmod.Config:
    cfg: dict[str, str] = {}
    if args.config:
        cfg = cfgmod.load_config_file(args.config)
    return cfgmod.merge_overrides(cfg, args.params)


def _fmt(x) -> str:
    return harness.fmt12(x) if isinstance(x, float) else str(x)


def _print(rep: harness.Report) -> None:
    """Verdict, scenario and the body's scalars; then one line per CSV row."""
    status = {True: "[PASS] ", False: "[FAIL] ", None: ""}[rep.verdict]
    head = " ".join(f"{k}={_fmt(v)}" for k, v in rep.body.items() if isinstance(v, float))
    tag = " (equality)" if rep.body.get("equality") else ""
    print(f"{status}{rep.scenario}: {head}{tag}")
    for row in rep.rows:
        cells = " ".join(f"{col}={_fmt(row[col])}" for col in harness.CSV_COLUMNS[2:]
                         if isinstance(row[col], float))
        print(f"  {row['resolution']}: {cells}")


def _emit(out_dir: str, reports: list[harness.Report]) -> None:
    for rep in reports:
        path = os.path.join(out_dir, f"{rep.scenario}.json")
        harness.write_json_report(rep.body, path)
        print(f"wrote {path}")
    rows = [row for rep in reports for row in rep.rows]
    if rows:
        path = os.path.join(out_dir, "summary.csv")
        harness.write_csv_summary(rows, path)
        print(f"wrote {path}")


def _seed(cfg) -> int:
    seed = cfgmod.get(cfg, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    return seed


# Each runner reads every configuration key it needs and returns the work
# still to do, so an unread override is refused before anything is solved.


def _run_slice_spectrum(args, cfg):
    w = cfgmod.warping_from_config(cfg)
    t0 = cfgmod.get(cfg, "t0", float, 0.0)
    count = cfgmod.get(cfg, "count", int, 8)
    return lambda: [harness.slice_spectrum_report(w, t0, count)]


def _run_check(args, cfg):
    resolutions = cfgmod.resolutions_from_config(cfg, [24, 48, 96])
    spec = cfgmod.shape_from_config(cfg, (resolutions[0], resolutions[0]))
    seed = _seed(cfg)
    return lambda: [harness.check_theorem(args.theorem, spec, resolutions, seed=seed)]


def _run_sweep(args, cfg):
    seed = _seed(cfg)
    resolutions = cfgmod.resolutions_from_config(cfg, [48, 96])
    if args.family == "flat-torus":
        rs = cfgmod.get(cfg, "rs", cfgmod.floats,
                        [0.45, 0.5, 0.55, 0.6, 0.65, 0.7071067811865476, 0.75])
        return lambda: harness.sweep_flat_torus(rs, resolutions, seed=seed)
    w = cfgmod.warping_from_config(cfg)
    t0 = cfgmod.get(cfg, "t0", float, 0.0)
    pert = cfgmod.get(cfg, "perturbation", str, "Y2,0")
    amplitudes = cfgmod.get(cfg, "amplitudes", cfgmod.floats, [0.0, 0.02, 0.05, 0.1])
    return lambda: harness.sweep_graph_amplitude(w, t0, pert, amplitudes, resolutions,
                                                 seed=seed)


def _run_converge(args, cfg):
    resolutions = cfgmod.resolutions_from_config(cfg, [32, 64, 128])
    spec = cfgmod.shape_from_config(cfg, (resolutions[0], resolutions[0]))
    seed = _seed(cfg)
    return lambda: [harness.convergence_study(spec, resolutions, seed=seed)]


def _run_balance_bound(args, cfg):
    resolution = cfgmod.get(cfg, "resolution", int, 96)
    spec = cfgmod.shape_from_config(cfg, (resolution, resolution))
    seed = _seed(cfg)
    return lambda: [harness.balance_bound_scenario(spec, resolution, seed=seed)]


# subcommand -> (help, its positional argument and that argument's choices,
# or None, runner); the parser and the dispatch both read this one table.
_SUBCOMMANDS = {
    "slice-spectrum": ("closed-form slice eigenvalues", None, _run_slice_spectrum),
    "check": ("run one theorem check", ("theorem", list(harness._CHECKS)), _run_check),
    "sweep": ("run a parameter sweep", ("family", ["flat-torus", "graph-amplitude"]),
              _run_sweep),
    "converge": ("refinement study", None, _run_converge),
    "balance-bound": ("balanced-coordinate bound", None, _run_balance_bound),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabspec",
        description="Stability-spectrum checks for surfaces in the 3-sphere "
        "and warped products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positional, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if positional is not None:
            p.add_argument(positional[0], choices=positional[1])
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", default="reports", help="report directory")
        p.add_argument(
            "params", nargs="*", metavar="key=value",
            help="configuration overrides, e.g. shape=flat-torus r=0.6",
        )
    return parser


def _run(args) -> int:
    cfg = _load_cfg(args)
    work = _SUBCOMMANDS[args.command][2](args, cfg)
    unread = sorted(cfg.overrides - cfg.read)
    if "warping" in unread and "warping_poly" in cfg.read:
        raise ConfigError("warping_poly overrides warping; give one of them")
    if unread:
        raise ConfigError(f"{args.command} does not read the key(s) {', '.join(unread)}")
    created, path = [], os.path.abspath(args.out)
    while not os.path.isdir(path):  # the directories makedirs creates, deepest first
        created.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails here, before any solve
    try:
        reports = work()
    except (StabspecError, MemoryError):
        for path in created:  # a refused or failed run leaves no directory it made
            os.rmdir(path)
        raise
    for rep in reports:
        _print(rep)
    _emit(args.out, reports)
    return EXIT_VIOLATION if any(rep.verdict is False for rep in reports) else EXIT_OK


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; key=value overrides may follow any option.

    argparse stops filling the positional `params` at the first option, so
    overrides after `--config FILE` come back as leftovers; they join the
    other overrides.  Any other leftover token is an error (exit 2).
    """
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    stray = [tok for tok in extra if tok.startswith("-") or "=" not in tok]
    if stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    args.params = list(args.params) + extra
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return _run(args)
    except StabspecError as err:
        kind = "numerical failure" if err.exit_code == 3 else "invalid input"
        print(f"{kind}: {err}", file=sys.stderr)
        return err.exit_code
    except MemoryError as err:  # e.g. a grid too fine for this machine
        print(f"numerical failure: out of memory: {err}".rstrip(": "), file=sys.stderr)
        return 3
    except OSError as err:  # an unusable --config or --out path
        print(f"invalid input: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
