"""Command-line scenario runner.

Subcommands:
  slice-spectrum   closed-form slice eigenvalues of a warped ambient
  check            t11 | t12 | t13 | esi on a configured shape
  sweep            flat-torus | graph-amplitude families
  converge         refinement study with observed orders
  balance-bound    balanced-coordinate upper bound vs computed lambda2

Configuration comes from an optional key=value file (--config) with
command-line key=value overrides.  Each scenario writes a JSON report
into the output directory plus a shared summary.csv.

Exit codes: 0 all checks pass; 2 a theorem hypothesis (or the
configuration) is invalid; 3 a numerical routine failed to converge;
4 an inequality is violated beyond the report tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod
from . import harness
from .errors import (
    AssemblyError,
    ConfigError,
    DegenerateChartError,
    DomainError,
    HypothesisError,
    MeshTooCoarseError,
    NonConvergenceError,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGENCE = 3
EXIT_VIOLATION = 4


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", default="reports", help="report directory")
    parser.add_argument(
        "params", nargs="*", metavar="key=value",
        help="configuration overrides, e.g. shape=flat-torus r=0.6",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabspec",
        description="Stability-spectrum checks for surfaces in the 3-sphere "
        "and warped products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice-spectrum", help="closed-form slice eigenvalues")
    _add_common(p)

    p = sub.add_parser("check", help="run one theorem check")
    p.add_argument("theorem", choices=["t11", "t12", "t13", "esi"])
    _add_common(p)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("family", choices=["flat-torus", "graph-amplitude"])
    _add_common(p)

    p = sub.add_parser("converge", help="refinement study")
    _add_common(p)

    p = sub.add_parser("balance-bound", help="balanced-coordinate bound")
    _add_common(p)
    return parser


def _load_cfg(args) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.config:
        cfg = cfgmod.load_config_file(args.config)
    return cfgmod.merge_overrides(cfg, args.params)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(out_dir: str, json_reports: list[dict], csv_rows: list[dict]):
    os.makedirs(out_dir, exist_ok=True)
    for rep in json_reports:
        path = os.path.join(out_dir, f"{rep['scenario']}.json")
        harness.write_json_report(rep, path)
        print(f"wrote {path}")
    if csv_rows:
        path = os.path.join(out_dir, "summary.csv")
        harness.write_csv_summary(csv_rows, path)
        print(f"wrote {path}")


def _print_theorem(rep: harness.TheoremReport):
    status = "PASS" if rep.passed else "FAIL"
    tag = " (equality)" if rep.equality else ""
    print(
        f"[{status}] {rep.scenario}: lambda2={_fmt(rep.lambda2_extrapolated)} "
        f"bound={_fmt(rep.bound)} margin={_fmt(rep.margin)} "
        f"tol={_fmt(rep.tol_report)}{tag}"
    )


def _run_slice_spectrum(args) -> int:
    cfg = _load_cfg(args)
    w = cfgmod.warping_from_config(cfg)
    t0 = cfgmod.get_float(cfg, "t0", 0.0)
    count = cfgmod.get_int(cfg, "count", 8)
    rep = harness.slice_spectrum_report(w, t0, count)
    print(f"{rep['scenario']}: warping={rep['warping']} t0={_fmt(rep['t0'])}")
    for band in rep["bands"]:
        print(
            f"  band {band['band']}: eigenvalue={_fmt(band['eigenvalue'])} "
            f"multiplicity={band['multiplicity']}"
        )
    print(f"  second eigenvalue (slice bound): {_fmt(rep['slice_lambda2'])}")
    ev = rep["eigenvalues"]
    csv_rows = [
        {
            "scenario": rep["scenario"],
            "resolution": "exact",
            "lambda1": ev[0],
            "lambda2": ev[1] if len(ev) > 1 else "",
            "bound": rep["slice_lambda2"],
            "margin": (rep["slice_lambda2"] - ev[1]) if len(ev) > 1 else "",
            "order": "",
        }
    ]
    _emit(args.out, [rep], csv_rows)
    return EXIT_OK


def _run_check(args) -> int:
    cfg = _load_cfg(args)
    resolutions = cfgmod.resolutions_from_config(cfg, [24, 48, 96])
    spec = cfgmod.shape_from_config(cfg, (resolutions[0], resolutions[0]))
    seed = cfgmod.get_int(cfg, "seed", 0)
    rep = harness.check_theorem(args.theorem, spec, resolutions, seed=seed)
    _print_theorem(rep)
    _emit(args.out, [rep.to_dict()], rep.csv_rows())
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _run_sweep(args) -> int:
    cfg = _load_cfg(args)
    seed = cfgmod.get_int(cfg, "seed", 0)
    resolutions = cfgmod.resolutions_from_config(cfg, [48, 96])
    if args.family == "flat-torus":
        rs = cfgmod.get_float_list(
            cfg, "rs", [0.45, 0.5, 0.55, 0.6, 0.65, 0.7071067811865476, 0.75]
        )
        reports = harness.sweep_flat_torus(rs, resolutions, seed=seed)
    else:
        w = cfgmod.warping_from_config(cfg)
        t0 = cfgmod.get_float(cfg, "t0", 0.0)
        pert = cfgmod.get_str(cfg, "perturbation", "Y2,0")
        amplitudes = cfgmod.get_float_list(cfg, "amplitudes", [0.0, 0.02, 0.05, 0.1])
        reports = harness.sweep_graph_amplitude(
            w, t0, pert, amplitudes, resolutions, seed=seed
        )
    csv_rows: list[dict] = []
    for rep in reports:
        _print_theorem(rep)
        csv_rows.extend(rep.csv_rows())
    _emit(args.out, [r.to_dict() for r in reports], csv_rows)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def _run_converge(args) -> int:
    cfg = _load_cfg(args)
    resolutions = cfgmod.resolutions_from_config(cfg, [32, 64, 128])
    spec = cfgmod.shape_from_config(cfg, (resolutions[0], resolutions[0]))
    seed = cfgmod.get_int(cfg, "seed", 0)
    study = harness.convergence_study(spec, resolutions, seed=seed)
    print(f"{study.scenario}: extrapolated lambda2={_fmt(study.lambda2_extrapolated)}")
    for row in study.rows:
        order = "n/a" if row["order"] is None else _fmt(row["order"])
        print(
            f"  {row['resolution']}: lambda2={_fmt(row['lambda2'])} order={order}"
        )
    if study.oracle is not None:
        print(f"  closed-form value: {_fmt(study.oracle)}")
    _emit(args.out, [study.to_dict()], study.csv_rows())
    return EXIT_OK


def _run_balance_bound(args) -> int:
    cfg = _load_cfg(args)
    resolution = cfgmod.get_int(cfg, "resolution", 96)
    spec = cfgmod.shape_from_config(cfg, (resolution, resolution))
    seed = cfgmod.get_int(cfg, "seed", 0)
    tol = cfgmod.get_float(cfg, "tol", 1e-9)
    rep = harness.balance_bound_scenario(spec, resolution, seed=seed, tol=tol)
    print(
        f"{rep['scenario']}: lambda2={_fmt(rep['lambda2'])} "
        f"bound={_fmt(rep['bound'])} gap={_fmt(rep['gap'])} "
        f"residual={_fmt(rep['balance_residual'])}"
    )
    csv_rows = [
        {
            "scenario": rep["scenario"],
            "resolution": rep["resolution"],
            "lambda1": rep["lambda1"],
            "lambda2": rep["lambda2"],
            "bound": rep["bound"],
            "margin": rep["gap"],
            "order": "",
        }
    ]
    _emit(args.out, [rep], csv_rows)
    return EXIT_OK


_RUNNERS = {
    "slice-spectrum": _run_slice_spectrum,
    "check": _run_check,
    "sweep": _run_sweep,
    "converge": _run_converge,
    "balance-bound": _run_balance_bound,
}


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
        return _RUNNERS[args.command](args)
    except (HypothesisError, ConfigError) as err:
        print(f"hypothesis error: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DomainError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NonConvergenceError, MeshTooCoarseError, AssemblyError,
            DegenerateChartError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
