"""One workload process: set up, say "ready", run the ops, report as JSON.

Started by run.py, never by hand.  Set-up is what a CLI user pays before
the first scenario: the interpreter, `import stabspec` with numpy, scipy
and sympy, and generating the run's inputs.  Each op then calls
`stabspec.cli.main` in-process and is timed from the call to its return;
reading and checking its reports, and clearing sympy's cache so the next
op starts as cold as a new CLI process would, happen outside the timing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import glob
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--src", required=True, help="directory holding the stabspec package")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _reports(out_dir: str):
    reps = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
        with open(path) as fh:
            reps.append(json.load(fh))
    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return reps, rows


def _run_op(cli, checks, op: dict, out_dir: str) -> dict:
    rec = {"kind": op["kind"], "argv": op["argv"], "failed": False, "problems": []}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(op["argv"] + ["--out", out_dir])
    except Exception:  # an op that raises counts as failed; the run goes on
        code = None
        rec["problems"].append(traceback.format_exc())
    rec["seconds"] = time.perf_counter() - t0
    if code != 0:
        rec["failed"] = True
        rec["problems"].append(f"exit code {code}")
        return rec
    try:
        reps, rows = _reports(out_dir)
        rec["problems"] = (checks.CHECKS[op["check"]](reps, op["expect"])
                           + checks.check_csv(reps, rows))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        rec["problems"] = [f"unreadable report: {err!r}"]
    return rec


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import sympy
    import stabspec.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"stabspec was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import checks
    import workloads

    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records = []
    for i, op in enumerate(ops):
        out_dir = os.path.join(args.work_dir, f"op{i}")
        rec = _run_op(cli, checks, op, out_dir)
        if tracer is not None:
            tracer.add_op(rec["seconds"])
        records.append(rec)
        shutil.rmtree(out_dir, ignore_errors=True)
        sympy.core.cache.clear_cache()
        gc.collect()

    result = {
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["missing"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
