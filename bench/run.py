"""Benchmark of the stabspec CLI; see bench/README.md.

    python3 bench/run.py --workload refine-symmetric --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-spec        # rewrite BENCHMARK.json from spec.py

Each run starts the workload in its own process (worker.py), which drives
`stabspec.cli.main` through the run's ops and checks every op's reports.
With --trace 0 the run also starts SETUP_PROBES more processes that only
set up, and prints the end-to-end metrics; with --trace 1 it wraps the
layers (spans.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
SETUP_PROBES = 2  # set-up-only processes besides the workload process
DEADLINE_S = 170.0
# One BLAS thread: on 2 cores a second thread sped a 44x44 dense solve from
# 0.76 s to 0.48 s but slowed a 128x128 sparse one from 0.55 s to 0.70 s,
# and a single thread keeps runs steady on a shared machine.
BLAS_THREADS = "1"
# sympy's term order, and with it compile time, follows the string hash;
# a fixed hash seed makes the same inputs cost the same in every process.
HASH_SEED = "0"


def _parse(argv):
    p = argparse.ArgumentParser(description="stabspec CLI benchmark")
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, args, work_dir: Path, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work-dir", str(work_dir)]
        cmd += ["--trace"] if args.trace else []
        cmd += ["--setup-only"] if setup_only else []
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=_env(), cwd=ROOT)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = ready.strip() == "ready"

    def finish(self) -> tuple[int, str]:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        self.timer.cancel()
        return code, out

    def kill(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _run_workers(args, work_dir: Path):
    """(set-up times, the workload process's result), or raise RuntimeError."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe = Worker(args, work_dir, deadline, setup_only=True)
        code, _ = probe.finish()
        if not probe.ready or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        setups.append(probe.setup_s)
    worker = Worker(args, work_dir, deadline, setup_only=False)
    try:
        if not worker.ready:
            raise RuntimeError("workload process did not finish set-up")
        setups.append(worker.setup_s)
        code, out = worker.finish()
    finally:
        worker.kill()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"workload process failed with exit code {code}")
    return setups, json.loads(lines[-1])


def _metrics(args, setups, result) -> dict:
    if args.trace:
        units = spec.PER_LAYER_UNITS
        values = result["trace"]
    else:
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        times = [op["seconds"] for op in result["ops"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(times),
            "op_s_p50": statistics.median(times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if not (SRC / "stabspec" / "__init__.py").is_file():
        print(f"no stabspec package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setups, result = _run_workers(args, work_dir)
    except RuntimeError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = result["ops"]
    for i, op in enumerate(ops):
        status = "FAILED" if op["failed"] else ("WRONG" if op["problems"] else "ok")
        print(f"op {i:3d} {op['seconds']:8.3f} s  {status:6s} {' '.join(op['argv'])}",
              file=sys.stderr)
        for problem in op["problems"]:
            print(f"        {problem}", file=sys.stderr)
    for name in result.get("missing", []):
        print(f"trace: layer function {name} not found; its metrics read 0",
              file=sys.stderr)
    if args.trace:
        times = sorted(op["seconds"] for op in ops)
        print(f"traced op_s_p50: {statistics.median(times):.4f} s, wall_s: "
              f"{sum(times):.4f} s", file=sys.stderr)

    metrics = _metrics(args, setups, result)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    wrong = [op for op in ops if op["problems"] and not op["failed"]]
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failed"] or op["problems"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
