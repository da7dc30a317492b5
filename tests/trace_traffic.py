"""List the package statements that the CLI traffic never executes.

    python tests/trace_traffic.py

The traffic is the seed-1 ops of every benchmark workload
(`bench/workloads.make_ops`, at the run length `BENCHMARK.json` sets) and
every golden command (`tests/test_golden.py`), each run in this process
through `stabspec.cli.main` under `sys.settrace`.  For every function in
`src/stabspec`, the script prints the statements that no workload op
executed, outermost first: a branch that never runs is printed once, at
its header, and not statement by statement.  Each line says whether a
golden command executed the statement (`golden only`) or nothing did
(`never`).  `raise` statements are left out, since valid traffic is not
meant to reach them.  Nothing under `bench/` is written.  A full pass
takes about 10 s on 2 vCPU.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabspec"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import test_golden  # noqa: E402
import workloads  # noqa: E402

from stabspec import cli  # noqa: E402


def traffic() -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(workload ops, golden commands): name -> CLI argument list."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ops = {f"{name}[{i}]": op["argv"] for name in workloads.ROUNDS
           for i, op in enumerate(workloads.make_ops(name, 1, seconds))}
    return ops, {f"golden:{name}": args for name, args in test_golden.COMMANDS.items()}


def run_traced(runs: dict[str, list[str]]) -> set[tuple[str, int]]:
    """(file, line) of every line event in the package during the runs."""
    hit: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)  # the configs' `--config` paths are relative to the root
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        for i, (name, args) in enumerate(runs.items()):
            stdout, sys.stdout = sys.stdout, null
            sys.settrace(call)
            try:
                code = cli.main([*args, "--out", os.path.join(tmp, str(i))])
            finally:
                sys.settrace(None)
                sys.stdout = stdout
            print(f"ran {name}: exit {code}", file=sys.stderr)
    return hit


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement, an except
    clause's body in the clause's place; none for a simple one."""
    out = []
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(stmt, field, []):
            out += child.body if isinstance(child, ast.ExceptHandler) else [child]
    return out


def _executed(stmt: ast.stmt, lines: set[int]) -> bool:
    """A simple statement ran if a line event fell on it; a compound one if
    one fell on its header or any statement inside it ran."""
    body = _children(stmt)
    if not body:
        return any(line in lines for line in range(stmt.lineno, stmt.end_lineno + 1))
    header = range(stmt.lineno, min(s.lineno for s in body))
    return any(line in lines for line in header) or any(_executed(s, lines) for s in body)


def _unexecuted(body, lines: set[int]) -> list[ast.stmt]:
    """The outermost statements of a block that never ran, raises, docstrings
    and nested definitions (functions of their own) left out."""
    missed = []
    for stmt in body:
        if isinstance(stmt, (ast.Raise, ast.FunctionDef, ast.ClassDef)) or (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue
        if _executed(stmt, lines):
            missed += _unexecuted(_children(stmt), lines)
        else:
            missed.append(stmt)
    return missed


def report(ops: set[tuple[str, int]], golden: set[tuple[str, int]]) -> list[str]:
    """One line per outermost statement, or whole function, that no
    workload op executed, marked by whether a golden command did."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        by_ops = {line for name, line in ops if name == str(path)}
        by_any = by_ops | {line for name, line in golden if name == str(path)}
        source = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(source))):
            if not isinstance(node, ast.FunctionDef):
                continue
            where = f"{path.name}:{node.lineno} {node.name}"
            body = _children(node)  # a def line runs where the function is defined
            if not any(_executed(stmt, by_ops) for stmt in body):
                ran = any(_executed(stmt, by_any) for stmt in body)
                out.append(f"{where}: {'golden only' if ran else 'never'}: the whole function")
                continue
            for stmt in _unexecuted(body, by_ops):
                ran = "golden only" if _executed(stmt, by_any) else "never"
                out.append(f"{where}: {ran}: line {stmt.lineno}: "
                           f"{source[stmt.lineno - 1].strip()}")
    return out


def main() -> int:
    ops, golden = traffic()
    for line in report(run_traced(ops), run_traced(golden)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
