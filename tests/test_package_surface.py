"""The package holds what it runs.

Every function and method in `src/stabspec` that is not a dunder must be
referenced by name, as a `Name` or an `Attribute`, somewhere in the
package outside its own definition and `__init__.py` (whose re-exports
and the `__all__` strings do not count).  Code only the tests call
belongs beside them, in `tests/oracles.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import stabspec

PACKAGE = Path(stabspec.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def unreferenced_functions(modules) -> list[str]:
    """`module:line name` of each non-dunder def with no reference outside itself."""
    refs = []  # (module, line, name)
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.lineno, node.attr))
    dead = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ref == node.name and not (mod == name and line in inside)
                       for mod, line, ref in refs):
                dead.append(f"{name}:{node.lineno} {node.name}")
    return dead


def test_every_package_function_has_a_caller_in_the_package():
    assert unreferenced_functions(_modules()) == []


def test_the_guard_names_a_function_with_no_caller():
    modules = _modules()
    modules["extra.py"] = ast.parse("def helper():\n    return 1\n")
    assert unreferenced_functions(modules) == ["extra.py:1 helper"]
