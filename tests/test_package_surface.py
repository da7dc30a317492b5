"""The package holds what it runs.

Every function and method in `src/stabspec` that is not a dunder must be
referenced by name, as a `Name` or an `Attribute`, somewhere in the
package outside its own definition and `__init__.py` (whose re-exports
and the `__all__` strings do not count).  Code only the tests call
belongs beside them, in `tests/oracles.py`.

Likewise every field of a record one stage hands the next
(`GeometryFields`, `OperatorPencil`) must be read in the
package, as an attribute of a name that holds such a record: a parameter
annotated with the record's class, or a name assigned the result of a
function or method annotated to return it.  A field only the tests read
is not computed for them.
"""

from __future__ import annotations

import ast
import dataclasses
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


def _holders(nodes, record: str) -> set[str]:
    """Names that hold a `record`: parameters annotated with its class and
    names assigned the result of a function or method annotated to return it
    (`made = make()` or `made = obj.make()`)."""
    def is_record(annotation):
        return isinstance(annotation, ast.Name) and annotation.id == record

    def maker(func):
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in makers

    makers = {node.name for node in nodes
              if isinstance(node, ast.FunctionDef) and is_record(node.returns)}
    held = {node.arg for node in nodes if isinstance(node, ast.arg) and is_record(node.annotation)}
    return held | {target.id for node in nodes
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                   and maker(node.value.func)
                   for target in node.targets if isinstance(target, ast.Name)}


def unread_fields(modules, records: dict[str, list[str]]) -> list[str]:
    """`Record.field` of each field no holder of the record reads."""
    nodes = [node for tree in modules.values() for node in ast.walk(tree)]
    reads = {(node.value.id, node.attr) for node in nodes
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and isinstance(node.value, ast.Name)}
    unread = []
    for record, fields in records.items():
        holders = _holders(nodes, record)
        unread += [f"{record}.{field}" for field in fields
                   if not any((name, field) in reads for name in holders)]
    return unread


def test_every_field_handed_between_stages_is_read_in_the_package():
    records = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
               for cls in (stabspec.GeometryFields, stabspec.OperatorPencil)}
    assert unread_fields(_modules(), records) == []


def test_the_guard_names_a_field_no_holder_reads():
    module = ast.parse(
        "def make() -> Rec:\n    pass\n"
        "def use(r: Rec):\n    return r.a\n"
        "made = make()\n"
        "b = made.b\n"
        "class Maker:\n    def build(self) -> Rec:\n        pass\n"
        "built = Maker().build()\n"
        "c = built.c\n"
        "d = other.d\n"
    )
    assert unread_fields({"m.py": module}, {"Rec": ["a", "b", "c", "d"]}) == ["Rec.d"]
