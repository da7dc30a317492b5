"""Per-layer spans recorded from outside the package.

`install` wraps each layer's public function at the name the CLI calls it
by, so the package itself carries no timing code.  A span's self time is
its duration minus the time of the spans it encloses, so the layers'
self times and `harness.self_s` add up to the op time.  A function the
trace cannot find is listed in `missing`, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

# (module, attribute, layer); attributes may be dotted through a class
SPANS = [
    ("stabspec.catalog", "build", "catalog.build"),
    ("stabspec.charts", "SymbolicChart.evaluate", "charts.evaluate"),
    ("stabspec.harness", "compute_geometry", "surfaces.geometry"),
    ("stabspec.conformal", "compute_geometry", "surfaces.geometry"),
    ("stabspec.harness", "assemble", "assembly.assemble"),
    ("stabspec.harness", "smallest_eigenpairs", "eigen.solve"),
    ("stabspec.conformal", "hersch_balance", "conformal.balance"),
    ("stabspec.conformal", "mobius_image_surface", "conformal.image"),
    ("stabspec.harness", "balanced_bound_report", "conformal.bound"),
    ("stabspec.harness", "write_json_report", "cli.report_write"),
    ("stabspec.harness", "write_csv_summary", "cli.report_write"),
]
COMPILE = ("stabspec.charts", "_compile_bundle")


def _resolve(module: str, attr: str):
    """(object holding the attribute, attribute name), or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.shapes: set = set()
        self.missing: list[str] = []
        self.op_s = 0.0
        self.ops = 0
        self._open: list[float] = []  # child time of each span in progress

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - self._open.pop()
                if self._open:
                    self._open[-1] += dt
            self._count(layer, args, result)
            return result
        return traced

    def _count(self, layer: str, args, result):
        if layer == "assembly.assemble":
            self.counts["assembly.nnz"] += result.stiffness_minus_potential.nnz
        elif layer == "eigen.solve":
            self.counts["eigen.nodes"] += args[0].node_count
            self.counts[f"eigen.{result.method}_calls"] += 1
        elif layer == "cli.report_write":
            self.counts["cli.report_bytes"] += os.path.getsize(args[1])

    def _wrap_compile(self, fn):
        def counted(key, *args, **kwargs):
            before = fn.cache_info().misses
            result = fn(key, *args, **kwargs)
            self.counts["charts.compiles"] += fn.cache_info().misses - before
            self.shapes.add(key)
            return result
        return counted

    def install(self) -> None:
        for module, attr, layer in SPANS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, name = found
            setattr(owner, name, self._wrap(getattr(owner, name), layer))
        found = _resolve(*COMPILE)
        if found is None or not hasattr(getattr(*found), "cache_info"):
            self.missing.append(".".join(COMPILE))
        else:
            setattr(found[0], found[1], self._wrap_compile(getattr(*found)))

    def add_op(self, seconds: float) -> None:
        self.op_s += seconds
        self.ops += 1

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per op unless a ratio."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for layer in ("catalog.build", "charts.evaluate", "surfaces.geometry",
                      "assembly.assemble", "eigen.solve"):
            out[f"{layer}_calls"] = self.calls[layer] / ops
            out[f"{layer}_s"] = self.self_s[layer] / ops
        out["charts.compiles"] = self.counts["charts.compiles"] / ops
        out["charts.compiles_per_shape"] = (
            self.counts["charts.compiles"] / len(self.shapes) if self.shapes else 0.0)
        out["assembly.nnz"] = self.counts["assembly.nnz"] / ops
        out["eigen.nodes"] = self.counts["eigen.nodes"] / ops
        out["eigen.dense_calls"] = self.counts["eigen.dense_calls"] / ops
        out["eigen.sparse_calls"] = self.counts["eigen.sparse_calls"] / ops
        out["conformal.balance_calls"] = self.calls["conformal.balance"] / ops
        out["conformal.balance_s"] = self.self_s["conformal.balance"] / ops
        out["conformal.image_s"] = self.self_s["conformal.image"] / ops
        out["conformal.bound_s"] = self.self_s["conformal.bound"] / ops
        out["harness.self_s"] = (self.op_s - sum(self.self_s.values())) / ops
        out["harness.builds_per_solve"] = (
            self.calls["catalog.build"] / self.calls["eigen.solve"]
            if self.calls["eigen.solve"] else 0.0)
        out["cli.report_write_s"] = self.self_s["cli.report_write"] / ops
        out["cli.report_bytes"] = self.counts["cli.report_bytes"] / ops
        return out
