"""The package names the benchmark reads are still there.

`bench/spans.py` wraps package functions by module and attribute name to
time each layer, and a name it cannot resolve only makes that layer's
metrics read 0.  `bench/pool.py` screens its shapes with the package's own
pipeline calls, keywords included.  These tests run both against the
package, reading `bench/` and changing nothing in it, so a rename or a
dropped keyword fails here rather than silently in a benchmark run.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import stabspec as ss

BENCH = Path(__file__).resolve().parents[1] / "bench"

# span targets already gone from the package: their metrics read 0 until
# the benchmark drops or re-points them (ROADMAP item 1)
STALE = {
    "stabspec.charts.SymbolicChart.evaluate",
    "stabspec.conformal.compute_geometry",
    "stabspec.conformal.mobius_image_surface",
    "stabspec.charts._compile_bundle",
}


def _bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_every_span_target_resolves_but_the_stale_ones(monkeypatch):
    spans = _bench_module(monkeypatch, "spans")
    targets = [(module, attr) for module, attr, _ in spans.SPANS] + [spans.COMPILE]
    missing = {f"{module}.{attr}" for module, attr in targets
               if spans._resolve(module, attr) is None}
    assert missing <= STALE


def test_the_pool_screen_runs_on_the_package(monkeypatch):
    # one 16^2 rung of a screened graph: build, geometry with want_gauss,
    # assembly and a solve with tol and seed, as the screen calls them
    pool = _bench_module(monkeypatch, "pool")
    entry = json.loads((BENCH / "pool.json").read_text())["coarse:cosh-graph"][0]
    assert pool.solves(ss, "coarse:cosh-graph", entry, (16,))
