"""What the benchmark measures; `run.py --write-spec` writes it to BENCHMARK.json.

Bounds are the share of the parent commit's median by which a metric may
worsen before a change counts as a regression.  The time bounds are 0.25,
as wide as any bound here may be: on the reference box whole runs drift
with the host's load, and time spreads over ten runs reached 0.25
(README.md).
Memory does not drift; its spreads stay under 0.02.
"""

from __future__ import annotations

RUN_SECONDS = 20

WORKLOADS = [
    {"name": "refine-symmetric",
     "why": "64/128/256 refinement ladders on rotation-invariant shapes with closed-form "
            "spectra; most op time is in eigen, where a symmetry-reduced solver would show"},
    {"name": "refine-generic",
     "why": "the same ladder on non-zonal graphs with no rotation invariance; a gain from "
            "symmetry alone must leave it unchanged, an ordering or factor gain must show"},
    {"name": "balance",
     "why": "balanced bound on seeded geodesic spheres at 48x48; nearly all op time is the "
            "symbolic compile of the dilated chart, with eigen under 2%"},
    {"name": "sweep-coarse",
     "why": "many small distinct scenarios at 64x64 or less: per-call overheads, chart "
            "compiles, the dense eigen path, config and report code"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# every layer metric counts a cost, so lower is better
PER_LAYER_UNITS = {
    "catalog.build_calls": "1/op",
    "catalog.build_s": "s/op",
    "charts.evaluate_calls": "1/op",
    "charts.evaluate_s": "s/op",
    "charts.compiles": "1/op",
    "charts.compiles_per_shape": "ratio",
    "surfaces.geometry_calls": "1/op",
    "surfaces.geometry_s": "s/op",
    "assembly.assemble_calls": "1/op",
    "assembly.assemble_s": "s/op",
    "assembly.nnz": "nnz/op",
    "eigen.solve_calls": "1/op",
    "eigen.solve_s": "s/op",
    "eigen.nodes": "nodes/op",
    "eigen.dense_calls": "1/op",
    "eigen.sparse_calls": "1/op",
    "conformal.balance_calls": "1/op",
    "conformal.balance_s": "s/op",
    "conformal.image_s": "s/op",
    "conformal.bound_s": "s/op",
    "harness.self_s": "s/op",
    "harness.builds_per_solve": "ratio",
    "cli.report_write_s": "s/op",
    "cli.report_bytes": "B/op",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in PER_LAYER_UNITS.items()],
    }
