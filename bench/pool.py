"""Write pool.json: the screened shape parameters the workloads draw from.

    python3 bench/pool.py

Two faults of the package make the CLI exit 3 on valid shapes, each on a
few parameter values that follow no simple rule (see the FOUND lines in
CHANGES.md):

- `assembly.assemble` rejects some non-zonal graphs: its exact-symmetry
  check trips on a one-ulp rounding difference in the metric cross term
  at the pole rows of a sphere grid;
- `eigen.smallest_eigenpairs` rejects some flat tori and zonal graphs on
  its sparse path: the six-eigenvalue window cuts an eigenvalue cluster,
  and the residual of the cut cluster's vector can exceed 1e-9.

A run must fail the same share of ops whatever its seed, so every shape
the workloads solve on the sparse path (2000 nodes or more) comes from
this pool.  Screening builds, assembles and solves each candidate at
every resolution of its op, with the CLI's defaults, and drops only the
candidates that raise one of these two errors.  Everything else an op
can get wrong still shows.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
POOL = BENCH / "pool.json"


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _graph(rng, zonal: bool) -> dict:
    l = rng.choice(workloads.HARMONIC_DEGREES)
    m = 0 if zonal else rng.choice([m for m in range(-l, l + 1) if m != 0])
    return {"t0": _u(rng, -0.5, 0.5), "perturbation": f"Y{l},{m}",
            "amplitude": _u(rng, 0.03, 0.08)}


# family: (ladder, size, candidate from an rng)
FAMILIES = {
    "refine:flat-torus": (workloads.REFINE, 24, lambda g: {"r": _u(g, 0.55, 0.85)}),
    "refine:geodesic-sphere": (workloads.REFINE, 24, lambda g: {"rho": _u(g, 0.5, 2.6)}),
    "refine:cosh-slice": (workloads.REFINE, 24, lambda g: {"t0": _u(g, -1.0, 1.0)}),
    "refine:product-slice": (workloads.REFINE, 24, lambda g: {"t0": _u(g, -1.5, 1.5)}),
    "refine:cosh-zonal-graph": (workloads.REFINE, 24, lambda g: _graph(g, True)),
    "refine:cosh-graph": (workloads.REFINE, 40, lambda g: _graph(g, False)),
    "refine:product-graph": (workloads.REFINE, 40, lambda g: _graph(g, False)),
    "coarse:flat-torus": (workloads.COARSE, 40, lambda g: {"r": _u(g, 0.55, 0.85)}),
    "coarse:geodesic-sphere": (workloads.COARSE, 24, lambda g: {"rho": _u(g, 0.5, 2.6)}),
    "coarse:cosh-graph": (workloads.COARSE, 40, lambda g: _graph(g, False)),
    "coarse:product-graph": (workloads.COARSE, 24, lambda g: _graph(g, False)),
    # balancing converges for 0.4 <= rho <= 2.5 at 48x48; one op per half
    "balance:geodesic-sphere-low": ((workloads.BALANCE_RESOLUTION,), 24,
                                    lambda g: {"rho": _u(g, 0.45, 1.45)}),
    "balance:geodesic-sphere-high": ((workloads.BALANCE_RESOLUTION,), 24,
                                     lambda g: {"rho": _u(g, 1.45, 2.45)}),
}


def shape(ss, family: str, params: dict, n: int):
    """The catalog spec of a pool entry at resolution n x n."""
    kind = family.split(":")[1]
    res = (n, n)
    if kind == "flat-torus":
        return ss.flat_torus(params["r"], res)
    if kind.startswith("geodesic-sphere"):
        return ss.geodesic_sphere(params["rho"], res)
    if kind.endswith("-slice"):
        return ss.slice_shape(kind.split("-")[0], params["t0"], res)
    return ss.graph_over_slice(kind.split("-")[0], params["t0"], params["perturbation"],
                               params["amplitude"], res)


def solves(ss, family: str, params: dict, ladder) -> bool:
    """Whether the CLI's pipeline gets through every resolution of the op."""
    for n in ladder:
        surface = ss.build(shape(ss, family, params, n))
        try:
            pencil = ss.assemble(surface, ss.compute_geometry(surface, want_gauss=True))
            ss.smallest_eigenpairs(pencil, 6, tol=1e-9, seed=0)
        except (ss.AssemblyError, ss.NonConvergenceError):
            return False
    return True


def main() -> int:
    env = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    if any(os.environ.get(k) != v for k, v in env.items()):
        # screen in the same numerical setting as the workload processes
        os.execve(sys.executable, [sys.executable, __file__], {**os.environ, **env})
    sys.path.insert(0, str(BENCH.parent / "src"))
    import stabspec as ss

    pool: dict[str, list[dict]] = {}
    for family, (ladder, size, draw) in FAMILIES.items():
        rng = random.Random(family)
        kept, dropped = [], []
        while len(kept) < size:
            params = draw(rng)
            if params in kept or params in dropped:
                continue
            (kept if solves(ss, family, params, ladder) else dropped).append(params)
        pool[family] = kept
        print(f"{family}: kept {len(kept)}, dropped {len(dropped)} {dropped}", flush=True)
    with open(POOL, "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
