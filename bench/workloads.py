"""Seeded operations of each workload.

An op is one `stabspec` CLI scenario: its argument list, the check that
reads its reports, and the closed-form values that check expects.  A
workload is a cycle of op kinds; a run does whole cycles ("rounds").
Every op solves a shape no earlier op of the run used, so no op reuses a
chart another compiled, as no separate CLI process would.  Shapes solved
on the sparse eigen path come from the screened pool (pool.py); the rest
are drawn from the seed directly.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import checks

REFINE = (64, 128, 256)
COARSE = (16, 32, 64)
SWEEP = (16, 32)
BALANCE_RESOLUTION = 48
BALANCE_TOL = 1e-9
HARMONIC_DEGREES = (2, 3, 4)
POOL = Path(__file__).resolve().parent / "pool.json"


def res_arg(ladder) -> str:
    return "resolutions=" + ",".join(map(str, ladder))


def _ladder(ladder) -> str:
    return "refine" if ladder == REFINE else "coarse"


class Draw:
    """Inputs of one run from its seed, never the same shape twice."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set[str] = set()
        with open(POOL) as fh:
            self.pool: dict[str, list[dict]] = json.load(fh)

    def uniform(self, lo: float, hi: float) -> float:
        while True:
            text = f"{self.rng.uniform(lo, hi):.6f}"
            if text not in self.seen:
                self.seen.add(text)
                return float(text)

    def pick(self, family: str) -> dict:
        entries = self.pool[family]
        return entries.pop(self.rng.randrange(len(entries)))


def _op(kind, argv, check, expect):
    return {"kind": kind, "argv": argv, "check": check, "expect": expect}


# ----------------------------------------------------------------------
# op kinds: each takes a Draw and returns one op.  The observed order is
# checked on the 64..256 ladder only: at 16x16 a Y4,-4 graph still showed
# 2.27, before the asymptotic range.


def _flat_torus_t11(d: Draw, ladder=REFINE):
    r = d.pick(f"{_ladder(ladder)}:flat-torus")["r"]
    return _op("check t11 flat-torus",
               ["check", "t11", "shape=flat-torus", f"r={r}", res_arg(ladder)], "theorem",
               {"lambda2": checks.flat_torus_spectrum(r, 2)[1], "bound": -2.0,
                "order": ladder == REFINE})


def _sphere_converge(d: Draw, ladder=REFINE):
    rho = d.pick(f"{_ladder(ladder)}:geodesic-sphere")["rho"]
    return _op("converge geodesic-sphere",
               ["converge", "shape=geodesic-sphere", f"rho={rho}", res_arg(ladder)],
               "converge", {"lambda2": checks.sphere_band(rho, 1), "order": ladder == REFINE})


def _cosh_slice_t13(d: Draw):
    t0 = d.pick("refine:cosh-slice")["t0"]
    lam = checks.slice_band("cosh", t0, 1)
    return _op("check t13 cosh slice",
               ["check", "t13", "shape=slice", "warping=cosh", f"t0={t0}", res_arg(REFINE)],
               "theorem", {"lambda2": lam, "bound": lam, "equality": True, "order": True})


def _product_slice_converge(d: Draw):
    t0 = d.pick("refine:product-slice")["t0"]
    return _op("converge product slice",
               ["converge", "shape=slice", "warping=product", f"t0={t0}", res_arg(REFINE)],
               "converge", {"lambda2": checks.slice_band("product", t0, 1), "order": True})


def _graph_op(d: Draw, theorem: str, family: str, ladder, expect: dict):
    g = d.pick(family)
    warping = family.split(":")[1].split("-")[0]
    return _op(f"check {theorem} {family}",
               ["check", theorem, "shape=graph-over-slice", f"warping={warping}",
                f"t0={g['t0']}", f"perturbation={g['perturbation']}",
                f"amplitude={g['amplitude']}", res_arg(ladder)],
               "theorem", {"order": ladder == REFINE, **expect})


def _cosh_zonal_graph_t13(d: Draw):
    return _graph_op(d, "t13", "refine:cosh-zonal-graph", REFINE, {"margin_positive": True})


def _cosh_graph_t13(d: Draw, ladder=REFINE):
    return _graph_op(d, "t13", f"{_ladder(ladder)}:cosh-graph", ladder,
                     {"margin_positive": True})


def _product_graph_t12(d: Draw, ladder=REFINE):
    return _graph_op(d, "t12", f"{_ladder(ladder)}:product-graph", ladder,
                     {"margin_positive": True, "bound": 2.0})


def _esi_graph(d: Draw):
    return _graph_op(d, "esi", "coarse:cosh-graph", COARSE, {})


def _balance(family: str):
    def kind(d: Draw):
        rho = d.pick(family)["rho"]
        return _op("balance-bound geodesic-sphere",
                   ["balance-bound", "shape=geodesic-sphere", f"rho={rho}",
                    f"resolution={BALANCE_RESOLUTION}"], "balance",
                   {"param_norm": checks.balanced_param_norm(rho), "tol": BALANCE_TOL})
    return kind


def _sweep_flat_torus(d: Draw):
    rs = sorted(d.pick("coarse:flat-torus")["r"] for _ in range(3))
    members = [{"r": r, "lambda2": checks.flat_torus_spectrum(r, 2)[1], "bound": -2.0}
               for r in rs]
    return _op("sweep flat-torus",
               ["sweep", "flat-torus", "rs=" + ",".join(map(str, rs)), res_arg(SWEEP)],
               "sweep", {"key": "r", "members": members})


def _sweep_graph_amplitude(d: Draw):
    # dense eigen path only (16x16 and 32x32), so drawn directly
    t0 = d.uniform(-0.5, 0.5)
    pert = f"Y{d.rng.choice(HARMONIC_DEGREES)},0"
    amps = [0.0] + sorted(d.uniform(0.03, 0.1) for _ in range(2))
    lam = checks.slice_band("cosh", t0, 1)
    members = [{"amplitude": 0.0, "lambda2": lam, "bound": lam, "equality": True}]
    members += [{"amplitude": a, "margin_positive": True} for a in amps[1:]]
    return _op("sweep graph-amplitude",
               ["sweep", "graph-amplitude", "warping=cosh", f"t0={t0}",
                f"perturbation={pert}", "amplitudes=" + ",".join(map(str, amps)),
                res_arg(SWEEP)],
               "sweep", {"key": "amplitude", "members": members,
                         "increasing_margin": True})


def _slice_spectrum(d: Draw):
    warping = d.rng.choice(sorted(checks.WARPINGS))
    t0 = d.uniform(0.3, math.pi - 0.3) if warping == "sphere" else d.uniform(-1.5, 1.5)
    return _op(f"slice-spectrum {warping}",
               ["slice-spectrum", f"warping={warping}", f"t0={t0}", "count=8"],
               "slice-spectrum",
               {"eigenvalues": checks.slice_spectrum(warping, t0, 8),
                "lambda2": checks.slice_band(warping, t0, 1)})


def _coarse(kind):
    return lambda d: kind(d, COARSE)


# One round of each workload, in order.
ROUNDS = {
    "refine-symmetric": [_flat_torus_t11, _sphere_converge, _cosh_slice_t13,
                         _product_slice_converge, _cosh_zonal_graph_t13],
    "refine-generic": [_cosh_graph_t13, _product_graph_t12],
    "balance": [_balance("balance:geodesic-sphere-low"),
                _balance("balance:geodesic-sphere-high")],
    "sweep-coarse": [_coarse(_flat_torus_t11), _coarse(_product_graph_t12),
                     _coarse(_cosh_graph_t13), _esi_graph, _coarse(_sphere_converge),
                     _sweep_flat_torus, _sweep_graph_amplitude, _slice_spectrum],
}

# Seconds one round takes on the reference box (2 cores, one BLAS thread);
# a run of `seconds` does round(seconds / ROUND_SECONDS) rounds, at least one.
ROUND_SECONDS = {
    "refine-symmetric": 15.0,
    "refine-generic": 6.0,
    "balance": 40.0,
    "sweep-coarse": 4.0,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The ops of one run: whole rounds, inputs drawn from the seed."""
    draw = Draw(workload, seed)
    return [kind(draw)
            for _ in range(rounds_for(workload, seconds))
            for kind in ROUNDS[workload]]
