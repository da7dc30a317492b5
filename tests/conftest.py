"""Shared fixtures, cached solves, and the acceptance summary hook."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import stabspec as ss

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --------------------------------------------------------------------------
# acceptance bookkeeping: every acceptance test registers one line here and
# the terminal summary prints one PASS/FAIL line per criterion.
# --------------------------------------------------------------------------

ACCEPTANCE_CRITERIA = {
    1: "Clifford torus: lambda1 -> -4 and lambda2 -> -2 (x4) at 128x128, "
       "second-order convergence, under 60 s",
    2: "flat-torus radius sweep: lambda2 matches the closed form at 96x96 "
       "and extrapolates to <= -2 with equality only at r = 1/sqrt(2), "
       "under 180 s",
    3: "product and cosh slices: lambda2 -> 2 and 4 within 1e-3, "
       "under 60 s each",
    4: "equatorial geodesic sphere: lambda2 -> 0 within 1e-3",
    5: "graph-over-slice amplitude sweep: slice-bound margin positive and "
       "increasing, zero-amplitude margin within the reported tolerance",
    6: "geometric identities at 96x96: Gauss-equation residual <= 1e-4, "
       "total curvature matches 2*pi*chi to 1e-3, pointwise "
       "|shape|^2 >= 2H^2 - 1e-10",
    7: "conformal suite on the Clifford torus at |a| in {0, 0.2, 0.4}: "
       "Willmore integral constant, Dirichlet energy = twice image area, "
       "mean-curvature inequality holds",
    8: "balancing: residual <= 1e-9 of total weight, balanced bound >= "
       "lambda2 - 1e-8 everywhere, bound gap <= 1e-3 on the Clifford torus "
       "and geodesic spheres at 96x96",
    9: "solver guarantees at 24x24: residuals <= 1e-9, M-orthonormality "
       "to 1e-10, single-signed ground state, potential-shift identity to "
       "1e-12, reduced and sparse paths agree with a dense oracle to 1e-8",
}

_acceptance_results: dict[int, tuple[bool, str]] = {}


def record_acceptance(num: int, passed: bool, detail: str = "") -> None:
    _acceptance_results[num] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_CRITERIA):
        desc = ACCEPTANCE_CRITERIA[num]
        if num in _acceptance_results:
            ok, detail = _acceptance_results[num]
            status = "PASS" if ok else "FAIL"
        else:
            status, detail = "NOT RUN", ""
        line = f"criterion {num}: {status} - {desc}"
        if detail:
            line += f"  [{detail}]"
        tr.write_line(line)


# --------------------------------------------------------------------------
# cached solves shared across test modules
# --------------------------------------------------------------------------


@dataclass
class Solved:
    spec: "ss.ShapeSpec"
    surface: "ss.ImmersedSurface"
    fields: "ss.GeometryFields"
    pencil: "ss.OperatorPencil"
    spectrum: "ss.Spectrum"
    extras: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def solve():
    """Memoized build -> geometry -> assembly -> eigensolve pipeline."""
    cache: dict = {}

    def _solve(spec, k=6, want_gauss=False, seed=0):
        key = (spec.label, tuple(spec.resolution), k, want_gauss, seed)
        if key not in cache:
            surface = ss.build(spec)
            fields = ss.compute_geometry(surface, want_gauss=want_gauss)
            pencil = ss.assemble(surface, fields)
            spectrum = ss.smallest_eigenpairs(pencil, k, seed=seed)
            cache[key] = Solved(spec, surface, fields, pencil, spectrum)
        return cache[key]

    return _solve


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
