"""Exception types shared across the toolkit.

Each class carries the process exit code the CLI returns for it: invalid
input, configuration or hypotheses exit 2, numerical failures exit 3.  A
verified inequality failing beyond tolerance is a verdict, not an error,
and exits 4.
"""

from __future__ import annotations


class StabspecError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class DomainError(StabspecError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class HypothesisError(StabspecError):
    """A bound check was invoked on input violating its hypotheses.

    Carries a human-readable statement of the violated hypothesis.
    """


class DegenerateChartError(StabspecError):
    """The induced metric is numerically singular at some node."""

    exit_code = 3

    def __init__(self, node: int, det: float, threshold: float):
        self.node = int(node)
        self.det = float(det)
        self.threshold = float(threshold)
        super().__init__(
            f"chart is degenerate at node {node}: det(metric)={det:.3e} "
            f"below threshold {threshold:.3e}"
        )


class UnsupportedAmbientError(StabspecError):
    """Operation is not defined for the ambient space of this surface."""


class AssemblyError(StabspecError):
    """Operator assembly failed (non-positive mass, inconsistent fields...)."""

    exit_code = 3


class NonConvergenceError(StabspecError):
    """An iteration exhausted its budget; carries the best residuals seen."""

    exit_code = 3

    def __init__(self, message: str, residuals=None):
        self.residuals = residuals
        super().__init__(message)


class MeshTooCoarseError(StabspecError):
    """A discrete quantity that must be integral is too far from an integer."""

    exit_code = 3


class ConfigError(StabspecError, ValueError):
    """A scenario configuration file or CLI flag could not be interpreted."""
