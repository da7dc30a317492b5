"""Numerical stability spectra of surfaces in the 3-sphere and warped products.

Pipeline: analytic charts over structured grids -> discrete surface
geometry (inverse metric, area element, curvatures) -> symmetric
generalized eigenproblem for the stability operator -> eigenvalue bounds
(theorem checks), conformal balancing certificates, and refinement
studies with machine-readable reports.
"""

from .errors import (
    AssemblyError,
    ConfigError,
    DegenerateChartError,
    DomainError,
    HypothesisError,
    MeshTooCoarseError,
    NonConvergenceError,
    StabspecError,
    UnsupportedAmbientError,
)
from .warping import (
    AmbientCurvature,
    WarpingFunction,
    builtin_warping,
    condition_strictness,
    convexity_condition,
    harmonic_multiplicity,
    polynomial_warping,
    ricci_direction,
    slice_eigenvalue_band,
    slice_lambda2,
    slice_spectrum,
)
from .grids import Grid, sphere_grid, torus_grid
from .charts import JetChart, real_sph_harm
from .surfaces import (
    GeometryFields,
    ImmersedSurface,
    Sphere3,
    WarpedProduct,
    compute_geometry,
    euler_characteristic,
    total_curvature,
)
from .catalog import (
    ShapeSpec,
    build,
    clifford_torus,
    exact_jacobi_spectrum,
    flat_torus,
    geodesic_sphere,
    graph_over_slice,
    perturbed_torus,
    slice_shape,
)
from .assembly import OperatorPencil, assemble, rayleigh
from .eigen import (
    Spectrum,
    cluster_indices,
    eigenvalue_multiplicity,
    smallest_eigenpairs,
)
from .conformal import (
    MobiusParam,
    balanced_bound_report,
    hersch_balance,
    mobius_apply,
)
from .harness import (
    Report,
    balance_bound_scenario,
    check_theorem,
    convergence_study,
    observed_order,
    report_tolerance,
    richardson_extrapolate,
    slice_spectrum_report,
    sweep_flat_torus,
    sweep_graph_amplitude,
    write_csv_summary,
    write_json_report,
)

__version__ = "0.1.0"
