"""Riemannian calculus on the Wasserstein space of circle densities.

The package spans the differential-geometric side (Otto metric, Lie
brackets, Levi-Civita connection, geodesics, parallel transport, curvature)
and two independent validation oracles (exact circular optimal transport via
quantiles, linear-programming transport on atom clouds).  `ottocircle
validate` runs the full cross-check suite from the command line.
"""

from .errors import (
    AliasingError,
    CausticError,
    CompatibilityError,
    ConditioningWarning,
    ConfigError,
    DomainError,
    FoldError,
    GridMismatchError,
    NumericalError,
    StiffnessError,
)
from .grid import (
    TWO_PI,
    GridSpec,
    OneForm,
    ScalarField,
    basis_matrix,
    deriv,
    eval_trig,
    field_from_coeffs,
    integrate,
    trig_coefficients,
)
from .density import (
    Density,
    cosine_density,
    density_from_csv,
    density_to_csv,
    make_density,
    pushforward_monotone,
    uniform_density,
    weighted_inner,
)
from .operators import (
    WeightedOperatorContext,
    div_mu,
    green_mu_coeffs,
    laplace_mu,
    project_exact,
)
from .tangent import (
    TangentVector,
    flow_constant_field,
    flow_map,
    metric_gram,
    otto_inner,
    otto_norm,
    vector_from_potential,
)
from .connection import (
    ChristoffelTensor,
    christoffel,
    christoffel_residual,
    covariant_derivative,
    lie_bracket,
    parallel_transport,
)
from .geodesics import (
    GeodesicPath,
    action,
    constant_speed_report,
    continuity_residual,
    displacement_path,
    first_caustic_time,
    flow_path,
    geodesic_christoffel,
    geodesic_hj,
    path_to_csv,
    speed_squared_series,
)
from .curvature import (
    TTensor,
    riemann,
    riemann_fd_oracle,
    sectional,
    t_tensor,
)
from .ot_oracle import (
    CircleDistanceSolver,
    TransportPlan,
    TransportResult,
    circular_distance,
    density_atoms,
    transport_lp,
    w2_lp,
)
from .validation import ValidationSession, format_record, run_all

__version__ = "0.1.0"
