"""Conformal metrics with prescribed negative curvature and singularities.

Solves -Delta v = K e^{2(S+v)} - 2 pi sum(beta) on the flat unit torus for
divisors of conical (beta > -1) and near-cusp weights, continues cones to
cusps, and provides curvature-measure diagnostics (flux residues, Kelvin
transforms, neck areas, bubble-tree area identities) on closed-form model
geometries.
"""

from .bubbles import (
    AreaIdentityReport,
    BlowupSeq,
    NeckLimitReport,
    NeckReport,
    SyntheticFamily,
    ThreeCircleReport,
    ValidationReport,
    area_identity_check,
    classify_pair,
    list_fixtures,
    load_fixture,
    neck_area_profile,
    neck_curvature_limit,
    plane_area,
    rescale,
    three_circle_check,
    validate_family,
)
from .continuation import (
    ContinuationResult,
    ContinuationSchedule,
    ScanReport,
    ScheduleStep,
    StageReport,
    cusp_schedule,
    mollify_curvature,
    no_bubble_scan,
    run_continuation,
)
from .errors import (
    CmlabError,
    ConfigError,
    CurvatureSignError,
    InfeasibleTopology,
    NonConvergence,
    NonStabilizingFlux,
    ResidualOverflow,
    StageFailure,
)
from .green import SingularSplit, TorusGreen, green_kernel, green_torus, singular_part
from .grids import (
    TAU,
    DiskChart,
    Field,
    LogPolarChart,
    TorusChart,
    bilinear_torus,
    constant,
    integral,
    interpolate,
    neg_laplacian,
    parse_descriptor,
    poisson_mean_zero,
    sample,
    torus_distance,
)
from .io import (
    canonical_json,
    emit_plot_data,
    read_field,
    read_report,
    write_csv,
    write_field,
    write_report,
)
from .measures import (
    Divisor,
    FluxProfile,
    SignedMeasureSample,
    euler_characteristic,
    flux_profile,
    kelvin_transform,
    newtonian_potential,
    pairing,
    residue,
    residue_profiled,
)
from .models import (
    LinearCylinder,
    cap_profile,
    cusp_profile,
    flat_neck_profile,
)
from .solver import (
    CurvatureSpec,
    Solution,
    UniquenessReport,
    metric_area,
    newton_solve,
    radial_length,
    random_smooth_field,
    residual,
    solve_divisor,
    uniqueness_probe,
)

__version__ = "1.0.0"
