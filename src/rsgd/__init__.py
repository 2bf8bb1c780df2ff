"""Stochastic gradient descent on manifolds with flexible batch forming,
deterministic and adaptive step sizes, and confinement certificates that keep
iterates inside a compact sublevel set.
"""

from .batching import (
    BatchPlan,
    BatchSizes,
    SegmentPlan,
    StratifiedPlan,
    SubsetPlan,
    enumerate_expectation,
    variance_report,
)
from .confinement import (
    ConfinementConstants,
    ConfinementSpec,
    check_kappa_confinement,
    check_plain_confinement,
    estimate_constants,
    norm_squared_confinement,
    run_confined_adaptive_many,
    run_confined_deterministic,
    run_confined_deterministic_many,
)
from .diagnostics import (
    LipschitzEstimate,
    MartingaleTrace,
    adaptive_square_sums,
    check_descent_inequality,
    check_gradient_square_difference,
    convergence_metrics,
    estimate_lipschitz,
    finite_difference_gradient_check,
    martingale_summary,
    track_martingale,
)
from .driver import RunConfig, run_adaptive, run_deterministic, run_many
from .errors import (
    ConfigError,
    ConfinementViolation,
    DegenerateRetraction,
    EnumerationBudgetExceeded,
    InvalidHyperparameters,
    InvalidPlan,
    SamplerFailure,
    UnboundedRegion,
)
from .manifolds import Euclidean, Manifold, Sphere
from .problems import (
    FiniteSampleSpace,
    GradientOracle,
    RegularizedLeastSquaresProblem,
    SphereMeanProblem,
    load_least_squares_csv,
    load_sphere_mean_csv,
    random_least_squares,
    random_sphere_mean,
)
from .records import Trajectory, read_trajectory_csv
from .schedules import (
    AdaptiveRate,
    ExplicitSchedule,
    PowerLawSchedule,
    ScheduleCheck,
    cumulative_squares,
    sum_of_squares,
    validate_robbins_monro,
)

__version__ = "0.1.0"
