"""Statistics over runs and aggregation across repetitions."""

from .aggregate import (
    MeanProfile,
    ReducerBundle,
    ScalarAggregate,
    StreamingProfile,
    StreamingScalar,
    aggregate_scalar,
    fraction_true,
    mean_profile_by_position,
    mean_sorted_profile,
)
from .convergence import AdaptiveEstimate, run_until_ci
from .optimize import ExponentSearchResult, exponent_sweep, optimal_exponent
from .precision import (
    AdaptiveRecorder,
    PrecisionError,
    PrecisionTarget,
    SequentialMonitor,
    default_block_statistics,
    student_t_quantile,
)
from .stats import (
    LoadStats,
    argmax_bins,
    load_gap,
    load_stats,
    max_load,
    max_load_location_by_class,
    max_load_location_by_class_matrix,
    per_class_max_loads,
)

__all__ = [
    "LoadStats",
    "load_stats",
    "max_load",
    "load_gap",
    "argmax_bins",
    "max_load_location_by_class",
    "max_load_location_by_class_matrix",
    "per_class_max_loads",
    "MeanProfile",
    "mean_sorted_profile",
    "mean_profile_by_position",
    "ScalarAggregate",
    "aggregate_scalar",
    "fraction_true",
    "StreamingProfile",
    "StreamingScalar",
    "ReducerBundle",
    "ExponentSearchResult",
    "exponent_sweep",
    "optimal_exponent",
    "AdaptiveEstimate",
    "run_until_ci",
    "PrecisionTarget",
    "PrecisionError",
    "SequentialMonitor",
    "AdaptiveRecorder",
    "default_block_statistics",
    "student_t_quantile",
]
