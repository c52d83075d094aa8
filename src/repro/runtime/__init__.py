"""Experiment runtime: repetition fan-out, seed trees, progress reporting."""

from .executor import (
    TaskError,
    block_parameter_rng,
    block_seed_spec,
    run_ensemble_reduced,
    run_tasks,
    seeds_from_spec,
    shared_param_block_size,
)
from .fabric import FabricSession, current_fabric
from .progress import NullReporter, ProgressReporter, make_reporter
from .seeding import SeedTree

__all__ = [
    "run_ensemble_reduced",
    "run_tasks",
    "block_parameter_rng",
    "block_seed_spec",
    "seeds_from_spec",
    "shared_param_block_size",
    "TaskError",
    "FabricSession",
    "current_fabric",
    "SeedTree",
    "NullReporter",
    "ProgressReporter",
    "make_reporter",
]
