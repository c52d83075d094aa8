"""Core: the paper's greedy d-choice protocol and its analysis machinery."""

from .baselines import one_choice, standard_greedy
from .compiled import run_batch_compiled
from .dynamics import DynamicsResult, simulate_insert_delete
from .ensemble import (
    EnsembleResult,
    EnsembleSnapshot,
    run_batch_ensemble,
    simulate_ensemble,
)
from .heights import HeightSummary, split_heights_by_big_contact, summarize_heights
from .loadvectors import (
    loads_from_counts,
    normalized_load_vector,
    normalized_slot_load_vector,
    slot_load_vector,
    slot_owners_by_position,
)
from .majorization import (
    CoupledRunResult,
    coupled_domination_run,
    empirical_max_load_domination,
    majorizes,
)
from .migration import (
    MigrationPlan,
    expected_displaced_from_scratch,
    migration_cost_from_scratch,
    rebalance_waterfill,
)
from .policy import HAVE_NUMBA, TIERS, forced_tier, use_wavefront
from .protocol import TIE_BREAKS, allocate_ball, select_bin
from .rounds import simulate_batched, simulate_batched_ensemble
from .simulation import SimulationResult, Snapshot, simulate
from .wavefront import WavefrontStats, WavefrontWorkspace, run_batch_wavefront
from .weighted import (
    WeightedEnsembleResult,
    WeightedResult,
    simulate_weighted,
    simulate_weighted_ensemble,
)

__all__ = [
    "simulate",
    "SimulationResult",
    "Snapshot",
    "simulate_ensemble",
    "run_batch_ensemble",
    "EnsembleResult",
    "EnsembleSnapshot",
    "run_batch_wavefront",
    "use_wavefront",
    "WavefrontStats",
    "WavefrontWorkspace",
    "run_batch_compiled",
    "HAVE_NUMBA",
    "TIERS",
    "forced_tier",
    "select_bin",
    "allocate_ball",
    "TIE_BREAKS",
    "one_choice",
    "standard_greedy",
    "loads_from_counts",
    "normalized_load_vector",
    "slot_load_vector",
    "normalized_slot_load_vector",
    "slot_owners_by_position",
    "majorizes",
    "coupled_domination_run",
    "CoupledRunResult",
    "empirical_max_load_domination",
    "HeightSummary",
    "summarize_heights",
    "split_heights_by_big_contact",
    "simulate_weighted",
    "WeightedResult",
    "simulate_weighted_ensemble",
    "WeightedEnsembleResult",
    "simulate_batched",
    "simulate_batched_ensemble",
    "DynamicsResult",
    "simulate_insert_delete",
    "MigrationPlan",
    "rebalance_waterfill",
    "migration_cost_from_scratch",
    "expected_displaced_from_scratch",
]
