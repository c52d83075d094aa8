"""repro — reproduction of *Balls into Non-uniform Bins*.

Berenbrink, Brinkmann, Friedetzky, Nagel (IPDPS 2010 / JPDC 74(2), 2014).

The package implements the paper's weighted multiple-choice balls-into-bins
model end to end: the greedy capacity-aware allocation protocol
(Algorithm 1), the probability models over heterogeneous bins, the slot-
vector/majorisation analysis machinery, every analytical bound as an
evaluatable function, the motivating P2P (consistent hashing / Chord)
substrate, and one registered experiment per evaluation figure.

Quickstart
----------
>>> from repro import two_class_bins, simulate
>>> bins = two_class_bins(500, 500, small_capacity=1, large_capacity=10)
>>> result = simulate(bins, seed=7)          # m = C balls, d = 2 choices
>>> result.max_load < 3.0
True
"""

from .analysis import load_gap, load_stats, max_load
from .bins import (
    BinArray,
    binomial_random_bins,
    multi_class_bins,
    two_class_bins,
    uniform_bins,
)
from .core import (
    SimulationResult,
    majorizes,
    one_choice,
    simulate,
    standard_greedy,
)
from .experiments import list_experiments, run_experiment
from .sampling import (
    AliasSampler,
    PowerProbability,
    ProportionalProbability,
    ThresholdProbability,
    UniformProbability,
)
from .theory import theorem3_bound

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BinArray",
    "uniform_bins",
    "two_class_bins",
    "multi_class_bins",
    "binomial_random_bins",
    "simulate",
    "SimulationResult",
    "one_choice",
    "standard_greedy",
    "majorizes",
    "AliasSampler",
    "ProportionalProbability",
    "UniformProbability",
    "PowerProbability",
    "ThresholdProbability",
    "theorem3_bound",
    "load_stats",
    "max_load",
    "load_gap",
    "list_experiments",
    "run_experiment",
]
