"""Analytical results of the paper as evaluatable functions and checkers."""

from .bounds import (
    corollary1_bound,
    loglog_over_logd,
    observation1_bound,
    observation2_bound,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_standard_game,
    theorem5_bound,
)
from .conditions import (
    ConditionReport,
    applicable_theorems,
    corollary1_applies,
    theorem1_applies,
    theorem2_applies,
    theorem3_applies,
    theorem5_applies,
)

__all__ = [
    "loglog_over_logd",
    "observation1_bound",
    "theorem1_bound",
    "theorem2_bound",
    "theorem3_bound",
    "theorem4_standard_game",
    "observation2_bound",
    "corollary1_bound",
    "theorem5_bound",
    "ConditionReport",
    "theorem1_applies",
    "theorem2_applies",
    "theorem3_applies",
    "corollary1_applies",
    "theorem5_applies",
    "applicable_theorems",
]
