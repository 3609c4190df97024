"""Core contribution: the IncEstimate incremental corroboration algorithm.

The extra selection strategies (:mod:`repro.core.variants`) and per-fact
provenance (:mod:`repro.core.explain`) are imported from their modules:
the refresh path runs neither, so the package does not load them.
"""

from repro.core.entropy import binary_entropy, binary_entropy_array, collective_entropy
from repro.core.fact_groups import FactGroup, group_facts, group_probability
from repro.core.incestimate import IncEstimate, RoundRecord
from repro.core.result import CorroborationResult, Corroborator
from repro.core.scoring import (
    DECISION_THRESHOLD,
    DEFAULT_TRUST,
    corroborate,
    decide,
    update_trust,
)
from repro.core.selection import (
    IncEstHeu,
    IncEstPS,
    Selection,
    SelectionContext,
    SelectionItem,
    SelectionStrategy,
)
from repro.core.trust import TrustTrajectory

__all__ = [
    "CorroborationResult",
    "Corroborator",
    "DECISION_THRESHOLD",
    "DEFAULT_TRUST",
    "FactGroup",
    "IncEstHeu",
    "IncEstPS",
    "IncEstimate",
    "RoundRecord",
    "Selection",
    "SelectionContext",
    "SelectionItem",
    "SelectionStrategy",
    "TrustTrajectory",
    "binary_entropy",
    "binary_entropy_array",
    "collective_entropy",
    "corroborate",
    "decide",
    "group_facts",
    "group_probability",
    "update_trust",
]
