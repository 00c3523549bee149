"""Resilience machinery: typed errors, search budgets, isolation.

The scheduler's exhaustive search and the experiment harness both need
to fail *well*: invalid knobs are rejected at construction time with the
offending field named, searches run under wall-clock/node budgets and
degrade to a deterministic greedy fallback instead of hanging, and
experiment cells run crash-isolated with per-cell status reporting (an
interrupted run resumes from its artifact and the DSE cache).

Public surface:

* :mod:`repro.resilience.errors` — the ``ReproError`` hierarchy.
* :mod:`repro.resilience.backoff` — shared retry-delay policy with
  deterministic seeded jitter.
* :mod:`repro.resilience.budget` — ``SearchBudget`` / ``BudgetMeter``.
* :mod:`repro.resilience.isolation` — crash-isolated cell execution
  and the resumable experiment artifact.
"""

from repro.resilience.backoff import DEFAULT_BACKOFF, BackoffPolicy
from repro.resilience.budget import BudgetMeter, SearchBudget
from repro.resilience.errors import (
    CacheError,
    ConfigError,
    GraphInvariantError,
    InfeasibleScheduleError,
    InvariantViolation,
    ReproError,
    SearchBudgetExceeded,
    SimulationError,
    VerificationError,
)
from repro.resilience.isolation import CellStatus, RunArtifact, run_isolated

__all__ = [
    "ReproError",
    "CacheError",
    "ConfigError",
    "GraphInvariantError",
    "InfeasibleScheduleError",
    "InvariantViolation",
    "SearchBudgetExceeded",
    "SimulationError",
    "VerificationError",
    "BackoffPolicy",
    "DEFAULT_BACKOFF",
    "SearchBudget",
    "BudgetMeter",
    "CellStatus",
    "RunArtifact",
    "run_isolated",
]
