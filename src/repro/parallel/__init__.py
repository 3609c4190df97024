"""Parallel sharded execution for sweeps (see ``docs/parallelism.md``).

The package turns the unit of work implicit everywhere in this repository
— a ``(dataset, method, seed, config)`` cell — into an explicit shard that
a ``spawn``-context process pool can execute, under three contracts:

* **deterministic seeding** (:mod:`repro.parallel.seeds`): per-cell seeds
  are derived from a root seed and the cell's identity, never from the
  schedule, so an N-worker run is bit-identical to the inline run;
* **shard isolation** (:mod:`repro.parallel.shards`): a failed or crashed
  cell becomes a structured failure outcome, not a dead sweep, reusing the
  resilience layer's failure-row semantics;
* **ordered observability merge** (:mod:`repro.parallel.merge`): per-shard
  run ledgers, trace spans and metrics merge back into the parent bundle
  in cell order under ``shard_start`` / ``shard_merge`` framing.

Every sweep runs through :class:`ShardRunner` — inline at the default
``workers=1``.  Entry points that accept ``workers=``:
:func:`repro.eval.harness.run_methods`, the Figure 3 sweeps in
:mod:`repro.experiments.synthetic_exp`, the scenario harness, and the
CLI's ``experiment`` / ``scenario --workers N``.  ML cross-validation
(:mod:`repro.ml.crossval`) runs its folds as inline cells.
"""

from repro.parallel.merge import (
    merge_shard_metrics,
    merge_shard_outcomes,
    merge_shard_runlogs,
    merge_shard_traces,
)
from repro.parallel.seeds import derive_seed, spawn_seeds
from repro.parallel.shards import (
    CellOutcome,
    DatasetSpec,
    ShardError,
    ShardRunner,
    resolve_dataset,
    resolve_workers,
)

__all__ = [
    "CellOutcome",
    "DatasetSpec",
    "ShardError",
    "ShardRunner",
    "derive_seed",
    "merge_shard_metrics",
    "merge_shard_outcomes",
    "merge_shard_runlogs",
    "merge_shard_traces",
    "resolve_dataset",
    "resolve_workers",
    "spawn_seeds",
]
