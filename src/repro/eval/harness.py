"""Experiment runner utilities shared by benchmarks and examples.

The harness runs a set of corroborators over a dataset, times them, and
collects paper-style metric rows.  Benchmarks and examples call these
helpers so that "the code that regenerates Table 4" exists in exactly one
place.

Each method is one cell of a :class:`~repro.parallel.ShardRunner` sweep:
inline at the default ``workers=1``, on a ``spawn`` pool above it, with
the same rows, ledger and metrics at every worker count.  Timing comes
from :mod:`repro.obs` spans — one ``harness.method`` span per corroborator
— so a traced harness run shows each method as a block in its shard's
trace lane, and the number reported in the timing table is the same
number the trace shows.  Progress goes through the library logger
(:func:`repro.obs.get_logger`); enable it with
``repro.obs.configure_logging("info")`` or the CLI's ``--log-level``.

Sweeps are **error-isolated** by default: a method that raises, or whose
result holds a NaN/inf trust or probability (:class:`MethodDiverged` — a
NaN trust silently poisons every downstream table), becomes a
:class:`MethodRun` failure row — ``result=None`` plus the exception — so
one diverging baseline does not kill a whole sweep; the metric tables
render failed methods as structured rows instead of dropping them.  With
``isolate_errors=False`` the sweep raises
:class:`~repro.parallel.ShardError` for the first failing method once
every method has run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re
import tempfile
from collections.abc import Sequence

from repro.core.result import CorroborationResult, Corroborator
from repro.eval.metrics import evaluate_result, quality_row, trust_mse_for
from repro.model.dataset import Dataset
from repro.obs import NULL_OBS, Obs, SpanTracer, get_logger
from repro.parallel.shards import DatasetSpec, ShardRunner, resolve_dataset
from repro.resilience.atomic import atomic_write_text
from repro.resilience.errors import ResilienceError

_LOG = get_logger(__name__)


class MethodDiverged(ResilienceError):
    """A method returned a non-finite trust or probability."""


@dataclasses.dataclass
class MethodRun:
    """One corroborator's run over one dataset, with timing.

    A *failure row* has ``result=None`` and carries the exception that the
    sweep isolated (``error_type`` is the exception class name, ``error``
    its message).  Successful rows have ``error is None``.
    """

    method: str
    result: CorroborationResult | None
    seconds: float
    error: str | None = None
    error_type: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def ok(self) -> bool:
        return self.error is None


def _first_non_finite(result: CorroborationResult) -> str | None:
    """First non-finite trust/probability in a result, or ``None``.

    A diverged method can still hand back a structurally valid result
    whose trust vector is NaN, and that must not reach the metric tables.
    """
    for name, values in (
        ("trust", result.trust),
        ("probabilities", result.probabilities),
    ):
        for key, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                return f"{name}[{key!r}] = {value!r}"
    return None


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _cached_run(directory: pathlib.Path, method_name: str) -> MethodRun | None:
    """A completed method's cached run from a sweep checkpoint directory."""
    from repro.model.io import result_from_json

    path = directory / f"{_slug(method_name)}.json"
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    if payload.get("method") != method_name:
        return None
    return MethodRun(
        method=method_name,
        result=result_from_json(json.dumps(payload["result"])),
        seconds=float(payload["seconds"]),
    )


def _cache_run(directory: pathlib.Path, run: MethodRun) -> None:
    from repro.model.io import result_to_json

    payload = {
        "method": run.method,
        "seconds": run.seconds,
        "result": json.loads(result_to_json(run.result)),
    }
    atomic_write_text(
        directory / f"{_slug(run.method)}.json", json.dumps(payload)
    )


def _method_cell(payload: tuple, obs: Obs) -> MethodRun:
    """One sweep cell: a single method over the (materialised) dataset.

    Module-level so the ``spawn`` pool can import it by reference.  The
    payload dataset may be a :class:`~repro.parallel.DatasetSpec`; it is
    materialised here, on the worker's side of the process boundary, so
    live resources (an open SQLite ledger) never cross it.  A raising or
    diverging method raises out of the cell and the runner isolates it;
    a successful run is cached (crash-safely) as soon as it completes.
    """
    method, dataset, directory = payload
    dataset = resolve_dataset(dataset)
    _LOG.info(
        "running %s on %d facts / %d sources",
        method.name,
        dataset.matrix.num_facts,
        dataset.matrix.num_sources,
    )
    tracer = obs.tracer if obs.tracer.enabled else SpanTracer()
    method.obs = obs
    with tracer.span("harness.method", method=method.name) as span:
        result = method.run(dataset)
    non_finite = _first_non_finite(result)
    if non_finite is not None:
        raise MethodDiverged(f"{method.name}: non-finite {non_finite}")
    _LOG.info("%s finished in %.3fs", method.name, span.duration_s)
    run = MethodRun(method=method.name, result=result, seconds=span.duration_s)
    if directory is not None:
        _cache_run(directory, run)
    return run


def run_methods(
    methods: Sequence[Corroborator],
    dataset: Dataset | DatasetSpec,
    obs: Obs = NULL_OBS,
    *,
    isolate_errors: bool = True,
    checkpoint_dir: str | pathlib.Path | None = None,
    resume: bool = False,
    workers: int = 1,
) -> list[MethodRun]:
    """Run every corroborator on the dataset, span-timing each.

    Args:
        methods: corroborators to run, in order.
        dataset: the dataset every method runs on, or a
            :class:`~repro.parallel.DatasetSpec` reference materialised
            lazily (inside each worker on a pool).
        obs: observability bundle.  Each method runs under a
            ``harness.method`` span with ``method.obs`` set to its cell's
            bundle; the cells' ledgers, spans and metrics merge back into
            ``obs`` in method order under ``shard_start`` /
            ``shard_merge`` framing.  Each method's own ``obs`` is
            restored afterwards.  With the default no-op bundle a private
            tracer still supplies the wall-clock numbers (spans are the
            single timing source), but nothing else is recorded.
        isolate_errors: turn a raising or diverging method into a failure
            row (default); when ``False``, raise
            :class:`~repro.parallel.ShardError` for the first failing
            method after every method has run.
        checkpoint_dir: when set, each *successful* method's result is
            written here (crash-safely) as it completes.
        resume: with ``checkpoint_dir``, skip methods whose cached result
            is already present — a killed sweep restarts where it left off.
        workers: ``1`` (default) runs the methods inline; ``N`` runs them
            on a ``spawn`` pool of ``N`` workers; ``0`` means the CPU
            count.  Rows, ledger and metrics are the same for every count.
    """
    directory: pathlib.Path | None = None
    if checkpoint_dir is not None:
        directory = pathlib.Path(checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
    runs: list[MethodRun | None] = [None] * len(methods)
    cells: list[tuple[int, Corroborator]] = []
    for slot, method in enumerate(methods):
        cached = None
        if resume and directory is not None:
            cached = _cached_run(directory, method.name)
        if cached is not None:
            _LOG.info("%s: cached result found, skipping", method.name)
            runs[slot] = cached
        else:
            cells.append((slot, method))
    if not cells:
        return runs
    runner = ShardRunner(
        workers=workers, isolate_errors=isolate_errors, obs=obs, label="harness"
    )
    # Inline cells share one materialised dataset.  A pool would pickle
    # the full vote matrix once per method cell: spill a caller's Dataset
    # to a temporary JSON file and ship the tiny spec instead.
    spill: tempfile.TemporaryDirectory | None = None
    shipped: Dataset | DatasetSpec = dataset
    if min(runner.workers, len(cells)) <= 1:
        shipped = resolve_dataset(dataset)
    elif isinstance(dataset, Dataset):
        from repro.model.io import save_dataset

        spill = tempfile.TemporaryDirectory(prefix="harness-dataset-")
        path = pathlib.Path(spill.name) / "dataset.json"
        save_dataset(dataset, path)
        shipped = DatasetSpec.from_json(path)
    own_obs = [method.obs for _, method in cells]
    try:
        # Cells rebind obs; live parent sinks must not ride along in a pickle.
        for _, method in cells:
            method.obs = NULL_OBS
        outcomes = runner.run(
            _method_cell,
            [(method, shipped, directory) for _, method in cells],
            labels=[method.name for _, method in cells],
        )
    finally:
        for (_, method), method_obs in zip(cells, own_obs):
            method.obs = method_obs
        if spill is not None:
            spill.cleanup()
    for outcome, (slot, method) in zip(outcomes, cells):
        run = outcome.value
        if outcome.failed:
            run = MethodRun(
                method=method.name,
                result=None,
                seconds=outcome.seconds,
                error=outcome.error,
                error_type=outcome.error_type,
            )
            if obs.enabled:
                obs.metrics.inc("harness.method_failures")
                obs.runlog.emit(
                    "method_failure",
                    method=run.method,
                    error_type=run.error_type,
                    error=run.error,
                    seconds=run.seconds,
                )
        runs[slot] = run
    return runs


def _failure_cell(run: MethodRun) -> str:
    return f"failed: {run.error_type}"


def quality_table(runs: Sequence[MethodRun], dataset: Dataset) -> list[dict]:
    """Table 4-style rows (precision / recall / accuracy / F1) per method."""
    rows: list[dict] = []
    for run in runs:
        if run.failed:
            rows.append({"method": run.method, "precision": _failure_cell(run)})
        else:
            rows.append(quality_row(run.result, dataset))
    return rows


def mse_table(runs: Sequence[MethodRun], dataset: Dataset) -> list[dict]:
    """Table 5-style rows: per-source trust plus the trust MSE per method.

    The first row holds the ground-truth source accuracies.
    """
    sources = dataset.sources
    rows: list[dict] = []
    actual = dataset.true_source_accuracies()
    truth_row: dict = {"method": "Source accuracy"}
    for source in sources:
        value = actual[source]
        truth_row[source] = value if value is not None else "-"
    truth_row["MSE"] = "-"
    rows.append(truth_row)
    for run in runs:
        row: dict = {"method": run.method}
        if run.failed:
            row["MSE"] = _failure_cell(run)
            rows.append(row)
            continue
        for source in sources:
            row[source] = run.result.trust.get(source, "-")
        row["MSE"] = trust_mse_for(run.result, dataset)
        rows.append(row)
    return rows


def timing_table(runs: Sequence[MethodRun]) -> list[dict]:
    """Table 6-style rows: wall-clock seconds per method.

    Failed methods keep their time-to-failure and gain a ``status`` cell.
    """
    rows: list[dict] = []
    for run in runs:
        row: dict = {"method": run.method, "seconds": run.seconds}
        if run.failed:
            row["status"] = _failure_cell(run)
        rows.append(row)
    return rows


def errors_table(runs: Sequence[MethodRun], dataset: Dataset) -> list[dict]:
    """Table 7-style rows: number of errors (FP + FN) per method.

    Failed methods appear with their failure instead of a count, so a
    diverged method is visible in the table rather than silently absent.
    """
    rows: list[dict] = []
    for run in runs:
        if run.failed:
            rows.append({"method": run.method, "errors": _failure_cell(run)})
        else:
            rows.append(
                {
                    "method": run.method,
                    "errors": evaluate_result(run.result, dataset).errors,
                }
            )
    return rows
