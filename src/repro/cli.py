"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``corroborate`` — run a method over a votes CSV (optionally with a truth
  CSV for evaluation) and print / save the verdicts;
* ``generate`` — write one of the built-in datasets to a JSON file;
* ``experiment`` — regenerate one of the paper's tables or figures;
* ``report`` — build the full Markdown analysis report for a dataset;
* ``methods`` — list the available corroborators;
* ``scenario`` — run the adversarial / temporal scenario suite
  (:mod:`repro.scenarios`) and print per-scenario metric tables;
* ``trace-summary`` — aggregate a trace / runlog written by the two
  commands above;
* ``ingest`` — load a dataset or a votes CSV into a persistent vote
  ledger (:mod:`repro.store`), optionally refreshing its labels;
* ``query`` — inspect a ledger (one fact, one source, or a summary);
* ``serve`` — run the incremental corroboration HTTP service
  (:mod:`repro.serve`) over a ledger.  See ``docs/serving.md``.

``corroborate`` and ``experiment`` accept the observability flags
``--trace PATH`` (Chrome trace-event JSON, loadable in ui.perfetto.dev),
``--runlog PATH`` (append-only JSONL ledger) and ``--log-level`` (library
logger verbosity; progress goes to stderr, results stay on stdout).  See
``docs/observability.md``.

``experiment`` additionally takes ``--workers N`` to shard the run over a
``spawn`` process pool (0 = CPU count); every worker count produces
bit-identical tables — see ``docs/parallelism.md``.

Both also take ``--on-error {strict,skip,quarantine}`` (malformed-input
policy for ``corroborate``; failing-method isolation for ``experiment``),
and ``corroborate`` supports crash-safe checkpointing of the session-based
methods via ``--checkpoint DIR`` / ``--resume`` / ``--checkpoint-every N``
/ ``--max-steps N``.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.model.dataset import Dataset
from repro.model.io import (
    load_dataset,
    read_truth_csv,
    read_votes_csv,
    save_dataset,
    save_result,
)
from repro.obs import NULL_OBS, Obs, configure_logging, make_obs
from repro.resilience import CheckpointManager, ErrorPolicy, IngestReport
from repro.resilience.supervisor import FAIL_FAST, SUPERVISED, Supervision

if TYPE_CHECKING:
    from repro.core.result import Corroborator

# The modules above need neither numpy nor the algorithms.  Each command
# imports the rest of its stack (baselines, core, serve, ...) inside its
# handler, so ``ingest`` and ``query`` never load numpy.


def _baseline(name: str) -> Callable[[], Corroborator]:
    """A factory for the :mod:`repro.baselines` class ``name``."""

    def make() -> Corroborator:
        import repro.baselines

        return getattr(repro.baselines, name)()

    return make


def _incestimate(strategy: str) -> Callable[[], Corroborator]:
    """A factory for IncEstimate with the :mod:`repro.core` ``strategy``."""

    def make() -> Corroborator:
        import repro.core

        return repro.core.IncEstimate(getattr(repro.core, strategy)())

    return make


#: Registry of CLI method names.  Factories take no arguments; tuning is
#: done through the library API.
METHODS: dict[str, Callable[[], Corroborator]] = {
    "voting": _baseline("Voting"),
    "counting": _baseline("Counting"),
    "twoestimate": _baseline("TwoEstimate"),
    "threeestimate": _baseline("ThreeEstimate"),
    "bayesestimate": _baseline("BayesEstimate"),
    "bayesestimate-fast": _baseline("BayesEstimateFast"),
    "cosine": _baseline("Cosine"),
    "truthfinder": _baseline("TruthFinder"),
    "avglog": _baseline("AvgLog"),
    "invest": _baseline("Invest"),
    "pooledinvest": _baseline("PooledInvest"),
    "incestimate": _incestimate("IncEstHeu"),
    "incestimate-ps": _incestimate("IncEstPS"),
}

EXPERIMENTS = (
    "table2",
    "table3",
    "table7",
    "figure3a",
    "figure3b",
    "figure3c",
)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (``corroborate`` / ``experiment``)."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run here",
    )
    parser.add_argument(
        "--runlog",
        metavar="PATH",
        help="append a JSONL run ledger (one record per round) here",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="library logger verbosity (stderr; default: warning)",
    )


def _add_on_error_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--on-error",
        default="strict",
        choices=["strict", "skip", "quarantine"],
        help=(
            "malformed-input / failing-method policy: strict fails fast "
            "(default), skip drops bad rows, quarantine drops and reports "
            "them (see docs/robustness.md)"
        ),
    )


def _int_at_least(
    minimum: int, maximum: int | None = None
) -> Callable[[str], int]:
    """An argparse ``type`` for an integer >= ``minimum`` (and <=
    ``maximum``, when given): a bad value exits 2 with a usage line before
    the command opens anything."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type`` for a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _make_obs(args: argparse.Namespace) -> Obs:
    """Observability bundle + logging config from the parsed flags."""
    configure_logging(args.log_level)
    return make_obs(trace=bool(args.trace), runlog=args.runlog)


def _finish_obs(args: argparse.Namespace, obs: Obs) -> None:
    """Flush the bundle: write the trace (metrics ride along), close it."""
    if args.trace:
        obs.tracer.write(args.trace, other_data={"metrics": obs.metrics.snapshot()})
        print(f"trace written to {args.trace}")
    if args.runlog:
        print(f"runlog appended to {args.runlog}")
    obs.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Corroborating Facts from Affirmative Statements (EDBT 2014)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    corroborate = commands.add_parser(
        "corroborate", help="run a corroborator over a dataset"
    )
    source_group = corroborate.add_mutually_exclusive_group(required=True)
    source_group.add_argument("--votes", help="votes CSV (fact,source,vote)")
    source_group.add_argument("--dataset", help="dataset JSON (see 'generate')")
    corroborate.add_argument("--truth", help="truth CSV (fact,label,golden)")
    corroborate.add_argument(
        "--method", default="incestimate", choices=sorted(METHODS)
    )
    corroborate.add_argument("--output", help="write the result JSON here")
    corroborate.add_argument(
        "--show", type=int, default=10, help="how many false facts to print"
    )
    _add_on_error_arg(corroborate)
    corroborate.add_argument(
        "--checkpoint",
        metavar="DIR",
        help=(
            "save a crash-safe session checkpoint here after each round "
            "(incestimate / incestimate-ps only)"
        ),
    )
    corroborate.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint DIR if one exists",
    )
    corroborate.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="write the checkpoint every N rounds (default: 1)",
    )
    corroborate.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stop after N rounds (checkpoint saved; rerun with --resume "
            "to continue) — for scripted preemption tests"
        ),
    )
    _add_obs_args(corroborate)

    generate = commands.add_parser("generate", help="write a built-in dataset")
    generate.add_argument(
        "kind", choices=["motivating", "restaurants", "synthetic", "hubdub"]
    )
    generate.add_argument("--output", required=True)
    generate.add_argument("--num-facts", type=int, default=None)
    generate.add_argument("--seed", type=int, default=None)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset-size multiplier for the heavy experiments",
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shard the experiment over N spawn workers (0 = CPU count); "
            "results are bit-identical for every N — see docs/parallelism.md"
        ),
    )
    _add_on_error_arg(experiment)
    _add_obs_args(experiment)

    report = commands.add_parser("report", help="full Markdown analysis report")
    report_source = report.add_mutually_exclusive_group(required=True)
    report_source.add_argument("--votes")
    report_source.add_argument("--dataset")
    report.add_argument("--truth")
    report.add_argument("--output", help="write the Markdown here (default stdout)")
    report.add_argument(
        "--methods",
        nargs="+",
        default=["voting", "twoestimate", "incestimate"],
        choices=sorted(METHODS),
    )

    commands.add_parser("methods", help="list available corroborators")

    scenario = commands.add_parser(
        "scenario",
        help="run the adversarial / temporal scenario suite (docs/scenarios.md)",
    )
    scenario.add_argument(
        "--quick", action="store_true", help="small worlds (smoke tier)"
    )
    scenario.add_argument(
        "--seed", type=int, default=0, help="suite root seed (default: 0)"
    )
    scenario.add_argument(
        "--only",
        metavar="NAME",
        help="run a single suite scenario by name (e.g. copying)",
    )
    scenario.add_argument(
        "--spec",
        metavar="PATH",
        help="run one ScenarioSpec JSON file instead of the built-in suite",
    )
    scenario.add_argument(
        "--output", help="write the per-method metric rows as JSON here"
    )
    scenario.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard each scenario's method runs over N spawn workers",
    )
    _add_obs_args(scenario)

    trace_summary = commands.add_parser(
        "trace-summary", help="aggregate a --trace / --runlog file"
    )
    trace_summary.add_argument(
        "trace", nargs="?", help="Chrome trace JSON written by --trace"
    )
    trace_summary.add_argument(
        "--runlog", help="JSONL ledger written by --runlog"
    )

    ingest = commands.add_parser(
        "ingest", help="load votes into a persistent vote ledger"
    )
    ingest.add_argument("--store", required=True, help="SQLite ledger path")
    ingest_source = ingest.add_mutually_exclusive_group(required=True)
    ingest_source.add_argument("--dataset", help="dataset JSON to bulk-import")
    ingest_source.add_argument("--votes", help="votes CSV (fact,source,vote)")
    ingest.add_argument(
        "--refresh",
        action="store_true",
        help="refresh the labels after ingesting (default: leave pending)",
    )
    _add_on_error_arg(ingest)
    _add_obs_args(ingest)

    query = commands.add_parser("query", help="inspect a vote ledger")
    query.add_argument("--store", required=True, help="SQLite ledger path")
    query_what = query.add_mutually_exclusive_group(required=True)
    query_what.add_argument("--fact", help="print one fact's record")
    query_what.add_argument("--source", help="print one source's trust")
    query_what.add_argument(
        "--summary", action="store_true", help="print the store summary"
    )

    serve = commands.add_parser(
        "serve", help="run the corroboration HTTP service over a ledger"
    )
    serve.add_argument("--store", required=True, help="SQLite ledger path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_int_at_least(0, 65535), default=8080)
    serve.add_argument(
        "--retain-points",
        type=_int_at_least(1),
        metavar="N",
        help=(
            "trajectory compaction: keep only the newest N time points "
            "in the store (default: keep everything)"
        ),
    )
    serve.add_argument(
        "--slow-ms",
        type=_positive_float,
        metavar="MS",
        help="WARN (and count) requests taking at least MS milliseconds",
    )
    serve.add_argument(
        "--max-pending",
        type=_int_at_least(1),
        metavar="N",
        help=(
            "admission control: reject POST /votes with 429 once N facts "
            "are pending and a refresh cannot run (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--breaker-threshold",
        type=_int_at_least(1),
        default=3,
        metavar="N",
        help="consecutive refresh failures that trip the circuit breaker "
        "(default: 3)",
    )
    serve.add_argument(
        "--breaker-backoff",
        type=_positive_float,
        default=1.0,
        metavar="S",
        help="initial breaker cool-down in seconds, doubling per failed "
        "probe (default: 1.0)",
    )
    serve.add_argument(
        "--fail-refreshes",
        type=_int_at_least(0),
        default=0,
        metavar="N",
        help="chaos drill: inject failures into the first N refresh "
        "attempts (seeded FaultPlan; default: 0)",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the injected-fault plan (default: 0)",
    )
    _add_obs_args(serve)
    return parser


def _report_ingest(report: IngestReport, obs: Obs, policy: ErrorPolicy) -> None:
    """Surface one input's ingest accounting (ledger + stderr)."""
    if obs.enabled:
        obs.runlog.emit("ingest_report", **report.to_record())
    if policy is not ErrorPolicy.STRICT:
        print(report.summary(), file=sys.stderr)


def _load_cli_dataset(args: argparse.Namespace, obs: Obs = NULL_OBS) -> Dataset:
    policy = ErrorPolicy.coerce(getattr(args, "on_error", "strict"))
    strict = policy is ErrorPolicy.STRICT
    if getattr(args, "dataset", None):
        report = IngestReport()
        dataset = load_dataset(args.dataset, on_error=policy, report=report)
        _report_ingest(report, obs, policy)
        return dataset
    votes_report = IngestReport()
    matrix = read_votes_csv(args.votes, on_error=policy, report=votes_report)
    _report_ingest(votes_report, obs, policy)
    truth: dict[str, bool] = {}
    golden: frozenset[str] = frozenset()
    if args.truth:
        truth_report = IngestReport()
        truth, golden = read_truth_csv(
            args.truth,
            on_error=policy,
            report=truth_report,
            known_facts=None if strict else frozenset(matrix.facts),
        )
        _report_ingest(truth_report, obs, policy)
        truth = {f: v for f, v in truth.items() if f in matrix}
        golden = frozenset(f for f in golden if f in matrix)
    return Dataset(matrix=matrix, truth=truth, golden_set=golden, name="cli")


_SESSION_METHODS = ("incestimate", "incestimate-ps")


def _run_checkpointed(
    args: argparse.Namespace, method: Corroborator, dataset: Dataset, obs: Obs
):
    """Run a session-based method with checkpoint / resume / step budget.

    Returns the final :class:`CorroborationResult`, or ``None`` when the
    run stopped at ``--max-steps`` with a checkpoint saved (exit 0; rerun
    with ``--resume`` to continue).
    """
    manager = (
        CheckpointManager(args.checkpoint, every=args.checkpoint_every)
        if args.checkpoint
        else None
    )
    session = method.session(dataset)
    if args.resume and manager is not None:
        snapshot = manager.load()
        if snapshot is not None:
            session.restore(snapshot)
            print(
                f"resumed from {manager.path} at time point "
                f"{session.time_point}",
                file=sys.stderr,
            )
    steps = 0
    while not session.done:
        if args.max_steps is not None and steps >= args.max_steps:
            if manager is not None:
                manager.save(session, force=True)
                print(
                    f"stopped after {steps} step(s) at time point "
                    f"{session.time_point}; checkpoint saved to "
                    f"{manager.path} — rerun with --resume to continue"
                )
            else:
                print(f"stopped after {steps} step(s) (no --checkpoint set)")
            return None
        session.step()
        steps += 1
        if manager is not None:
            manager.save(session)
    return session.finalize()


def _cmd_corroborate(args: argparse.Namespace) -> int:
    from repro.eval import evaluate_result, render_table

    checkpointing = bool(
        args.checkpoint or args.resume or args.max_steps is not None
    )
    if checkpointing and args.method not in _SESSION_METHODS:
        print(
            "corroborate: --checkpoint/--resume/--max-steps require a "
            f"session-based method ({' or '.join(_SESSION_METHODS)})",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        print("corroborate: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    obs = _make_obs(args)
    dataset = _load_cli_dataset(args, obs)
    method = METHODS[args.method]()
    method.obs = obs
    with obs.tracer.span("corroborate", method=method.name):
        if checkpointing:
            result = _run_checkpointed(args, method, dataset, obs)
            if result is None:
                _finish_obs(args, obs)
                return 0
        else:
            result = method.run(dataset)
    print(dataset.summary())
    false_facts = result.false_facts()
    print(
        f"{method.name}: {len(result.true_facts())} facts true, "
        f"{len(false_facts)} false"
    )
    print("trust:", {s: round(t, 3) for s, t in result.trust.items()})
    if false_facts:
        shown = ", ".join(sorted(false_facts)[: args.show])
        print(f"false facts (first {args.show}): {shown}")
    if dataset.truth:
        counts = evaluate_result(result, dataset)
        print(
            render_table(
                [
                    {
                        "precision": counts.precision,
                        "recall": counts.recall,
                        "accuracy": counts.accuracy,
                        "f1": counts.f1,
                    }
                ]
            )
        )
    if args.output:
        save_result(result, args.output)
        print(f"result written to {args.output}")
    _finish_obs(args, obs)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import (
        generate_hubdub_like,
        generate_restaurants,
        generate_synthetic,
        motivating_example,
    )

    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.kind == "motivating":
        dataset = motivating_example()
    elif args.kind == "restaurants":
        if args.num_facts:
            kwargs["num_facts"] = args.num_facts
        dataset = generate_restaurants(**kwargs).dataset
    elif args.kind == "synthetic":
        if args.num_facts:
            kwargs["num_facts"] = args.num_facts
        dataset = generate_synthetic(**kwargs).dataset
    else:
        dataset = generate_hubdub_like(**kwargs).questions.to_dataset()
    save_dataset(dataset, args.output)
    print(f"{dataset.summary()}\nwritten to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import render_table
    from repro import experiments

    obs = _make_obs(args)
    # strict keeps the historical first-exception-aborts sweep; skip /
    # quarantine isolate a failing method into a structured failure row.
    supervision: Supervision = (
        FAIL_FAST if args.on_error == "strict" else SUPERVISED
    )
    workers = args.workers
    if workers is not None and workers < 0:
        print("experiment: --workers must be >= 0", file=sys.stderr)
        return 2
    with obs.tracer.span("experiment", experiment=args.name, scale=args.scale):
        if args.name == "table2":
            rows = experiments.table2(
                obs=obs, supervision=supervision, workers=workers
            )
        elif args.name == "table3":
            world = experiments.build_world(
                num_facts=max(100, int(36_916 * args.scale))
            )
            blocks = experiments.table3(world)
            for name, block in blocks.items():
                print(render_table(block, title=f"Table 3 — {name}"))
                print()
            _finish_obs(args, obs)
            return 0
        elif args.name == "table7":
            rows = experiments.table7(
                obs=obs, supervision=supervision, workers=workers
            )
        else:
            num_facts = max(200, int(20_000 * args.scale))
            builder = {
                "figure3a": experiments.figure3a,
                "figure3b": experiments.figure3b,
                "figure3c": experiments.figure3c,
            }[args.name]
            rows = builder(
                num_facts=num_facts,
                obs=obs,
                supervision=supervision,
                workers=workers,
            )
    print(render_table(rows, title=args.name, float_digits=3))
    _finish_obs(args, obs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import build_report

    dataset = _load_cli_dataset(args)
    methods = [METHODS[name]() for name in args.methods]
    text = build_report(dataset, methods)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_methods(_: argparse.Namespace) -> int:
    for name in sorted(METHODS):
        print(f"{name:16s} {METHODS[name]().name}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.eval import render_table
    from repro.scenarios import (
        ScenarioSpec,
        copying_recovery,
        generate_scenario,
        run_scenario,
        scenario_rows,
        scenario_suite,
    )

    obs = _make_obs(args)
    if args.spec:
        with open(args.spec) as handle:
            specs = [ScenarioSpec.from_json(json.load(handle))]
    else:
        specs = scenario_suite(quick=args.quick, seed=args.seed)
        if args.only:
            specs = [s for s in specs if s.name == args.only]
            if not specs:
                names = ", ".join(
                    s.name for s in scenario_suite(quick=args.quick)
                )
                print(
                    f"scenario: unknown scenario {args.only!r} "
                    f"(suite: {names})",
                    file=sys.stderr,
                )
                return 2
    rows: list[dict] = []
    recoveries: list[dict] = []
    with obs.tracer.span("scenario.suite", scenarios=len(specs)):
        for spec in specs:
            world = generate_scenario(spec)
            result = run_scenario(world, obs=obs, workers=args.workers)
            rows.extend(scenario_rows(result))
            if spec.kind == "copying":
                recoveries.append(copying_recovery(result))
    display = [
        {
            key: row.get(key, row.get("error"))
            for key in (
                "scenario", "world", "method", "accuracy", "f1",
                "trust_mse", "seconds",
            )
        }
        for row in rows
    ]
    print(render_table(display, title="scenario suite", float_digits=4))
    for recovery in recoveries:
        print(
            f"{recovery['scenario']}: attack gap "
            f"{recovery['gap']:.4f} accuracy; dependence-aware variant "
            f"recovered {recovery['recovered_fraction']:.2f} of it"
        )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"rows": rows, "copying": recoveries}, handle, indent=2)
        print(f"rows written to {args.output}")
    _finish_obs(args, obs)
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.eval import render_table
    from repro.obs import (
        load_trace,
        read_runlog,
        summarize_events,
        summarize_records,
        validate_chrome_trace,
        validate_runlog_records,
    )

    if not args.trace and not args.runlog:
        print("trace-summary: pass a trace file and/or --runlog", file=sys.stderr)
        return 2
    if args.trace:
        payload = load_trace(args.trace)
        validate_chrome_trace(payload)
        rows = summarize_events(payload["traceEvents"])
        print(render_table(rows, title=f"spans — {args.trace}", float_digits=3))
        metrics = payload.get("otherData", {}).get("metrics")
        if metrics and metrics.get("counters"):
            counter_rows = [
                {"counter": name, "value": value}
                for name, value in sorted(metrics["counters"].items())
            ]
            print()
            print(render_table(counter_rows, title="counters", float_digits=3))
    if args.runlog:
        records = read_runlog(args.runlog)
        validate_runlog_records(records)
        summary = summarize_records(records)
        rows = [
            {"kind": kind, "records": count}
            for kind, count in sorted(summary["records_by_kind"].items())
        ]
        print()
        print(render_table(rows, title=f"runlog — {args.runlog}"))
        print(
            f"facts evaluated: {summary['facts_evaluated']}  "
            f"entropy destroyed: {summary['entropy_destroyed_bits']} bits  "
            f"label-flip facts: {summary['label_flip_facts']}"
        )
        if "dependence_flagged_pairs" in summary:
            print(
                f"dependence scans: {summary['dependence_flagged_pairs']} "
                f"flagged pair(s), "
                f"{summary['dependence_truncated_pairs']} truncated "
                f"candidate(s)"
            )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    from repro.store import VoteLedger

    obs = _make_obs(args)
    policy = ErrorPolicy.coerce(args.on_error)
    ledger = VoteLedger(args.store, obs=obs)
    try:
        if args.dataset:
            # The loader's own drops are reported before the import's.
            dataset = _load_cli_dataset(args, obs)
            batch = ledger.import_dataset(dataset, on_error=policy)
        else:
            batch = ledger.ingest_votes_csv(args.votes, on_error=policy)
        _report_ingest(batch.report, obs, policy)
        print(
            f"batch {batch.batch_id} ({batch.kind}): "
            f"+{len(batch.new_facts)} facts, +{len(batch.new_sources)} "
            f"sources, {batch.votes_added} votes -> {args.store}"
        )
        if args.refresh:
            from repro.serve import CorroborationService

            service = CorroborationService(ledger, obs=obs)
            decision = service.refresh()
            print(
                f"refresh: {json.dumps(decision.to_record(), sort_keys=True)}"
            )
    finally:
        ledger.close()
    _finish_obs(args, obs)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.store import VoteLedger

    ledger = VoteLedger(args.store)
    try:
        if args.fact:
            record = ledger.fact_record(args.fact)
            missing = f"query: unknown fact {args.fact!r}"
        elif args.source:
            record = ledger.source_record(args.source)
            missing = f"query: unknown source {args.source!r}"
        else:
            record = ledger.summary()
            missing = ""
        if record is None:
            print(missing, file=sys.stderr)
            return 1
        print(json.dumps(record, indent=2, sort_keys=True))
    finally:
        ledger.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.faults import FaultPlan
    from repro.serve import CorroborationService, make_server
    from repro.store import VoteLedger

    obs = _make_obs(args)
    ledger = VoteLedger(args.store, obs=obs)
    refresh_fault = None
    if args.fail_refreshes:
        plan = FaultPlan(seed=args.fault_seed)
        refresh_fault = plan.failing_refreshes(args.fail_refreshes)
    service = CorroborationService(
        ledger,
        retain_points=args.retain_points,
        obs=obs,
        max_pending=args.max_pending,
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            backoff_s=args.breaker_backoff,
        ),
        refresh_fault=refresh_fault,
    )
    # Bring the labels current before the first request — behind the
    # breaker, so a poisoned store starts degraded instead of crashing.
    outcome = service.guarded_refresh()
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        slow_ms=args.slow_ms,
    )
    host, port = server.server_address[:2]

    def _terminate(signum, frame):  # noqa: ARG001 — signal contract
        # Graceful drain: flip the state machine first (healthz starts
        # answering 503 "draining", writes are rejected), then stop the
        # accept loop from a helper thread — shutdown() deadlocks when
        # called on the serve_forever thread itself.
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _terminate)
    recovery = service.recovery_report
    print(
        f"serving {args.store} on http://{host}:{port} "
        f"(bootstrap={outcome.to_record()['action']}, "
        f"state={service.state}, "
        f"recovered={recovery['torn_batches']} torn "
        f"{recovery['orphan_labels']} orphaned)",
        flush=True,
    )
    drained = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        service.begin_drain()
    finally:
        # Let in-flight requests finish before tearing telemetry down.
        drained = server.wait_idle(timeout=10.0)
        server.server_close()
        ledger.close()
        _finish_obs(args, obs)
        print("server stopped" + ("" if drained else " (drain timed out)"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "corroborate": _cmd_corroborate,
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "methods": _cmd_methods,
        "scenario": _cmd_scenario,
        "trace-summary": _cmd_trace_summary,
        "ingest": _cmd_ingest,
        "query": _cmd_query,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
