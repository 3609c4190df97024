"""Serving benchmark over the real ``repro serve`` path.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload untraced and then traced (server started
through ``perfbench/launcher.py``) and prints the per-layer split.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import loadgen
import gate
import layers
import workloads

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    :data:`TAIL_LADDER` with at least ten samples beyond it (nearest
    rank), else the median."""
    ordered = sorted(values)
    for percentile in TAIL_LADDER:
        rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
        if len(ordered) - rank >= 10 or percentile == TAIL_LADDER[-1]:
            return percentile, ordered[rank - 1], len(ordered) - rank
    raise AssertionError("unreachable")


def latency_line(name: str, results: list[loadgen.Result]) -> tuple[float, float]:
    ms = [r.latency * 1000.0 for r in results]
    percentile, value, beyond = tail(ms)
    p50 = statistics.median(ms)
    print(f"{name}: p50 {p50:.3f} ms, tail p{percentile:g} {value:.3f} ms "
          f"({len(ms)} samples, {beyond} beyond)")
    return p50, value


def import_seconds(root: pathlib.Path) -> float:
    """Wall time of a bare ``python3 -c 'import repro.cli'`` process."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=root,
                   env=loadgen.server_env(root), check=True)
    return time.perf_counter() - started


def run_once(root, work, inputs, tag, spans=None, pauses=None):
    """Seed, serve, drive, stop and gate one server; returns its record."""
    store = work / f"{tag}.db"
    setup = loadgen.start(root, store, work / "dataset.json", spans)
    try:
        phase = loadgen.run_phase(setup.server, inputs.ops, inputs.probe,
                                 inputs.probes_per_op, pauses)
        rss = setup.server.peak_rss_mb()
    finally:
        code = setup.server.stop()
    problems = gate.check_responses([*phase.ops, *phase.probe])
    if code != 0:
        problems.append(f"server exited {code}")
    expected = inputs.seeded_votes + sum(op.votes for op in inputs.ops)
    store_problems, facts = gate.check_store(store, expected)
    return {"setup": setup, "phase": phase, "rss": rss, "facts": facts,
            "problems": problems + store_problems}


def extra_setup(root, work, index) -> loadgen.Setup:
    setup = loadgen.start(root, work / f"setup{index}.db", work / "dataset.json")
    code = setup.server.stop()
    if code != 0:
        raise RuntimeError(f"set-up server {index} exited {code}")
    return setup


def run(args, root: pathlib.Path, work: pathlib.Path) -> dict:
    inputs = workloads.build(args.workload, args.seed, args.seconds, args.small)
    (work / "dataset.json").write_text(json.dumps(inputs.dataset))
    kind = "POST" if inputs.ops[0].method == "POST" else "GET"
    print(f"workload {args.workload}, seed {args.seed}: {len(inputs.ops)} workload ops "
          f"({kind}, closed loop), {len(inputs.probe)} probe reads beside them; "
          f"inputs sha256 {inputs.digest()}")
    if args.trace:
        plain = run_once(root, work, inputs, "plain")
        traced = run_once(root, work, inputs, "traced", work / "spans.jsonl")
        records = [plain, traced]
    else:
        # The extra set-ups run in pauses spread through the timed phase,
        # so set-up and phase both sample the whole run: host speed
        # drifts over tens of seconds.
        setups = []
        count = len(inputs.ops)
        pauses = {
            count * i // SETUPS: lambda i=i: setups.append(extra_setup(root, work, i))
            for i in range(1, SETUPS)
        }
        plain = run_once(root, work, inputs, "plain", pauses=pauses)
        setups.append(plain["setup"])
        records = [plain]
    problems = [p for record in records for p in record["problems"]]
    digests = {record["facts"]["digest"] for record in records}
    if len(digests) != 1:
        problems.append("traced and untraced runs left different labels")
    results = [r for record in records for r in [*record["phase"].ops,
                                                  *record["phase"].probe]]
    phase = plain["phase"]
    print(f"label digest {plain['facts']['digest']} "
          f"({plain['facts']['labels']} labels, {plain['facts']['epochs']} epochs)")
    p50, tail_value = latency_line("workload ops", phase.ops)
    latency_line("read probe (from due time)", phase.probe)
    late = [r.late * 1000.0 for r in phase.probe]
    print(f"probe generator lateness: median {statistics.median(late):.3f} ms, "
          f"max {max(late):.3f} ms")
    if args.trace:
        layer = layers.report(work / "spans.jsonl", traced["phase"].ops,
                              traced["phase"].probe)
        traced_p50 = statistics.median(r.latency * 1000.0 for r in traced["phase"].ops)
        layer["medians"]["store.state_bytes"] = traced["facts"]["state_bytes"]
        layer["medians"]["trace.overhead_pct"] = 100.0 * (traced_p50 - p50) / p50
        print(layers.format_table(args.workload, layer))
        print(f"trace.overhead_pct = {layer['medians']['trace.overhead_pct']:.2f} % "
              f"(traced p50 {traced_p50:.3f} ms vs untraced {p50:.3f} ms)")
        if not layer["reconciled"]:
            problems.append("layer split does not reconcile with client p50")
        units = {m: u for m, u, _ in layers.METRICS} | dict(layers.EXTRA_METRICS)
        metrics = {m: {"value": layer["medians"][m], "unit": u} for m, u in units.items()}
    else:
        setup_s = [s.seconds for s in setups]
        startup = import_seconds(root)
        middle = sorted(setups, key=lambda s: s.seconds)[len(setups) // 2]
        print(f"setup_s runs: {', '.join(f'{s:.3f}' for s in setup_s)} s; median split: "
              f"ingest {middle.ingest_s:.3f} s + serve-to-healthy {middle.serve_s:.3f} s; "
              f"interpreter + repro import {startup:.3f} s per process "
              f"(~{100 * 2 * startup / middle.seconds:.0f}% of set-up)")
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(phase.ops) / phase.wall_s,
            "p50_ms": p50,
            "tail_ms": tail_value,
            "peak_rss_mb": plain["rss"],
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"GATE: {problem}")
    print("correctness gate: " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(gate.failed(r) for r in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test world sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: ./src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
