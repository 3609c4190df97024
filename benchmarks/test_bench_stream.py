"""Streaming-core performance baseline — regenerates ``BENCH_stream.json``.

Streams the same vote batches into two stores — the streaming core's
refresh alone, and the same refresh followed by a cold replay of the
whole log on every batch — and rewrites the machine-readable baseline at
the repository root.  The schema is documented in
:mod:`repro.eval.bench`; the CI stream-smoke validates the same schema
from a ``--quick`` run in seconds.
"""

from __future__ import annotations

import json
import pathlib

from repro.eval.bench import (
    run_stream_bench,
    validate_stream_payload,
    write_stream_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_stream_json(benchmark):
    def run():
        return run_stream_bench(repeats=3)

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    validate_stream_payload(payload)
    summary = payload["summary"]
    # The stream core's claim: bounded per-refresh work must beat a cold
    # replay of the whole ledger by a wide margin (acceptance: >= 4.5x).
    # The O(sources) state bound is asserted by the metamorphic suite
    # (test_long_stream_stays_bounded).
    assert summary["stream_speedup"] >= 4.5, summary
    (REPO_ROOT / "BENCH_stream.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def test_bench_stream_quick_schema(tmp_path):
    """The --stream --quick path (the CI smoke) emits a schema-valid file."""
    payload = write_stream_bench(
        tmp_path / "BENCH_stream.json", repeats=1, quick=True
    )
    validate_stream_payload(payload)
    assert (tmp_path / "BENCH_stream.json").exists()
    assert payload["summary"]["stream_speedup"] is not None
