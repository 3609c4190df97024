"""Serving-layer performance baseline — regenerates ``BENCH_serve.json``.

Streams the same vote batches into three stores, one per refresh policy
(``full`` replay, ``incremental`` stream continuation, entropy-triggered), and
rewrites the machine-readable baseline at the repository root.  The schema
is documented in :mod:`repro.eval.bench`; the CI smoke validates the same
schema from a ``--quick`` run in seconds.
"""

from __future__ import annotations

import json
import pathlib

from repro.eval.bench import (
    run_serve_bench,
    validate_serve_payload,
    write_serve_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_serve_json(benchmark):
    def run():
        return run_serve_bench(repeats=3)

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    validate_serve_payload(payload)
    # Warm continuation is the point of the serving layer: it must beat a
    # cold replay of the whole ledger by a wide margin (acceptance: >= 3x).
    assert payload["summary"]["incremental_speedup"] >= 3.0, payload["summary"]
    (REPO_ROOT / "BENCH_serve.json").write_text(json.dumps(payload, indent=2) + "\n")


def test_bench_serve_quick_schema(tmp_path):
    """The --serve --quick path (the CI smoke) emits a schema-valid file."""
    payload = write_serve_bench(tmp_path / "BENCH_serve.json", repeats=1, quick=True)
    validate_serve_payload(payload)
    assert (tmp_path / "BENCH_serve.json").exists()
