"""The committed ``BENCH_<suite>.json`` baselines hold their full-tier floors.

Floors come from :data:`repro.eval.bench.FLOORS`, never from the file, so
a file that raises its own guard or lowers its own floor is still rejected.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.eval.bench import SUITES, validate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GIB_KB = 1024 * 1024


def committed(suite: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{suite}.json").read_text())


def test_one_committed_baseline_per_suite():
    names = {path.name for path in REPO_ROOT.glob("BENCH_*.json")}
    assert names == {f"BENCH_{suite}.json" for suite in SUITES}


@pytest.mark.parametrize("suite", list(SUITES))
def test_committed_baseline_holds_full_tier_floors(suite):
    payload = committed(suite)
    assert (payload["suite"], payload["tier"]) == (suite, "full")
    validate(payload)


def scale_over_raised_guard(payload):
    payload["records"][0]["peak_rss_kb"] = 50 * GIB_KB
    payload["memory_guard_kb"] = payload["floors"]["max_peak_rss_kb"] = 64 * GIB_KB


def stream_under_lowered_floor(payload):
    payload["summary"]["stream_speedup"] = 4.0
    payload["floors"]["min_stream_speedup"] = 1.0


def core_hubdub_over_a_second(payload):
    for record in payload["records"]:
        if record["dataset"] == "hubdub-like":
            record["seconds"] = 9.0


def parallel_slow_on_four_cpus(payload):
    payload["cpu_count"] = 4


TAMPERED = [
    ("scale", scale_over_raised_guard, "peak_rss_kb"),
    ("stream", stream_under_lowered_floor, "stream_speedup"),
    ("core", core_hubdub_over_a_second, "hubdub-like"),
    ("parallel", parallel_slow_on_four_cpus, "speedups"),
]


@pytest.mark.parametrize(
    "suite, tamper, match",
    [pytest.param(*case, id=case[1].__name__) for case in TAMPERED],
)
def test_file_cannot_weaken_its_own_floors(suite, tamper, match):
    payload = committed(suite)
    tamper(payload)
    with pytest.raises(ValueError, match=match):
        validate(payload)
