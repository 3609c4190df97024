"""Unit tests for the observability layer (repro.obs).

Covers the span tracer and its Chrome export, the metrics registry, the
JSONL run ledger, the Obs bundle / make_obs switches, logging
configuration, and the CLI observability flags.
"""

from __future__ import annotations

import errno
import io
import json
import logging
import os
import sys

import pytest

from repro.cli import main
from repro.model.io import save_dataset
from repro.obs import (
    LOGGER_NAME,
    NULL_METRICS,
    NULL_OBS,
    NULL_RUNLOG,
    NULL_SPAN,
    NULL_TRACER,
    RUNLOG_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    JsonlRunLog,
    MetricsRegistry,
    Obs,
    SpanTracer,
    configure_logging,
    get_logger,
    load_trace,
    make_obs,
    read_runlog,
    summarize_events,
    summarize_records,
    validate_chrome_trace,
    validate_runlog_file,
    validate_runlog_records,
)


class TestSpanTracer:
    def test_null_tracer_is_inert_singleton(self):
        span = NULL_TRACER.span("anything", key="value")
        assert span is NULL_SPAN
        with span as s:
            s.add(more="args")
        assert span.duration_s == 0.0
        assert NULL_TRACER.enabled is False

    def test_spans_record_complete_events(self):
        tracer = SpanTracer()
        with tracer.span("outer", label="o"):
            with tracer.span("inner") as inner:
                inner.add(extra=1)
        assert [e["name"] for e in tracer.events] == ["inner", "outer"]
        inner_event, outer_event = tracer.events
        for event in tracer.events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["pid"] == 1 and event["tid"] == 1
        assert inner_event["args"] == {"extra": 1}
        assert outer_event["args"] == {"label": "o"}

    def test_nesting_by_time_containment(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_duration_and_total_seconds(self):
        tracer = SpanTracer()
        with tracer.span("work") as span:
            pass
        with tracer.span("work"):
            pass
        assert span.duration_s >= 0.0
        assert tracer.total_seconds("work") >= span.duration_s
        assert tracer.total_seconds("missing") == 0.0

    def test_instant_events(self):
        tracer = SpanTracer()
        tracer.instant("marker", note="here")
        (event,) = tracer.events
        assert event["ph"] == "i"
        assert event["args"] == {"note": "here"}

    def test_chrome_export_roundtrip(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("step"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(path, other_data={"metrics": {"counters": {}}})
        payload = load_trace(path)
        validate_chrome_trace(payload)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        assert payload["otherData"]["metrics"] == {"counters": {}}

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"traceEvents": []},
            {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]},  # no name
            {"traceEvents": [{"name": "a", "ph": "Z", "ts": 0}]},
            {"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": -1}]},
        ],
    )
    def test_validate_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)

    def test_summarize_events(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("hot"):
                pass
        with tracer.span("cold"):
            pass
        tracer.instant("skip-me")
        rows = summarize_events(tracer.events)
        assert [r["span"] for r in rows][0] in {"hot", "cold"}
        by_name = {r["span"]: r for r in rows}
        assert by_name["hot"]["count"] == 3
        assert by_name["cold"]["count"] == 1
        assert "skip-me" not in by_name


class TestMetrics:
    def test_null_metrics_discards(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.set_gauge("g", 1.0)
        NULL_METRICS.observe("h", 2.0)
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.inc("c", 2.5)
        registry.set_gauge("g", 1.0)
        registry.set_gauge("g", 7.0)
        for value in (4.0, 2.0, 6.0):
            registry.observe("h", value)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert registry.counter("c") == 3.5
        assert registry.counter("never") == 0.0
        assert snap["gauges"]["g"] == 7.0
        hist = snap["histograms"]["h"]
        assert hist == {
            "count": 3,
            "sum": 12.0,
            "min": 2.0,
            "max": 6.0,
            "mean": 4.0,
            # exact small-sample quantiles (numpy-percentile identical)
            "p50": 4.0,
            "p95": 5.8,
            "p99": 5.96,
        }

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestRunLog:
    def test_null_runlog_is_inert(self):
        with NULL_RUNLOG as ledger:
            ledger.emit("round", anything=1)
        assert NULL_RUNLOG.enabled is False

    def test_emit_and_read(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlRunLog(path) as ledger:
            ledger.emit("run_start", method="m", facts=1, groups=1, sources=1)
        records = read_runlog(path)
        assert records[0] == {
            "kind": "runlog_header",
            "schema_version": RUNLOG_SCHEMA_VERSION,
        }
        assert records[1]["method"] == "m"
        validate_runlog_records(records)
        assert validate_runlog_file(path) == 2

    def test_append_only(self, tmp_path):
        path = tmp_path / "run.jsonl"
        JsonlRunLog(path).close()
        JsonlRunLog(path).close()
        records = read_runlog(path)
        assert len(records) == 2  # two headers: re-running extends

    def test_failed_writes_are_counted_not_raised(self, repro_warnings):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        full = JsonlRunLog(FullDisk())  # the header write fails too
        full.emit("drain", state="draining")
        assert full.write_errors == 2
        handle = io.StringIO()
        closed = JsonlRunLog(handle)
        handle.close()
        closed.emit("drain", state="draining")
        closed.emit("drain", state="draining")
        assert closed.write_errors == 2
        # One WARNING per ledger, however many records it lost.
        assert [r.levelno for r in repro_warnings] == [logging.WARNING] * 2
        assert "No space left on device" in repro_warnings[0].getMessage()
        assert NULL_RUNLOG.write_errors == 0
        # A record JSON cannot encode is a bug in the caller, not a lost
        # write: it still raises.
        with pytest.raises(TypeError):
            closed.emit("drain", state=object())
        assert closed.write_errors == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_ledger_closes_without_raising(self):
        # Each write to /dev/full fails with ENOSPC and leaves its bytes
        # buffered, so close() retries the flush and fails once more.
        ledger = JsonlRunLog("/dev/full")
        ledger.emit("drain", state="draining")
        ledger.close()
        assert ledger.write_errors == 2

    def test_handle_not_closed_when_borrowed(self):
        handle = io.StringIO()
        ledger = JsonlRunLog(handle)
        ledger.close()
        assert not handle.closed
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        validate_runlog_records(records)

    @pytest.mark.parametrize(
        "records",
        [
            [],
            [{"kind": "round"}],
            [{"kind": "runlog_header", "schema_version": -1}],
            [
                {"kind": "runlog_header", "schema_version": RUNLOG_SCHEMA_VERSION},
                {"kind": "no-such-kind"},
            ],
            [
                {"kind": "runlog_header", "schema_version": RUNLOG_SCHEMA_VERSION},
                {"kind": "trust", "time_point": 0},  # missing trust
            ],
            [
                {"kind": "runlog_header", "schema_version": RUNLOG_SCHEMA_VERSION},
                {
                    "kind": "round",
                    "time_point": 0,
                    "signature": [],
                    "probability": 0.5,
                    "label": True,
                    "num_facts": 2,
                    "facts": ["f1"],  # num_facts mismatch
                    "entropy_destroyed": 0.0,
                    "label_flip": False,
                },
            ],
        ],
    )
    def test_validate_rejects_malformed(self, records):
        with pytest.raises(ValueError):
            validate_runlog_records(records)

    def test_summarize_records(self):
        records = [
            {"kind": "runlog_header", "schema_version": RUNLOG_SCHEMA_VERSION},
            {
                "kind": "round",
                "time_point": 0,
                "signature": [["s1", "T"]],
                "probability": 1.0,
                "label": True,
                "num_facts": 3,
                "facts": ["a", "b", "c"],
                "entropy_destroyed": 1.5,
                "label_flip": True,
            },
        ]
        summary = summarize_records(records)
        assert summary["records_by_kind"] == {"runlog_header": 1, "round": 1}
        assert summary["facts_evaluated"] == 3
        assert summary["entropy_destroyed_bits"] == 1.5
        assert summary["label_flip_facts"] == 3


class TestObsBundle:
    def test_null_obs_disabled(self):
        assert NULL_OBS.enabled is False
        assert make_obs() is NULL_OBS

    def test_any_real_sink_enables(self):
        assert Obs(tracer=SpanTracer()).enabled
        assert Obs(metrics=MetricsRegistry()).enabled
        assert Obs(runlog=JsonlRunLog(io.StringIO())).enabled

    def test_make_obs_defaults_metrics_on_with_trace(self):
        obs = make_obs(trace=True)
        assert obs.tracer.enabled
        assert obs.metrics.enabled
        assert not obs.runlog.enabled

    def test_make_obs_metrics_only(self):
        obs = make_obs(metrics=True)
        assert obs.metrics.enabled
        assert not obs.tracer.enabled

    def test_close_closes_runlog(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = make_obs(runlog=path)
        obs.close()
        assert validate_runlog_file(path) == 1


class TestLogging:
    def test_get_logger_parents_under_repro(self):
        assert get_logger().name == LOGGER_NAME
        assert get_logger("repro.eval.harness").name == "repro.eval.harness"
        assert get_logger("other.module").name == "repro.other.module"

    def test_configure_logging_idempotent(self):
        stream = io.StringIO()
        logger = configure_logging("info", stream=stream)
        configure_logging("info", stream=stream)
        marked = [
            h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
        assert logger.level == logging.INFO
        assert logger.propagate is False

    def test_level_filters_output(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        logger = get_logger("test_obs")
        logger.info("invisible")
        logger.warning("visible")
        text = stream.getvalue()
        assert "invisible" not in text
        assert "visible" in text

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")

    def test_default_stream_is_the_live_stderr(self, capsys):
        """Configured while stderr was swapped out, the logger still
        writes to the stderr of the moment it logs."""
        swapped = io.StringIO()
        live, sys.stderr = sys.stderr, swapped
        try:
            configure_logging()
        finally:
            sys.stderr = live
        swapped.close()
        get_logger("t").warning("after the swap")
        err = capsys.readouterr().err
        assert "after the swap" in err
        assert "Logging error" not in err


class TestCliObservability:
    @pytest.fixture()
    def dataset_path(self, tmp_path, motivating):
        path = tmp_path / "dataset.json"
        save_dataset(motivating, path)
        return path

    def test_corroborate_writes_trace_and_runlog(self, tmp_path, dataset_path, capsys):
        trace = tmp_path / "trace.json"
        runlog = tmp_path / "run.jsonl"
        rc = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_path),
                "--method",
                "incestimate",
                "--trace",
                str(trace),
                "--runlog",
                str(runlog),
                "--log-level",
                "error",
            ]
        )
        assert rc == 0
        payload = load_trace(trace)
        validate_chrome_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"session.setup", "session.step", "session.finalize"} <= names
        assert payload["otherData"]["metrics"]["counters"]["session.runs"] == 1
        assert validate_runlog_file(runlog) > 3
        out = capsys.readouterr().out
        assert "trace written to" in out

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_corroborate_on_a_full_disk_finishes(self, dataset_path, capsys):
        rc = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_path),
                "--runlog",
                "/dev/full",
                "--log-level",
                "warning",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().err.count("runlog write failed") == 1

    def test_trace_summary_renders(self, tmp_path, dataset_path, capsys):
        trace = tmp_path / "trace.json"
        runlog = tmp_path / "run.jsonl"
        main(
            [
                "corroborate",
                "--dataset",
                str(dataset_path),
                "--trace",
                str(trace),
                "--runlog",
                str(runlog),
            ]
        )
        capsys.readouterr()
        rc = main(["trace-summary", str(trace), "--runlog", str(runlog)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "session.step" in out
        assert "facts evaluated" in out

    def test_trace_summary_requires_an_input(self, capsys):
        assert main(["trace-summary"]) == 2

    def test_untraced_cli_writes_nothing(self, tmp_path, dataset_path, capsys):
        rc = main(["corroborate", "--dataset", str(dataset_path)])
        assert rc == 0
        assert "trace written" not in capsys.readouterr().out
        assert list(tmp_path.glob("*.json")) == [dataset_path]
