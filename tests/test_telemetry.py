"""Serving telemetry: histograms, exposition, tracing, request log, loadgen."""

from __future__ import annotations

import json
import math
import random
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    coerce_trace_id,
    current_trace_id,
    make_obs,
    new_trace_id,
    parse_prometheus_text,
    read_runlog,
    render_prometheus,
    sanitize_metric_name,
    trace_scope,
    validate_runlog_records,
)
from repro.serve import CorroborationService, make_server
from repro.store import VoteLedger


# ---------------------------------------------------------------------------
# Histogram quantiles
# ---------------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_exact_quantiles_match_numpy_under_cap(self):
        rng = random.Random(42)
        registry = MetricsRegistry(sample_cap=512)
        values = [rng.lognormvariate(-4.0, 1.5) for _ in range(300)]
        for value in values:
            registry.observe("h", value)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            expected = float(np.percentile(values, q * 100))
            assert registry.quantile("h", q) == pytest.approx(
                expected, rel=1e-12
            ), q

    def test_bucket_path_past_cap_is_bounded_and_sane(self):
        rng = random.Random(7)
        registry = MetricsRegistry(sample_cap=64)
        values = [rng.lognormvariate(-4.0, 1.0) for _ in range(5_000)]
        for value in values:
            registry.observe("h", value)
        # memory stays bounded at the cap
        assert len(registry._hists["h"].samples) == 64
        for q in (0.5, 0.95, 0.99):
            estimate = registry.quantile("h", q)
            assert min(values) <= estimate <= max(values)
            # the bucket estimator lands in (or next to) the right bucket:
            # within one bucket width of the exact quantile
            exact = float(np.percentile(values, q * 100))
            bounds = [b for b in DEFAULT_BUCKETS if b >= exact]
            assert abs(estimate - exact) <= (bounds[0] if bounds else exact)

    def test_extremes_and_unknown(self):
        registry = MetricsRegistry(sample_cap=2)
        assert math.isnan(registry.quantile("nope", 0.5))
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):  # past the tiny cap
            registry.observe("h", value)
        assert registry.quantile("h", 0.0) >= 1.0
        assert registry.quantile("h", 1.0) <= 5.0
        with pytest.raises(ValueError):
            registry.quantile("h", 1.5)

    def test_summary_carries_quantiles(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("h", value)
        summary = registry.histogram_summary("h")
        assert summary["p50"] == 2.0
        assert summary["count"] == 3
        assert registry.histogram_summary("nope") is None

    def test_buckets_cumulative_ending_at_inf(self):
        registry = MetricsRegistry(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            registry.observe("h", value)
        pairs = registry.histogram_buckets("h")
        assert pairs == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert registry.histogram_buckets("nope") == []

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(2_000):
                registry.inc("c")
                registry.observe("h", 0.001)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("c") == 16_000
        assert registry.histogram_summary("h")["count"] == 16_000


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheus:
    def test_sanitize(self):
        assert sanitize_metric_name("serve.request_seconds") == (
            "repro_serve_request_seconds"
        )
        assert sanitize_metric_name(
            "serve.requests_by_route.GET /facts/<id>"
        ) == "repro_serve_requests_by_route_GET_facts_id"

    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("serve.requests", 5)
        registry.set_gauge("serve.staleness_facts", 2)
        for value in (0.01, 0.02, 0.03):
            registry.observe("serve.request_seconds", value)
        body = render_prometheus(
            registry, extra_gauges={"serve.uptime_seconds": 12.5}
        )
        samples = parse_prometheus_text(body)
        assert samples["repro_serve_requests_total"] == 5.0
        assert samples["repro_serve_staleness_facts"] == 2.0
        assert samples["repro_serve_uptime_seconds"] == 12.5
        assert samples["repro_serve_request_seconds_count"] == 3.0
        assert samples["repro_serve_request_seconds_sum"] == pytest.approx(0.06)
        assert samples['repro_serve_request_seconds_bucket{le="+Inf"}'] == 3.0
        assert samples[
            'repro_serve_request_seconds_quantile{quantile="0.5"}'
        ] == pytest.approx(0.02)

    def test_registry_none_renders_extra_gauges_alone(self):
        body = render_prometheus(None, extra_gauges={"serve.up": 1.0})
        assert parse_prometheus_text(body) == {"repro_serve_up": 1.0}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is { not an exposition\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("")
        with pytest.raises(ValueError):
            parse_prometheus_text("name notanumber\n")


# ---------------------------------------------------------------------------
# Trace scope
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_scope_binds_and_resets(self):
        assert current_trace_id() is None
        with trace_scope("abc123") as trace_id:
            assert trace_id == "abc123"
            assert current_trace_id() == "abc123"
            with trace_scope() as inner:
                assert current_trace_id() == inner != "abc123"
            assert current_trace_id() == "abc123"
        assert current_trace_id() is None

    def test_coerce(self):
        assert coerce_trace_id("deadbeef00") == "deadbeef00"
        assert coerce_trace_id("x" * 64) == "x" * 64
        for junk in (None, "", "  ", "x" * 65, "bad header\nvalue", "ütf"):
            coerced = coerce_trace_id(junk)
            assert coerced != junk and len(coerced) == 16
        assert len(new_trace_id()) == 16

    def test_scopes_are_thread_local(self):
        seen = {}

        def worker(name):
            with trace_scope(name):
                seen[name] = current_trace_id()

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {f"t{i}": f"t{i}" for i in range(4)}


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------
@pytest.fixture()
def traced_server(tmp_path):
    obs = make_obs(runlog=tmp_path / "runlog.jsonl")
    ledger = VoteLedger(tmp_path / "s.db", obs=obs)
    service = CorroborationService(ledger, obs=obs)
    server = make_server(service, port=0, slow_ms=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, tmp_path, service
    server.shutdown()
    server.server_close()
    obs.close()
    ledger.close()


def test_trace_id_propagates_http_to_store(traced_server):
    base, tmp_path, service = traced_server
    request = urllib.request.Request(
        f"{base}/votes",
        data=json.dumps(
            {"votes": [{"fact": "f1", "source": "s1", "vote": "T"}]}
        ).encode(),
        headers={"X-Trace-Id": "e2e-trace-0001"},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        assert response.headers["X-Trace-Id"] == "e2e-trace-0001"
        assert json.loads(response.read())["trace_id"] == "e2e-trace-0001"
    records = read_runlog(tmp_path / "runlog.jsonl")
    by_kind = {}
    for record in records:
        if record.get("trace_id") == "e2e-trace-0001":
            by_kind.setdefault(record["kind"], []).append(record)
    # one request → ingest_batch + refresh + serve_request, one trace id
    assert set(by_kind) == {"ingest_batch", "refresh", "serve_request"}
    # the one request record of the POST, with its client and wall clock
    (request_record,) = by_kind["serve_request"]
    assert request_record["status"] == 200
    assert request_record["client"] == "127.0.0.1"
    assert request_record["ts"] == pytest.approx(time.time(), abs=60.0)
    validate_runlog_records(records)
    assert service.statusz()["slow_requests"] == 1  # slow_ms=0: all slow


def test_junk_trace_header_replaced_and_echoed(traced_server):
    base, _, _ = traced_server
    request = urllib.request.Request(
        f"{base}/healthz", headers={"X-Trace-Id": "bad header!!"}
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        echoed = response.headers["X-Trace-Id"]
    assert echoed != "bad header!!" and len(echoed) == 16


def test_http_405_and_411_reason_codes(traced_server):
    base, _, _ = traced_server
    # wrong method on a real route → 405 with the allow list
    request = urllib.request.Request(f"{base}/votes", method="DELETE")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 405
    body = json.loads(excinfo.value.read())
    assert body["reason"] == "method_not_allowed"
    assert body["allow"] == ["POST"]
    # POST without a body → Content-Length 0 → bad_request 400
    request = urllib.request.Request(f"{base}/votes", data=b"", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["reason"] == "bad_request"
    # 404 carries the not_found reason
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{base}/nope", timeout=5)
    assert excinfo.value.code == 404
    assert json.loads(excinfo.value.read())["reason"] == "not_found"


def test_length_required_reason_code(traced_server):
    """A POST whose Content-Length header is stripped answers 411."""
    import http.client

    base, _, _ = traced_server
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        connection.putrequest("POST", "/votes", skip_accept_encoding=True)
        connection.putheader("Content-Type", "application/json")
        connection.endheaders()  # no Content-Length, no body
        response = connection.getresponse()
        assert response.status == 411
        assert json.loads(response.read())["reason"] == "length_required"
    finally:
        connection.close()


def test_statusz_and_metrics_reflect_driven_traffic(traced_server):
    base, _, service = traced_server
    urllib.request.urlopen(
        urllib.request.Request(
            f"{base}/votes",
            data=json.dumps(
                {"votes": [{"fact": "g1", "source": "s1", "vote": "T"}]}
            ).encode(),
        ),
        timeout=5,
    ).read()
    for _ in range(3):
        urllib.request.urlopen(f"{base}/facts/g1", timeout=5).read()
    with urllib.request.urlopen(f"{base}/statusz", timeout=5) as response:
        statusz = json.loads(response.read())
    assert statusz["requests"] >= 4
    assert statusz["pending"] == 0
    assert statusz["ingest"]["batches"] == 1
    assert statusz["last_refresh"]["epoch"] == 0
    assert statusz["last_refresh"]["age_seconds"] >= 0.0
    assert statusz["latency"]["request_seconds"]["count"] >= 4
    with urllib.request.urlopen(f"{base}/metrics", timeout=5) as response:
        samples = parse_prometheus_text(response.read().decode())
    assert samples["repro_serve_requests_total"] >= 5  # incl. /statusz
    assert samples["repro_store_votes"] == 1.0
    assert samples["repro_serve_pending_facts"] == 0.0
    assert samples["repro_serve_last_refresh_epoch"] == 0.0
    assert samples["repro_serve_refresh_age_seconds"] >= 0.0
    assert (
        'repro_serve_request_seconds_quantile{quantile="0.99"}' in samples
    )


# ---------------------------------------------------------------------------
# Telemetry neutrality: labels identical with telemetry on vs off
# ---------------------------------------------------------------------------
def test_labels_bit_identical_with_telemetry_on(tmp_path):
    from repro.datasets import generate_restaurants

    dataset = generate_restaurants(
        num_facts=120,
        golden_true=6,
        golden_false=4,
        golden_false_with_f_votes=2,
        seed=13,
    ).dataset
    facts = dataset.matrix.facts
    chunks = [facts[:70], facts[70:95], facts[95:]]

    def run(tag, obs):
        ledger = VoteLedger(tmp_path / f"{tag}.db", obs=obs)
        service = CorroborationService(ledger, obs=obs)
        for chunk in chunks:
            rows = [
                (fact, source, vote.value)
                for fact in chunk
                for source, vote in sorted(
                    dataset.matrix.votes_on(fact).items()
                )
            ]
            service.apply_votes(rows)
        labels = {
            fact: (
                row["probability"],
                row["label"],
                row["flipped"],
                row["time_point"],
            )
            for fact, row in ledger.labels_map().items()
        }
        trajectory = ledger.trajectory_rows()
        ledger.close()
        return labels, trajectory

    plain = run("plain", make_obs())
    with trace_scope("telemetry-on"):
        traced = run(
            "traced", make_obs(trace=True, runlog=tmp_path / "r.jsonl")
        )
    assert plain == traced  # exact — no tolerance


# ---------------------------------------------------------------------------
# Load generator (small in-test run)
# ---------------------------------------------------------------------------
def test_loadgen_small_run(tmp_path):
    from repro.eval.bench import FLOORS, check_load
    from repro.eval.loadgen import LoadConfig, run_load

    config = LoadConfig(
        ingest_batches=3,
        facts_per_batch=4,
        votes_per_fact=2,
        source_pool=6,
        query_workers=1,
    )
    results = run_load(config, artifacts_dir=tmp_path / "artifacts")
    assert results["ingest"]["votes"] == 24
    assert results["server"]["votes"] == 24.0
    assert results["query"]["errors"] == 0
    # floors: throughput floor only applies to the real tiers, so relax it
    results["ingest"]["votes_per_second"] = max(
        results["ingest"]["votes_per_second"], 25.0
    )
    results["query"]["p99_ms"] = min(results["query"]["p99_ms"], 2500.0)
    check_load(results, FLOORS["load"]["quick"])
    assert not (tmp_path / "artifacts" / "access.jsonl").exists()
    records = read_runlog(tmp_path / "artifacts" / "runlog.jsonl")
    validate_runlog_records(records)
    requests = [r for r in records if r["kind"] == "serve_request"]
    posts = [r for r in requests if r["request_method"] == "POST"]
    assert len(posts) == 3  # one record per ingest batch
    assert all(r["path"] == "/votes" and r["status"] == 200 for r in posts)
