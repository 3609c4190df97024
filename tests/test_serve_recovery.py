"""Fault tolerance of the serving stack: breaker, admission, recovery.

The chaos bench (``repro.eval.loadgen.run_chaos``) proves the same
contracts end-to-end against a subprocess server; these tests pin each
mechanism in isolation — the breaker state machine on a fake clock, the
typed admission rejections, fault-injected refresh failures,
degraded-read annotation, the drain, the ledger's startup reconcile
pass, and ``kill -9`` convergence against a control run.
"""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
import textwrap
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import make_obs, parse_prometheus_text, validate_runlog_file
from repro.resilience import CircuitBreaker, FaultInjected
from repro.resilience.faults import FaultPlan
from repro.serve import (
    AdmissionRejected,
    CorroborationService,
    RefreshDecision,
    RefreshFailure,
    ServiceDraining,
    make_server,
)
from repro.store import LedgerError, VoteLedger


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------------
def test_breaker_trips_half_opens_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, backoff_s=1.0, clock=clock)
    assert breaker.allow()
    assert breaker.record_failure("boom") is False
    assert breaker.state == "closed"
    assert breaker.record_failure("boom again") is True
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow()
    assert breaker.retry_in() == pytest.approx(1.0)
    clock.advance(1.01)
    assert breaker.allow()  # cool-down elapsed: this call is the probe
    assert breaker.state == "half_open"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.recoveries == 1
    assert breaker.consecutive_failures == 0
    assert breaker.to_record()["backoff_seconds"] == 1.0


def test_breaker_probe_failure_doubles_backoff_capped():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, backoff_s=1.0, max_backoff_s=3.0, clock=clock
    )
    assert breaker.record_failure() is True
    for expected in (2.0, 3.0, 3.0):  # doubling, then the cap
        clock.advance(1000.0)
        assert breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.to_record()["backoff_seconds"] == expected
    clock.advance(2.9)
    assert not breaker.allow()
    clock.advance(0.2)
    assert breaker.allow()


def test_breaker_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(backoff_s=0.0)


def test_refresh_faults_fail_exactly_count_times():
    fault = FaultPlan(seed=11).failing_refreshes(2)
    with pytest.raises(FaultInjected):
        fault(0)
    with pytest.raises(FaultInjected):
        fault(1)
    fault(2)  # schedule exhausted: a no-op from here on
    assert fault.attempts == 3
    assert fault.remaining == 0


# ---------------------------------------------------------------------------
# Service: admission, guarded refresh, degraded reads, drain
# ---------------------------------------------------------------------------
def batch(tag: str, n: int = 2) -> list[tuple[str, str, str]]:
    return [
        (f"{tag}-f{i}", source, "T" if i % 3 else "F")
        for i in range(n)
        for source in ("s1", "s2")
    ]


def make_service(tmp_path, tag="svc", **kwargs) -> CorroborationService:
    ledger = VoteLedger(tmp_path / f"{tag}.db")
    return CorroborationService(ledger, **kwargs)


def test_backlog_full_rejects_non_refresh_writes(tmp_path):
    service = make_service(tmp_path, max_pending=2)
    service.apply_votes(batch("a"), refresh=False)  # pending hits the cap
    with pytest.raises(AdmissionRejected) as excinfo:
        service.apply_votes(batch("b"), refresh=False)
    assert excinfo.value.status == 429
    assert excinfo.value.reason == "backlog_full"
    assert excinfo.value.retry_after > 0
    # A refresh-bearing write clears the backlog instead of bouncing.
    _, decision = service.apply_votes(batch("b"))
    assert isinstance(decision, RefreshDecision)
    assert service.statusz()["admission"]["rejections"] == {"backlog_full": 1}


def test_refresh_debt_rejection_and_probe_admission(tmp_path):
    clock = FakeClock()
    service = make_service(
        tmp_path,
        max_pending=1,
        breaker=CircuitBreaker(
            failure_threshold=1, backoff_s=5.0, clock=clock
        ),
        refresh_fault=FaultPlan(seed=3).failing_refreshes(1),
    )
    _, outcome = service.apply_votes(batch("a"))
    assert isinstance(outcome, RefreshFailure)
    assert outcome.reason == "refresh_failed"
    assert service.breaker.state == "open"
    assert service.state == "degraded"
    # Backlog at the cap + breaker cooling down: even refresh-bearing
    # writes are refresh debt now.
    with pytest.raises(AdmissionRejected) as excinfo:
        service.apply_votes(batch("b"))
    assert excinfo.value.reason == "refresh_debt"
    assert excinfo.value.retry_after == pytest.approx(5.0, abs=0.1)
    # Cool-down elapsed: the same write is admitted as the probe, the
    # fault schedule is exhausted, and the probe closes the breaker.
    clock.advance(5.01)
    _, decision = service.apply_votes(batch("b"))
    assert isinstance(decision, RefreshDecision)
    assert decision.action == "stream"
    assert service.breaker.state == "closed"
    assert service.state == "healthy"
    assert service.ledger.counts()["pending"] == 0
    assert service.statusz()["breaker"]["recoveries"] == 1


def test_open_breaker_skips_refresh_but_commits_votes(tmp_path):
    clock = FakeClock()
    service = make_service(
        tmp_path,
        breaker=CircuitBreaker(
            failure_threshold=1, backoff_s=60.0, clock=clock
        ),
        refresh_fault=FaultPlan(seed=3).failing_refreshes(1),
    )
    service.apply_votes(batch("a"))  # trips the breaker
    _, decision = service.apply_votes(batch("b"))
    assert isinstance(decision, RefreshDecision)
    assert decision.action == "skipped"
    assert decision.dirty_facts == 4  # both batches committed, unlabelled
    assert service.ledger.counts()["votes"] == 8


@pytest.mark.parametrize(
    "option",
    [{"max_pending": 0}, {"retain_points": 0}],
    ids=["max-pending", "retain-points"],
)
def test_service_rejects_out_of_range_options(tmp_path, option):
    # Each bad value is refused at construction, before the store changes.
    ledger = VoteLedger(tmp_path / "bad.db")
    ledger.ingest_votes(batch("a"))
    with pytest.raises(ValueError, match=next(iter(option))):
        CorroborationService(ledger, **option)
    assert ledger.counts()["epochs"] == 0
    assert ledger.counts()["pending"] == 2
    ledger.close()


def test_refresh_failure_is_observable(tmp_path):
    obs = make_obs(runlog=tmp_path / "serve.jsonl")
    ledger = VoteLedger(tmp_path / "obs.db", obs=obs)
    service = CorroborationService(
        ledger,
        obs=obs,
        breaker=CircuitBreaker(failure_threshold=1),
        refresh_fault=FaultPlan(seed=5).failing_refreshes(1),
    )
    _, outcome = service.apply_votes(batch("a"))
    assert isinstance(outcome, RefreshFailure)
    record = outcome.to_record()
    assert record["action"] == "failed"
    assert record["breaker_state"] == "open"
    obs.close()
    records = [
        json.loads(line)
        for line in (tmp_path / "serve.jsonl").read_text().splitlines()
    ]
    kinds = [r.get("kind") for r in records]
    assert "refresh_failed" in kinds
    assert "startup_recovery" in kinds
    failed = next(r for r in records if r.get("kind") == "refresh_failed")
    assert failed["reason"] == "refresh_failed"
    assert failed["breaker"]["trips"] == 1
    validate_runlog_file(tmp_path / "serve.jsonl")
    ledger.close()


class FailingHandle(io.StringIO):
    """A run-ledger handle whose ``write`` fails with ENOSPC on every line
    ``fails`` selects."""

    def __init__(self, fails) -> None:
        super().__init__()
        self.fails = fails

    def write(self, text: str) -> int:
        if self.fails(text):
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


def test_lost_refresh_record_is_not_a_failed_refresh(tmp_path):
    # Each epoch commits before its ``refresh`` record is written.
    obs = make_obs(
        runlog=FailingHandle(lambda line: line.startswith('{"kind": "refresh",'))
    )
    service = make_service(tmp_path, obs=obs)
    for tag in ("a", "b", "c"):
        _, decision = service.apply_votes(batch(tag))
        assert isinstance(decision, RefreshDecision)
        assert decision.action == "stream"
    assert service.state == "healthy"
    assert service.breaker.consecutive_failures == 0
    assert service.ledger.counts()["pending"] == 0
    assert obs.runlog.write_errors == 3


def test_degraded_reads_are_marked_stale(tmp_path):
    clock = FakeClock()
    service = make_service(
        tmp_path,
        breaker=CircuitBreaker(
            failure_threshold=1, backoff_s=5.0, clock=clock
        ),
    )
    service.apply_votes(batch("a"))  # clean: epoch 0 commits
    assert service.fact("a-f0") is not None
    assert "stale" not in service.fact("a-f0")
    service.refresh_fault = FaultPlan(seed=7).failing_refreshes(1)
    service.apply_votes(batch("b"))  # fault: breaker opens, degraded
    assert service.state == "degraded"
    record = service.fact("a-f0")
    assert record["stale"] is True
    assert record["last_good_epoch"] == 0
    trust = service.source_trust("s1")
    assert trust["stale"] is True
    health = service.healthz()
    assert health["status"] == "degraded"
    assert health["last_good_epoch"] == 0
    # Recovery: the probe succeeds and the stale annotation disappears.
    clock.advance(5.01)
    outcome = service.guarded_refresh()
    assert isinstance(outcome, RefreshDecision)
    assert service.state == "healthy"
    assert "stale" not in service.fact("a-f0")


def test_drain_rejects_writes_keeps_reads(tmp_path):
    service = make_service(tmp_path)
    service.apply_votes(batch("a"))
    health = service.begin_drain()
    assert health["status"] == "draining"
    assert service.begin_drain()["status"] == "draining"  # idempotent
    with pytest.raises(ServiceDraining) as excinfo:
        service.apply_votes(batch("b"))
    assert excinfo.value.status == 503
    assert excinfo.value.reason == "draining"
    assert service.fact("a-f0") is not None
    assert service.statusz()["admission"]["rejections"] == {"draining": 1}


# ---------------------------------------------------------------------------
# HTTP surface of the failure modes
# ---------------------------------------------------------------------------
def http_error_body(url, data=None):
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


@pytest.fixture()
def degraded_server(tmp_path):
    ledger = VoteLedger(tmp_path / "h.db")
    service = CorroborationService(
        ledger,
        max_pending=1,
        breaker=CircuitBreaker(failure_threshold=1, backoff_s=60.0),
        refresh_fault=FaultPlan(seed=9).failing_refreshes(1),
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    server.shutdown()
    server.server_close()
    ledger.close()


def test_http_failed_refresh_acks_the_batch(degraded_server):
    url, service = degraded_server
    body = json.dumps(
        {
            "votes": [
                {"fact": "f1", "source": "s1", "vote": "T"},
                {"fact": "f1", "source": "s2", "vote": "T"},
            ]
        }
    ).encode()
    status, headers, payload = http_error_body(f"{url}/votes", body)
    assert status == 503
    assert payload["reason"] == "refresh_failed"
    assert payload["stale"] is True
    assert payload["votes_added"] == 2  # committed: the client must not retry
    assert payload["batch_id"] >= 1
    assert payload["refresh"]["action"] == "failed"
    assert int(headers["Retry-After"]) >= 1

    status, _, health = http_error_body(f"{url}/healthz")
    assert status == 503
    assert health["status"] == "degraded"
    assert health["breaker"]["state"] == "open"

    # Backlog at the cap + breaker cooling down: 429 with the hint.
    status, headers, payload = http_error_body(f"{url}/votes", body)
    assert status == 429
    assert payload["reason"] == "refresh_debt"
    assert int(headers["Retry-After"]) >= 1
    assert "batch_id" not in payload  # rejected before ingest: safe to retry

    status, _, statusz = http_error_body(f"{url}/statusz")
    assert status == 200  # statusz stays scrapeable while degraded
    assert statusz["status"] == "degraded"
    assert statusz["admission"]["rejections"] == {"refresh_debt": 1}


def test_http_full_disk_never_fails_a_request(tmp_path, repro_warnings):
    # Every ledger write after the header fails, as on a disk that fills
    # once the server is up.
    obs = make_obs(
        runlog=FailingHandle(lambda line: '"runlog_header"' not in line)
    )
    ledger = VoteLedger(tmp_path / "full.db", obs=obs)
    service = CorroborationService(ledger, obs=obs)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        for i in range(4):
            body = json.dumps(
                {
                    "votes": [
                        {"fact": f"f{i}", "source": "s1", "vote": "T"},
                        {"fact": f"f{i}", "source": "s2", "vote": "T"},
                    ]
                }
            ).encode()
            status, _, payload = http_error_body(f"{url}/votes", body)
            assert status == 200, payload
            assert payload["refresh"]["action"] == "stream"
        status, _, fact = http_error_body(f"{url}/facts/f3")
        assert fact["status"] == "corroborated"
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            samples = parse_prometheus_text(response.read().decode())
    finally:
        server.shutdown()
        server.server_close()
    assert ledger.counts()["pending"] == 0
    assert service.breaker.state == "closed"
    assert service.state == "healthy"
    lost = samples["repro_serve_telemetry_errors"]
    assert 0 < lost <= obs.runlog.write_errors
    assert len(repro_warnings) == 1
    assert "No space left on device" in repro_warnings[0].getMessage()
    ledger.close()


def test_http_drain_flips_healthz(degraded_server):
    url, service = degraded_server
    service.begin_drain()
    status, _, health = http_error_body(f"{url}/healthz")
    assert status == 503
    assert health["status"] == "draining"
    body = json.dumps(
        {"votes": [{"fact": "f1", "source": "s1", "vote": "T"}]}
    ).encode()
    status, _, payload = http_error_body(f"{url}/votes", body)
    assert status == 503
    assert payload["reason"] == "draining"


# ---------------------------------------------------------------------------
# Ledger reconcile: the startup integrity pass
# ---------------------------------------------------------------------------
def test_reconcile_clean_store_reports_clean(tmp_path):
    service = make_service(tmp_path)
    service.apply_votes(batch("a"))
    report = service.ledger.reconcile()
    assert report["clean"] is True
    assert report["torn_batches"] == 0
    assert report["pending"] == 0
    assert report["last_epoch"] == 0


def test_reconcile_quarantines_unlabelled_torn_batch(tmp_path):
    ledger = VoteLedger(tmp_path / "torn.db")
    ledger.ingest_votes(batch("a"))
    before = ledger.counts()
    # A torn batch: rows present, ingest_log row never closed (as left
    # by a writer that died before its closing UPDATE was durable).
    with ledger._conn as conn:
        conn.execute(
            "INSERT INTO ingest_log (kind, created_at, rows_read) "
            "VALUES ('votes', 'now', 2)"
        )
        torn_id = conn.execute("SELECT MAX(batch_id) FROM ingest_log").fetchone()[0]
        conn.execute(
            "INSERT INTO facts (fact_id, batch_id) VALUES ('torn-f', ?)",
            (torn_id,),
        )
        conn.execute(
            "INSERT INTO sources (source_id, batch_id) VALUES ('torn-s', ?)",
            (torn_id,),
        )
        conn.execute(
            "INSERT INTO votes (fact_id, source_id, vote, batch_id) "
            "VALUES ('torn-f', 'torn-s', 'T', ?)",
            (torn_id,),
        )
    report = ledger.reconcile()
    assert report["quarantined_batches"] == [torn_id]
    assert report["votes_removed"] == 1
    assert report["facts_removed"] == 1
    assert report["sources_removed"] == 1
    assert report["clean"] is False
    after = ledger.counts()
    for table in ("facts", "sources", "votes", "labels", "pending"):
        assert after[table] == before[table]  # the log itself is append-only
    assert ledger.reconcile()["torn_batches"] == 0  # idempotent
    ledger.close()


def test_reconcile_keeps_labelled_torn_batch(tmp_path):
    service = make_service(tmp_path, tag="kept")
    service.apply_votes(batch("a"))
    ledger = service.ledger
    with ledger._conn as conn:
        conn.execute("UPDATE ingest_log SET report = NULL")
    before = ledger.counts()
    report = ledger.reconcile()
    assert report["kept_batches"] != []
    assert report["quarantined_batches"] == []
    assert report["votes_removed"] == 0
    assert ledger.counts() == before
    row = ledger._conn.execute("SELECT report FROM ingest_log").fetchone()
    assert json.loads(row[0]) == {"reconciled": "kept"}


def _restart_after_tearing_a_votes_only_batch(tmp_path, first, tag):
    """Ingest ``first``, then ``s2``'s vote on the still-pending ``f1``
    (a batch that registers no fact), refresh once over both, lose the
    second batch's closing log row, and reopen the store."""
    service = make_service(tmp_path, tag=tag)
    service.apply_votes(first, refresh=False)
    service.apply_votes([("f1", "s2", "F")], refresh=False)
    service.refresh()
    ledger = service.ledger
    torn = ledger.max_batch_id()
    with ledger._conn as conn:
        conn.execute(
            "UPDATE ingest_log SET report = NULL WHERE batch_id = ?", (torn,)
        )
    before = ledger.counts()
    ledger.close()
    reopened = CorroborationService(VoteLedger(tmp_path / f"{tag}.db"))
    return reopened, torn, before


@pytest.mark.parametrize(
    "first",
    [
        [("f1", "s1", "T")],  # the torn batch registered s2
        [("f0", "s2", "T"), ("f1", "s1", "T")],  # s2 was already known
    ],
    ids=["new-source", "known-source"],
)
def test_reconcile_keeps_torn_batch_an_epoch_read(tmp_path, first):
    """A torn batch at or below the committed watermark was read by an
    epoch even when it only added votes to earlier facts: the audit keeps
    it, and the stored labels still replay."""
    service, torn, before = _restart_after_tearing_a_votes_only_batch(
        tmp_path, first, tag="votes-only"
    )
    report = service.recovery_report
    assert report["kept_batches"] == [torn]
    assert report["quarantined_batches"] == []
    assert report["votes_removed"] == 0
    assert service.ledger.counts() == before
    assert service.verify() == before["labels"]
    service.ledger.close()


def test_reconcile_deletes_orphan_labels(tmp_path):
    service = make_service(tmp_path, tag="orphan")
    service.apply_votes(batch("a"))
    service.apply_votes(batch("b"), refresh=False)  # committed, unlabelled
    ledger = service.ledger
    # An orphan: a label row whose epoch never committed (as left by a
    # writer killed between the label insert and the epochs row).
    with ledger._conn as conn:
        conn.execute(
            "INSERT INTO labels (fact_id, probability, label, flipped, epoch)"
            " VALUES ('b-f0', 0.9, 1, 0, 1)"
        )
    report = ledger.reconcile()
    assert report["orphan_labels"] == 1
    assert report["pending"] == 2  # both b facts back in the pending set
    # A refresh relabels them deterministically.
    decision = service.refresh()
    assert decision.dirty_facts == 2
    assert ledger.counts()["pending"] == 0


def test_reconcile_fresh_empty_store(tmp_path):
    """Reconciling a store that has never ingested anything is a clean
    no-op: no batches, no epochs, nothing pending — and nothing to
    trip over (regression: the audit must not assume a last epoch or a
    session state exists)."""
    ledger = VoteLedger(tmp_path / "fresh.db")
    report = ledger.reconcile()
    assert report["clean"] is True
    assert report["torn_batches"] == 0
    assert report["orphan_labels"] == 0
    assert report["last_epoch"] is None
    assert report["pending"] == 0
    assert report["quarantined_batches"] == []
    assert report["kept_batches"] == []
    # Idempotent, and a service boots over it without incident.
    assert ledger.reconcile() == report
    service = CorroborationService(ledger)
    assert service.recovery_report["clean"] is True
    assert service.state == "healthy"
    ledger.close()


def test_reconcile_fully_labelled_last_batch(tmp_path):
    """A store whose last batch is fully labelled reconciles clean and
    leaves every row untouched (regression: the audit must not mistake
    a *complete* final batch for a torn one, nor touch its labels)."""
    service = make_service(tmp_path, tag="labelled")
    service.apply_votes(batch("a"))
    service.apply_votes(batch("b"))  # last batch: refreshed, labelled
    ledger = service.ledger
    assert ledger.counts()["pending"] == 0
    before_counts = ledger.counts()
    before_labels = ledger.labels_map()
    report = ledger.reconcile()
    assert report["clean"] is True
    assert report["torn_batches"] == 0
    assert report["orphan_labels"] == 0
    assert report["last_epoch"] == 1
    assert report["pending"] == 0
    assert ledger.counts() == before_counts
    assert ledger.labels_map() == before_labels
    assert ledger.reconcile() == report  # idempotent


def test_reconcile_clean_on_stream_core_store(tmp_path):
    """A store written entirely by stream refreshes (``action='stream'``
    epochs, stream-format continuation) reconciles clean, and a service
    reboots over it."""
    service = make_service(tmp_path, tag="streamed")
    service.apply_votes(batch("a"))
    service.apply_votes(batch("b"))
    ledger = service.ledger
    assert {row["action"] for row in ledger.list_epochs()} == {"stream"}
    report = ledger.reconcile()
    assert report["clean"] is True
    assert report["last_epoch"] == 1
    reboot = CorroborationService(ledger)
    assert reboot.recovery_report["clean"] is True
    assert reboot.last_good_epoch == 1


def test_reconcile_raises_on_session_state_mismatch(tmp_path):
    service = make_service(tmp_path, tag="bad")
    service.apply_votes(batch("a"))
    ledger = service.ledger
    with ledger._conn as conn:
        conn.execute("UPDATE session_state SET epoch = 5")
    with pytest.raises(LedgerError, match="does not match"):
        ledger.reconcile()


def test_reconcile_raises_on_unlabelled_fact_below_watermark(tmp_path):
    """The dirty set is read above the last epoch's batch watermark, so a
    committed fact that lost its label would never be pending again: the
    audit refuses the store, and so does a service opened over it."""
    service = make_service(tmp_path, tag="watermark")
    service.apply_votes(batch("a"))
    service.apply_votes(batch("b"), refresh=False)  # above the watermark
    ledger = service.ledger
    with ledger._conn as conn:
        conn.execute("DELETE FROM labels WHERE fact_id = 'a-f0'")
    assert ledger.pending_facts() == ["b-f0", "b-f1"]
    with pytest.raises(LedgerError, match="1 fact.* watermark"):
        ledger.reconcile()
    with pytest.raises(LedgerError, match="watermark"):
        CorroborationService(ledger)


def test_service_startup_runs_reconcile(tmp_path):
    ledger = VoteLedger(tmp_path / "boot.db")
    with ledger._conn as conn:
        conn.execute(
            "INSERT INTO ingest_log (kind, created_at) VALUES ('votes', 'now')"
        )
    service = CorroborationService(ledger)
    assert service.recovery_report["torn_batches"] == 1
    assert service.state == "healthy"


# ---------------------------------------------------------------------------
# kill -9 convergence: crashed store == uninterrupted control
# ---------------------------------------------------------------------------
def _run_killed(tmp_path, script_body: str) -> None:
    script = textwrap.dedent(script_body)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True
    )
    assert proc.returncode == 9, proc.stderr.decode()


def _control_state(tmp_path):
    ledger = VoteLedger(tmp_path / "control.db")
    service = CorroborationService(ledger)
    service.apply_votes(batch("one"))
    service.apply_votes(batch("two"))
    state = ledger.labels_map(), ledger.trajectory_rows()
    ledger.close()
    return state


def test_kill9_mid_ingest_converges_to_control(tmp_path):
    path = tmp_path / "crash.db"
    _run_killed(
        tmp_path,
        f"""
        import os
        from repro.serve import CorroborationService
        from repro.store import VoteLedger

        service = CorroborationService(VoteLedger({str(path)!r}))
        service.apply_votes({batch("one")!r})

        def rows():
            for i, row in enumerate({batch("two")!r}):
                yield row
                if i == 2:
                    os._exit(9)  # dies inside the open ingest transaction

        service.apply_votes(rows())
        """,
    )
    ledger = VoteLedger(path)
    service = CorroborationService(ledger)  # reconcile runs at startup
    assert service.recovery_report["clean"] is True
    # The torn batch rolled back whole: re-applying it converges.
    service.apply_votes(batch("two"))
    assert (ledger.labels_map(), ledger.trajectory_rows()) == _control_state(
        tmp_path
    )
    ledger.close()


def test_kill9_mid_refresh_converges_to_control(tmp_path):
    path = tmp_path / "crash2.db"
    _run_killed(
        tmp_path,
        f"""
        import os
        from repro.serve import CorroborationService
        from repro.store import VoteLedger

        ledger = VoteLedger({str(path)!r})
        service = CorroborationService(ledger)
        service.apply_votes({batch("one")!r})

        def dying_record_stream_epoch(**kwargs):
            os._exit(9)  # dies before the epoch transaction commits

        ledger.record_stream_epoch = dying_record_stream_epoch
        service.apply_votes({batch("two")!r})
        """,
    )
    ledger = VoteLedger(path)
    service = CorroborationService(ledger)
    # The second batch's votes committed; its labels died with the
    # process.  The startup refresh replays them into the same epoch an
    # uninterrupted run would have committed.
    assert service.recovery_report["pending"] == 2
    decision = service.guarded_refresh()
    assert decision.action == "stream"
    assert (ledger.labels_map(), ledger.trajectory_rows()) == _control_state(
        tmp_path
    )
    ledger.close()
