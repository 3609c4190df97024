"""Load generator for the corroboration serving stack.

Drives a *live* :func:`~repro.serve.make_server` instance over a real
socket with mixed traffic — an ingest driver POSTing fresh vote batches
(each one an ingest + incremental refresh, the serving hot path) while
query workers hammer the read endpoints — then scrapes ``/metrics`` and
``/statusz`` and cross-checks the server's own telemetry against the
client-side ground truth: the exposition must report at least as many
handled requests as the generator sent, the store totals must equal the
votes driven in, nothing may be left pending, and the refresh age must be
sane.  The result is the ``BENCH_load.json`` payload (see
:func:`repro.eval.bench.check_load` for the schema/floor side).

Traffic is deterministic per seed: batch contents, the query-op mix and
the per-worker interleaving within one worker are all drawn from seeded
:class:`random.Random` streams.  Wall-clock numbers naturally vary with
the host; the committed floors are set far below a healthy run.

Every fact a batch posts is *new* — the store's stale-fact rule rejects
votes on already-labelled facts, so a realistic generator, like a
realistic client, only ever extends the fact set.  Sources, which carry
trust across epochs, are reused from a fixed pool.

Chaos mode (:func:`run_chaos`) is the fault-tolerance twin: it drives a
*subprocess* ``repro serve`` through two drills — a ``kill -9`` mid-ingest
with a restart on the same store (zero acknowledged-vote loss, labels
bit-identical to an uninterrupted control run) and an injected-fault
refresh storm (breaker trips, 429 backpressure, degraded reads, recovery,
graceful SIGTERM drain) — and emits the ``BENCH_robustness.json`` payload
(see :func:`repro.eval.bench.check_robustness`).

Usage::

    PYTHONPATH=src python -m repro.eval.bench --suite load --quick
    PYTHONPATH=src python -m repro.eval.bench --suite robustness --quick
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.obs import Obs, make_obs
from repro.obs.prom import parse_prometheus_text
from repro.serve import CorroborationService, make_server
from repro.store import VoteLedger

#: Fraction of fact queries aimed at unknown ids (exercises the 404 path).
MISS_RATE = 0.05

#: Query-op mix (cumulative weights): fact reads dominate, trust reads
#: second, the status/health endpoints are the scrape-shaped tail.
_OP_FACT, _OP_TRUST, _OP_STATUSZ, _OP_HEALTHZ = 0.60, 0.80, 0.90, 1.0


@dataclasses.dataclass(frozen=True)
class LoadConfig:
    """Shape of one load run (all traffic derives from these + ``seed``)."""

    ingest_batches: int
    facts_per_batch: int
    votes_per_fact: int
    source_pool: int
    query_workers: int
    seed: int = 20140324  # EDBT'14

    @property
    def total_votes(self) -> int:
        return self.ingest_batches * self.facts_per_batch * self.votes_per_fact

    def to_record(self) -> dict:
        record = dataclasses.asdict(self)
        record["total_votes"] = self.total_votes
        return record


#: The two canonical run shapes: CI smoke vs the committed benchmark.
QUICK_CONFIG = LoadConfig(
    ingest_batches=6,
    facts_per_batch=8,
    votes_per_fact=3,
    source_pool=12,
    query_workers=2,
)
FULL_CONFIG = LoadConfig(
    ingest_batches=40,
    facts_per_batch=25,
    votes_per_fact=4,
    source_pool=40,
    query_workers=4,
)


def _vote_batch(config: LoadConfig, batch: int, rng: random.Random) -> list[dict]:
    """Batch ``batch``'s votes: fresh facts, pooled sources, seeded T/F."""
    votes = []
    for i in range(config.facts_per_batch):
        fact = f"load-f{batch}-{i}"
        sources = rng.sample(range(config.source_pool), config.votes_per_fact)
        # A seeded majority-true fact: the first source votes T, the rest
        # lean T — disagreement exists but labels stay non-degenerate.
        for j, source in enumerate(sources):
            symbol = "T" if j == 0 or rng.random() < 0.8 else "F"
            votes.append(
                {"fact": fact, "source": f"load-s{source}", "vote": symbol}
            )
    return votes


class _IngestDriver(threading.Thread):
    """POSTs every batch back-to-back; sustained votes/sec is its clock."""

    def __init__(self, host: str, port: int, config: LoadConfig) -> None:
        super().__init__(name="loadgen-ingest", daemon=True)
        self.host, self.port, self.config = host, port, config
        self.rng = random.Random(config.seed)
        self.posted_facts: list[str] = []  # append-only; GIL-safe to read
        self.latencies: list[float] = []
        self.errors = 0
        self.seconds = 0.0
        self.trace_ids: list[str] = []

    def run(self) -> None:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=30
        )
        started = time.perf_counter()
        try:
            for batch in range(self.config.ingest_batches):
                votes = _vote_batch(self.config, batch, self.rng)
                body = json.dumps({"votes": votes}).encode()
                sent = time.perf_counter()
                connection.request(
                    "POST",
                    "/votes",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                self.latencies.append(time.perf_counter() - sent)
                if response.status != 200:
                    self.errors += 1
                    continue
                self.trace_ids.append(payload["trace_id"])
                self.posted_facts.extend(payload["new_facts"])
        finally:
            self.seconds = time.perf_counter() - started
            connection.close()


class _QueryWorker(threading.Thread):
    """One keep-alive connection looping the seeded read mix until told."""

    def __init__(
        self,
        host: str,
        port: int,
        config: LoadConfig,
        worker: int,
        driver: _IngestDriver,
        stop: threading.Event,
    ) -> None:
        super().__init__(name=f"loadgen-query-{worker}", daemon=True)
        self.host, self.port = host, port
        self.config = config
        self.rng = random.Random(config.seed + 1_000 + worker)
        self.driver = driver
        self.stop = stop
        self.latencies: list[float] = []
        self.statuses: dict[int, int] = {}
        self.errors = 0

    def _pick_path(self) -> str:
        roll = self.rng.random()
        if roll < _OP_FACT:
            facts = self.driver.posted_facts
            if facts and self.rng.random() >= MISS_RATE:
                return f"/facts/{facts[self.rng.randrange(len(facts))]}"
            return f"/facts/missing-{self.rng.randrange(10_000)}"
        if roll < _OP_TRUST:
            source = self.rng.randrange(self.config.source_pool)
            return f"/sources/load-s{source}/trust"
        if roll < _OP_STATUSZ:
            return "/statusz"
        return "/healthz"

    def run(self) -> None:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=30
        )
        try:
            while not self.stop.is_set():
                path = self._pick_path()
                sent = time.perf_counter()
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    response.read()
                except (http.client.HTTPException, OSError):
                    self.errors += 1
                    connection.close()
                    connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=30
                    )
                    continue
                self.latencies.append(time.perf_counter() - sent)
                self.statuses[response.status] = (
                    self.statuses.get(response.status, 0) + 1
                )
        finally:
            connection.close()


def _scrape(host: str, port: int) -> tuple[dict[str, float], dict]:
    """One final ``/metrics`` + ``/statusz`` read over a fresh connection."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        exposition = response.read().decode()
        if response.status != 200:
            raise RuntimeError(f"/metrics answered {response.status}")
        connection.request("GET", "/statusz")
        response = connection.getresponse()
        statusz = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"/statusz answered {response.status}")
    finally:
        connection.close()
    return parse_prometheus_text(exposition), statusz


def _check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def run_load(
    config: LoadConfig,
    artifacts_dir: str | pathlib.Path | None = None,
    slow_ms: float = 500.0,
) -> dict:
    """Drive one load run against a live server; the results document.

    With ``artifacts_dir`` the run leaves its run ledger
    (``runlog.jsonl``, one ``serve_request`` record per handled request)
    and span trace (``trace.json``, Chrome JSON) behind for inspection /
    CI upload; without it the metrics still flow but nothing hits disk.
    Raises ``RuntimeError`` if any server-vs-client consistency check
    fails — a load bench that cannot trust the exposition has no business
    committing numbers derived from it.
    """
    artifacts = pathlib.Path(artifacts_dir) if artifacts_dir else None
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
        obs: Obs = make_obs(trace=True, runlog=artifacts / "runlog.jsonl")
    else:
        obs = make_obs(metrics=True)
    with tempfile.TemporaryDirectory() as tmp:
        ledger = VoteLedger(pathlib.Path(tmp) / "load.db", obs=obs)
        service = CorroborationService(ledger, obs=obs)
        server = make_server(service, port=0, slow_ms=slow_ms)
        host, port = server.server_address[:2]
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        stop = threading.Event()
        driver = _IngestDriver(host, port, config)
        workers = [
            _QueryWorker(host, port, config, i, driver, stop)
            for i in range(config.query_workers)
        ]
        try:
            driver.start()
            for worker in workers:
                worker.start()
            driver.join()
            stop.set()
            for worker in workers:
                worker.join()
            exposition, statusz = _scrape(host, port)
        finally:
            stop.set()
            server.shutdown()
            server.server_close()
            if obs.tracer.enabled and artifacts is not None:
                obs.tracer.write(artifacts / "trace.json")
            obs.close()
            ledger.close()

    if driver.errors:
        raise RuntimeError(f"{driver.errors} ingest batches failed")
    query_latencies = [s for w in workers for s in w.latencies]
    query_errors = sum(w.errors for w in workers)
    statuses: dict[str, int] = {}
    for worker in workers:
        for status, count in worker.statuses.items():
            statuses[str(status)] = statuses.get(str(status), 0) + count
    client_requests = len(driver.latencies) + len(query_latencies)

    failures: list[str] = []
    _check(
        exposition["repro_serve_requests_total"] >= client_requests,
        f"server counted {exposition['repro_serve_requests_total']} requests, "
        f"client sent {client_requests}",
        failures,
    )
    _check(
        exposition["repro_store_votes"] == config.total_votes,
        f"store holds {exposition['repro_store_votes']} votes, "
        f"drove {config.total_votes}",
        failures,
    )
    _check(
        exposition["repro_serve_pending_facts"] == 0,
        f"{exposition['repro_serve_pending_facts']} facts left pending",
        failures,
    )
    _check(
        exposition.get("repro_serve_refresh_age_seconds", -1.0) >= 0.0,
        "refresh age gauge missing or negative",
        failures,
    )
    p50_key = 'repro_serve_request_seconds_quantile{quantile="0.5"}'
    p99_key = 'repro_serve_request_seconds_quantile{quantile="0.99"}'
    _check(
        p50_key in exposition and p99_key in exposition,
        "request-latency quantile gauges missing from the exposition",
        failures,
    )
    _check(
        statusz["pending"] == 0 and statusz["counts"]["votes"] == config.total_votes,
        "statusz disagrees with the driven load",
        failures,
    )
    _check(
        statusz["requests"] >= client_requests,
        f"statusz counted {statusz.get('requests')} requests, "
        f"client sent {client_requests}",
        failures,
    )
    _check(
        statusz["last_refresh"] is not None
        and statusz["last_refresh"]["age_seconds"] >= 0.0,
        "statusz last_refresh is missing or has a negative age",
        failures,
    )
    _check(
        len(driver.trace_ids) == config.ingest_batches
        and len(set(driver.trace_ids)) == config.ingest_batches,
        "ingest responses did not carry unique trace ids",
        failures,
    )
    if failures:
        raise RuntimeError(
            "server telemetry disagrees with the driven load: "
            + "; ".join(failures)
        )

    ingest_ms = np.asarray(driver.latencies) * 1000.0
    query_ms = np.asarray(query_latencies) * 1000.0
    return {
        "config": config.to_record(),
        "ingest": {
            "batches": config.ingest_batches,
            "votes": config.total_votes,
            "seconds": round(driver.seconds, 6),
            "votes_per_second": round(config.total_votes / driver.seconds, 1)
            if driver.seconds > 0
            else 0.0,
            "p50_ms": round(float(np.percentile(ingest_ms, 50)), 3),
            "p99_ms": round(float(np.percentile(ingest_ms, 99)), 3),
        },
        "query": {
            "ops": len(query_latencies),
            "errors": query_errors,
            "statuses": statuses,
            "p50_ms": round(float(np.percentile(query_ms, 50)), 3),
            "p99_ms": round(float(np.percentile(query_ms, 99)), 3),
        },
        "server": {
            "requests": exposition["repro_serve_requests_total"],
            "slow_requests": exposition.get(
                "repro_serve_slow_requests_total", 0.0
            ),
            "request_p50_ms": round(exposition[p50_key] * 1000.0, 3),
            "request_p99_ms": round(exposition[p99_key] * 1000.0, 3),
            "facts": exposition["repro_store_facts"],
            "votes": exposition["repro_store_votes"],
            "refresh_age_seconds": exposition["repro_serve_refresh_age_seconds"],
        },
    }


# ---------------------------------------------------------------------------
# Chaos mode: crash + degraded-mode drills against a subprocess server
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run (both drills derive from these + ``seed``).

    The crash drill uses the batch shape and ``kill_at_batch``; the
    degraded drill reuses the batch shape and adds the fault/breaker/
    admission knobs, sized so the run *must* pass through every state the
    drill asserts on: ``fail_refreshes`` exceeds ``breaker_threshold``
    (the breaker trips and at least one half-open probe fails before the
    faults run dry) and ``max_pending`` is below the backlog two skipped
    batches accumulate (admission 429s actually fire).
    """

    batches: int
    facts_per_batch: int
    votes_per_fact: int
    source_pool: int
    kill_at_batch: int
    fail_refreshes: int
    breaker_threshold: int
    breaker_backoff_s: float
    max_pending: int
    seed: int = 20140324  # EDBT'14

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


#: The two canonical chaos shapes: CI smoke vs the committed benchmark.
CHAOS_QUICK = ChaosConfig(
    batches=6,
    facts_per_batch=6,
    votes_per_fact=3,
    source_pool=10,
    kill_at_batch=3,
    fail_refreshes=3,
    breaker_threshold=2,
    breaker_backoff_s=0.2,
    max_pending=10,
)
CHAOS_FULL = ChaosConfig(
    batches=14,
    facts_per_batch=10,
    votes_per_fact=3,
    source_pool=16,
    kill_at_batch=7,
    fail_refreshes=4,
    breaker_threshold=2,
    breaker_backoff_s=0.25,
    max_pending=16,
)


class RetryClient:
    """An at-least-once ``/votes`` client that survives server restarts.

    Every attempt opens a *fresh* connection — the server may have died
    and come back on the same port (or a new one; ``port`` is re-read
    each attempt) since the last request.  Connection errors and
    429/503 rejections back off (jittered exponential, honouring any
    ``Retry-After`` hint as a lower bound) and retry up to
    ``max_attempts``.  The one hard rule: a response that carries a
    ``batch_id`` is an acknowledgement — the batch is committed — so it
    is terminal even when the status is 503 (the refresh failed *after*
    the commit); retrying an acknowledged batch would only re-ingest
    duplicates.
    """

    def __init__(
        self,
        host: str,
        port: int,
        rng: random.Random,
        *,
        timeout_s: float = 30.0,
        base_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        max_attempts: int = 120,
    ) -> None:
        self.host, self.port = host, port
        self.rng = rng
        self.timeout_s = timeout_s
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self.max_attempts = max_attempts
        self.attempts = 0
        self.retries = 0
        self.rejected_429 = 0
        self.conn_errors = 0
        self.retry_after_waits = 0

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, dict | None]:
        for attempt in range(self.max_attempts):
            self.attempts += 1
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            try:
                headers = (
                    {"Content-Type": "application/json"}
                    if body is not None
                    else {}
                )
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                status = response.status
                retry_after = response.getheader("Retry-After")
            except (http.client.HTTPException, OSError):
                self.conn_errors += 1
                self._sleep(attempt, None)
                continue
            finally:
                connection.close()
            try:
                payload = json.loads(raw) if raw else None
            except ValueError:
                payload = None
            acked = isinstance(payload, dict) and "batch_id" in payload
            if status in (429, 503) and not acked:
                if status == 429:
                    self.rejected_429 += 1
                self._sleep(attempt, retry_after)
                continue
            return status, payload
        raise RuntimeError(
            f"retry budget exhausted: {method} {path} "
            f"after {self.max_attempts} attempts"
        )

    def _sleep(self, attempt: int, retry_after: str | None) -> None:
        self.retries += 1
        delay = min(self.max_backoff_s, self.base_backoff_s * 2**attempt)
        delay *= 0.5 + 0.5 * self.rng.random()
        if retry_after is not None:
            try:
                delay = max(delay, float(retry_after))
                self.retry_after_waits += 1
            except ValueError:
                pass
        time.sleep(delay)

    def post_votes(
        self, votes: list[dict], on_error: str = "skip"
    ) -> tuple[int, dict | None]:
        body = json.dumps({"votes": votes, "on_error": on_error}).encode()
        return self.request("POST", "/votes", body=body)

    def get_json(self, path: str) -> tuple[int, dict | None]:
        return self.request("GET", path)

    def to_record(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "rejected_429": self.rejected_429,
            "conn_errors": self.conn_errors,
            "retry_after_waits": self.retry_after_waits,
        }


_SERVING_RE = re.compile(r"http://([0-9.]+):([0-9]+)")


class _ServerProc:
    """A ``repro serve`` subprocess: spawn, await readiness, kill, drain.

    Chaos drills need a real process boundary — ``kill -9`` on a thread
    is not a thing — so the server runs as ``python -u -m repro serve``
    on an ephemeral port, the startup line is parsed for the bound
    address, and stdout+stderr are drained by a daemon thread for the
    lifetime of the process (both to avoid pipe-buffer deadlock and so
    the final ``server stopped`` line is observable after a drain).
    """

    def __init__(
        self,
        store: pathlib.Path,
        extra_args: tuple[str, ...] = (),
        startup_timeout_s: float = 60.0,
    ) -> None:
        src = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        command = [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--store",
            str(store),
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *extra_args,
        ]
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self._lines: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self._ready.wait(startup_timeout_s)
        if self.port == 0:
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise RuntimeError("server did not come up:\n" + self.output)

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)
            if not self._ready.is_set():
                match = _SERVING_RE.search(line)
                if match:
                    self.host = match.group(1)
                    self.port = int(match.group(2))
                    self._ready.set()
        self._ready.set()  # EOF: unblock a waiter whose server died early

    @property
    def output(self) -> str:
        return "".join(self._lines)

    def kill9(self) -> None:
        """SIGKILL — no drain, no flush; the crash under test."""
        self.proc.kill()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=5)

    def terminate(self, timeout_s: float = 30.0) -> int:
        """SIGTERM, wait out the graceful drain; returns the exit code."""
        self.proc.terminate()
        code = self.proc.wait(timeout=timeout_s)
        self._reader.join(timeout=5)
        return code


class _DegradedReader(threading.Thread):
    """Reads during the degraded drill: availability + states witnessed.

    Loops ``/healthz`` (state machine), ``/statusz`` and one known fact
    read over fresh connections.  Only connection-level errors count as
    failures — a 503 from a degraded ``/healthz`` *is* the contract
    working — and any fact body carrying ``stale: true`` is tallied as a
    witnessed degraded read.
    """

    def __init__(self, host: str, port: int, stop: threading.Event) -> None:
        super().__init__(name="chaos-reader", daemon=True)
        self.host, self.port = host, port
        self.stop = stop
        self.reads = 0
        self.failures = 0
        self.states_seen: set[str] = set()
        self.stale_reads = 0

    def run(self) -> None:
        paths = ("/healthz", "/statusz", "/facts/load-f0-0")
        index = 0
        while not self.stop.is_set():
            path = paths[index % len(paths)]
            index += 1
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=10
            )
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                payload = json.loads(response.read())
            except (http.client.HTTPException, OSError, ValueError):
                self.failures += 1
                continue
            finally:
                connection.close()
            self.reads += 1
            if path in ("/healthz", "/statusz") and "status" in payload:
                self.states_seen.add(payload["status"])
            if payload.get("stale"):
                self.stale_reads += 1
            time.sleep(0.01)


def _control_labels(
    store: pathlib.Path, batches: list[list[dict]]
) -> tuple[dict, dict]:
    """Apply every batch in-process, uninterrupted: the ground truth."""
    ledger = VoteLedger(store)
    try:
        service = CorroborationService(ledger)
        for votes in batches:
            service.apply_votes(votes, on_error="skip")
        return ledger.labels_map(), ledger.counts()
    finally:
        ledger.close()


def _run_crash_drill(
    config: ChaosConfig, tmp: pathlib.Path, runlog: pathlib.Path | None
) -> dict:
    """kill -9 mid-stream, restart on the same store, reconcile, drain."""
    batch_rng = random.Random(config.seed)
    batches = [
        _vote_batch(config, batch, batch_rng) for batch in range(config.batches)
    ]
    control, control_counts = _control_labels(tmp / "control.db", batches)

    store = tmp / "chaos-crash.db"
    extra = ("--runlog", str(runlog)) if runlog else ()
    server = _ServerProc(store, extra)
    client = RetryClient(
        server.host, server.port, random.Random(config.seed + 1)
    )
    acked_votes = 0
    acked_batches = 0
    recovery_seconds = 0.0
    restarts = 0
    try:
        for index, votes in enumerate(batches):
            if index == config.kill_at_batch:
                # Fire the batch, then SIGKILL the server while it is (or
                # is about to be) in flight; the retry client must carry
                # it across the restart without double-acknowledging.
                holder: dict[str, tuple[int, dict | None]] = {}

                def _post(votes=votes):
                    holder["result"] = client.post_votes(votes)

                poster = threading.Thread(target=_post, daemon=True)
                killed_at = time.perf_counter()
                poster.start()
                time.sleep(client.rng.uniform(0.0, 0.05))
                server.kill9()
                restarts += 1
                server = _ServerProc(store, extra)
                client.host, client.port = server.host, server.port
                poster.join(timeout=120)
                if "result" not in holder:
                    raise RuntimeError(
                        "in-flight batch never completed after restart"
                    )
                status, payload = holder["result"]
                recovery_seconds = time.perf_counter() - killed_at
            else:
                status, payload = client.post_votes(votes)
            if isinstance(payload, dict) and "batch_id" in payload:
                acked_batches += 1
                acked_votes += payload.get("votes_added", 0)
        _, statusz = client.get_json("/statusz")
        exit_code = server.terminate()
        stopped = "server stopped" in server.output
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait(timeout=30)

    ledger = VoteLedger(store)
    try:
        labels = ledger.labels_map()
        counts = ledger.counts()
    finally:
        ledger.close()
    return {
        "batches": config.batches,
        "restarts": restarts,
        "recovery_seconds": round(recovery_seconds, 3),
        "acked_batches": acked_batches,
        "acked_votes": acked_votes,
        "stored_votes": counts["votes"],
        "control_votes": control_counts["votes"],
        "lost_votes": max(0, acked_votes - counts["votes"]),
        "votes_match_control": counts["votes"] == control_counts["votes"],
        "labels_identical": labels == control,
        "labelled_facts": len(labels),
        "pending_after": counts["pending"],
        "recovery_report": (statusz or {}).get("recovery"),
        "clean_exit": exit_code == 0,
        "drained": stopped,
        "client": client.to_record(),
    }


def _run_degraded_drill(
    config: ChaosConfig, tmp: pathlib.Path, runlog: pathlib.Path | None
) -> dict:
    """Fault-injected refreshes: trip, backpressure, recover, drain."""
    store = tmp / "chaos-degraded.db"
    extra = [
        "--fail-refreshes",
        str(config.fail_refreshes),
        "--fault-seed",
        str(config.seed),
        "--breaker-threshold",
        str(config.breaker_threshold),
        "--breaker-backoff",
        str(config.breaker_backoff_s),
        "--max-pending",
        str(config.max_pending),
    ]
    if runlog:
        extra += ["--runlog", str(runlog)]
    server = _ServerProc(store, tuple(extra))
    client = RetryClient(
        server.host, server.port, random.Random(config.seed + 2)
    )
    stop = threading.Event()
    reader = _DegradedReader(server.host, server.port, stop)
    batch_rng = random.Random(config.seed)
    refresh_actions: dict[str, int] = {}
    try:
        reader.start()
        for batch in range(config.batches):
            votes = _vote_batch(config, batch, batch_rng)
            _, payload = client.post_votes(votes)
            if isinstance(payload, dict) and isinstance(
                payload.get("refresh"), dict
            ):
                action = payload["refresh"].get("action", "?")
                refresh_actions[action] = refresh_actions.get(action, 0) + 1
        # Nudge until the backlog is drained and the breaker is closed
        # again — each one-vote batch is another refresh attempt, so the
        # remaining injected faults run dry and the store converges.
        recovered = False
        deadline = time.perf_counter() + 120.0
        nudges = 0
        while time.perf_counter() < deadline:
            _, statusz = client.get_json("/statusz")
            if (
                isinstance(statusz, dict)
                and statusz.get("status") == "healthy"
                and statusz.get("pending") == 0
            ):
                recovered = True
                break
            client.post_votes(
                [
                    {
                        "fact": f"chaos-nudge-{nudges}",
                        "source": "load-s0",
                        "vote": "T",
                    }
                ]
            )
            nudges += 1
        _, final = client.get_json("/statusz")
        stop.set()
        reader.join(timeout=30)
        exit_code = server.terminate()
        stopped = "server stopped" in server.output
    finally:
        stop.set()
        if server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait(timeout=30)

    breaker = (final or {}).get("breaker", {})
    availability = (
        reader.reads / (reader.reads + reader.failures)
        if reader.reads + reader.failures
        else 0.0
    )
    return {
        "batches": config.batches,
        "fail_refreshes": config.fail_refreshes,
        "refresh_actions": refresh_actions,
        "rejected_429": client.rejected_429,
        "nudges": nudges,
        "recovered": recovered,
        "breaker_trips": breaker.get("trips", 0),
        "breaker_recoveries": breaker.get("recoveries", 0),
        "final_state": (final or {}).get("status"),
        "pending_after": (final or {}).get("pending"),
        "states_seen": sorted(reader.states_seen),
        "reads": reader.reads,
        "read_failures": reader.failures,
        "read_availability": round(availability, 4),
        "stale_reads": reader.stale_reads,
        "clean_exit": exit_code == 0,
        "drained": stopped,
        "client": client.to_record(),
    }


def run_chaos(
    config: ChaosConfig,
    artifacts_dir: str | pathlib.Path | None = None,
) -> dict:
    """Run both chaos drills; the ``BENCH_robustness.json`` payload body.

    With ``artifacts_dir`` each drill's server writes its run ledger
    (JSONL) there for inspection / CI upload.  Raises ``RuntimeError``
    if either drill violates an invariant the drill exists to prove —
    losing an acknowledged vote, label drift against the control run, a
    breaker that never tripped, or an unclean exit — so a "passing"
    payload can only describe a run where fault tolerance worked.
    """
    artifacts = pathlib.Path(artifacts_dir) if artifacts_dir else None
    crash_runlog = degraded_runlog = None
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
        crash_runlog = artifacts / "chaos_crash_runlog.jsonl"
        degraded_runlog = artifacts / "chaos_degraded_runlog.jsonl"
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)
        crash = _run_crash_drill(config, tmp, crash_runlog)
        degraded = _run_degraded_drill(config, tmp, degraded_runlog)

    failures: list[str] = []
    _check(
        crash["lost_votes"] == 0,
        f"crash drill lost {crash['lost_votes']} acknowledged votes",
        failures,
    )
    _check(
        crash["votes_match_control"],
        f"crash store holds {crash['stored_votes']} votes, "
        f"control holds {crash['control_votes']}",
        failures,
    )
    _check(
        crash["labels_identical"],
        "labels after kill -9 + restart drifted from the control run",
        failures,
    )
    _check(
        crash["pending_after"] == 0,
        f"{crash['pending_after']} facts left pending after the crash drill",
        failures,
    )
    _check(crash["clean_exit"], "crash-drill server exited unclean", failures)
    _check(
        degraded["breaker_trips"] >= 1,
        "degraded drill never tripped the breaker",
        failures,
    )
    _check(
        degraded["breaker_recoveries"] >= 1,
        "degraded drill never recovered the breaker",
        failures,
    )
    _check(
        "degraded" in degraded["states_seen"],
        f"reader never witnessed the degraded state "
        f"(saw {degraded['states_seen']})",
        failures,
    )
    _check(
        degraded["recovered"] and degraded["final_state"] == "healthy",
        f"degraded drill did not recover to healthy "
        f"(final: {degraded['final_state']}, pending: "
        f"{degraded['pending_after']})",
        failures,
    )
    _check(
        degraded["clean_exit"],
        "degraded-drill server exited unclean",
        failures,
    )
    if failures:
        raise RuntimeError(
            "chaos run violated a fault-tolerance invariant: "
            + "; ".join(failures)
        )
    return {
        "config": config.to_record(),
        "crash": crash,
        "degraded": degraded,
    }
