"""Corroboration service: refresh and verify, HTTP API, CLI."""

from __future__ import annotations

import http.client
import json
import signal
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.datasets import (
    generate_hubdub_like,
    generate_restaurants,
    generate_sparse_synthetic,
)
from repro.model.dataset import Dataset
from repro.obs import make_obs, validate_runlog_file
from repro.resilience.errors import (
    MALFORMED_ROW,
    MISSING_FIELD,
    STALE_FACT,
    IngestError,
)
from repro.serve import (
    CorroborationService,
    RefreshDecision,
    make_server,
)
from repro.store import LedgerError, VoteLedger


def vote_rows(dataset: Dataset, facts: list[str]) -> list[tuple[str, str, str]]:
    return [
        (fact, source, vote.value)
        for fact in facts
        for source, vote in sorted(dataset.matrix.votes_on(fact).items())
    ]


SMALL_RESTAURANTS = generate_restaurants(
    num_facts=150,
    golden_true=6,
    golden_false=4,
    golden_false_with_f_votes=2,
    seed=7,
).dataset
SMALL_HUBDUB = generate_hubdub_like(
    num_questions=12, num_users=20, num_answer_facts=30, seed=5
).questions.to_dataset()


# ---------------------------------------------------------------------------
# Refresh and verify
# ---------------------------------------------------------------------------
def test_new_sources_in_later_epochs(tmp_path):
    """Sources first seen mid-stream enter with λ and the epoch-0 prior."""
    ledger = VoteLedger(tmp_path / "s.db")
    service = CorroborationService(ledger)
    service.apply_votes([("f1", "s1", "T"), ("f2", "s1", "F"), ("f2", "s2", "T")])
    service.apply_votes([("f3", "s3", "T"), ("f4", "s3", "T"), ("f4", "s1", "T")])
    assert service.verify() == 4  # replay agrees with the stored labels
    trust = ledger.source_record("s3")
    assert trust is not None and trust["trust"] is not None
    ledger.close()


def test_verify_detects_tampering(tmp_path):
    ledger = VoteLedger(tmp_path / "s.db")
    service = CorroborationService(ledger)
    service.apply_votes(vote_rows(SMALL_RESTAURANTS, SMALL_RESTAURANTS.matrix.facts[:40]))
    ledger._conn.execute(
        "UPDATE labels SET probability = probability + 0.25 "
        "WHERE fact_id = (SELECT fact_id FROM labels LIMIT 1)"
    )
    ledger._conn.commit()
    with pytest.raises(LedgerError, match="replay mismatch"):
        service.verify()
    ledger.close()


def test_refresh_with_nothing_pending_is_a_noop(tmp_path):
    ledger = VoteLedger(tmp_path / "s.db")
    service = CorroborationService(ledger)
    decision = service.refresh()
    assert isinstance(decision, RefreshDecision)
    assert decision.action == "none"
    assert decision.dirty_facts == 0
    assert ledger.counts()["epochs"] == 0
    ledger.close()


def test_stale_votes_rejected_through_service(tmp_path):
    ledger = VoteLedger(tmp_path / "s.db")
    service = CorroborationService(ledger)
    service.apply_votes([("f1", "s1", "T")])
    with pytest.raises(IngestError) as excinfo:
        service.apply_votes([("f1", "s2", "F")])
    assert excinfo.value.reason == STALE_FACT
    # the failed batch committed nothing — labels and epochs unchanged
    assert ledger.counts()["epochs"] == 1
    ledger.close()


def test_service_runlog_records_validate(tmp_path):
    """ingest_batch / refresh / serve_request records pass the schema."""
    obs = make_obs(runlog=tmp_path / "serve.jsonl")
    ledger = VoteLedger(tmp_path / "s.db", obs=obs)
    service = CorroborationService(ledger, obs=obs)
    service.apply_votes([("f1", "s1", "T"), ("f2", "s1", "F")])
    server = make_server(service, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=5
        ) as response:
            assert response.status == 200
    finally:
        server.shutdown()
        server.server_close()
    obs.close()
    ledger.close()
    records = {"ingest_batch", "refresh", "serve_request"}
    import json as _json

    kinds = {
        _json.loads(line)["kind"]
        for line in (tmp_path / "serve.jsonl").read_text().splitlines()
    }
    assert records <= kinds
    validate_runlog_file(tmp_path / "serve.jsonl")


# ---------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------
@pytest.fixture()
def http_server(tmp_path):
    ledger = VoteLedger(tmp_path / "s.db")
    service = CorroborationService(ledger)
    service.apply_votes(
        [("f1", "s1", "T"), ("f1", "s2", "T"), ("f2", "s1", "F")]
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    ledger.close()


@pytest.fixture()
def http_service(http_server):
    return f"http://127.0.0.1:{http_server.server_address[1]}"


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read())


def post_raw(url: str, body: bytes):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read())


def post_json(url: str, payload: dict):
    return post_raw(url, json.dumps(payload).encode())


def test_http_healthz_and_metrics(http_service):
    status, health = get_json(f"{http_service}/healthz")
    assert status == 200
    assert set(health) == {
        "status",
        "method",
        "uptime_seconds",
        "pending",
        "facts",
        "epochs",
        "last_good_epoch",
        "breaker",
    }
    assert health["status"] == "healthy"
    assert health["pending"] == 0
    assert health["breaker"]["state"] == "closed"
    # /metrics is Prometheus text exposition, not JSON
    with urllib.request.urlopen(f"{http_service}/metrics", timeout=5) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        body = resp.read().decode()
    from repro.obs import parse_prometheus_text

    samples = parse_prometheus_text(body)
    assert samples["repro_serve_pending_facts"] == 0.0
    assert samples["repro_store_facts"] >= 2.0


def test_http_statusz(http_service):
    status, body = get_json(f"{http_service}/statusz")
    assert status == 200
    assert body["status"] == "healthy"
    assert body["breaker"]["state"] == "closed"
    assert body["admission"]["rejected_total"] == 0
    assert body["pending"] == 0
    assert body["counts"]["facts"] >= 2
    assert body["ingest"]["batches"] >= 1
    assert body["ingest"]["rows_dropped"] == 0
    assert body["last_refresh"]["action"] == "stream"
    assert body["last_refresh"]["age_seconds"] >= 0.0


def test_http_fact_and_source(http_service):
    status, fact = get_json(f"{http_service}/facts/f1")
    assert status == 200
    assert fact["status"] == "corroborated"
    assert fact["label"] is True
    assert fact["votes"] == {"s1": "T", "s2": "T"}
    status, source = get_json(f"{http_service}/sources/s1/trust")
    assert status == 200
    assert source["votes"] == 2
    assert len(source["trajectory"]) >= 2


def test_http_post_votes_and_refresh(http_service):
    # The second input needs percent-decoding on the way back: a space, a
    # non-ASCII letter and a ``/`` inside an id (``%2F``, not a separator).
    for fact_id, source_id in (("f3", "s2"), ("café noir", "s/1")):
        status, body = post_json(
            f"{http_service}/votes",
            {"votes": [{"fact": fact_id, "source": source_id, "vote": "T"}]},
        )
        assert status == 200
        assert body["new_facts"] == [fact_id]
        assert set(body["refresh"]) == {
            "action",
            "epoch",
            "dirty_facts",
            "seconds",
        }
        assert body["refresh"]["action"] == "stream"
        status, fact = get_json(
            f"{http_service}/facts/{urllib.parse.quote(fact_id, safe='')}"
        )
        assert status == 200
        assert fact["fact"] == fact_id
        assert fact["status"] == "corroborated"
        status, source = get_json(
            f"{http_service}/sources/"
            f"{urllib.parse.quote(source_id, safe='')}/trust"
        )
        assert status == 200
        assert source["source"] == source_id


def test_http_serves_store_past_signature_code_limit(tmp_path):
    # 2,000 sources: past the 1,024 at which grouping once changed shape;
    # the refresh path serves it like any other store.
    world = generate_sparse_synthetic(
        num_facts=600,
        num_sources=2000,
        num_templates=600,
        num_hubs=8,
        hub_bias=0.0,
        min_voters=4,
        max_voters=6,
        seed=11,
    ).dataset
    ledger = VoteLedger(tmp_path / "wide.db")
    ledger.import_dataset(world)
    assert ledger.counts()["sources"] > 1024
    service = CorroborationService(ledger)
    assert service.refresh().action == "stream"
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        status, body = post_json(
            f"{url}/votes",
            {"votes": [{"fact": "f-new", "source": "s-new", "vote": "T"}]},
        )
        assert status == 200
        assert body["refresh"]["action"] == "stream"
        status, fact = get_json(f"{url}/facts/f-new")
        assert status == 200
        assert fact["status"] == "corroborated"
        assert fact["label"] is True
        status, health = get_json(f"{url}/healthz")
        assert health["status"] == "healthy"
    finally:
        server.shutdown()
        server.server_close()
        ledger.close()


def test_http_errors(http_service):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(f"{http_service}/facts/nope")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(f"{http_service}/votes", {"nope": 1})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        # stale vote on the already-labelled f1 → typed 400
        post_json(
            f"{http_service}/votes",
            {"votes": [{"fact": "f1", "source": "s9", "vote": "T"}]},
        )
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["reason"] == STALE_FACT
    # Malformed rows, options and bodies: typed 400s, nothing ingested.
    # The raw bodies are nested past the parser's recursion limit, not
    # UTF-8, and hold an integer past Python's 4,300-digit limit.
    _, before = get_json(f"{http_service}/statusz")
    vote = {"fact": "f9", "source": "s9", "vote": "T"}
    for payload, reason in (
        ({"votes": ["abT"]}, MISSING_FIELD),
        ({"votes": [vote | {"fact": ["f9"]}]}, MALFORMED_ROW),
        ({"votes": [vote | {"source": {"a": 1}}]}, MALFORMED_ROW),
        ({"votes": [vote | {"fact": True}]}, MALFORMED_ROW),
        ({"votes": [vote], "on_error": "bogus"}, "bad_request"),
        ({"votes": [vote], "refresh": "false"}, "bad_request"),
        (b"[" * 200_000, "bad_json"),
        (b'{"votes": [{"fact": "f\xff9", "source": "s9", "vote": "T"}]}',
         "bad_json"),
        (b'{"votes": [{"fact": ' + b"7" * 5_000
         + b', "source": "s9", "vote": "T"}]}', "bad_json"),
    ):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_raw(f"{http_service}/votes", body)
        assert excinfo.value.code == 400, body[:80]
        assert json.loads(excinfo.value.read())["reason"] == reason, body[:80]
    _, after = get_json(f"{http_service}/statusz")
    assert after["counts"] == before["counts"]
    assert after["ingest"]["batches"] == before["ingest"]["batches"]


def test_http_ids_must_be_strings_or_numbers(http_service):
    """A list, object or boolean id is a counted ``malformed_row``, never
    stored as its Python repr, even when empty; a finite number, ``0``
    included, is stored as its ``str()``, and NaN or an infinity is
    ``malformed_row``."""
    rows = [
        {"fact": ["x"], "source": "s1", "vote": "T"},
        {"fact": "x", "source": {"a": 1}, "vote": "T"},
        {"fact": "x", "source": True, "vote": "T"},
        {"fact": [], "source": "s1", "vote": "T"},
        {"fact": 7, "source": 8.5, "vote": "T"},
        {"fact": 0, "source": 0.0, "vote": "T"},
    ]
    status, body = post_json(
        f"{http_service}/votes", {"votes": rows, "on_error": "skip"}
    )
    assert status == 200
    assert body["report"]["reasons"] == {MALFORMED_ROW: 4}
    assert body["new_facts"] == ["7", "0"]
    assert body["new_sources"] == ["8.5", "0.0"]
    for missing in ("%5B%27x%27%5D", "x"):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{http_service}/facts/{missing}")
        assert excinfo.value.code == 404
    status, fact = get_json(f"{http_service}/facts/7")
    assert fact["votes"] == {"8.5": "T"}
    status, fact = get_json(f"{http_service}/facts/0")
    assert status == 200
    assert fact["fact"] == "0"
    assert fact["votes"] == {"0.0": "T"}
    # ``json.loads`` reads these as floats; stored, ``Infinity`` and
    # ``1e400`` would both be the fact "inf".
    _, before = get_json(f"{http_service}/statusz")
    for fact_id, source_id in (
        (b"NaN", b'"s1"'),
        (b'"x"', b"Infinity"),
        (b"1e400", b'"s1"'),
    ):
        body = (
            b'{"votes": [{"fact": ' + fact_id + b', "source": '
            + source_id + b', "vote": "T"}]}'
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_raw(f"{http_service}/votes", body)
        assert excinfo.value.code == 400, body
        assert json.loads(excinfo.value.read())["reason"] == MALFORMED_ROW
    _, after = get_json(f"{http_service}/statusz")
    assert after["counts"] == before["counts"]


def recv_all(sock: socket.socket) -> bytes:
    """Every byte the server sends until it closes the connection."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def send_raw(address, request: bytes) -> bytes:
    """Send ``request`` on one connection; what came back before EOF."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        return recv_all(sock)


def raw_exchange(address, request: bytes) -> tuple[int, dict, dict, bytes]:
    """Send ``request`` on one connection and read until the server closes
    it: the first response's status, headers and JSON body, then every byte
    the server sent after that response."""
    data = send_raw(address, request)
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    length = int(headers["content-length"])
    return (
        int(status_line.split()[1]),
        headers,
        json.loads(rest[:length]),
        rest[length:],
    )


def server_address(url: str) -> tuple[str, int]:
    return "127.0.0.1", int(url.rsplit(":", 1)[1])


@pytest.mark.parametrize(
    ("head", "status"),
    [
        (b"POST /facts/f1 HTTP/1.1\r\nContent-Length: 13\r\n", 405),
        (b"POST /votes HTTP/1.1\r\nContent-Length: abc\r\n", 400),
        (b"POST /votes HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", 411),
    ],
    ids=["no-route", "bad-length", "chunked"],
)
def test_http_unread_body_closes_the_connection(http_service, head, status):
    # On a kept-alive connection the unread body and the next request
    # would be parsed as one request line.
    got, headers, payload, after = raw_exchange(
        server_address(http_service),
        head
        + b'Host: t\r\n\r\n{"votes": []}'
        + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    assert got == status
    assert headers["connection"] == "close"
    assert "reason" in payload
    assert after == b""  # one JSON answer, then EOF


def test_http_bodiless_requests_keep_the_connection(http_service):
    connection = http.client.HTTPConnection(
        *server_address(http_service), timeout=5
    )
    try:
        for _ in range(3):
            connection.request("GET", "/facts/missing")
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["reason"] == "not_found"
            assert response.will_close is False
    finally:
        connection.close()


def test_http_stalled_body_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.serve.http.BODY_TIMEOUT_S", 0.3)
    ledger = VoteLedger(tmp_path / "s.db")
    service = CorroborationService(ledger)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # 10 of the 100 announced body bytes, then the client goes quiet.
        status, _, payload, after = raw_exchange(
            server.server_address[:2],
            b"POST /votes HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n"
            b"\r\n0123456789",
        )
    finally:
        service.begin_drain()
        server.shutdown()
        idle = server.wait_idle(timeout=2.0)
        server.server_close()
        ledger.close()
    assert status == 408
    assert payload["reason"] == "request_timeout"
    assert after == b""
    assert idle  # the drain does not wait on the stalled client


@pytest.mark.parametrize(
    ("request_bytes", "status", "reason"),
    [
        (b"GARBAGE\r\n\r\n", 400, "bad_request"),
        (b"GET /healthz HTTP/9.9\r\nHost: t\r\n\r\n", 505,
         "http_version_not_supported"),
        (b"FOO /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 501, "not_implemented"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n", 414,
         "uri_too_long"),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: v\r\n" * 120 + b"\r\n", 431,
         "headers_too_large"),
    ],
    ids=["garbage", "version", "method", "long-uri", "many-headers"],
)
def test_http_server_rejections_are_json(
    http_service, request_bytes, status, reason
):
    # http.server answers these before any route runs.
    got, headers, payload, after = raw_exchange(
        server_address(http_service), request_bytes
    )
    assert got == status
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert headers["x-trace-id"]
    assert payload["reason"] == reason
    assert payload["error"]
    assert after == b""


def test_http_head_answer_has_no_body(http_service):
    # No route serves HEAD: http.server rejects it with a 501 whose
    # headers announce a body that a HEAD answer must not carry.
    data = send_raw(
        server_address(http_service), b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    head, _, rest = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 ")
    assert b"Content-Length: " in head
    assert rest == b""


def test_http_09_request_gets_the_body_alone(http_service):
    # HTTP/0.9 has no status line or headers, so nothing is buffered
    # ahead of the body.
    data = send_raw(server_address(http_service), b"GET /healthz HTTP/0.9\r\n\r\n")
    assert json.loads(data)["status"] == "healthy"


class CountingSocket:
    """An accepted socket that logs each write the handler makes on it."""

    def __init__(self, sock: socket.socket, writes: list[bytes]) -> None:
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class BrokenSocket(CountingSocket):
    """A connection whose client is gone: every write fails."""

    def sendall(self, data, *flags):
        self._writes.append(bytes(data))
        raise BrokenPipeError(32, "Broken pipe")


def probe_connections(server, wrapper=CountingSocket) -> list[dict]:
    """Swap ``server``'s handler for one that records, per accepted
    connection, its ``TCP_NODELAY`` option and every write made on it
    through ``wrapper``."""
    connections: list[dict] = []

    class Probe(server.RequestHandlerClass):
        def setup(self):
            writes: list[bytes] = []
            self.request = wrapper(self.request, writes)
            super().setup()
            nodelay = self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            connections.append({"nodelay": nodelay, "writes": writes})

    server.RequestHandlerClass = Probe
    return connections


@pytest.mark.parametrize(
    ("method", "path", "body", "status"),
    [
        ("GET", "/facts/f1", None, 200),
        ("POST", "/votes",
         b'{"votes": [{"fact": "f-one", "source": "s1", "vote": "T"}]}', 200),
        ("GET", "/facts/missing", None, 404),
        ("DELETE", "/votes", None, 405),
    ],
    ids=["get", "post", "not-found", "not-allowed"],
)
def test_http_answer_is_one_write(http_server, method, path, body, status):
    # Headers and body written apart leave the body to Nagle's algorithm,
    # which holds it until the client's delayed ACK of the headers.
    connections = probe_connections(http_server)
    connection = http.client.HTTPConnection(
        *http_server.server_address[:2], timeout=5
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    assert response.status == status
    (accepted,) = connections
    (write,) = accepted["writes"]
    assert write.startswith(f"HTTP/1.1 {status} ".encode())
    assert write.endswith(b"\r\n\r\n" + payload)


def test_http_accepted_socket_disables_nagle(http_server):
    connections = probe_connections(http_server)
    status, _ = get_json(
        f"http://127.0.0.1:{http_server.server_address[1]}/healthz"
    )
    assert status == 200
    assert [c["nodelay"] for c in connections] == [1]


@pytest.mark.parametrize(
    ("request_bytes", "what"),
    [
        (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", "GET /healthz"),
        (b"GARBAGE\r\n\r\n", "the 400 answer"),
    ],
    ids=["routed", "rejected"],
)
def test_http_broken_pipe_is_a_warning(
    http_server, repro_warnings, capsys, request_bytes, what
):
    connections = probe_connections(http_server, BrokenSocket)
    with socket.create_connection(http_server.server_address[:2], timeout=5) as sock:
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""  # the handler finished, answering nothing
    (accepted,) = connections
    assert len(accepted["writes"]) == 1
    messages = [record.getMessage() for record in repro_warnings]
    assert any(f"client disconnected during {what}" in m for m in messages)
    # socketserver's report of an exception that escaped the handler
    assert "Exception occurred during processing" not in capsys.readouterr().err


class NoDelayConnection(http.client.HTTPConnection):
    """``http.client`` writes request headers and body apart; like curl,
    the client disables Nagle so only the server's answer is timed."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def test_http_keep_alive_requests_do_not_stall(http_service):
    # A delayed-ACK stall costs ~40 ms per answer; these requests take a
    # few milliseconds of server work each.
    connection = NoDelayConnection(*server_address(http_service), timeout=5)

    def timed(method: str, path: str, body: bytes | None = None) -> float:
        started = time.perf_counter()
        connection.request(method, path, body=body)
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        assert not response.will_close
        return time.perf_counter() - started

    try:
        reads = [timed("GET", "/facts/f1") for _ in range(20)]
        writes = [
            timed(
                "POST",
                "/votes",
                json.dumps(
                    {"votes": [{"fact": f"k{i}", "source": "s1", "vote": "T"}]}
                ).encode(),
            )
            for i in range(20)
        ]
    finally:
        connection.close()
    assert statistics.median(reads) < 0.015, reads
    assert statistics.median(writes) < 0.015, writes


def test_http_expect_continue_answers_before_the_body(http_service):
    body = b'{"votes": [{"fact": "f-expect", "source": "s1", "vote": "T"}]}'
    head = (
        b"POST /votes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
    )
    with socket.create_connection(server_address(http_service), timeout=5) as sock:
        sock.sendall(head)
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(65536)
            assert chunk, interim
            interim += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        answer = recv_all(sock)
    assert answer.startswith(b"HTTP/1.1 200 ")
    assert json.loads(answer.partition(b"\r\n\r\n")[2])["new_facts"] == [
        "f-expect"
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_ingest_query_roundtrip(tmp_path, capsys):
    from repro.model.io import save_dataset

    dataset = SMALL_HUBDUB
    save_dataset(dataset, tmp_path / "d.json")
    store = str(tmp_path / "s.db")
    assert (
        cli_main(
            [
                "ingest",
                "--store",
                store,
                "--dataset",
                str(tmp_path / "d.json"),
                "--refresh",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "batch 1 (import)" in out
    assert '"action": "stream"' in out  # the first epoch streams from scratch

    assert cli_main(["query", "--store", store, "--summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["facts"] == dataset.matrix.num_facts
    assert summary["pending"] == 0

    fact = dataset.matrix.facts[0]
    assert cli_main(["query", "--store", store, "--fact", fact]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "corroborated"

    assert cli_main(["query", "--store", store, "--fact", "missing"]) == 1

    # One served algorithm: a default service's cold replay verifies every
    # label `ingest --refresh` wrote.
    with VoteLedger(store) as ledger:
        assert CorroborationService(ledger).verify() == summary["labels"]


@pytest.fixture()
def no_server(monkeypatch):
    """A ``serve`` command line that gets past parsing fails the test
    instead of serving for ever."""

    def refuse(*args, **kwargs):
        raise AssertionError("the command line got past argument parsing")

    monkeypatch.setattr("repro.serve.make_server", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--votes", "v.csv", "--method", "incestimate-ps"],
        ["serve", "--method", "incestimate"],
        ["serve", "--deadline-ms", "100"],
        ["serve", "--access-log", "x"],
    ],
    ids=["ingest", "serve", "serve-deadline", "serve-access-log"],
)
def test_cli_serve_path_has_no_method_flag(tmp_path, capsys, no_server, argv):
    store = tmp_path / "s.db"
    with pytest.raises(SystemExit) as excinfo:
        cli_main([argv[0], "--store", str(store), *argv[1:]])
    assert excinfo.value.code == 2
    # Each command line ends with a removed flag and its value.
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        ("--retain-points", "0"),
        ("--max-pending", "0"),
        ("--breaker-threshold", "0"),
        ("--breaker-backoff", "0"),
        ("--fail-refreshes", "-1"),
        ("--port", "70000"),
        ("--port", "-1"),
        ("--slow-ms", "nan"),
        ("--slow-ms", "-5"),
    ],
)
def test_cli_serve_rejects_bad_values_at_parse_time(
    tmp_path, capsys, no_server, flag, value
):
    store = tmp_path / "s.db"
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["serve", "--store", str(store), flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro serve")
    assert f"argument {flag}:" in err
    assert not store.exists()


def test_cli_serve_bootstraps_the_store(tmp_path, capsys, monkeypatch):
    # `repro serve` past parsing: the start-up refresh labels an ingested
    # store under --retain-points before the (stubbed) accept loop runs.
    from repro.model.io import save_dataset

    class ReturningServer:
        server_address = ("127.0.0.1", 0)

        def serve_forever(self):
            pass

        def wait_idle(self, timeout):
            return True

        def server_close(self):
            pass

    monkeypatch.setattr(
        "repro.serve.make_server", lambda service, **kwargs: ReturningServer()
    )
    save_dataset(SMALL_HUBDUB, tmp_path / "d.json")
    store = str(tmp_path / "s.db")
    assert (
        cli_main(["ingest", "--store", store, "--dataset", str(tmp_path / "d.json")])
        == 0
    )
    capsys.readouterr()
    previous = signal.getsignal(signal.SIGTERM)
    try:
        code = cli_main(
            ["serve", "--store", store, "--port", "0", "--retain-points", "4"]
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == 0
    out = capsys.readouterr().out
    assert "bootstrap=stream, state=healthy" in out
    with VoteLedger(store) as ledger:
        counts = ledger.counts()
        assert counts["pending"] == 0
        assert counts["labels"] == counts["facts"] == SMALL_HUBDUB.matrix.num_facts
        assert 0 < len(ledger.trajectory_rows()) <= 4
        assert CorroborationService(ledger).verify() == counts["labels"]


def test_cli_ingest_votes_csv(tmp_path, capsys):
    from repro.model.io import write_votes_csv

    write_votes_csv(SMALL_HUBDUB, tmp_path / "v.csv")
    store = str(tmp_path / "s.db")
    assert (
        cli_main(["ingest", "--store", store, "--votes", str(tmp_path / "v.csv")])
        == 0
    )
    out = capsys.readouterr().out
    assert "batch 1 (votes)" in out
    assert cli_main(["query", "--store", store, "--summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["votes"] == sum(
        len(SMALL_HUBDUB.matrix.votes_on(f)) for f in SMALL_HUBDUB.matrix.facts
    )
    assert summary["pending"] == summary["facts"]  # no --refresh: pending
