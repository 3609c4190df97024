"""Server processes and the load generator of the serving benchmark.

The server always runs as its own process, started exactly as a user
would start it: ``repro ingest --store S --dataset D`` to seed, then
``repro serve --store S --port 0``, with default flags only (no
``--engine``, ``--refresh`` or ``--method``), so whichever core is the
default is the one measured.  The traced variant enters the same CLI
through ``perfbench/launcher.py``.

The load generator is this process, with at most two HTTP/1.1
keep-alive connections: connection 1 runs the workload ops
closed-loop; connection 2 sends one probe read beside each workload op
(see :func:`run_phase`).  Every request carries its
op id as ``X-Trace-Id`` so the traced run can join client latency to
server spans.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import pathlib
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from workloads import Op

#: Flags the benchmark must never pass: the default core, refresh policy
#: and method are what it measures.
FORBIDDEN_FLAGS = ("--engine", "--refresh", "--method")

_SERVING = re.compile(r"serving .* on http://([0-9.]+):(\d+) ")

HERE = pathlib.Path(__file__).resolve().parent


def server_env(root: pathlib.Path) -> dict:
    """The environment of every ``repro`` process: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONHASHSEED", None)
    return env


def ingest_command(store: pathlib.Path, dataset: pathlib.Path) -> list[str]:
    return [sys.executable, "-m", "repro", "ingest", "--store", str(store),
            "--dataset", str(dataset)]


def serve_command(store: pathlib.Path, spans: pathlib.Path | None = None) -> list[str]:
    """The server's command line; traced when ``spans`` is given."""
    args = ["serve", "--store", str(store), "--port", "0"]
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "launcher.py"), "--spans", str(spans), *args]


@dataclasses.dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int

    def peak_rss_mb(self) -> float:
        """The server process's ``VmHWM`` (peak resident set) in MiB."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return kib / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), wait, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


@dataclasses.dataclass
class Setup:
    server: Server
    ingest_s: float
    serve_s: float

    @property
    def seconds(self) -> float:
        return self.ingest_s + self.serve_s


def start(root: pathlib.Path, store: pathlib.Path, dataset: pathlib.Path,
          spans: pathlib.Path | None = None, timeout: float = 120.0) -> Setup:
    """Seed an empty store and start serving it; timed to the first 200.

    ``ingest_s`` is the ``repro ingest`` process; ``serve_s`` runs from
    launching ``repro serve`` (whose bootstrap refresh labels the seeded
    store) until ``/healthz`` first answers 200.
    """
    env = server_env(root)
    started = time.perf_counter()
    subprocess.run(ingest_command(store, dataset), cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=timeout)
    ingested = time.perf_counter()
    log = store.with_suffix(".log")
    with open(log, "wb") as out:
        proc = subprocess.Popen(serve_command(store, spans), cwd=root, env=env,
                                stdout=out, stderr=subprocess.STDOUT)
    server = None
    deadline = ingested + timeout
    try:
        while server is None:
            match = _SERVING.search(log.read_text(errors="replace"))
            if match:
                server = Server(proc, match.group(1), int(match.group(2)))
            elif proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start:\n{log.read_text()}")
            else:
                time.sleep(0.002)
        with Client(server.host, server.port) as client:
            while client.request(Op("healthz", "GET", "/healthz"))[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.002)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return Setup(server, ingested - started, time.perf_counter() - ingested)


class _Connection(http.client.HTTPConnection):
    """``http.client`` sends request headers and body in separate writes;
    like curl and urllib3, disable Nagle so the body is never held back
    waiting for the server's delayed ACK of the headers."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self._args = (host, port, timeout)
        self._conn = _Connection(host, port, timeout=timeout)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self._conn.close()

    def request(self, op: Op) -> tuple[int | None, dict | None]:
        """Send ``op``; ``(status, json body)`` or ``(None, None)`` if the
        connection failed (it is re-opened for the next request)."""
        headers = {"X-Trace-Id": op.op_id}
        if op.body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(op.method, op.path, body=op.body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = _Connection(*self._args)
            return None, None
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, None


@dataclasses.dataclass
class Result:
    op: Op
    status: int | None
    body: dict | None
    latency: float  # seconds, from send (workload op) or from due time (probe)
    late: float = 0.0  # probe only: how late the generator sent it


@dataclasses.dataclass
class Phase:
    ops: list[Result]
    probe: list[Result]
    wall_s: float  # first op sent to last op answered


def run_phase(server: Server, ops: list[Op], probe: list[Op], per_op: float,
              pauses: dict | None = None) -> Phase:
    """Run the workload's ops closed-loop beside the read probe.

    ``per_op`` probe reads are due while each workload op after the first
    is in flight (a fraction spreads them over several ops): read ``k``
    is due :func:`probe_fraction` ``(k)`` of the previous workload op's
    latency after the current op's send.  The fractions sweep the probe
    window evenly, so the probe samples the phases of a write's lock
    hold alike in every run, however few ops a run has.  The probe never
    waits for the workload ops: a probe read sent late (its connection
    still busy) is timed from when it was due.

    ``pauses`` maps a workload op index to a callable run (untimed, with
    the server idle) before that op is sent.
    """
    pauses = pauses or {}
    dues: queue.SimpleQueue = queue.SimpleQueue()
    probe_results: list[Result] = []

    def run_probe() -> None:
        with Client(server.host, server.port) as client:
            for op in probe:
                due = dues.get()
                if due is None:
                    return
                time.sleep(max(0.0, due - time.perf_counter()))
                sent = time.perf_counter()
                status, body = client.request(op)
                probe_results.append(
                    Result(op, status, body, time.perf_counter() - due, sent - due)
                )

    prober = threading.Thread(target=run_probe, name="probe")
    prober.start()
    results: list[Result] = []
    paused = 0.0
    try:
        with Client(server.host, server.port) as client:
            first = time.perf_counter()
            for index, op in enumerate(ops):
                if index in pauses:
                    pause_start = time.perf_counter()
                    pauses[index]()
                    paused += time.perf_counter() - pause_start
                sent = time.perf_counter()
                if index:
                    slots = range(int(per_op * (index - 1)), int(per_op * index))
                    for due in sorted(
                        sent + probe_fraction(k) * results[-1].latency for k in slots
                    ):
                        dues.put(due)
                status, body = client.request(op)
                results.append(Result(op, status, body, time.perf_counter() - sent))
            wall = time.perf_counter() - first - paused
    finally:
        dues.put(None)
        prober.join()
    return Phase(results, probe_results, wall)


#: Probe reads fall in [PROBE_FROM, PROBE_FROM + PROBE_SPAN) of the
#: previous op's latency.  A POST releases the service lock ~40 ms
#: before its client sees the response (the server's two-write stall),
#: so fractions near 1 land after the release; how many of those a run
#: gets varied from run to run and moved the probe median by 20 %.
PROBE_FROM, PROBE_SPAN = 0.05, 0.7


def probe_fraction(index: int) -> float:
    """A golden-ratio sequence, evenly spread over the probe window for
    any prefix."""
    return PROBE_FROM + PROBE_SPAN * ((0.5 + index * 0.6180339887498949) % 1.0)
