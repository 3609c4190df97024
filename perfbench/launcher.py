"""Traced server launcher: ``repro serve`` with spans around each layer.

Usage (from the repository root)::

    python3 perfbench/launcher.py --spans OUT.jsonl serve --store S --port 0

The launcher wraps the public functions listed in :data:`WRAPS` (by class
and name), then enters ``repro.cli.main`` with the remaining arguments,
exactly as ``python -m repro`` would.  Spans stay in memory and are
written to ``--spans`` when ``main`` returns (SIGTERM drain).  Nothing
inside ``src/`` is modified: a listed function that no longer exists is
reported absent, never an error.

Each span records its layer, function, start, end, parent span and the
request id, which is the request's ``X-Trace-Id`` header (the load
generator sets it to the op id).  Only calls made while an HTTP handler
runs are recorded.  A call into a layer from inside the same layer (e.g.
``fact_record`` calling ``votes_on``) is folded into the outer span, so
each span's self time belongs to exactly one layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pathlib
import sys
import threading
import time

#: (layer, module, class or None for module functions, named functions,
#: whether every other public method of the class is wrapped too).
WRAPS = (
    ("http", "repro.serve.http", "CorroborationRequestHandler",
     ("do_GET", "do_POST"), False),
    ("service", "repro.serve.service", "CorroborationService",
     ("apply_votes", "guarded_refresh", "refresh", "fact", "source_trust"), True),
    ("store", "repro.store.ledger", "VoteLedger",
     ("ingest_votes", "pending_facts", "load_session_state", "record_epoch",
      "record_stream_epoch", "sources_up_to_batch", "votes_on", "fact_record",
      "source_record", "counts", "max_batch_id"), True),
    ("stream", "repro.stream.engine", "StreamEngine", ("run_epoch",), False),
    ("core", "repro.core.session", "CorroborationSession",
     ("step", "finalize", "snapshot", "restore"), False),
    ("core", "repro.core.incestimate", "IncEstimate", ("session",), False),
    ("core", "repro.serve.service", None,
     ("graft_snapshot", "carry_from_snapshot"), False),
    ("core", "repro.stream.engine", None,
     ("stream_graft", "counters_from_snapshot"), False),
)

#: The handler functions that open a request.
ROOTS = frozenset({"do_GET", "do_POST"})


def _trajectory_rows(name: str, kwargs: dict, result) -> int | None:
    """Trust-trajectory rows a persist call wrote (``store.trajectory_rows``)."""
    if name == "record_epoch":
        return sum(len(vector) for vector in kwargs.get("trajectory", ()))
    if name == "record_stream_epoch" and isinstance(result, dict):
        return result.get("rows_appended", 0) + result.get("rows_backfilled", 0)
    return None


class SpanRecorder:
    """In-memory spans of every traced request, per handler thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def wrap(self, layer: str, name: str, fn):
        root = layer == "http" and name in ROOTS
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if root:
                rid = args[0].headers.get("X-Trace-Id", "")
                stack = local.stack = []
            elif not stack or stack[-1][1] == layer:
                return fn(*args, **kwargs)
            else:
                rid = stack[-1][0]
            span_id = next(ids)
            parent = stack[-1][2] if stack else -1
            stack.append((rid, layer, span_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if root:
                    local.stack = None
            rows = _trajectory_rows(name, kwargs, result)
            spans.append((rid, layer, name, start, end, span_id, parent, rows))
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, owner_name, names, all_public in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
                continue
            owner = module if owner_name is None else getattr(module, owner_name, None)
            label = module_name if owner_name is None else f"{module_name}.{owner_name}"
            if owner is None:
                self.absent.extend(f"{label}.{n}" for n in names)
                continue
            targets = list(names)
            if all_public:
                targets += sorted(
                    n for n, v in vars(owner).items()
                    if not n.startswith("_") and inspect.isfunction(v) and n not in names
                )
            for name in targets:
                fn = (vars(owner) if owner_name else vars(module)).get(name)
                if not inspect.isfunction(fn):
                    self.absent.append(f"{label}.{name}")
                    continue
                setattr(owner, name, self.wrap(layer, name, fn))
                self.wrapped.append(f"{layer}:{label}.{name}")

    def write(self, path: pathlib.Path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"wrapped": self.wrapped, "absent": self.absent}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launcher.py --spans PATH serve ...", file=sys.stderr)
        return 2
    spans_path, cli_args = pathlib.Path(argv[1]), argv[2:]
    sys.path.insert(0, str(pathlib.Path.cwd() / "src"))
    from repro import cli

    recorder = SpanRecorder()
    recorder.install()
    try:
        return cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
