"""Request-scoped correlation: one trace ID through every layer.

The serving stack spans three packages — the HTTP handler accepts a vote
batch, the service refreshes labels, the store commits the batch — and a
production incident needs all three stories joined.  This module carries
one opaque trace ID across them on a :class:`contextvars.ContextVar`, so
the propagation costs no signature changes and is safe under the threaded
HTTP server (each request handler thread gets its own context).

Usage at the edge (the HTTP handler, the load generator)::

    with trace_scope(new_trace_id()) as trace_id:
        ...  # everything below sees current_trace_id() == trace_id

Downstream emitters (`serve_request` / `refresh` / `ingest_batch` runlog
records, `serve.*` / `store.*` spans, the slow-request WARNING) stamp
:func:`current_trace_id` into their records; outside any scope it is
``None`` and the field is simply omitted — batch runs stay byte-identical
to the pre-telemetry ledgers.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
import uuid
from collections.abc import Iterator

#: Trace IDs must be short header-safe tokens (hex IDs qualify).
_TRACE_ID_OK = re.compile(r"[A-Za-z0-9._\-]{1,64}$")

_CURRENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace ID (random, collision-safe per server)."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> str | None:
    """The trace ID of the enclosing :func:`trace_scope`, if any."""
    return _CURRENT.get()


def coerce_trace_id(candidate: str | None) -> str:
    """``candidate`` if it is a valid propagated ID, else a fresh one.

    The HTTP layer feeds the raw ``X-Trace-Id`` request header through
    this: a well-formed caller-supplied ID is honoured (cross-service
    correlation), anything missing or junk is replaced, never trusted.
    """
    if candidate is not None:
        candidate = candidate.strip()
        if candidate and _TRACE_ID_OK.match(candidate):
            return candidate
    return new_trace_id()


@contextlib.contextmanager
def trace_scope(trace_id: str | None = None) -> Iterator[str]:
    """Bind ``trace_id`` (default: a fresh one) for the enclosed block."""
    if trace_id is None:
        trace_id = new_trace_id()
    token = _CURRENT.set(trace_id)
    try:
        yield trace_id
    finally:
        _CURRENT.reset(token)
