"""Incremental corroboration service: keep a vote ledger's labels live.

:class:`CorroborationService` applies vote batches to a
:class:`~repro.store.VoteLedger` and refreshes its labels with the
epoch-replay semantics documented in ``docs/serving.md``;
:func:`make_server` wraps it in a stdlib JSON/HTTP API.  The CLI front
door is ``repro serve`` / ``repro ingest`` / ``repro query``.

Every refresh runs on one core, :mod:`repro.stream`: the continuation
state is O(sources) and a refresh appends its trajectory rows instead of
rewriting the table.  Cold replay of the ingest log through the same
engine has one role, ``verify()``: read-only, called explicitly, never
inside a request.  See ``docs/streaming.md``.
"""

from repro.serve.http import (
    ROUTES,
    CorroborationHTTPServer,
    CorroborationRequestHandler,
    make_server,
)
from repro.serve.service import (
    SERVICE_STATES,
    AdmissionRejected,
    CorroborationService,
    RefreshDecision,
    RefreshFailure,
    ServeRejected,
    ServiceDraining,
)

__all__ = [
    "AdmissionRejected",
    "CorroborationHTTPServer",
    "CorroborationRequestHandler",
    "CorroborationService",
    "ROUTES",
    "RefreshDecision",
    "RefreshFailure",
    "SERVICE_STATES",
    "ServeRejected",
    "ServiceDraining",
    "make_server",
]
