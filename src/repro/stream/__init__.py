"""Streaming-native incremental core: vote in → bounded deltas out.

:class:`StreamEngine` runs one refresh epoch of the paper's incremental
algorithm *without* replaying, grafting or checkpointing: its session
starts from the carried per-source triples ``[correct, total, trust]``
(plus three scalars, :class:`StreamState`) and each epoch emits only its
own new label rows and trajectory rows (:class:`StreamDelta`).  It is the
only refresh core of :mod:`repro.serve`: every refresh streams, and the
one cold replay — ``verify()`` — re-runs the committed epochs through the
same engine.  The carry/graft epoch replay it is proven bit-identical to
lives on as the reference in ``tests/stream_oracle.py``.  See
``docs/streaming.md``.
"""

from repro.stream.engine import (
    STREAM_STATE_FORMAT,
    StreamDelta,
    StreamEngine,
    StreamState,
)

__all__ = [
    "STREAM_STATE_FORMAT",
    "StreamDelta",
    "StreamEngine",
    "StreamState",
]
