"""Seeded, deterministic fault injection for the chaos test suite.

Every recovery path in the resilience layer is proven by injecting the
fault it recovers from: corrupted vote symbols, duplicated and conflicting
rows, truncated files, I/O errors mid-read, and NaN-poisoned trust.  A
:class:`FaultPlan` owns a seeded RNG, so a chaos test names a seed and gets
the exact same faults every run — flaky-by-construction inputs, never
flaky tests.  Each injected fault is appended to :attr:`FaultPlan.manifest`
so a test can assert that the ingest report accounts for *every* fault the
plan planted, not merely "some".

The module also ships two misbehaving corroborators (always-raising and
NaN-diverging) used to exercise the error-isolated sweep of
:func:`repro.eval.harness.run_methods`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.result import CorroborationResult, Corroborator
from repro.model.dataset import Dataset
from repro.resilience.errors import FaultInjected

#: Junk replacement tokens for corrupted vote symbols — none parse as a
#: legal vote (``T``/``F``) and none are the omission dash.
_BAD_SYMBOLS = ("X", "yes", "7", "??", "t rue")


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """One planted fault: what was injected and where."""

    kind: str
    location: str
    detail: str


class FlakyTextHandle:
    """A text handle that raises ``OSError`` after ``fail_after`` characters.

    Simulates a network filesystem dropping mid-read: the reader sees valid
    prefix lines, then an I/O error.  Supports the iteration protocol that
    ``csv`` readers use, plus ``read``/``readline`` for JSON loaders.
    """

    name = "<flaky>"

    def __init__(self, text: str, fail_after: int) -> None:
        self._text = text
        self._fail_after = fail_after
        self._position = 0

    def _check(self) -> None:
        if self._position >= self._fail_after:
            raise OSError("injected I/O fault: connection dropped mid-read")

    def read(self, size: int = -1) -> str:
        self._check()
        if size is None or size < 0:
            size = len(self._text) - self._position
        chunk = self._text[self._position : self._position + size]
        self._position += len(chunk)
        return chunk

    def readline(self) -> str:
        self._check()
        end = self._text.find("\n", self._position)
        if end == -1:
            line = self._text[self._position :]
        else:
            line = self._text[self._position : end + 1]
        self._position += len(line)
        return line

    def __iter__(self) -> "FlakyTextHandle":
        return self

    def __next__(self) -> str:
        line = self.readline()
        if not line:
            raise StopIteration
        return line

    def close(self) -> None:
        pass


class FaultPlan:
    """Deterministic injector of input faults, keyed by a seed.

    All choice points (which rows to corrupt, which junk symbol to use,
    where to truncate) draw from one ``numpy`` generator, so the same seed
    yields byte-identical corrupted inputs.  Every injection is logged in
    :attr:`manifest`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.manifest: list[InjectedFault] = []

    def _note(self, kind: str, location: str, detail: str) -> None:
        self.manifest.append(InjectedFault(kind=kind, location=location, detail=detail))

    def faults_of_kind(self, kind: str) -> list[InjectedFault]:
        return [fault for fault in self.manifest if fault.kind == kind]

    # ------------------------------------------------------------------
    # CSV corruption
    # ------------------------------------------------------------------
    def corrupt_votes_csv(
        self,
        text: str,
        *,
        bad_symbols: int = 0,
        dash_votes: int = 0,
        blank_fields: int = 0,
        duplicates: int = 0,
        conflicts: int = 0,
    ) -> str:
        """Plant faults into a ``fact,source,vote`` CSV; returns new text.

        In-place faults (bad symbols, dashes, blanked fields) mutate
        distinct existing data rows; duplicates and conflicts append copies
        of existing rows at the end of the file.  Line numbers in the
        manifest are 1-based file lines (header = line 1), matching the
        locations the ingest readers report.
        """
        lines = text.strip("\n").split("\n")
        header, rows = lines[0], lines[1:]
        in_place = bad_symbols + dash_votes + blank_fields
        if in_place > len(rows):
            raise ValueError("not enough rows to corrupt")
        chosen = self._rng.choice(len(rows), size=in_place, replace=False)
        cursor = 0

        def split(row: str) -> list[str]:
            return row.split(",")

        for _ in range(bad_symbols):
            index = int(chosen[cursor])
            cursor += 1
            fields = split(rows[index])
            symbol = str(self._rng.choice(_BAD_SYMBOLS))
            fields[2] = symbol
            rows[index] = ",".join(fields)
            self._note("bad_symbol", f"line {index + 2}", f"vote -> {symbol!r}")
        for _ in range(dash_votes):
            index = int(chosen[cursor])
            cursor += 1
            fields = split(rows[index])
            fields[2] = "-"
            rows[index] = ",".join(fields)
            self._note("dash_vote", f"line {index + 2}", "vote -> '-'")
        for _ in range(blank_fields):
            index = int(chosen[cursor])
            cursor += 1
            fields = split(rows[index])
            column = int(self._rng.integers(0, 2))  # blank the fact or source
            fields[column] = ""
            rows[index] = ",".join(fields)
            self._note(
                "blank_field",
                f"line {index + 2}",
                f"{'fact' if column == 0 else 'source'} -> ''",
            )
        # Appended faults copy rows that are still intact, so the original
        # stays the kept row and the appended one is the rejected duplicate.
        intact = [i for i in range(len(rows)) if i not in set(int(c) for c in chosen)]
        if duplicates + conflicts > len(intact):
            raise ValueError("not enough intact rows to duplicate")
        picked = self._rng.choice(len(intact), size=duplicates + conflicts, replace=False)
        appended: list[str] = []
        for offset in range(duplicates):
            index = intact[int(picked[offset])]
            appended.append(rows[index])
            line = 2 + len(rows) + len(appended) - 1
            self._note("duplicate_row", f"line {line}", f"copy of line {index + 2}")
        for offset in range(duplicates, duplicates + conflicts):
            index = intact[int(picked[offset])]
            fields = split(rows[index])
            fields[2] = "F" if fields[2].strip().upper() == "T" else "T"
            appended.append(",".join(fields))
            line = 2 + len(rows) + len(appended) - 1
            self._note(
                "conflicting_row", f"line {line}", f"flipped copy of line {index + 2}"
            )
        return "\n".join([header, *rows, *appended]) + "\n"

    # ------------------------------------------------------------------
    # Whole-file faults
    # ------------------------------------------------------------------
    def truncate(self, text: str, fraction: float | None = None) -> str:
        """Cut the text mid-byte-stream (defaults to a seeded fraction)."""
        if fraction is None:
            fraction = float(self._rng.uniform(0.3, 0.9))
        cut = max(1, int(len(text) * fraction))
        self._note("truncate", f"byte {cut}", f"kept {cut}/{len(text)} chars")
        return text[:cut]

    def flaky_handle(self, text: str, fail_after: int | None = None) -> FlakyTextHandle:
        """A reader over ``text`` that dies with ``OSError`` mid-read."""
        if fail_after is None:
            fail_after = int(self._rng.integers(len(text) // 4, 3 * len(text) // 4))
        self._note("io_error", f"char {fail_after}", "OSError after prefix read")
        return FlakyTextHandle(text, fail_after)

    # ------------------------------------------------------------------
    # Refresh faults (serving chaos)
    # ------------------------------------------------------------------
    def failing_refreshes(self, count: int) -> "RefreshFaults":
        """A refresh-path hook that fails the first ``count`` attempts.

        The corroboration service invokes the hook at the top of every
        refresh that has pending work (``CorroborationService(...,
        refresh_fault=hook)``); the first ``count`` invocations raise
        :class:`~repro.resilience.errors.FaultInjected` — enough
        consecutive failures trip the service's circuit breaker — and
        every later invocation is a no-op, so the breaker's half-open
        probe eventually sees a clean refresh and recovers.  Each raised
        fault is logged in :attr:`manifest`.
        """
        return RefreshFaults(self, count)

    # ------------------------------------------------------------------
    # Numeric poisoning
    # ------------------------------------------------------------------
    def nan_poison(self, values: dict, count: int = 1) -> dict:
        """Return a copy of ``values`` with ``count`` entries set to NaN."""
        keys = list(values)
        if count > len(keys):
            raise ValueError("not enough entries to poison")
        chosen = self._rng.choice(len(keys), size=count, replace=False)
        poisoned = dict(values)
        for index in chosen:
            key = keys[int(index)]
            poisoned[key] = float("nan")
            self._note("nan_poison", repr(key), "value -> nan")
        return poisoned


class RefreshFaults:
    """Callable refresh fault: raises for the first ``count`` attempts.

    Created via :meth:`FaultPlan.failing_refreshes`; called with the
    epoch the refresh would commit.  Deliberately *not* seeded beyond the
    plan that owns it — the fault schedule ("next N refreshes fail") must
    be exact so chaos runs can assert the precise breaker trajectory.
    """

    def __init__(self, plan: FaultPlan, count: int) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self._plan = plan
        self.remaining = count
        self.attempts = 0

    def __call__(self, epoch: int) -> None:
        self.attempts += 1
        if self.remaining <= 0:
            return
        self.remaining -= 1
        self._plan._note(
            "refresh_fault", f"epoch {epoch}", f"attempt {self.attempts} failed"
        )
        raise FaultInjected(
            f"injected refresh fault (attempt {self.attempts}, "
            f"{self.remaining} remaining)"
        )


# ---------------------------------------------------------------------------
# Misbehaving corroborators (sweep-isolation test doubles)
# ---------------------------------------------------------------------------
class FailingCorroborator(Corroborator):
    """Raises on every run — the simplest sweep-isolation case."""

    def __init__(self, name: str = "Failing", message: str = "injected failure"):
        self.name = name
        self._message = message

    def run(self, dataset: Dataset) -> CorroborationResult:
        raise FaultInjected(self._message)


class DivergingCorroborator(Corroborator):
    """Produces NaN trust after a few iterations — a diverging fixpoint.

    The NaN shows in the ``iteration`` records' ``max_trust_delta`` and in
    the returned trust, which the harness's post-run scan demotes to a
    failure.  Probabilities stay in ``[0, 1]`` (a NaN probability would be
    rejected by :class:`~repro.core.result.CorroborationResult` itself).
    """

    def __init__(self, iterations: int = 5, poison_after: int = 2):
        self.name = "Diverging"
        self._iterations = iterations
        self._poison_after = poison_after

    def run(self, dataset: Dataset) -> CorroborationResult:
        matrix = dataset.matrix
        trust = {source: 0.8 for source in matrix.sources}
        for iteration in range(self._iterations):
            delta = 0.1 if iteration < self._poison_after else float("nan")
            if iteration >= self._poison_after:
                trust = {source: float("nan") for source in matrix.sources}
            if self.obs.enabled:
                self.obs.runlog.emit(
                    "iteration",
                    method=self.name,
                    iteration=iteration,
                    max_trust_delta=delta,
                    converged=False,
                )
        probabilities = {fact: 0.5 for fact in matrix.facts}
        return self._result(probabilities, trust, iterations=self._iterations)
