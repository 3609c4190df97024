"""Error-isolated sweeps: failure rows, the NaN scan, strict sweeps.

One misbehaving corroborator — raising or NaN-diverging — must not take
down a sweep: it becomes a structured
:class:`~repro.eval.harness.MethodRun` failure row, lands in the run
ledger as a ``method_failure`` record, and renders in every metric table,
while the remaining methods' results stay identical to a run without it.
A strict sweep (``isolate_errors=False``) raises
:class:`~repro.parallel.ShardError` for the first failing method once
every method has run.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.baselines import Voting
from repro.core import IncEstHeu, IncEstimate
from repro.eval.harness import (
    errors_table,
    mse_table,
    quality_table,
    run_methods,
    timing_table,
)
from repro.obs import make_obs
from repro.parallel import ShardError
from repro.resilience.faults import DivergingCorroborator, FailingCorroborator


@pytest.fixture()
def methods():
    return [Voting(), FailingCorroborator(), IncEstimate(IncEstHeu())]


class TestIsolation:
    def test_failing_method_becomes_a_failure_row(self, motivating, methods):
        runs = run_methods(methods, motivating)
        assert [run.ok for run in runs] == [True, False, True]
        failure = runs[1]
        assert failure.failed
        assert failure.result is None
        assert failure.error_type == "FaultInjected"
        assert "injected failure" in failure.error
        assert failure.seconds >= 0

    def test_survivors_match_an_unsupervised_run(self, motivating, methods):
        supervised = run_methods(methods, motivating)
        alone = run_methods([Voting(), IncEstimate(IncEstHeu())], motivating)
        assert (
            supervised[0].result.probabilities == alone[0].result.probabilities
        )
        assert (
            supervised[2].result.probabilities == alone[1].result.probabilities
        )

    def test_fail_fast_restores_historical_behavior(
        self, tmp_path, motivating, methods
    ):
        # Strict names the first failing method, after every method ran:
        # the survivors on both sides of it were cached.
        with pytest.raises(ShardError, match=r"Failing failed \(FaultInjected\)"):
            run_methods(
                methods,
                motivating,
                isolate_errors=False,
                checkpoint_dir=tmp_path,
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "IncEstimate_IncEstHeu_.json",
            "Voting.json",
        ]

    def test_default_supervision_values(self):
        # Isolate failures by default, inline on one worker.
        parameters = inspect.signature(run_methods).parameters
        assert parameters["isolate_errors"].default is True
        assert parameters["workers"].default == 1

    def test_method_failure_lands_in_the_ledger(self, tmp_path, motivating):
        path = tmp_path / "ledger.jsonl"
        obs = make_obs(runlog=path)
        run_methods([FailingCorroborator()], motivating, obs=obs)
        obs.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        (failure,) = [r for r in records if r["kind"] == "method_failure"]
        assert failure["method"] == "Failing"
        assert failure["error_type"] == "FaultInjected"
        assert failure["seconds"] >= 0


class TestNanWatchdog:
    def test_post_run_scan_demotes_nan_trust(self, motivating):
        (run,) = run_methods([DivergingCorroborator()], motivating)
        assert run.failed
        assert run.error_type == "MethodDiverged"
        assert "trust" in run.error

    def test_nan_result_stops_a_strict_sweep(self, motivating):
        with pytest.raises(ShardError, match="MethodDiverged"):
            run_methods(
                [DivergingCorroborator(), Voting()],
                motivating,
                isolate_errors=False,
            )


class TestFailureRows:
    @pytest.fixture()
    def runs(self, motivating):
        return run_methods([Voting(), FailingCorroborator()], motivating)

    def test_quality_table(self, runs, motivating):
        rows = quality_table(runs, motivating)
        assert rows[1] == {"method": "Failing", "precision": "failed: FaultInjected"}

    def test_mse_table(self, runs, motivating):
        rows = mse_table(runs, motivating)
        assert rows[-1]["MSE"] == "failed: FaultInjected"

    def test_timing_table(self, runs):
        rows = timing_table(runs)
        assert rows[1]["status"] == "failed: FaultInjected"
        assert rows[1]["seconds"] >= 0

    def test_errors_table(self, runs, motivating):
        rows = errors_table(runs, motivating)
        assert rows[1] == {"method": "Failing", "errors": "failed: FaultInjected"}

    def test_tables_render(self, runs, motivating):
        from repro.eval.tables import render_table

        text = render_table(quality_table(runs, motivating))
        assert "failed: FaultInjected" in text


class TestSweepCheckpointing:
    def test_successful_runs_are_cached_and_resumed(self, tmp_path, motivating):
        directory = tmp_path / "sweep"
        first = run_methods(
            [Voting(), FailingCorroborator()],
            motivating,
            checkpoint_dir=directory,
        )
        assert (directory / "Voting.json").exists()
        # failures are not cached — the method retries on resume
        cached_files = sorted(p.name for p in directory.iterdir())
        assert cached_files == ["Voting.json"]

        resumed = run_methods(
            [Voting(), FailingCorroborator()],
            motivating,
            checkpoint_dir=directory,
            resume=True,
        )
        assert resumed[0].result.probabilities == first[0].result.probabilities
        assert resumed[1].failed

    def test_resume_skips_only_matching_methods(self, tmp_path, motivating):
        directory = tmp_path / "sweep"
        run_methods([Voting()], motivating, checkpoint_dir=directory)
        payload = json.loads((directory / "Voting.json").read_text())
        payload["method"] = "SomethingElse"
        (directory / "Voting.json").write_text(json.dumps(payload))
        runs = run_methods(
            [Voting()], motivating, checkpoint_dir=directory, resume=True
        )
        assert runs[0].ok  # re-ran rather than trusting the stale cache


class TestExperimentFailureRows:
    def test_table2_isolates_a_failing_method(self, motivating, monkeypatch):
        from repro.experiments import motivating_example as module

        original = module.run_methods

        def sabotaged(methods, *args, **kwargs):
            return original([FailingCorroborator(), *methods[1:]], *args, **kwargs)

        monkeypatch.setattr(module, "run_methods", sabotaged)
        rows = module.table2(dataset=motivating)
        assert rows[0] == {
            "method": "Failing",
            "precision": "failed: FaultInjected",
        }
        assert "precision" in rows[1] and rows[1]["precision"] != "failed"
