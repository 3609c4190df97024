"""Checkpoint/resume: bit-identical continuation, validation, atomicity.

The contract under test: a session killed after any round and restored
from its checkpoint finishes **bit-identically** to the uninterrupted run,
on both the scalar and the array backend; checkpoints refuse to load into
the wrong session; the atomic writer never leaves a torn file behind; the
JSONL ledger tolerates exactly one torn tail line.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import IncEstHeu, IncEstimate
from repro.core.variants import RandomGroups
from repro.datasets import (
    generate_restaurants,
    generate_sparse_synthetic,
    motivating_example,
)
from repro.model.dataset import Dataset
from repro.model.votes import Vote
from repro.obs.runlog import JsonlRunLog, read_runlog
from repro.resilience.atomic import atomic_write_text
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    dataset_fingerprint,
)
from repro.resilience.errors import CheckpointError


@pytest.fixture(scope="module")
def world():
    return generate_restaurants(num_facts=400, seed=5)


def _wide_world(seed: int = 4):
    """1,500 sources: past the fingerprint's packed-votes limit."""
    return generate_sparse_synthetic(
        num_facts=3000,
        num_sources=1500,
        num_templates=300,
        num_hubs=30,
        seed=seed,
    )


def _final_state(session):
    result = session.finalize()
    return (
        dict(result.probabilities),
        dict(result.trust),
        result.trajectory.as_rows(),
        [
            (r.time_point, r.signature, r.probability, r.label, tuple(r.facts))
            for r in session.rounds
        ],
    )


def _method(engine: bool, strategy=None):
    return IncEstimate(strategy or IncEstHeu(), engine=engine)


class TestBitIdenticalResume:
    @staticmethod
    def _assert_resume_matches(tmp_path, dataset, engine, kill_after):
        baseline = _method(engine).session(dataset)
        while not baseline.done:
            baseline.step()
        expected = _final_state(baseline)

        manager = CheckpointManager(tmp_path / "ckpt")
        first = _method(engine).session(dataset)
        for _ in range(kill_after):
            first.step()
        manager.save(first)
        del first  # the "kill"

        resumed = _method(engine).session(dataset)
        resumed.restore(manager.load())
        assert resumed.time_point == kill_after
        while not resumed.done:
            resumed.step()
        assert _final_state(resumed) == expected

    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "scalar"])
    @pytest.mark.parametrize("kill_after", [1, 3, 7])
    def test_kill_and_resume_matches_uninterrupted(
        self, tmp_path, world, engine, kill_after
    ):
        self._assert_resume_matches(tmp_path, world.dataset, engine, kill_after)

    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "scalar"])
    def test_resume_past_signature_code_limit(self, tmp_path, engine):
        dataset = _wide_world().dataset
        assert dataset.matrix.num_sources > 1024
        self._assert_resume_matches(tmp_path, dataset, engine, kill_after=2)

    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "scalar"])
    def test_random_groups_rng_state_round_trips(self, tmp_path, world, engine):
        dataset = world.dataset

        def method():
            return _method(engine, RandomGroups(seed=17))

        baseline = method().session(dataset)
        while not baseline.done:
            baseline.step()
        expected = _final_state(baseline)

        manager = CheckpointManager(tmp_path / "ckpt")
        first = method().session(dataset)
        for _ in range(4):
            first.step()
        manager.save(first)
        resumed = method().session(dataset)
        resumed.restore(manager.load())
        while not resumed.done:
            resumed.step()
        assert _final_state(resumed) == expected

    def test_snapshot_is_json_safe(self, world):
        session = _method(True).session(world.dataset)
        session.step()
        payload = json.dumps(session.snapshot())
        restored = _method(True).session(world.dataset)
        restored.restore(json.loads(payload))
        assert restored.time_point == 1


class TestRestoreValidation:
    def test_dataset_fingerprint_mismatch(self, tmp_path, world):
        manager = CheckpointManager(tmp_path)
        session = _method(True).session(world.dataset)
        session.step()
        manager.save(session)
        other = motivating_example()
        fresh = _method(True).session(other)
        with pytest.raises(CheckpointError, match="dataset_fingerprint"):
            fresh.restore(manager.load())

    def test_backend_mismatch(self, world):
        session = _method(True).session(world.dataset)
        session.step()
        snapshot = session.snapshot()
        scalar = _method(False).session(world.dataset)
        with pytest.raises(CheckpointError, match="backend"):
            scalar.restore(snapshot)

    def test_parameter_mismatch(self, world):
        session = _method(True).session(world.dataset)
        session.step()
        snapshot = session.snapshot()
        fresh = IncEstimate(IncEstHeu(), default_trust=0.55).session(world.dataset)
        with pytest.raises(CheckpointError, match="default_trust"):
            fresh.restore(snapshot)

    def test_stepped_session_refuses_restore(self, world):
        session = _method(True).session(world.dataset)
        session.step()
        snapshot = session.snapshot()
        stepped = _method(True).session(world.dataset)
        stepped.step()
        with pytest.raises(CheckpointError, match="freshly constructed"):
            stepped.restore(snapshot)

    def test_malformed_snapshot_is_a_checkpoint_error(self, world):
        session = _method(True).session(world.dataset)
        snapshot = session.snapshot()
        snapshot["rounds"] = [{"nonsense": True}]
        fresh = _method(True).session(world.dataset)
        with pytest.raises(CheckpointError, match="malformed"):
            fresh.restore(snapshot)

    def test_fingerprint_ignores_truth(self, world):
        dataset = world.dataset
        stripped = Dataset(matrix=dataset.matrix, name=dataset.name)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(stripped)

    def test_fingerprint_bytes_are_stable(self):
        # Checkpoints already on disk embed this digest; an encoding change
        # at <= 1,024 sources would make every one of them unloadable.
        assert dataset_fingerprint(motivating_example()) == (
            "809579c10eec06562e86c4dc6fd17f5b1669bd3bbffd3452de07f01e68613a4c"
        )

    @pytest.mark.parametrize(
        "num_facts, num_sources, num_templates, num_hubs, seed, digest",
        [
            (2000, 300, 200, 20, 3,
             "5b7fc838ecefb3f01efd6dee1ef6f73411a5cc4fa8648438aa348694a8d8dc0d"),
            (500, 1024, 100, 10, 5,
             "d849a43b1aa74aa8fa18a69a3583e5e98dbc937276745e7d5a67d2b7054b2f48"),
            (500, 1025, 100, 10, 5,
             "2b9ac3937f5bc63a6598dafad61be8ecc5825a12ccd165aee58d0e31ceb580a0"),
            (3000, 1500, 300, 30, 4,
             "7eefa76e0f1a4648fccfd55881865774bbf7c9f80bdb59f38351ba6659433638"),
        ],
        ids=["300-sources", "1024-sources", "1025-sources", "1500-sources"],
    )
    def test_wide_fingerprint_bytes_are_stable(
        self, num_facts, num_sources, num_templates, num_hubs, seed, digest
    ):
        # Past 31 sources a fact's packed votes outgrow an int64, and past
        # 1,024 each fact hashes its JSON signature; both encodings are
        # embedded in checkpoints on disk.
        world = generate_sparse_synthetic(
            num_facts=num_facts,
            num_sources=num_sources,
            num_templates=num_templates,
            num_hubs=num_hubs,
            seed=seed,
        )
        assert dataset_fingerprint(world.dataset) == digest

    def test_fingerprint_is_cached_until_the_matrix_changes(self):
        dataset = motivating_example()
        first = dataset_fingerprint(dataset)
        cache = dataset.matrix.derived_cache()
        assert cache["dataset_fingerprint"] == first
        cache["dataset_fingerprint"] = "served-from-cache"
        assert dataset_fingerprint(dataset) == "served-from-cache"
        dataset.matrix.add_vote("r1", "s5", Vote.TRUE)
        assert "dataset_fingerprint" not in cache
        assert dataset_fingerprint(dataset) not in (first, "served-from-cache")

    def test_wide_fingerprint_hashes_the_votes(self):
        # Same fact and source ids, different votes.
        assert dataset_fingerprint(_wide_world(4).dataset) != (
            dataset_fingerprint(_wide_world(5).dataset)
        )


class TestCheckpointManager:
    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "nothing").load() is None

    def test_corrupt_file_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.path.write_text("{not json")
        with pytest.raises(CheckpointError):
            manager.load()

    def test_wrong_schema_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.path.write_text(
            json.dumps(
                {
                    "checkpoint_schema_version": CHECKPOINT_SCHEMA_VERSION + 1,
                    "session": {},
                }
            )
        )
        with pytest.raises(CheckpointError, match="schema"):
            manager.load()

    def test_every_throttles_saves(self, tmp_path, world):
        manager = CheckpointManager(tmp_path, every=3)
        session = _method(True).session(world.dataset)
        written = []
        for _ in range(5):
            session.step()
            written.append(manager.save(session) is not None)
        assert written == [False, False, True, False, False]
        # force and a finished session always write
        assert manager.save(session, force=True) is not None

    def test_clear_removes_the_checkpoint(self, tmp_path, world):
        manager = CheckpointManager(tmp_path)
        session = _method(True).session(world.dataset)
        session.step()
        manager.save(session)
        assert manager.load() is not None
        manager.clear()
        assert manager.load() is None


class TestAtomicWriter:
    def test_failure_leaves_original_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "data.json"
        atomic_write_text(target, "original")

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "replacement")
        assert target.read_text() == "original"
        # no temp files are left behind either
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    def test_write_is_visible_after_replace(self, tmp_path):
        target = tmp_path / "data.json"
        atomic_write_text(target, "v1")
        atomic_write_text(target, "v2")
        assert target.read_text() == "v2"


class TestTornLedger:
    def _ledger(self, path):
        log = JsonlRunLog(path)
        log.emit("round", time_point=0, facts=["f1"])
        log.emit("round", time_point=1, facts=["f2"])
        log.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._ledger(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 9])  # tear the final record
        records = read_runlog(path, tolerate_truncation=True)
        assert [r["kind"] for r in records][-1] == "round"
        assert records[-1]["time_point"] == 0

    def test_torn_tail_raises_by_default(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._ledger(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 9])
        with pytest.raises(ValueError):
            read_runlog(path)

    def test_mid_file_damage_always_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._ledger(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4]  # tear a non-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_runlog(path, tolerate_truncation=True)
