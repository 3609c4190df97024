"""Quick tests of the serving benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sqlite3
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    per_layer = {m: u for m, u, _ in layers.METRICS} | dict(layers.EXTRA_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_server_runs_with_default_flags_only():
    store, dataset = pathlib.Path("s.db"), pathlib.Path("d.json")
    for command in (
        loadgen.serve_command(store),
        loadgen.serve_command(store, spans=pathlib.Path("spans.jsonl")),
        loadgen.ingest_command(store, dataset),
    ):
        assert not set(command) & set(loadgen.FORBIDDEN_FLAGS), command
    assert loadgen.serve_command(store)[-5:] == ["serve", "--store", "s.db", "--port", "0"]


def test_launcher_reports_deleted_functions_absent():
    # The one-refresh-path change deletes these; tracing must still work.
    code = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "import repro.serve.service as service, repro.store.ledger as ledger\n"
        "del ledger.VoteLedger.record_epoch, service.graft_snapshot, "
        "service.carry_from_snapshot\n"
        "import launcher\n"
        "recorder = launcher.SpanRecorder(); recorder.install()\n"
        "print('|'.join(recorder.absent)); print(len(recorder.wrapped))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    absent, wrapped = done.stdout.split()
    assert set(absent.split("|")) == {
        "repro.store.ledger.VoteLedger.record_epoch",
        "repro.serve.service.graft_snapshot",
        "repro.serve.service.carry_from_snapshot",
    }
    assert int(wrapped) > 20


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_sequence(workload):
    first = workloads.build(workload, 7, 2, small=True)
    again = workloads.build(workload, 7, 2, small=True)
    other = workloads.build(workload, 8, 2, small=True)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert [op.path for op in first.ops] != [op.path for op in other.ops] or (
        [op.body for op in first.ops] != [op.body for op in other.ops]
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = tiny(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = (
        dict(run.END_TO_END) if trace == 0
        else {m: u for m, u, _ in layers.METRICS} | dict(layers.EXTRA_METRICS)
    )
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert f"{metric} = " in stdout and f" {unit}\n" in stdout


def test_same_seed_same_labels():
    digests = []
    for seed in (5, 5):
        stdout, result = tiny("ingest", seed, 0)
        assert result["correct"]
        digests.append(next(
            line.split()[2] for line in stdout.splitlines()
            if line.startswith("label digest")
        ))
    assert digests[0] == digests[1]


def test_gate_fails_on_one_altered_label(tmp_path):
    from repro.datasets import generate_restaurants
    from repro.serve import CorroborationService
    from repro.store import VoteLedger

    dataset = generate_restaurants(num_facts=300, seed=4).dataset
    store = tmp_path / "store.db"
    with VoteLedger(store) as ledger:
        ledger.import_dataset(dataset)
        CorroborationService(ledger).refresh()
    votes = dataset.matrix.num_votes
    problems, facts = gate.check_store(store, votes)
    assert problems == [] and facts["labels"] == 300

    altered = tmp_path / "altered.db"
    shutil.copy(store, altered)
    with sqlite3.connect(altered) as conn:
        conn.execute(
            "UPDATE labels SET probability = probability / 2 WHERE fact_id = "
            "(SELECT fact_id FROM labels ORDER BY fact_id LIMIT 1)"
        )
    problems, altered_facts = gate.check_store(altered, votes)
    assert any("cold replay disagrees" in p for p in problems)
    assert altered_facts["digest"] != facts["digest"]


def test_layer_split_accounts_for_the_whole_request():
    # handler 0..10 ms > service 1..9 > (store 2..4, core step 5..8 > store 6..7)
    spans = [
        ("r1", "http", "do_POST", 0.000, 0.010, 0, -1, None),
        ("r1", "service", "apply_votes", 0.001, 0.009, 1, 0, None),
        ("r1", "store", "ingest_votes", 0.002, 0.004, 2, 1, None),
        ("r1", "core", "step", 0.005, 0.008, 3, 1, None),
        ("r1", "store", "record_epoch", 0.006, 0.007, 4, 3, 12),
    ]
    out = layers.split(spans, client_s=0.015)
    assert out["http.transport_ms"] == pytest.approx(5.0)
    assert out["http.self_ms"] == pytest.approx(2.0)
    assert out["service.self_ms"] == pytest.approx(3.0)
    assert out["store.ingest_votes_ms"] == pytest.approx(2.0)
    assert out["core.step_ms"] == pytest.approx(2.0)
    assert out["store.persist_ms"] == pytest.approx(1.0)
    assert out["service.ledger_calls_per_write"] == 2
    assert out["core.steps_per_write"] == 1
    assert out["store.trajectory_rows"] == 12
    assert sum(v for k, v in out.items() if k.endswith("_ms")) == pytest.approx(15.0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 101))) == (90.0, 90, 10)
    assert run.tail(list(range(1, 41))) == (75.0, 30, 10)
    assert run.tail(list(range(1, 12))) == (50.0, 6, 5)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "query", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
