"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import METHODS, main
from repro.model.io import load_dataset, write_truth_csv, write_votes_csv


@pytest.fixture()
def dataset_json(tmp_path):
    path = tmp_path / "motivating.json"
    assert main(["generate", "motivating", "--output", str(path)]) == 0
    return path


class TestGenerate:
    def test_motivating(self, dataset_json):
        dataset = load_dataset(dataset_json)
        assert dataset.matrix.num_facts == 12

    def test_synthetic_with_params(self, tmp_path, capsys):
        path = tmp_path / "syn.json"
        code = main(
            [
                "generate",
                "synthetic",
                "--output",
                str(path),
                "--num-facts",
                "300",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert load_dataset(path).matrix.num_facts == 300
        assert "written to" in capsys.readouterr().out

    def test_restaurants_small(self, tmp_path):
        path = tmp_path / "rest.json"
        main(["generate", "restaurants", "--output", str(path), "--num-facts", "500"])
        dataset = load_dataset(path)
        assert dataset.matrix.num_sources == 6

    def test_hubdub(self, tmp_path):
        path = tmp_path / "hub.json"
        main(["generate", "hubdub", "--output", str(path)])
        assert load_dataset(path).matrix.num_facts == 830


class TestCorroborate:
    def test_from_dataset_json(self, dataset_json, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_json),
                "--method",
                "incestimate",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "IncEstimate[IncEstHeu]" in stdout
        assert "r12" in stdout  # listed among false facts
        document = json.loads(out.read_text())
        assert document["method"] == "IncEstimate[IncEstHeu]"

    def test_from_csv_with_truth(self, motivating, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        truth = tmp_path / "truth.csv"
        write_votes_csv(motivating, votes)
        write_truth_csv(motivating, truth)
        code = main(
            [
                "corroborate",
                "--votes",
                str(votes),
                "--truth",
                str(truth),
                "--method",
                "twoestimate",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "precision" in stdout

    def test_every_registered_method_runs(self, dataset_json, capsys):
        for name in METHODS:
            assert main(["corroborate", "--dataset", str(dataset_json), "--method", name]) == 0
        capsys.readouterr()


class TestExperimentAndReport:
    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        stdout = capsys.readouterr().out
        assert "TwoEstimate" in stdout

    def test_experiment_figure3a_tiny(self, capsys):
        assert main(["experiment", "figure3a", "--scale", "0.02"]) == 0
        assert "num_sources" in capsys.readouterr().out

    def test_report_to_file(self, dataset_json, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--dataset",
                str(dataset_json),
                "--output",
                str(out),
                "--methods",
                "voting",
                "incestimate",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "## Quality" in text

    def test_methods_listing(self, capsys):
        assert main(["methods"]) == 0
        stdout = capsys.readouterr().out
        assert "incestimate" in stdout


class TestExperimentTable3:
    def test_table3_tiny_scale(self, capsys):
        assert main(["experiment", "table3", "--scale", "0.005"]) == 0
        stdout = capsys.readouterr().out
        assert "coverage" in stdout
        assert "YellowPages" in stdout


class TestResilienceFlags:
    @pytest.fixture()
    def bad_votes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "fact,source,vote\nf1,s1,T\nf1,s1,T\nf2,s1,X\nf3,s2,F\nf4,s3,T\n"
        )
        return path

    def test_on_error_quarantine_prints_accounting(self, bad_votes, capsys):
        code = main(
            [
                "corroborate",
                "--votes",
                str(bad_votes),
                "--method",
                "voting",
                "--on-error",
                "quarantine",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "kept 3/5 rows" in captured.err
        assert "duplicate_vote" in captured.err

    def test_on_error_strict_raises_typed_error(self, bad_votes):
        from repro.resilience.errors import DuplicateVoteError

        with pytest.raises(DuplicateVoteError, match="first at line 2"):
            main(["corroborate", "--votes", str(bad_votes), "--method", "voting"])

    def test_ingest_report_lands_in_runlog(self, bad_votes, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        main(
            [
                "corroborate",
                "--votes",
                str(bad_votes),
                "--method",
                "voting",
                "--on-error",
                "skip",
                "--runlog",
                str(ledger),
            ]
        )
        capsys.readouterr()
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
        (report,) = [r for r in records if r["kind"] == "ingest_report"]
        assert report["rows_kept"] == 3
        assert report["reasons"]["bad_vote_symbol"] == 1

    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_ingest_reports_the_loaders_drops(self, tmp_path, capsys, policy):
        """``repro ingest --dataset`` accounts for the rows its JSON
        loader dropped, before the store's own report."""
        dataset = tmp_path / "q.json"
        dataset.write_text(
            json.dumps(
                {
                    "sources": ["s1", "s2"],
                    "facts": ["f1", "f2"],
                    "votes": {"f1": {"s1": "T", "s2": "Q"}, "f2": {"s1": "F"}},
                }
            )
        )
        runlog = tmp_path / "r.jsonl"
        code = main(
            [
                "ingest",
                "--store",
                str(tmp_path / "s.db"),
                "--dataset",
                str(dataset),
                "--on-error",
                policy,
                "--runlog",
                str(runlog),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"{dataset}: kept 2/3 rows (1 bad_vote_symbol)",
            f"{tmp_path / 's.db'}::import: kept 2/2 rows",
        ]
        records = [json.loads(line) for line in runlog.read_text().splitlines()]
        reports = [r for r in records if r["kind"] == "ingest_report"]
        assert [r["reasons"] for r in reports] == [{"bad_vote_symbol": 1}, {}]
        (issue,) = reports[0]["issues"]
        assert issue["location"] == "votes['f1']['s2']"
        assert ("row" in issue) is (policy == "quarantine")

    def test_checkpoint_requires_session_method(self, dataset_json, tmp_path, capsys):
        code = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_json),
                "--method",
                "voting",
                "--checkpoint",
                str(tmp_path / "ckpt"),
            ]
        )
        assert code == 2
        assert "session-based" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, dataset_json, capsys):
        code = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_json),
                "--method",
                "incestimate",
                "--resume",
            ]
        )
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_max_steps_then_resume_matches_straight_run(
        self, dataset_json, tmp_path, capsys
    ):
        straight = tmp_path / "straight.json"
        main(
            [
                "corroborate",
                "--dataset",
                str(dataset_json),
                "--method",
                "incestimate",
                "--output",
                str(straight),
            ]
        )
        ckpt = tmp_path / "ckpt"
        code = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_json),
                "--method",
                "incestimate",
                "--checkpoint",
                str(ckpt),
                "--max-steps",
                "2",
            ]
        )
        assert code == 0
        assert "rerun with --resume" in capsys.readouterr().out
        resumed = tmp_path / "resumed.json"
        code = main(
            [
                "corroborate",
                "--dataset",
                str(dataset_json),
                "--method",
                "incestimate",
                "--checkpoint",
                str(ckpt),
                "--resume",
                "--output",
                str(resumed),
            ]
        )
        assert code == 0
        assert "resumed from" in capsys.readouterr().err
        assert straight.read_text() == resumed.read_text()

    def test_experiment_accepts_on_error(self, capsys):
        assert main(["experiment", "table2", "--on-error", "skip"]) == 0
        assert "TwoEstimate" in capsys.readouterr().out
