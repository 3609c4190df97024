"""Seeding-contract audit: explicit seeds, derived child streams.

Two layers.  The regression half pins the contract's observable
consequence — every dataset / scenario generator run twice with the same
seed is *bit-identical* (same registration order, same votes, same
truth).  The audit half greps the generator sources for the two patterns
the contract bans: stdlib ``random.Random(...)`` (implicit global-ish
state, not derive_seed) and seed arithmetic (``seed + 1`` collides with
another generator's root seed; child streams must be path-derived via
:func:`repro.parallel.seeds.derive_seed`).
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.datasets import (
    generate_hubdub_like,
    generate_raw_crawl,
    generate_restaurants,
    generate_sparse_synthetic,
    generate_synthetic,
    generate_universe,
)
from repro.model.dataset import Dataset
from repro.scenarios import ScenarioSpec, generate_scenario, scenario_suite

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def fingerprint(dataset: Dataset):
    """Bit-level identity: order, content, truth, golden set."""
    return (
        list(dataset.matrix.sources),
        list(dataset.matrix.facts),
        [
            (fact, source, vote.value)
            for fact in dataset.matrix.facts
            for source, vote in dataset.matrix.iter_votes_on(fact)
        ],
        dict(dataset.truth),
        set(dataset.golden_set),
    )


class TestBitIdentity:
    """Two same-seed runs of every generator are bit-identical."""

    def test_synthetic(self):
        a = generate_synthetic(num_facts=500, seed=9)
        b = generate_synthetic(num_facts=500, seed=9)
        assert fingerprint(a.dataset) == fingerprint(b.dataset)
        assert a.specs == b.specs

    def test_sparse_synthetic(self):
        kwargs = dict(
            num_facts=2_000, num_sources=200, num_templates=60,
            num_hubs=12, seed=9,
        )
        a = generate_sparse_synthetic(**kwargs)
        b = generate_sparse_synthetic(**kwargs)
        assert fingerprint(a.dataset) == fingerprint(b.dataset)

    def test_restaurants(self):
        a = generate_restaurants(num_facts=400, seed=9)
        b = generate_restaurants(num_facts=400, seed=9)
        assert fingerprint(a.dataset) == fingerprint(b.dataset)
        assert a.popularity == b.popularity

    def test_hubdub(self):
        kwargs = dict(
            num_questions=40, num_users=30, num_answer_facts=120, seed=9
        )
        a = generate_hubdub_like(**kwargs)
        b = generate_hubdub_like(**kwargs)
        assert fingerprint(a.questions.to_dataset()) == fingerprint(
            b.questions.to_dataset()
        )
        assert a.reliabilities == b.reliabilities

    def test_raw_crawl(self):
        a_listings, a_truth = generate_raw_crawl(seed=9)
        b_listings, b_truth = generate_raw_crawl(seed=9)
        assert a_listings == b_listings
        assert a_truth == b_truth
        assert generate_universe(seed=9) == generate_universe(seed=9)

    def test_raw_crawl_across_hash_seeds(self):
        # ``str`` hashes are salted per process, so a generator that reads
        # one agrees with itself in one process and differs across two.
        code = (
            "import hashlib\n"
            "from repro.datasets import generate_raw_crawl\n"
            "listings, truth = generate_raw_crawl(seed=46)\n"
            "print(hashlib.sha256(repr((listings, truth)).encode()).hexdigest())"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(SRC.parent),
                },
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("0", "1")
        }
        assert len(digests) == 1, digests

    @pytest.mark.parametrize(
        "spec", scenario_suite(quick=True, seed=9), ids=lambda s: s.kind
    )
    def test_scenarios(self, spec):
        small = ScenarioSpec.from_json(
            {**spec.to_json(), "num_facts": 400}
        )
        a = generate_scenario(small)
        b = generate_scenario(small)
        assert fingerprint(a.dataset) == fingerprint(b.dataset)
        assert fingerprint(a.baseline) == fingerprint(b.baseline)


class TestSourceAudit:
    """The generator modules contain no banned seeding patterns."""

    AUDITED = ("datasets", "scenarios")
    # stdlib Random, or arithmetic on a seed identifier feeding an RNG.
    BANNED = (
        re.compile(r"\brandom\.Random\("),
        re.compile(r"default_rng\([^)]*\bseed\b\s*[+\-*]"),
        re.compile(r"\bseed\s*[+\-*]\s*\d"),
    )

    def audited_files(self):
        files = [
            path
            for package in self.AUDITED
            for path in sorted((SRC / package).glob("*.py"))
        ]
        assert files, f"no sources found under {SRC}"
        return files

    def test_no_banned_seed_patterns(self):
        offenders = []
        for path in self.audited_files():
            for number, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if any(pattern.search(code) for pattern in self.BANNED):
                    offenders.append(f"{path.name}:{number}: {line.strip()}")
        assert not offenders, (
            "seed arithmetic / stdlib Random in generator code "
            "(derive child streams via parallel.seeds.derive_seed):\n"
            + "\n".join(offenders)
        )

    def test_generators_take_explicit_seed(self):
        # Every public generate_* entry point must expose a seed knob —
        # implicit global state cannot reproduce a world.
        import inspect

        import repro.datasets as datasets
        import repro.scenarios as scenarios

        for module in (datasets, scenarios):
            for name in getattr(module, "__all__"):
                if not name.startswith("generate_"):
                    continue
                func = getattr(module, name)
                params = inspect.signature(func).parameters
                if name == "generate_scenario":
                    continue  # seeded through the spec, by design
                assert "seed" in params, f"{name} lacks an explicit seed"
