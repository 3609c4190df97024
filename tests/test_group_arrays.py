"""Tests for the shared dense group arrays (repro.core.arrays) and
a few small helpers not covered elsewhere."""

import io

import numpy as np
import pytest

from repro.core.arrays import GroupArrays
from repro.eval.tables import format_value
from repro.model.dataset import Dataset
from repro.model.io import read_truth_csv, read_votes_csv
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote


@pytest.fixture()
def arrays(motivating):
    return GroupArrays.from_dataset(motivating)


class TestGroupArrays:
    def test_shapes(self, arrays):
        assert arrays.affirm.shape == (arrays.num_groups, arrays.num_sources)
        assert arrays.num_groups == 10  # motivating example group count
        assert arrays.num_sources == 5

    def test_voted_is_affirm_plus_deny(self, arrays):
        assert np.array_equal(arrays.voted, arrays.affirm + arrays.deny)
        assert np.all((arrays.affirm * arrays.deny) == 0)  # disjoint

    def test_degree_matches_signatures(self, arrays):
        for gi, group in enumerate(arrays.groups):
            assert arrays.degree[gi] == len(group.signature)

    def test_sizes_sum_to_fact_count(self, arrays):
        assert arrays.sizes.sum() == 12

    def test_fact_probabilities_expansion(self, arrays):
        probs = np.linspace(0.0, 1.0, arrays.num_groups)
        mapping = arrays.fact_probabilities(probs)
        assert len(mapping) == 12
        for gi, group in enumerate(arrays.groups):
            for fact in group.facts:
                assert mapping[fact] == pytest.approx(probs[gi])

    def test_trust_mapping(self, arrays):
        trust = arrays.trust_mapping(np.full(arrays.num_sources, 0.3))
        assert set(trust) == {"s1", "s2", "s3", "s4", "s5"}
        assert all(v == 0.3 for v in trust.values())

    def test_source_has_votes(self):
        matrix = VoteMatrix.from_rows(["a", "b"], {"f": ["T", "-"]})
        arrays = GroupArrays.from_dataset(Dataset(matrix=matrix))
        mask = arrays.source_has_votes()
        assert mask.tolist() == [True, False]


class TestCsvStrings:
    def test_votes_and_truth(self):
        votes = "fact,source,vote\nf1,s1,T\nf1,s2,F\nf2,s1,T\n"
        truth = "fact,label,golden\nf1,true,1\nf2,false,0\n"
        matrix = read_votes_csv(io.StringIO(votes))
        labels, golden = read_truth_csv(io.StringIO(truth))
        ds = Dataset(matrix=matrix, truth=labels, golden_set=golden)
        assert ds.matrix.vote("f1", "s2") is Vote.FALSE
        assert ds.truth == {"f1": True, "f2": False}
        assert ds.golden_set == frozenset({"f1"})

    def test_votes_only(self):
        ds = Dataset(matrix=read_votes_csv(io.StringIO("fact,source,vote\nf,s,T\n")))
        assert ds.truth == {}


class TestFormatValue:
    def test_float_rounding(self):
        assert format_value(0.12345) == "0.12"
        assert format_value(0.12345, float_digits=4) == "0.1235"

    def test_bool(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_int_and_str(self):
        assert format_value(7) == "7"
        assert format_value("x") == "x"
