"""Unit tests for repro.core.fact_groups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import GroupIndex
from repro.core.fact_groups import FactGroup, group_facts, group_probability
from repro.datasets import motivating_example
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote


class TestGrouping:
    def test_same_signature_groups_together(self, motivating):
        groups = group_facts(motivating.matrix)
        by_facts = {tuple(g.facts): g for g in groups}
        # r7 and r8 share (s2 T, s4 T, s5 T); r4 and r10 share (s4 T, s5 T).
        assert ("r7", "r8") in by_facts
        assert ("r4", "r10") in by_facts

    def test_group_count_on_motivating(self, motivating):
        groups = group_facts(motivating.matrix)
        # 12 facts, r7/r8 and r4/r10 merge -> 10 groups.
        assert len(groups) == 10
        assert sum(g.size for g in groups) == 12

    def test_subset_grouping(self, motivating):
        groups = group_facts(motivating.matrix, ["r7", "r8", "r9"])
        assert len(groups) == 2

    def test_unvoted_facts_form_empty_signature_group(self):
        m = VoteMatrix()
        m.add_fact("a")
        m.add_fact("b")
        groups = group_facts(m)
        assert len(groups) == 1
        assert groups[0].signature == ()
        assert groups[0].size == 2


@st.composite
def matrices(draw) -> VoteMatrix:
    """A matrix whose facts copy a few vote templates, each fact's votes
    added in a drawn order, one call or one vote at a time.  Source
    counts fall on both sides of 31 and of 1,024, and source ids sort
    differently from their registration order (``s10`` < ``s2``)."""
    num_sources = draw(
        st.one_of(
            st.integers(1, 31), st.integers(32, 1024), st.integers(1025, 1100)
        )
    )
    template = st.dictionaries(
        st.integers(0, num_sources - 1),
        st.sampled_from([Vote.TRUE, Vote.FALSE]),
        max_size=5,
    )
    templates = draw(st.lists(template, min_size=1, max_size=4))
    matrix = VoteMatrix()
    for i in draw(st.permutations(range(num_sources))):
        matrix.add_source(f"s{i}")
    fact_templates = draw(
        st.lists(st.integers(0, len(templates) - 1), max_size=20)
    )
    for n, t in enumerate(fact_templates):
        votes = [(f"s{i}", vote) for i, vote in templates[t].items()]
        votes = draw(st.permutations(votes))
        if draw(st.booleans()):
            matrix.add_votes(f"f{n}", votes)
        else:
            matrix.add_fact(f"f{n}")
            for source, vote in votes:
                matrix.add_vote(f"f{n}", source, vote)
    return matrix


def naive_groups(matrix: VoteMatrix) -> list[tuple]:
    """Facts bucketed by signature, first-occurrence order."""
    buckets: dict = {}
    for fact in matrix.facts:
        buckets.setdefault(matrix.signature(fact), []).append(fact)
    return list(buckets.items())


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_grouping_equals_the_naive_definition(matrix):
    expected = naive_groups(matrix)
    assert [(g.signature, g.facts) for g in group_facts(matrix)] == expected
    index = GroupIndex.for_matrix(matrix)
    assert [(g.signature, g.facts) for g in index.groups] == expected
    assert index.sources == matrix.sources
    assert index.degree.tolist() == [len(sig) for sig, _ in expected]
    assert index.sizes.tolist() == [len(facts) for _, facts in expected]


class TestFactGroup:
    def test_voters_and_votes(self, motivating):
        groups = {tuple(g.facts): g for g in group_facts(motivating.matrix)}
        r6 = groups[("r6",)]
        assert r6.voters == ["s3", "s4"]
        assert r6.votes() == {"s3": Vote.FALSE, "s4": Vote.TRUE}

    def test_affirmative_only(self):
        g1 = FactGroup(signature=(("s1", "T"),), facts=["f"])
        g2 = FactGroup(signature=(("s1", "T"), ("s2", "F")), facts=["f"])
        g3 = FactGroup(signature=(), facts=["f"])
        assert g1.is_affirmative_only()
        assert not g2.is_affirmative_only()
        assert not g3.is_affirmative_only()

    def test_take_removes_from_front(self):
        group = FactGroup(signature=(("s", "T"),), facts=["a", "b", "c"])
        assert group.take(2) == ["a", "b"]
        assert group.facts == ["c"]
        assert group.size == 1

    def test_take_more_than_available(self):
        group = FactGroup(signature=(), facts=["a"])
        assert group.take(5) == ["a"]
        assert group.size == 0

    def test_take_negative_raises(self):
        group = FactGroup(signature=(), facts=["a"])
        with pytest.raises(ValueError):
            group.take(-1)

    def test_repr(self):
        group = FactGroup(signature=(("s", "T"),), facts=["a"])
        assert "s:T" in repr(group)


class TestGroupProbability:
    def test_all_affirmative_average(self):
        trust = {"s1": 0.8, "s2": 0.6}
        sig = (("s1", "T"), ("s2", "T"))
        assert group_probability(sig, trust, 0.5) == pytest.approx(0.7)

    def test_mixed_votes(self):
        trust = {"s1": 0.8, "s2": 0.6}
        sig = (("s1", "T"), ("s2", "F"))
        # (0.8 + (1 - 0.6)) / 2
        assert group_probability(sig, trust, 0.5) == pytest.approx(0.6)

    def test_empty_signature_uses_default(self):
        assert group_probability((), {}, 0.1) == 0.1

    def test_paper_r12_round0(self):
        # r12 = (s2 F, s3 F, s4 T) at default trust 0.9 -> 0.3667 (Sec. 2.3
        # computes "a low score" -> corroborated false).
        trust = {s: 0.9 for s in ("s2", "s3", "s4")}
        sig = (("s2", "F"), ("s3", "F"), ("s4", "T"))
        assert group_probability(sig, trust, 0.9) == pytest.approx(0.3667, abs=1e-3)
