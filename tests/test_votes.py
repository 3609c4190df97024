"""Unit tests for repro.model.votes."""

import pickle

import pytest

from repro.model.votes import F, T, Vote


class TestVoteBasics:
    def test_enum_values(self):
        assert Vote.TRUE.value == "T"
        assert Vote.FALSE.value == "F"

    def test_aliases(self):
        assert T is Vote.TRUE
        assert F is Vote.FALSE

    def test_str(self):
        assert str(Vote.TRUE) == "T"
        assert str(Vote.FALSE) == "F"

    def test_repr(self):
        assert repr(Vote.TRUE) == "Vote.TRUE"

    def test_is_affirmative(self):
        assert Vote.TRUE.is_affirmative
        assert not Vote.FALSE.is_affirmative

    def test_flipped(self):
        assert Vote.TRUE.flipped() is Vote.FALSE
        assert Vote.FALSE.flipped() is Vote.TRUE

    def test_double_flip_is_identity(self):
        for vote in Vote:
            assert vote.flipped().flipped() is vote

    def test_identity_hash(self):
        assert hash(Vote.TRUE) == object.__hash__(Vote.TRUE)
        assert {Vote.TRUE: 1, Vote.FALSE: 2}[Vote("T")] == 1

    def test_pickle_round_trip_returns_the_member(self):
        for vote in Vote:
            assert pickle.loads(pickle.dumps(vote)) is vote


class TestFromSymbol:
    def test_t(self):
        assert Vote.from_symbol("T") is Vote.TRUE

    def test_f(self):
        assert Vote.from_symbol("F") is Vote.FALSE

    def test_dash_is_none(self):
        assert Vote.from_symbol("-") is None

    def test_empty_is_none(self):
        assert Vote.from_symbol("") is None

    def test_case_insensitive(self):
        assert Vote.from_symbol("t") is Vote.TRUE
        assert Vote.from_symbol("f") is Vote.FALSE

    def test_whitespace_stripped(self):
        assert Vote.from_symbol("  T ") is Vote.TRUE

    def test_unknown_symbol_raises(self):
        with pytest.raises(ValueError, match="unrecognised"):
            Vote.from_symbol("X")
