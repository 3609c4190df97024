"""Vote primitives.

The paper models a statement from a source about a fact as one of three
symbols (Equation 1):

* ``T`` — the source *agrees* with the fact (an affirmative statement, e.g.
  the source lists the restaurant),
* ``F`` — the source *disagrees* (e.g. the source lists the restaurant as
  ``CLOSED``),
* ``-`` — the source has no knowledge about the fact.

Absence of knowledge is represented in this library by *absence of a vote*
rather than a third enum member: sparse vote matrices over tens of thousands
of facts would otherwise be dominated by explicit "don't know" entries.  The
:class:`Vote` enum therefore only has the two informative members, and every
API that can encounter a missing vote uses ``Optional[Vote]`` with ``None``
meaning ``-``.
"""

from __future__ import annotations

import enum


class Vote(enum.Enum):
    """An informative statement of a source about a fact."""

    TRUE = "T"
    FALSE = "F"

    # Members are singletons and compare by identity, so the identity hash
    # agrees with ``==`` and skips ``Enum.__hash__``'s Python-level
    # ``hash(self._name_)``: grouping hashes one vote tuple per fact.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"Vote.{self.name}"

    @property
    def is_affirmative(self) -> bool:
        """Whether this vote supports the fact being true."""
        return self is Vote.TRUE

    def flipped(self) -> "Vote":
        """The opposite vote (``T`` ↔ ``F``)."""
        return Vote.FALSE if self is Vote.TRUE else Vote.TRUE

    @classmethod
    def from_symbol(cls, symbol: str) -> "Vote | None":
        """Parse a paper-style vote symbol.

        Accepts ``"T"``, ``"F"`` and the no-knowledge symbol ``"-"`` (which
        maps to ``None``).  Whitespace is ignored; matching is
        case-insensitive.

        >>> Vote.from_symbol("T")
        Vote.TRUE
        >>> Vote.from_symbol(" f ")
        Vote.FALSE
        >>> Vote.from_symbol("-") is None
        True
        """
        cleaned = symbol.strip().upper()
        if cleaned == "T":
            return cls.TRUE
        if cleaned == "F":
            return cls.FALSE
        if cleaned in {"-", ""}:
            return None
        raise ValueError(f"unrecognised vote symbol: {symbol!r}")


# Convenience aliases used pervasively in tests and dataset builders.
T = Vote.TRUE
F = Vote.FALSE

#: The vote of each canonical symbol: one dict lookup where a bulk loader
#: would otherwise call ``Vote(symbol)`` or :meth:`Vote.from_symbol` per
#: vote.  Any other symbol goes through :meth:`Vote.from_symbol`.
VOTE_OF_SYMBOL: dict[str, Vote] = {"T": Vote.TRUE, "F": Vote.FALSE}
