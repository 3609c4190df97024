"""Raw-crawl simulator: listings with presentation variants.

The paper's crawl "yielded 42,969 restaurant listings but contains numerous
duplicates due to various presentation of the same listing" which the
dedup pipeline (Section 6.2.1) reduced to 36,916.  This module generates a
miniature crawl with exactly that flavour: a universe of ground-truth
restaurants, per-source listings whose *strings* vary in the ways real
listing sites differ (abbreviations, ordinals, articles, punctuation), and
CLOSED flags for the sources that mark closures.  It exists to exercise
:mod:`repro.dedup` end-to-end — the full-scale experiments use the directly
generated vote matrix of :mod:`repro.datasets.restaurants` instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.datasets.restaurants import PAPER_PROFILES, SourceProfile
from repro.dedup.resolution import RawListing
from repro.parallel.seeds import derive_seed

_NAME_HEADS = [
    "Danny's", "Golden", "Grand", "Little", "Royal", "Blue", "Red", "Lucky",
    "Mama's", "Uncle Joe's", "Silver", "Jade", "Corner", "Village", "Sunset",
    "Harbor", "Garden", "Empire", "Liberty", "Hudson",
]
_NAME_CORES = [
    "Sea Palace", "Dragon", "Bistro", "Trattoria", "Noodle House", "Grill",
    "Diner", "Curry House", "Taqueria", "Pizzeria", "Sushi Bar", "Deli",
    "Steakhouse", "Cantina", "Brasserie", "Kitchen", "Tavern", "Chophouse",
]
_STREETS = [
    ("46", "Street"), ("44", "Street"), ("9", "Avenue"), ("Mott", "Street"),
    ("Bleecker", "Street"), ("Mulberry", "Street"), ("Lexington", "Avenue"),
    ("7", "Avenue"), ("Spring", "Street"), ("Delancey", "Street"),
    ("23", "Street"), ("Broadway", ""),
]
_DIRECTIONS = ["West", "East", ""]

_SPELLED = {
    "7": "Seventh", "9": "Ninth", "23": "Twenty-Third",
    "44": "Forty-Fourth", "46": "Forty-Sixth",
}
_SUFFIXED = {"7": "7th", "9": "9th", "23": "23rd", "44": "44th", "46": "46th"}


@dataclasses.dataclass(frozen=True)
class Restaurant:
    """Ground-truth restaurant used by the crawl simulator."""

    entity_id: str
    name: str
    number: int
    direction: str
    street: tuple[str, str]
    open_for_business: bool


def _render_address(
    restaurant: Restaurant, style: int
) -> str:
    """One of several presentation styles for the same address."""
    street_name, street_type = restaurant.street
    direction = restaurant.direction
    if style == 1 and street_name in _SUFFIXED:
        street_name = _SUFFIXED[street_name]
    elif style == 2 and street_name in _SPELLED:
        street_name = _SPELLED[street_name]
    if style == 1 and direction:
        direction = direction[0] + "."
    if style == 2 and street_type == "Street":
        street_type = "St"
    city = ["New York", "NYC", "New York, NY"][style % 3]
    parts = [str(restaurant.number), direction, street_name, street_type]
    body = " ".join(p for p in parts if p)
    return f"{body}, {city}"


def _render_name(name: str, style: int, rng: np.random.Generator) -> str:
    """Presentation variants of the restaurant name."""
    rendered = name
    if style == 1:
        rendered = rendered.replace("'", "")
    elif style == 2 and rng.random() < 0.5:
        rendered = f"The {rendered}"
    if style == 2 and rng.random() < 0.3:
        rendered = rendered.upper()
    return rendered


def generate_universe(
    num_restaurants: int = 300,
    true_fraction: float = 0.57,
    seed: int = 46,
) -> list[Restaurant]:
    """Generate a ground-truth restaurant universe."""
    rng = np.random.default_rng(seed)
    restaurants: list[Restaurant] = []
    # Names may repeat across the city (two "Golden Dragon"s are fine —
    # dedup blocks on the address), but a (name, address) pair must be
    # unique or the ground truth would be ambiguous.
    seen: set[tuple[str, int, tuple[str, str], str]] = set()
    while len(restaurants) < num_restaurants:
        name = (
            f"{_NAME_HEADS[rng.integers(len(_NAME_HEADS))]} "
            f"{_NAME_CORES[rng.integers(len(_NAME_CORES))]}"
        )
        number = int(rng.integers(1, 900))
        direction = _DIRECTIONS[rng.integers(len(_DIRECTIONS))]
        street = _STREETS[rng.integers(len(_STREETS))]
        key = (name, number, street, direction)
        if key in seen:
            continue
        seen.add(key)
        restaurants.append(
            Restaurant(
                entity_id=f"truth{len(restaurants)}",
                name=name,
                number=number,
                direction=direction,
                street=street,
                open_for_business=bool(rng.random() < true_fraction),
            )
        )
    return restaurants


def generate_raw_crawl(
    restaurants: list[Restaurant] | None = None,
    profiles: tuple[SourceProfile, ...] = PAPER_PROFILES,
    seed: int = 46,
) -> tuple[list[RawListing], dict[str, bool]]:
    """Simulate the crawl: per-source listings with presentation variants.

    Returns the raw listings plus the ground truth (entity id → open).
    Each source lists a restaurant with probability scaled from its
    Table 3 coverage; sources with F quotas mark a small share of their
    closed listings CLOSED; each listing's strings are rendered in a
    per-source presentation style, which is what plants the duplicates the
    dedup pipeline must resolve.
    """
    if restaurants is None:
        restaurants = generate_universe(seed=seed)
    # Child stream per the seeding contract: path-derived, not seed
    # arithmetic (seed+1 collides with another generator's root seed).
    rng = np.random.default_rng(derive_seed(seed, "raw-crawl"))
    listings: list[RawListing] = []
    truth = {r.entity_id: r.open_for_business for r in restaurants}
    for source_index, profile in enumerate(profiles):
        style = source_index % 3
        # Higher coverage for closed listings at inaccurate sources, like
        # the calibrated world: stale listings concentrate where curation
        # is weakest.
        closed_bias = 1.0 if profile.accuracy >= 0.8 else 1.6
        for restaurant in restaurants:
            rate = profile.coverage * (1.0 if restaurant.open_for_business else closed_bias)
            if rng.random() >= min(rate * 1.2, 0.95):
                continue
            marks_closed = (
                not restaurant.open_for_business
                and profile.f_votes > 0
                and rng.random() < 0.35
            )
            listings.append(
                RawListing(
                    source=profile.name,
                    name=_render_name(restaurant.name, style, rng),
                    address=_render_address(restaurant, style),
                    closed=marks_closed,
                    entity_hint=restaurant.entity_id,
                )
            )
    # A slice of same-source duplicate rows (re-crawled variants), the
    # "various presentation of the same listing" the paper mentions.
    # Each renders in the style after its source's own, a function of the
    # profile order (a salted ``str`` hash would differ per process).
    styles = {profile.name: index % 3 for index, profile in enumerate(profiles)}
    extra = rng.choice(len(listings), size=max(1, len(listings) // 8), replace=False)
    for index in extra:
        base = listings[int(index)]
        alt_style = (styles[base.source] + 1) % 3
        restaurant = next(r for r in restaurants if r.entity_id == base.entity_hint)
        listings.append(
            RawListing(
                source=base.source,
                name=_render_name(restaurant.name, alt_style, rng),
                address=_render_address(restaurant, alt_style),
                closed=base.closed,
                entity_hint=base.entity_hint,
            )
        )
    return listings, truth
