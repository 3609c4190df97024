"""Shared fixtures: the paper's motivating example and scaled-down worlds.

Expensive generated worlds are session-scoped; tests must not mutate them
(build a fresh dataset via the generator functions when mutation is
needed).
"""

from __future__ import annotations

import logging

import pytest

from repro.datasets import (
    generate_hubdub_like,
    generate_restaurants,
    generate_synthetic,
    motivating_example,
)


@pytest.fixture()
def motivating():
    """A fresh Table 1 dataset (cheap to build, safe to mutate)."""
    return motivating_example()


@pytest.fixture(scope="session")
def small_restaurant_world():
    """A 3,000-listing restaurant world (same calibration, 12x smaller)."""
    return generate_restaurants(num_facts=3_000)


@pytest.fixture(scope="session")
def small_synthetic_world():
    """A 2,000-fact synthetic world with the paper's default source mix."""
    return generate_synthetic(num_facts=2_000, seed=0)


@pytest.fixture(scope="session")
def small_hubdub_world():
    """A quarter-scale Hubdub-like world."""
    return generate_hubdub_like(
        num_questions=90, num_users=120, num_answer_facts=210, seed=830
    )


class _Capture(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture()
def repro_warnings():
    """The WARNING-or-worse records the ``repro`` loggers emit in a test.

    Attached to the ``repro`` logger itself, which
    :func:`repro.obs.configure_logging` stops from propagating to the
    root logger pytest's ``caplog`` listens on.
    """
    logger = logging.getLogger("repro")
    capture = _Capture()
    level = logger.level
    logger.setLevel(logging.WARNING)
    logger.addHandler(capture)
    try:
        yield capture.records
    finally:
        logger.removeHandler(capture)
        logger.setLevel(level)
