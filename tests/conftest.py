"""Oracles shared by several test modules."""

import random

import pytest


def _sample_members(hf, count: int, seed: int):
    """``count`` members of a HashFamily, each index drawn uniformly by one
    ``random.Random(seed)`` and built through ``hf[r]``: what
    ``HashFamily.sample_rows`` must return the rows of."""
    rng = random.Random(seed)
    return [hf[rng.randrange(hf.index_space)] for _ in range(count)]


@pytest.fixture
def sample_members():
    return _sample_members
