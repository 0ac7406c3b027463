"""Acceptance gate: one test per criterion, printing its pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
the same checks back the CLI `verify all` subcommand.
"""

import pytest

from dualhash import acceptance
from dualhash.acceptance import CRITERIA, run_criteria

SEED = 7

_cache = {}


def run_one(number):
    if number not in _cache:
        _cache[number] = run_criteria([number], seed=SEED)[0]
    result = _cache[number]
    print(result.line())
    return result


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    result = run_one(number)
    assert result.passed, result.line()


def test_every_criterion_is_covered():
    assert sorted(CRITERIA) == list(range(1, 10))


def test_search_crash_is_reported_not_counted_as_failure(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "search_permuted_code", crash)
    result = run_criteria([8])[0]
    assert not result.passed
    assert "RuntimeError: boom" in result.detail
