"""Acceptance gate: one test per criterion, printing its pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
the same checks back the CLI `verify all` subcommand.
"""

import pytest

from dualhash import acceptance
from dualhash.acceptance import CRITERIA, run_criteria

SEED = 7

# The detail strings `dualhash verify all --seed 7` prints (timings are not
# part of them); a change that alters any result shows up here.
DETAILS = {
    1: "epsilon = dual epsilon = 1 exactly for all 22 (n, m) pairs",
    2: "1000 random families within the duality bound; tight families meet it "
       "with equality; optimal and epsilon=1 corollaries hold",
    3: "indicator identity exact up to n=12; bias lemma holds for all 7 constructors",
    4: "200 states pass; worst lhs-rhs gap -2.721e-02",
    5: "4 family configurations within the exponent bound; E(R,0)=1-R exact; "
       "worst identity residual 4.36e-10",
    6: "18 dephasing evaluations within bounds; zero-leakage exact",
    7: "epsilon = 2 <= 2 yet Eve learns 1.1669 >= 0.5310 bits",
    8: "plain 50/50 and pair 50/50 searches succeeded",
    9: "ratio exact and monotone; phase-error bounds strictly dominate; "
       "summed bound log2 reaches -434.0 at n=1e5",
}

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


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion_detail_is_pinned(number):
    assert run_one(number).detail == DETAILS[number]


def test_every_criterion_is_covered():
    assert sorted(CRITERIA) == list(range(1, 10))


def test_search_crash_is_reported_not_counted_as_failure(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "search_permuted_code", crash)
    result = run_criteria([8])[0]
    assert not result.passed
    assert "RuntimeError: boom" in result.detail
