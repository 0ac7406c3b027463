"""Acceptance gate: one test per criterion, printing its pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
the same checks back the CLI `verify all` subcommand.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from dualhash import acceptance
from dualhash.acceptance import CRITERIA, run_criteria
from dualhash.cqstate import BiasReport, code_bias
from dualhash.gf2 import LinearCode
from dualhash.universality import CodeFamily, tight_family

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


def test_criterion_3_fails_on_a_wrong_dual(monkeypatch):
    monkeypatch.setattr(acceptance, "dual", lambda c: LinearCode.zero(c.n))
    passed, detail = acceptance.criterion_3(SEED)
    assert not passed
    assert re.fullmatch(r"indicator identity fails at n=4, x=[1-9][0-9]*", detail)


def test_criterion_3_fails_when_the_counted_bias_is_off(monkeypatch):
    def off(family):
        rep = code_bias(family)
        return BiasReport(rep.delta, rep.delta_sq + Fraction(1, 1 << 20), rep.worst_x)

    monkeypatch.setattr(acceptance, "code_bias", off)
    assert acceptance.criterion_3(SEED) == (False, "spectral and counting bias disagree")


def test_criterion_2_names_the_first_random_family_off_the_bound(monkeypatch):
    monkeypatch.setattr(acceptance, "duality_bound", lambda *args: Fraction(-1))
    passed, detail = acceptance.criterion_2(SEED)
    assert not passed
    assert re.fullmatch(r"family 0: dual probability \d+(/\d+)? > bound -1", detail)


def test_criterion_2_fails_on_a_tight_family_off_the_bound(monkeypatch):
    """The weight of the members outside V_x raised by one: epsilon stays
    within its nominal value at eps = 1, but Pr[x in C^perp] drops."""
    def off(n, t, eps, x):
        fam = tight_family(n, t, eps, x)
        weights = np.array(fam.weights, dtype=object)
        weights[weights == min(fam.weights)] += 1
        return CodeFamily._packed(n, fam.bases, weights, fam.members)

    monkeypatch.setattr(acceptance, "tight_family", off)
    passed, detail = acceptance.criterion_2(SEED)
    assert not passed
    assert re.fullmatch(r"tight family at eps=1: Pr = \d+/\d+ != bound 7/32", detail)


def test_criterion_4_fails_when_hashing_leaves_the_state_as_it_is(monkeypatch):
    monkeypatch.setattr(acceptance, "hash_marginal", lambda rho, c: rho)
    passed, detail = acceptance.criterion_4(SEED)
    assert not passed
    assert re.fullmatch(r"state \d+: block identity off by more than 1e-10", detail)
