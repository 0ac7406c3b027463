"""Acceptance gate: one test per criterion, printing its pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
the same checks back the CLI `verify all` subcommand.
"""

import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dualhash import acceptance, simulator, universality
from dualhash.acceptance import CRITERIA, run_criteria
from dualhash.bounds import BoundReport
from dualhash.cqstate import BiasReport, _d1, code_bias, random_cq_state
from dualhash.gf2 import BinaryMatrix, LinearCode, kernel
from dualhash.simulator import _family_average_errors
from dualhash.universality import (
    CodeFamily,
    duality_bound,
    epsilon_dual_universal,
    epsilon_reports,
    random_code,
    tight_family,
)

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


def code_family(n, members):
    """The CodeFamily of the kernels of the members' parity rows."""
    return CodeFamily([kernel(BinaryMatrix(rows, n)) for rows in members])


def member_by_member_families(seed):
    """Criterion 2's random families as it drew them before it checked
    parity rows: a CodeFamily of random_code members per family."""
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randrange(3, 11)
        t = rng.randrange(1, n)
        codes = []
        for _ in range(rng.randrange(2, 9)):
            d = t if rng.random() < 0.7 else min(n, t + rng.randrange(1, 3))
            codes.append(random_code(n, d, rng))
        if all(c.dim > t for c in codes):
            codes.append(random_code(n, t, rng))
        yield CodeFamily(codes)


@pytest.mark.parametrize("seed", [SEED, 1, 2])
def test_integer_duality_check_matches_the_fraction_reports(seed):
    """Every random family's (W, t, P, D) and integer margin equal what its
    member-by-member CodeFamily, epsilon_reports and duality_bound give."""
    packed = {}
    for n, group, counts in universality._parity_batches(
            acceptance._random_families(random.Random(seed))):
        margins = acceptance._duality_margins(n, *counts)
        for k, (i, members) in enumerate(group):
            packed[i] = n, members, *(int(c[k]) for c in counts), int(margins[k])
    assert sorted(packed) == list(range(1000))
    seen = set()
    for i, fam in enumerate(member_by_member_families(seed)):
        n, members, W, t, P, D, margin = packed[i]
        drawn = code_family(n, members)
        assert (drawn.codes, drawn.weights) == (fam.codes, fam.weights)
        rep, drep = epsilon_reports(fam, "min_dim")
        bound = duality_bound(rep.epsilon, fam.t_min, n)
        assert (W, t) == (fam.total_weight, fam.t_min)
        assert rep.epsilon == Fraction(P << (n - t), W)
        assert drep.max_prob == Fraction(D, W)
        assert margin == (bound - drep.max_prob) * (W << t)
        seen.add(n)
        if len(fam) < fam.members:
            seen.add("repeat")
        if () in members:
            seen.add("full")
    assert seen == set(range(3, 11)) | {"repeat", "full"}


def record_criterion_2(monkeypatch, failing):
    """Run criterion 2 at SEED with its draws and ``_parity_counts`` calls
    recorded, and assert that it passes.  The patches stay: a later run
    fails the integer check on each (n, members) family put in
    ``failing``.  Returns the draws and the calls, as (n, families)."""
    drawn, calls = [], []
    draw, count = acceptance._random_families, universality._parity_counts

    def recording(rng):
        for item in draw(rng):
            drawn.append(item)
            yield item

    def counting(n, families):
        calls.append((n, families))
        W, t, P, D = count(n, families)
        off = np.array([(n, members) in failing for members in families])
        return W, t, P, D + off * (W << n)

    monkeypatch.setattr(acceptance, "_random_families", recording)
    monkeypatch.setattr(universality, "_parity_counts", counting)
    assert acceptance.criterion_2(SEED)[0]
    return drawn, calls


def test_criterion_2_counts_each_length_in_its_own_stacks(monkeypatch):
    """Every ``_parity_counts`` call holds families of one length, of at
    most COUNT_BLOCK_WORDS words plus one family's (4 2^n words each), and
    every family is counted once, in drawing order within its length."""
    drawn, calls = record_criterion_2(monkeypatch, [])
    index = {id(members): i for i, (_, members) in enumerate(drawn)}
    by_length = {}
    for n, families in calls:
        assert len(families) * 4 << n <= universality.COUNT_BLOCK_WORDS + (4 << n)
        by_length.setdefault(n, []).extend(index[id(members)] for members in families)
    for n, counted in by_length.items():
        assert counted == [i for i, (m, _) in enumerate(drawn) if m == n]
    assert sum(map(len, by_length.values())) == len(drawn) == 1000
    assert len(calls) == 21


def fail_two_random_families(monkeypatch):
    """Make the integer check fail on two random families: i, the first
    family whose length differs from family 0's, and a later family j of
    family 0's length whose stack is counted before i's.  Returns i and
    its family's CodeFamily."""
    failing = []
    drawn, calls = record_criterion_2(monkeypatch, failing)
    n0 = drawn[0][0]
    i = next(k for k, (n, _) in enumerate(drawn) if n != n0)
    j = next(k for k, (n, _) in enumerate(drawn) if k > i and n == n0)

    def call(n, members):
        return next(c for c, (m, fams) in enumerate(calls)
                    if m == n and any(f is members for f in fams))

    assert call(*drawn[j]) < call(*drawn[i])
    failing += [drawn[i], drawn[j]]
    return i, code_family(*drawn[i])


def test_criterion_2_names_the_first_random_family_off_the_bound(monkeypatch):
    """The detail names the family drawn first, not the first one checked,
    in the message of the Fraction check (here made to fail as well)."""
    i, fam = fail_two_random_families(monkeypatch)
    monkeypatch.setattr(acceptance, "duality_bound", lambda *args: Fraction(-1))
    p = epsilon_dual_universal(fam).max_prob
    assert acceptance.criterion_2(SEED) == (False, f"family {i}: dual probability {p} > bound -1")


def test_criterion_2_refuses_an_integer_check_its_reports_contradict(monkeypatch):
    i, fam = fail_two_random_families(monkeypatch)
    rep, drep = epsilon_reports(fam, "min_dim")
    bound = duality_bound(rep.epsilon, fam.t_min, fam.n)
    [result] = run_criteria([2], seed=SEED)
    assert (result.passed, result.detail) == (
        False, f"ArithmeticError: family {i}: the integer duality check disagrees with its "
               f"reports ({drep.max_prob} <= {bound})")


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
    monkeypatch.setattr(acceptance, "_hash_marginals", lambda blocks, labels: blocks)
    passed, detail = acceptance.criterion_4(SEED)
    assert not passed
    assert re.fullmatch(r"state \d+: block identity off by more than 1e-10", detail)


def test_criterion_4_names_the_state_drawn_first_not_the_first_stack(monkeypatch):
    """Two states of different shapes fail: i, the first state whose shape
    differs from state 0's, and a later state j of state 0's shape, whose
    stack is checked first.  The detail names i."""
    drawn = []

    def recording(*args):
        rho = random_cq_state(*args)
        drawn.append(rho.blocks)
        return rho

    monkeypatch.setattr(acceptance, "random_cq_state", recording)
    assert acceptance.criterion_4(SEED)[0]
    i = next(k for k, b in enumerate(drawn) if b.shape != drawn[0].shape)
    j = next(k for k, b in enumerate(drawn) if k > i and b.shape == drawn[0].shape)
    failing = [drawn[i], drawn[j]]

    def d1(blocks):
        out = _d1(blocks)
        for s, b in enumerate(blocks):
            if any(np.array_equal(b, f) for f in failing):
                out[s] = np.inf
        return out

    monkeypatch.setattr(acceptance, "_d1", d1)
    assert acceptance.criterion_4(SEED) == (False, f"state {i}: d1 exceeds sqrt(|A| d2)")


def test_criterion_5_names_the_first_failing_configuration(monkeypatch):
    """(R=1/3, p=1/10) and (R=1/2, p=1/20) are made to fail; the p loop is
    inside the R loop, so the first is named."""
    def failing(family, ps, R, **kwargs):
        results = _family_average_errors(family, ps, R, **kwargs)
        return [replace(res, ci_upper=math.inf) if (R, p) in bad else res
                for p, res in zip(ps, results)]

    bad = {(1 / 3, Fraction(1, 10)), (1 / 2, Fraction(1, 20))}
    monkeypatch.setattr(acceptance, "_family_average_errors", failing)
    passed, detail = acceptance.criterion_5(SEED)
    assert not passed
    assert re.fullmatch(r"\(R=0\.3333333333333333, p=1/10\): upper CI inf exceeds bound "
                        r"[0-9.e-]+", detail)


def test_criterion_5_checks_the_weighted_sum_bound(monkeypatch):
    """The family-average bound holds and the weighted sum, checked after
    it, is made tiny: the criterion fails on it at the first configuration."""
    tiny = BoundReport("weighted_sum", 1e-6, {})
    monkeypatch.setattr(simulator, "weighted_decoding_bound", lambda *args: tiny)
    passed, detail = acceptance.criterion_5(SEED)
    assert not passed
    assert re.fullmatch(r"\(R=0\.3333333333333333, p=1/20\): upper CI [0-9.e-]+ "
                        r"exceeds bound 1e-06", detail)


def test_criterion_6_fails_when_leakage_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(simulator, "_coset_key_leakages", lambda cases: [(9.0, 9.0)] * len(cases))
    assert acceptance.criterion_6(SEED) == (False, "n=3, p=0.05: leakage exceeds its bound")
