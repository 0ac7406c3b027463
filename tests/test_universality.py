"""Universality measurement, duality bounds, searches, and constructions."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from dualhash.gf2 import EnumerationCapError, LinearCode, dual
from dualhash.hashfam import HashFamily, HashFamilySpec
from dualhash.universality import (
    FAMILY_MEMBER_CAP,
    CodeFamily,
    CodePairFamily,
    SearchBudgetError,
    counterexample_family,
    duality_bound,
    epsilon_dual_universal,
    epsilon_floor,
    epsilon_pair,
    epsilon_universal,
    permuted_epsilon,
    permuted_pair_epsilon,
    random_code,
    random_extension,
    search_permuted_code,
    subspaces_of,
    tight_family,
)


def hash_code_family(kind, n, m):
    return CodeFamily.from_hash_family(HashFamily(HashFamilySpec(kind, n, m)))


def brute_epsilon(family, t):
    """Independent oracle: direct max over x of Pr[x in C] 2^(n-t)."""
    best = Fraction(0)
    for x in range(1, 1 << family.n):
        hit = sum(
            w for c, w in zip(family.codes, family.weights) if c.contains(x)
        )
        best = max(best, Fraction(hit, family.total_weight))
    return best * (1 << (family.n - t))


def test_family_size_cap_before_enumeration():
    class Oversized:
        index_space = FAMILY_MEMBER_CAP + 1

        def __getitem__(self, r):
            raise AssertionError("member built")

        def __iter__(self):
            raise AssertionError("family iterated")

    with pytest.raises(EnumerationCapError):
        CodeFamily.from_hash_family(Oversized())


def test_epsilon_against_brute_force():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(3, 8)
        fam = CodeFamily(
            [random_code(n, rng.randrange(1, n), rng) for _ in range(4)],
            [rng.randrange(1, 5) for _ in range(4)],
        )
        rep = epsilon_universal(fam, "min_dim")
        assert rep.epsilon == brute_epsilon(fam, fam.t_min)
        rep_max = epsilon_universal(fam, "max_dim")
        assert rep_max.epsilon == brute_epsilon(fam, fam.t_max)


def test_dual_convention_swap():
    fam = hash_code_family("toeplitz", 5, 2)
    # dual family of a min-dim-t family has max dim n-t
    direct = epsilon_universal(fam.dual(), "max_dim")
    assert epsilon_dual_universal(fam, "min_dim").epsilon == direct.epsilon


def test_report_record_fields():
    rep = epsilon_universal(hash_code_family("modified_toeplitz", 5, 2))
    rec = rep.to_record()
    assert rec["epsilon_num"] == 1 and rec["epsilon_den"] == 1
    assert rec["convention"] == "min_dim"
    assert rec["t_min"] == rec["t_max"] == 3
    assert len(rec["worst_x"]) == 5


def test_duality_bound_examples():
    # epsilon = 1 gives the pairwise-independence value 2^(1-t) - 2^(1-n)
    assert duality_bound(1, 3, 6) == Fraction(2, 8) - Fraction(2, 64)
    # the floor epsilon gives the perfect-family dual probability
    assert duality_bound(epsilon_floor(3, 6), 3, 6) == Fraction(7, 63)
    with pytest.raises(ValueError):
        duality_bound(1, 0, 6)


def test_pair_variants_on_fixed_outer():
    rng = random.Random(4)
    c1 = random_code(6, 4, rng)
    subs = list(subspaces_of(c1, 2))[:6]
    fam = CodePairFamily([(s, c1) for s in subs])
    rep = epsilon_pair(fam, "subcode", "min_dim")
    # oracle: max over nonzero x in c1 of Pr[x in C_r] 2^(m-t)
    best = Fraction(0)
    for x in c1.codewords():
        if x == 0:
            continue
        hit = sum(1 for s in subs if s.contains(x))
        best = max(best, Fraction(hit, len(subs)))
    assert rep.epsilon == best * (1 << (c1.dim - 2))


def test_pair_variants_on_fixed_inner():
    rng = random.Random(8)
    base = random_code(6, 2, rng)
    outers = [random_extension(base, 4, rng) for _ in range(6)]
    fam = CodePairFamily([(base, o) for o in outers])
    rep = epsilon_pair(fam, "extended", "min_dim")
    best = Fraction(0)
    for x in range(1, 1 << 6):
        if base.contains(x):
            continue
        hit = sum(1 for o in outers if o.contains(x))
        best = max(best, Fraction(hit, len(outers)))
    assert rep.epsilon == best * (1 << (6 - 4))
    # dual variant runs the swapped variant on the dual pairs
    dual_rep = epsilon_pair(fam, "extended_dual", "min_dim")
    swapped = epsilon_pair(fam.dual(), "subcode", "max_dim")
    assert dual_rep.epsilon == swapped.epsilon


def test_pair_family_validation():
    c1 = LinearCode.full(4)
    c2 = LinearCode.repetition(4)
    fam = CodePairFamily([(c2, c1)])
    assert fam.inners().codes == (c2,)
    assert fam.outers().codes == (c1,)
    d = fam.dual()
    assert d.pairs[0] == (dual(c1), dual(c2))
    with pytest.raises(ValueError):
        CodePairFamily([(c1, c2)])  # inner not contained in outer


def test_tight_family_within_epsilon_and_equality():
    eps = Fraction(5, 4)
    fam = tight_family(5, 2, eps, 3)
    assert epsilon_universal(fam, "min_dim").epsilon <= eps
    dualfam = fam.dual()
    hit = sum(w for c, w in zip(dualfam.codes, dualfam.weights) if c.contains(3))
    assert Fraction(hit, dualfam.total_weight) == duality_bound(eps, 2, 5)


def test_tight_family_rejects_out_of_range_epsilon():
    with pytest.raises(ValueError):
        tight_family(5, 2, Fraction(3), 1)
    with pytest.raises(ValueError):
        tight_family(5, 2, Fraction(0), 1)


def test_subspaces_of_counts():
    # Gaussian binomial [5 choose 3]_2 = 155
    v = dual(LinearCode.repetition(6))
    assert v.dim == 5
    assert sum(1 for _ in subspaces_of(v, 3)) == 155


def test_permuted_epsilon_matches_exhaustive_orbit():
    c = LinearCode.from_strings(["1100", "0110"])
    n = c.n
    counts = [0] * (1 << n)
    members = 0
    for perm in permutations(range(n)):
        rows = []
        for b in c.basis:
            v = 0
            for i in range(n):
                if (b >> (n - 1 - i)) & 1:
                    v |= 1 << (n - 1 - perm[i])
            rows.append(v)
        pc = LinearCode.from_rows(n, rows)
        members += 1
        for w in pc.codewords():
            counts[w] += 1
    best = max(Fraction(counts[x], members) for x in range(1, 1 << n))
    assert permuted_epsilon(c) == best * (1 << (n - c.dim))


def test_permuted_pair_epsilon_nonnegative_and_bounded():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(4, 10)
        c2 = random_code(n, 1, rng)
        c1 = random_extension(c2, 3, rng)
        eps = permuted_pair_epsilon(c1, c2)
        assert eps >= 0
        assert eps <= permuted_epsilon(c1) * Fraction(1, 1)


def test_search_modes_and_budget_error():
    c = search_permuted_code(10, 3, 200, seed=0, mode="plain")
    assert c.dim == 3 and permuted_epsilon(c) <= 11
    base = LinearCode.repetition(10)
    c1, c2 = search_permuted_code(10, 3, 200, seed=0, base=base, mode="extension")
    assert c1.contains_code(c2) and permuted_pair_epsilon(c1, c2) <= 11
    d1, d2 = search_permuted_code(10, 3, 200, seed=0, base=dual(base), mode="dual_pair")
    assert d2.contains_code(d1) and d1.dim == 3
    assert permuted_pair_epsilon(dual(d1), dual(d2)) <= 11
    with pytest.raises(SearchBudgetError) as err:
        # seed 58 draws the repetition code first, whose orbit parameter is
        # 2^(n-1) > n+1, so a 1-trial budget must be exhausted
        search_permuted_code(6, 1, 1, seed=58, mode="plain")
    assert err.value.trials == 1
    assert err.value.best_epsilon > 7


def test_counterexample_family_structure():
    fam = counterexample_family(5)
    assert len(fam) == 1 << 8
    last_bit = 1
    for c in fam.codes:
        for w in c.codewords():
            assert w & last_bit == 0  # every codeword ends in 0
    assert epsilon_universal(fam, "min_dim").epsilon == 2
    # e_n lies in every dual code
    for c in fam.codes:
        assert dual(c).contains(1)


def test_counterexample_family_requires_seed_when_large():
    with pytest.raises(ValueError):
        counterexample_family(12, m=2)
    fam = counterexample_family(12, seed=1, m=2)
    assert len(fam) == 1 << 10


def test_random_code_dimension():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(2, 12)
        t = rng.randrange(0, n + 1)
        assert random_code(n, t, rng).dim == t
