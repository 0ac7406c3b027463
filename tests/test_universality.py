"""Universality measurement, duality bounds, searches, and constructions."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash import gf2, universality
from dualhash.cqstate import code_bias
from dualhash.gf2 import EnumerationCapError, LinearCode, dual
from dualhash.hashfam import HashFamily, HashFamilySpec
from dualhash.simulator import exact_error_prob, family_average_error
from dualhash.universality import (
    FAMILY_MEMBER_CAP,
    CodeFamily,
    CodePairFamily,
    SearchBudgetError,
    _membership_counts,
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


SWAP = {"min_dim": "max_dim", "max_dim": "min_dim"}
DUAL_VARIANT = {"subcode": "extended", "extended": "subcode", "pair": "pair"}


def brute_report(members, weights, hit, candidates, base, dims, convention):
    """Independent oracle over an unmerged member list: the first candidate x
    of greatest weighted Pr[hit(member, x)], that probability, and
    ε = Pr 2^(base - t); (0, 0, 0) when there is no candidate."""
    total = sum(weights)
    worst_x, max_prob = 0, Fraction(0)
    for x in candidates:
        prob = Fraction(sum(w for m, w in zip(members, weights) if hit(m, x)), total)
        if prob > max_prob or not worst_x:
            worst_x, max_prob = x, prob
    t = min(dims) if convention == "min_dim" else max(dims)
    return worst_x, max_prob, max_prob * (1 << (base - t))


def brute_plain(codes, weights, convention):
    n = codes[0].n
    return brute_report(codes, weights, LinearCode.contains, range(1, 1 << n), n,
                        [c.dim for c in codes], convention)


def brute_pair(pairs, weights, variant, convention):
    n = pairs[0][0].n
    if variant.endswith("_dual"):
        duals = [(dual(outer), dual(inner)) for inner, outer in pairs]
        return brute_pair(duals, weights, DUAL_VARIANT[variant[:-5]], SWAP[convention])
    inners = [inner for inner, _ in pairs]
    outers = [outer for _, outer in pairs]
    outer_dims = [c.dim for c in outers]
    if variant == "subcode":
        c1 = outers[0]
        return brute_report(inners, weights, LinearCode.contains,
                            [x for x in c1.codewords() if x], c1.dim,
                            [c.dim for c in inners], convention)
    if variant == "extended":
        c1 = inners[0]
        return brute_report(outers, weights, LinearCode.contains,
                            [x for x in range(1, 1 << n) if not c1.contains(x)], n,
                            outer_dims, convention)
    return brute_report(pairs, weights,
                        lambda p, x: p[1].contains(x) and not p[0].contains(x),
                        range(1, 1 << n), n, outer_dims, convention)


def as_tuple(rep):
    return rep.worst_x, rep.max_prob, rep.epsilon


@st.composite
def member_lists(draw):
    """A list of pool indices with repeats, and one weight per entry."""
    size = draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(picks), max_size=len(picks)))
    return size, picks, weights


def draw_code(data, n, within=None):
    """A code spanned by a few drawn vectors, all in `within` if given."""
    words = list(within.codewords()) if within is not None else list(range(1 << n))
    return LinearCode.from_rows(n, data.draw(st.lists(st.sampled_from(words), max_size=n)))


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_merged_family_matches_brute_oracle_on_unmerged_list(n, data):
    size, picks, weights = data.draw(member_lists())
    pool = [draw_code(data, n) for _ in range(size)]
    codes = [pool[i] for i in picks]
    fam = CodeFamily(codes, weights)
    assert fam.members == len(codes) and fam.dual().members == len(codes)
    assert fam.total_weight == sum(weights)
    assert len(fam) == len(set(codes)) and fam.codes == tuple(dict.fromkeys(codes))

    duals = [dual(c) for c in codes]
    for convention in ("min_dim", "max_dim"):
        assert as_tuple(epsilon_universal(fam, convention)) == brute_plain(
            codes, weights, convention)
        assert as_tuple(epsilon_dual_universal(fam, convention)) == brute_plain(
            duals, weights, SWAP[convention])
    bias = code_bias(fam)
    worst_x, max_prob, _ = brute_plain(duals, weights, "min_dim")
    assert (bias.worst_x, bias.delta_sq) == (worst_x, max_prob)

    p = Fraction(1, 10)
    expected = sum(w * exact_error_prob(c, p) for c, w in zip(codes, weights))
    got = family_average_error(fam, p, R=0.0, epsilon=float(1 << n)).exact_value
    assert got == expected / sum(weights)

    # nested pairs of each kind, with repeats
    size, picks, weights = data.draw(member_lists())
    c1 = draw_code(data, n)
    pools = {"subcode": [], "extended": [], "pair": []}
    for _ in range(size):
        pools["subcode"].append((draw_code(data, n, within=c1), c1))
        extra = draw_code(data, n)
        pools["extended"].append((c1, LinearCode.from_rows(n, c1.basis + extra.basis)))
        outer = draw_code(data, n)
        pools["pair"].append((draw_code(data, n, within=outer), outer))
    for kind, pool in pools.items():
        pairs = [pool[i] for i in picks]
        pfam = CodePairFamily(pairs, weights)
        assert (pfam.members, pfam.total_weight) == (len(pairs), sum(weights))
        assert len(pfam) == len(set(pairs))
        for variant in (kind, kind + "_dual"):
            for convention in ("min_dim", "max_dim"):
                assert as_tuple(epsilon_pair(pfam, variant, convention)) == brute_pair(
                    pairs, weights, variant, convention)


def oracle_membership_counts(family):
    """counts[x] = total weight of members containing x, by walking every
    member's codewords."""
    counts = [0] * (1 << family.n)
    for code, w in zip(family.codes, family.weights):
        for c in code.codewords():
            counts[c] += w
    return counts


@st.composite
def weighted_members(draw, min_weight=1, max_weight=5):
    """Up to eight codes of length n <= 8 and any dimension 0..n, with
    repeats, and one weight per member as given."""
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [random_code(n, draw(st.integers(0, n)), rng)
            for _ in range(draw(st.integers(1, 4)))]
    codes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    weights = draw(st.lists(st.integers(min_weight, max_weight),
                            min_size=len(codes), max_size=len(codes)))
    return codes, weights


@st.composite
def weighted_families(draw, min_weight=1, max_weight=5):
    return CodeFamily(*draw(weighted_members(min_weight, max_weight)))


@given(st.one_of(weighted_families(), weighted_families(1 << 63, 1 << 70)))
@settings(max_examples=80, deadline=None)
def test_membership_counts_match_codeword_walk(fam):
    counts = _membership_counts(fam)
    assert counts == oracle_membership_counts(fam)
    assert all(type(c) is int for c in counts)


def test_membership_counts_blocks_and_big_weights():
    rng = random.Random(4)
    codes = [random_code(12, t, rng) for t in (0, 5, 9, 12) for _ in range(40)]
    fam = CodeFamily(codes, [rng.randrange(1, 4) for _ in codes])
    assert _membership_counts(fam) == oracle_membership_counts(fam)
    big = CodeFamily(codes[:3], [1 << 62, 1 << 62, 3])
    assert big.total_weight >= 1 << 63
    assert _membership_counts(big) == oracle_membership_counts(big)


def explicit_dual_pairs(pairs):
    return [(dual(outer), dual(inner)) for inner, outer in pairs]


# small weights; weights whose total passes 2^63 only after the 2^n scaling
# of the dual counts; weights whose total passes 2^63 (Python-int counts)
@given(st.one_of(weighted_members(), weighted_members(1 << 56, 1 << 60),
                 weighted_members(1 << 63, 1 << 70)), st.data())
@settings(max_examples=80, deadline=None)
def test_dual_measures_match_explicit_dual_family(members, data):
    codes, weights = members
    fam = CodeFamily(codes, weights)
    n = fam.n
    explicit = CodeFamily([dual(c) for c in codes], weights)
    for convention in ("min_dim", "max_dim"):
        assert epsilon_dual_universal(fam, convention) == epsilon_universal(
            explicit, SWAP[convention])
    bias = code_bias(fam)
    direct = epsilon_universal(explicit)
    assert (bias.worst_x, bias.delta_sq) == (direct.worst_x, direct.max_prob)
    assert type(bias.delta_sq) is Fraction

    # one pair family per dual variant, built from the same members
    fixed = draw_code(data, n)
    pairs = {
        "subcode": [(c, LinearCode.full(n)) for c in codes],
        "extended": [(fixed, LinearCode.from_rows(n, fixed.basis + c.basis))
                     for c in codes],
        "pair": [(LinearCode.from_rows(n, c.basis[:data.draw(st.integers(0, c.dim))]), c)
                 for c in codes],
    }
    for kind, members_ in pairs.items():
        pfam = CodePairFamily(members_, weights)
        dual_fam = CodePairFamily(explicit_dual_pairs(members_), weights)
        for convention in ("min_dim", "max_dim"):
            assert epsilon_pair(pfam, kind + "_dual", convention) == epsilon_pair(
                dual_fam, DUAL_VARIANT[kind], SWAP[convention])


def test_dual_measures_build_no_dual_code(monkeypatch):
    fams = [hash_code_family("toeplitz", 6, 2), tight_family(5, 2, Fraction(3, 2), 3)]
    expected = [
        (epsilon_dual_universal(f, "min_dim"), epsilon_dual_universal(f, "max_dim"),
         code_bias(f))
        for f in fams
    ]

    def refuse(*args):
        raise AssertionError("dual code built")

    for module in (universality, gf2):
        monkeypatch.setattr(module, "dual", refuse)
        monkeypatch.setattr(module, "kernel", refuse)
    monkeypatch.setattr(LinearCode, "dual", refuse)
    got = [
        (epsilon_dual_universal(f, "min_dim"), epsilon_dual_universal(f, "max_dim"),
         code_bias(f))
        for f in fams
    ]
    assert got == expected


def test_codeword_blocks_respect_row_budget():
    rng = random.Random(8)
    n = 12
    codes = [random_code(n, t, rng) for t in (0, 3, 7, 12) for _ in range(30)]
    fam = CodeFamily(codes, [rng.randrange(1, 3) for _ in codes])
    seen = {}
    for dim, w, words in universality._codeword_blocks(fam, row_words=1 << n):
        assert len(words) * (1 << n) <= max(universality.COUNT_BLOCK_WORDS, 1 << n)
        for row in words.tolist():
            seen[LinearCode.from_rows(n, row)] = w
    assert seen == dict(zip(fam.codes, fam.weights))


@pytest.mark.parametrize("call", [
    lambda fam, pairs: epsilon_universal(fam, "bogus"),
    lambda fam, pairs: epsilon_dual_universal(fam, "bogus"),
    lambda fam, pairs: epsilon_pair(pairs["subcode"], "subcode", "bogus"),
    lambda fam, pairs: epsilon_pair(pairs["extended"], "extended", "bogus"),
    lambda fam, pairs: epsilon_pair(pairs["pair"], "pair", "bogus"),
    lambda fam, pairs: epsilon_pair(pairs["subcode"], "subcode_dual", "bogus"),
    lambda fam, pairs: epsilon_pair(pairs["extended"], "extended_dual", "bogus"),
    lambda fam, pairs: epsilon_pair(pairs["pair"], "pair_dual", "bogus"),
], ids=["plain", "plain_dual", "subcode", "extended", "pair", "subcode_dual",
        "extended_dual", "pair_dual"])
def test_unknown_convention_raises(call, monkeypatch):
    c1, c2 = LinearCode.full(4), LinearCode.repetition(4)
    pairs = {
        "subcode": CodePairFamily([(c2, c1), (LinearCode.zero(4), c1)]),
        "extended": CodePairFamily([(c2, c1), (c2, dual(LinearCode.from_strings(["1100"])))]),
        "pair": CodePairFamily([(c2, c1)]),
    }
    fam = hash_code_family("toeplitz", 4, 2)

    def counted(family):
        raise AssertionError("membership counted before the convention was checked")

    # the convention is rejected before any membership count
    monkeypatch.setattr(universality, "_membership_counts", counted)
    with pytest.raises(ValueError, match="unknown convention"):
        call(fam, pairs)


def test_unknown_pair_variant_raises():
    fam = CodePairFamily([(LinearCode.repetition(4), LinearCode.full(4))])
    for variant in ("bogus", "bogus_dual"):
        with pytest.raises(ValueError, match="unknown variant"):
            epsilon_pair(fam, variant)


def test_tight_family_merges_repeated_members():
    fam = tight_family(7, 3, Fraction(3, 2), 1)
    assert fam.members == 43059
    assert len(fam) == 11811


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
        codes = [random_code(n, rng.randrange(1, n), rng) for _ in range(4)]
        weights = [rng.randrange(1, 5) for _ in range(4)]
        fam = CodeFamily(codes, weights)
        for convention in ("min_dim", "max_dim"):
            assert as_tuple(epsilon_universal(fam, convention)) == brute_plain(
                codes, weights, convention)


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
    assert fam.pairs == ((c2, c1),)
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
    assert fam.members == 1 << 8
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
    assert fam.members == 1 << 10


def test_random_code_dimension():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(2, 12)
        t = rng.randrange(0, n + 1)
        assert random_code(n, t, rng).dim == t
