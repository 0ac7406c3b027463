"""Universality measurement, duality bounds, searches, and constructions."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
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
    _count,
    counterexample_family,
    duality_bound,
    epsilon_dual_universal,
    epsilon_floor,
    epsilon_pair,
    epsilon_reports,
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
    got = family_average_error(fam, p, R=0.0).exact_value
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
    counts = _count(fam)
    for side, oracle in (("plain", fam), ("dual", fam.dual())):
        values = getattr(counts, side).tolist()
        assert values == oracle_membership_counts(oracle)
        assert all(type(c) is int for c in values)


def test_membership_counts_blocks_and_big_weights():
    rng = random.Random(4)
    codes = [random_code(12, t, rng) for t in (0, 5, 9, 12) for _ in range(40)]
    fam = CodeFamily(codes, [rng.randrange(1, 4) for _ in codes])
    assert _count(fam).plain.tolist() == oracle_membership_counts(fam)
    big = CodeFamily(codes[:3], [1 << 62, 1 << 62, 3])
    assert big.total_weight >= 1 << 63
    assert _count(big).plain.tolist() == oracle_membership_counts(big)


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


def test_parity_rows_span_each_member_dual():
    rng = random.Random(37)
    for n in range(1, 13):
        for _ in range(6):
            dims = [rng.randint(0, n) for _ in range(rng.randint(1, 6))]
            dims += rng.choice(([], [0], [n], [0, n]))  # {0} and F_2^n
            codes = [random_code(n, t, rng) for t in dims]
            fam = CodeFamily(codes, [rng.randrange(1, 4) for _ in codes])
            rows = universality._parity_rows(fam)
            assert rows.shape == (len(fam), n - fam.t_min)
            for code, member in zip(fam.codes, rows.tolist()):
                assert member.count(0) == code.dim - fam.t_min
                assert LinearCode.from_rows(n, member) == dual(code)


def test_reports_walk_the_codewords_once(monkeypatch):
    # the expected reports come from an equal family, counted on its own
    expected_fam = tight_family(5, 2, Fraction(3, 2), 3)
    expected = (epsilon_universal(expected_fam), epsilon_dual_universal(expected_fam))
    fam = tight_family(5, 2, Fraction(3, 2), 3)
    walks = []

    def walk(family):
        walks.append(family)
        return blocks(family)

    blocks = universality._codeword_blocks
    monkeypatch.setattr(universality, "_codeword_blocks", walk)
    assert epsilon_reports(fam) == expected
    # a family keeps its counts: later reports on it walk nothing
    assert (epsilon_universal(fam), epsilon_dual_universal(fam)) == expected
    assert epsilon_reports(fam, "max_dim") == (epsilon_universal(expected_fam, "max_dim"),
                                               epsilon_dual_universal(expected_fam, "max_dim"))
    assert walks == [fam]


def random_parity_family(rng, n):
    """Parity rows of two to six members of rank 0..n, some repeated."""
    members = [universality._random_rows(n, rng.randrange(n + 1), rng)
               for _ in range(rng.randrange(2, 6))]
    return members + members[:rng.randrange(3)]


def test_parity_rows_counted_on_the_dual_side_match_their_kernel_families(monkeypatch):
    """The stacked counter fed parity rows: their spans counted as the dual
    side, and the plain side from the shift by each code dimension, equal
    the counts of the CodeFamily of the rows' kernels, and so do the four
    numbers ``_parity_counts`` reads off them."""
    monkeypatch.setattr(universality, "COUNT_BLOCK_WORDS", 1 << 9)
    rng = random.Random(11)
    seen = set()
    for n in range(1, 9):
        fams = [random_parity_family(rng, n) for _ in range(5)]
        ranks = [np.array([len(rows) for rows in members]) for members in fams]
        width = max(int(r.max()) for r in ranks)
        gens = np.array([rows + (0,) * (width - len(rows))
                         for members in fams for rows in members])
        blocks = universality._span_blocks(
            n, gens, np.concatenate(ranks), np.ones(len(gens), dtype=np.int64),
            np.repeat(np.arange(len(fams)), [len(members) for members in fams]))
        dual_counts, plain_counts = universality._span_counts(blocks, n, len(fams), 8)
        W, t, P, D = universality._parity_counts(n, fams)
        for k, members in enumerate(fams):
            codes = [gf2.kernel(gf2.BinaryMatrix(rows, n)) for rows in members]
            want = _count(CodeFamily(codes))
            assert plain_counts[k].tolist() == want.plain.tolist()
            assert dual_counts[k].tolist() == want.dual.tolist()
            assert (W[k], t[k]) == (len(members), want.t_min)
            assert (P[k], D[k]) == (want.plain[1:].max(), want.dual[1:].max())
            if len(set(codes)) < len(codes):
                seen.add("repeat")
            if () in members:
                seen.add("full")
    assert seen == {"repeat", "full"}
    with pytest.raises(EnumerationCapError, match="ambient length 21"):
        epsilon_reports(CodeFamily([LinearCode(universality.AMBIENT_CAP + 1, ())]))


def test_span_counts_of_rank_deficient_rows_match_their_row_spaces():
    """Blocks of r rows of rank below r (zero rows, repeated rows, random
    rows): the counted side equals the weighted member-by-member counts of
    the row spaces, and the other side those of their duals.  One stream
    holds a rank at two block widths back to back, which one shift per
    run of a single width keeps apart."""
    rng = random.Random(5)
    n = 5

    def member_rows(kind):
        r = rng.randrange(1, 5)
        if kind == "zero":
            return (0,) * r
        if kind == "repeat":
            row = rng.randrange(1, 1 << n)
            return (row, row) + tuple(rng.randrange(1 << n) for _ in range(r - 1))
        return tuple(rng.randrange(1 << n) for _ in range(r))

    streams = [[[member_rows(kind) for _ in range(rng.randrange(1, 4))]
                for kind in kinds] for kinds in (("zero",) * 3, ("repeat",) * 4,
                                                   ("random",) * 6, ("zero", "repeat", "random"))]
    # rank 2 from two rows, then from three: two widths of one rank, back to back
    streams.append([[(0b00011, 0b00110)], [(0b10000, 0b01000, 0b11000)], [(0b00001, 0b00001, 0b00010)]])
    for groups in streams:
        # one family per group, each member its own block: consecutive
        # blocks of one rank and row count form one run
        weights = [[rng.randrange(1, 4) for _ in members] for members in groups]
        blocks = ((gf2.rank(rows), w, gf2.span(np.array([rows])) + (k << n))
                  for k, (members, ws) in enumerate(zip(groups, weights))
                  for rows, w in zip(members, ws))
        counted, other = universality._span_counts(blocks, n, len(groups), 16)
        for k, (members, ws) in enumerate(zip(groups, weights)):
            spaces = CodeFamily([LinearCode.from_rows(n, rows) for rows in members], ws)
            assert counted[k].tolist() == oracle_membership_counts(spaces)
            assert other[k].tolist() == oracle_membership_counts(spaces.dual())
    keys = [(gf2.rank(rows), len(rows)) for members in streams[-1] for rows in members]
    assert keys == [(2, 2), (2, 3), (2, 3)]


def test_random_rows_and_random_code_draw_one_stream():
    """The same code, from the draws of the kernel loop that random_code
    ran before it read rows, with the rng left in the same state; rejected
    rank-deficient draws and t in {0, n} included."""
    class CountingRandom(random.Random):
        draws = 0

        def randrange(self, *args):
            self.draws += 1
            return super().randrange(*args)

    def kernel_loop(n, t, rng):
        if t == n:
            return LinearCode.full(n)
        while True:
            code = gf2.kernel(gf2.BinaryMatrix(
                tuple(rng.randrange(1 << n) for _ in range(n - t)), n))
            if code.dim == t:
                return code

    rejected = set()
    for seed in range(30):
        for n in range(1, 7):
            for t in range(n + 1):
                rngs = [CountingRandom(seed) for _ in range(3)]
                rows = universality._random_rows(n, t, rngs[0])
                code = random_code(n, t, rngs[1])
                assert len(rows) == gf2.rank(rows) == n - t
                assert code == gf2.kernel(gf2.BinaryMatrix(rows, n)) == kernel_loop(n, t, rngs[2])
                assert len({rng.getstate() for rng in rngs}) == 1
                assert len({rng.draws for rng in rngs}) == 1
                if rngs[0].draws > n - t:
                    rejected.add(t)
                if t == n:
                    assert rows == () and rngs[0].draws == 0
    assert 0 in rejected and len(rejected) > 2


def test_random_extension_of_the_whole_space_draws_nothing():
    """t = n over a base of dimension n is the base itself, with no draw;
    every draw with q = n - dim(base) > 0 is the quotient-space lift it
    was, with the rng left in the same state, and over {0} it is
    random_code's draw."""
    def lifted_draw(base, t, rng):
        q = base.n - base.dim
        comp = gf2.complement_basis(LinearCode.full(base.n), base)
        lifted = []
        for row in random_code(q, t - base.dim, rng).basis:
            v = 0
            for j in range(q):
                if (row >> (q - 1 - j)) & 1:
                    v ^= comp[j]
            lifted.append(v)
        return LinearCode.from_rows(base.n, lifted + list(base.basis))

    for n in range(1, 7):
        rng = random.Random(n)
        full = LinearCode.full(n)
        state = rng.getstate()
        assert random_extension(full, n, rng) == full
        assert rng.getstate() == state
        for seed in range(5):
            for base in (LinearCode(n, ()), random_code(n, rng.randrange(n), rng)):
                for t in range(base.dim, n + 1):
                    rngs = [random.Random(seed) for _ in range(3)]
                    got = random_extension(base, t, rngs[0])
                    assert got == lifted_draw(base, t, rngs[1])
                    assert got.dim == t and got.contains_code(base)
                    assert rngs[0].getstate() == rngs[1].getstate()
                    if not base.dim:
                        assert got == random_code(n, t, rngs[2])
                        assert rngs[0].getstate() == rngs[2].getstate()


def _weighted_code_family():
    rng = random.Random(6)
    codes = [random_code(7, t, rng) for t in (0, 2, 2, 5, 7)]
    return CodeFamily(codes, [1 << 63, 3, 1 << 64, 1, 5])


@pytest.mark.parametrize("make_family, dtypes", [
    (lambda: CodeFamily([LinearCode(4, (0b1001, 0b0110)), LinearCode(4, (0b0011,))],
                        [1 << 60, 1]), (np.int64, object)),
    (_weighted_code_family, (object, object)),
], ids=["wide_shifted_counts", "weighted_code_family"])
def test_family_counted_alone_in_the_dtypes_of_its_total_weight(make_family, dtypes):
    # the family's total weight sets its dtypes: int64 while it fits, and
    # for the shifted counts while it times 2^n fits
    family = make_family()
    counts = _count(family)
    assert (counts.plain.dtype, counts.dual.dtype) == dtypes
    assert counts.plain.tolist() == oracle_membership_counts(family)
    assert counts.dual.tolist() == oracle_membership_counts(family.dual())


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
    monkeypatch.setattr(universality, "_count", counted)
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
        spec = HashFamilySpec("toeplitz", 16, 8)
        index_bits = 23

        @property
        def index_space(self):
            raise AssertionError("index space built")

        def __getitem__(self, r):
            raise AssertionError("member built")

        def __iter__(self):
            raise AssertionError("family iterated")

    with pytest.raises(EnumerationCapError):
        CodeFamily.from_hash_family(Oversized())


@pytest.mark.parametrize("n", range(2, 13))
def test_modified_toeplitz_rank_counts_match_enumeration(n):
    for m in range(1, n):
        hf = HashFamily(HashFamilySpec("modified_toeplitz", n, m))
        fam = CodeFamily.from_hash_family(hf)
        counted, enumerated = _count(hf), _count(fam)
        assert (counted.t_min, counted.t_max) == (fam.t_min, fam.t_max)
        assert counted.total_weight == fam.total_weight == hf.members
        for side in ("plain", "dual"):
            assert (getattr(counted, side).tolist()
                    == getattr(enumerated, side).tolist())
        for convention in ("min_dim", "max_dim"):
            want = (epsilon_universal(fam, convention), epsilon_dual_universal(fam, convention))
            got = (epsilon_universal(hf, convention), epsilon_dual_universal(hf, convention))
            assert got == want
            assert epsilon_reports(hf, convention) == want
        assert code_bias(hf) == code_bias(fam)


@pytest.mark.parametrize("n", range(1, 13))
def test_toeplitz_row_counts_match_enumeration(n):
    for m in range(1, min(n, 13 - n) + 1):
        hf = HashFamily(HashFamilySpec("toeplitz", n, m))
        fam = CodeFamily.from_hash_family(hf)
        counted, enumerated = _count(hf), _count(fam)
        assert (counted.t_min, counted.t_max) == (fam.t_min, fam.t_max)
        assert counted.total_weight == fam.total_weight == hf.members
        for side in ("plain", "dual"):
            got, want = getattr(counted, side), getattr(enumerated, side)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        for convention in ("min_dim", "max_dim"):
            want = (epsilon_universal(fam, convention), epsilon_dual_universal(fam, convention))
            got = (epsilon_universal(hf, convention), epsilon_dual_universal(hf, convention))
            assert got == want
            assert epsilon_reports(hf, convention) == want
        assert code_bias(hf) == code_bias(fam)


@pytest.mark.parametrize("n, m", [(6, 2), (5, 5), (7, 3), (4, 1)])
def test_toeplitz_row_counts_walk_in_chunks(monkeypatch, n, m):
    hf = HashFamily(HashFamilySpec("toeplitz", n, m))
    whole = _count(hf)
    chunks = []

    def rows(self, indices):
        chunks.append(len(indices))
        return build(self, indices)

    build = HashFamily._rows
    monkeypatch.setattr(HashFamily, "_rows", rows)
    monkeypatch.setattr(universality, "COUNT_BLOCK_WORDS", 4)
    chunked = _count(hf)
    assert sum(chunks) == hf.members and len(chunks) > 1
    assert all(size << m <= max(4, 1 << m) for size in chunks)
    assert (chunked.t_min, chunked.t_max) == (whole.t_min, whole.t_max)
    assert chunked.plain.tolist() == whole.plain.tolist()
    assert chunked.dual.tolist() == whole.dual.tolist()


@pytest.mark.parametrize("kind, n, m", [("random_linear", 5, 2)])
def test_other_hash_kinds_measured_through_kernel_family(kind, n, m):
    hf = HashFamily(HashFamilySpec(kind, n, m))
    fam = CodeFamily.from_hash_family(hf)
    for convention in ("min_dim", "max_dim"):
        want = (epsilon_universal(fam, convention), epsilon_dual_universal(fam, convention))
        assert (epsilon_universal(hf, convention), epsilon_dual_universal(hf, convention)) == want
        assert epsilon_reports(hf, convention) == want
    assert code_bias(hf) == code_bias(fam)


@pytest.mark.parametrize("family", [
    HashFamily(HashFamilySpec("modified_toeplitz", 8, 3)),
], ids=["modified_toeplitz"])
def test_each_counter_counts_one_side_by_dimension(family):
    # the modified-Toeplitz counter counts the plain side under the one
    # member dimension n - m, and gives the dual side from it
    fam = CodeFamily.from_hash_family(family)
    counts = universality._modified_toeplitz_counts(family)
    assert (counts.n, counts.total_weight) == (fam.n, fam.total_weight)
    assert counts.t_min == counts.t_max == fam.t_min == fam.t_max == family.n - family.m
    assert counts.plain.dtype == counts.dual.dtype == np.int64
    assert counts.plain.tolist() == oracle_membership_counts(fam)
    assert counts.dual.tolist() == oracle_membership_counts(fam.dual())


def test_modified_toeplitz_rank_path_refuses_before_any_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("array built")

    monkeypatch.setattr(universality.np, "zeros", refuse)
    monkeypatch.setattr(universality, "toeplitz_rows", refuse)
    hf = HashFamily(HashFamilySpec("modified_toeplitz", universality.AMBIENT_CAP + 1, 8))
    for call in (epsilon_universal, epsilon_dual_universal, epsilon_reports, code_bias):
        with pytest.raises(EnumerationCapError, match="exceeds cap"):
            call(hf)


def test_modified_toeplitz_miscount_is_raised(monkeypatch):
    # no zero row combination for any u, where the empty one always is
    monkeypatch.setattr(universality, "span", lambda gens: np.ones(
        (*gens.shape[:-1], 1 << gens.shape[-1]), dtype=gens.dtype))
    with pytest.raises(ArithmeticError, match="do not sum to"):
        epsilon_universal(HashFamily(HashFamilySpec("modified_toeplitz", 6, 2)))


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


def test_pair_variants_with_weights_past_2_63_match_brute_oracle():
    # the pair variants subtract the inner family's counts from the outer
    # family's, each counted alone in object arrays of Python ints
    rng = random.Random(12)
    n = 6
    outers = [random_code(n, t, rng) for t in (2, 3, 4, 4, 6)]
    pairs = [(LinearCode.from_rows(n, outer.basis[:rng.randrange(outer.dim + 1)]), outer)
             for outer in outers]
    weights = [1 << 63, 3, 1 << 64, 1, 5]
    fam = CodePairFamily(pairs, weights)
    for i in (1, 0):
        counts = _count(CodeFamily([pair[i] for pair in fam.pairs], fam.weights))
        assert counts.plain.dtype == counts.dual.dtype == object
    for variant in ("pair", "pair_dual"):
        for convention in ("min_dim", "max_dim"):
            assert as_tuple(epsilon_pair(fam, variant, convention)) == brute_pair(
                pairs, weights, variant, convention)


def test_pair_duality_bounds_hold_on_random_nested_families():
    # Pr[x ∈ C_r^⊥] over the dual variant's x is at most the variant's bound
    # at the primal ε, on subcode families of a random C1 drawn with
    # subspaces_of and extended families drawn with random_extension
    rng = random.Random(1)
    drawn, equal = {"subcode": 0, "extended": 0}, 0
    for _ in range(300):
        n = rng.randint(3, 8)
        variant = rng.choice(("subcode", "extended"))
        if variant == "subcode":
            m = rng.randint(1, min(n, 6))  # at most [6, 3]_2 = 1395 subspaces
            c1, t = random_code(n, m, rng), rng.randint(1, m)
            subs = list(subspaces_of(c1, t))
            pairs = [(rng.choice(subs), c1) for _ in range(rng.randint(1, 6))]
        else:
            m = rng.randint(0, n - 1)
            c1, t = random_code(n, m, rng), rng.randint(m + 1, n)
            pairs = [(c1, random_extension(c1, t, rng)) for _ in range(rng.randint(1, 6))]
        fam = CodePairFamily(pairs, [rng.randint(1, 3) for _ in pairs])
        bound = duality_bound(epsilon_pair(fam, variant).epsilon, t, n, m, variant)
        prob = epsilon_pair(fam, variant + "_dual").max_prob
        assert prob <= bound, (variant, n, m, t, pairs)
        drawn[variant] += 1
        equal += prob == bound
    assert min(drawn.values()) > 100
    assert equal > 0  # the bound is met, not only respected


def test_pair_duality_bounds_are_the_plain_bound_at_reduced_arguments():
    # the closed forms each variant had before it called the plain formula
    def subcode(eps, t, m):
        return (1 - Fraction(eps, 1 << (m - t))) * Fraction(2, 1 << t) + eps - 1

    def extended(eps, t, n, m):
        return (1 - Fraction(eps, 1 << (n - t))) * Fraction(1 << (m + 1), 1 << t) + eps - 1

    for n in range(1, 8):
        for eps in (0, Fraction(1, 3), 1, Fraction(3, 2), 5):
            for m in range(n + 1):
                for t in range(1, m + 1):
                    got = duality_bound(eps, t, n, m, "subcode")
                    assert got == subcode(eps, t, m) == duality_bound(eps, t, m)
                for t in range(m + 1, n + 1):
                    got = duality_bound(eps, t, n, m, "extended")
                    assert got == extended(eps, t, n, m) == duality_bound(eps, t - m, n - m)


@pytest.mark.parametrize("t, n, m, variant, message", [
    (2, 4, 5, "subcode", "subcode variant needs 1 <= t <= m <= n"),  # m > n
    (0, 4, 3, "subcode", "subcode variant needs 1 <= t <= m <= n"),  # t = 0
    (3, 6, 3, "extended", "extended variant needs 0 <= m < t <= n"),  # t = m
], ids=["subcode_m_above_n", "subcode_t_zero", "extended_t_equal_m"])
def test_duality_bound_refuses_pair_arguments_outside_the_reduced_range(t, n, m, variant,
                                                                         message):
    # each was evaluated before; the plain formula refuses it at the
    # reduced arguments, and the variant refuses it before any arithmetic
    with pytest.raises(ValueError, match=message):
        duality_bound(1, t, n, m, variant)


def test_pair_variants_scan_no_word_in_python(monkeypatch):
    rng = random.Random(3)
    n, c1 = 10, random_code(10, 5, rng)
    subs = list(subspaces_of(c1, 2))
    families = {
        "subcode": CodePairFamily([(rng.choice(subs), c1) for _ in range(4)]),
        "extended": CodePairFamily([(c1, random_extension(c1, 7, rng)) for _ in range(4)]),
        "pair": CodePairFamily([(LinearCode.zero(n), random_code(n, 3, rng)) for _ in range(4)]),
    }
    variants = [(kind, kind + suffix) for kind in families for suffix in ("", "_dual")]
    expected = [epsilon_pair(families[kind], variant) for kind, variant in variants]

    def refuse(*args):
        raise AssertionError("membership tested word by word")

    monkeypatch.setattr(LinearCode, "contains", refuse)
    assert [epsilon_pair(families[kind], variant) for kind, variant in variants] == expected


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


@pytest.mark.parametrize("x", [0, 1 << 6, -1])
def test_tight_family_rejects_x_outside_the_n_bit_range(x):
    with pytest.raises(ValueError, match="nonzero n-bit"):
        tight_family(6, 3, 1, x)


def test_tight_family_rejects_t_equal_n_before_walking(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked before the range check")

    monkeypatch.setattr(universality, "_subspace_bases", no_walk)
    for n, t, eps in ((4, 4, 1), (4, 4, Fraction(3, 2)), (1, 1, 1), (4, 0, 1)):
        with pytest.raises(ValueError, match="need 1 <= t < n"):
            tight_family(n, t, eps, 1)


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


def fraction_permuted_epsilon(c1, c2=None):
    """The orbit parameter from the Fraction weight distributions, as
    permuted_epsilon (no c2) and permuted_pair_epsilon computed it from
    WeightDistribution: max over k >= 1 of 2^n / binom(n, k) times
    Pr_C1(k) - Pr_C2(k) |C2| / |C1|."""
    n, w1 = c1.n, c1.weight_distribution()
    if c2 is None:
        return max(Fraction(1 << n, comb(n, k)) * w1[k] for k in range(1, n + 1))
    w2, ratio = c2.weight_distribution(), Fraction(len(c2), len(c1))
    return max(Fraction(1 << n, comb(n, k)) * (w1[k] - w2[k] * ratio) for k in range(1, n + 1))


def test_permuted_epsilons_match_the_fraction_formula():
    """The integer weight counts give the Fraction formula's value, on
    random codes and nested pairs with n <= 10, C2 = C1 and C2 = {0}
    among them."""
    rng = random.Random(33)
    for _ in range(150):
        n = rng.randrange(1, 11)
        t2 = rng.randrange(0, n + 1)
        c2 = random_code(n, t2, rng)
        c1 = random_extension(c2, rng.randrange(t2, n + 1), rng)
        assert permuted_epsilon(c1) == fraction_permuted_epsilon(c1)
        for sub in (c2, c1, LinearCode.zero(n)):
            assert permuted_pair_epsilon(c1, sub) == fraction_permuted_epsilon(c1, sub)


def test_search_modes_and_budget_error():
    """The three former modes are three calls of one search: a plain code
    (no base), an outer code over a base, and a dual pair as the dual of
    the search over the dual base at dimension n - t."""
    c = search_permuted_code(10, 3, 200, seed=0)
    assert c.dim == 3 and permuted_epsilon(c) <= 11
    base = LinearCode.repetition(10)
    c1 = search_permuted_code(10, 3, 200, seed=0, base=base)
    assert c1.dim == 3 and c1.contains_code(base)
    assert permuted_pair_epsilon(c1, base) <= 11
    d1, d2 = dual(search_permuted_code(10, 7, 200, seed=0, base=base)), dual(base)
    assert d2.contains_code(d1) and d1.dim == 3
    assert permuted_pair_epsilon(dual(d1), dual(d2)) <= 11
    with pytest.raises(SearchBudgetError) as err:
        # seed 58 draws the repetition code first, whose orbit parameter is
        # 2^(n-1) > n+1, so a 1-trial budget must be exhausted
        search_permuted_code(6, 1, 1, seed=58)
    assert err.value.trials == 1
    assert err.value.best_epsilon > 7
    assert err.value.best == LinearCode.repetition(6)
    with pytest.raises(ValueError, match="base has length 8, not n=5"):
        # drew length-8 codes and scored them against n + 1 = 6
        search_permuted_code(5, 2, 10, seed=0, base=LinearCode.repetition(8))


def former_search(n, t, budget, seed, base, mode):
    """The search as its three modes ran it, one trial loop per mode, each
    trial scored by the Fraction formula; returns ("found", result) or
    ("budget", (best epsilon, best result, trials))."""
    rng = random.Random(seed)
    best_eps = best = None
    for _ in range(budget):
        if mode == "plain":
            c = random_code(n, t, rng)
            eps, result = fraction_permuted_epsilon(c), c
        elif mode == "extension":
            c1 = random_extension(base, t, rng)
            eps, result = fraction_permuted_epsilon(c1, base), (c1, base)
        else:  # dual_pair: base = C2 ⊇ C1, C1^⊥ drawn over C2^⊥
            d1 = random_extension(dual(base), n - t, rng)
            eps, result = fraction_permuted_epsilon(d1, dual(base)), (dual(d1), base)
        if eps <= n + 1:
            return "found", result
        if best_eps is None or eps < best_eps:
            best_eps, best = eps, result
    return "budget", (best_eps, best, budget)


def one_search(n, t, budget, seed, base, mode):
    """The same request through the one search, in the former mode's terms."""
    search_t, search_base = ((n - t, dual(base)) if mode == "dual_pair"
                             else (t, None if mode == "plain" else base))
    wrap = {"plain": lambda c: c, "extension": lambda c: (c, base),
            "dual_pair": lambda c: (dual(c), base)}[mode]
    try:
        return "found", wrap(search_permuted_code(n, search_t, budget, seed, base=search_base))
    except SearchBudgetError as err:
        return "budget", (err.best_epsilon, wrap(err.best), err.trials)


@pytest.mark.parametrize("mode", ["plain", "extension", "dual_pair"])
def test_one_search_matches_each_former_mode(mode):
    """On 1,000 seeds with n = 4..10 and budgets of 1 or 2 trials, the one loop
    returns what the former mode returned, and raises with the same best
    epsilon, best result and trial count; both outcomes occur."""
    rng = random.Random(43)
    outcomes = set()
    for seed in range(1000):
        n = rng.randrange(4, 11)
        # a search at dimension 1 fails often enough for both outcomes
        t = rng.choice([1, 1, rng.randrange(1, n)])
        if mode == "dual_pair":
            t = n - t
        if mode == "extension":
            base = random_code(n, rng.choice([0, rng.randrange(0, t + 1)]), rng)
        elif mode == "dual_pair":
            base = random_code(n, rng.randrange(t, n + 1), rng)
        else:
            base = None
        budget = rng.randrange(1, 3)
        got = one_search(n, t, budget, seed, base, mode)
        assert got == former_search(n, t, budget, seed, base, mode), (seed, n, t)
        outcomes.add(got[0])
    assert outcomes == {"found", "budget"}


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


def test_counterexample_family_requires_seed_when_large(monkeypatch):
    def no_walk(code, t):
        raise AssertionError("subspaces walked")

    # n = 11 is the first length past the cap; the seed is asked for first
    monkeypatch.setattr(universality, "_subspace_bases", no_walk)
    for n in (11, 12):
        with pytest.raises(ValueError, match="seed is required"):
            counterexample_family(n)
    fam = counterexample_family(12, seed=1)
    assert fam.members == 1 << 10


def test_counterexample_family_refuses_above_cap_before_sampling(monkeypatch):
    # n = 2000 sampled and eliminated 1024 kernels before the count refused it
    def refuse(*args, **kwargs):
        raise AssertionError("kernels sampled")

    monkeypatch.setattr(HashFamily, "sample_rows", refuse)
    monkeypatch.setattr(universality, "kernel", refuse)
    cap = universality.AMBIENT_CAP
    for n, seed in ((cap + 1, 1), (2000, 1), (2000, None)):
        with pytest.raises(EnumerationCapError, match=f"ambient length {n} exceeds cap {cap}"):
            counterexample_family(n, seed)


def gaussian_binomial(n, k):
    """Number of k-dim subspaces of F_2^n, by counting ordered bases."""
    num = den = 1
    for i in range(k):
        num *= (1 << n) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def family_map(fam):
    return dict(zip(fam.codes, fam.weights)), fam.members


def oracle_linear_kernels(n, m):
    """Kernels of every m x n matrix (row i in bits i*n..), merged; m > n allowed."""
    mask = (1 << n) - 1
    codes = [
        gf2.kernel(gf2.BinaryMatrix(tuple((r >> (i * n)) & mask for i in range(m)), n))
        for r in range(1 << (m * n))
    ]
    return family_map(CodeFamily(codes))


def oracle_tight(n, t, epsilon, x):
    """The A/B construction as a member list: A the t-dim subspaces of V_x,
    B one member per (t-1)-dim W in V_x and z outside V_x."""
    v_x = gf2.kernel(gf2.BinaryMatrix((x,), n))
    fam_a = list(subspaces_of(v_x, t))
    z0 = next(z for z in range(1, 1 << n) if (z & x).bit_count() & 1)
    fam_b = [
        LinearCode.from_rows(n, list(w.basis) + [u ^ z0])
        for w in subspaces_of(v_x, t - 1) for u in v_x.codewords()
    ]
    p = duality_bound(epsilon, t, n)
    a, b = p.numerator, p.denominator
    codes, weights = [], []
    if a > 0:
        codes += fam_a
        weights += [a * len(fam_b)] * len(fam_a)
    if b - a > 0:
        codes += fam_b
        weights += [(b - a) * len(fam_a)] * len(fam_b)
    return family_map(CodeFamily(codes, weights))


LINEAR_SHAPES = [(n, m) for n in range(1, 13) for m in range(1, n + 1) if m * n <= 12]


@pytest.mark.parametrize("n, m", LINEAR_SHAPES + [(5, 3), (4, 4)])
def test_random_linear_family_matches_merged_enumeration(n, m):
    assert family_map(hash_code_family("random_linear", n, m)) == oracle_linear_kernels(n, m)


@pytest.mark.parametrize("n", range(2, 9))
def test_counterexample_family_matches_padded_enumeration(n):
    kernels, members = oracle_linear_kernels(n - 1, 2)
    padded = {LinearCode(n, tuple(r << 1 for r in c.basis)): w for c, w in kernels.items()}
    assert family_map(counterexample_family(n)) == (padded, members)


@pytest.mark.parametrize("n, t, epsilon, x", [
    (5, 2, Fraction(5, 4), 3),
    (6, 3, Fraction(3, 2), 1),
    (6, 3, Fraction(3, 2), 63),
    (6, 1, Fraction(1), 5),
    (4, 2, Fraction(1), 15),
    (7, 3, Fraction(3, 2), 77),
    (6, 3, Fraction(24, 31), 9),   # mixture weight 0: only B
    (6, 3, Fraction(56, 31), 9),   # mixture weight 1: only A
    (5, 2, Fraction(8, 15), 7),    # mixture weight 0
])
def test_tight_family_matches_ab_construction(n, t, epsilon, x):
    assert family_map(tight_family(n, t, epsilon, x)) == oracle_tight(n, t, epsilon, x)


def test_subspaces_of_walks_each_subspace_once():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(1, 9)
        code = random_code(n, rng.randrange(0, n), rng)
        for t in range(code.dim + 1):
            subs = list(subspaces_of(code, t))
            assert len(subs) == len(set(subs)) == gaussian_binomial(code.dim, t)
            assert all(s.dim == t and code.contains_code(s) for s in subs)


@pytest.mark.parametrize("n, m", [(5, 4), (7, 3)])
def test_random_linear_admitted_by_distinct_members(n, m):
    fam = hash_code_family("random_linear", n, m)
    assert fam.members == 1 << (m * n) > FAMILY_MEMBER_CAP
    assert len(fam) == sum(gaussian_binomial(n, r) for r in range(m + 1))
    assert fam.total_weight == 1 << (m * n)


@pytest.mark.parametrize("n, m, distinct", [(10, 2, 175275), (8, 3, 108206)])
def test_random_linear_refused_before_walking(monkeypatch, n, m, distinct):
    def no_walk(code, t):
        raise AssertionError("subspaces walked")

    monkeypatch.setattr(universality, "_subspace_bases", no_walk)
    with pytest.raises(EnumerationCapError, match=f"{distinct} distinct members"):
        hash_code_family("random_linear", n, m)


def test_random_code_dimension():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(2, 12)
        t = rng.randrange(0, n + 1)
        assert random_code(n, t, rng).dim == t


# The bulk constructors build packed bases without a LinearCode per member.
# Each must give exactly the family that its member-by-member form gives:
# the LinearCodes of a pure-Python subspace walk, merged by CodeFamily.


def oracle_subspaces(code, t):
    """The member-by-member subspace walk: pivot rows of the canonical basis,
    each adding any set of the non-pivot rows after it."""
    basis = code.basis
    for pivots in combinations(range(len(basis)), t):
        free = [(k, basis[j]) for k, p in enumerate(pivots)
                for j in range(p + 1, len(basis)) if j not in pivots]
        for assignment in range(1 << len(free)):
            rows = [basis[p] for p in pivots]
            for idx, (k, v) in enumerate(free):
                if assignment >> idx & 1:
                    rows[k] ^= v
            yield LinearCode(code.n, tuple(rows))


def oracle_linear_family(n, m):
    codes, weights, weight = [], [], 1
    for r in range(min(m, n) + 1):
        kernels = list(oracle_subspaces(LinearCode.full(n), n - r))
        codes += kernels
        weights += [weight] * len(kernels)
        weight *= (1 << m) - (1 << r)
    fam = CodeFamily(codes, weights)
    fam.members = 1 << (m * n)
    return fam


def oracle_tight_family(n, t, epsilon, x):
    p = duality_bound(epsilon, t, n)
    a, b = p.numerator, p.denominator
    size_a = universality._gaussian_binomial(n - 1, t)
    size_b = universality._gaussian_binomial(n - 1, t - 1) << (n - 1)
    codes, weights = [], []
    for s in oracle_subspaces(LinearCode.full(n), t):
        outside = any((x & row).bit_count() & 1 for row in s.basis)
        w = ((b - a) * size_a) << (t - 1) if outside else a * size_b
        if w:
            codes.append(s)
            weights.append(w)
    fam = CodeFamily(codes, weights)
    fam.members = size_a * (a > 0) + size_b * (b > a)
    return fam


def oracle_padded_family(n, inner):
    fam = CodeFamily([LinearCode(n, tuple(r << 1 for r in c.basis)) for c in inner.codes],
                     inner.weights)
    fam.members = inner.members
    return fam


def oracle_codeword_blocks(family):
    """The member-by-member codeword blocks: members grouped by (dim,
    weight) in a dict, so groups come in order of first occurrence."""
    groups = {}
    for code, w in zip(family.codes, family.weights):
        groups.setdefault((code.dim, w), []).append(code)
    for (dim, w), codes in groups.items():
        per_block = max(1, universality.COUNT_BLOCK_WORDS >> dim)
        for start in range(0, len(codes), per_block):
            yield dim, w, [list(c.codewords()) for c in codes[start:start + per_block]]


def assert_same_blocks(fam, oracle):
    """The same blocks in the same order: every member with its weight, in
    groups of equal (dim, weight) taken in order of first occurrence.
    Codewords within a member may come in another order; the members of a
    block may not."""
    got = [(dim, w, [sorted(m) for m in words.tolist()])
           for dim, w, words in universality._codeword_blocks(fam)]
    want = [(dim, w, [sorted(m) for m in words])
            for dim, w, words in oracle_codeword_blocks(oracle)]
    assert got == want


def assert_same_family(fam, oracle):
    """Members in the same first-occurrence order, and the same weights,
    counts of members, dimensions, packed rows, codeword blocks and
    membership counts."""
    assert fam.codes == oracle.codes
    assert list(fam) == list(oracle.codes)
    assert fam.weights == oracle.weights
    assert all(type(w) is int for w in fam.weights)
    assert (fam.n, len(fam), fam.members, fam.total_weight, fam.t_min, fam.t_max) == (
        oracle.n, len(oracle), oracle.members, oracle.total_weight, oracle.t_min,
        oracle.t_max)
    assert fam.bases.dtype == oracle.bases.dtype
    assert fam.bases.tolist() == oracle.bases.tolist()
    assert_same_blocks(fam, oracle)
    got, want = _count(fam), _count(oracle)
    for side in ("plain", "dual"):
        assert getattr(got, side).dtype == getattr(want, side).dtype
        assert getattr(got, side).tolist() == getattr(want, side).tolist()


def tight_epsilons(n, t):
    """Mixture weight 0 (only B, when positive), 1, 3/2 and mixture weight
    1 (only A), each when it lies in the admitted range."""
    eps_max = Fraction(2 - Fraction(2, 1 << t), 1 - Fraction(2, 1 << n))
    eps_zero = (1 - Fraction(2, 1 << t)) / (1 - Fraction(2, 1 << n))
    return sorted({e for e in (eps_zero, Fraction(1), Fraction(3, 2), eps_max)
                   if 0 < e <= eps_max})


@pytest.mark.parametrize("n", range(2, 7))
def test_tight_family_equals_member_by_member_build(n):
    for t in range(1, n):
        for epsilon in tight_epsilons(n, t):
            for x in (1, 1 << (n - 1), (1 << n) - 1):
                fam = tight_family(n, t, epsilon, x)
                assert_same_family(fam, oracle_tight_family(n, t, epsilon, x))


def test_tight_family_with_weights_past_int64_equals_member_by_member_build():
    epsilon = 1 + Fraction(1, 3 ** 45)
    fam = tight_family(5, 2, epsilon, 6)
    assert max(fam.weights) >= 1 << 63
    assert_same_family(fam, oracle_tight_family(5, 2, epsilon, 6))


@pytest.mark.parametrize("n", range(2, 8))
def test_counterexample_family_equals_member_by_member_build(n):
    fam = counterexample_family(n)
    assert_same_family(fam, oracle_padded_family(n, oracle_linear_family(n - 1, 2)))


def test_sampled_counterexample_family_equals_member_by_member_build(sample_members):
    hf = HashFamily(HashFamilySpec("random_linear", 10, 2))
    inner = CodeFamily([gf2.kernel(h.matrix) for h in sample_members(hf, 1 << 10, 3)])
    assert_same_family(counterexample_family(11, seed=3), oracle_padded_family(11, inner))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 6) for m in range(1, min(n, 3) + 1)])
def test_random_linear_family_equals_member_by_member_build(n, m):
    assert_same_family(hash_code_family("random_linear", n, m), oracle_linear_family(n, m))


def test_subspaces_of_a_partial_code_equals_member_by_member_walk():
    rng = random.Random(19)
    for n, k in ((5, 3), (7, 4), (8, 5), (6, 0)):
        code = random_code(n, k, rng)
        for t in range(k + 1):
            subs = list(subspaces_of(code, t))
            assert subs == list(oracle_subspaces(code, t))
            assert_same_family(CodeFamily(subs), CodeFamily(list(oracle_subspaces(code, t))))
        assert list(subspaces_of(code, k + 1)) == []
