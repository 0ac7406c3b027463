"""Exact decoding simulation, family averages, distillation, wiretap."""

import json
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash.acceptance import criterion_5
from dualhash.bounds import BoundReport, binary_entropy
from dualhash.cqstate import CQState, d1_distance, holevo
from dualhash.gf2 import (
    BinaryMatrix,
    BitVector,
    EnumerationCapError,
    LinearCode,
    complement_basis,
    dual,
    kernel,
    rank,
    span,
    syndromes,
)
from dualhash.hashfam import HashFamily, HashFamilySpec
from dualhash.simulator import (
    CHUNK_PATTERN_CAP,
    ERROR_ENUM_CAP,
    MC_TRIALS,
    SAMPLE_PATTERN_CAP,
    _correct_weights,
    _coset_key_leakages,
    _coset_reps,
    _leading_eigenvalues,
    _family_average_errors,
    _mc_error_prob,
    _mc_errors,
    _random_below,
    _syndrome_tables,
    _wiretap_evals,
    counterexample_leakage,
    decode,
    distill_keys,
    exact_error_prob,
    family_average_error,
    parse_channel,
    wiretap_eval,
)
from dualhash.universality import (
    CodeFamily,
    counterexample_family,
    epsilon_universal,
    random_code,
)


def oracle_decode(c, y):
    """Reference decoder: scan every codeword for the minimum-(weight, value)
    error y ^ cw, and return the codeword it leaves."""
    _, err = min(((y ^ cw).bit_count(), y ^ cw) for cw in c.codewords())
    return y ^ err


def oracle_leaders(rows, n):
    """Reference coset-leader table for the parity rows `rows`: walk
    patterns by weight, each weight in increasing order (Gosper's hack); the
    first to reach a syndrome keeps it.  Dependent rows reach 2^rank of the
    2^len(rows) syndromes; the others get -1."""
    h = BinaryMatrix(tuple(rows), n)
    reached, leaders = 1 << rank(rows), {0: 0}
    for weight in range(1, n + 1):
        e = (1 << weight) - 1
        while len(leaders) < reached and e < 1 << n:
            leaders.setdefault(h.mul_vector(e), e)
            low = e & -e
            nxt = e + low
            e = ((nxt ^ e) >> 2) // low | nxt
    return [leaders.get(s, -1) for s in range(1 << h.nrows)]


def oracle_mc_error_prob(rows, n, p, trials, rng, c2):
    """Reference Monte Carlo estimate for the code whose parity rows are
    `rows`: one rng.random() per bit, bit i of the error word set by the
    i-th draw of its trial, each trial decoded by the coset-leader table at
    the syndrome Hx and tested for membership of C2."""
    h = BinaryMatrix(tuple(rows), n)
    leaders = oracle_leaders(rows, n)
    wrong = 0
    for _ in range(trials):
        e = 0
        for i in range(n):
            if rng.random() < p:
                e |= 1 << i
        decoded = e ^ leaders[h.mul_vector(e)]
        if not c2.contains(decoded):
            wrong += 1
    return wrong / trials


def mc_errors(seed, n, trials, p):
    """The error words of one seed's Monte Carlo trials."""
    return next(_mc_errors([seed], n, trials, p))


def span(basis):
    """Every word of span(basis), zero first."""
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return words


def membership(c2):
    """C2's membership table over all 2^n words, as _mc_error_prob takes it."""
    inside = np.zeros(1 << c2.n, dtype=bool)
    inside[span(c2.basis)] = True
    return inside


def oracle_distill_keys(k_a, k_b, c1, c2, seed):
    """Reference distillation: the same masking draws, the codeword-scan
    decoder, and keys looked up among span(complement_basis(c1, c2))."""
    rng = random.Random(seed)
    r_a = 0
    for b in c1.basis:
        if rng.random() < 0.5:
            r_a ^= b
    r_b = oracle_decode(c1, k_a.value ^ r_a ^ k_b.value)
    h2 = BinaryMatrix(dual(c2).basis, c1.n)
    rep_of = {h2.mul_vector(r): r for r in span(complement_basis(c1, c2))}
    return rep_of[h2.mul_vector(r_a)], rep_of[h2.mul_vector(r_b)]


def oracle_error_prob(c1, c2, p):
    """Coset-message error probability from the reference decoder: the zero
    word is sent, and decoding fails iff the decoded word leaves C2."""
    n = c1.n
    return sum(
        p**e.bit_count() * (1 - p) ** (n - e.bit_count())
        for e in range(1 << n)
        if not c2.contains(oracle_decode(c1, e))
    )


def test_decode_tie_break_example():
    # both codewords are at distance 1 from 10; the error pattern 01 is
    # lexicographically smaller than 10, so 11 wins
    c = LinearCode.from_strings(["11"])
    assert str(decode(c, BitVector.from_string("10"))) == "11"


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_decode_matches_codeword_scan(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 11)
    c = random_code(n, rng.randrange(0, n + 1), rng)
    for y in range(1 << n):
        assert decode(c, BitVector(n, y)).value == oracle_decode(c, y)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_syndrome_table_matches_weight_ordered_walk(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 13)
    c = random_code(n, rng.randrange(0, n + 1), rng)
    rows = dual(c).basis
    assert _syndrome_tables([rows], n)[1][0].tolist() == oracle_leaders(rows, n)


def test_syndrome_table_edge_codes():
    # C = {0}: every word is its own coset, and H is the identity
    (labels,), (leaders,) = _syndrome_tables([dual(LinearCode.zero(7)).basis], 7)
    assert leaders.tolist() == labels.tolist() == list(range(1 << 7))
    # C = F_2^n: one coset, led by 0
    _, (leaders,) = _syndrome_tables([dual(LinearCode.full(7)).basis], 7)
    assert leaders.tolist() == [0]
    # n = 16, the cap: 2^(n-k) leaders, each in the coset its syndrome names
    c = random_code(16, 9, random.Random(4))
    h = BinaryMatrix(dual(c).basis, 16)
    (labels,), (leaders,) = _syndrome_tables([h.rows], 16)
    assert leaders.tolist() == oracle_leaders(h.rows, 16)
    assert len(leaders) == 1 << (16 - 9)
    assert all(h.mul_vector(x) == s for s, x in enumerate(leaders.tolist()))
    assert all(h.mul_vector(x) == labels[x] for x in range(0, 1 << 16, 97))
    # dependent rows reach only the labels of their span: rows (r, r) reach
    # 00 and 11, and r = 0 reaches one label
    r = 0b0110
    for rows, want in (((r, r), [0, -1, -1, 0b0010]), ((0, 0), [0, -1, -1, -1])):
        assert _syndrome_tables([rows], 4)[1][0].tolist() == want
        assert oracle_leaders(rows, 4) == want


def test_exact_error_prob_nested_pairs_match_oracle():
    # C1 = <101110, 011000>, C2 = <101110>: breaking weight ties toward the
    # largest error pattern would give 27/250 instead of 1/10
    c1 = LinearCode.from_strings(["101110", "011000"])
    c2 = LinearCode.from_strings(["101110"])
    p = Fraction(1, 10)
    assert exact_error_prob((c1, c2), p) == oracle_error_prob(c1, c2, p) == p
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 8)
        c1 = random_code(n, rng.randrange(1, n + 1), rng)
        c2 = LinearCode.from_rows(n, c1.basis[: rng.randrange(1, c1.dim + 1)])
        # p = 0 exercises the 0**0 term; p = 1/2 makes a = b - a
        for p in (Fraction(rng.randrange(1, 50), 100), Fraction(0), Fraction(1, 2)):
            assert exact_error_prob((c1, c2), p) == oracle_error_prob(c1, c2, p)


def test_decoding_refused_beyond_cap_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(LinearCode, "codewords", no_enumeration)
    monkeypatch.setattr("dualhash.simulator._pattern_weights", no_enumeration)
    c1, c2 = LinearCode.full(17), LinearCode.repetition(17)
    y = BitVector(17, 5)
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        decode(LinearCode.repetition(17), y)
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        distill_keys(y, y, c1, c2, seed=0)


def test_repetition_code_exact_error():
    # 3-repetition under min distance: wrong iff 2 or 3 flips
    p = Fraction(1, 10)
    expected = 3 * p**2 * (1 - p) + p**3
    assert exact_error_prob(LinearCode.repetition(3), p) == expected


def test_zero_noise_never_errs():
    rng = random.Random(3)
    c = random_code(6, 3, rng)
    assert exact_error_prob(c, Fraction(0)) == 0


def test_full_code_never_corrects():
    # the full code decodes y to itself, so any nonzero error goes unfixed
    p = Fraction(1, 4)
    assert exact_error_prob(LinearCode.full(4), p) == 1 - (1 - p) ** 4


def test_coset_decoding_reduces_error():
    # messages are cosets mod C2: errors landing inside C2 are harmless
    c1 = LinearCode.full(3)
    c2 = LinearCode.repetition(3)
    p = Fraction(1, 10)
    block = exact_error_prob(c1, p)
    coset = exact_error_prob((c1, c2), p)
    assert coset <= block
    # here wrong iff the error is outside C2 = {000, 111}
    assert coset == 1 - ((1 - p) ** 3 + p**3)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_permutation_invariance(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    c = random_code(n, rng.randrange(1, n), rng)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for b in c.basis:
        v = 0
        for i in range(n):
            if (b >> (n - 1 - i)) & 1:
                v |= 1 << (n - 1 - perm[i])
        rows.append(v)
    pc = LinearCode.from_rows(n, rows)
    p = Fraction(rng.randrange(0, 50), 100)
    assert exact_error_prob(c, p) == exact_error_prob(pc, p)


def test_family_average_code_family_exact():
    codes = [LinearCode.repetition(3), LinearCode.full(3)]
    fam = CodeFamily(codes, [1, 3])
    p = Fraction(1, 10)
    res = family_average_error(fam, p, R=1.0)
    expected = (exact_error_prob(codes[0], p) + 3 * exact_error_prob(codes[1], p)) / 4
    assert res.exact_value == expected


def test_family_average_hash_family_with_ci():
    hf = HashFamily(HashFamilySpec("random_linear", 8, 4))
    res = family_average_error(hf, Fraction(1, 20), R=0.5, sample_count=50, seed=3)
    assert res.ci_upper is not None
    assert float(res.exact_value) <= res.ci_upper
    assert [b.formula_id for b in res.bounds] == ["family_average", "weighted_sum"]


def test_every_countable_hash_kind_has_epsilon_one():
    """family_average_error attaches its bounds to a HashFamily at ε = 1
    without counting it; every hash kind that can be counted at n <= 10
    measures exactly that."""
    counted = 0
    for kind in ("toeplitz", "modified_toeplitz", "random_linear"):
        for n in range(1, 11):
            for m in range(1, n + 1 - (kind == "modified_toeplitz")):
                try:
                    eps = epsilon_universal(HashFamily(HashFamilySpec(kind, n, m))).epsilon
                except EnumerationCapError:
                    continue
                assert eps == 1, (kind, n, m)
                counted += 1
    assert counted == 129


def test_code_family_average_bounds_take_its_counted_epsilon():
    fam = counterexample_family(6)
    assert epsilon_universal(fam).epsilon == 2
    res = family_average_error(fam, Fraction(1, 10), R=0.5)
    assert res.params["epsilon"] == 2.0
    assert [b.inputs["epsilon"] for b in res.bounds] == [2.0, 2.0]


def test_zero_code_family_average_bounds_take_epsilon_one():
    """A family of {0} alone has ε = 0 and never errs; any positive ε
    bounds it, and the bounds need one."""
    res = family_average_error(CodeFamily([LinearCode.zero(5)]), Fraction(1, 10), R=0.0)
    assert res.exact_value == 0
    assert res.params["epsilon"] == 1.0
    assert [b.inputs["epsilon"] for b in res.bounds] == [1.0, 1.0]


@pytest.mark.parametrize("kind, n, m", [("random_linear", 8, 2), ("toeplitz", 8, 3)])
def test_sampled_upper_limit_covers_the_exact_mean(kind, n, m):
    """Over seeded samples of k members, the 99% upper limit falls below
    the family's exact mean, counted over all its kernels, in at most 1% of
    draws plus three binomial standard deviations.  A normal-approximation
    limit missed it in about half the draws at k = 2."""
    hf, p, draws = HashFamily(HashFamilySpec(kind, n, m)), Fraction(1, 100), 150
    exact = family_average_error(CodeFamily.from_hash_family(hf), p, R=0.5).exact_value
    allowed = draws * 0.01 + 3 * math.sqrt(draws * 0.01 * 0.99)
    for k in (2, 5, 10):
        misses = sum(family_average_error(hf, p, R=0.5, sample_count=k, seed=s).ci_upper < exact
                     for s in range(draws))
        assert misses <= allowed, (k, misses)


def test_one_member_sample_has_a_positive_width_limit():
    hf = HashFamily(HashFamilySpec("random_linear", 8, 6))
    res = family_average_error(hf, Fraction(1, 50), R=0.25, sample_count=1, seed=6)
    assert res.exact_value == Fraction(7351, 125000)
    assert res.ci_upper == 1.0


def test_family_average_bound_check_uses_the_report(monkeypatch):
    """A result whose value exceeds an attached bound is returned as it is;
    criterion 5 compares its upper limit with that bound and names the
    first configuration."""
    tiny = BoundReport("family_average", 1e-6, {})
    monkeypatch.setattr("dualhash.simulator.gallager_family_bound", lambda *a: tiny)
    fam = CodeFamily([LinearCode.repetition(5)])
    res = family_average_error(fam, Fraction(1, 10), R=0.2)
    assert res.bounds[0] is tiny and res.exact_value > tiny.value
    passed, detail = criterion_5(7)
    assert not passed
    assert detail.startswith("(R=0.3333333333333333, p=1/20): upper CI ")
    assert detail.endswith(" exceeds bound 1e-06")


def test_monte_carlo_error_prob_matches_exact(sample_members):
    # the transmitted word is 0, so decoding fails iff the decoded word
    # leaves C2 (here the zero code)
    h = sample_members(HashFamily(HashFamilySpec("random_linear", 12, 8)), 1, 0)[0]
    trials = 2000
    exact = float(exact_error_prob(kernel(h.matrix), Fraction(1, 20)))
    (labels,), (leaders,) = _syndrome_tables([h.matrix.rows], 12)
    est = _mc_error_prob(labels, leaders, membership(LinearCode.zero(12)),
                         mc_errors(0, 12, trials, 0.05))
    z_99 = 2.5758293035489004  # two-sided 99% normal quantile
    half_width = z_99 * math.sqrt(est * (1 - est) / trials)
    assert abs(est - exact) <= half_width


@pytest.mark.parametrize("n, m", [(6, 3), (10, 4), (12, 8), (16, 9), (1, 1)])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1 / 7, 0.5])
@pytest.mark.parametrize("with_base", [False, True])
def test_monte_carlo_equals_per_trial_loop(sample_members, n, m, p, with_base):
    h = sample_members(HashFamily(HashFamilySpec("random_linear", n, m)), 1, n)[0]
    base = LinearCode(n, kernel(h.matrix).basis[:1]) if with_base else LinearCode.zero(n)
    (labels,), (leaders,) = _syndrome_tables([h.matrix.rows], n)
    inside = membership(base)
    for seed in (n * m, 0, -3, 2**32 + 1):
        got = _mc_error_prob(labels, leaders, inside, mc_errors(seed, n, 300, p))
        assert got == oracle_mc_error_prob(h.matrix.rows, n, p, 300, random.Random(seed), base)


def test_random_below_is_randoms_stream():
    # every column is its seed's own random() < p, across twists (312 draws
    # each), for p whose threshold ties a draw's first word: a draw's own
    # value (not below) and the next double up (below)
    seeds = [0, 1, 5, -7, 12345, 2**31 - 1, 2**32 + 3, 2**40 + 7]
    draws = {}
    for s in seeds:
        rng = random.Random(s)
        draws[s] = [rng.random() for _ in range(1000)]
    tie = draws[5][400]
    for p in (0.0, 1 / 7, 0.5, 0.05, tie, math.nextafter(tie, 1)):
        for count in (1, 312, 313, 1000):
            got = _random_below(seeds, count, p)
            assert got.shape == (count, len(seeds))
            for k, s in enumerate(seeds):
                assert got[:, k].tolist() == [d < p for d in draws[s][:count]]


def test_mc_errors_pack_the_draws_in_any_batch(monkeypatch):
    # trial t, bit i is draw t n + i; batches of 1, 2 and all seeds agree
    seeds, n, trials, p = range(-2, 5), 6, 40, 1 / 7
    expected = []
    for s in seeds:
        rng = random.Random(s)
        expected.append([sum((rng.random() < p) << i for i in range(n)) for _ in range(trials)])
    for cap in (1, 2 * n * trials, 1 << 20):
        monkeypatch.setattr("dualhash.simulator.MC_DRAW_CAP", cap)
        assert [e.tolist() for e in _mc_errors(seeds, n, trials, p)] == expected


def test_family_average_requires_seed():
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))
    with pytest.raises(ValueError):
        family_average_error(hf, Fraction(1, 10), R=0.5)


def test_distill_round_trip_noiseless():
    c1 = LinearCode.full(4)
    c2 = LinearCode.repetition(4)
    rng = random.Random(0)
    for seed in range(20):
        k = BitVector(4, rng.randrange(16))
        s_a, s_b, agree = distill_keys(k, k, c1, c2, seed)
        assert agree and s_a == s_b


def test_distill_keys_match_coset_enumeration():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randrange(1, 11)
        c1 = random_code(n, rng.randrange(0, n + 1), rng)
        c2 = LinearCode.from_rows(n, c1.basis[: rng.randrange(0, c1.dim + 1)])
        k_a, k_b = BitVector(n, rng.randrange(1 << n)), BitVector(n, rng.randrange(1 << n))
        seed = rng.randrange(1000)
        s_a, s_b, agree = distill_keys(k_a, k_b, c1, c2, seed)
        assert (s_a.value, s_b.value) == oracle_distill_keys(k_a, k_b, c1, c2, seed)
        assert agree == (s_a == s_b)


def test_distill_agreement_rate_matches_exact_error():
    c1 = dual(LinearCode.repetition(5))  # even-weight code, distance 2
    c2 = LinearCode.zero(5)
    p = 0.1
    rng = random.Random(17)
    trials, agreements = 400, 0
    for seed in range(trials):
        k_a = BitVector(5, rng.randrange(32))
        e = 0
        for i in range(5):
            if rng.random() < p:
                e |= 1 << i
        k_b = BitVector(5, k_a.value ^ e)
        _, _, agree = distill_keys(k_a, k_b, c1, c2, seed)
        agreements += agree
    # distillation fails exactly when decoding the error pattern fails;
    # compare against the exact rate with a generous binomial margin
    expect = 1 - float(exact_error_prob(c1, Fraction(1, 10)))
    margin = 4 * (expect * (1 - expect) / trials) ** 0.5
    assert abs(agreements / trials - expect) < margin + 1e-9


def test_parse_channel():
    rows = parse_channel("0.9 0.05 0.03 0.02\n\n1 0 0 0\n")
    assert rows == [(0.9, 0.05, 0.03, 0.02), (1.0, 0.0, 0.0, 0.0)]
    with pytest.raises(ValueError):
        parse_channel("0.5 0.5")


def test_wiretap_phase_only_mode():
    pxz = [(0.9, 0.0, 0.1, 0.0)] * 6
    c1 = LinearCode.full(6)
    c2 = LinearCode.repetition(6)
    res = wiretap_eval(pxz, c1, c2, mode="phase_only")
    # the reported value is the phase error probability of the dual pair
    assert res.exact_value == float(
        exact_error_prob((dual(c2), dual(c1)), Fraction(1, 10))
    )


def test_wiretap_exact_within_bounds():
    pxz = [(0.9, 0.0, 0.1, 0.0)] * 3
    res = wiretap_eval(pxz, LinearCode.full(3), LinearCode.repetition(3))
    d1_bound = next(b for b in res.bounds if b.formula_id == "trace_distance")
    chi_bound = next(b for b in res.bounds if b.formula_id == "holevo")
    assert res.exact_value <= d1_bound.value + 1e-9
    assert res.params["holevo"] <= chi_bound.value + 1e-9


def oracle_joint_error_distribution(pxz):
    """P(x, z) over phase-error word x and bit-error word z, qubit 0 the
    leftmost bit, by a loop over all 4^n pairs."""
    n = len(pxz)
    joint = np.zeros((1 << n, 1 << n))
    for x in range(1 << n):
        for z in range(1 << n):
            prob = 1.0
            for i in range(n):
                xi = (x >> (n - 1 - i)) & 1
                zi = (z >> (n - 1 - i)) & 1
                prob *= pxz[i][2 * xi + zi]
            joint[x, z] = prob
    return joint


def oracle_eve_block(n, joint, a):
    """Eve's dense state when the Z-basis key value is a: basis index
    x * 2^n + z over Pauli error pairs, one rank-one term per bit-error
    word z."""
    size = 1 << n
    rho = np.zeros((size * size, size * size))
    for z in range(size):
        phase = np.array([(-1) ** ((x & (a ^ z)).bit_count() & 1) for x in range(size)])
        vec = np.zeros(size * size)
        vec[z::size] = np.sqrt(joint[:, z]) * phase
        rho += np.outer(vec, vec)
    return rho


def oracle_wiretap_state(pxz, c1, c2):
    """The dense 4^n x 4^n c-q state of the coset key of C1/C2 against the
    environment, the sent word uniform on the key's coset; n <= 4.  With
    (C1, C2) = (F_2^n, {0}) the key is the whole sifted string."""
    n = len(pxz)
    assert n <= 4
    joint = oracle_joint_error_distribution(pxz)
    reps = span(complement_basis(c1, c2))
    blocks = [
        sum(oracle_eve_block(n, joint, r ^ w) for w in c2.codewords())
        / (len(c2) * len(reps))
        for r in reps
    ]
    return CQState(c1.dim - c2.dim, np.array(blocks))


def random_channel(n, rng):
    """Per-qubit correlated (phase, bit) tables sharing one phase marginal."""
    p_ph = rng.uniform(0, 0.5)
    tables = []
    for _ in range(n):
        a, c = rng.dirichlet([1, 1]), rng.dirichlet([1, 1])
        tables.append(((1 - p_ph) * a[0], (1 - p_ph) * a[1], p_ph * c[0], p_ph * c[1]))
    return tables


def random_nested_pair(n, rng):
    """A random code C1 and a random subcode C2 (any dimension, C2 = {0}
    and C2 = C1 included)."""
    c1 = random_code(n, rng.randrange(0, n + 1), rng)
    words = span(c1.basis)
    rows = [rng.choice(words) for _ in range(rng.randrange(0, c1.dim + 1))]
    return c1, LinearCode.from_rows(n, rows)


def oracle_rank(rows):
    """Reference rank: reduce each row by the kept rows, largest first."""
    reduced = []
    for row in rows:
        for r in reduced:
            row = min(row, row ^ r)
        if row:
            reduced.append(row)
            reduced.sort(reverse=True)
    return len(reduced)


def oracle_complement_basis(c1, c2):
    """Reference complement: keep each row of C1's basis that raises the
    rank of C2's basis plus the rows kept so far."""
    rows, comp = list(c2.basis), []
    for b in c1.basis:
        if oracle_rank(rows + [b]) > len(rows):
            rows.append(b)
            comp.append(b)
    return comp


def oracle_coset_reps(c1, c2, *words):
    """Reference split of each word r of C1 as s + t, s in the span of the
    complement and t in C2: an echelon keyed by leading bit whose rows
    carry their component in that span."""
    rows = {}
    for v, part in [(b, b) for b in oracle_complement_basis(c1, c2)] + [
            (b, 0) for b in c2.basis]:
        while v.bit_length() in rows:
            row, row_part = rows[v.bit_length()]
            v, part = v ^ row, part ^ row_part
        rows[v.bit_length()] = (v, part)
    reps = []
    for r in words:
        s = 0
        while r:
            row, row_part = rows[r.bit_length()]
            r, s = r ^ row, s ^ row_part
        reps.append(s)
    return reps


def test_complement_and_coset_reps_match_oracles():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randrange(1, 10)
        c1, c2 = random_nested_pair(n, rng)
        for c2 in (c2, LinearCode.zero(n), c1):
            comp = complement_basis(c1, c2)
            assert comp == oracle_complement_basis(c1, c2)
            assert len(comp) == c1.dim - c2.dim
            words = [0] + rng.sample(span(c1.basis), min(len(c1), 8))
            assert _coset_reps(c1, c2, *words) == oracle_coset_reps(c1, c2, *words)


def test_wiretap_exact_matches_dense_oracle():
    rng, np_rng = random.Random(8), np.random.default_rng(8)
    cases = [(n, *random_nested_pair(n, rng)) for n in (1, 2, 3, 4) for _ in range(8)]
    cases += [(3, LinearCode.full(3), LinearCode.full(3)),  # l = 0
              (4, LinearCode.full(4), LinearCode.zero(4)),  # sifted key
              (4, dual(LinearCode.repetition(4)), LinearCode.zero(4))]
    for n, c1, c2 in cases:
        pxz = random_channel(n, np_rng)
        res = wiretap_eval(pxz, c1, c2)
        rho = oracle_wiretap_state(pxz, c1, c2)
        assert res.params["l"] == rho.key_length
        assert abs(res.exact_value - d1_distance(rho)) < 1e-12
        assert abs(res.params["holevo"] - holevo(rho)) < 1e-12


def oracle_coset_key_leakage(tables, c1, c2):
    """One case's (d1, chi) by the per-case formula: the joint law through
    np.kron and its own 64-step bisection over the [K, J, z] array."""
    n = c1.n
    joint = reduce(np.kron, [np.asarray(t, dtype=float).reshape(2, 2) for t in tables])
    labels = syndromes(c2.basis + tuple(complement_basis(c1, c2)), n)
    q = np.zeros((1 << c1.dim, 1 << n))
    np.add.at(q, labels, joint)
    q = q.reshape(1 << c2.dim, 1 << (c1.dim - c2.dim), 1 << n)
    big_q = q.sum(axis=1, keepdims=True)
    support = q > 0
    ratio = np.divide(big_q, q, out=np.ones_like(q), where=support)
    chi = float((q * np.log2(ratio)).sum())
    lo, hi = np.zeros_like(big_q), big_q
    terms = np.zeros_like(q)
    for _ in range(64):
        mid = (lo + hi) / 2
        np.divide(q, mid + q, out=terms, where=support)
        above = terms.sum(axis=1, keepdims=True) > 1
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 2 * float(lo.sum()), chi


def random_wiretap_case(n, rng, np_rng):
    """A random nested pair of length n with a general, a dephasing or a
    bit-flip-only channel."""
    p = np_rng.uniform(0, 0.5)
    pxz = [random_channel(n, np_rng), [(1 - p, 0.0, p, 0.0)] * n,
           [(1 - p, p, 0.0, 0.0)] * n][rng.randrange(3)]
    return ([np.asarray(t, dtype=float) for t in pxz], *random_nested_pair(n, rng))


def test_stacked_leakages_equal_per_case_formula():
    rng, np_rng = random.Random(41), np.random.default_rng(41)
    for size in (1, 2, 5, 12, 30):
        for _ in range(4):
            cases = [random_wiretap_case(rng.randrange(1, 7), rng, np_rng)
                     for _ in range(size)]
            assert _coset_key_leakages(cases) == [oracle_coset_key_leakage(*c) for c in cases]


def test_stacked_leakages_equal_per_case_formula_at_the_cap(monkeypatch):
    rng, np_rng = random.Random(10), np.random.default_rng(10)
    cases = [([np.asarray(t) for t in random_channel(10, np_rng)], LinearCode.full(10),
              LinearCode.zero(10)),  # J = 2^10, one coset K
             random_wiretap_case(3, rng, np_rng), random_wiretap_case(8, rng, np_rng)]
    stacks = []

    def spy(stack):
        stacks.append(stack.shape)
        return _leading_eigenvalues(stack)

    monkeypatch.setattr("dualhash.simulator._leading_eigenvalues", spy)
    assert _coset_key_leakages(cases) == [oracle_coset_key_leakage(*c) for c in cases]
    # one stack per coset count J, none padded to the 2^10 cosets of the first case
    widths: dict[int, int] = {}
    for _, c1, c2 in cases:
        cosets = 1 << (c1.dim - c2.dim)
        widths[cosets] = widths.get(cosets, 0) + (1 << c2.dim) * (1 << c1.n)
    assert sorted(stacks) == sorted(widths.items())


@pytest.mark.parametrize("mode", ["exact", "phase_only"])
def test_wiretap_evals_equal_single_calls(mode):
    rng, np_rng = random.Random(5), np.random.default_rng(5)
    cases = [random_wiretap_case(n, rng, np_rng) for n in (4, 1, 6, 3, 6, 2)]
    stacked = _wiretap_evals(cases, mode)
    assert [r.to_record() for r in stacked] == [
        wiretap_eval(*c, mode=mode).to_record() for c in cases]


def test_wiretap_oracle_sifted_state_normalizes():
    pxz = [(0.85, 0.05, 0.07, 0.03)] * 2
    rho = oracle_wiretap_state(pxz, LinearCode.full(2), LinearCode.zero(2))
    assert rho.key_length == 2 and rho.eve_dim == 16
    assert np.allclose(rho.probabilities(), 0.25)


@pytest.mark.parametrize("channel", [(1.0, 0.0, 0.0, 0.0), (0.8, 0.2, 0.0, 0.0)],
                         ids=["noiseless", "bit_flips_only"])
@pytest.mark.parametrize("n", [3, 6, 10])
def test_wiretap_exact_phase_noiseless_channel_leaks_nothing(n, channel):
    rng = random.Random(n)
    pairs = [(LinearCode.full(n), LinearCode.repetition(n)),
             (LinearCode.full(n), LinearCode.zero(n)),
             random_nested_pair(n, rng)]
    for c1, c2 in pairs:
        res = wiretap_eval([channel] * n, c1, c2)
        assert res.exact_value == 0.0
        assert res.params["holevo"] == 0.0


@pytest.mark.parametrize("n", [6, 8])
def test_wiretap_exact_bounds_hold_beyond_dense_size(n):
    rng, np_rng = random.Random(n), np.random.default_rng(n)
    for p in (0.05, 0.1, 0.25):
        pairs = [(LinearCode.full(n), LinearCode.repetition(n))]
        pairs += [random_nested_pair(n, rng) for _ in range(3)]
        for pxz in ([(1 - p, 0.0, p, 0.0)] * n, random_channel(n, np_rng)):
            for c1, c2 in pairs:
                res = wiretap_eval(pxz, c1, c2)
                bound = {b.formula_id: b.value for b in res.bounds}
                assert res.exact_value <= bound["trace_distance"] + 1e-9
                assert res.params["holevo"] <= bound["holevo"] + 1e-9


def test_wiretap_exact_refuses_n_above_cap_before_building(monkeypatch):
    def no_leakage(*args, **kwargs):
        raise AssertionError("joint distribution built")

    monkeypatch.setattr("dualhash.simulator._coset_key_leakages", no_leakage)
    pxz = [(0.9, 0.0, 0.1, 0.0)] * 11
    with pytest.raises(ValueError, match="exceeds exact wiretap cap"):
        wiretap_eval(pxz, LinearCode.full(11), LinearCode.repetition(11))
    wiretap_eval(pxz, LinearCode.full(11), LinearCode.repetition(11),
                 mode="phase_only")


@pytest.mark.parametrize("mode", ["exact", "phase_only"])
def test_wiretap_rejects_codes_of_other_length(mode):
    pxz = [(0.9, 0.0, 0.1, 0.0)] * 3
    full3, rep3 = LinearCode.full(3), LinearCode.repetition(3)
    full4, rep4 = LinearCode.full(4), LinearCode.repetition(4)
    for c1, c2 in ((full4, rep4), (full3, rep4), (full4, rep3)):
        with pytest.raises(ValueError, match="qubits"):
            wiretap_eval(pxz, c1, c2, mode=mode)


@pytest.mark.parametrize("mode", ["exact", "phase_only"])
def test_wiretap_rejects_malformed_channel_tables(mode):
    full, rep = LinearCode.full(2), LinearCode.repetition(2)
    for bad in ((0.5, 0.5, 0.5, 0.5), (1.2, -0.2, 0.0, 0.0), (0.9, 0.1, 0.0),
                (float("nan"), 0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="table"):
            wiretap_eval([bad] * 2, full, rep, mode=mode)


def test_wiretap_rejects_mixed_phase_marginals():
    pxz = [(0.9, 0.0, 0.1, 0.0), (0.8, 0.0, 0.2, 0.0)]
    with pytest.raises(ValueError):
        wiretap_eval(pxz, LinearCode.full(2), LinearCode.repetition(2))


def test_counterexample_leakage_floor():
    res = counterexample_leakage(5, 0.1)
    assert res.exact_value >= res.params["floor"] - 1e-9
    assert res.params["floor"] == 1 - binary_entropy(0.1)
    assert counterexample_leakage(5, Fraction(1, 10)).exact_value == res.exact_value


def test_counterexample_leakage_edge_channels():
    # useless Eve channel: floor vanishes
    res = counterexample_leakage(4, 0.5)
    assert res.params["floor"] == 0.0
    # noiseless Eve channel: the preserved last bit is read exactly
    res = counterexample_leakage(4, 0.0)
    assert res.exact_value >= 1.0 - 1e-9


def test_counterexample_custom_family():
    fam = counterexample_family(5)
    res = counterexample_leakage(5, 0.2, family=fam)
    assert res.exact_value >= 1 - binary_entropy(0.2) - 1e-9


def test_leaky_family_paths_build_no_member_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dual code built for a member")

    monkeypatch.setattr("dualhash.simulator.dual", refuse)
    fam = counterexample_family(8)
    family_average_error(fam, Fraction(1, 10), R=fam.t_min / 8)
    whole = counterexample_leakage(8, 0.1, family=fam).exact_value
    assert "codes" not in vars(fam)
    # 2,795 members: 11 chunks by default, then 932 chunks and one chunk
    for cap in (3 << 8, 1 << 20):
        monkeypatch.setattr("dualhash.simulator.CHUNK_PATTERN_CAP", cap)
        assert counterexample_leakage(8, 0.1, family=fam).exact_value == whole


def oracle_counterexample_leakage(family, p):
    """The direct loop: the law of C + E summed codeword by codeword."""
    n, size = family.n, 1 << family.n
    mi_acc = 0.0
    for code, w in zip(family.codes, family.weights):
        dist = [0.0] * size
        share = 1.0 / len(code)
        for cw in code.codewords():
            for y in range(size):
                k = (cw ^ y).bit_count()
                dist[y] += share * (p**k) * ((1 - p) ** (n - k))
        h_cond = -sum(q * math.log2(q) for q in dist if q > 0)
        mi_acc += w * (n - h_cond)
    return mi_acc / family.total_weight


@pytest.mark.parametrize("p", [0.0, 0.1, 0.2, 0.5])
@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_counterexample_leakage_matches_direct_loop(n, p):
    got = counterexample_leakage(n, p).exact_value
    expected = oracle_counterexample_leakage(counterexample_family(n), p)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_counterexample_leakage_custom_family_matches_direct_loop():
    rng = random.Random(6)
    codes = [random_code(6, t, rng) for t in (0, 1, 3, 3, 5, 6) for _ in range(3)]
    fam = CodeFamily(codes, [rng.randrange(1, 9) for _ in codes])
    for p in (0.0, 0.1, 0.2, 0.5, 0.9):
        got = counterexample_leakage(6, p, family=fam).exact_value
        expected = oracle_counterexample_leakage(fam, p)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_counterexample_rejects_family_of_other_length():
    with pytest.raises(ValueError, match="length"):
        counterexample_leakage(4, 0.1, family=counterexample_family(6))


def test_family_average_rejects_p_above_half_in_both_modes():
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))
    for mode in ("exact", "monte_carlo"):
        for p in (Fraction(3, 4), 2, -Fraction(1, 10)):
            with pytest.raises(ValueError, match="p must be"):
                family_average_error(hf, p, R=0.5, mode=mode, sample_count=4, seed=1)


def test_family_average_rejects_bad_mode_before_any_work(monkeypatch):
    fam = CodeFamily([LinearCode.repetition(3), LinearCode.full(3)], [1, 3])
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("members evaluated before the mode was checked")

    monkeypatch.setattr(HashFamily, "sample_rows", refuse)
    monkeypatch.setattr("dualhash.simulator._syndrome_tables", refuse)
    for family in (fam, hf):
        with pytest.raises(ValueError, match="unknown mode"):
            family_average_error(family, Fraction(1, 10), R=0.5, mode="bogus",
                                 sample_count=4, seed=1)
    with pytest.raises(ValueError, match="monte_carlo mode needs a HashFamily"):
        family_average_error(fam, Fraction(1, 10), R=0.5, mode="monte_carlo")


def _refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("members sampled")

    monkeypatch.setattr(HashFamily, "sample_rows", refuse)


@pytest.mark.parametrize("samples", [0, -2])
def test_family_average_rejects_empty_sample_before_sampling(monkeypatch, samples):
    _refuse_sampling(monkeypatch)
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            family_average_error(hf, Fraction(1, 10), R=0.5, mode=mode,
                                 sample_count=samples, seed=1)


@pytest.mark.parametrize("R", [2.0, -0.1, float("nan")])
def test_family_average_rejects_rate_before_sampling(monkeypatch, R):
    _refuse_sampling(monkeypatch)
    hf = HashFamily(HashFamilySpec("random_linear", 16, 8))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="R must be in"):
            family_average_error(hf, Fraction(1, 10), R, mode=mode, sample_count=256, seed=1)


@pytest.mark.parametrize("n, samples", [
    (12, (SAMPLE_PATTERN_CAP >> 12) + 1),
    (16, (SAMPLE_PATTERN_CAP >> 16) + 1),
    (6, 10**9),
])
def test_family_average_refuses_oversized_sample_before_sampling(monkeypatch, n, samples):
    _refuse_sampling(monkeypatch)
    hf = HashFamily(HashFamilySpec("random_linear", n, 4))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="exceeds sample cap"):
            family_average_error(hf, Fraction(1, 10), R=0.5, mode=mode,
                                 sample_count=samples, seed=1)


def test_family_average_rejects_base_outside_member_in_both_modes():
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="C2 is not a subcode of C1"):
            family_average_error(hf, Fraction(1, 10), R=0.5, mode=mode,
                                 base=LinearCode.repetition(6), sample_count=3, seed=1)


def test_subcode_of_another_length_is_refused():
    full4, rep3 = LinearCode.full(4), LinearCode.repetition(3)
    assert not full4.contains_code(rep3)
    assert not full4.contains_code(LinearCode.zero(3))
    with pytest.raises(ValueError, match="C2 is not a subcode of C1"):
        exact_error_prob((full4, rep3), Fraction(1, 10))
    key = BitVector(4, 0b1010)
    with pytest.raises(ValueError, match="C2 is not a subcode of C1"):
        distill_keys(key, key, full4, rep3, seed=1)
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="C2 is not a subcode of C1"):
            family_average_error(hf, Fraction(1, 10), R=0.5, mode=mode,
                                 base=LinearCode.zero(5), sample_count=3, seed=1)


def test_family_average_decodes_hash_members_through_their_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel or dual code built for a member")

    monkeypatch.setattr("dualhash.gf2.kernel", refuse)
    monkeypatch.setattr("dualhash.universality.kernel", refuse)
    monkeypatch.setattr("dualhash.simulator.dual", refuse)
    for kind, n, m in (("random_linear", 8, 4), ("toeplitz", 8, 3),
                       ("modified_toeplitz", 9, 4)):
        hf = HashFamily(HashFamilySpec(kind, n, m))
        for mode in ("exact", "monte_carlo"):
            res = family_average_error(hf, Fraction(1, 20), R=0.5, mode=mode,
                                       sample_count=20, seed=3)
            assert 0 <= res.exact_value <= res.ci_upper <= 1


def _hash_members(sample_members):
    """Every member of toeplitz(6, 3) and modified_toeplitz(7, 3), and
    seeded random_linear(7, 4) members with the zero matrix among them."""
    rl = HashFamily(HashFamilySpec("random_linear", 7, 4))
    yield from HashFamily(HashFamilySpec("toeplitz", 6, 3))
    yield from HashFamily(HashFamilySpec("modified_toeplitz", 7, 3))
    yield rl[0]
    yield from sample_members(rl, 300, 14)


def test_hash_rows_decode_as_their_kernel_code(sample_members):
    deficient = 0
    for i, h in enumerate(_hash_members(sample_members)):
        n, rows, code = h.n, h.matrix.rows, kernel(h.matrix)
        deficient += h.matrix.rank() < h.m
        # the member's rows and its kernel code's dual basis, topped up to
        # m rows with zero rows (which change no label), one table each
        parity = (0,) * (h.m - (n - code.dim)) + dual(code).basis
        labels, leaders = _syndrome_tables([rows, parity], n)
        decoded = leaders[[[0], [1]], labels]  # each word's coset leader
        assert (decoded[0] == decoded[1]).all()
        for base in (LinearCode.zero(n), LinearCode(n, code.basis[:1])):
            correct = _correct_weights(leaders, span(np.array(base.basis, dtype=np.int64)), n)
            assert (correct[0] == correct[1]).all()
            errors = mc_errors(i, n, 50, 1 / 7)
            got = _mc_error_prob(labels[0], leaders[0], membership(base), errors)
            assert got == _mc_error_prob(labels[1], leaders[1], membership(base), errors)
            assert got == oracle_mc_error_prob(rows, n, 1 / 7, 50, random.Random(i), base)
    assert deficient >= 50


def test_family_average_refuses_length_beyond_cap_before_sampling(monkeypatch):
    _refuse_sampling(monkeypatch)
    hf = HashFamily(HashFamilySpec("modified_toeplitz", ERROR_ENUM_CAP + 1, 8))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="exceeds enumeration cap"):
            family_average_error(hf, Fraction(1, 10), R=0.5, mode=mode,
                                 sample_count=300000, seed=1)


def oracle_family_average(members, weights, c2, p, mode="exact", seed=None):
    """family_average_error's mean and upper limit, one member at a time:
    exact through the member's oracle_leaders (a word decodes into C2 iff
    its error is a reached leader plus a word of C2), Monte Carlo through
    oracle_mc_error_prob with the member's own random.Random(seed + i)."""
    n, p = c2.n, Fraction(p)
    values = []
    for i, rows in enumerate(members):
        if mode == "exact":
            correct = sum(
                p ** (e ^ c).bit_count() * (1 - p) ** (n - (e ^ c).bit_count())
                for e in oracle_leaders(rows, n) if e >= 0
                for c in c2.codewords()
            )
            values.append(1 - correct)
        else:
            values.append(oracle_mc_error_prob(rows, n, float(p), MC_TRIALS,
                                               random.Random(seed + i), c2))
    mean = sum(w * v for w, v in zip(weights, values)) / sum(weights)
    return mean, min(1.0, float(mean) + math.sqrt(math.log(100) / (2 * len(values))))


@pytest.mark.parametrize("kind, n, m, samples, mode", [
    ("random_linear", 6, 5, 300, "exact"),  # many rank-deficient members
    ("random_linear", 10, 4, 77, "exact"),  # 77 is not a multiple of 64
    ("modified_toeplitz", 9, 4, 130, "exact"),
    ("toeplitz", 12, 8, 37, "monte_carlo"),  # 37 is not a multiple of 16
    ("random_linear", 5, 5, 70, "monte_carlo"),
    ("random_linear", 16, 3, 3, "exact"),  # one member per chunk
])
def test_family_average_matches_per_member_oracle(sample_members, kind, n, m, samples, mode):
    hf = HashFamily(HashFamilySpec(kind, n, m))
    p, seed = Fraction(1, 7), 5
    members = [h.matrix.rows for h in sample_members(hf, samples, seed)]
    if (kind, n, m) == ("random_linear", 6, 5):
        assert sum(BinaryMatrix(r, n).rank() < m for r in members) >= 50
    assert samples % max(1, CHUNK_PATTERN_CAP >> n) or samples == 3
    res = family_average_error(hf, p, R=1 - m / n, mode=mode,
                               sample_count=samples, seed=seed)
    mean, ci = oracle_family_average(members, [1] * samples, LinearCode.zero(n),
                                     p, mode, seed)
    assert res.exact_value == mean
    assert type(res.exact_value) is type(mean)
    assert res.ci_upper == ci


def test_weighted_code_family_average_matches_per_member_oracle():
    rng = random.Random(8)
    codes = [random_code(7, t, rng) for t in (0, 1, 2, 3, 5, 7) for _ in range(4)]
    light = CodeFamily(codes, [rng.randrange(1, 9) for _ in codes])
    # weights near 2^62, each fitting int64, whose total and weighted
    # histogram pass 2^63
    heavy = CodeFamily(light.codes, [(1 << 62) - rng.randrange(1 << 40) for _ in light.codes])
    assert heavy._weight_array.dtype == np.int64 and heavy.total_weight > 1 << 63
    for fam in (light, heavy):
        for p in (Fraction(0), Fraction(1, 9), Fraction(1, 2)):
            res = family_average_error(fam, p, R=0.5)
            mean, _ = oracle_family_average(
                [dual(c).basis for c in fam.codes], fam.weights, LinearCode.zero(7), p
            )
            assert res.exact_value == mean
            assert res.ci_upper is None


def test_family_average_with_base_matches_per_member_oracle():
    rng = random.Random(9)
    base = LinearCode.from_strings(["11000000", "00110011"])
    codes = []
    for extra in (0, 1, 2, 3, 4, 6):
        rows = list(base.basis) + [rng.randrange(1, 1 << 8) for _ in range(extra)]
        codes.append(LinearCode.from_rows(8, rows))
    fam = CodeFamily(codes, [rng.randrange(1, 5) for _ in codes])
    res = family_average_error(fam, Fraction(1, 10), R=0.5, base=base)
    mean, _ = oracle_family_average(
        [dual(c).basis for c in fam.codes], fam.weights, base, Fraction(1, 10)
    )
    assert res.exact_value == mean > 0


BATCH_PS = (Fraction(0), Fraction(1, 20), Fraction(1, 7), Fraction(1, 2))


def record_bytes(res):
    return json.dumps(res.to_record(), sort_keys=True).encode()


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("base", ["none", "zero", "e0"])
def test_family_average_errors_equal_one_call_per_p_on_a_hash_family(monkeypatch, mode, base):
    """Every sampled member has bit 0 of its rows cleared, so its kernel
    holds e_0 and the base span(e_0) lies in every member."""
    rows_of = HashFamily.sample_rows
    monkeypatch.setattr(HashFamily, "sample_rows",
                        lambda self, count, seed: rows_of(self, count, seed) & ~1)
    n = 8
    c2 = {"none": None, "zero": LinearCode.zero(n), "e0": LinearCode(n, (1,))}[base]
    hf = HashFamily(HashFamilySpec("random_linear", n, 3))
    kwargs = dict(mode=mode, base=c2, sample_count=40, seed=11)
    batch = _family_average_errors(hf, BATCH_PS, 0.5, **kwargs)
    assert [record_bytes(r) for r in batch] == [
        record_bytes(family_average_error(hf, p, 0.5, **kwargs)) for p in BATCH_PS]


def test_family_average_errors_equal_one_call_per_p_on_a_code_family():
    rng = random.Random(12)
    base = LinearCode.from_strings(["1100000", "0011001"])
    codes = [LinearCode.from_rows(7, list(base.basis) + [rng.randrange(1, 1 << 7)
                                                         for _ in range(extra)])
             for extra in (0, 1, 2, 3, 5)]
    fam = CodeFamily(codes, [rng.randrange(1, 5) for _ in codes])
    for c2 in (None, base):
        batch = _family_average_errors(fam, BATCH_PS, 0.4, base=c2)
        assert [record_bytes(r) for r in batch] == [
            record_bytes(family_average_error(fam, p, 0.4, base=c2))
            for p in BATCH_PS]


@pytest.mark.parametrize("ps", [
    (Fraction(1, 10), Fraction(3, 4)),
    (-Fraction(1, 10), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 20), 1),
])
def test_family_average_errors_check_every_p_before_sampling(monkeypatch, ps):
    _refuse_sampling(monkeypatch)
    hf = HashFamily(HashFamilySpec("random_linear", 6, 3))
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError, match="p must be"):
            _family_average_errors(hf, ps, 0.5, mode=mode, sample_count=4, seed=1)


def test_family_average_chunks_stay_within_cap(monkeypatch):
    sizes = []

    def recording(row_sets, n):
        tables = _syndrome_tables(row_sets, n)
        sizes.append(tables[0].size)
        return tables

    monkeypatch.setattr("dualhash.simulator._syndrome_tables", recording)
    for n, samples in ((12, 100), (16, 3), (8, 1000)):
        hf = HashFamily(HashFamilySpec("random_linear", n, 4))
        sizes.clear()
        family_average_error(hf, Fraction(1, 10), R=1 - 4 / n, sample_count=samples,
                             seed=2)
        assert max(sizes) <= CHUNK_PATTERN_CAP
        assert sum(sizes) == samples << n


def test_syndrome_tables_match_syndrome_table_row_by_row():
    # each row of a batch equals the row set's own one-set table and the
    # reference walk; the batch holds m rows per set, zero and repeated
    # rows among them
    rng = random.Random(10)
    for n in (1, 4, 7, 9):
        for m in sorted({0, 1, 2, n // 2, n}):
            row_sets = [tuple(rng.randrange(1 << n) for _ in range(m)) for _ in range(12)]
            row_sets += [(0,) * m, (1,) * m]
            labels, leaders = _syndrome_tables(row_sets, n)
            assert labels.shape == (len(row_sets), 1 << n)
            assert leaders.shape == (len(row_sets), 1 << m)
            for k, rows in enumerate(row_sets):
                (lab,), (lead,) = _syndrome_tables([rows], n)
                h = BinaryMatrix(rows, n)
                assert labels[k].tolist() == lab.tolist() == [
                    h.mul_vector(x) for x in range(1 << n)]
                assert leaders[k].tolist() == lead.tolist() == oracle_leaders(rows, n)
