"""Exact decoding simulation, family averages, distillation, wiretap."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash.bounds import binary_entropy
from dualhash.gf2 import BinaryMatrix, BitVector, LinearCode, cosets, dual
from dualhash.hashfam import HashFamily, HashFamilySpec, kernel_code
from dualhash.simulator import (
    Z_99,
    _mc_error_prob,
    _syndrome_table,
    counterexample_leakage,
    decode,
    distill_keys,
    exact_error_prob,
    family_average_error,
    parse_channel,
    wiretap_eval,
)
from dualhash.universality import CodeFamily, counterexample_family, random_code


def oracle_decode(c, y):
    """Reference decoder: scan every codeword for the minimum-(weight, value)
    error y ^ cw, and return the codeword it leaves."""
    _, err = min(((y ^ cw).bit_count(), y ^ cw) for cw in c.codewords())
    return y ^ err


def oracle_leaders(c):
    """Reference coset-leader table: walk patterns by weight, each weight in
    increasing order (Gosper's hack); the first to reach a syndrome keeps it."""
    n = c.n
    h = BinaryMatrix(dual(c).basis, n)
    size, leaders = 1 << h.nrows, {0: 0}
    for weight in range(1, n + 1):
        e = (1 << weight) - 1
        while len(leaders) < size and e < 1 << n:
            leaders.setdefault(h.mul_vector(e), e)
            low = e & -e
            nxt = e + low
            e = ((nxt ^ e) >> 2) // low | nxt
    return [leaders[s] for s in range(size)]


def oracle_distill_keys(k_a, k_b, c1, c2, seed):
    """Reference distillation: the same masking draws, the codeword-scan
    decoder, and keys looked up among all reps of cosets(c1, c2)."""
    rng = random.Random(seed)
    r_a = 0
    for b in c1.basis:
        if rng.random() < 0.5:
            r_a ^= b
    r_b = oracle_decode(c1, k_a.value ^ r_a ^ k_b.value)
    h2 = BinaryMatrix(dual(c2).basis, c1.n)
    rep_of = {h2.mul_vector(r): r for r in cosets(c1, c2)}
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
    assert _syndrome_table(c)[1] == oracle_leaders(c)


def test_syndrome_table_edge_codes():
    # C = {0}: every word is its own coset, and H is the identity
    _, leaders = _syndrome_table(LinearCode.zero(7))
    assert leaders == list(range(1 << 7))
    # C = F_2^n: one coset, led by 0
    _, leaders = _syndrome_table(LinearCode.full(7))
    assert leaders == [0]
    # n = 16, the cap: 2^(n-k) leaders, each in the coset its syndrome names
    c = random_code(16, 9, random.Random(4))
    h, leaders = _syndrome_table(c)
    assert len(leaders) == 1 << (16 - 9)
    assert all(h.mul_vector(x) == s for s, x in enumerate(leaders))


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


def test_decode_rules_agree():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(2, 9)
        c = random_code(n, rng.randrange(1, n), rng)
        y = BitVector(n, rng.randrange(1 << n))
        assert decode(c, y) == decode(c, y, rule="max_likelihood", p=0.3)
    with pytest.raises(ValueError):
        decode(c, y, rule="max_likelihood")  # needs p


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
    res = family_average_error(fam, p, R=1.0, epsilon=2.0)
    expected = (exact_error_prob(codes[0], p) + 3 * exact_error_prob(codes[1], p)) / 4
    assert res.exact_value == expected


def test_family_average_hash_family_with_ci():
    hf = HashFamily(HashFamilySpec("random_linear", 8, 4))
    res = family_average_error(
        hf, Fraction(1, 20), R=0.5, epsilon=1.0, sample_count=50, seed=3
    )
    assert res.ci_upper is not None
    assert float(res.exact_value) <= res.ci_upper
    # bound reports attached and respected (enforced at construction)
    assert {b.formula_id for b in res.bounds} == {"family_average", "weighted_sum"}


def test_monte_carlo_error_prob_matches_exact():
    # the transmitted word is 0, so decoding fails iff the decoded word
    # leaves C2 (here the zero code)
    code = kernel_code(HashFamily(HashFamilySpec("random_linear", 12, 8)).sample(1, 0)[0])
    trials = 2000
    exact = float(exact_error_prob(code, Fraction(1, 20)))
    est = _mc_error_prob(code, 0.05, trials, random.Random(0), None)
    half_width = Z_99 * math.sqrt(est * (1 - est) / trials)
    assert abs(est - exact) <= half_width


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
    res = wiretap_eval(6, pxz, c1, c2, mode="phase_only")
    # the reported value is the phase error probability of the dual pair
    assert res.exact_value == float(
        exact_error_prob((dual(c2), dual(c1)), Fraction(1, 10))
    )


def test_wiretap_exact_within_bounds():
    pxz = [(0.9, 0.0, 0.1, 0.0)] * 3
    res = wiretap_eval(3, pxz, LinearCode.full(3), LinearCode.repetition(3))
    d1_bound = next(b for b in res.bounds if b.formula_id == "trace_distance")
    chi_bound = next(b for b in res.bounds if b.formula_id == "holevo")
    assert res.exact_value <= d1_bound.value + 1e-9
    assert res.params["holevo"] <= chi_bound.value + 1e-9


def test_wiretap_rejects_mixed_phase_marginals():
    pxz = [(0.9, 0.0, 0.1, 0.0), (0.8, 0.0, 0.2, 0.0)]
    with pytest.raises(ValueError):
        wiretap_eval(2, pxz, LinearCode.full(2), LinearCode.repetition(2))


def test_counterexample_leakage_floor():
    res = counterexample_leakage(5, 0.1)
    assert res.exact_value >= res.params["floor"] - 1e-9
    assert res.params["floor"] == 1 - binary_entropy(0.1)


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
