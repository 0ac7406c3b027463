"""Exact desk-scale channel simulation: decoding, family averages, key
distillation, and wiretap security evaluation.

Every decoding path uses one coset-leader table keyed by the syndromes Hx
of ``gf2.syndromes``, labels and leaders computed once per code in one pass
over all 2^n error patterns, H a code's dual basis or a hash member's own
matrix (whose kernel is its code); the cap n <= 16 bounds that work.
Family averages table a chunk of members in one pass.
Exact wiretap leakage comes from the joint (phase, bit) error histogram
over syndrome labels, capped at n <= 10 (4^n error pairs).  Error probabilities are exact rationals; Monte
Carlo estimates always carry two-sided 99% confidence intervals and bound
checks use the upper limit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from .bounds import (
    BoundReport,
    binary_entropy,
    eta,
    gallager_family_bound,
    weighted_decoding_bound,
)
from .gf2 import (
    BitVector,
    LinearCode,
    WeightDistribution,
    _echelon,
    _reduce,
    complement_basis,
    dual,
    span,
    syndromes,
    walsh_hadamard,
)
from .universality import CodeFamily, _codeword_blocks, counterexample_family

__all__ = [
    "SimResult",
    "decode",
    "exact_error_prob",
    "family_average_error",
    "distill_keys",
    "wiretap_eval",
    "counterexample_leakage",
    "parse_channel",
]

ERROR_ENUM_CAP = 16
SAMPLE_PATTERN_CAP = 1 << 24  # sampled members times 2^n patterns each
CHUNK_PATTERN_CAP = 1 << 16  # members times 2^n patterns labelled at once
MC_TRIALS = 2000  # Monte Carlo transmissions per sampled member
MC_DRAW_CAP = 1 << 20  # Monte Carlo draws (members times trials times n) made at once
WIRETAP_EXACT_CAP = 10
BISECT_STEPS = 64
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass
class SimResult:
    exact_value: object  # Fraction or float
    n: int
    params: dict
    bounds: list = field(default_factory=list)
    ci_upper: float | None = None

    def to_record(self) -> dict:
        rec = {"exact_value": str(self.exact_value), "n": self.n}
        rec.update({f"param_{k}": v for k, v in sorted(self.params.items())})
        if self.ci_upper is not None:
            rec["ci_upper"] = self.ci_upper
        for b in self.bounds:
            rec[f"bound_{b.formula_id}"] = b.value
        return rec


@cache
def _pattern_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Hamming weight of every n-bit pattern, and its (weight, value) key.

    Both arrays are indexed by the pattern; ordering patterns by key is
    ordering them by weight, then by value.  Read-only, one pair per n;
    callers check n <= ERROR_ENUM_CAP first, which bounds the cache.
    """
    weight = np.zeros(1 << n, dtype=np.int32)
    for j in range(n):
        weight[1 << j : 2 << j] = weight[: 1 << j] + 1
    key = (weight << n) | np.arange(1 << n, dtype=np.int32)
    weight.flags.writeable = key.flags.writeable = False
    return weight, key


def _syndrome_tables(row_sets, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome label of every n-bit word, and the coset leaders they key,
    for K row sets at once: labels (K, 2^n) and leaders (K, 2^m), m the
    longest row count.

    labels[k, x] = H_k x, H_k the matrix of row_sets[k]; leaders[k, s] is
    the least (weight, value) word labelled s, or -1 if none is (dependent
    or padded rows reach fewer labels).  Rows spanning C^perp, a code's
    dual basis or a hash member's own matrix rows, key the cosets of C;
    which rows do so changes no leader.  Shorter row sets are padded with
    zero rows on top, which changes no label.  The labels are
    ``gf2.syndromes`` of the stacked row sets; the leaders take one
    np.minimum.at per row, which needs no K 2^n array of flat indices or
    keys.  n <= 16, and callers bound K 2^n, so every array is int32.
    """
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ERROR_ENUM_CAP}")
    count, m = len(row_sets), max(map(len, row_sets))
    rows = np.zeros((count, m), dtype=np.int32)
    for k, r in enumerate(row_sets):
        rows[k, m - len(r):] = r
    labels = syndromes(rows, n)
    _, key = _pattern_weights(n)
    unreached = np.iinfo(np.int32).max
    best = np.full((count, 1 << m), unreached, dtype=np.int32)
    for b, lab in zip(best, labels):
        np.minimum.at(b, lab, key)
    return labels, np.where(best < unreached, best & ((1 << n) - 1), -1)


def decode(c: LinearCode, y: BitVector) -> BitVector:
    """Nearest codeword; ties go to the lexicographically smallest error.

    On a binary symmetric channel with p <= 1/2 this is also the
    maximum-likelihood decoder.  Needs n <= 16.
    """
    if y.n != c.n:
        raise ValueError("length mismatch")
    labels, leaders = _syndrome_tables([dual(c).basis], c.n)
    return BitVector(c.n, y.value ^ int(leaders[0, labels[0, y.value]]))


def exact_error_prob(code, p) -> Fraction:
    """Exact decoding error probability over all 2^n error patterns.

    `code` is a LinearCode (block decoding) or a pair (C1, C2) with
    C2 ⊆ C1 (coset message decoding: decode in C1, report the coset mod
    C2).  Exact rational in p.
    """
    c1, c2 = (code, LinearCode.zero(code.n)) if isinstance(code, LinearCode) else code
    if not c1.contains_code(c2):
        raise ValueError("C2 is not a subcode of C1")
    p = Fraction(p)
    if not 0 <= p <= Fraction(1, 2):
        raise ValueError("p must be in [0, 1/2]")
    _, leaders = _syndrome_tables([dual(c1).basis], c1.n)
    (correct,) = _correct_weights(leaders, c2).tolist()
    terms, den = _weight_terms(c1.n, p)
    return Fraction(den - sum(cnt * t for cnt, t in zip(correct, terms)), den)


def _weight_terms(n: int, p: Fraction) -> tuple[list[int], int]:
    """With p = a/b, a word of weight w has probability t_w / b^n; returns
    ([t_0, ..., t_n], b^n), t_w = a^w (b - a)^(n - w)."""
    a, b = p.numerator, p.denominator
    return [a**w * (b - a) ** (n - w) for w in range(n + 1)], b**n


def _correct_weights(leaders: np.ndarray, c2: LinearCode) -> np.ndarray:
    """Row k: the weight histogram of the errors that row k of the
    _syndrome_tables leaders decodes into C2, a code inside that row's
    code C1.  A word decodes correctly iff its error differs from its coset
    leader by an element of C2.  Each member contributes its 2^rank reached
    leaders times |C2| <= 2^(n - rank) words, so K members make at most
    K 2^n."""
    count, n = len(leaders), c2.n
    weight, _ = _pattern_weights(n)
    member, slot = np.nonzero(leaders >= 0)
    correct = np.bitwise_xor.outer(leaders[member, slot],
                                   span(np.array(c2.basis, dtype=np.int64)))
    flat = member[:, None] * (n + 1) + weight[correct]
    return np.bincount(flat.ravel(), minlength=count * (n + 1)).reshape(count, n + 1)


def family_average_error(
    family,
    p,
    R: float,
    epsilon: float = 1.0,
    mode: str = "exact",
    base: LinearCode | None = None,
    sample_count: int | None = None,
    seed: int | None = None,
) -> SimResult:
    """Average decoding error probability of a code or hash family on a BSC.

    family: a CodeFamily (full weighted average) or a HashFamily, in which
    case sample_count and seed select exact-per-member evaluation over a
    seeded sample, reported with a 99% confidence interval; each member
    walks 2^n patterns, so sample_count * 2^n is capped at
    SAMPLE_PATTERN_CAP before any member is sampled.  A hash member is
    decoded through its own matrix M.  With `base` given, each member is
    an outer code C1 containing it (M b = 0 for every base row b), and the
    message is the coset C1/base.  R and epsilon name the family's nominal
    rate and universality parameter for the attached bounds.  `mode` is
    "exact" or, for a HashFamily only, "monte_carlo" (MC_TRIALS trials).

    Members are tabled in chunks of at most CHUNK_PATTERN_CAP patterns
    (_syndrome_tables).  An exact value comes from the member's weight
    histogram; every member's error probability is over the same b^n
    (p = a/b), so the mean is one integer sum over b^n times the total
    weight.  Monte Carlo member i draws the random() stream of its own
    random.Random(seed + i) (_mc_errors).
    """
    (res,) = _family_average_errors(family, [p], R, epsilon, mode, base, sample_count, seed)
    return res


def _family_average_errors(family, ps, R, epsilon=1.0, mode="exact", base=None,
                           sample_count=None, seed=None) -> list[SimResult]:
    """family_average_error at each crossover probability of ``ps``, one
    SimResult per p, from one sample of members: each chunk's tables and,
    in exact mode, its weight histograms are built once for every p.  In
    monte_carlo mode the draws depend on p, so each p has its own
    _mc_errors stream, the one a single call would draw.  Every p is
    checked before any member is sampled."""
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode: {mode}")
    if mode == "monte_carlo" and isinstance(family, CodeFamily):
        raise ValueError("monte_carlo mode needs a HashFamily")
    pfs = [Fraction(p) for p in ps]
    if not all(0 <= pf <= Fraction(1, 2) for pf in pfs):
        raise ValueError("p must be in [0, 1/2]")
    if not 0 <= R <= 1:
        raise ValueError("R must be in [0, 1]")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n = family.n
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ERROR_ENUM_CAP}")
    if isinstance(family, CodeFamily):
        members = [dual(c).basis for c in family.codes]
        weights = family.weights
    else:
        if sample_count is None or seed is None:
            raise ValueError("hash families need sample_count and seed")
        if sample_count < 1:
            raise ValueError(f"sample_count must be >= 1; got {sample_count}")
        if sample_count << n > SAMPLE_PATTERN_CAP:
            raise ValueError(
                f"sample_count * 2^n = {sample_count << n} exceeds sample cap "
                f"{SAMPLE_PATTERN_CAP}"
            )
        members = family.sample_rows(sample_count, seed)
        weights = [1] * len(members)
    c2 = base if base is not None else LinearCode.zero(n)
    if c2.n != n:
        raise ValueError("C2 is not a subcode of C1")
    terms = [_weight_terms(n, pf) for pf in pfs]
    if mode == "monte_carlo":
        errors = [_mc_errors(range(seed, seed + len(members)), n, MC_TRIALS, float(pf))
                  for pf in pfs]
        inside = np.zeros(1 << n, dtype=bool)
        inside[span(np.array(c2.basis, dtype=np.int64))] = True
    values = [[] for _ in pfs]  # exact: b^n P(error) per member; monte carlo: the estimate
    chunk = max(1, CHUNK_PATTERN_CAP >> n)
    for start in range(0, len(members), chunk):
        labels, leaders = _syndrome_tables(members[start : start + chunk], n)
        if labels[:, list(c2.basis)].any():
            raise ValueError("C2 is not a subcode of C1")
        if mode == "exact":
            correct = _correct_weights(leaders, c2).tolist()
            for vals, (ts, den) in zip(values, terms):
                vals += [den - sum(cnt * t for cnt, t in zip(row, ts)) for row in correct]
        else:
            for vals, errs in zip(values, errors):
                vals += [_mc_error_prob(lab, lead, inside, next(errs))
                         for lab, lead in zip(labels, leaders)]
        del labels, leaders  # free this chunk's tables before the next is built
    total = sum(weights)
    k_start = 0 if base is not None else 1
    results = []
    for pf, vals, (_, den) in zip(pfs, values, terms):
        if mode == "exact":
            # every member's error probability is over the same b^n
            mean = Fraction(sum(w * v for w, v in zip(weights, vals)), den * total)
            vals = [v / den for v in vals]  # correctly rounded, as float(Fraction)
        else:
            mean = sum(w * v for w, v in zip(weights, vals)) / total
        ci = None
        if not isinstance(family, CodeFamily):
            mu = sum(vals) / len(vals)
            var = sum((v - mu) ** 2 for v in vals) / max(len(vals) - 1, 1)
            ci = mu + Z_99 * math.sqrt(var / len(vals))

        # each bound checks the sampled CI's upper limit, or the exact mean
        check = float(mean) if ci is None else ci
        w_binom = WeightDistribution.binomial(n, pf)
        bounds = [
            gallager_family_bound(n, R, float(pf), epsilon),
            weighted_decoding_bound(w_binom, R, max(epsilon, 1.0), k_start),
        ]
        results.append(SimResult(
            mean,
            n,
            {"p": str(pf), "R": R, "epsilon": epsilon, "mode": mode},
            bounds=[replace(b, dominated_quantity=check) for b in bounds],
            ci_upper=ci,
        ))
    return results


# MT19937's word masks, twist matrix and tempering masks, as uint32 scalars
_UPPER, _LOWER, _ONE = np.uint32(0x80000000), np.uint32(0x7FFFFFFF), np.uint32(1)
_TWIST, _TEMPER_B, _TEMPER_C = np.uint32(0x9908B0DF), np.uint32(0x9D2C5680), np.uint32(0xEFC60000)


def _mt_twist(mt: np.ndarray, scratch: np.ndarray) -> None:
    """One MT19937 twist of every column of ``mt``, a (624, K) uint32 array
    of states, in place; ``scratch`` is a (227, K) uint32 buffer.

    Word i becomes word i + 397 (mod 624) XOR the twisted upper bit of word
    i and lower bits of word i + 1.  Done in order, words 0..226 read only
    old words, 227..453 read new words 0..226, 454..622 new words 227..395,
    and 623 new words 0 and 396, so four vector steps give the sequential
    result.
    """
    for lo, hi, src in ((0, 227, 397), (227, 454, 0), (454, 623, 227)):
        y = scratch[:hi - lo]
        np.bitwise_and(mt[lo:hi], _UPPER, out=y)
        y |= mt[lo + 1:hi + 1] & _LOWER
        odd = (y & _ONE) * _TWIST
        y >>= _ONE
        y ^= odd
        np.bitwise_xor(mt[src:src + hi - lo], y, out=mt[lo:hi])
    y = (mt[623] & _UPPER) | (mt[0] & _LOWER)
    mt[623] = mt[396] ^ (y >> _ONE) ^ ((y & _ONE) * _TWIST)


def _mt_temper(y: np.ndarray) -> np.ndarray:
    """MT19937's output words for the state words ``y`` (uint32)."""
    y = y ^ (y >> np.uint32(11))
    y ^= (y << np.uint32(7)) & _TEMPER_B
    y ^= (y << np.uint32(15)) & _TEMPER_C
    return y ^ (y >> np.uint32(18))


def _random_below(seeds, count: int, p: float) -> np.ndarray:
    """A (count, len(seeds)) bool array: entry [j, k] says whether the j-th
    random() of random.Random(seeds[k]) is below p.

    CPython's random is the standard MT19937 (Matsumoto and Nishimura
    1998): a freshly seeded Random holds 624 state words at position 624,
    so its first call twists the state, and each call to random() takes
    two tempered words a, b as X 2^-53, X = (a >> 5) 2^26 + (b >> 6).  Here
    the states from getstate() are twisted and tempered in numpy, one
    column per seed, with no Python int per word.  X 2^-53 < p iff
    X < T = ceil(p 2^53) (p 2^53 is exact), that is iff a >> 5 < T >> 26,
    or a >> 5 == T >> 26 and b >> 6 < T mod 2^26; only that rare tie needs
    b, so only the a words are tempered in bulk.  numpy's np.random.MT19937
    would give the same words, but importing numpy.random loads OpenSSL's
    libcrypto (through secrets), about 6 MB of resident memory.
    """
    t = math.ceil(p * 2**53)
    t_hi, t_lo = np.uint32(t >> 26), np.uint32(t & ((1 << 26) - 1))
    mt = np.array([random.Random(s).getstate()[1][:624] for s in seeds],
                  dtype=np.uint32).T.copy()
    scratch = np.empty((227, mt.shape[1]), dtype=np.uint32)
    below = np.empty((-(-count // 312) * 312, mt.shape[1]), dtype=bool)
    for start in range(0, count, 312):  # 312 draws from each twist
        _mt_twist(mt, scratch)
        a = _mt_temper(mt[0::2]) >> np.uint32(5)
        block = below[start:start + 312]
        np.less(a, t_hi, out=block)
        tie = a == t_hi
        if tie.any():
            j, k = np.nonzero(tie)
            block[j, k] = _mt_temper(mt[2 * j + 1, k]) >> np.uint32(6) < t_lo
    return below[:count]


def _mc_errors(seeds, n: int, trials: int, p: float):
    """Yield, seed by seed, the (trials,) error words of `trials` BSC(p)
    transmissions of n bits: in trial t, bit i flips iff the (t n + i)-th
    random() of random.Random(seed) is below p.

    Seeds are drawn together (_random_below), at most MC_DRAW_CAP draws at
    a time, since each numpy step serves every seed of a batch.
    """
    seeds = list(seeds)
    batch = max(1, MC_DRAW_CAP // (trials * n))
    for start in range(0, len(seeds), batch):
        flips = _random_below(seeds[start:start + batch], trials * n, p).reshape(trials, n, -1)
        errors = np.zeros(flips[:, 0].shape, dtype=np.int32)
        for i in range(n):
            errors |= flips[:, i] * np.int32(1 << i)
        del flips  # only the error words stay while the batch is decoded
        yield from errors.T


def _mc_error_prob(labels: np.ndarray, leaders: np.ndarray, inside: np.ndarray,
                   errors: np.ndarray) -> float:
    """Share of the error words ``errors`` (_mc_errors) that carry the
    sent word 0 outside C2, through one row of the _syndrome_tables labels
    and leaders of a code C1 ⊇ C2: every trial decodes in one gather
    through the coset leaders by syndrome label.  ``inside`` is C2's
    membership table over all 2^n words, built once per family.
    """
    decoded = errors ^ leaders[labels[errors]]
    return int(np.count_nonzero(~inside[decoded])) / len(errors)


def distill_keys(
    k_a: BitVector,
    k_b: BitVector,
    c1: LinearCode,
    c2: LinearCode,
    seed: int,
):
    """Classical key distillation: announce a masked word, correct errors
    with the outer code, output coset keys modulo the inner code.

    Returns (s_a, s_b, agree) where the keys are canonical coset
    representatives of C1/C2: elements of span(complement_basis(C1, C2)),
    found by elimination without enumerating them.
    """
    if k_a.n != c1.n or k_b.n != c1.n:
        raise ValueError("length mismatch")
    if not c1.contains_code(c2):
        raise ValueError("C2 is not a subcode of C1")
    rng = random.Random(seed)
    r_a = 0
    for b in c1.basis:
        if rng.random() < 0.5:
            r_a ^= b
    v = k_a.value ^ r_a
    r_b = v ^ k_b.value
    r_b_corrected = decode(c1, BitVector(c1.n, r_b)).value
    s_a, s_b = _coset_reps(c1, c2, r_a, r_b_corrected)
    return BitVector(c1.n, s_a), BitVector(c1.n, s_b), s_a == s_b


def _coset_reps(c1: LinearCode, c2: LinearCode, *words: int) -> list[int]:
    """Canonical representative of each word of C1 modulo C2.

    C1 is the direct sum span(comp) + C2 with comp = complement_basis(C1,
    C2), so a word r splits uniquely as s + t with s in span(comp) and t in
    C2; s is the representative.  The words r << n | s span the graph of
    r -> s, with every pivot in the top n bits, so reducing r << n clears r
    and leaves s.
    """
    n = c1.n
    ech = _echelon([b << n | b for b in complement_basis(c1, c2)]
                   + [b << n for b in c2.basis])
    return [_reduce(r << n, ech) for r in words]


def parse_channel(text: str) -> list[tuple[float, float, float, float]]:
    """Channel file: one line per qubit, four probabilities p00 p01 p10 p11
    (phase bit, bit-flip bit)."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        vals = tuple(float(v) for v in ln.split())
        if len(vals) != 4:
            raise ValueError("each channel line needs 4 probabilities")
        rows.append(vals)
    return rows


def wiretap_eval(pxz, c1: LinearCode, c2: LinearCode, mode: str = "exact") -> SimResult:
    """Security of coset keys over a Pauli channel against the environment.

    pxz holds one table per qubit, so n = len(pxz) = c1.n = c2.n.  exact
    mode (n <= 10) computes the true trace distance and Holevo information
    from the joint error distribution; phase_only (n <= 16) reports only the
    phase-error probability and its implied bounds.  Requires identical
    phase-error marginals across qubits.
    """
    if mode not in ("exact", "phase_only"):
        raise ValueError(f"unknown mode: {mode}")
    tables = [np.asarray(t, dtype=float) for t in pxz]
    if any(t.shape != (4,) for t in tables):
        raise ValueError("need one 4-entry table (p00 p01 p10 p11) per qubit")
    for t in tables:
        if not (np.all(t >= 0) and abs(t.sum() - 1) <= 1e-9):
            raise ValueError("each per-qubit table must be a distribution")
    n = len(tables)
    if not n == c1.n == c2.n:
        raise ValueError(
            f"channel has {n} qubits; codes of length {c1.n} and {c2.n}"
        )
    if not c1.contains_code(c2):
        raise ValueError("C2 is not a subcode of C1")
    if mode == "exact" and n > WIRETAP_EXACT_CAP:
        raise ValueError(f"n={n} exceeds exact wiretap cap {WIRETAP_EXACT_CAP}")
    p_ph_each = [t[2] + t[3] for t in tables]
    if max(p_ph_each) - min(p_ph_each) > 1e-12:
        raise ValueError("qubits must share the phase-error marginal")
    p_ph = Fraction(float(p_ph_each[0])).limit_denominator(10**9)
    p_ph_remaining = exact_error_prob((dual(c2), dual(c1)), p_ph)
    l = c1.dim - c2.dim
    d1_bound = 2 * math.sqrt(2) * math.sqrt(float(p_ph_remaining))
    chi_bound = eta(l, float(p_ph_remaining))
    params = {
        "p_ph": float(p_ph),
        "p_ph_remaining": str(p_ph_remaining),
        "l": l,
        "mode": mode,
    }
    if mode == "phase_only":
        return SimResult(float(p_ph_remaining), n, params,
                         bounds=[
                             BoundReport("trace_distance", d1_bound, params),
                             BoundReport("holevo", max(chi_bound, 0.0), params),
                         ])
    d1, chi = _coset_key_leakage(tables, c1, c2)
    params["holevo"] = chi
    return SimResult(
        d1,
        n,
        params,
        bounds=[
            BoundReport("trace_distance", d1_bound, params,
                        dominated_quantity=d1),
            BoundReport("holevo", max(chi_bound, 0.0), params,
                        dominated_quantity=chi),
        ],
    )


def _coset_key_leakage(tables, c1: LinearCode, c2: LinearCode) -> tuple[float, float]:
    """Trace distance from ideal and Holevo information of the coset key.

    Eve's state splits into orthogonal blocks, one per bit-error word z and
    coset K of C2^perp holding the phase-error word.  In a block, key r
    holds the rank-one state sum_J (-1)^(r.J) sqrt(q_J) |J> over the 2^l
    cosets J of C1^perp inside K, with q_J = P(Z = z, X in J), and Eve's
    marginal is diag(q).  So chi = sum q log2(Q / q) with Q = sum_J q_J,
    and each block adds ||sqrt(q) sqrt(q)^T - diag(q)||_1 to d1.  That
    matrix has trace 0 and one positive eigenvalue lambda, so its norm is
    2 lambda, the root in [0, Q] of sum_J q_J / (lambda + q_J) = 1.
    """
    n = c1.n
    joint = reduce(np.kron, [t.reshape(2, 2) for t in tables])  # [x, z]
    labels = syndromes(c2.basis + tuple(complement_basis(c1, c2)), n)
    q = np.zeros((1 << c1.dim, 1 << n))
    np.add.at(q, labels, joint)
    q = q.reshape(1 << c2.dim, 1 << (c1.dim - c2.dim), 1 << n)  # [K, J, z]
    big_q = q.sum(axis=1, keepdims=True)
    support = q > 0
    ratio = np.divide(big_q, q, out=np.ones_like(q), where=support)
    chi = float((q * np.log2(ratio)).sum())
    lo, hi = np.zeros_like(big_q), big_q
    terms = np.zeros_like(q)
    for _ in range(BISECT_STEPS):
        mid = (lo + hi) / 2
        np.divide(q, mid + q, out=terms, where=support)
        above = terms.sum(axis=1, keepdims=True) > 1
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 2 * float(lo.sum()), chi


def counterexample_leakage(n: int, p: float, family: CodeFamily | None = None,
                           seed: int | None = None) -> SimResult:
    """Eve's exact mutual information about the coset key for the
    zero-padded family, with the floor 1 - h(p).

    Alice sends a uniform element of the key coset over a noiseless channel
    to Bob while Eve sees it through a binary symmetric channel; the last
    bit survives hashing for every family member, so the information stays
    bounded away from zero.
    """
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds cap {ERROR_ENUM_CAP}")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if family is None:
        family = counterexample_family(n, seed=seed)
    elif family.n != n:
        raise ValueError(f"family length {family.n} differs from n={n}")
    # I([X]; Y) = H(Y) - H(Y | coset) = n - H(C + E), C uniform on the
    # member, E the BSC noise; the shifted conditional law is coset
    # independent.  In the Walsh domain uniform-on-C is the indicator of
    # C^perp and the noise is (1-2p)^wt(x), so the law of C + E is
    # 2^-n WHT([C^perp] (1-2p)^wt), with [C^perp] = WHT([C]) / |C|.
    size = 1 << n
    noise = np.float_power(1 - 2 * float(p), _pattern_weights(n)[0])
    mi_acc = 0.0
    for dim, w, words in _codeword_blocks([family], row_words=size):
        law = np.zeros((len(words), size))
        law[np.arange(len(words))[:, None], words] = 1.0
        walsh_hadamard(law)
        law *= noise * 2.0 ** -(n + dim)
        walsh_hadamard(law)
        logs = np.zeros_like(law)
        np.log2(law, out=logs, where=law > 0)
        h_cond = -(law * logs).sum(axis=1)
        mi_acc += w * float((n - h_cond).sum())
    mi = mi_acc / family.total_weight
    floor = 1 - binary_entropy(min(p, 1 - p))
    return SimResult(mi, n, {"p": p, "floor": floor})
