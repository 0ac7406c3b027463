"""Exact desk-scale channel simulation: decoding, family averages, key
distillation, and wiretap security evaluation.

Every decoding path uses one coset-leader table keyed by the syndromes Hx
of ``gf2.syndromes``, labels and leaders computed once per code in one pass
over all 2^n error patterns, H a code's dual basis, a CodeFamily member's
parity rows (``universality._parity_rows``) or a hash member's own matrix
(whose kernel is its code); the cap n <= 16 bounds that work.
Family averages take one (members, rows) array, table a chunk of members
in one pass and sum one weighted histogram of error weights per family.
Exact wiretap leakage comes from the joint (phase, bit) error histogram
over syndrome labels, capped at n <= 10 (4^n error pairs), and the leaky
family's from each member's histogram of noise syndromes.
Error probabilities are exact rationals.  A sampled family average, of
exact or Monte Carlo members alike, carries a distribution-free one-sided
99% upper limit.  A result carries its bounds, at the family's own ε, as
numbers and compares nothing: criterion 5 checks a sampled family
average's upper limit against them, and criterion 6 the exact leakage.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate

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
)
from .universality import CodeFamily, _parity_rows, counterexample_family, epsilon_universal

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


def _syndrome_tables(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome label of every n-bit word, and the coset leaders they key,
    for the K row sets of a (K, m) int array: labels (K, 2^n) and leaders
    (K, 2^m).  labels[k, x] = H_k x, H_k the matrix of rows[k]; leaders[k, s]
    is the least (weight, value) word labelled s, or -1 if none is
    (dependent or zero rows reach fewer labels).  Rows spanning C^perp, a
    code's dual basis or a hash member's own matrix rows, key the cosets of
    C; which rows do so changes no leader.  The leaders take one
    np.minimum.at per row set, which needs no K 2^n array of flat indices
    or keys.  n <= 16, and callers bound K 2^n, so every array is int32.
    """
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ERROR_ENUM_CAP}")
    rows = np.asarray(rows, dtype=np.int32)
    labels = syndromes(rows, n)
    _, key = _pattern_weights(n)
    unreached = np.iinfo(np.int32).max
    best = np.full((len(rows), 1 << rows.shape[1]), unreached, dtype=np.int32)
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
    words = span(np.array(c2.basis, dtype=np.int64))
    (correct,) = _correct_weights(leaders, words, c1.n).tolist()
    return _mean_error(correct, 1, c1.n, p)


def _mean_error(correct, total: int, n: int, p: Fraction) -> Fraction:
    """(b^n W - sum_w t_w H_w) / (b^n W): the mean error probability of members
    of total weight W whose weighted histogram of correctly decoded error
    weights is H = ``correct``, with p = a/b and t_w = a^w (b - a)^(n - w)."""
    a, b = p.numerator, p.denominator
    den = b**n * total
    return Fraction(den - sum(a**w * (b - a) ** (n - w) * h for w, h in enumerate(correct)), den)


def _correct_weights(leaders: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Row k: the weight histogram of the errors that row k of the
    _syndrome_tables leaders decodes into C2, a code of length n inside
    that row's code C1, given by its codewords ``words``.  A word decodes
    correctly iff its error differs from its coset leader by an element of
    C2.  Each member contributes its 2^rank reached leaders times
    |C2| <= 2^(n - rank) words, so K members make at most K 2^n."""
    count = len(leaders)
    weight, _ = _pattern_weights(n)
    member, slot = np.nonzero(leaders >= 0)
    correct = np.bitwise_xor.outer(leaders[member, slot], words)
    flat = member[:, None] * (n + 1) + weight[correct]
    return np.bincount(flat.ravel(), minlength=count * (n + 1)).reshape(count, n + 1)


def family_average_error(
    family,
    p,
    R: float,
    mode: str = "exact",
    base: LinearCode | None = None,
    sample_count: int | None = None,
    seed: int | None = None,
) -> SimResult:
    """Average decoding error probability of a code or hash family on a BSC.

    family: a CodeFamily (full weighted average) or a HashFamily, in which
    case sample_count and seed select exact-per-member evaluation over a
    seeded sample of k members, reported with Hoeffding's one-sided 99%
    upper limit min(1, mean + sqrt(ln(100) / 2k)) (k independent uniform
    members, each value in [0, 1], unbiased in monte_carlo mode); each
    member walks 2^n patterns, so sample_count * 2^n is capped at
    SAMPLE_PATTERN_CAP before any member is sampled.  A hash member is
    decoded through its own matrix M.  With `base` given, each member is
    an outer code C1 containing it (M b = 0 for every base row b), and the
    message is the coset C1/base.  The attached bounds pair R, the nominal
    rate t_min / n, with the family's minimum-dimension ε: 1 for every hash
    kind, else the counted one (1 for {0} alone, whose ε is 0; with a
    base, it counts the base's own words too, so the bounds are loose).
    `mode` is "exact" or, for a HashFamily only, "monte_carlo" (MC_TRIALS
    trials).

    Members are tabled in chunks of at most CHUNK_PATTERN_CAP patterns
    (_syndrome_tables).  An exact mean comes from one histogram of correctly
    decoded error weights, each member's times its weight, summed over the
    family in exact integers (_mean_error).  Monte Carlo member i draws the
    random() stream of its own random.Random(seed + i) (_mc_errors).
    """
    (res,) = _family_average_errors(family, [p], R, mode, base, sample_count, seed)
    return res


def _family_average_errors(family, ps, R, mode="exact", base=None, sample_count=None,
                           seed=None) -> list[SimResult]:
    """family_average_error at each crossover probability of ``ps``, one
    SimResult per p, from one sample of members: each chunk's tables and,
    in exact mode, the weighted histogram are built once for every p.  In
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
    n = family.n
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ERROR_ENUM_CAP}")
    if isinstance(family, CodeFamily):
        members, weights = _parity_rows(family), family._weight_array
        total = family.total_weight
        epsilon = float(epsilon_universal(family).epsilon) or 1.0
    else:
        epsilon = 1.0  # universal_2: Pr[Mx = 0] <= 2^-m at x != 0, met at some x
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
        weights, total = np.ones(sample_count, dtype=np.int64), sample_count
    c2 = base if base is not None else LinearCode.zero(n)
    if c2.n != n:
        raise ValueError("C2 is not a subcode of C1")
    words = span(np.array(c2.basis, dtype=np.int64))
    if mode == "exact":
        # hist[w] = sum_k w_k correct_k[w] <= W 2^n, in Python ints past int64
        dtype = np.int64 if total << n < 1 << 63 else object
        hist = np.zeros(n + 1, dtype=dtype)
    else:
        errors = [_mc_errors(range(seed, seed + len(members)), n, MC_TRIALS, float(pf))
                  for pf in pfs]
        inside = np.zeros(1 << n, dtype=bool)
        inside[words] = True
        values = [[] for _ in pfs]  # each member's estimate
    chunk = max(1, CHUNK_PATTERN_CAP >> n)
    for start in range(0, len(members), chunk):
        labels, leaders = _syndrome_tables(members[start : start + chunk], n)
        if labels[:, list(c2.basis)].any():
            raise ValueError("C2 is not a subcode of C1")
        if mode == "exact":
            hist += (weights[start : start + chunk].astype(dtype, copy=False)
                     @ _correct_weights(leaders, words, n).astype(dtype, copy=False))
        else:
            for vals, errs in zip(values, errors):
                vals += [_mc_error_prob(lab, lead, inside, next(errs))
                         for lab, lead in zip(labels, leaders)]
        del labels, leaders  # free this chunk's tables before the next is built
    k_start = 0 if base is not None else 1
    results = []
    for i, pf in enumerate(pfs):
        mean = (_mean_error(hist.tolist(), total, n, pf) if mode == "exact"
                else sum(values[i]) / total)
        ci = (None if isinstance(family, CodeFamily)
              else min(1.0, float(mean) + math.sqrt(math.log(100) / (2 * sample_count))))
        w_binom = WeightDistribution.binomial(n, pf)
        results.append(SimResult(
            mean,
            n,
            {"p": str(pf), "R": R, "epsilon": epsilon, "mode": mode},
            bounds=[
                gallager_family_bound(n, R, float(pf), epsilon),
                weighted_decoding_bound(w_binom, R, max(epsilon, 1.0), k_start),
            ],
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
    (res,) = _wiretap_evals([(pxz, c1, c2)], mode)
    return res


def _wiretap_evals(cases, mode: str = "exact") -> list[SimResult]:
    """wiretap_eval of each (pxz, c1, c2) of ``cases``, one SimResult per
    case: every case is checked and its remaining phase error computed in
    order, and in exact mode their leakages come from one stacked
    _coset_key_leakages call."""
    if mode not in ("exact", "phase_only"):
        raise ValueError(f"unknown mode: {mode}")
    results, exact = [], []
    for pxz, c1, c2 in cases:
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
        results.append(SimResult(float(p_ph_remaining), n, params, bounds=[
            BoundReport("trace_distance", d1_bound, params),
            BoundReport("holevo", chi_bound, params),
        ]))
        exact.append((tables, c1, c2))
    if mode == "exact" and results:
        for res, (d1, chi) in zip(results, _coset_key_leakages(exact)):
            res.exact_value, res.params["holevo"] = d1, chi
    return results


def _coset_key_leakages(cases) -> list[tuple[float, float]]:
    """Trace distance from ideal and Holevo information of the coset key,
    for each (tables, C1, C2) of ``cases``.

    Eve's state splits into orthogonal blocks, one per bit-error word z and
    coset K of C2^perp holding the phase-error word.  In a block, key r
    holds the rank-one state sum_J (-1)^(r.J) sqrt(q_J) |J> over the 2^l
    cosets J of C1^perp inside K, with q_J = P(Z = z, X in J), and Eve's
    marginal is diag(q).  So chi = sum q log2(Q / q) with Q = sum_J q_J,
    and each block adds ||sqrt(q) sqrt(q)^T - diag(q)||_1 to d1.  That
    matrix has trace 0 and one positive eigenvalue lambda, so its norm is
    2 lambda, the root in [0, Q] of sum_J q_J / (lambda + q_J) = 1.

    The joint law [x, z] is built by outer products, each entry the one
    product np.kron would form.  Cases with the same number J of cosets
    share one bisection: each case's [K, J, z] array becomes the columns
    [J, K z] of one [J, blocks] stack, so each J sum runs down the rows in
    the order of a single case's.  Memory: every case's q at once, plus two
    arrays the size of the largest same-J group's stack.
    """
    qs, chis = [], []
    for tables, c1, c2 in cases:
        n = c1.n
        joint = np.ones((1, 1))
        for t in tables:
            joint = (joint[:, None, :, None] * t.reshape(2, 2)[None, :, None, :]).reshape(
                2 * len(joint), -1)  # [x, z]
        labels = syndromes(c2.basis + tuple(complement_basis(c1, c2)), n)
        q = np.zeros((1 << c1.dim, 1 << n))
        np.add.at(q, labels, joint)
        q = q.reshape(1 << c2.dim, 1 << (c1.dim - c2.dim), 1 << n)  # [K, J, z]
        big_q = q.sum(axis=1, keepdims=True)
        support = q > 0
        ratio = np.divide(big_q, q, out=np.ones_like(q), where=support)
        chis.append(float((q * np.log2(ratio)).sum()))
        qs.append(q)
    groups: dict[int, list[int]] = {}
    for i, q in enumerate(qs):
        groups.setdefault(q.shape[1], []).append(i)
    d1s = [0.0] * len(qs)
    for cosets, group in groups.items():
        stack = np.concatenate(
            [qs[i].transpose(1, 0, 2).reshape(cosets, -1) for i in group], axis=1)
        lo = _leading_eigenvalues(stack)
        widths = [qs[i].shape[0] * qs[i].shape[2] for i in group]
        for i, end, width in zip(group, accumulate(widths), widths):
            d1s[i] = 2 * float(lo[end - width:end].reshape(qs[i].shape[0], 1, -1).sum())
    return list(zip(d1s, chis))


def _leading_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """For each column q of ``stack`` [J, blocks], the root lambda in
    [0, sum q] of sum_J q_J / (lambda + q_J) = 1, by BISECT_STEPS halvings."""
    support = stack > 0
    lo, hi = np.zeros(stack.shape[1]), stack.sum(axis=0)
    terms = np.zeros_like(stack)
    for _ in range(BISECT_STEPS):
        mid = (lo + hi) / 2
        np.divide(stack, mid + stack, out=terms, where=support)
        above = terms.sum(axis=0) > 1
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return lo


def counterexample_leakage(n: int, p: float, family: CodeFamily | None = None,
                           seed: int | None = None) -> SimResult:
    """Eve's mutual information about the coset key, averaged over a
    CodeFamily (by default the zero-padded leaky family), with the leaky
    family's floor 1 - h(p).

    Alice sends a uniform element of the key coset over a noiseless channel
    to Bob while Eve sees it through a binary symmetric channel; in the
    leaky family the last bit survives hashing for every member, so the
    information stays bounded away from zero.  A member C of dimension k
    with parity rows H gives Eve C + E with law P(S = Hy)/|C|, S = HE the
    noise syndrome, so I = n - k - H(S): one noise histogram by label per
    member, and one math.fsum over the family, whatever the chunking.
    """
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds cap {ERROR_ENUM_CAP}")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if family is None:
        family = counterexample_family(n, seed=seed)
    elif family.n != n:
        raise ValueError(f"family length {family.n} differs from n={n}")
    weight, _ = _pattern_weights(n)
    q = float(p)
    noise = np.float_power(q, weight) * np.float_power(1 - q, n - weight)
    rows = _parity_rows(family)
    labelled = 1 << rows.shape[1]
    entropies = []  # H(S) per member
    chunk = max(1, CHUNK_PATTERN_CAP >> n)
    for start in range(0, len(rows), chunk):
        labels = syndromes(rows[start:start + chunk], n)
        labels += np.arange(len(labels))[:, None] * labelled
        law = np.bincount(labels.ravel(), np.broadcast_to(noise, labels.shape).ravel(),
                          len(labels) * labelled).reshape(len(labels), labelled)
        logs = np.zeros_like(law)
        np.log2(law, out=logs, where=law > 0)
        entropies += (-(law * logs).sum(axis=1)).tolist()
    mi = math.fsum(w * (n - k - h) for w, k, h in
                   zip(family.weights, family._dims.tolist(), entropies)) / family.total_weight
    floor = 1 - binary_entropy(min(p, 1 - p))
    return SimResult(mi, n, {"p": p, "floor": floor})
