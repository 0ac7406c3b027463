"""Exact desk-scale channel simulation: decoding, family averages, key
distillation, and wiretap security evaluation.

Every decoding path uses one coset-leader table keyed by dual-code
syndromes, built in one vectorised pass over all 2^n error patterns; the
cap n <= 16 bounds that work at 2^16 patterns.  Error probabilities are
exact rationals; Monte Carlo estimates always carry two-sided 99%
confidence intervals and bound checks use the upper limit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .bounds import (
    BoundReport,
    binary_entropy,
    eta,
    gallager_family_bound,
    weighted_decoding_bound,
)
from .cqstate import d1_distance, holevo, pauli_wiretap_state
from .gf2 import (
    BinaryMatrix,
    BitVector,
    LinearCode,
    WeightDistribution,
    complement_basis,
    dual,
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
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass
class SimResult:
    exact_value: object  # Fraction or float
    n: int
    params: dict
    bounds: list = field(default_factory=list)
    ci_upper: float | None = None

    def __post_init__(self):
        check = self.ci_upper if self.ci_upper is not None else float(self.exact_value)
        for b in self.bounds:
            if not isinstance(b, BoundReport):
                continue
            if b.dominated_quantity is not None:
                continue  # the report already checked its own quantity
            if check > b.value + 1e-9:
                raise ValueError(
                    f"exact value {check} exceeds bound {b.formula_id} = {b.value}"
                )

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


def _syndrome_table(c: LinearCode) -> tuple[BinaryMatrix, list[int]]:
    """Parity-check matrix H (rows span C^perp) and the coset leaders of C.

    leaders[Hx] is the minimum-(weight, value) element of x + C.  The table
    comes from one vectorised pass over all 2^n patterns: the syndrome of
    every pattern is an XOR of column syndromes, and each syndrome keeps its
    pattern of least (weight, value) key.  n <= 16 bounds that work at 2^16.
    """
    n = c.n
    if n > ERROR_ENUM_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ERROR_ENUM_CAP}")
    h = BinaryMatrix(dual(c).basis, n)
    syndrome = np.zeros(1 << n, dtype=np.int32)
    for j in range(n):
        syndrome[1 << j : 2 << j] = syndrome[: 1 << j] ^ h.mul_vector(1 << j)
    _, key = _pattern_weights(n)
    best = np.full(1 << h.nrows, np.iinfo(np.int32).max, dtype=np.int32)
    np.minimum.at(best, syndrome, key)
    return h, (best & ((1 << n) - 1)).tolist()


def decode(c: LinearCode, y: BitVector, rule: str = "min_distance",
           p: float | None = None) -> BitVector:
    """Nearest codeword; ties go to the lexicographically smallest error.

    The maximum-likelihood rule needs p in (0, 1/2], where it reduces to
    minimum Hamming distance with the same tie-break.  Needs n <= 16.
    """
    if rule == "max_likelihood":
        if p is None or not 0 < p <= 0.5:
            raise ValueError("max_likelihood needs p in (0, 1/2]")
    elif rule != "min_distance":
        raise ValueError(f"unknown rule: {rule}")
    if y.n != c.n:
        raise ValueError("length mismatch")
    h, leaders = _syndrome_table(c)
    return BitVector(c.n, y.value ^ leaders[h.mul_vector(y.value)])


def exact_error_prob(code, p, rule: str = "min_distance") -> Fraction:
    """Exact decoding error probability over all 2^n error patterns.

    `code` is a LinearCode (block decoding) or a pair (C1, C2) with
    C2 ⊆ C1 (coset message decoding: decode in C1, report the coset mod
    C2).  Exact rational in p.
    """
    if rule not in ("min_distance", "max_likelihood"):
        raise ValueError(f"unknown rule: {rule}")
    if isinstance(code, LinearCode):
        c1, c2 = code, LinearCode.zero(code.n)
    else:
        c1, c2 = code
        if not c1.contains_code(c2):
            raise ValueError("C2 is not a subcode of C1")
    n = c1.n
    p = Fraction(p)
    if not 0 <= p <= Fraction(1, 2):
        raise ValueError("p must be in [0, 1/2]")
    _, leaders = _syndrome_table(c1)
    # A received word decodes correctly iff its error pattern differs from
    # its coset leader (mod C1) by an element of C2.
    weight, _ = _pattern_weights(n)
    correct = np.bitwise_xor.outer(
        np.array(leaders, dtype=np.int32),
        np.fromiter(c2.codewords(), dtype=np.int32, count=len(c2)),
    )
    correct_by_weight = np.bincount(weight[correct].ravel(), minlength=n + 1)
    # With p = a/b, P(correct) = sum_w cnt_w a^w (b - a)^(n - w) / b^n.
    a, b = p.numerator, p.denominator
    num = sum(
        cnt * a**w * (b - a) ** (n - w)
        for w, cnt in enumerate(correct_by_weight.tolist())
    )
    return Fraction(b**n - num, b**n)


def family_average_error(
    family,
    p,
    R: float,
    epsilon: float = 1.0,
    mode: str = "exact",
    base: LinearCode | None = None,
    sample_count: int | None = None,
    seed: int | None = None,
    mc_trials: int = 2000,
) -> SimResult:
    """Average decoding error probability of a code or hash family on a BSC.

    family: a CodeFamily (full weighted average) or a HashFamily, in which
    case sample_count and seed select exact-per-member evaluation over a
    seeded sample, reported with a 99% confidence interval.  With `base`
    given, each member is an outer code C1 containing it, and the message
    is the coset C1/base.  R and epsilon name the family's nominal rate and
    universality parameter for the attached bounds.
    """
    pf = Fraction(p)
    if not 0 <= pf <= Fraction(1, 2):
        raise ValueError("p must be in [0, 1/2]")
    if isinstance(family, CodeFamily):
        n = family.n
        values = []
        weights = family.weights
        for code in family.codes:
            target = (code, base) if base is not None else code
            values.append(exact_error_prob(target, pf))
        mean = sum(w * v for w, v in zip(weights, values)) / family.total_weight
        ci = None
    else:
        if sample_count is None or seed is None:
            raise ValueError("hash families need sample_count and seed")
        from .hashfam import kernel_code

        n = family.n
        members = family.sample(sample_count, seed)
        if mode == "exact":
            values = []
            for h in members:
                code = kernel_code(h)
                target = (code, base) if base is not None else code
                values.append(exact_error_prob(target, pf))
        elif mode == "monte_carlo":
            values = [
                _mc_error_prob(kernel_code(h), float(pf), mc_trials,
                               random.Random(seed + i), base)
                for i, h in enumerate(members)
            ]
        else:
            raise ValueError(f"unknown mode: {mode}")
        mean = sum(values) / len(values)
        fl = [float(v) for v in values]
        mu = sum(fl) / len(fl)
        var = sum((v - mu) ** 2 for v in fl) / max(len(fl) - 1, 1)
        ci = mu + Z_99 * math.sqrt(var / len(fl))

    k_start = 0 if base is not None else 1
    w_binom = WeightDistribution.binomial(n, pf)
    bound_sum = weighted_decoding_bound(w_binom, R, max(epsilon, 1.0), "sum", k_start)
    bound_gal = gallager_family_bound(n, R, float(pf), epsilon)
    return SimResult(
        mean,
        n,
        {"p": str(pf), "R": R, "epsilon": epsilon, "mode": mode},
        bounds=[bound_gal, bound_sum],
        ci_upper=ci,
    )


def _mc_error_prob(c1: LinearCode, p: float, trials: int, rng: random.Random,
                   base: LinearCode | None) -> float:
    c2 = base if base is not None else LinearCode.zero(c1.n)
    h, leaders = _syndrome_table(c1)
    wrong = 0
    for _ in range(trials):
        e = 0
        for i in range(c1.n):
            if rng.random() < p:
                e |= 1 << i
        decoded = e ^ leaders[h.mul_vector(e)]
        if not c2.contains(decoded):
            wrong += 1
    return wrong / trials


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
    representatives of C1/C2: the elements of span(complement_basis(C1, C2))
    that `gf2.cosets` lists, found by elimination without enumerating them.
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
    C2; s is the representative.  Elimination carries, for each echelon
    row, its component in span(comp).
    """
    rows: dict[int, tuple[int, int]] = {}  # leading bit -> (row, comp part)
    comp = complement_basis(c1, c2)
    for v, part in [(b, b) for b in comp] + [(b, 0) for b in c2.basis]:
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


def wiretap_eval(
    n: int,
    pxz,
    c1: LinearCode,
    c2: LinearCode,
    mode: str = "exact",
) -> SimResult:
    """Security of coset keys over a Pauli channel against the environment.

    exact mode (n <= 4) diagonalizes Eve's state for the true trace
    distance and Holevo information; phase_only (n <= 16) reports only the
    phase-error probability and its implied bounds.  Requires identical
    phase-error marginals across qubits.
    """
    p_ph_each = [t[2] + t[3] for t in pxz]
    if max(p_ph_each) - min(p_ph_each) > 1e-12:
        raise ValueError("qubits must share the phase-error marginal")
    p_ph = Fraction(p_ph_each[0]).limit_denominator(10**9)
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
    if mode != "exact":
        raise ValueError(f"unknown mode: {mode}")
    rho = pauli_wiretap_state(n, pxz, c1, c2, mode="coset_key")
    d1 = d1_distance(rho)
    chi = holevo(rho)
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
    for dim, w, words in _codeword_blocks(family, row_words=size):
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
