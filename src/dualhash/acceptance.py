"""Executable acceptance checks for the whole package.

Each criterion is a function taking a seed and returning (passed, detail).
The CLI `verify` subcommand and the acceptance test module both run these,
so the pass/fail lines printed by either are produced by the same code.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

import numpy as np

from .bounds import (
    approach_ratio,
    binary_entropy,
    qkd_bounds,
    reliability_e,
)
from .cqstate import (
    _convolve,
    _d1,
    _d2,
    _h2_d2_hmin,
    _hash_marginals,
    _sigma_powers,
    _verify_pa,
    code_bias,
    random_cq_state,
)
from .gf2 import BinaryMatrix, LinearCode, dual, kernel, span, syndromes, walsh_hadamard
from .hashfam import HashFamily, HashFamilySpec
# criterion 5 calls the batched form; family_average_error stays bound here
# because perfbench's tracer test checks that this module's binding is wrapped
from .simulator import (  # noqa: F401
    _family_average_errors,
    _wiretap_evals,
    counterexample_leakage,
    family_average_error,
)
from .universality import (
    CodeFamily,
    SearchBudgetError,
    _parity_batches,
    _random_rows,
    _subspace_bases,
    counterexample_family,
    duality_bound,
    epsilon_dual_universal,
    epsilon_floor,
    epsilon_reports,
    epsilon_universal,
    permuted_epsilon,
    permuted_pair_epsilon,
    random_code,
    search_permuted_code,
    tight_family,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criteria", "format_results"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} criterion {self.number} ({self.name}) "
            f"[{self.seconds:.1f}s]: {self.detail}"
        )


def criterion_1(seed: int):
    """Modified-Toeplitz families measure epsilon = dual epsilon = 1 exactly."""
    checked = 0
    for n in range(2, 9):
        for m in range(1, min(4, n - 1) + 1):
            rep, drep = epsilon_reports(
                HashFamily(HashFamilySpec("modified_toeplitz", n, m)), "min_dim"
            )
            if rep.t_min != n - m or rep.t_max != n - m:
                return False, f"(n={n}, m={m}): kernel dimension not {n - m}"
            if rep.epsilon != 1:
                return False, f"(n={n}, m={m}): epsilon = {rep.epsilon} != 1"
            if drep.epsilon != 1:
                return False, f"(n={n}, m={m}): dual epsilon = {drep.epsilon} != 1"
            checked += 1
    return True, f"epsilon = dual epsilon = 1 exactly for all {checked} (n, m) pairs"


def _random_families(rng: random.Random):
    """Criterion 2's 1,000 random families as (n, members' parity rows),
    drawn as ``random_code`` draws them."""
    for _ in range(1000):
        n = rng.randrange(3, 11)
        t = rng.randrange(1, n)
        members = []
        for _ in range(rng.randrange(2, 9)):
            d = t if rng.random() < 0.7 else min(n, t + rng.randrange(1, 3))
            members.append(_random_rows(n, d, rng))
        if all(len(rows) < n - t for rows in members):
            members.append(_random_rows(n, t, rng))
        yield n, members


def _duality_margins(n: int, W, t, P, D):
    """W 2^t (duality_bound(ε, t, n) - D / W) with ε = P 2^(n-t) / W, for
    families of W members, smallest dimension t and largest plain and dual
    counts P and D at x != 0: negative iff a family is off the bound."""
    return 2 * (W - P) + (P << n) - (W << t) - (D << t)


def criterion_2(seed: int):
    """Duality bound soundness on random families; tight-family equality;
    optimal and epsilon = 1 families map to optimal / 2-almost duals.

    The random families are counted from their parity rows in stacks
    (``_parity_batches``) and checked in integers (``_duality_margins``);
    the first failing family in drawing order is reported from its
    CodeFamily, ``epsilon_reports`` and ``duality_bound``.
    """
    rng = random.Random(seed)
    off = []
    for n, group, counts in _parity_batches(_random_families(rng)):
        off += [(*group[k], n) for k in np.flatnonzero(_duality_margins(n, *counts) < 0)]
    if off:
        i, members, n = min(off, key=lambda item: item[0])
        fam = CodeFamily([kernel(BinaryMatrix(rows, n)) for rows in members])
        rep, drep = epsilon_reports(fam, "min_dim")
        bound = duality_bound(rep.epsilon, fam.t_min, fam.n)
        if drep.max_prob <= bound:
            raise ArithmeticError(f"family {i}: the integer duality check disagrees with "
                                  f"its reports ({drep.max_prob} <= {bound})")
        return False, f"family {i}: dual probability {drep.max_prob} > bound {bound}"

    n, t, xv = 6, 3, 1
    for eps in (Fraction(1), epsilon_floor(t, n), Fraction(3, 2), Fraction(56, 31)):
        fam = tight_family(n, t, eps, xv)
        rep = epsilon_universal(fam, "min_dim")
        if rep.epsilon > eps:
            return False, f"tight family at eps={eps} measures {rep.epsilon}"
        # x lies in C^perp when it is orthogonal to every basis row of C (a
        # zero padding row of fam.bases always is); each row's parity with
        # x folds into its lowest bit
        parity = fam.bases & xv
        for shift in (32, 16, 8, 4, 2, 1):
            parity ^= parity >> shift
        hit = sum(compress(fam.weights, ~(parity & 1).any(axis=1)))
        prob = Fraction(hit, fam.total_weight)
        bound = duality_bound(eps, t, n)
        if prob != bound:
            return False, f"tight family at eps={eps}: Pr = {prob} != bound {bound}"

    # an optimally universal family (all t-dim subspaces) has an optimally
    # universal dual family
    bases = _subspace_bases(LinearCode.full(6), 3)
    grass = CodeFamily._packed(6, bases, np.ones(len(bases), dtype=np.int64), len(bases))
    if epsilon_universal(grass, "min_dim").epsilon != epsilon_floor(3, 6):
        return False, "all-subspace family is not optimally universal"
    if epsilon_dual_universal(grass, "max_dim").epsilon != epsilon_floor(3, 6):
        return False, "dual of the all-subspace family is not optimally universal"

    # a universal_2 family (epsilon = 1) has a 2-almost dual universal dual
    trep, tdual = epsilon_reports(HashFamily(HashFamilySpec("toeplitz", 6, 2)), "min_dim")
    if trep.epsilon != 1:
        return False, f"Toeplitz family epsilon = {trep.epsilon} != 1"
    if tdual.epsilon > 2:
        return False, f"Toeplitz dual epsilon = {tdual.epsilon} > 2"
    return True, (
        "1000 random families within the duality bound; tight families meet it "
        "with equality; optimal and epsilon=1 corollaries hold"
    )


def _indicator(c: LinearCode) -> np.ndarray:
    """The indicator of c's codewords, an int64 array of 2^n."""
    out = np.zeros(1 << c.n, dtype=np.int64)
    out[span(np.array(c.basis, dtype=np.int64))] = 1
    return out


def criterion_3(seed: int):
    """Character-sum indicator identity (exact) and the bias lemma
    delta^2 <= epsilon 2^(-t_min) for every family constructor.

    The identity sum_(y in C) (-1)^(x.y) = |C| [x in C^perp] is checked on
    every x by one integer Walsh transform of C's indicator.  The counted
    bias of a small family is checked against its spectral form
    delta^2 = max_(x != 0) sum_r (w_r / W) (W_hat_r(x) / |C_r|)^2, from one
    stacked integer transform of the members' indicators.
    """
    rng = random.Random(seed)
    for n in (4, 8, 12):
        for _ in range(3):
            t = rng.randrange(1, n)
            c = random_code(n, t, rng)
            wrong = np.flatnonzero(walsh_hadamard(_indicator(c))
                                   != len(c) * _indicator(dual(c)))
            if wrong.size:
                return False, f"indicator identity fails at n={n}, x={wrong[0]}"

    families = {
        "modified_toeplitz(6,2)": HashFamily(HashFamilySpec("modified_toeplitz", 6, 2)),
        "modified_toeplitz(8,3)": HashFamily(HashFamilySpec("modified_toeplitz", 8, 3)),
        "modified_toeplitz(10,4)": HashFamily(HashFamilySpec("modified_toeplitz", 10, 4)),
        "toeplitz(6,2)": HashFamily(HashFamilySpec("toeplitz", 6, 2)),
        "random_linear(5,2)": CodeFamily.from_hash_family(
            HashFamily(HashFamilySpec("random_linear", 5, 2))
        ),
        "tight(6,3,3/2)": tight_family(6, 3, Fraction(3, 2), 1),
        "counterexample(6)": counterexample_family(6),
    }
    for name, fam in families.items():
        # code_bias(fam).delta_sq is this dual report's max_prob; its dual
        # dimensions are n - t of the family's, so t_min is n - its t_max
        drep = epsilon_dual_universal(fam, "min_dim")
        eps, dsq = drep.epsilon, drep.max_prob
        if dsq > eps * Fraction(1, 1 << (drep.n - drep.t_max)):
            return False, f"{name}: delta^2 = {dsq} > eps 2^-t_min"

    # independent spectral check of the counting-based bias on a small family
    small = CodeFamily.from_hash_family(
        HashFamily(HashFamilySpec("modified_toeplitz", 4, 2))
    )
    spectra = np.zeros((len(small), 1 << small.n), dtype=np.int64)
    np.put_along_axis(spectra, span(small.bases), 1, axis=1)
    walsh_hadamard(spectra)
    # W_hat_r(0) = |C_r|; scale every member to the largest |C|
    size = int(spectra[:, 0].max())
    squares = (spectra * (size // spectra[:, :1])) ** 2
    sums = np.array(small.weights, dtype=np.int64) @ squares
    spectral = Fraction(int(sums[1:].max()), size * size * small.total_weight)
    if spectral != code_bias(small).delta_sq:
        return False, "spectral and counting bias disagree"
    return True, (
        "indicator identity exact up to n=12; bias lemma holds for all "
        f"{len(families)} constructors"
    )


def criterion_4(seed: int):
    """Privacy-amplification bound, the proof's block identity, and the
    d1/d2 and H2/Hmin relations on random c-q states.

    Every check of a state is against sigma = rho_E.  The block identity
    convolves the state with the uniform distribution on a random member.
    All 200 states are drawn first; the states of one (key length, Eve
    dimension) shape are checked as one stack, with one eigendecomposition
    per sigma, and the states are then read in the order they were drawn,
    so the first failure is the one a state-by-state walk would meet.
    """
    rng = np.random.default_rng(seed)
    families = {}  # five (key_bits, m) pairs occur; each family is built once
    members = {}  # (key_bits, m, j): member j's dimension, syndrome labels, noise
    states = []
    for _ in range(200):
        key_bits = int(rng.integers(1, 4))
        eve_dim = int(rng.integers(2, 9))
        rho = random_cq_state(key_bits, eve_dim, rng)
        m = int(rng.integers(1, min(key_bits, 6 // key_bits) + 1))
        if (key_bits, m) not in families:
            fam = CodeFamily.from_hash_family(
                HashFamily(HashFamilySpec("random_linear", key_bits, m))
            )
            families[key_bits, m] = fam, list(accumulate(fam.weights))
        fam, cumulative = families[key_bits, m]
        r = int(rng.integers(0, fam.total_weight))
        j = bisect_right(cumulative, r)
        if (key_bits, m, j) not in members:
            member = fam.codes[j]
            members[key_bits, m, j] = (member.dim, syndromes(dual(member).basis, key_bits),
                                       _indicator(member) / len(member))
        states.append((rho.blocks, fam, members[key_bits, m, j]))

    stacks = {}
    for i, (blocks, _, _) in enumerate(states):
        stacks.setdefault(blocks.shape, []).append(i)
    checks = [None] * len(states)
    for (size, _, _), index in stacks.items():
        blocks = np.stack([states[i][0] for i in index])
        dims, labels, noise = (np.array(v) for v in zip(*(states[i][2] for i in index)))
        s_q, s_h = _sigma_powers(blocks.sum(axis=1))
        lhs, rhs = _verify_pa(blocks, [states[i][1] for i in index], s_q)
        _, d2_noisy = _d2(_convolve(blocks, noise), s_q, size)
        _, d2_marg = _d2(_hash_marginals(blocks, labels), s_q, size >> dims)
        off = np.abs(d2_noisy - 2.0 ** -dims * d2_marg) > 1e-10
        h2, d2, hmin = _h2_d2_hmin(blocks, s_q, s_h)
        d1_over = _d1(blocks) > math.sqrt(size) * np.sqrt(d2) + 1e-9
        for row in zip(index, lhs, rhs, off, d1_over, h2, hmin):
            checks[row[0]] = row[1:]

    worst_gap = -math.inf
    for i, (lhs, rhs, off, d1_over, h2, hmin) in enumerate(checks):
        if lhs > rhs + 1e-9:
            return False, f"state {i}: E_r d2 = {lhs} > eps 2^-H2 = {rhs}"
        worst_gap = max(worst_gap, lhs - rhs)
        if off:
            return False, f"state {i}: block identity off by more than 1e-10"
        if d1_over:
            return False, f"state {i}: d1 exceeds sqrt(|A| d2)"
        if h2 < hmin - 1e-9:
            return False, f"state {i}: H2 = {h2} < Hmin = {hmin}"
    return True, f"200 states pass; worst lhs-rhs gap {worst_gap:.3e}"


def criterion_5(seed: int):
    """Sampled family-average decoding error's upper confidence limit
    within both attached bounds; zero-noise reliability; divergence-form
    identity residual."""
    ps = (Fraction(1, 20), Fraction(1, 10))
    for rate, t in ((1 / 3, 4), (1 / 2, 6)):
        hf = HashFamily(HashFamilySpec("random_linear", 12, 12 - t))
        results = _family_average_errors(hf, ps, rate, sample_count=1000, seed=seed)
        for p, res in zip(ps, results):
            for bound in res.bounds:  # family_average, then weighted_sum
                if res.ci_upper > bound.value + 1e-9:
                    return False, (
                        f"(R={rate}, p={p}): upper CI {res.ci_upper} "
                        f"exceeds bound {bound.value}"
                    )

    for rate in (0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9):
        e_val, _, _ = reliability_e(rate, 0.0)
        if e_val != 1.0 - rate:
            return False, f"E({rate}, 0) = {e_val} != {1.0 - rate}"

    worst = 0.0
    for rate in [i / 20 for i in range(1, 20)]:
        for p in (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4):
            worst = max(worst, reliability_e(rate, p)[2])
    if worst > 1e-6:
        return False, f"identity residual {worst} > 1e-6"
    return True, (
        "4 family configurations within the exponent bound; E(R,0)=1-R exact; "
        f"worst identity residual {worst:.2e}"
    )


def criterion_6(seed: int):
    """Exact trace distance and Holevo information within the phase-error
    bounds; zero leakage for noiseless and bit-error-only channels."""
    even3 = dual(LinearCode.repetition(3))
    even4 = dual(LinearCode.repetition(4))
    pairs = {
        3: [
            (LinearCode.full(3), LinearCode.repetition(3)),
            (LinearCode.full(3), even3),
            (even3, LinearCode.zero(3)),
        ],
        4: [
            (LinearCode.full(4), LinearCode.repetition(4)),
            (LinearCode.full(4), even4),
            (even4, LinearCode.repetition(4)),
        ],
    }
    cases, kinds = [], []  # (n, p) per dephasing case, (n, None) per phase-noiseless one
    for n, code_pairs in pairs.items():
        for p in (0.05, 0.1, 0.25):
            pxz = [(1 - p, 0.0, p, 0.0)] * n
            cases += [(pxz, c1, c2) for c1, c2 in code_pairs]
            kinds += [(n, p)] * len(code_pairs)
        for pxz in ([(1.0, 0.0, 0.0, 0.0)] * n, [(0.9, 0.1, 0.0, 0.0)] * n):
            cases += [(pxz, c1, c2) for c1, c2 in code_pairs]
            kinds += [(n, None)] * len(code_pairs)
    checked = 0
    for (n, p), res in zip(kinds, _wiretap_evals(cases, "exact")):
        d1 = res.exact_value
        chi = res.params["holevo"]
        if p is None:
            if d1 != 0.0 or chi != 0.0:
                return False, f"n={n}: phase-noiseless channel leaks"
            continue
        d1_bound = next(b for b in res.bounds if b.formula_id == "trace_distance")
        chi_bound = next(b for b in res.bounds if b.formula_id == "holevo")
        if d1 > d1_bound.value + 1e-9 or chi > chi_bound.value + 1e-9:
            return False, f"n={n}, p={p}: leakage exceeds its bound"
        checked += 1
    return True, f"{checked} dephasing evaluations within bounds; zero-leakage exact"


def criterion_7(seed: int):
    """Zero-padded family leaks at least 1 - h(p) bits despite being
    2-almost universal."""
    fam = counterexample_family(6)
    res = counterexample_leakage(6, 0.1, family=fam)
    floor = res.params["floor"]
    eps = epsilon_universal(fam, "min_dim").epsilon
    if eps > 2:
        return False, f"family epsilon {eps} > 2"
    if res.exact_value < 0.531 or res.exact_value < floor - 1e-9:
        return False, f"mutual information {res.exact_value} below floor {floor}"
    return True, (
        f"epsilon = {eps} <= 2 yet Eve learns {res.exact_value:.4f} "
        f">= {floor:.4f} bits"
    )


def criterion_8(seed: int):
    """Randomized search finds (n+1)-almost universal permutation orbits
    within budget, in plain and pair modes."""
    n, t, budget = 12, 4, 200
    base = LinearCode.repetition(n)
    plain_ok = pair_ok = 0
    for s in range(50):
        try:
            c = search_permuted_code(n, t, budget, seed + s, mode="plain")
            if c.dim == t and permuted_epsilon(c) <= n + 1:
                plain_ok += 1
        except SearchBudgetError:
            pass
        try:
            c1, c2 = search_permuted_code(
                n, t, budget, seed + s, base=base, mode="extension"
            )
            if (
                c1.dim == t
                and c1.contains_code(c2)
                and permuted_pair_epsilon(c1, c2) <= n + 1
            ):
                pair_ok += 1
        except SearchBudgetError:
            pass
    if plain_ok / 50 < 0.99:
        return False, f"plain mode success rate {plain_ok}/50 < 99%"
    if pair_ok / 50 < 0.99:
        return False, f"pair mode success rate {pair_ok}/50 < 99%"
    return True, f"plain {plain_ok}/50 and pair {pair_ok}/50 searches succeeded"


def criterion_9(seed: int):
    """Approach-comparison ratio exact and monotone; phase-error bounds beat
    the delta-biased ones at large n; the summed phase bound vanishes."""
    for eps in (1.0, 2.0):
        prev = None
        for n in (10, 100, 1000, 10000, 100000):
            r = approach_ratio(n, eps)
            expected = (
                2**1.5 * math.sqrt(eps) / (4 + math.sqrt(n + 1) * math.sqrt(eps))
            )
            if r != expected:
                return False, f"ratio at n={n} is {r}, expected {expected}"
            if prev is not None and not r < prev:
                return False, f"ratio not strictly decreasing at n={n}"
            prev = r

    p_ph = 0.05
    s_val = binary_entropy(p_ph) + 0.1
    for eps in (1.0, 2.0):
        for n in (1000, 10000, 100000):
            length = max(1, int(n * (1 - s_val) / 2))
            iid = qkd_bounds(n, "phase_iid", S=s_val, l=length, p_ph=p_ph, epsilon=eps)
            d1b = qkd_bounds(n, "delta_biased_d1", S=s_val, p_ph=p_ph, epsilon=eps)
            e_val = d1b.aux["reliability_e"]
            # compare trace-distance bounds in the log domain so the
            # comparison stays strict after float underflow
            d1_log2 = math.log2(4 + math.sqrt(n + 1) * math.sqrt(eps)) - 0.5 * n * e_val
            if not iid.aux["value_log2"] < d1_log2:
                return False, f"n={n}, eps={eps}: trace bound not strictly smaller"
            if d1b.value > 0 and not iid.value < d1b.value:
                return False, f"n={n}, eps={eps}: representable values disagree"
            # Holevo forms: smaller argument and smaller slope of the
            # leakage envelope, so strictly smaller whenever representable
            chi_b = qkd_bounds(
                n, "delta_biased_chi_b", S=s_val, p_ph=p_ph, epsilon=eps
            )
            arg_iid_log2 = -n * e_val + math.log2(max(eps, 1.0))
            if not arg_iid_log2 < d1_log2:
                return False, f"n={n}, eps={eps}: Holevo argument not smaller"
            if chi_b.value > 0 and iid.aux["chi_value"] >= chi_b.value:
                return False, f"n={n}, eps={eps}: Holevo bound not smaller"

    prev = None
    final = None
    for n in (100, 1000, 10000, 100000):
        rep = qkd_bounds(n, "phase_sum", S=s_val, p_ph=p_ph, epsilon=1.0)
        lg = rep.aux["value_log2"]
        if prev is not None and not lg < prev:
            return False, f"summed phase bound not decreasing at n={n}"
        prev = lg
        final = lg
    if final > -20:
        return False, f"summed phase bound does not vanish (log2 = {final})"
    return True, (
        "ratio exact and monotone; phase-error bounds strictly dominate; "
        f"summed bound log2 reaches {final:.1f} at n=1e5"
    )


CRITERIA = {
    1: ("modified-Toeplitz exactness", criterion_1),
    2: ("duality bound soundness and tightness", criterion_2),
    3: ("delta-biased equivalences", criterion_3),
    4: ("privacy-amplification lemma", criterion_4),
    5: ("decoding error exponent bounds", criterion_5),
    6: ("wiretap leakage exactness", criterion_6),
    7: ("leaky 2-almost universal family", criterion_7),
    8: ("permuted-code search", criterion_8),
    9: ("approach comparison", criterion_9),
}


def run_criteria(numbers=None, seed: int = 7) -> list[CriterionResult]:
    results = []
    for num in sorted(numbers or CRITERIA):
        name, fn = CRITERIA[num]
        start = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # an honest crash is a failure, not an error
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(num, name, passed, detail, time.perf_counter() - start)
        )
    return results


def format_results(results) -> str:
    return "\n".join(r.line() for r in results)
