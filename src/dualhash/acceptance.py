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
from itertools import accumulate

import numpy as np

from .bounds import (
    approach_ratio,
    binary_entropy,
    qkd_bounds,
    reliability_e,
)
from .cqstate import (
    _d2,
    _sigma_powers,
    code_bias,
    convolve,
    d1_distance,
    h2_d2_hmin,
    hash_marginal,
    random_cq_state,
    uniform_on_code,
    verify_pa,
    walsh_bias,
    walsh_transform,
)
from .gf2 import LinearCode, dual
from .hashfam import HashFamily, HashFamilySpec
from .simulator import counterexample_leakage, family_average_error, wiretap_eval
from .universality import (
    CodeFamily,
    SearchBudgetError,
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
    subspaces_of,
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


def criterion_2(seed: int):
    """Duality bound soundness on random families; tight-family equality;
    optimal and epsilon = 1 families map to optimal / 2-almost duals."""
    rng = random.Random(seed)
    for i in range(1000):
        n = rng.randrange(3, 11)
        t = rng.randrange(1, n)
        codes = []
        for _ in range(rng.randrange(2, 9)):
            d = t if rng.random() < 0.7 else min(n, t + rng.randrange(1, 3))
            codes.append(random_code(n, d, rng))
        if all(c.dim > t for c in codes):
            codes.append(random_code(n, t, rng))
        fam = CodeFamily(codes)
        rep, drep = epsilon_reports(fam, "min_dim")
        bound = duality_bound(rep.epsilon, fam.t_min, n)
        if drep.max_prob > bound:
            return False, f"family {i}: dual probability {drep.max_prob} > bound {bound}"

    n, t, xv = 6, 3, 1
    for eps in (Fraction(1), epsilon_floor(t, n), Fraction(3, 2), Fraction(56, 31)):
        fam = tight_family(n, t, eps, xv)
        rep = epsilon_universal(fam, "min_dim")
        if rep.epsilon > eps:
            return False, f"tight family at eps={eps} measures {rep.epsilon}"
        # x lies in C^perp when it is orthogonal to every basis row of C
        hit = sum(
            w for c, w in zip(fam.codes, fam.weights)
            if not any((xv & row).bit_count() & 1 for row in c.basis)
        )
        prob = Fraction(hit, fam.total_weight)
        bound = duality_bound(eps, t, n)
        if prob != bound:
            return False, f"tight family at eps={eps}: Pr = {prob} != bound {bound}"

    # an optimally universal family (all t-dim subspaces) has an optimally
    # universal dual family
    grass = CodeFamily(list(subspaces_of(LinearCode.full(6), 3)))
    if epsilon_universal(grass, "min_dim").epsilon != epsilon_floor(3, 6):
        return False, "all-subspace family is not optimally universal"
    if epsilon_dual_universal(grass, "max_dim").epsilon != epsilon_floor(3, 6):
        return False, "dual of the all-subspace family is not optimally universal"

    # a universal_2 family (epsilon = 1) has a 2-almost dual universal dual
    toep = CodeFamily.from_hash_family(HashFamily(HashFamilySpec("toeplitz", 6, 2)))
    trep = epsilon_universal(toep, "min_dim")
    if trep.epsilon != 1:
        return False, f"Toeplitz family epsilon = {trep.epsilon} != 1"
    tdual = epsilon_dual_universal(toep, "min_dim")
    if tdual.epsilon > 2:
        return False, f"Toeplitz dual epsilon = {tdual.epsilon} > 2"
    return True, (
        "1000 random families within the duality bound; tight families meet it "
        "with equality; optimal and epsilon=1 corollaries hold"
    )


def criterion_3(seed: int):
    """Character-sum indicator identity (exact) and the bias lemma
    delta^2 <= epsilon 2^(-t_min) for every family constructor."""
    rng = random.Random(seed)
    for n in (4, 8, 12):
        for _ in range(3):
            t = rng.randrange(1, n)
            c = random_code(n, t, rng)
            spectrum = walsh_transform(uniform_on_code(c))
            d = dual(c)
            for x in range(1 << n):
                expected = 1 if d.contains(x) else 0
                if spectrum[x] != expected:
                    return False, f"indicator identity fails at n={n}, x={x}"

    families = {
        "modified_toeplitz(6,2)": HashFamily(HashFamilySpec("modified_toeplitz", 6, 2)),
        "modified_toeplitz(8,3)": HashFamily(HashFamilySpec("modified_toeplitz", 8, 3)),
        "modified_toeplitz(10,4)": HashFamily(HashFamilySpec("modified_toeplitz", 10, 4)),
        "toeplitz(6,2)": CodeFamily.from_hash_family(
            HashFamily(HashFamilySpec("toeplitz", 6, 2))
        ),
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
    spectral = walsh_bias([uniform_on_code(c) for c in small.codes], small.weights)
    if spectral.delta_sq != code_bias(small).delta_sq:
        return False, "spectral and counting bias disagree"
    return True, (
        "indicator identity exact up to n=12; bias lemma holds for all "
        f"{len(families)} constructors"
    )


def criterion_4(seed: int):
    """Privacy-amplification bound, the proof's block identity, and the
    d1/d2 and H2/Hmin relations on random c-q states."""
    rng = np.random.default_rng(seed)
    worst_gap = -math.inf
    families = {}  # five (key_bits, m) pairs occur; each family is built once
    for i in range(200):
        key_bits = int(rng.integers(1, 4))
        eve_dim = int(rng.integers(2, 9))
        rho = random_cq_state(key_bits, eve_dim, rng)
        m = int(rng.integers(1, min(key_bits, 6 // key_bits) + 1))
        if (key_bits, m) not in families:
            families[key_bits, m] = CodeFamily.from_hash_family(
                HashFamily(HashFamilySpec("random_linear", key_bits, m))
            )
        fam = families[key_bits, m]
        lhs, rhs = verify_pa(rho, fam)
        if lhs > rhs + 1e-9:
            return False, f"state {i}: E_r d2 = {lhs} > eps 2^-H2 = {rhs}"
        worst_gap = max(worst_gap, lhs - rhs)

        r = int(rng.integers(0, fam.total_weight))
        member = fam.codes[bisect_right(list(accumulate(fam.weights)), r)]
        s_q, _ = _sigma_powers(rho.rho_e())
        noisy = convolve(rho, [float(x) for x in uniform_on_code(member)])
        _, d2_noisy = _d2(noisy, s_q)
        _, d2_marg = _d2(hash_marginal(rho, member), s_q)
        if abs(d2_noisy - 2.0 ** (-member.dim) * d2_marg) > 1e-10:
            return False, f"state {i}: block identity off by more than 1e-10"

        h2, d2, hmin = h2_d2_hmin(rho)
        if d1_distance(rho) > math.sqrt(rho.num_values) * math.sqrt(d2) + 1e-9:
            return False, f"state {i}: d1 exceeds sqrt(|A| d2)"
        if h2 < hmin - 1e-9:
            return False, f"state {i}: H2 = {h2} < Hmin = {hmin}"
    return True, f"200 states pass; worst lhs-rhs gap {worst_gap:.3e}"


def criterion_5(seed: int):
    """Family-average decoding error within the optimized exponent bound;
    zero-noise reliability; divergence-form identity residual."""
    for rate, t in ((1 / 3, 4), (1 / 2, 6)):
        for p in (Fraction(1, 20), Fraction(1, 10)):
            hf = HashFamily(HashFamilySpec("random_linear", 12, 12 - t))
            res = family_average_error(
                hf, p, rate, epsilon=1.0, sample_count=1000, seed=seed
            )
            gal = next(b for b in res.bounds if b.formula_id == "family_average")
            if res.ci_upper > gal.value + 1e-9:
                return False, (
                    f"(R={rate}, p={p}): upper CI {res.ci_upper} "
                    f"exceeds bound {gal.value}"
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
    checked = 0
    for n, code_pairs in pairs.items():
        for p in (0.05, 0.1, 0.25):
            pxz = [(1 - p, 0.0, p, 0.0)] * n
            for c1, c2 in code_pairs:
                res = wiretap_eval(pxz, c1, c2, mode="exact")
                d1 = res.exact_value
                chi = res.params["holevo"]
                d1_bound = next(b for b in res.bounds if b.formula_id == "trace_distance")
                chi_bound = next(b for b in res.bounds if b.formula_id == "holevo")
                if d1 > d1_bound.value + 1e-9 or chi > chi_bound.value + 1e-9:
                    return False, f"n={n}, p={p}: leakage exceeds its bound"
                checked += 1
        for pxz in ([(1.0, 0.0, 0.0, 0.0)] * n, [(0.9, 0.1, 0.0, 0.0)] * n):
            for c1, c2 in code_pairs:
                res = wiretap_eval(pxz, c1, c2, mode="exact")
                if res.exact_value != 0.0 or res.params["holevo"] != 0.0:
                    return False, f"n={n}: phase-noiseless channel leaks"
    return True, f"{checked} dephasing evaluations within bounds; zero-leakage exact"


def criterion_7(seed: int):
    """Zero-padded family leaks at least 1 - h(p) bits despite being
    2-almost universal."""
    res = counterexample_leakage(6, 0.1)
    floor = res.params["floor"]
    fam = counterexample_family(6)
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
