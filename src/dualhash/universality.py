"""Measurement and construction of almost-universal code families.

A code family is a weighted multiset of linear codes; "choose r uniformly"
means choosing a member with probability proportional to its integer weight.
All universality parameters are exact rationals computed by exhaustive
codeword counting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .gf2 import (
    BinaryMatrix,
    EnumerationCapError,
    LinearCode,
    bits_to_string,
    complement_basis,
    dual,
    kernel,
    rank,
)

__all__ = [
    "CodeFamily",
    "CodePairFamily",
    "UniversalityReport",
    "SearchBudgetError",
    "epsilon_universal",
    "epsilon_dual_universal",
    "epsilon_pair",
    "duality_bound",
    "epsilon_floor",
    "tight_family",
    "permuted_epsilon",
    "permuted_pair_epsilon",
    "search_permuted_code",
    "counterexample_family",
]

AMBIENT_CAP = 20
COUNT_BLOCK_WORDS = 1 << 16
FAMILY_MEMBER_CAP = 1 << 16
TIGHT_FAMILY_CAP = 8


class SearchBudgetError(RuntimeError):
    """Search budget exhausted; carries the best candidate found."""

    def __init__(self, best_epsilon: Fraction, best, trials: int):
        super().__init__(
            f"budget exhausted after {trials} trials; best epsilon {best_epsilon}"
        )
        self.best_epsilon = best_epsilon
        self.best = best
        self.trials = trials


def _merge(members, weights):
    """Validate a weighted member list and merge equal members.

    Returns the distinct members in first-occurrence order, their summed
    weights, and the number of members as given.
    """
    members = tuple(members)
    if not members:
        raise ValueError("empty family")
    weights = (1,) * len(members) if weights is None else tuple(int(w) for w in weights)
    if len(weights) != len(members) or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive, one per member")
    merged = {}
    for member, w in zip(members, weights):
        merged[member] = merged.get(member, 0) + w
    return tuple(merged), tuple(merged.values()), len(members)


class CodeFamily:
    """Weighted multiset of equal-length linear codes.

    Equal codes are merged when the family is built: ``codes`` holds the
    distinct members in first-occurrence order and ``weights`` their summed
    weights, so ``len()`` counts distinct members while ``members`` is the
    number of members as given.  Every parameter depends only on the
    distribution over codes, which merging keeps (``total_weight`` too).
    """

    def __init__(self, codes, weights=None):
        self.codes, self.weights, self.members = _merge(codes, weights)
        self.n = self.codes[0].n
        if any(c.n != self.n for c in self.codes):
            raise ValueError("mixed code lengths")
        self.total_weight = sum(self.weights)
        dims = [c.dim for c in self.codes]
        self.t_min = min(dims)
        self.t_max = max(dims)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def dual(self) -> "CodeFamily":
        fam = CodeFamily([dual(c) for c in self.codes], self.weights)
        fam.members = self.members
        return fam

    @classmethod
    def from_hash_family(cls, hf) -> "CodeFamily":
        from .hashfam import kernel_code

        if hf.index_space > FAMILY_MEMBER_CAP:
            raise EnumerationCapError(
                f"family of {hf.index_space} members exceeds cap {FAMILY_MEMBER_CAP}"
            )
        return cls([kernel_code(h) for h in hf])


class CodePairFamily:
    """Weighted multiset of nested code pairs (inner, outer), inner ⊆ outer,
    merged like ``CodeFamily``."""

    def __init__(self, pairs, weights=None):
        self.pairs, self.weights, self.members = _merge(
            ((inner, outer) for inner, outer in pairs), weights
        )
        self.n = self.pairs[0][0].n
        for inner, outer in self.pairs:
            if inner.n != self.n or outer.n != self.n:
                raise ValueError("mixed code lengths")
            if not outer.contains_code(inner):
                raise ValueError("inner code is not contained in the outer code")
        self.total_weight = sum(self.weights)

    def __len__(self):
        return len(self.pairs)

    def dual(self) -> "CodePairFamily":
        fam = CodePairFamily(
            [(dual(outer), dual(inner)) for inner, outer in self.pairs], self.weights
        )
        fam.members = self.members
        return fam

    def outers(self) -> CodeFamily:
        return CodeFamily([p[1] for p in self.pairs], self.weights)


@dataclass(frozen=True)
class UniversalityReport:
    epsilon: Fraction
    convention: str  # "min_dim" or "max_dim"
    t_min: int
    t_max: int
    n: int
    worst_x: int
    max_prob: Fraction

    def to_record(self) -> dict:
        return {
            "epsilon_num": self.epsilon.numerator,
            "epsilon_den": self.epsilon.denominator,
            "convention": self.convention,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "worst_x": bits_to_string(self.worst_x, self.n),
        }


def _membership_counts(family: CodeFamily) -> list[int]:
    """counts[x] = total weight of members containing x, for all x.

    Members of equal dimension and weight are expanded together: their
    bases are doubled into codewords in blocks of at most COUNT_BLOCK_WORDS
    words (one member per block when a member is larger), and each block
    adds the group's weight at its codewords.  The counts are int64, or
    Python ints when the total weight could overflow int64, so every count
    is exact.
    """
    n = family.n
    if n > AMBIENT_CAP:
        raise EnumerationCapError(f"ambient length {n} exceeds cap {AMBIENT_CAP}")
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for code, w in zip(family.codes, family.weights):
        groups.setdefault((code.dim, w), []).append(code.basis)
    counts = np.zeros(1 << n, dtype=np.int64 if family.total_weight < 1 << 63 else object)
    for (dim, w), bases in groups.items():
        bases = np.array(bases, dtype=np.int32)
        per_block = max(1, COUNT_BLOCK_WORDS >> dim)
        for start in range(0, len(bases), per_block):
            block = bases[start:start + per_block]
            words = np.zeros((len(block), 1 << dim), dtype=np.int32)
            for j in range(dim):
                words[:, 1 << j:2 << j] = words[:, :1 << j] ^ block[:, j:j + 1]
            np.add.at(counts, words.ravel(), w)
    return counts.tolist()


def _pick_t(family: CodeFamily, convention: str) -> int:
    if convention == "min_dim":
        return family.t_min
    if convention == "max_dim":
        return family.t_max
    raise ValueError(f"unknown convention: {convention}")


def _report_from_counts(counts, family, convention, t, candidates, base) -> UniversalityReport:
    """Report the first candidate x (in scan order) of greatest count, with
    ε = Pr[x] 2^(base - t); no candidate (a vacuous inequality) gives x = 0
    and ε = 0.  Callers pick t before counting, so an unknown convention is
    rejected before any enumeration."""
    worst_x = max(candidates, key=counts.__getitem__, default=0)
    max_prob = Fraction(counts[worst_x] if worst_x else 0, family.total_weight)
    eps = max_prob * (1 << (base - t))
    return UniversalityReport(
        eps, convention, family.t_min, family.t_max, family.n, worst_x, max_prob
    )


def epsilon_universal(family: CodeFamily, convention: str = "min_dim") -> UniversalityReport:
    """Smallest ε with Pr[x ∈ C_r] ≤ 2^(t-n) ε for all x ≠ 0 (exact)."""
    n = family.n
    t = _pick_t(family, convention)
    return _report_from_counts(
        _membership_counts(family), family, convention, t, range(1, 1 << n), n
    )


def _swap(convention: str) -> str:
    if convention not in ("min_dim", "max_dim"):
        raise ValueError(f"unknown convention: {convention}")
    return "max_dim" if convention == "min_dim" else "min_dim"


def epsilon_dual_universal(family: CodeFamily, convention: str = "min_dim") -> UniversalityReport:
    """Universality of the dual family; the dimension convention names the
    primal family's convention, so it is swapped on the duals (a primal
    minimum dimension t corresponds to a dual maximum dimension n-t)."""
    return epsilon_universal(family.dual(), _swap(convention))


_DUAL_VARIANT = {"subcode": "extended", "extended": "subcode", "pair": "pair"}


def epsilon_pair(
    family: CodePairFamily, variant: str, convention: str = "min_dim"
) -> UniversalityReport:
    """Smallest ε for the subcode / extended / pair defining inequality.

    subcode: the outer code is a fixed C1 of dim m and members are its
      subcodes; over x ∈ C1 \\ {0}, Pr[x ∈ C_r] ≤ 2^(t-m) ε.
    extended: the inner code is a fixed C1; over x ∉ C1,
      Pr[x ∈ C_r] ≤ 2^(t-n) ε with t from the outer dims.
    pair: over x ≠ 0, Pr[x ∈ outer_r \\ inner_r] ≤ 2^(t-n) ε.
    Dual variants measure the corresponding variant on the dual pairs.
    """
    primal = variant.removesuffix("_dual")
    if primal != variant and primal in _DUAL_VARIANT:
        return epsilon_pair(family.dual(), _DUAL_VARIANT[primal], _swap(convention))

    n = family.n
    inners = CodeFamily([inner for inner, _ in family.pairs], family.weights)
    outers = family.outers()
    if variant == "subcode":
        if len(outers) > 1:
            raise ValueError("subcode variant needs a fixed outer code")
        c1 = outers.codes[0]
        t = _pick_t(inners, convention)
        candidates = (x for x in c1.codewords() if x)
        return _report_from_counts(
            _membership_counts(inners), inners, convention, t, candidates, c1.dim
        )
    if variant == "extended":
        if len(inners) > 1:
            raise ValueError("extended variant needs a fixed inner code")
        c1 = inners.codes[0]
        t = _pick_t(outers, convention)
        candidates = (x for x in range(1, 1 << n) if not c1.contains(x))
        return _report_from_counts(
            _membership_counts(outers), outers, convention, t, candidates, n
        )
    if variant == "pair":
        t = _pick_t(outers, convention)
        # inner ⊆ outer, so Pr[x ∈ outer \ inner] = Pr[x ∈ outer] - Pr[x ∈ inner]
        counts = [
            a - b for a, b in zip(_membership_counts(outers), _membership_counts(inners))
        ]
        return _report_from_counts(counts, outers, convention, t, range(1, 1 << n), n)
    raise ValueError(f"unknown variant: {variant}")


def duality_bound(epsilon, t: int, n: int, m: int | None = None, variant: str = "plain") -> Fraction:
    """Upper bound on Pr[x ∈ C_r^⊥] implied by an ε-almost universal family.

    plain: family of minimum dimension t in F_2^n.
    subcode: subcode family of a fixed code of dimension m, minimum dim t ≤ m.
    extended: extended family of a fixed code of dimension m, minimum dim
    t ≥ m; bound applies to the dual subcode family.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if variant == "plain":
        if not 1 <= t <= n:
            raise ValueError("need 1 <= t <= n")
        return (1 - Fraction(epsilon, 1 << (n - t))) * Fraction(2, 1 << t) + epsilon - 1
    if variant == "subcode":
        if m is None or t > m:
            raise ValueError("subcode variant needs t <= m")
        return (1 - Fraction(epsilon, 1 << (m - t))) * Fraction(2, 1 << t) + epsilon - 1
    if variant == "extended":
        if m is None or not m <= t <= n:
            raise ValueError("extended variant needs m <= t <= n")
        return (1 - Fraction(epsilon, 1 << (n - t))) * Fraction(1 << (m + 1), 1 << t) + epsilon - 1
    raise ValueError(f"unknown variant: {variant}")


def epsilon_floor(t: int, n: int) -> Fraction:
    """Smallest achievable ε for any family of dimension t in F_2^n."""
    return Fraction((1 << n) - (1 << (n - t)), (1 << n) - 1)


def _rref_profiles(d: int, t: int):
    """All full-rank t x d matrices in reduced row echelon form.

    Rows are packed ints with column j at bit d-1-j.  Each t-dimensional
    subspace of F_2^d appears exactly once.
    """
    if t == 0:
        yield []
        return
    for pivots in combinations(range(d), t):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p + 1, d)
            if j not in pivot_set
        ]
        base = [1 << (d - 1 - p) for p in pivots]
        for assignment in range(1 << len(free)):
            rows = list(base)
            for idx, (i, j) in enumerate(free):
                if (assignment >> idx) & 1:
                    rows[i] |= 1 << (d - 1 - j)
            yield rows


def subspaces_of(code: LinearCode, t: int):
    """All t-dimensional subspaces of a given code, each exactly once."""
    basis = code.basis
    d = len(basis)
    for rows in _rref_profiles(d, t):
        mapped = []
        for row in rows:
            v = 0
            for j in range(d):
                if (row >> (d - 1 - j)) & 1:
                    v ^= basis[j]
            mapped.append(v)
        yield LinearCode.from_rows(code.n, mapped)


def tight_family(n: int, t: int, epsilon, x) -> CodeFamily:
    """Family achieving the plain duality bound with equality at x.

    Mixes all t-dim subspaces of V_x = {y : (x,y) = 0} with all subspaces
    spanned by a (t-1)-dim subspace of V_x and one vector outside V_x, with
    integer multiplicities realizing the mixture weight
    p = (1 - 2^(t-n) ε) 2^(1-t) + ε - 1; then Pr[x ∈ C_r^⊥] = p exactly.
    """
    if n > TIGHT_FAMILY_CAP:
        raise EnumerationCapError(f"n={n} exceeds subspace enumeration cap {TIGHT_FAMILY_CAP}")
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    epsilon = Fraction(epsilon)
    eps_max = Fraction(2 - Fraction(2, 1 << t), 1 - Fraction(2, 1 << n))
    if not 0 < epsilon <= eps_max:
        raise ValueError(f"epsilon out of range (0, {eps_max}]")
    xv = x if isinstance(x, int) else x.value
    if not 0 < xv < (1 << n):
        raise ValueError("x must be a nonzero n-bit vector")
    p = (1 - Fraction(epsilon, 1 << (n - t))) * Fraction(2, 1 << t) + epsilon - 1
    if p < 0:
        raise ValueError("epsilon below the feasible range: mixture weight negative")

    v_x = kernel(BinaryMatrix((xv,), n))
    fam_a = list(subspaces_of(v_x, t))
    z0 = next(z for z in range(1, 1 << n) if (z & xv).bit_count() & 1)
    fam_b = []
    for w in subspaces_of(v_x, t - 1):
        for u in v_x.codewords():
            z = u ^ z0
            fam_b.append(LinearCode.from_rows(n, list(w.basis) + [z]))

    a, b = p.numerator, p.denominator
    codes, weights = [], []
    if a > 0:
        codes += fam_a
        weights += [a * len(fam_b)] * len(fam_a)
    if b - a > 0:
        codes += fam_b
        weights += [(b - a) * len(fam_a)] * len(fam_b)
    return CodeFamily(codes, weights)


def permuted_epsilon(c: LinearCode) -> Fraction:
    """Universality parameter of the bit-permutation orbit of a code.

    Depends only on the weight distribution: max over k ≥ 1 of
    2^n Pr_C(k) / binom(n, k).
    """
    w = c.weight_distribution()
    n = c.n
    return max(Fraction(1 << n, comb(n, k)) * w[k] for k in range(1, n + 1))


def permuted_pair_epsilon(c1: LinearCode, c2: LinearCode) -> Fraction:
    """Pair universality parameter ε(C1/C2) of the permuted pair orbit."""
    if not c1.contains_code(c2):
        raise ValueError("C2 is not a subcode of C1")
    n = c1.n
    w1 = c1.weight_distribution()
    w2 = c2.weight_distribution()
    ratio = Fraction(len(c2), len(c1))
    return max(
        Fraction(1 << n, comb(n, k)) * (w1[k] - w2[k] * ratio) for k in range(1, n + 1)
    )


def random_code(n: int, t: int, rng: random.Random) -> LinearCode:
    """Kernel of a uniform full-rank (n-t) x n matrix: a uniform t-dim code."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    if t == n:
        return LinearCode.full(n)
    while True:
        rows = [rng.randrange(1 << n) for _ in range(n - t)]
        if rank(rows) == n - t:
            return kernel(BinaryMatrix(tuple(rows), n))


def random_extension(base: LinearCode, t: int, rng: random.Random) -> LinearCode:
    """Uniform t-dim code containing `base`, sampled in the quotient space."""
    d2 = base.dim
    if not d2 <= t <= base.n:
        raise ValueError("need dim(base) <= t <= n")
    q = base.n - d2
    comp = complement_basis(LinearCode.full(base.n), base)
    sub = random_code(q, t - d2, rng)
    lifted = []
    for row in sub.basis:
        v = 0
        for j in range(q):
            if (row >> (q - 1 - j)) & 1:
                v ^= comp[j]
        lifted.append(v)
    return LinearCode.from_rows(base.n, lifted + list(base.basis))


def search_permuted_code(
    n: int,
    t: int,
    budget: int,
    seed: int,
    base: LinearCode | None = None,
    mode: str = "plain",
):
    """Randomized search for codes whose permutation orbit is (n+1)-almost
    universal.

    plain: returns C with ε(C) ≤ n+1, dim C = t.
    extension: base = C2; returns (C1, C2) with C2 ⊆ C1, dim C1 = t and
      ε(C1/C2) ≤ n+1.
    dual_pair: base = C2; returns (C1, C2) with C1 ⊆ C2, dim C1 = t and
      ε(C1^⊥/C2^⊥) ≤ n+1, where C1^⊥ ⊇ C2^⊥ is drawn as in the extension
      search with C2^⊥ as its base.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    target = Fraction(n + 1)
    best_eps, best = None, None
    for trial in range(1, budget + 1):
        if mode == "plain":
            c = random_code(n, t, rng)
            eps = permuted_epsilon(c)
            result = c
        elif mode == "extension":
            if base is None:
                raise ValueError("extension mode needs a base code")
            c1 = random_extension(base, t, rng)
            eps = permuted_pair_epsilon(c1, base)
            result = (c1, base)
        elif mode == "dual_pair":
            if base is None:
                raise ValueError("dual_pair mode needs a base code")
            d1 = random_extension(dual(base), n - t, rng)
            eps = permuted_pair_epsilon(d1, dual(base))
            result = (dual(d1), base)
        else:
            raise ValueError(f"unknown mode: {mode}")
        if eps <= target:
            return result
        if best_eps is None or eps < best_eps:
            best_eps, best = eps, result
    raise SearchBudgetError(best_eps, best, budget)


def counterexample_family(n: int, seed: int | None = None, m: int = 2) -> CodeFamily:
    """2-almost universal family whose duals all contain e_n = (0,...,0,1).

    Takes the kernels of all m x (n-1) matrices and appends a zero last bit
    to every codeword; privacy amplification with this family leaks the
    last input bit in full.  Fully enumerated when 2^(m(n-1)) is small,
    otherwise a seeded sample.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    inner_n = n - 1
    space = 1 << (m * inner_n)
    if space <= 1 << 16:
        indices = range(space)
    else:
        if seed is None:
            raise ValueError("family too large to enumerate; a seed is required")
        rng = random.Random(seed)
        indices = [rng.randrange(space) for _ in range(1 << 10)]
    mask = (1 << inner_n) - 1
    codes = []
    for r in indices:
        rows = tuple((r >> (i * inner_n)) & mask for i in range(m))
        ker = kernel(BinaryMatrix(rows, inner_n))
        codes.append(LinearCode.from_rows(n, [row << 1 for row in ker.basis]))
    return CodeFamily(codes)
