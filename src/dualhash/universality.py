"""Measurement and construction of almost-universal code families.

A code family is a weighted multiset of linear codes; "choose r uniformly"
means choosing a member with probability proportional to its integer weight.
All universality parameters are exact rationals computed by exhaustive
codeword counting, or, for the Toeplitz hash families, by counting row
combinations: of all members at once (plain Toeplitz), or of one small
matrix per input prefix, with one Walsh transform (modified Toeplitz).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, groupby
from math import comb, factorial

import numpy as np

from .gf2 import (
    BinaryMatrix,
    EnumerationCapError,
    LinearCode,
    _canonical_rows,
    _weight_counts,
    bits_to_string,
    complement_basis,
    dual,
    kernel,
    rank,
    span,
    syndromes,
    walsh_hadamard,
)
from .hashfam import HashFamily, HashFamilySpec, toeplitz_rows

__all__ = [
    "CodeFamily",
    "CodePairFamily",
    "UniversalityReport",
    "SearchBudgetError",
    "epsilon_universal",
    "epsilon_dual_universal",
    "epsilon_reports",
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
FAMILY_MEMBER_BITS = 16
FAMILY_MEMBER_CAP = 1 << FAMILY_MEMBER_BITS
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


def _row_dtype(n: int):
    """int64 for rows of up to 62 bits, else Python ints in an object array."""
    return np.int64 if n < 63 else object


def _int_array(values) -> np.ndarray:
    """``values`` as an int64 array, or an object array of Python ints when
    one of them does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class CodeFamily:
    """Weighted multiset of equal-length linear codes.

    Equal codes are merged when the family is built: the distinct members
    are kept in first-occurrence order, ``weights`` holds their summed
    weights, so ``len()`` counts distinct members while ``members`` is the
    number of members as given.  Every parameter depends only on the
    distribution over codes, which merging keeps (``total_weight`` too).

    ``bases`` holds one row per distinct member, its canonical basis
    zero-padded to ``t_max`` entries (int64, or Python ints when n > 62);
    ``codes``, the members as ``LinearCode``s, is kept when given and
    otherwise built on first access.
    """

    def __init__(self, codes, weights=None):
        codes, weights, members = _merge(codes, weights)
        n = codes[0].n
        if any(c.n != n for c in codes):
            raise ValueError("mixed code lengths")
        t_max = max(c.dim for c in codes)
        bases = np.array([c.basis + (0,) * (t_max - c.dim) for c in codes], dtype=_row_dtype(n))
        self._set(n, bases, np.array([c.dim for c in codes]), weights, _int_array(weights),
                  members)
        self.codes = codes

    @classmethod
    def _packed(cls, n: int, bases: np.ndarray, weights: np.ndarray,
                members: int) -> "CodeFamily":
        """A family from distinct zero-padded canonical bases, one row per
        member, and an int array of their weights.  The bulk constructors
        walk each member once, so nothing is merged."""
        if not len(bases):
            raise ValueError("empty family")
        if not _canonical_rows(bases, n).all():
            raise ValueError("basis is not in canonical RREF form")
        if len(weights) != len(bases) or not (weights > 0).all():
            raise ValueError("weights must be positive, one per member")
        dims = np.zeros(len(bases), dtype=np.int64)
        for col in bases.T:  # column by column: a row-wise reduce is slow on short rows
            dims += col != 0
        fam = cls.__new__(cls)
        fam._set(n, bases, dims, tuple(weights.tolist()), weights, members)
        return fam

    def _set(self, n, bases, dims, weights, weight_array, members):
        self.n, self.bases, self._dims = n, bases, dims
        self.weights, self._weight_array = weights, weight_array
        self.members = members
        self.total_weight = sum(weights)
        self.t_min = int(dims.min())
        self.t_max = int(dims.max())

    @cached_property
    def _counts(self) -> "_Counts":
        """Membership counts of both sides, made on first use (``_count``),
        from the codewords (``_span_counts``)."""
        plain, dual = _span_counts(_codeword_blocks(self), self.n, 1, self.total_weight)
        return _Counts(self.n, self.total_weight, self.t_min, self.t_max, plain[0], dual[0])

    @cached_property
    def codes(self) -> tuple[LinearCode, ...]:
        return tuple(LinearCode(self.n, tuple(row[:dim]))
                     for row, dim in zip(self.bases.tolist(), self._dims.tolist()))

    def __len__(self):
        return len(self.bases)

    def __iter__(self):
        return iter(self.codes)

    def dual(self) -> "CodeFamily":
        fam = CodeFamily([dual(c) for c in self.codes], self.weights)
        fam.members = self.members
        return fam

    @classmethod
    def from_hash_family(cls, hf) -> "CodeFamily":
        """Kernel family of a hash family.  All linear maps are built
        weighted from their kernels; the Toeplitz kinds are enumerated, the
        kernels taken of their rows built in bulk (``HashFamily._rows``)."""
        if hf.spec.kind == "random_linear":
            return _linear_kernel_family(hf.n, hf.m)
        _check_index_bits(hf)
        return cls([kernel(BinaryMatrix(tuple(rows), hf.n))
                    for rows in hf._rows(np.arange(hf.index_space)).tolist()])


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


def _span_blocks(n: int, gens: np.ndarray, dims: np.ndarray, weights: np.ndarray,
                 fam: np.ndarray):
    """Yield (dim, weight, words) blocks covering every member of packed
    arrays of families of one length n, given family by family: member i
    spans the first dims[i] rows of gens[i], with weight weights[i], in
    family fam[i].

    Members of equal dimension and weight are expanded together, in order
    of first occurrence: words[i] holds one member's span, each word plus
    k 2^n in the k-th family, so that the words index the families' counts
    stacked one row per family.  A block holds at most
    COUNT_BLOCK_WORDS / 2^dim members, and at least one.
    """
    stacked = int(fam[-1]) > 0
    dtype = np.int32 if int(fam[-1]) + 1 << n <= 1 << 31 else np.int64
    gens = gens.astype(dtype, copy=False)
    offsets = fam.astype(dtype) << n if stacked else None
    order = np.lexsort((weights, dims))  # stable: each group stays in member order
    by_dim, by_weight = dims[order], weights[order]
    starts = np.flatnonzero((by_dim[1:] != by_dim[:-1])
                            | (by_weight[1:] != by_weight[:-1])) + 1
    for members in sorted(np.split(order, starts), key=lambda group: group[0]):
        dim, w = int(dims[members[0]]), int(weights[members[0]])
        per_block = max(1, COUNT_BLOCK_WORDS >> dim)
        for start in range(0, len(members), per_block):
            block = members[start:start + per_block]
            words = span(gens[block, :dim])
            if stacked:
                words += offsets[block, None]
            yield dim, w, words


def _codeword_blocks(family: CodeFamily):
    """``_span_blocks`` of one CodeFamily, each member spanned by its
    canonical basis: the words are codewords."""
    return _span_blocks(family.n, family.bases, family._dims, family._weight_array,
                        np.zeros(len(family), dtype=np.int32))


def _parity_rows(family: CodeFamily) -> np.ndarray:
    """Parity rows of every member, (members, n - t_min) int64 (n <= 62),
    read off the packed canonical bases with no elimination.  A pivot, a
    basis row's leading bit, is held by its row alone, so for a non-pivot
    bit f, f plus the pivots of the rows holding f is orthogonal to every
    row; pivot bits get zero rows.  Each member's rows are sorted, zero rows
    first, and the t_min zero rows that every member has are dropped:
    ``_syndrome_tables`` takes the array as it is."""
    leads = family.bases.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        leads |= leads >> shift
    leads ^= leads >> 1
    bit = np.arange(family.n, dtype=np.int64)
    held = np.zeros((len(leads), family.n), dtype=np.int64)  # pivots of the rows holding each bit
    for col, lead in zip(family.bases.T, leads.T):
        held |= (col[:, None] >> bit & 1) * lead[:, None]
    rows = np.sort(np.where(held == 1 << bit, 0, held | 1 << bit), axis=1)
    return rows[:, family.t_min:]


@dataclass(frozen=True)
class _Counts:
    """Membership counts of a family, the one record every report reads:
    plain[x] is the total weight of members containing x, dual[x] of members
    whose dual code contains x.  Both are int64 arrays, or object arrays
    when a count could reach 2^63, and read-only, since a CodeFamily keeps
    its counts for every later report."""

    n: int
    total_weight: int
    t_min: int
    t_max: int
    plain: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        self.plain.flags.writeable = self.dual.flags.writeable = False


def _check_ambient(n: int) -> None:
    if n > AMBIENT_CAP:
        raise EnumerationCapError(f"ambient length {n} exceeds cap {AMBIENT_CAP}")


def _dtypes(total: int, n: int):
    """The dtypes of one side's counts and of those counts shifted left by
    up to n bits: int64 while the total weight, and the total weight times
    2^n, fit, else object arrays of Python ints."""
    return (np.int64 if total < 1 << 63 else object,
            np.int64 if total << n < 1 << 63 else object)


def _other_side(shifted: np.ndarray, n: int) -> np.ndarray:
    """The other side's counts, in place along the last axis, from one
    side's counts with each dimension's count shifted left by n - dim.

    The Walsh transform of the indicator of a code C is 2^dim(C) times the
    indicator of C^perp, so transforming once and shifting right by n gives,
    at x, the total weight of the members whose code on the other side
    contains x.
    """
    walsh_hadamard(shifted)
    shifted >>= n
    return shifted


def _span_counts(blocks, n: int, families: int, total: int):
    """Count one side of families of one length n from the blocks of
    their spans on that side (``_span_blocks``, ``_toeplitz_blocks``),
    stacked one row of 2^n per family, and give the other side; returns
    (counted, other).

    A block is (dim, weight, words): each row of words holds the 2^r XOR
    combinations of r rows that span a code of dimension dim, so each word
    of that code 2^(r - dim) times (once for a basis).  Each run of blocks
    of one dimension and width adds its weights at its words into one
    count, shifted right by r - dim and added to the counted side and,
    shifted left by n - dim, to the shifted counts, which one
    ``_other_side`` turns into the other side.  The dtypes follow
    ``total``, the largest total weight.
    """
    _check_ambient(n)
    dtype, wide = _dtypes(total, n)
    size = families << n
    counted, shifted = np.zeros(size, dtype=dtype), np.zeros(size, dtype=wide)
    count = np.empty(size, dtype=dtype)
    for (dim, width), run in groupby(blocks, key=lambda b: (b[0], b[2].shape[-1])):
        count.fill(0)
        # in place on the int32 words; np.bincount would copy them to intp
        for _, w, words in run:
            np.add.at(count, words, w)
        count >>= width.bit_length() - 1 - dim
        counted += count
        shifted += count.astype(wide, copy=False) << (n - dim)
    rows = (families, 1 << n)
    return counted.reshape(rows), _other_side(shifted.reshape(rows), n)


def _parity_counts(n: int, families):
    """Count families of one length n given as lists of their members'
    parity rows, one tuple of independent rows per member (its code is
    their kernel), each member of weight 1.  The rows span the dual code,
    so the dual side is counted (``_span_counts``) and no kernel is built.

    Returns int64 arrays with one entry per family: the member count W,
    the smallest code dimension t, and the largest plain and dual counts
    P and D at x != 0.
    """
    sizes = np.array([len(members) for members in families])
    ranks = np.array([len(rows) for members in families for rows in members])
    width = int(ranks.max())
    gens = np.array([rows + (0,) * (width - len(rows))
                     for members in families for rows in members], dtype=np.int64)
    dual, plain = _span_counts(
        _span_blocks(n, gens, ranks, np.ones_like(ranks),
                     np.repeat(np.arange(len(families)), sizes)),
        n, len(families), int(sizes.max()))
    starts = np.cumsum(sizes) - sizes
    return (sizes, n - np.maximum.reduceat(ranks, starts),
            plain[:, 1:].max(axis=1), dual[:, 1:].max(axis=1))


def _parity_batches(families):
    """Count a stream of (n, members' parity rows) families one length at
    a time (``_parity_counts``): the families of a length are counted
    together once their arrays reach COUNT_BLOCK_WORDS words, and every
    length still pending at the end of the stream then.  Yields (n, group,
    counts): group holds the (stream index, members) of its families, in
    stream order."""
    pending = {}
    for i, (n, members) in enumerate(families):
        group = pending.setdefault(n, [])
        group.append((i, members))
        # per family, its dual, shifted and one-dimension counts, 2^n words
        # each, and its share of the Walsh transform's half-size buffer
        if len(group) * 4 << n >= COUNT_BLOCK_WORDS:
            del pending[n]
            yield n, group, _parity_counts(n, [members for _, members in group])
    for n, group in pending.items():
        yield n, group, _parity_counts(n, [members for _, members in group])


def _check_index_bits(hf: HashFamily) -> None:
    """Refuse a family past FAMILY_MEMBER_CAP from its index width alone."""
    if hf.index_bits > FAMILY_MEMBER_BITS:
        raise EnumerationCapError(f"family of 2^{hf.index_bits} members exceeds cap {FAMILY_MEMBER_CAP}")


def _toeplitz_blocks(hf: HashFamily):
    """``_span_counts`` blocks of the plain-Toeplitz family's dual side:
    the 2^m XOR combinations of each member's rows, which span its dual
    code; no member, kernel or code is built.

    A member with z zero combinations has rank m - log2 z, so each chunk
    of members is split by z.  The index range is walked in chunks of at
    most COUNT_BLOCK_WORDS words, rows built by ``HashFamily._rows``.
    """
    m, total = hf.m, hf.index_space
    per_chunk = max(1, COUNT_BLOCK_WORDS >> m)
    for start in range(0, total, per_chunk):
        words = span(hf._rows(np.arange(start, min(start + per_chunk, total))))
        zeros = (words == 0).sum(axis=1)
        for z in np.unique(zeros).tolist():
            yield m + 1 - z.bit_length(), 1, words[zeros == z]


def _modified_toeplitz_counts(hf: HashFamily) -> _Counts:
    """Counts of the modified-Toeplitz family (T_r | I), r over its n - 1
    diagonal bits, from its plain side under its one member dimension
    n - m; no member is built, and the ambient cap is checked before any
    array is.

    Write x = (u, v), u the top k = n - m bits.  x is in ker(T_r | I) iff
    T_r u = v, and T_r u = A_u r, A_u the m x (n-1) Toeplitz matrix of
    diagonal word u << (m - 1).  So plain[x] is 2^(n-1-rank A_u) if v is
    orthogonal to the left kernel L_u of A_u, else 0.  L_u is the zero
    combinations of A_u's rows (reversed, so combination bit j pairs with
    bit j of v), and the Walsh transform of its indicator is
    |L_u| [v in L_u^perp], |L_u| = 2^(m - rank A_u); times 2^(k-1) that is
    plain[u].  A_u's rows have n - 1 < 31 bits under AMBIENT_CAP, so the
    combinations are int32.  sum_x plain[x] = 2^(n-1) 2^(n-m) checks the
    span and transform.  The plain side shifted left by n - k = m gives the
    dual side (``_other_side``).
    """
    n, m = hf.n, hf.m
    _check_ambient(n)
    total, k = hf.index_space, n - m
    dtype, wide = _dtypes(total, n)
    rows = toeplitz_rows(n - 1, m, np.arange(1 << k) << (m - 1))
    counts = (span(rows[:, ::-1].astype(np.int32)) == 0).astype(dtype)
    walsh_hadamard(counts)
    counts <<= k - 1
    if int(counts.sum()) != 1 << (n - 1 + k):
        raise ArithmeticError(f"modified_toeplitz({n}, {m}) counts do not sum to 2^(n-1) 2^(n-m)")
    counts = counts.ravel()
    return _Counts(n, total, k, k, counts, _other_side(counts.astype(wide) << m, n))


def _count(family) -> _Counts:
    """Count a CodeFamily or HashFamily once, for both sides.

    A CodeFamily keeps its counts (``CodeFamily._counts``), so however many
    reports read one family, it is counted once.  The family of all linear
    maps is counted as its weighted kernel family, and a plain-Toeplitz one
    from its members' row combinations on the dual side, of ranks 0 (index
    0, the zero matrix) to m (the word of bit m - 1 alone, (I_m | 0)).  The
    caps are checked before any array is built.
    """
    if isinstance(family, CodeFamily):
        return family._counts
    if family.spec.kind == "random_linear":
        return CodeFamily.from_hash_family(family)._counts
    if family.spec.kind == "modified_toeplitz":
        return _modified_toeplitz_counts(family)
    _check_index_bits(family)
    n, m, total = family.n, family.m, family.index_space
    dual, plain = _span_counts(_toeplitz_blocks(family), n, 1, total)
    return _Counts(n, total, n - m, n, plain[0], dual[0])


_SWAP = {"min_dim": "max_dim", "max_dim": "min_dim"}


def _check_convention(convention: str) -> str:
    if convention not in _SWAP:
        raise ValueError(f"unknown convention: {convention}")
    return convention


def _report(counts: _Counts, side: str, convention: str) -> UniversalityReport:
    """Report one side ("plain" or "dual") of a family's counts: the first x
    != 0 of greatest count, with ε = Pr[x] 2^(n - t).  ``convention`` is
    checked and names the family's convention; the dual family's dimensions
    are n - t of the family's, so it is swapped on the dual side (a minimum
    dimension t corresponds to a dual maximum dimension n - t)."""
    n, values = counts.n, getattr(counts, side)
    dims = (counts.t_min, counts.t_max)
    if side == "dual":
        dims, convention = (n - dims[1], n - dims[0]), _SWAP[convention]
    worst_x = int(np.argmax(values[1:])) + 1
    max_prob = Fraction(int(values[worst_x]), counts.total_weight)
    t = dims[0] if convention == "min_dim" else dims[1]
    return UniversalityReport(max_prob * (1 << (n - t)), convention, *dims, n, worst_x, max_prob)


def epsilon_universal(family, convention: str = "min_dim") -> UniversalityReport:
    """Smallest ε with Pr[x ∈ C_r] ≤ 2^(t-n) ε for all x ≠ 0 (exact).

    ``family`` is a CodeFamily or a HashFamily; a Toeplitz or
    modified-Toeplitz HashFamily is counted without building a member.
    """
    convention = _check_convention(convention)
    return _report(_count(family), "plain", convention)


def epsilon_dual_universal(family, convention: str = "min_dim") -> UniversalityReport:
    """Universality of the dual family; the dimension convention names the
    primal family's convention, so it is swapped on the duals (a primal
    minimum dimension t corresponds to a dual maximum dimension n-t).
    Counted by one Walsh transform, without building any dual code;
    ``family`` is as for ``epsilon_universal``."""
    convention = _check_convention(convention)
    return _report(_count(family), "dual", convention)


def epsilon_reports(
    family, convention: str = "min_dim"
) -> tuple[UniversalityReport, UniversalityReport]:
    """``(epsilon_universal(family, convention), epsilon_dual_universal(family,
    convention))``, with the family counted once for both."""
    convention = _check_convention(convention)
    counts = _count(family)
    return _report(counts, "plain", convention), _report(counts, "dual", convention)


def epsilon_pair(
    family: CodePairFamily, variant: str, convention: str = "min_dim"
) -> UniversalityReport:
    """Smallest ε for the subcode / extended / pair defining inequality.

    subcode: the outer code is a fixed C1 of dim m and members are its
      subcodes; over x ∈ C1 \\ {0}, Pr[x ∈ C_r] ≤ 2^(t-m) ε.
    extended: the inner code is a fixed C1; over x ∉ C1,
      Pr[x ∈ C_r] ≤ 2^(t-n) ε with t from the outer dims.
    pair: over x ≠ 0, Pr[x ∈ outer_r \\ inner_r] ≤ 2^(t-n) ε.
    Dual variants measure the corresponding variant on the dual pairs
    (outer_r^⊥, inner_r^⊥).  Subcode and extended count one plain family:
    the members in C1's coordinates (bits at C1's pivots) in F_2^m, or
    {Q C_r} in F_2^(n-m), Q the canonical basis of C1^⊥.  The worst x is
    the first over C1's (C1^⊥'s) codewords in ``codewords()`` order on the
    side over that code, else ascending; no x to bound gives x = 0, ε = 0.
    """
    primal = variant.removesuffix("_dual")
    if primal not in ("subcode", "extended", "pair"):
        raise ValueError(f"unknown variant: {variant}")
    convention = _check_convention(convention)
    side = "plain" if primal == variant else "dual"
    if primal == "pair":
        # inner ⊆ outer, so Pr[x ∈ outer \ inner] = Pr[x ∈ outer] - Pr[x ∈ inner];
        # the dual pairs (outer^⊥, inner^⊥) trade places
        outer, inner = (_count(CodeFamily([pair[i] for pair in family.pairs], family.weights))
                        for i in ((1, 0) if side == "plain" else (0, 1)))
        return _report(replace(outer, plain=outer.plain - inner.plain,
                               dual=outer.dual - inner.dual), side, convention)
    within = primal == "subcode"  # members within C1 = pair[1], else containing C1 = pair[0]
    c1, *others = {pair[within] for pair in family.pairs}
    if others:
        raise ValueError(f"{primal} variant needs a fixed {'outer' if within else 'inner'} code")
    _check_ambient(n := family.n)
    f = c1 if within else dual(c1)
    k, over_f = f.dim, within == (side == "plain")
    shift = 0 if over_f else n - k  # dim F^⊥, which the side's members contain
    if not k:
        return UniversalityReport(Fraction(0), convention if side == "plain" else _SWAP[convention],
                                  shift, shift, n, 0, Fraction(0))
    onto = BinaryMatrix([1 << (r.bit_length() - 1) for r in f.basis] if within else f.basis, n)
    reduced = [LinearCode.from_rows(k, map(onto.mul_vector, pair[not within].basis))
               for pair in family.pairs]
    counts = _count(CodeFamily(reduced, family.weights))
    rep = _report(counts, side, convention)
    if over_f:  # F's codewords in codewords() (Gray) order, and their coordinates
        i = np.arange(1 << k)
        words, labels = span(np.array([f.basis, LinearCode.full(k).basis]))[:, i ^ (i >> 1)]
    else:
        words, labels = np.arange(1 << n), syndromes(f.basis, n)
    scan = np.where(labels != 0, getattr(counts, side)[labels], -1)
    return replace(rep, n=n, t_min=rep.t_min + shift, t_max=rep.t_max + shift,
                   worst_x=int(words[np.argmax(scan)]))


def duality_bound(epsilon, t: int, n: int, m: int | None = None, variant: str = "plain") -> Fraction:
    """Upper bound on Pr[x ∈ C_r^⊥] implied by an ε-almost universal family.

    plain: family of minimum dimension t in F_2^n, 1 ≤ t ≤ n.
    subcode: subcode family of a fixed code of dimension m, 1 ≤ t ≤ m ≤ n;
    the plain bound at (t, m).  extended: extended family of a fixed code of
    dimension m, 0 ≤ m < t ≤ n, bounding the dual subcode family; the plain
    bound at (t - m, n - m).
    """
    if variant == "subcode":
        if m is None or not 1 <= t <= m <= n:
            raise ValueError("subcode variant needs 1 <= t <= m <= n")
        n = m
    elif variant == "extended":
        if m is None or not 0 <= m < t <= n:
            raise ValueError("extended variant needs 0 <= m < t <= n")
        t, n = t - m, n - m
    elif variant != "plain":
        raise ValueError(f"unknown variant: {variant}")
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    return (1 - Fraction(epsilon, 1 << (n - t))) * Fraction(2, 1 << t) + epsilon - 1


def epsilon_floor(t: int, n: int) -> Fraction:
    """Smallest achievable ε for any family of dimension t in F_2^n."""
    return Fraction((1 << n) - (1 << (n - t)), (1 << n) - 1)


def _subspace_bases(code: LinearCode, t: int) -> np.ndarray:
    """All t-dimensional subspaces of a given code, each exactly once, as
    one row of t ints per subspace: its canonical basis.

    Picks t pivot rows of the code's canonical basis; each pivot row adds
    any set of the non-pivot rows after it.  The rows keep the pivot rows'
    leading bits and hold no other pivot row's leading bit, so each result
    is already in canonical RREF.  Row a of a pivot set's block adds the
    free rows at the set bits of a, built by doubling.
    """
    basis = np.array(code.basis, dtype=_row_dtype(code.n))
    blocks = [np.zeros((0, t), dtype=basis.dtype)]  # none when t > dim
    for pivots in combinations(range(len(basis)), t):
        free = [(k, j) for k, p in enumerate(pivots)
                for j in range(p + 1, len(basis)) if j not in pivots]
        block = np.empty((1 << len(free), t), dtype=basis.dtype)
        block[0] = basis[list(pivots)]
        for bit, (k, j) in enumerate(free):
            half = 1 << bit
            block[half:2 * half] = block[:half]
            block[half:2 * half, k] ^= basis[j]
        blocks.append(block)
    return np.concatenate(blocks)


def subspaces_of(code: LinearCode, t: int):
    """All t-dimensional subspaces of a given code (``_subspace_bases``)."""
    for row in _subspace_bases(code, t).tolist():
        yield LinearCode(code.n, tuple(row))


def _gaussian_binomial(n: int, k: int) -> int:
    """[n, k]_2: the number of k-dimensional subspaces of F_2^n (0 if k > n)."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _linear_kernel_family(n: int, m: int) -> CodeFamily:
    """Kernels of all 2^(mn) m x n matrices, built weighted.

    Every subspace K of codimension r <= min(m, n) is the kernel of exactly
    prod_{i<r} (2^m - 2^i) matrices, the injective maps F_2^n / K -> F_2^m.
    The cap counts distinct members and is checked before any is built; for
    m >= 1, F_2^n and its 2^n - 1 hyperplanes exceed it if n > FAMILY_MEMBER_BITS.
    """
    if n > FAMILY_MEMBER_BITS:
        raise EnumerationCapError(
            f"family of at least 2^{n} distinct members exceeds cap {FAMILY_MEMBER_CAP}")
    distinct = sum(_gaussian_binomial(n, r) for r in range(min(m, n) + 1))
    if distinct > FAMILY_MEMBER_CAP:
        raise EnumerationCapError(
            f"family of {distinct} distinct members exceeds cap {FAMILY_MEMBER_CAP}"
        )
    blocks, weights = [], []
    weight = 1
    for r in range(min(m, n) + 1):
        blocks.append(_subspace_bases(LinearCode.full(n), n - r))
        weights.append(weight)
        weight *= (1 << m) - (1 << r)
    counts = [len(block) for block in blocks]
    bases = np.zeros((sum(counts), n), dtype=_row_dtype(n))
    for block, end in zip(blocks, accumulate(counts)):
        bases[end - len(block):end, :block.shape[1]] = block
    return CodeFamily._packed(n, bases, np.repeat(_int_array(weights), counts), 1 << (m * n))


def tight_family(n: int, t: int, epsilon, x: int) -> CodeFamily:
    """Family achieving the plain duality bound with equality at x.

    Mixes all t-dim subspaces of V_x = {y : (x,y) = 0} with all subspaces
    spanned by a (t-1)-dim subspace of V_x and one vector outside V_x, with
    integer multiplicities realizing the mixture weight
    p = (1 - 2^(t-n) ε) 2^(1-t) + ε - 1; then Pr[x ∈ C_r^⊥] = p exactly.
    """
    if n > TIGHT_FAMILY_CAP:
        raise EnumerationCapError(f"n={n} exceeds subspace enumeration cap {TIGHT_FAMILY_CAP}")
    if not 1 <= t < n:
        raise ValueError(
            f"need 1 <= t < n (members lie in V_x, of dimension n - 1); got t={t}, n={n}"
        )
    epsilon = Fraction(epsilon)
    eps_max = Fraction(2 - Fraction(2, 1 << t), 1 - Fraction(2, 1 << n))
    if not 0 < epsilon <= eps_max:
        raise ValueError(f"epsilon out of range (0, {eps_max}]")
    if not 0 < x < (1 << n):
        raise ValueError("x must be a nonzero n-bit vector")
    p = duality_bound(epsilon, t, n)
    if p < 0:
        raise ValueError("epsilon below the feasible range: mixture weight negative")

    # The mixture of A (the t-dim subspaces of V_x, weight a |B| each) and
    # B (one member W + <z> per (t-1)-dim W in V_x and z outside V_x, weight
    # (b - a) |A| each), merged: a t-dim S outside V_x arises 2^(t-1) times
    # in B, once per z in S \ V_x.
    size_a = _gaussian_binomial(n - 1, t)
    size_b = _gaussian_binomial(n - 1, t - 1) << (n - 1)
    a, b = p.numerator, p.denominator
    weight_in, weight_out = a * size_b, ((b - a) * size_a) << (t - 1)
    bases = _subspace_bases(LinearCode.full(n), t)
    # a member lies outside V_x iff one of its rows has odd parity with x
    odd = np.array([v.bit_count() & 1 for v in range(1 << n)], dtype=bool)
    outside = np.zeros(len(bases), dtype=bool)
    for column in bases.T:  # row j of every member
        outside |= odd[column & x]
    weights = _int_array([weight_in, weight_out])[outside.astype(np.intp)]
    keep = weights != 0
    return CodeFamily._packed(n, bases[keep], weights[keep],
                              size_a * (a > 0) + size_b * (b > a))


def _orbit_epsilon(n: int, counts, size: int) -> Fraction:
    """max over k ≥ 1 of 2^n counts[k] / (binom(n, k) size), as one
    Fraction: counts[k] / binom(n, k) = counts[k] k! (n-k)! / n!, so the
    largest integer counts[k] k! (n-k)! picks k."""
    k = max(range(1, n + 1), key=lambda k: counts[k] * factorial(k) * factorial(n - k))
    return Fraction(counts[k] << n, comb(n, k) * size)


def permuted_epsilon(c: LinearCode) -> Fraction:
    """Universality parameter of the bit-permutation orbit of a code.

    Depends only on the weight distribution: max over k ≥ 1 of
    2^n c[k] / (binom(n, k) |C|), c[k] the number of codewords of weight k.
    """
    return _orbit_epsilon(c.n, _weight_counts(c), len(c))


def permuted_pair_epsilon(c1: LinearCode, c2: LinearCode) -> Fraction:
    """Pair universality parameter ε(C1/C2) of the permuted pair orbit:
    max over k ≥ 1 of 2^n (c1[k] - c2[k]) / (binom(n, k) |C1|), ci[k] the
    number of words of weight k in Ci."""
    if not c1.contains_code(c2):
        raise ValueError("C2 is not a subcode of C1")
    counts = [a - b for a, b in zip(_weight_counts(c1), _weight_counts(c2))]
    return _orbit_epsilon(c1.n, counts, len(c1))


def _random_rows(n: int, t: int, rng: random.Random) -> tuple[int, ...]:
    """The rows of a uniform full-rank (n-t) x n matrix, drawn again while
    their rank is below n - t; t = n draws nothing."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    while True:
        rows = tuple(rng.randrange(1 << n) for _ in range(n - t))
        if rank(rows) == n - t:
            return rows


def random_code(n: int, t: int, rng: random.Random) -> LinearCode:
    """Kernel of a uniform full-rank (n-t) x n matrix: a uniform t-dim code."""
    return kernel(BinaryMatrix(_random_rows(n, t, rng), n))


def random_extension(base: LinearCode, t: int, rng: random.Random) -> LinearCode:
    """Uniform t-dim code containing `base`, sampled in the quotient space."""
    d2 = base.dim
    if not d2 <= t <= base.n:
        raise ValueError("need dim(base) <= t <= n")
    q = base.n - d2
    if not q:
        return base
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


def counterexample_family(n: int, seed: int | None = None) -> CodeFamily:
    """2-almost universal family whose duals all contain e_n = (0,...,0,1).

    Takes the kernels of all 2 x (n-1) matrices and appends a zero last bit
    to every codeword; privacy amplification with this family leaks the
    last input bit in full.  Built weighted while its distinct members fit
    the family cap (n <= 10), otherwise a seeded sample of 2^10 matrices;
    n above AMBIENT_CAP, which no count admits, is refused before sampling.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_ambient(n)
    try:
        inner = _linear_kernel_family(n - 1, 2)
    except EnumerationCapError:
        if seed is None:
            raise ValueError("family too large to enumerate; a seed is required") from None
        hf = HashFamily(HashFamilySpec("random_linear", n - 1, 2))
        inner = CodeFamily(kernel(BinaryMatrix(tuple(rows), n - 1))
                           for rows in hf.sample_rows(1 << 10, seed).tolist())
    return CodeFamily._packed(n, inner.bases << 1, inner._weight_array, inner.members)
