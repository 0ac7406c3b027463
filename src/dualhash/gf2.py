"""Exact linear algebra over GF(2).

Vectors and matrix rows are bit-packed into Python integers: bit position
``i`` (0 = leftmost in the text format) lives at integer bit ``n-1-i``, so
lexicographic order on bit strings coincides with integer order.  All
probabilities derived from counting are exact :class:`fractions.Fraction`
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np

__all__ = [
    "BitVector",
    "BinaryMatrix",
    "LinearCode",
    "WeightDistribution",
    "EnumerationCapError",
    "rank",
    "walsh_hadamard",
    "kernel",
    "dual",
    "weight_distribution",
    "span",
    "syndromes",
    "parse_code",
    "format_code",
]

CODEWORD_DIM_CAP = 24


class EnumerationCapError(ValueError):
    """Raised when an exact enumeration would exceed its declared cap."""


def bits_from_string(s: str) -> int:
    if s and set(s) - {"0", "1"}:
        raise ValueError(f"not a bit string: {s!r}")
    return int(s, 2) if s else 0


def bits_to_string(value: int, n: int) -> str:
    return format(value, f"0{n}b")


@dataclass(frozen=True)
class BitVector:
    """A length-n vector over GF(2), packed into an int."""

    n: int
    value: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("length must be positive")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError("value out of range for length")

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        return cls(len(s), bits_from_string(s))

    def __str__(self) -> str:
        return bits_to_string(self.value, self.n)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> (self.n - 1 - i)) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.value ^ other.value)

    def weight(self) -> int:
        return self.value.bit_count()


@dataclass(frozen=True)
class BinaryMatrix:
    """A rows x cols matrix over GF(2); each row is a packed int."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if self.cols <= 0:
            raise ValueError("cols must be positive")
        for r in self.rows:
            if not 0 <= r < (1 << self.cols):
                raise ValueError("row out of range for cols")

    @classmethod
    def from_strings(cls, rows: list[str]) -> "BinaryMatrix":
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(tuple(bits_from_string(r) for r in rows), cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> (self.cols - 1 - j)) & 1

    def mul_vector(self, x: int) -> int:
        """Return Mx as a packed int of width nrows."""
        y = 0
        for r in self.rows:
            y = (y << 1) | ((r & x).bit_count() & 1)
        return y

    def rank(self) -> int:
        return rank(self.rows)


def _reduce(x: int, ech: dict[int, int]) -> int:
    """x plus the rows of ``ech`` whose pivot it holds.

    ``ech`` is a fully reduced echelon: a dict from pivot bit (as a mask)
    to row, each row holding its own pivot and no other row's.  Adding a
    row clears its pivot in x and leaves every other pivot bit as it was,
    so one pass in any order clears them all; the result is 0 iff x lies
    in the span.
    """
    for p, r in ech.items():
        if x & p:
            x ^= r
    return x


def _insert(ech: dict[int, int], row: int, lowest: bool = False) -> bool:
    """Add ``row`` to the span of ``ech`` in place, keeping it fully
    reduced; False if it was already in the span.

    The new pivot is the row's leading bit, or its lowest set bit with
    ``lowest``; it is cleared from every other row.
    """
    row = _reduce(row, ech)
    if not row:
        return False
    p = row & -row if lowest else 1 << (row.bit_length() - 1)
    for q, r in ech.items():
        if r & p:
            ech[q] = r ^ row
    ech[p] = row
    return True


def _echelon(rows, lowest: bool = False) -> dict[int, int]:
    """The fully reduced echelon of the span of ``rows``."""
    ech: dict[int, int] = {}
    for row in rows:
        _insert(ech, row, lowest)
    return ech


def rank(rows) -> int:
    """The dimension of the span of ``rows``, from a basis with one row per
    leading bit: each row is reduced by the basis row holding its leading
    bit until it is 0 or leads with a new bit.  The rank needs no fully
    reduced echelon (``_echelon``)."""
    leads: dict[int, int] = {}
    for row in rows:
        while row and (b := leads.get(row.bit_length())):
            row ^= b
        if row:
            leads[row.bit_length()] = row
    return len(leads)


def _is_canonical(basis, n: int) -> bool:
    """Whether ``basis`` is what ``LinearCode.from_rows`` returns for its
    span (the fully reduced echelon with leading-bit pivots, rows in
    decreasing order), checked without elimination: nonzero rows below
    2^n, leading bits strictly decreasing, and each row holds exactly one
    leading bit of the basis (its own)."""
    pivots = 0
    bound = 1 << n
    for r in basis:
        if not 0 < r < bound:
            return False
        bound = 1 << (r.bit_length() - 1)
        pivots |= bound
    return all((r & pivots).bit_count() == 1 for r in basis)


def _canonical_rows(bases: np.ndarray, n: int) -> np.ndarray:
    """``_is_canonical`` for each row of a 2-D int array, read as a basis
    zero-padded at the end.  A zero entry has leading bit 0, which bounds
    every entry after it to zero; leading bits come from smearing the bits
    rightwards, exact on int64 and on object arrays of Python ints."""
    smear, shift = bases, 1
    while shift < n:
        smear = smear | smear >> shift
        shift <<= 1
    leads = smear ^ (smear >> 1)
    pivots = np.zeros(len(bases), dtype=bases.dtype)
    for lead in leads.T:  # column by column: row-wise reduces are slow on short rows
        pivots |= lead
    below = (bases > 0) & (bases < 1 << n)
    below[:, 1:] &= bases[:, 1:] < leads[:, :-1]
    ok = np.ones(len(bases), dtype=bool)
    for col in (((bases == 0) | below) & ((bases & pivots[:, None]) == leads)).T:
        ok &= col
    return ok


@dataclass(frozen=True)
class LinearCode:
    """A linear subspace of F_2^n, stored by its canonical RREF basis.

    Equality of codes is basis-tuple equality because the basis is canonical.
    """

    n: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("length must be positive")
        if not _is_canonical(self.basis, self.n):
            raise ValueError("basis is not in canonical RREF form; use from_rows")

    @classmethod
    def from_rows(cls, n: int, rows) -> "LinearCode":
        return cls(n, tuple(sorted(_echelon(rows).values(), reverse=True)))

    @classmethod
    def from_strings(cls, rows: list[str]) -> "LinearCode":
        n = len(rows[0])
        return cls.from_rows(n, [bits_from_string(r) for r in rows])

    @classmethod
    @cache  # a frozen value, built once per length: plain codes score as (C, {0})
    def zero(cls, n: int) -> "LinearCode":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "LinearCode":
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    @classmethod
    def repetition(cls, n: int) -> "LinearCode":
        return cls(n, ((1 << n) - 1,))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << self.dim

    def contains(self, x: int) -> bool:
        for r in self.basis:
            if x ^ r < x:
                x ^= r
        return x == 0

    def contains_code(self, other: "LinearCode") -> bool:
        return other.n == self.n and all(self.contains(r) for r in other.basis)

    def codewords(self):
        """Iterate all codewords (Gray-code order); capped at dim 24."""
        if self.dim > CODEWORD_DIM_CAP:
            raise EnumerationCapError(
                f"dim {self.dim} exceeds enumeration cap {CODEWORD_DIM_CAP}"
            )
        word = 0
        yield 0
        gray_prev = 0
        for i in range(1, 1 << self.dim):
            gray = i ^ (i >> 1)
            word ^= self.basis[(gray ^ gray_prev).bit_length() - 1]
            gray_prev = gray
            yield word

    def dual(self) -> "LinearCode":
        return dual(self)

    def weight_distribution(self) -> "WeightDistribution":
        return weight_distribution(self)


def kernel(m: BinaryMatrix) -> LinearCode:
    """The code {x : Mx = 0}; dimension = cols - rank(M).

    One elimination that puts each row's pivot at its lowest set bit (as an
    integer).  The kernel vector of a free bit f is f plus the pivots of the
    rows holding f, all below f, so f is its leading bit and it holds no
    other free bit: taken over the free bits from the top, these vectors
    are already the canonical basis.
    """
    n = m.cols
    ech = _echelon(m.rows, lowest=True)
    basis = []
    for f in range(n - 1, -1, -1):
        free = 1 << f
        if free not in ech:
            x = free
            for p, r in ech.items():
                if r & free:
                    x |= p
            basis.append(x)
    return LinearCode(n, tuple(basis))


def dual(c: LinearCode) -> LinearCode:
    """The dual code C^perp = {y : (x,y)=0 for all x in C}."""
    return kernel(BinaryMatrix(c.basis, c.n))


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a C-contiguous array along its last
    axis, in place: a[..., x] becomes sum_y a[..., y] (-1)^(x.y).

    One butterfly stage per bit; each stage writes a + b and a - b back
    into the pair, a - b through one half-size buffer that every stage
    reuses.  Exact on integer and object arrays as long as the values fit
    the dtype; returns ``a``.
    """
    size = a.shape[-1]
    if size & (size - 1) or not a.flags.c_contiguous:
        raise ValueError("need a C-contiguous array with a power-of-two last axis")
    buf = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < size:
        pairs = a.reshape(*a.shape[:-1], size // (2 * h), 2, h)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        diff = np.subtract(lo, hi, out=buf.reshape(lo.shape))
        lo += hi
        hi[...] = diff
        h *= 2
    return a


@dataclass(frozen=True)
class WeightDistribution:
    """Probability mass over Hamming weights 0..n, exact rationals."""

    n: int
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.mass) != self.n + 1:
            raise ValueError("mass must have n+1 entries")
        if any(m < 0 for m in self.mass):
            raise ValueError("negative mass")
        if sum(self.mass) != 1:
            raise ValueError("mass does not sum to 1")

    @classmethod
    def binomial(cls, n: int, p: Fraction) -> "WeightDistribution":
        p = Fraction(p)
        return cls(
            n,
            tuple(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)),
        )

    def __getitem__(self, k: int) -> Fraction:
        return self.mass[k]


def _weight_counts(c: LinearCode) -> list[int]:
    """counts[k] = the number of codewords of weight k, for k = 0..n."""
    counts = [0] * (c.n + 1)
    for w in c.codewords():
        counts[w.bit_count()] += 1
    return counts


def weight_distribution(c: LinearCode) -> WeightDistribution:
    total = len(c)
    return WeightDistribution(c.n, tuple(Fraction(k, total) for k in _weight_counts(c)))


def span(gens) -> np.ndarray:
    """words[..., a] = the XOR of gens[..., j] over the set bits j of a, for
    generator lists stacked on the leading axes, in the dtype of ``gens``:
    a basis's codewords, in one doubling pass.  The last axis has 2^len
    entries; callers bound it.
    """
    gens = np.asarray(gens)
    size = gens.shape[-1]
    words = np.zeros((*gens.shape[:-1], 1 << size), dtype=gens.dtype)
    for j in range(size):
        np.bitwise_xor(words[..., : 1 << j], gens[..., j, None],
                       out=words[..., 1 << j : 2 << j])
    return words


def syndromes(rows, n: int) -> np.ndarray:
    """s[..., x] = Hx for every x in F_2^n, H the matrix whose rows are the
    last axis of ``rows`` (row 0 is the top bit, as in ``mul_vector``).

    Two words share a label iff they differ by an element of the kernel of
    H, so with the rows spanning C^perp the labels key the cosets of C.  The
    labels are the span of the column syndromes H e_j (``_column_syndromes``);
    the last axis has 2^n entries, callers bound n.
    """
    return span(_column_syndromes(rows, n))


def _column_syndromes(rows, n: int) -> np.ndarray:
    """c[..., j] = H e_j, the syndrome of bit j, for j < n, H the matrix whose
    rows are the last axis of ``rows``, in the dtype of the rows (int64 for
    a list)."""
    rows = np.asarray(rows)
    if ((rows < 0) | (rows >= 1 << n)).any():
        raise ValueError("row out of range for cols")
    if rows.dtype.kind != "i":  # a list of Python ints, or an empty one
        rows = rows.astype(np.int64)
    bits = (rows[..., None] >> np.arange(n, dtype=rows.dtype)) & 1
    shifts = np.arange(rows.shape[-1] - 1, -1, -1, dtype=rows.dtype)[:, None]
    return (bits << shifts).sum(axis=-2, dtype=rows.dtype)


def complement_basis(c1: LinearCode, c2: LinearCode) -> list[int]:
    """Basis vectors of C1 completing a basis of C2: each row of C1's
    basis, in order, that is outside the span of C2 and the rows kept
    before it."""
    ech = _echelon(c2.basis)
    return [b for b in c1.basis if _insert(ech, b)]


def parse_code(text: str) -> LinearCode:
    """Code file format: first line "n k", then k rows of n bits."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("malformed code file")
    n, k = map(int, lines[0].split())
    rows = lines[1 : 1 + k]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError("malformed code file")
    return LinearCode.from_rows(n, [bits_from_string(r) for r in rows])


def format_code(c: LinearCode) -> str:
    lines = [f"{c.n} {c.dim}"]
    lines += [bits_to_string(r, c.n) for r in c.basis]
    return "\n".join(lines) + "\n"
