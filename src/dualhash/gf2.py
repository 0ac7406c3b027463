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
from math import comb

import numpy as np

__all__ = [
    "BitVector",
    "BinaryMatrix",
    "LinearCode",
    "WeightDistribution",
    "EnumerationCapError",
    "rref",
    "rank",
    "walsh_hadamard",
    "kernel",
    "dual",
    "weight_distribution",
    "macwilliams_transform",
    "cosets",
    "parse_code",
    "format_code",
]

CODEWORD_DIM_CAP = 24
COSET_DIM_CAP = 20


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

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

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

    def dot(self, other: "BitVector") -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.value & other.value).bit_count() & 1


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

    def transpose(self) -> "BinaryMatrix":
        out = []
        for j in range(self.cols):
            row = 0
            for i in range(self.nrows):
                row = (row << 1) | self.entry(i, j)
            out.append(row)
        return BinaryMatrix(tuple(out), self.nrows)

    def rank(self) -> int:
        return rank(self.rows)


def rref(rows, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(2).

    Returns (nonzero rows in RREF, pivot column indices), columns indexed
    from the left (position 0 = integer bit n-1).
    """
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for p, r in zip(pivots, reduced):
            if (row >> (n - 1 - p)) & 1:
                row ^= r
        if row == 0:
            continue
        p = n - 1 - row.bit_length() + 1  # leftmost set bit as position index
        # keep rows sorted by pivot column, eliminate above
        idx = 0
        while idx < len(pivots) and pivots[idx] < p:
            idx += 1
        pivots.insert(idx, p)
        reduced.insert(idx, row)
        mask = 1 << (n - 1 - p)
        for i in range(len(reduced)):
            if i != idx and reduced[i] & mask:
                reduced[i] ^= row
    return tuple(reduced), tuple(pivots)


def rank(rows) -> int:
    reduced: list[int] = []
    for row in rows:
        for r in reduced:
            row = min(row, row ^ r)
        if row:
            reduced.append(row)
            reduced.sort(reverse=True)
    return len(reduced)


def _is_canonical(basis, n: int) -> bool:
    """Whether ``basis`` is what ``rref`` returns for its span, checked
    without elimination: nonzero rows below 2^n, leading bits strictly
    decreasing, and no row has a bit at another row's leading bit."""
    leads = []
    bound = 1 << n
    for r in basis:
        if not 0 < r < bound:
            return False
        bound = 1 << (r.bit_length() - 1)
        leads.append(bound)
    pivots = sum(leads)
    return all(r & pivots == lead for r, lead in zip(basis, leads))


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
        canon, _ = rref(rows, n)
        return cls(n, canon)

    @classmethod
    def from_strings(cls, rows: list[str]) -> "LinearCode":
        n = len(rows[0])
        return cls.from_rows(n, [bits_from_string(r) for r in rows])

    @classmethod
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
        return all(self.contains(r) for r in other.basis)

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
    """The code {x : Mx = 0}; dimension = cols - rank(M)."""
    n = m.cols
    reduced, pivots = rref(m.rows, n)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        x = 1 << (n - 1 - f)
        for p, r in zip(pivots, reduced):
            if (r >> (n - 1 - f)) & 1:
                x |= 1 << (n - 1 - p)
        basis.append(x)
    return LinearCode.from_rows(n, basis)


def dual(c: LinearCode) -> LinearCode:
    """The dual code C^perp = {y : (x,y)=0 for all x in C}."""
    return kernel(BinaryMatrix(c.basis, c.n))


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a C-contiguous array along its last
    axis, in place: a[..., x] becomes sum_y a[..., y] (-1)^(x.y).

    One butterfly stage per bit; each stage writes a + b and a - b back
    into the pair.  Exact on integer and object arrays as long as the
    values fit the dtype; returns ``a``.
    """
    size = a.shape[-1]
    if size & (size - 1) or not a.flags.c_contiguous:
        raise ValueError("need a C-contiguous array with a power-of-two last axis")
    h = 1
    while h < size:
        pairs = a.reshape(*a.shape[:-1], size // (2 * h), 2, h)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        diff = lo - hi
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
    def point(cls, n: int, k: int) -> "WeightDistribution":
        return cls(n, tuple(Fraction(int(i == k)) for i in range(n + 1)))

    @classmethod
    def binomial(cls, n: int, p: Fraction) -> "WeightDistribution":
        p = Fraction(p)
        return cls(
            n,
            tuple(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)),
        )

    def __getitem__(self, k: int) -> Fraction:
        return self.mass[k]


def weight_distribution(c: LinearCode) -> WeightDistribution:
    counts = [0] * (c.n + 1)
    for w in c.codewords():
        counts[w.bit_count()] += 1
    total = len(c)
    return WeightDistribution(c.n, tuple(Fraction(k, total) for k in counts))


def macwilliams_transform(w: WeightDistribution, dim: int) -> WeightDistribution:
    """Weight distribution of the dual via the MacWilliams identity.

    Used as an independent oracle against direct dual enumeration.
    `dim` is the dimension of the code whose distribution `w` is.
    """
    n = w.n
    size = 1 << dim
    counts = [w[k] * size for k in range(n + 1)]
    dual_counts = []
    for j in range(n + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            kraw = sum(
                (-1) ** i * comb(k, i) * comb(n - k, j - i)
                for i in range(0, min(k, j) + 1)
            )
            acc += counts[k] * kraw
        dual_counts.append(acc / size)
    dual_size = 1 << (n - dim)
    return WeightDistribution(n, tuple(c / dual_size for c in dual_counts))


def cosets(c1: LinearCode, c2: LinearCode) -> list[int]:
    """Representatives of C1/C2, the zero coset first.

    Representatives are the codewords of a complement of C2 inside C1,
    so each rep is the minimum useful canonical form and rep of [0] is 0.
    """
    if c1.n != c2.n:
        raise ValueError("length mismatch")
    if not c1.contains_code(c2):
        raise ValueError("C2 is not a subcode of C1")
    k = c1.dim - c2.dim
    if k > COSET_DIM_CAP:
        raise EnumerationCapError(f"C1/C2 index 2^{k} exceeds cap 2^{COSET_DIM_CAP}")
    comp = complement_basis(c1, c2)
    reps = [0]
    for i in range(1, 1 << k):
        x = 0
        for j in range(k):
            if (i >> j) & 1:
                x ^= comp[j]
        reps.append(x)
    return reps


def complement_basis(c1: LinearCode, c2: LinearCode) -> list[int]:
    """Basis vectors of C1 completing a basis of C2."""
    rows = list(c2.basis)
    comp = []
    for b in c1.basis:
        if rank(rows + [b]) > len(rows):
            rows.append(b)
            comp.append(b)
    return comp


def parse_code(text: str) -> LinearCode:
    """Code file format: first line "n k", then k rows of n bits."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n, k = map(int, lines[0].split())
    rows = lines[1 : 1 + k]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError("malformed code file")
    return LinearCode.from_rows(n, [bits_from_string(r) for r in rows])


def format_code(c: LinearCode) -> str:
    lines = [f"{c.n} {c.dim}"]
    lines += [bits_to_string(r, c.n) for r in c.basis]
    return "\n".join(lines) + "\n"
