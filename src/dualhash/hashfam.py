"""Linear hash-function families over GF(2).

A hash function is an m x n binary matrix applied to n-bit inputs.  The
families here are the standard privacy-amplification constructions: all
Toeplitz matrices, modified Toeplitz matrices (T | I) and all linear maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2 import BinaryMatrix, BitVector

__all__ = [
    "HashFunction",
    "HashFamilySpec",
    "HashFamily",
    "apply_hash",
    "toeplitz_matrix",
    "toeplitz_rows",
    "modified_toeplitz_matrix",
]


@dataclass(frozen=True)
class HashFunction:
    """A linear map F_2^n -> F_2^m given by an m x n matrix."""

    n: int
    m: int
    matrix: BinaryMatrix

    def __post_init__(self):
        if self.matrix.cols != self.n or self.matrix.nrows != self.m:
            raise ValueError("matrix shape does not match (m, n)")

    def __call__(self, x: BitVector) -> BitVector:
        return apply_hash(self, x)


def toeplitz_matrix(n: int, m: int, diagonals: int) -> BinaryMatrix:
    """m x n Toeplitz matrix from n+m-1 packed diagonal bits.

    Diagonal bit j (little-endian bit j of `diagonals`) feeds entry (i, k)
    with k - i + m - 1 = j, so bit m-1 is the main diagonal's start.
    """
    rows = []
    for i in range(m):
        row = 0
        for k in range(n):
            bit = (diagonals >> (k - i + m - 1)) & 1
            row |= bit << (n - 1 - k)
        rows.append(row)
    return BinaryMatrix(tuple(rows), n)


def toeplitz_rows(n: int, m: int, diagonals: np.ndarray) -> np.ndarray:
    """The rows of ``toeplitz_matrix(n, m, r)`` for every r in an int64 array
    of diagonal words, as an int64 array of shape (len(diagonals), m).

    With R the word r bit-reversed over its n+m-1 bits, row i is
    (R >> i) & (2^n - 1): entry (i, k) sits at bit n-1-k of row i and reads
    diagonal bit k - i + m - 1, which is bit n-1-k+i of R.
    """
    width = n + m - 1
    if width > 62:
        raise ValueError(f"n + m - 1 = {width} diagonal bits do not fit int64")
    diagonals = np.asarray(diagonals, dtype=np.int64)
    reversed_ = np.zeros_like(diagonals)
    for j in range(width):
        reversed_ |= ((diagonals >> j) & 1) << (width - 1 - j)
    return (reversed_[:, None] >> np.arange(m)) & ((1 << n) - 1)


def modified_toeplitz_matrix(n: int, m: int, diagonals: int) -> BinaryMatrix:
    """(T | I_m) with T the m x (n-m) Toeplitz block from n-1 diagonal bits."""
    t = toeplitz_matrix(n - m, m, diagonals)
    rows = tuple((r << m) | (1 << (m - 1 - i)) for i, r in enumerate(t.rows))
    return BinaryMatrix(rows, n)


@dataclass(frozen=True)
class HashFamilySpec:
    kind: str  # toeplitz | modified_toeplitz | random_linear
    n: int
    m: int


class HashFamily:
    """Indexable family of hash functions with a fixed enumeration order.

    Indices encode the free parameters little-endian: index r of a Toeplitz
    family is the packed diagonal word, index r of the random_linear family
    is the packed matrix (row 0 in the lowest n bits).  ``index_bits`` is
    their width; the index space 2^index_bits is built on first use.
    """

    def __init__(self, spec: HashFamilySpec):
        kind, n, m = spec.kind, spec.n, spec.m
        if m > n or m < 1:
            raise ValueError("need n >= m >= 1")
        self.spec = spec
        self.n, self.m = n, m
        if kind == "toeplitz":
            self.index_bits = n + m - 1
        elif kind == "modified_toeplitz":
            if m == n:
                raise ValueError("modified_toeplitz needs n > m")
            self.index_bits = n - 1
        elif kind == "random_linear":
            self.index_bits = m * n
        else:
            raise ValueError(f"unknown family kind: {kind}")

    @cached_property
    def index_space(self) -> int:
        return 1 << self.index_bits

    @property
    def members(self) -> int:
        """The number of members as given, one per index (as ``CodeFamily.members``)."""
        return self.index_space

    def __getitem__(self, r: int) -> HashFunction:
        if not 0 <= r < self.index_space:
            raise IndexError(r)
        kind, n, m = self.spec.kind, self.n, self.m
        if kind == "toeplitz":
            return HashFunction(n, m, toeplitz_matrix(n, m, r))
        if kind == "modified_toeplitz":
            return HashFunction(n, m, modified_toeplitz_matrix(n, m, r))
        rows = tuple((r >> (i * n)) & ((1 << n) - 1) for i in range(m))
        return HashFunction(n, m, BinaryMatrix(rows, n))

    def __iter__(self):
        return (self[r] for r in range(self.index_space))

    def _sample_indices(self, count: int, seed: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.randrange(self.index_space) for _ in range(count)]

    def _rows(self, indices) -> np.ndarray:
        """The rows of the members at ``indices``, (len(indices), m) int64, in
        bulk: from ``toeplitz_rows`` ((T | I) shifts T's rows left by m and
        adds the identity bits), or read off m n-bit random-linear indices."""
        n, m = self.n, self.m
        if self.spec.kind == "random_linear":
            r = np.array(indices, dtype=object)[:, None]
            return ((r >> np.arange(0, m * n, n)) & ((1 << n) - 1)).astype(np.int64)
        words = np.asarray(indices, dtype=np.int64)
        if self.spec.kind == "toeplitz":
            return toeplitz_rows(n, m, words)
        return (toeplitz_rows(n - m, m, words) << m) | (1 << np.arange(m - 1, -1, -1))

    def sample_rows(self, count: int, seed: int) -> np.ndarray:
        """The rows of a seeded member sample, uniform over the index space,
        as a (count, m) int64 array; rows or Toeplitz diagonal words of more
        than 62 bits are refused before any index is drawn."""
        width = self.n + self.m - 1 if self.spec.kind == "toeplitz" else self.n
        if width > 62:
            raise ValueError(f"{width}-bit rows or diagonal words do not fit int64")
        return self._rows(self._sample_indices(count, seed))


def apply_hash(h: HashFunction, x: BitVector) -> BitVector:
    """y = Mx, one row parity per output bit."""
    if x.n != h.n:
        raise ValueError("input length mismatch")
    return BitVector(h.m, h.matrix.mul_vector(x.value))


def apply_hash_schoolbook(h: HashFunction, x: BitVector) -> BitVector:
    """Mx by row parities, without apply_hash's length check.

    The benchmark's numpy oracle is tested against this function.
    """
    return BitVector(h.m, h.matrix.mul_vector(x.value))
