"""Linear hash-function families over GF(2).

A hash function is an m x n binary matrix applied to n-bit inputs.  The
families here are the standard privacy-amplification constructions: all
Toeplitz matrices, modified Toeplitz matrices (T | I), all linear maps,
and families built from code families via parity-check matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf2 import (
    BinaryMatrix,
    BitVector,
    LinearCode,
    bits_from_string,
    bits_to_string,
    dual,
    kernel,
)

__all__ = [
    "HashFunction",
    "HashFamilySpec",
    "HashFamily",
    "apply_hash",
    "kernel_code",
    "toeplitz_matrix",
    "modified_toeplitz_matrix",
    "modified_toeplitz_dual",
    "parse_hash",
    "format_hash",
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


def modified_toeplitz_matrix(n: int, m: int, diagonals: int) -> BinaryMatrix:
    """(T | I_m) with T the m x (n-m) Toeplitz block from n-1 diagonal bits."""
    t = toeplitz_matrix(n - m, m, diagonals)
    rows = tuple((r << m) | (1 << (m - 1 - i)) for i, r in enumerate(t.rows))
    return BinaryMatrix(rows, n)


def modified_toeplitz_dual(n: int, m: int, diagonals: int) -> BinaryMatrix:
    """The paired surjection N = (I_{n-m} | T^t); satisfies M N^t = 0."""
    t = toeplitz_matrix(n - m, m, diagonals)
    tt = t.transpose()
    rows = tuple(
        (1 << (n - 1 - i)) | tt.rows[i] for i in range(n - m)
    )
    return BinaryMatrix(rows, n)


@dataclass(frozen=True)
class HashFamilySpec:
    kind: str  # toeplitz | modified_toeplitz | random_linear | from_code_family
    n: int
    m: int
    codes: tuple[LinearCode, ...] | None = None


class HashFamily:
    """Indexable family of hash functions with a fixed enumeration order.

    Indices encode the free parameters little-endian: index r of a Toeplitz
    family is the packed diagonal word, index r of the random_linear family
    is the packed matrix (row 0 in the lowest n bits).
    """

    def __init__(self, spec: HashFamilySpec):
        kind, n, m = spec.kind, spec.n, spec.m
        if m > n or m < 1:
            raise ValueError("need n >= m >= 1")
        self.spec = spec
        self.n, self.m = n, m
        if kind == "toeplitz":
            self.index_space = 1 << (n + m - 1)
        elif kind == "modified_toeplitz":
            self.index_space = 1 << (n - 1)
        elif kind == "random_linear":
            self.index_space = 1 << (m * n)
        elif kind == "from_code_family":
            if not spec.codes:
                raise ValueError("from_code_family needs codes")
            self.index_space = len(spec.codes)
        else:
            raise ValueError(f"unknown family kind: {kind}")

    def __getitem__(self, r: int) -> HashFunction:
        if not 0 <= r < self.index_space:
            raise IndexError(r)
        kind, n, m = self.spec.kind, self.n, self.m
        if kind == "toeplitz":
            return HashFunction(n, m, toeplitz_matrix(n, m, r))
        if kind == "modified_toeplitz":
            return HashFunction(n, m, modified_toeplitz_matrix(n, m, r))
        if kind == "random_linear":
            rows = tuple((r >> (i * n)) & ((1 << n) - 1) for i in range(m))
            return HashFunction(n, m, BinaryMatrix(rows, n))
        # from_code_family: parity-check matrix of the code (canonical basis
        # of the dual), padded with zero rows up to m when dim dual < m
        code = self.spec.codes[r]
        h = dual(code).basis
        if len(h) > m:
            raise ValueError("code dual dimension exceeds output length")
        rows = tuple(h) + (0,) * (m - len(h))
        return HashFunction(n, m, BinaryMatrix(rows, n))

    def __iter__(self):
        return (self[r] for r in range(self.index_space))

    def sample(self, count: int, seed: int):
        """Seeded member sample (uniform over the index space)."""
        rng = random.Random(seed)
        return [self[rng.randrange(self.index_space)] for _ in range(count)]


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


def kernel_code(h: HashFunction) -> LinearCode:
    return kernel(h.matrix)


def parse_hash(text: str) -> HashFunction:
    """Hash file format: first line "n m", then m rows of n bits."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n, m = map(int, lines[0].split())
    rows = lines[1 : 1 + m]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError("malformed hash file")
    return HashFunction(n, m, BinaryMatrix(tuple(bits_from_string(r) for r in rows), n))


def format_hash(h: HashFunction) -> str:
    lines = [f"{h.n} {h.m}"]
    lines += [bits_to_string(r, h.n) for r in h.matrix.rows]
    return "\n".join(lines) + "\n"
