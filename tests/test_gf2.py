"""Exact GF(2) linear algebra: ranks, duals, weight enumerators, cosets."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash.gf2 import (
    BinaryMatrix,
    BitVector,
    EnumerationCapError,
    LinearCode,
    bits_from_string,
    bits_to_string,
    complement_basis,
    cosets,
    dual,
    format_code,
    kernel,
    macwilliams_transform,
    parse_code,
    rank,
    rref,
    walsh_hadamard,
    weight_distribution,
)
from dualhash.universality import subspaces_of


def random_matrix(rng, rows, cols):
    return BinaryMatrix(tuple(rng.randrange(1 << cols) for _ in range(rows)), cols)


def test_bitvector_positions_and_order():
    v = BitVector.from_string("0110")
    assert [v[i] for i in range(4)] == [0, 1, 1, 0]
    assert v.value == 0b0110
    # lexicographic order on strings equals integer order
    a = BitVector.from_string("0111")
    b = BitVector.from_string("1000")
    assert a.value < b.value
    assert str(a) < str(b)


def test_bitvector_ops():
    a = BitVector.from_string("1100")
    b = BitVector.from_string("1010")
    assert str(a ^ b) == "0110"
    assert a.weight() == 2
    assert a.dot(b) == 1
    assert a.dot(a) == 0


@given(st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(n, data):
    rows = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=2 * n)
    )
    m = BinaryMatrix(tuple(rows), n)
    assert m.rank() + kernel(m).dim == n


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_dual_involution_and_dimension(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=n))
    c = LinearCode.from_rows(n, rows)
    d = dual(c)
    assert c.dim + d.dim == n
    assert dual(d) == c
    for x in d.codewords():
        assert all((x & b).bit_count() % 2 == 0 for b in c.basis)


def test_rref_is_canonical():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 10)
        rows = [rng.randrange(1 << n) for _ in range(rng.randrange(1, n + 1))]
        c1 = LinearCode.from_rows(n, rows)
        rng.shuffle(rows)
        mixed = list(rows)
        if len(mixed) > 1:
            mixed[0] ^= mixed[1]  # same span, different generators
        c2 = LinearCode.from_rows(n, mixed)
        assert c1 == c2


@st.composite
def bases(draw):
    """A row tuple of length n <= 8: random rows, or a canonical basis
    with at most one bit flipped or two rows swapped."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 1))
    if draw(st.booleans()):
        rows = list(rref(rows, n)[0])
        if rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] ^= 1 << draw(st.integers(0, n - 1))
        if len(rows) > 1 and draw(st.booleans()):
            rows[0], rows[-1] = rows[-1], rows[0]
    return n, tuple(rows)


def accepted(n, basis):
    try:
        LinearCode(n, basis)
    except ValueError as exc:
        assert "canonical RREF" in str(exc)
        return False
    return True


@given(bases())
@settings(max_examples=300, deadline=None)
def test_canonical_check_matches_rref(case):
    n, basis = case
    assert accepted(n, basis) == (rref(basis, n)[0] == basis)


def test_out_of_range_row_rejected():
    # rref leaves a row above 2^n unchanged, so the old check let it through
    for n, basis in ((2, (4,)), (3, (8, 1)), (3, (-1,)), (3, (0,))):
        with pytest.raises(ValueError, match="not in canonical RREF"):
            LinearCode(n, basis)


def test_walsh_hadamard_rows_in_place():
    rng = np.random.default_rng(3)
    rows = rng.integers(-5, 6, size=(3, 16))
    expected = [[sum(int(v) * (-1) ** (x & y).bit_count() for y, v in enumerate(r))
                 for x in range(16)] for r in rows]
    out = walsh_hadamard(rows)
    assert out is rows and rows.tolist() == expected
    with pytest.raises(ValueError):
        walsh_hadamard(np.zeros(6))
    with pytest.raises(ValueError):
        walsh_hadamard(np.zeros((4, 8))[:, ::2])


def test_codeword_enumeration_matches_span():
    c = LinearCode.from_strings(["1100", "0011"])
    words = sorted(c.codewords())
    assert words == sorted({0, 0b1100, 0b0011, 0b1111})
    assert len(c) == 4
    assert c.contains(0b1111) and not c.contains(0b1000)


def test_transpose_and_mul_vector():
    m = BinaryMatrix.from_strings(["110", "011"])
    assert m.transpose().rows == BinaryMatrix.from_strings(["10", "11", "01"]).rows
    # y_i = row_i . x
    assert m.mul_vector(0b101) == 0b11


@given(st.integers(3, 10), st.integers(1, 9), st.data())
@settings(max_examples=40, deadline=None)
def test_macwilliams_oracle(n, t, data):
    t = min(t, n - 1)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    rows = [rng.randrange(1 << n) for _ in range(t)]
    c = LinearCode.from_rows(n, rows)
    direct = weight_distribution(dual(c))
    transformed = macwilliams_transform(weight_distribution(c), c.dim)
    assert direct.mass == transformed.mass


def test_weight_distribution_examples():
    rep = LinearCode.repetition(4)
    w = weight_distribution(rep)
    assert w[0] == Fraction(1, 2) and w[4] == Fraction(1, 2)
    assert weight_distribution(LinearCode.full(3)).mass == (
        Fraction(1, 8),
        Fraction(3, 8),
        Fraction(3, 8),
        Fraction(1, 8),
    )


def test_cosets_partition_the_outer_code():
    c1 = LinearCode.full(4)
    c2 = LinearCode.from_strings(["1100", "0011"])
    reps = cosets(c1, c2)
    assert reps[0] == 0
    seen = set()
    for r in reps:
        for w in c2.codewords():
            seen.add(r ^ w)
    assert seen == set(range(16))
    for x in range(16):
        assert sum(c2.contains(x ^ r) for r in reps) == 1


def test_complement_basis_spans():
    c1 = LinearCode.full(5)
    c2 = LinearCode.from_strings(["11000", "00110"])
    comp = complement_basis(c1, c2)
    assert len(comp) == 3
    assert rank(list(c2.basis) + comp) == 5


def test_enumeration_caps():
    big = LinearCode.full(30)
    with pytest.raises(EnumerationCapError):
        list(big.codewords())
    with pytest.raises(EnumerationCapError):
        cosets(LinearCode.full(24), LinearCode.zero(24))


def test_parse_format_roundtrip():
    c = LinearCode.from_strings(["10110", "01011"])
    assert parse_code(format_code(c)) == c


def test_bits_string_roundtrip():
    assert bits_from_string("10110") == 0b10110
    assert bits_to_string(0b10110, 5) == "10110"
    with pytest.raises(ValueError):
        bits_from_string("10x")


def test_subspace_count():
    # Gaussian binomial [4 choose 2]_2 = 35
    assert sum(1 for _ in subspaces_of(LinearCode.full(4), 2)) == 35


def test_rref_pivots():
    rows, pivots = rref([0b0111, 0b0101], 4)
    assert pivots == (1, 2)
    assert rows == (0b0101, 0b0010)
