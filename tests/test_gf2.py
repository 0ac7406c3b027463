"""Exact GF(2) linear algebra: ranks, duals, weight enumerators, syndromes."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import comb
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash.gf2 import (
    BinaryMatrix,
    BitVector,
    EnumerationCapError,
    LinearCode,
    WeightDistribution,
    _canonical_rows,
    _echelon,
    _is_canonical,
    bits_from_string,
    bits_to_string,
    complement_basis,
    dual,
    format_code,
    kernel,
    parse_code,
    rank,
    span,
    syndromes,
    walsh_hadamard,
    weight_distribution,
)
from dualhash.universality import random_code, subspaces_of


def oracle_rref(rows, n):
    """Reference reduced row echelon form: (rows in RREF, pivot positions),
    positions counted from the left (position 0 = integer bit n-1)."""
    reduced, pivots = [], []
    for row in rows:
        for p, r in zip(pivots, reduced):
            if (row >> (n - 1 - p)) & 1:
                row ^= r
        if row == 0:
            continue
        p = n - row.bit_length()
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
        rows = list(oracle_rref(rows, n)[0])
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
    assert accepted(n, basis) == (oracle_rref(basis, n)[0] == basis)


def oracle_is_canonical(basis, n):
    """The earlier form of ``gf2._is_canonical``: the leading bits are kept
    in a list, summed into the pivot mask, and each row must meet the mask
    in exactly its own leading bit."""
    leads = []
    bound = 1 << n
    for r in basis:
        if not 0 < r < bound:
            return False
        bound = 1 << (r.bit_length() - 1)
        leads.append(bound)
    pivots = sum(leads)
    return all(r & pivots == lead for r, lead in zip(basis, leads))


@given(bases())
@settings(max_examples=300, deadline=None)
def test_canonical_check_matches_its_earlier_form(case):
    n, basis = case
    assert _is_canonical(basis, n) == oracle_is_canonical(basis, n)


def padded_oracle(row, n):
    """A zero-padded row read as a basis: its trailing zeros are padding."""
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return oracle_is_canonical(row, n)


@given(st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_vectorised_canonical_check_matches_earlier_form(n, data):
    """Rows of valid and broken bases, zero-padded to one width, with zeros
    and out-of-range entries mixed in; the all-zero row is the empty basis."""
    width = data.draw(st.integers(0, n + 1))
    entry = st.one_of(st.integers(-2, (1 << n) + 1), st.just(0))
    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        if data.draw(st.booleans()):
            basis = list(oracle_rref(data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                                        max_size=width)), n)[0])
            if basis and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(basis) - 1))
                basis[i] = data.draw(entry)
        else:
            basis = data.draw(st.lists(entry, max_size=width))
        rows.append(basis + [0] * (width - len(basis)))
    got = _canonical_rows(np.array(rows, dtype=np.int64).reshape(len(rows), width), n)
    assert got.tolist() == [padded_oracle(r, n) for r in rows]


def test_vectorised_canonical_check_on_python_ints():
    n = 70
    good = LinearCode.from_rows(n, [(1 << 69) | 5, (1 << 40) | 3, 1 << 2]).basis
    rows = [list(good), [good[1], good[0], 0], [0, 0, 0], [good[0], 0, good[2]],
            [1 << 70, 0, 0]]
    got = _canonical_rows(np.array(rows, dtype=object), n)
    assert got.tolist() == [padded_oracle(r, n) for r in rows] == [
        True, False, True, False, False]


@given(st.integers(1, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_from_rows_and_rank_match_oracle_rref(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 3))
    reduced, _ = oracle_rref(rows, n)
    assert LinearCode.from_rows(n, rows).basis == reduced
    assert rank(rows) == len(reduced)


def test_rank_matches_the_echelon_on_degenerate_and_wide_rows():
    """rank counts a basis with one row per leading bit; the size of the
    fully reduced echelon is its oracle, on row sets with zero, repeated
    and dependent rows, and rows up to 130 bits wide."""
    rng = random.Random(33)
    for _ in range(400):
        n = rng.choice([1, 3, 10, 63, 64, 65, 130])
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, 7))]
        for _ in range(rng.randrange(0, 5)):
            # the XOR of a random subset: 0, a repeated row or a dependent one
            rows.append(reduce(xor, rng.sample(rows, rng.randrange(0, len(rows) + 1)), 0))
        rng.shuffle(rows)
        assert rank(rows) == len(_echelon(rows))


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


@pytest.mark.parametrize("dtype", [np.int64, object, float])
def test_walsh_hadamard_exact_in_every_dtype(dtype):
    # object entries pass 2^63; floats are small integers, exact in float64
    big = 1 << 70 if dtype is object else 1
    rows = [[big * v for v in range(size)] for size in (1, 2, 32)]
    for row in rows:
        expected = [sum(v * (-1) ** (x & y).bit_count() for y, v in enumerate(row))
                    for x in range(len(row))]
        got = walsh_hadamard(np.array([row, row[::-1]], dtype=dtype))
        assert got.dtype == dtype and got[0].tolist() == expected


def test_walsh_hadamard_peaks_at_one_half_size_buffer():
    # the slack is numpy's own iteration buffers, np.getbufsize() entries for
    # each of at most three operands, which do not grow with the array
    a = np.arange(1 << 16, dtype=np.int64)
    tracemalloc.start()
    try:
        walsh_hadamard(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= a.nbytes // 2 + 3 * np.getbufsize() * a.itemsize + (8 << 10)


def test_codeword_enumeration_matches_span():
    c = LinearCode.from_strings(["1100", "0011"])
    words = sorted(c.codewords())
    assert words == sorted({0, 0b1100, 0b0011, 0b1111})
    assert len(c) == 4
    assert c.contains(0b1111) and not c.contains(0b1000)


def test_transpose_and_mul_vector():
    m = BinaryMatrix.from_strings(["110", "011"])
    # y_i = row_i . x
    assert m.mul_vector(0b101) == 0b11
    # Mx is the sum of the columns of M (the rows of M^t) that x selects
    columns = [0b10, 0b11, 0b01]
    for x in range(8):
        want = 0
        for j, col in enumerate(columns):
            if x >> (2 - j) & 1:
                want ^= col
        assert m.mul_vector(x) == want


def macwilliams_transform(w: WeightDistribution, dim: int) -> WeightDistribution:
    """Weight distribution of the dual via the MacWilliams identity, an
    oracle independent of dual enumeration.  `dim` is the dimension of the
    code whose distribution `w` is."""
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


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_syndromes_label_each_coset_once(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    c = random_code(n, rng.randrange(0, n + 1), rng)
    h = BinaryMatrix(dual(c).basis, n)
    s = syndromes(h.rows, n)
    assert s.tolist() == [h.mul_vector(x) for x in range(1 << n)]
    # each label names one coset x + C, and every label is used
    coset_of = {}
    for x in range(1 << n):
        rep = min(x ^ w for w in c.codewords())
        assert coset_of.setdefault(int(s[x]), rep) == rep
    assert sorted(coset_of) == list(range(1 << h.nrows))
    assert len(set(coset_of.values())) == 1 << (n - c.dim)


@pytest.mark.parametrize("seed", range(6))
def test_span_is_the_codewords_in_gray_order(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 11)
    c = random_code(n, rng.randrange(0, n + 1), rng)
    words = span(np.array(c.basis, dtype=np.int64))
    gray = [i ^ (i >> 1) for i in range(len(c))]
    assert words[gray].tolist() == list(c.codewords())


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_stacked_span_is_span_per_row(dtype):
    gens = np.random.default_rng(5).integers(0, 1 << 12, size=(2, 3, 5)).astype(dtype)
    words = span(gens)
    assert words.dtype == dtype and words.shape == (2, 3, 32)
    for block, row in zip(words.reshape(-1, 32), gens.reshape(-1, 5)):
        assert block.tolist() == span(row).tolist()


def test_span_of_no_generators_is_zero():
    for gens in (np.zeros(0, dtype=np.int64), np.zeros((3, 0), dtype=np.int32)):
        words = span(gens)
        assert words.dtype == gens.dtype
        assert words.tolist() == np.zeros((*gens.shape[:-1], 1), dtype=int).tolist()


def test_stacked_syndromes_match_per_set_calls():
    rng = random.Random(4)
    n = 6
    sets = [[rng.randrange(1 << n) for _ in range(3)] for _ in range(5)]
    labels = syndromes(np.array(sets, dtype=np.int32), n)
    assert labels.dtype == np.int32 and labels.shape == (5, 1 << n)
    for lab, rows in zip(labels, sets):
        one = syndromes(rows, n)
        assert one.dtype == np.int64
        assert lab.tolist() == one.tolist()
    assert syndromes((), n).tolist() == [0] * (1 << n)


@pytest.mark.parametrize("rows", [(0b1000,), (0b101, 1 << 3), (-1,), (1, -2)])
def test_syndromes_refuse_out_of_range_rows(rows):
    with pytest.raises(ValueError, match="out of range"):
        syndromes(rows, 3)


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


def test_parse_format_roundtrip():
    c = LinearCode.from_strings(["10110", "01011"])
    assert parse_code(format_code(c)) == c


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_parse_empty_code_file(text):
    with pytest.raises(ValueError, match="malformed code file"):
        parse_code(text)


def test_bits_string_roundtrip():
    assert bits_from_string("10110") == 0b10110
    assert bits_to_string(0b10110, 5) == "10110"
    with pytest.raises(ValueError):
        bits_from_string("10x")


def test_subspace_count():
    # Gaussian binomial [4 choose 2]_2 = 35
    assert sum(1 for _ in subspaces_of(LinearCode.full(4), 2)) == 35


def test_kernel_matches_solution_set():
    """kernel() against {x : Mx = 0} found by trying every x, on matrices
    with zero rows, repeated rows, rank deficiency and more rows than columns."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 9)
        rows = [rng.choice([0, rng.randrange(1 << n)]) for _ in range(rng.randrange(0, 2 * n + 2))]
        if rows and rng.random() < 0.3:
            rows.append(rows[0] ^ rows[-1])
        m = BinaryMatrix(tuple(rows), n)
        solutions = {x for x in range(1 << n) if m.mul_vector(x) == 0}
        assert set(kernel(m).codewords()) == solutions
