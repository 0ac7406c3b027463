"""Hash family constructions and hash evaluation."""

import random

import numpy as np
import pytest

from dualhash.gf2 import BinaryMatrix, BitVector, kernel
from dualhash.hashfam import (
    HashFamily,
    HashFamilySpec,
    HashFunction,
    apply_hash,
    apply_hash_schoolbook,
    modified_toeplitz_matrix,
    toeplitz_matrix,
    toeplitz_rows,
)


def test_toeplitz_constant_diagonals():
    n, m = 5, 3
    t = toeplitz_matrix(n, m, random.Random(0).randrange(1 << (n + m - 1)))
    for i in range(m):
        for k in range(n):
            if i + 1 < m and k + 1 < n:
                assert t.entry(i, k) == t.entry(i + 1, k + 1)


@pytest.mark.parametrize("n, m", [(1, 1), (4, 4), (6, 2), (5, 1), (7, 3)])
def test_toeplitz_rows_match_toeplitz_matrix(n, m):
    diagonals = np.arange(1 << (n + m - 1))
    got = toeplitz_rows(n, m, diagonals)
    assert got.dtype == np.int64 and got.shape == (len(diagonals), m)
    assert got.tolist() == [list(toeplitz_matrix(n, m, r).rows) for r in range(len(diagonals))]


def test_toeplitz_rows_refuse_words_wider_than_int64():
    with pytest.raises(ValueError, match="do not fit int64"):
        toeplitz_rows(40, 24, np.arange(1))


def test_modified_toeplitz_blocks():
    n, m = 6, 2
    mt = modified_toeplitz_matrix(n, m, 0b10110)
    # right m x m block is the identity
    for i in range(m):
        for j in range(m):
            assert mt.entry(i, n - m + j) == (1 if i == j else 0)
    # left block is Toeplitz
    t = toeplitz_matrix(n - m, m, 0b10110)
    for i in range(m):
        for k in range(n - m):
            assert mt.entry(i, k) == t.entry(i, k)


def test_index_spaces():
    assert HashFamily(HashFamilySpec("toeplitz", 6, 2)).index_space == 1 << 7
    assert HashFamily(HashFamilySpec("modified_toeplitz", 6, 2)).index_space == 1 << 5
    assert HashFamily(HashFamilySpec("random_linear", 3, 2)).index_space == 1 << 6


def test_index_space_beyond_machine_word():
    fam = HashFamily(HashFamilySpec("toeplitz", 64, 8))
    assert fam.index_space == 2**71
    last = fam[fam.index_space - 1]
    assert last.matrix.rows == ((1 << 64) - 1,) * 8


def test_random_linear_row_packing():
    fam = HashFamily(HashFamilySpec("random_linear", 3, 2))
    h = fam[0b101110]
    assert h.matrix.rows == (0b110, 0b101)


def toeplitz_hash_by_definition(kind, n, m, r, x):
    """Mx for member r, bit by bit from the diagonal word: output bit i
    (bit m-1-i of the result) is the parity of T(i, k) x_k, x_k bit n-1-k
    of x and T(i, k) diagonal bit k - i + m - 1; a modified member (T | I_m)
    has a Toeplitz block of n - m columns and adds x's bit n-1-(n-m+i)."""
    cols = n - m if kind == "modified_toeplitz" else n
    y = 0
    for i in range(m):
        bit = 0
        for k in range(cols):
            bit ^= (r >> (k - i + m - 1)) & (x >> (n - 1 - k)) & 1
        if kind == "modified_toeplitz":
            bit ^= (x >> (n - 1 - (n - m + i))) & 1
        y |= bit << (m - 1 - i)
    return y


def test_apply_hash_matches_toeplitz_definition():
    rng = random.Random(11)
    for kind in ("toeplitz", "modified_toeplitz"):
        for _ in range(10):
            n = rng.randrange(64, 130)
            m = rng.randrange(1, min(n, 40))
            fam = HashFamily(HashFamilySpec(kind, n, m))
            for _ in range(20):
                r = rng.randrange(fam.index_space)
                x = rng.randrange(1 << n)
                want = toeplitz_hash_by_definition(kind, n, m, r, x)
                assert apply_hash(fam[r], BitVector(n, x)) == BitVector(m, want)


def test_small_inputs_use_matrix_path():
    fam = HashFamily(HashFamilySpec("modified_toeplitz", 8, 3))
    rng = random.Random(2)
    for _ in range(200):
        h = fam[rng.randrange(fam.index_space)]
        x = BitVector(8, rng.randrange(1 << 8))
        assert apply_hash(h, x) == apply_hash_schoolbook(h, x)


def test_toeplitz_entries_follow_diagonal_word():
    # bit k - i + m - 1 of the diagonal word is entry (i, k) of T; the
    # modified matrix (T | I_m) puts the identity in its last m columns
    rng = random.Random(11)
    shapes = [(rng.randrange(64, 130), None) for _ in range(10)]
    shapes += [(2, 1), (5, 3), (12, 4), (63, 20)]
    for n, m in shapes:
        m = m or rng.randrange(1, min(n, 40))
        d, dm = rng.getrandbits(n + m - 1), rng.getrandbits(n - 1)
        t = toeplitz_matrix(n, m, d)
        mt = modified_toeplitz_matrix(n, m, dm)
        for i in range(m):
            for k in range(n):
                assert t.entry(i, k) == (d >> (k - i + m - 1)) & 1
                if k < n - m:
                    want = (dm >> (k - i + m - 1)) & 1
                else:
                    want = int(k - (n - m) == i)
                assert mt.entry(i, k) == want


def test_modified_toeplitz_always_surjective():
    fam = HashFamily(HashFamilySpec("modified_toeplitz", 7, 3))
    for h in fam:
        assert h.matrix.rank() == 3
        assert kernel(h.matrix).dim == 4


def test_sample_is_seeded():
    fam = HashFamily(HashFamilySpec("toeplitz", 10, 4))
    assert np.array_equal(fam.sample_rows(20, seed=5), fam.sample_rows(20, seed=5))
    assert not np.array_equal(fam.sample_rows(20, seed=5), fam.sample_rows(20, seed=6))


@pytest.mark.parametrize("kind, n, m", [
    ("toeplitz", 10, 4), ("modified_toeplitz", 9, 3), ("random_linear", 12, 8),
    ("random_linear", 5, 5),
    # m = 1, m = n, and a one-column Toeplitz block (n - m = 1)
    ("toeplitz", 9, 1), ("modified_toeplitz", 8, 1), ("random_linear", 11, 1),
    ("toeplitz", 6, 6), ("random_linear", 4, 4), ("modified_toeplitz", 7, 6),
    # index spaces of 2 members: the sample holds index 0
    ("modified_toeplitz", 2, 1), ("toeplitz", 1, 1), ("random_linear", 1, 1),
])
def test_sample_rows_are_the_sampled_members_rows(sample_members, kind, n, m):
    fam = HashFamily(HashFamilySpec(kind, n, m))
    rows = fam.sample_rows(40, seed=9)
    members = sample_members(fam, 40, seed=9)
    want = np.array([h.matrix.rows for h in members], dtype=np.int64)
    assert rows.dtype == want.dtype and rows.shape == want.shape == (40, m)
    assert np.array_equal(rows, want)
    if fam.index_space == 2:
        assert fam[0] in members


@pytest.mark.parametrize("kind, n, m", [
    ("random_linear", 63, 1), ("toeplitz", 40, 24), ("modified_toeplitz", 63, 1),
])
def test_sample_rows_refuse_rows_wider_than_int64_before_drawing(monkeypatch, kind, n, m):
    def refuse(*args):
        raise AssertionError("index drawn")

    monkeypatch.setattr(HashFamily, "_sample_indices", refuse)
    with pytest.raises(ValueError, match="do not fit int64"):
        HashFamily(HashFamilySpec(kind, n, m)).sample_rows(3, seed=1)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        HashFunction(3, 2, BinaryMatrix.from_strings(["101"]))
    h = HashFunction(4, 2, BinaryMatrix.from_strings(["1011", "0110"]))
    assert apply_hash(h, BitVector.from_string("1100")).value == 0b11
    with pytest.raises(ValueError):
        apply_hash(h, BitVector(5, 0))
    with pytest.raises(ValueError):
        HashFamily(HashFamilySpec("toeplitz", 3, 4))
    with pytest.raises(ValueError):
        HashFamily(HashFamilySpec("unknown_kind", 3, 2))


@pytest.mark.parametrize("n", [1, 4])
def test_modified_toeplitz_needs_n_above_m(n):
    with pytest.raises(ValueError, match="modified_toeplitz needs n > m"):
        HashFamily(HashFamilySpec("modified_toeplitz", n, n))
