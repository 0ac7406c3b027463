"""Classical-quantum state numerics: distances, entropies, bias, hashing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash.cqstate import (
    CQState,
    DensityOperator,
    code_bias,
    convolve,
    d1_distance,
    h2_d2_hmin,
    hash_marginal,
    holevo,
    pauli_wiretap_state,
    random_cq_state,
    uniform_on_code,
    verify_fs08,
    verify_pa,
    walsh_bias,
    walsh_transform,
)
from dualhash.gf2 import EnumerationCapError, LinearCode, dual
from dualhash.hashfam import HashFamily, HashFamilySpec
from dualhash.universality import CodeFamily


def correlated_bit_state():
    """Eve holds a perfect copy of a uniform key bit."""
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0, 0, 0] = 0.5
    blocks[1, 1, 1] = 0.5
    return CQState(1, blocks)


def decoupled_bit_state():
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0, 0, 0] = 0.5
    blocks[1, 0, 0] = 0.5
    return CQState(1, blocks)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.array([[-0.5, 0.0], [0.0, 1.0]]))  # negative eigenvalue
    d = DensityOperator(np.eye(2) / 2)
    assert d.dim == 2


def test_correlated_bit_closed_form():
    rho = correlated_bit_state()
    h2, d2, hmin = h2_d2_hmin(rho)
    assert abs(h2 - 0.0) < 1e-12
    assert abs(d2 - 0.5) < 1e-12
    assert abs(hmin - 0.0) < 1e-12
    assert abs(d1_distance(rho) - 1.0) < 1e-12
    # the d1 <= sqrt(|A| d2) relation is an equality here
    assert abs(d1_distance(rho) - math.sqrt(2 * d2)) < 1e-12
    assert abs(holevo(rho) - 1.0) < 1e-12


def test_decoupled_state_has_no_leakage():
    rho = decoupled_bit_state()
    assert d1_distance(rho) == 0.0
    assert holevo(rho) == 0.0
    _, d2, _ = h2_d2_hmin(rho)
    assert abs(d2) < 1e-12


def test_renner_relations_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(30):
        kb = int(rng.integers(1, 4))
        rho = random_cq_state(kb, int(rng.integers(2, 7)), rng)
        h2, d2, hmin = h2_d2_hmin(rho)
        assert d1_distance(rho) <= math.sqrt(1 << kb) * math.sqrt(d2) + 1e-9
        assert h2 >= hmin - 1e-9


def test_convolve_identities():
    rho = correlated_bit_state()
    # convolving with a point mass at zero is the identity
    same = convolve(rho, [1.0, 0.0])
    assert np.allclose(same.blocks, rho.blocks)
    # convolving with the uniform distribution decouples the key
    flat = convolve(rho, [0.5, 0.5])
    assert d1_distance(flat) < 1e-12


def test_walsh_transform_exact_indicator():
    c = LinearCode.from_strings(["1100", "0011"])
    spectrum = walsh_transform(uniform_on_code(c))
    d = dual(c)
    for x in range(16):
        assert spectrum[x] == (1 if d.contains(x) else 0)


def oracle_walsh_transform(w):
    """The pure-Python butterfly, operating on the values as given."""
    out = list(w)
    h = 1
    while h < len(out):
        for i in range(0, len(out), 2 * h):
            for j in range(i, i + h):
                a, b = out[j], out[j + h]
                out[j], out[j + h] = a + b, a - b
        h *= 2
    return out


def values_of(element):
    return st.integers(0, 7).flatmap(
        lambda k: st.lists(element, min_size=1 << k, max_size=1 << k))


@given(st.one_of(
    values_of(st.integers(-50, 50)),
    values_of(st.integers(-(1 << 70), 1 << 70)),  # sums pass 2^63
    values_of(st.fractions(max_denominator=60)),
    values_of(st.floats(-1e6, 1e6)),
    values_of(st.complex_numbers(max_magnitude=1e6)),
))
@settings(max_examples=200, deadline=None)
def test_walsh_transform_matches_butterfly(values):
    got = walsh_transform(values)
    expected = oracle_walsh_transform(values)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def test_walsh_transform_validation():
    with pytest.raises(ValueError):
        walsh_transform([1, 2, 3])  # not a power of two


def test_walsh_bias_matches_code_bias():
    fam = CodeFamily.from_hash_family(
        HashFamily(HashFamilySpec("modified_toeplitz", 5, 2))
    )
    spectral = walsh_bias([uniform_on_code(c) for c in fam.codes], fam.weights)
    counted = code_bias(fam)
    assert spectral.delta_sq == counted.delta_sq
    assert spectral.delta == counted.delta


def test_code_bias_single_code():
    fam = CodeFamily([LinearCode.repetition(4)])
    rep = code_bias(fam)
    # dual of the repetition code is the even-weight code; any even x hits
    assert rep.delta_sq == Fraction(1)


def test_code_bias_refuses_oversized_family_before_enumerating(monkeypatch):
    def no_codewords(self):
        raise AssertionError("codewords enumerated")

    fam = CodeFamily([LinearCode.repetition(21)])
    monkeypatch.setattr(LinearCode, "codewords", no_codewords)
    with pytest.raises(EnumerationCapError):
        code_bias(fam)


def test_hash_marginal_sums_cosets():
    rng = np.random.default_rng(1)
    rho = random_cq_state(3, 4, rng)
    c = LinearCode.from_strings(["110", "011"])
    marg = hash_marginal(rho, c)
    assert marg.key_length == 1
    assert np.allclose(marg.rho_e(), rho.rho_e())
    total = sum(float(p) for p in marg.probabilities())
    assert abs(total - 1) < 1e-9


def test_block_identity_exact_scaling():
    rng = np.random.default_rng(7)
    rho = random_cq_state(3, 5, rng)
    c = LinearCode.from_strings(["101", "011"])
    sigma = rho.rho_e()
    noisy = convolve(rho, [float(x) for x in uniform_on_code(c)])
    _, d2_noisy, _ = h2_d2_hmin(noisy, sigma)
    _, d2_marg, _ = h2_d2_hmin(hash_marginal(rho, c), sigma)
    assert abs(d2_noisy - 2.0 ** (-c.dim) * d2_marg) < 1e-10


def test_verify_fs08_and_pa_hold():
    rng = np.random.default_rng(3)
    fam = CodeFamily.from_hash_family(
        HashFamily(HashFamilySpec("modified_toeplitz", 3, 1))
    )
    for _ in range(10):
        rho = random_cq_state(3, 4, rng)
        lhs, rhs = verify_fs08(rho, rho.rho_e(), fam)
        assert lhs <= rhs + 1e-9
        lhs, rhs = verify_pa(rho, fam)
        assert lhs <= rhs + 1e-9


def test_pa_with_explicit_sigma():
    rng = np.random.default_rng(5)
    rho = random_cq_state(2, 3, rng)
    fam = CodeFamily.from_hash_family(
        HashFamily(HashFamilySpec("random_linear", 2, 1))
    )
    sigma = np.eye(3, dtype=complex) / 3
    lhs, rhs = verify_pa(rho, fam, sigma=sigma)
    assert lhs <= rhs + 1e-9


def test_pauli_wiretap_sifted_state_normalizes():
    pxz = [(0.85, 0.05, 0.07, 0.03)] * 2
    rho = pauli_wiretap_state(2, pxz, mode="sifted")
    assert rho.key_length == 2 and rho.eve_dim == 16
    probs = rho.probabilities()
    assert np.allclose(probs, 0.25)


def test_pauli_wiretap_noiseless_is_decoupled():
    pxz = [(1.0, 0.0, 0.0, 0.0)] * 3
    rho = pauli_wiretap_state(
        3, pxz, LinearCode.full(3), LinearCode.repetition(3), mode="coset_key"
    )
    assert d1_distance(rho) == 0.0
    assert holevo(rho) == 0.0


def test_pauli_wiretap_bit_errors_only_decoupled():
    pxz = [(0.8, 0.2, 0.0, 0.0)] * 3
    rho = pauli_wiretap_state(
        3, pxz, LinearCode.full(3), LinearCode.repetition(3), mode="coset_key"
    )
    assert holevo(rho) == 0.0


def test_pauli_wiretap_input_validation():
    with pytest.raises(ValueError):
        pauli_wiretap_state(5, [(1, 0, 0, 0)] * 5)  # Eve dimension cap
    with pytest.raises(ValueError):
        pauli_wiretap_state(2, [(0.5, 0.5, 0.5, 0.5)] * 2)  # not a distribution
