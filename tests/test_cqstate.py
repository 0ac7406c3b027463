"""Classical-quantum state numerics: distances, entropies, bias, hashing."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualhash.cqstate import (
    CQState,
    _convolve,
    _d1,
    _d2,
    _decoupled,
    _h2_d2_hmin,
    _hash_marginals,
    _sigma_matrix,
    _sigma_powers,
    _verify_pa,
    code_bias,
    convolve,
    d1_distance,
    h2_d2_hmin,
    hash_marginal,
    holevo,
    random_cq_state,
    verify_pa,
)
from dualhash.gf2 import (
    BinaryMatrix,
    EnumerationCapError,
    LinearCode,
    dual,
    span,
    syndromes,
    walsh_hadamard,
)
from dualhash.hashfam import HashFamily, HashFamilySpec
from dualhash.universality import (
    CodeFamily,
    counterexample_family,
    epsilon_dual_universal,
    random_code,
    subspaces_of,
    tight_family,
)


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


def uniform_on_code(c):
    """The uniform distribution on the codewords of c, a list of 2^n
    Fractions."""
    mass = [Fraction(0)] * (1 << c.n)
    for x in c.codewords():
        mass[x] = Fraction(1, len(c))
    return mass


def test_walsh_transform_exact_indicator():
    c = LinearCode.from_strings(["1100", "0011"])
    indicator = np.zeros(16, dtype=np.int64)
    indicator[list(c.codewords())] = 1
    spectrum = walsh_hadamard(indicator)
    d = dual(c)
    for x in range(16):
        assert spectrum[x] == (len(c) if d.contains(x) else 0)


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


def values_of(dtype, element):
    return st.tuples(st.just(dtype), st.integers(0, 7).flatmap(
        lambda k: st.lists(element, min_size=1 << k, max_size=1 << k)))


@given(st.one_of(
    values_of(np.int64, st.integers(-50, 50)),
    values_of(object, st.integers(-(1 << 70), 1 << 70)),  # sums pass 2^63
    values_of(float, st.floats(-1e6, 1e6)),
    values_of(complex, st.complex_numbers(max_magnitude=1e6)),
))
@settings(max_examples=200, deadline=None)
def test_walsh_transform_matches_butterfly(case):
    dtype, values = case
    got = walsh_hadamard(np.array(values, dtype=dtype)).tolist()
    expected = oracle_walsh_transform(values)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def test_walsh_bias_matches_code_bias():
    """delta^2 from one stacked integer transform of the members'
    indicators equals the counted bias and the per-member Fraction form."""
    fam = CodeFamily.from_hash_family(
        HashFamily(HashFamilySpec("modified_toeplitz", 5, 2))
    )
    spectra = np.zeros((len(fam), 1 << fam.n), dtype=np.int64)
    np.put_along_axis(spectra, span(fam.bases), 1, axis=1)
    walsh_hadamard(spectra)
    size = len(fam.codes[0])
    assert (spectra[:, 0] == size).all()
    sums = np.array(fam.weights) @ spectra ** 2
    spectral = Fraction(int(sums[1:].max()), size * size * fam.total_weight)
    fractions = [oracle_walsh_transform(uniform_on_code(c)) for c in fam.codes]
    per_x = [sum(w * s[x] ** 2 for w, s in zip(fam.weights, fractions)) / fam.total_weight
             for x in range(1 << fam.n)]
    counted = code_bias(fam)
    assert spectral == max(per_x[1:]) == counted.delta_sq
    assert math.sqrt(float(spectral)) == counted.delta


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


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_hash_marginal_matches_coset_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    rho = random_cq_state(n, int(rng.integers(1, 4)), rng)
    c = random_code(n, int(rng.integers(0, n + 1)), random.Random(seed))
    # oracle: sum each coset's blocks, the coset named by its least element
    expect = {}
    for x in range(1 << n):
        rep = min(x ^ w for w in c.codewords())
        expect[rep] = expect.get(rep, 0) + rho.blocks[x]
    marg = hash_marginal(rho, c)
    assert marg.num_values == len(expect)
    h = BinaryMatrix(dual(c).basis, n)
    for rep, block in expect.items():
        assert np.max(np.abs(marg.blocks[h.mul_vector(rep)] - block)) < 1e-15


def test_block_identity_exact_scaling():
    rng = np.random.default_rng(7)
    rho = random_cq_state(3, 5, rng)
    c = LinearCode.from_strings(["101", "011"])
    sigma = rho.rho_e()
    noisy = convolve(rho, [float(x) for x in uniform_on_code(c)])
    _, d2_noisy, _ = h2_d2_hmin(noisy, sigma)
    _, d2_marg, _ = h2_d2_hmin(hash_marginal(rho, c), sigma)
    assert abs(d2_noisy - 2.0 ** (-c.dim) * d2_marg) < 1e-10


def verify_fs08(rho, sigma, family):
    """The FS08 bias-lemma form of privacy amplification: average d2 after
    key randomization versus the bias bound.

    family is a CodeFamily (uniform-on-code noise per member).  Returns
    (lhs, rhs) = (E_r d2(rho * W_r || sigma), delta^2 2^(-H2)).
    """
    h2, _, _ = h2_d2_hmin(rho, sigma)
    lhs = 0.0
    for code, w in zip(family.codes, family.weights):
        noisy = convolve(rho, [float(x) for x in uniform_on_code(code)])
        _, d2, _ = h2_d2_hmin(noisy, sigma)
        lhs += w * d2
    lhs /= family.total_weight
    delta_sq = float(code_bias(family).delta_sq)
    return lhs, delta_sq * 2.0 ** (-h2)


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


def oracle_h2_d2_hmin(rho, sigma=None):
    """h2_d2_hmin one block at a time, with one eigendecomposition of sigma
    per power."""
    if sigma is None:
        sigma = rho.rho_e()
    sigma = np.asarray(sigma, dtype=complex)

    def neg_power(power):
        eigs, vecs = np.linalg.eigh(sigma)
        inv = np.zeros_like(eigs)
        mask = eigs > 1e-12
        inv[mask] = eigs[mask] ** -power
        return (vecs * inv) @ vecs.conj().T

    s_q, s_h = neg_power(0.25), neg_power(0.5)
    coll = op_norm = 0.0
    for b in rho.blocks:
        tilted = s_q @ b @ s_q
        coll += float(np.real(np.trace(tilted @ tilted)))
        weighted = s_h @ b @ s_h
        op_norm = max(op_norm, float(np.max(np.abs(np.linalg.eigvalsh(weighted)))))
    marg = s_q @ rho.rho_e() @ s_q
    d2 = coll - float(np.real(np.trace(marg @ marg))) / rho.num_values
    return -math.log2(coll), d2, -math.log2(op_norm)


def oracle_verify_pa(rho, family, sigma=None):
    """verify_pa's left side with every hashed state's own sigma default."""
    lhs = sum(w * oracle_h2_d2_hmin(hash_marginal(rho, c), sigma)[1]
              for c, w in zip(family.codes, family.weights))
    return lhs / family.total_weight, oracle_h2_d2_hmin(rho, sigma)[0]


def assert_close(got, expected, abs_tol=1e-12):
    for g, e in zip(got, expected, strict=True):
        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=abs_tol), (got, expected)


def random_density(dim, rank, rng):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def test_h2_d2_hmin_matches_blockwise_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        rho = random_cq_state(int(rng.integers(1, 4)), int(rng.integers(2, 9)), rng)
        assert_close(h2_d2_hmin(rho), oracle_h2_d2_hmin(rho))
        sigma = random_density(rho.eve_dim, rho.eve_dim, rng)
        assert_close(h2_d2_hmin(rho, sigma), oracle_h2_d2_hmin(rho, sigma))


def rank_deficient_states(rng):
    """Blocks on a rank-2 subspace of a 5-dim Eve space, key lengths 1-3:
    sigma = rho_E has three eigenvalues below PINV_CUTOFF."""
    for key_bits in (1, 2, 3):
        probs = rng.dirichlet(np.ones(1 << key_bits))
        blocks = np.array([p * random_density(5, 2, rng) for p in probs])
        basis, _ = np.linalg.qr(rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
        proj = basis @ basis.conj().T
        blocks = proj @ blocks @ proj
        blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
        yield CQState(key_bits, blocks / np.real(np.trace(blocks.sum(axis=0))))


def test_h2_d2_hmin_matches_oracle_on_rank_deficient_sigma():
    """The small eigenvalues of a rank-deficient sigma are inverted as zero."""
    for rho in rank_deficient_states(np.random.default_rng(22)):
        assert np.sum(np.linalg.eigvalsh(rho.rho_e()) > 1e-12) == 2
        assert_close(h2_d2_hmin(rho), oracle_h2_d2_hmin(rho))


def oracle_holevo(rho):
    """Relative-entropy form, block by block: the sum over key values a with
    p_a = tr(b_a) of tr(b_a log2 b_a) - p_a log2 p_a - tr(b_a log2 rho_E),
    the log of rho_E taken on its support."""
    e_eigs, e_vecs = np.linalg.eigh(rho.rho_e())
    support = e_eigs > 1e-12
    log_e = (e_vecs[:, support] * np.log2(e_eigs[support])) @ e_vecs[:, support].conj().T
    chi = 0.0
    for b in rho.blocks:
        p = float(np.real(np.trace(b)))
        if p < 1e-12:
            continue
        b_eigs = np.linalg.eigvalsh(b)
        pos = b_eigs > 1e-12
        chi += float(np.sum(b_eigs[pos] * np.log2(b_eigs[pos])))
        chi -= p * math.log2(p) + float(np.real(np.trace(b @ log_e)))
    return max(chi, 0.0)


def test_holevo_matches_relative_entropy_oracle():
    """Random states (key 1-4 bits, Eve dimension 2-8) and the rank-deficient
    states, whose rho_E has three eigenvalues below the cutoff."""
    rng = np.random.default_rng(23)
    states = [random_cq_state(int(rng.integers(1, 5)), int(rng.integers(2, 9)), rng)
              for _ in range(100)]
    states += rank_deficient_states(np.random.default_rng(22))
    for rho in states:
        assert abs(holevo(rho) - oracle_holevo(rho)) <= 1e-12


def test_private_forms_share_one_sigma_decomposition_bit_for_bit():
    """_h2_d2_hmin and _verify_pa on a stack of one state, given the powers
    of one _sigma_powers, return the public functions' floats exactly:
    random states with sigma defaulted and given, and rank-deficient
    sigma."""
    rng = np.random.default_rng(31)
    fams = {n: CodeFamily.from_hash_family(HashFamily(HashFamilySpec("random_linear", n, 1)))
            for n in (1, 2, 3)}
    cases = []
    for _ in range(20):
        rho = random_cq_state(int(rng.integers(1, 4)), int(rng.integers(2, 7)), rng)
        cases += [(rho, None), (rho, random_density(rho.eve_dim, rho.eve_dim, rng)),
                  (rho, random_density(rho.eve_dim, rho.eve_dim - 1, rng))]
    cases += [(rho, None) for rho in rank_deficient_states(np.random.default_rng(22))]
    for rho, sigma in cases:
        s_q, s_h = _sigma_powers(_sigma_matrix(rho, sigma)[None])
        stack = rho.blocks[None]
        assert [v[0] for v in _h2_d2_hmin(stack, s_q, s_h)] == list(h2_d2_hmin(rho, sigma))
        fam = fams[rho.key_length]
        assert [v[0] for v in _verify_pa(stack, [fam], s_q)] == \
            list(verify_pa(rho, fam, sigma=sigma))


def shape_stacks():
    """Random states of five shapes, the rank-deficient states (in the
    stacks of shape (2|4|8, 5, 5)) and a decoupled state (in (8, 5, 5):
    eight equal blocks do not sum to exactly 8 times one, so only the
    decoupled test gives its d1 as 0.0), grouped by shape as criterion 4
    groups its states."""
    rng = np.random.default_rng(33)
    states = [random_cq_state(kb, d, rng)
              for kb, d in ((1, 5), (2, 5), (3, 5), (2, 3), (3, 2)) for _ in range(3)]
    states += rank_deficient_states(np.random.default_rng(22))
    states.append(CQState(3, np.array([random_density(5, 5, rng) / 8] * 8)))
    stacks = {}
    for rho in states:
        stacks.setdefault(rho.blocks.shape, []).append(rho)
    return list(stacks.values())


def test_stacked_kernels_match_the_public_functions_state_by_state():
    """H2, d2, Hmin, d1, verify_pa and both sides of the block identity of
    every state of a stack, with a family and a member of its own per
    state, equal the public functions on that state alone."""
    families = {k: [CodeFamily.from_hash_family(HashFamily(HashFamilySpec("random_linear", k, m)))
                    for m in range(1, k + 1)]
                   + ([HashFamily(HashFamilySpec("modified_toeplitz", k, 1))] if k > 1 else [])
                for k in (1, 2, 3)}
    codes = {k: [c for t in range(k + 1) for c in subspaces_of(LinearCode.full(k), t)]
             for k in (1, 2, 3)}
    shapes = 0
    for stack in shape_stacks():
        k, size = stack[0].key_length, stack[0].num_values
        fams = [families[k][s % len(families[k])] for s in range(len(stack))]
        members = [codes[k][s % len(codes[k])] for s in range(len(stack))]
        dims = np.array([c.dim for c in members])
        labels = np.array([syndromes(dual(c).basis, k) for c in members])
        noise = np.array([[float(x) for x in uniform_on_code(c)] for c in members])
        blocks = np.stack([rho.blocks for rho in stack])
        s_q, s_h = _sigma_powers(blocks.sum(axis=1))
        entropies = zip(*_h2_d2_hmin(blocks, s_q, s_h))
        pa = zip(*_verify_pa(blocks, fams, s_q))
        _, d2_noisy = _d2(_convolve(blocks, noise), s_q, size)
        _, d2_marg = _d2(_hash_marginals(blocks, labels), s_q, size >> dims)
        for rho, sigma, (h2, d2, hmin), d1, (lhs, rhs), fam, c, dn, dm, pw in zip(
                stack, blocks.sum(axis=1), entropies, _d1(blocks), pa, fams, members,
                d2_noisy, d2_marg, noise, strict=True):
            h2_1, d2_1, hmin_1 = h2_d2_hmin(rho)
            lhs_1, rhs_1 = verify_pa(rho, fam)
            assert_close((h2, hmin, rhs, d1), (h2_1, hmin_1, rhs_1, d1_distance(rho)), abs_tol=0)
            # d2 and E_r d2 are differences of collision sums of order one
            assert_close((d2, lhs, dn, dm), (d2_1, lhs_1,
                                             h2_d2_hmin(convolve(rho, pw), sigma)[1],
                                             h2_d2_hmin(hash_marginal(rho, c), sigma)[1]))
            if _decoupled(rho.blocks[None])[0]:
                assert d1 == d1_distance(rho) == 0.0
        shapes += 1
    assert shapes == 5


def test_hash_marginals_equal_an_add_at_oracle():
    """Bit for bit, signed zeros included, on random stacks of every key
    width up to 4."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        count, k, d = rng.integers(1, 16), rng.integers(0, 5), rng.integers(1, 7)
        shape = (count, 1 << k, d, d)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        blocks[rng.random(shape) < 0.1] = -0.0
        labels = rng.integers(0, 1 << rng.integers(0, k + 1), size=shape[:2])
        want = np.zeros_like(blocks)
        np.add.at(want, (np.arange(count)[:, None], labels), blocks)
        got = _hash_marginals(blocks, labels).view(float)
        assert np.array_equal(got, want.view(float))
        assert np.array_equal(np.signbit(got), np.signbit(want.view(float)))


def test_convolve_takes_a_float_array_as_its_fraction_list():
    rng = np.random.default_rng(32)
    for code in (LinearCode.from_strings(["101", "011"]), LinearCode.repetition(3),
                 LinearCode.zero(3), LinearCode.full(3)):
        rho = random_cq_state(3, 4, rng)
        indicator = np.zeros(8)
        indicator[list(code.codewords())] = 1
        got = convolve(rho, indicator / len(code))
        assert np.array_equal(got.blocks, convolve(rho, uniform_on_code(code)).blocks)


def test_verify_pa_matches_oracle_with_sigma_given_and_defaulted():
    """Full-rank and rank-deficient sigma, key lengths 1-5, and families
    with members of unequal dimension and weight."""
    rng = np.random.default_rng(23)
    families = [
        CodeFamily.from_hash_family(HashFamily(HashFamilySpec("random_linear", n, m)))
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (5, 1))
    ]
    unequal = [tight_family(4, 2, Fraction(3, 2), 3), tight_family(5, 2, Fraction(3, 2), 6),
               counterexample_family(4), counterexample_family(5)]
    assert all(len(set(fam.weights)) > 1 for fam in unequal)
    assert all(len({c.dim for c in fam.codes}) > 1 for fam in unequal[2:])
    for fam in families + unequal:
        eps = float(epsilon_dual_universal(fam, "min_dim").epsilon)
        for _ in range(3):
            rho = random_cq_state(fam.n, int(rng.integers(2, 7)), rng)
            for sigma in (None, random_density(rho.eve_dim, rho.eve_dim, rng),
                          random_density(rho.eve_dim, rho.eve_dim - 1, rng)):
                lhs, rhs = verify_pa(rho, fam, sigma=sigma)
                lhs_o, h2_o = oracle_verify_pa(rho, fam, sigma)
                assert_close((lhs, rhs), (lhs_o, eps * 2.0 ** -h2_o))
                assert lhs <= rhs + 1e-9


def test_verify_pa_takes_a_hash_family_as_its_code_family():
    rng = np.random.default_rng(26)
    hf = HashFamily(HashFamilySpec("modified_toeplitz", 5, 2))
    fam = CodeFamily.from_hash_family(hf)
    for _ in range(5):
        rho = random_cq_state(5, int(rng.integers(2, 6)), rng)
        assert_close(verify_pa(rho, hf), verify_pa(rho, fam))


def test_verify_pa_builds_no_hashed_state(monkeypatch):
    import dualhash.cqstate as cqstate

    def refuse(*args, **kwargs):
        raise AssertionError("hashed state built")

    rho = random_cq_state(4, 3, np.random.default_rng(30))
    fam = counterexample_family(4)
    expected = verify_pa(rho, fam)
    monkeypatch.setattr(cqstate, "hash_marginal", refuse)
    monkeypatch.setattr(cqstate.CQState, "__init__", refuse)
    assert verify_pa(rho, fam) == expected


def test_verify_pa_runs_at_key_length_12():
    rho = random_cq_state(12, 3, np.random.default_rng(27))
    lhs, rhs = verify_pa(rho, HashFamily(HashFamilySpec("modified_toeplitz", 12, 4)))
    assert 0 <= lhs <= rhs + 1e-9


def test_verify_pa_refuses_a_family_of_another_length():
    rho = random_cq_state(3, 2, np.random.default_rng(28))
    for fam in (HashFamily(HashFamilySpec("modified_toeplitz", 4, 2)),
                CodeFamily([LinearCode.repetition(2)])):
        with pytest.raises(ValueError, match="family length"):
            verify_pa(rho, fam)


def bad_sigmas():
    skewed = np.eye(3, dtype=complex) / 3
    skewed[0, 2] = 0.5  # eigh would read the lower triangle only
    return [("not Hermitian", skewed),
            ("must be a 3 x 3", np.ones((3, 2)) / 3),
            ("must be a 3 x 3", np.eye(2) / 2),
            ("positive semidefinite", -np.eye(3)),
            ("positive semidefinite", np.zeros((3, 3)))]


@pytest.mark.parametrize("match,sigma", bad_sigmas())
def test_sigma_is_refused_unless_a_square_hermitian_psd_matrix(match, sigma):
    rho = random_cq_state(2, 3, np.random.default_rng(29))
    fam = CodeFamily([LinearCode.repetition(2)])
    with pytest.raises(ValueError, match=match):
        h2_d2_hmin(rho, sigma)
    with pytest.raises(ValueError, match=match):
        verify_pa(rho, fam, sigma=sigma)


def oracle_random_cq_state(key_bits, eve_dim, rng):
    """random_cq_state one block at a time."""
    probs = rng.dirichlet(np.ones(1 << key_bits))
    blocks = []
    for a in range(1 << key_bits):
        g = rng.normal(size=(eve_dim, eve_dim)) + 1j * rng.normal(size=(eve_dim, eve_dim))
        m = g @ g.conj().T
        blocks.append(probs[a] * m / np.real(np.trace(m)))
    return CQState(key_bits, np.array(blocks))


def oracle_convolve(rho, pw):
    """convolve one (w, a) pair at a time."""
    pw = [float(x) for x in pw]
    out = np.zeros_like(rho.blocks)
    for w in range(rho.num_values):
        if pw[w] == 0:
            continue
        for a in range(rho.num_values):
            out[a ^ w] += pw[w] * rho.blocks[a]
    return CQState(rho.key_length, out, normalized=False)


def oracle_d1_distance(rho):
    """d1_distance one block at a time."""
    if all(np.array_equal(b, rho.blocks[0]) for b in rho.blocks[1:]):
        return 0.0
    ideal = rho.rho_e() / rho.num_values
    return sum(float(np.sum(np.abs(np.linalg.eigvalsh(b - ideal)))) for b in rho.blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 6), st.integers(1, 9))
def test_random_cq_state_matches_per_block_draws(seed, key_bits, eve_dim):
    rng, rng_o = np.random.default_rng(seed), np.random.default_rng(seed)
    got, expected = random_cq_state(key_bits, eve_dim, rng), oracle_random_cq_state(
        key_bits, eve_dim, rng_o)
    assert np.array_equal(got.blocks, expected.blocks)
    assert (got.key_length, got.eve_dim) == (key_bits, eve_dim)
    assert rng.bit_generator.state == rng_o.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5), st.integers(1, 5))
def test_convolve_and_d1_match_per_block_oracles(seed, key_bits, eve_dim):
    rng = np.random.default_rng(seed)
    rho = random_cq_state(key_bits, eve_dim, rng)
    pw = rng.dirichlet(np.ones(rho.num_values)) * (rng.random(rho.num_values) < 0.6)
    got, expected = convolve(rho, pw), oracle_convolve(rho, pw)
    assert np.max(np.abs(got.blocks - expected.blocks), initial=0) < 1e-12
    for state in (rho, got, decoupled_bit_state(), correlated_bit_state()):
        assert abs(d1_distance(state) - oracle_d1_distance(state)) < 1e-12


def test_cq_state_refuses_one_non_hermitian_block_among_good_ones():
    rng = np.random.default_rng(24)
    good = random_cq_state(3, 4, rng).blocks
    for a in range(8):
        bad = good.copy()
        bad[a, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="block is not Hermitian"):
            CQState(3, bad)
    CQState(3, good)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([0.0, 5e-11, 2e-10, 1e-3]), st.sampled_from([1.0, 0.999, 1 + 5e-10, 1.01]),
       st.booleans())
def test_cq_state_checks_agree_with_per_block_checks(a, i, j, skew, scale, normalized):
    rng = np.random.default_rng(25)
    blocks = random_cq_state(3, 4, rng).blocks * scale
    blocks[a, i, j] += skew
    per_block_ok = all(np.max(np.abs(b - b.conj().T)) <= 1e-10 for b in blocks)
    total = float(np.real(sum(np.trace(b) for b in blocks)))
    expect_ok = (per_block_ok and not (normalized and abs(total - 1) > 1e-9)
                 and total <= 1 + 1e-9)
    if expect_ok:
        CQState(3, blocks, normalized=normalized)
    else:
        with pytest.raises(ValueError):
            CQState(3, blocks, normalized=normalized)
