"""Classical-quantum state numerics at desk scale.

A CQState stores a classical register over bit strings together with one
subnormalized positive block per value (the block of key value a is
P(a) rho_a on Eve's space).  Everything is dense numpy; Eve dimensions stay
small (<= 256 for the Pauli wiretap builder at n = 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .gf2 import LinearCode, cosets, walsh_hadamard
from .universality import epsilon_dual_universal

__all__ = [
    "DensityOperator",
    "CQState",
    "BiasReport",
    "d1_distance",
    "h2_d2_hmin",
    "holevo",
    "convolve",
    "walsh_transform",
    "walsh_bias",
    "code_bias",
    "uniform_on_code",
    "hash_marginal",
    "verify_fs08",
    "verify_pa",
    "pauli_wiretap_state",
    "random_cq_state",
]

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
PINV_CUTOFF = 1e-12
WALSH_CAP = 20


@dataclass(frozen=True)
class DensityOperator:
    """A (possibly subnormalized) positive semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -PSD_TOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        tr = float(np.real(np.trace(m)))
        if not 0 < tr <= 1 + 1e-9:
            raise ValueError("trace must be in (0, 1]")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class CQState:
    """Classical register of `key_length` bits with one Eve block per value."""

    def __init__(self, key_length: int, blocks: np.ndarray, normalized: bool = True):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[0] != (1 << key_length):
            raise ValueError("blocks must have shape (2^key_length, d, d)")
        if blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must be square")
        for b in blocks:
            if np.max(np.abs(b - b.conj().T)) > 1e-10:
                raise ValueError("block is not Hermitian")
        total = float(np.real(sum(np.trace(b) for b in blocks)))
        if normalized and abs(total - 1) > 1e-9:
            raise ValueError(f"total trace {total} is not 1")
        if total > 1 + 1e-9:
            raise ValueError("total trace exceeds 1")
        self.key_length = key_length
        self.blocks = blocks
        self.eve_dim = blocks.shape[1]

    @property
    def num_values(self) -> int:
        return 1 << self.key_length

    def probabilities(self) -> np.ndarray:
        return np.real(np.trace(self.blocks, axis1=1, axis2=2))

    def rho_e(self) -> np.ndarray:
        return self.blocks.sum(axis=0)


@dataclass(frozen=True)
class BiasReport:
    delta: float
    delta_sq: Fraction | float
    worst_x: int
    per_x: tuple | None = None


def _trace_norm(m: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def d1_distance(rho: CQState) -> float:
    """Trace distance from the ideal decoupled state, blockwise."""
    if all(np.array_equal(b, rho.blocks[0]) for b in rho.blocks[1:]):
        return 0.0
    ideal = rho.rho_e() / rho.num_values
    return sum(_trace_norm(b - ideal) for b in rho.blocks)


def _neg_power(m: np.ndarray, power: float) -> np.ndarray:
    """m^(-power) on the support of m (pseudo-inverse below the cutoff)."""
    eigs, vecs = np.linalg.eigh(m)
    inv = np.zeros_like(eigs)
    mask = eigs > PINV_CUTOFF
    inv[mask] = eigs[mask] ** -power
    return (vecs * inv) @ vecs.conj().T


def h2_d2_hmin(rho: CQState, sigma: np.ndarray | DensityOperator | None = None):
    """Conditional collision entropy, d2 distance, and min-entropy.

    sigma defaults to Eve's marginal.  Returns (H2, d2, Hmin), base 2.
    """
    if sigma is None:
        sigma_m = rho.rho_e()
    elif isinstance(sigma, DensityOperator):
        sigma_m = sigma.matrix
    else:
        sigma_m = np.asarray(sigma, dtype=complex)
    if sigma_m.shape[0] != rho.eve_dim:
        raise ValueError("sigma dimension mismatch")
    s_q = _neg_power(sigma_m, 0.25)
    s_h = _neg_power(sigma_m, 0.5)
    coll = 0.0
    op_norm = 0.0
    for b in rho.blocks:
        tilted = s_q @ b @ s_q
        coll += float(np.real(np.trace(tilted @ tilted)))
        weighted = s_h @ b @ s_h
        op_norm = max(op_norm, float(np.max(np.abs(np.linalg.eigvalsh(weighted)))))
    h2 = -math.log2(coll)
    marg = s_q @ rho.rho_e() @ s_q
    d2 = coll - float(np.real(np.trace(marg @ marg))) / rho.num_values
    hmin = -math.log2(op_norm)
    return h2, d2, hmin


def holevo(rho: CQState) -> float:
    """Mutual information between the key register and Eve, in bits."""
    if all(np.array_equal(b, rho.blocks[0]) for b in rho.blocks[1:]):
        return 0.0  # identical conditional states carry nothing
    rho_e = rho.rho_e()
    e_eigs, e_vecs = np.linalg.eigh(rho_e)
    support = e_eigs > PINV_CUTOFF
    log_e = (e_vecs[:, support] * np.log2(e_eigs[support])) @ e_vecs[:, support].conj().T
    null_proj = (e_vecs[:, ~support]) @ e_vecs[:, ~support].conj().T
    chi = 0.0
    for b in rho.blocks:
        p = float(np.real(np.trace(b)))
        if p < PINV_CUTOFF:
            continue
        if float(np.real(np.trace(b @ null_proj))) > 1e-9:
            return math.inf
        b_eigs, b_vecs = np.linalg.eigh(b)
        pos = b_eigs > PINV_CUTOFF
        chi += float(np.sum(b_eigs[pos] * np.log2(b_eigs[pos])))
        chi -= p * math.log2(p)
        chi -= float(np.real(np.trace(b @ log_e)))
    return max(chi, 0.0)


def convolve(rho: CQState, pw) -> CQState:
    """Randomize the key register by an additive noise distribution pw."""
    pw = np.asarray([float(x) for x in pw])
    if pw.shape[0] != rho.num_values:
        raise ValueError("distribution length mismatch")
    out = np.zeros_like(rho.blocks)
    for w in range(rho.num_values):
        if pw[w] == 0:
            continue
        for a in range(rho.num_values):
            out[a ^ w] += pw[w] * rho.blocks[a]
    return CQState(rho.key_length, out, normalized=False)


def walsh_transform(w: list) -> list:
    """Character sums W_hat(x) = sum_y W(y) (-1)^(x.y); exact on rationals.

    Integers are transformed on int64, or as Python ints when a sum could
    reach 2^63; Fractions are scaled by their common denominator,
    transformed as integers and divided once.  Float and complex input is
    transformed directly.
    """
    n_vals = len(w)
    if n_vals & (n_vals - 1):
        raise ValueError("length must be a power of two")
    if n_vals > (1 << WALSH_CAP):
        raise ValueError(f"length exceeds 2^{WALSH_CAP} cap")
    values = list(w)
    if any(isinstance(v, (float, complex, np.inexact)) for v in values):
        return walsh_hadamard(np.array(values)).tolist()
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    bound = n_vals * max(map(abs, ints), default=0)
    spectrum = walsh_hadamard(
        np.array(ints, dtype=np.int64 if bound < 1 << 63 else object)
    ).tolist()
    if any(isinstance(v, Fraction) for v in values):
        return [Fraction(v, den) for v in spectrum]
    return spectrum


def uniform_on_code(c: LinearCode) -> list[Fraction]:
    mass = [Fraction(0)] * (1 << c.n)
    share = Fraction(1, len(c))
    for x in c.codewords():
        mass[x] = share
    return mass


def walsh_bias(distributions, weights=None) -> BiasReport:
    """delta of a family of distributions on F_2^n.

    delta^2 = max over x != 0 of the family average of W_hat_r(x)^2,
    exact when the distributions are rational.
    """
    distributions = list(distributions)
    if weights is None:
        weights = [1] * len(distributions)
    total = sum(weights)
    spectra = [walsh_transform(d) for d in distributions]
    size = len(spectra[0])
    per_x = []
    for x in range(size):
        acc = sum(w * s[x] * s[x] for w, s in zip(weights, spectra))
        per_x.append(Fraction(acc, total) if isinstance(acc, (int, Fraction))
                     else acc / total)
    worst_x = max(range(1, size), key=lambda x: per_x[x])
    dsq = per_x[worst_x]
    return BiasReport(math.sqrt(float(dsq)), dsq, worst_x, tuple(per_x))


def code_bias(family) -> BiasReport:
    """delta of the uniform-on-code distributions of a code family.

    The character expectation of the uniform distribution on C is the
    indicator of C^perp, so delta^2 is the worst-case probability that a
    nonzero x lands in a dual code: the dual family's measured worst case
    (the same under either convention).
    """
    rep = epsilon_dual_universal(family)
    return BiasReport(math.sqrt(float(rep.max_prob)), rep.max_prob, rep.worst_x)


def hash_marginal(rho: CQState, c: LinearCode) -> CQState:
    """Coarse-grain the key register over the cosets of a code."""
    if c.n != rho.key_length:
        raise ValueError("code length must match the key register length")
    reps = cosets(LinearCode.full(c.n), c)
    out = np.zeros((len(reps), rho.eve_dim, rho.eve_dim), dtype=complex)
    for i, r in enumerate(reps):
        for w in c.codewords():
            out[i] += rho.blocks[r ^ w]
    return CQState(c.n - c.dim, out, normalized=False)


def verify_fs08(rho: CQState, sigma, family) -> tuple[float, float]:
    """Average d2 after key randomization versus the bias bound.

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


def verify_pa(rho: CQState, family, sigma=None, epsilon=None) -> tuple[float, float]:
    """Privacy amplification bound: average hashed-key d2 vs epsilon 2^(-H2).

    The hash of member C_r sends the key to its coset modulo C_r.  epsilon
    defaults to the measured dual-universality parameter of the family with
    the minimum-dimension convention.
    """
    h2, _, _ = h2_d2_hmin(rho, sigma)
    lhs = 0.0
    for code, w in zip(family.codes, family.weights):
        marg = hash_marginal(rho, code)
        _, d2, _ = h2_d2_hmin(marg, sigma)
        lhs += w * d2
    lhs /= family.total_weight
    if epsilon is None:
        epsilon = float(epsilon_dual_universal(family, "min_dim").epsilon)
    return lhs, epsilon * 2.0 ** (-h2)


def _joint_error_distribution(n: int, pxz) -> np.ndarray:
    """Joint distribution over (x, z) pairs from per-qubit (phase, bit) tables."""
    tables = [np.asarray(t, dtype=float) for t in pxz]
    if len(tables) != n or any(t.shape != (4,) for t in tables):
        raise ValueError("need one 4-entry table (p00 p01 p10 p11) per qubit")
    for t in tables:
        if t.min() < 0 or abs(t.sum() - 1) > 1e-9:
            raise ValueError("each per-qubit table must be a distribution")
    joint = np.zeros((1 << n, 1 << n))
    for x in range(1 << n):
        for z in range(1 << n):
            prob = 1.0
            for i in range(n):
                xi = (x >> (n - 1 - i)) & 1
                zi = (z >> (n - 1 - i)) & 1
                prob *= tables[i][2 * xi + zi]
            joint[x, z] = prob
    return joint


def _eve_block(n: int, joint: np.ndarray, a: int) -> np.ndarray:
    """Eve's conditional state when the Z-basis key value is a.

    Basis index e = x * 2^n + z over Pauli error pairs; built as a sum of
    rank-one vectors, one per bit-error word z.
    """
    size = 1 << n
    rho = np.zeros((size * size, size * size))
    for z in range(size):
        col = joint[:, z]
        if col.max() == 0:
            continue
        phase = np.array(
            [(-1) ** (((x & (a ^ z)).bit_count()) & 1) for x in range(size)]
        )
        vec = np.zeros(size * size)
        vec[z::size] = np.sqrt(col) * phase
        rho += np.outer(vec, vec)
    return rho


def pauli_wiretap_state(
    n: int,
    pxz,
    c1: LinearCode | None = None,
    c2: LinearCode | None = None,
    mode: str = "sifted",
) -> CQState:
    """Alice's key register and Eve's environment after a Pauli channel.

    pxz: per-qubit joint tables of (phase, bit) errors, (p00, p01, p10, p11).
    sifted mode keys on the uniform n-bit sifted string; coset_key mode keys
    on the coset of c2 inside c1, with the sent word drawn uniformly from
    the coset.
    """
    if n > 4:
        raise ValueError("Eve dimension 4^n; capped at n = 4")
    joint = _joint_error_distribution(n, pxz)
    if mode == "sifted":
        blocks = np.array(
            [_eve_block(n, joint, a) / (1 << n) for a in range(1 << n)]
        )
        return CQState(n, blocks)
    if mode == "coset_key":
        if c1 is None or c2 is None:
            raise ValueError("coset_key mode needs codes c1 and c2")
        if not c1.contains_code(c2):
            raise ValueError("c2 must be a subcode of c1")
        reps = cosets(c1, c2)
        l = c1.dim - c2.dim
        blocks = []
        for r in reps:
            acc = np.zeros((4**n, 4**n))
            for w in c2.codewords():
                acc += _eve_block(n, joint, r ^ w)
            blocks.append(acc / (len(c2) * len(reps)))
        return CQState(l, np.array(blocks))
    raise ValueError(f"unknown mode: {mode}")


def random_cq_state(key_bits: int, eve_dim: int, rng: np.random.Generator) -> CQState:
    """A random normalized c-q state with full-rank-ish Eve blocks."""
    probs = rng.dirichlet(np.ones(1 << key_bits))
    blocks = []
    for a in range(1 << key_bits):
        g = rng.normal(size=(eve_dim, eve_dim)) + 1j * rng.normal(size=(eve_dim, eve_dim))
        m = g @ g.conj().T
        blocks.append(probs[a] * m / np.real(np.trace(m)))
    return CQState(key_bits, np.array(blocks))
