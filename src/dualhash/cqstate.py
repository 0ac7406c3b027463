"""Classical-quantum state numerics at desk scale.

A CQState stores a classical register over bit strings together with one
subnormalized positive block per value (the block of key value a is
P(a) rho_a on Eve's space).  Everything is dense numpy at desk-scale Eve
dimensions; hashing coarse-grains the key register by syndrome label.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .gf2 import LinearCode, dual, syndromes, walsh_hadamard
from .universality import _count, _report, epsilon_dual_universal

__all__ = [
    "CQState",
    "BiasReport",
    "d1_distance",
    "h2_d2_hmin",
    "holevo",
    "convolve",
    "code_bias",
    "hash_marginal",
    "verify_pa",
    "random_cq_state",
]

PINV_CUTOFF = 1e-12
HERMITIAN_TOL = 1e-10


class CQState:
    """Classical register of `key_length` bits with one Eve block per value."""

    def __init__(self, key_length: int, blocks: np.ndarray, normalized: bool = True):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[0] != (1 << key_length):
            raise ValueError("blocks must have shape (2^key_length, d, d)")
        if blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must be square")
        if np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))) > HERMITIAN_TOL:
            raise ValueError("block is not Hermitian")
        total = float(np.real(np.trace(blocks, axis1=1, axis2=2).sum()))
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
    delta_sq: Fraction
    worst_x: int


def _decoupled(blocks: np.ndarray) -> np.ndarray:
    """For each state of a stack of blocks (S, 2^k, d, d), whether every
    block equals the first (the key tells Eve nothing)."""
    return (blocks == blocks[:, :1]).all(axis=(1, 2, 3))


def d1_distance(rho: CQState) -> float:
    """Trace distance from the ideal decoupled state (0.0 exactly when
    every block is the same)."""
    return float(_d1(rho.blocks[None])[0])


def _d1(blocks: np.ndarray) -> np.ndarray:
    """d1_distance of each state of a stack of blocks (S, 2^k, d, d): the
    eigenvalues of every block minus rho_E / 2^k, in one stacked eigvalsh,
    and 0.0 for a state whose blocks are all the same."""
    ideal = blocks.sum(axis=1, keepdims=True) / blocks.shape[1]
    d1 = np.abs(np.linalg.eigvalsh(blocks - ideal)).sum(axis=(1, 2))
    d1[_decoupled(blocks)] = 0.0
    return d1


def _sigma_matrix(rho: CQState, sigma: np.ndarray | None) -> np.ndarray:
    """sigma as a matrix on Eve's space; None stands for Eve's marginal.

    A given sigma must be a square Hermitian matrix of Eve's dimension (to
    the tolerance CQState allows its blocks): eigh reads one triangle only,
    so an asymmetric sigma would pass unseen."""
    if sigma is None:
        return rho.rho_e()
    sigma_m = np.asarray(sigma, dtype=complex)
    if sigma_m.shape != (rho.eve_dim, rho.eve_dim):
        raise ValueError(f"sigma must be a {rho.eve_dim} x {rho.eve_dim} matrix, "
                         f"got shape {sigma_m.shape}")
    if np.max(np.abs(sigma_m - sigma_m.conj().T)) > HERMITIAN_TOL:
        raise ValueError("sigma is not Hermitian")
    return sigma_m


def _sigma_powers(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma^(-1/4) and sigma^(-1/2) of each sigma of a stack (S, d, d), on
    its support (pseudo-inverse below the cutoff), both from one stacked
    eigendecomposition.  Every sigma must be positive semidefinite and
    nonzero."""
    eigs, vecs = np.linalg.eigh(sigma)
    if (eigs[:, 0] < -HERMITIAN_TOL).any() or (eigs[:, -1] <= PINV_CUTOFF).any():
        raise ValueError("sigma must be positive semidefinite and nonzero")
    mask = eigs > PINV_CUTOFF
    vecs_h = vecs.conj().transpose(0, 2, 1)

    def power(p):
        inv = np.zeros_like(eigs)
        inv[mask] = eigs[mask] ** -p
        return (vecs * inv[:, None, :]) @ vecs_h

    return power(0.25), power(0.5)


def _collision(blocks: np.ndarray, s_q: np.ndarray) -> np.ndarray:
    """For each state s of a stack, the sum over its blocks b of
    tr((s_q[s] b s_q[s])^2), in one stacked pass."""
    t = s_q[:, None] @ blocks @ s_q[:, None]
    return np.real(np.einsum("skij,skji->s", t, t))


def _d2(blocks: np.ndarray, s_q: np.ndarray, num_values) -> tuple[np.ndarray, np.ndarray]:
    """(collision sum, d2) of each state of a stack against the sigma with
    sigma^(-1/4) = s_q; state s has num_values (a number, or one per state)
    key values, and any blocks past them are zero."""
    coll = _collision(blocks, s_q)
    return coll, coll - _collision(blocks.sum(axis=1, keepdims=True), s_q) / num_values


def h2_d2_hmin(rho: CQState, sigma: np.ndarray | None = None):
    """Conditional collision entropy, d2 distance, and min-entropy.

    sigma defaults to Eve's marginal.  Returns (H2, d2, Hmin), base 2.
    """
    powers = _sigma_powers(_sigma_matrix(rho, sigma)[None])
    return tuple(float(v[0]) for v in _h2_d2_hmin(rho.blocks[None], *powers))


def _h2_d2_hmin(blocks: np.ndarray, s_q: np.ndarray, s_h: np.ndarray):
    """h2_d2_hmin of each state of a stack (S, 2^k, d, d), against the
    sigma with sigma^(-1/4) = s_q and sigma^(-1/2) = s_h (_sigma_powers):
    three arrays of S."""
    coll, d2 = _d2(blocks, s_q, blocks.shape[1])
    weighted = s_h[:, None] @ blocks @ s_h[:, None]
    op_norm = np.abs(np.linalg.eigvalsh(weighted)).max(axis=(1, 2))
    return -np.log2(coll), d2, -np.log2(op_norm)


def holevo(rho: CQState) -> float:
    """Mutual information between the key register and Eve, in bits."""
    if _decoupled(rho.blocks[None])[0]:
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
    """Randomize the key register by an additive noise distribution pw
    (a float array, or a sequence of numbers such as Fractions)."""
    pw = np.asarray(pw, dtype=float)
    if pw.shape[0] != rho.num_values:
        raise ValueError("distribution length mismatch")
    return CQState(rho.key_length, _convolve(rho.blocks[None], pw[None])[0],
                   normalized=False)


def _convolve(blocks: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """convolve each state of a stack (S, 2^k, d, d) with its own noise
    distribution pw[s]: block b of state s becomes
    sum_w pw[s, w] blocks[s, b xor w], over the union of the supports, in
    one XOR-index gather and one einsum."""
    support = np.flatnonzero(pw.any(axis=0))
    sources = np.arange(blocks.shape[1])[:, None] ^ support
    return np.einsum("sw,sbwij->sbij", pw[:, support], blocks[:, sources])


def code_bias(family) -> BiasReport:
    """delta of the uniform-on-code distributions of a code family.

    The character expectation of the uniform distribution on C is the
    indicator of C^perp, so delta^2 is the worst-case probability that a
    nonzero x lands in a dual code: the dual family's measured worst case
    (the same under either convention).  ``family`` is a CodeFamily or a
    HashFamily, as for ``epsilon_dual_universal``.
    """
    rep = epsilon_dual_universal(family)
    return BiasReport(math.sqrt(float(rep.max_prob)), rep.max_prob, rep.worst_x)


def hash_marginal(rho: CQState, c: LinearCode) -> CQState:
    """Coarse-grain the key register over the cosets of a code.

    Key value a moves to block H a, H the canonical basis of C^perp, so the
    blocks come out in syndrome order.
    """
    if c.n != rho.key_length:
        raise ValueError("code length must match the key register length")
    labels = syndromes(dual(c).basis, c.n)
    out = _hash_marginals(rho.blocks[None], labels[None])[0]
    return CQState(c.n - c.dim, out[:1 << (c.n - c.dim)], normalized=False)


def _hash_marginals(blocks: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """hash_marginal of each state of a stack (S, 2^k, d, d), key value a
    of state s added to block labels[s, a]; a state keeps 2^k blocks, those
    past its labels zero."""
    out = np.zeros_like(blocks)
    np.add.at(out, (np.arange(len(blocks))[:, None], labels), blocks)
    return out


def verify_pa(rho: CQState, family, sigma: np.ndarray | None = None
              ) -> tuple[float, float]:
    """Privacy amplification bound: average hashed-key d2 vs epsilon 2^(-H2).

    The hash of member C_r sends the key to its coset modulo C_r.  With
    T_a = sigma^(-1/4) rho_a sigma^(-1/4) and the autocorrelation
    g(x) = sum_a tr(T_a T_(a xor x)), the hashed state's collision sum is
    sum over x in C_r of g(x), and its marginal term is |C_r| G / 2^k,
    G = sum_y g(y).  So

        E_r d2 = sum_x (N(x) / W) (g(x) - G / 2^k),

    N(x) the total weight of the members containing x and W the family's
    total weight: the family enters only through its membership counts, and
    no hashed state is built.  g is one Walsh transform over the key axis:
    the transform of g is the squared Frobenius norm of the transformed
    blocks, g = WHT(||T_hat||^2) / 2^k, and g(0) is the collision sum
    2^(-H2).  sigma defaults to Eve's marginal, which hashing leaves as it
    is.  ``family`` is a CodeFamily or a HashFamily (a Toeplitz one is
    counted from row combinations, no member built) of length key_length.
    epsilon is the family's measured dual-universality parameter with the
    minimum-dimension convention, read from the same counts.
    """
    if family.n != rho.key_length:
        raise ValueError(f"family length {family.n} does not match "
                         f"the key register length {rho.key_length}")
    s_q, _ = _sigma_powers(_sigma_matrix(rho, sigma)[None])
    lhs, rhs = _verify_pa(rho.blocks[None], [family], s_q)
    return float(lhs[0]), float(rhs[0])


def _verify_pa(blocks: np.ndarray, families, s_q: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """verify_pa of each state s of a stack (S, 2^k, d, d) with
    families[s], of length k, against the sigma with sigma^(-1/4) = s_q[s]
    (_sigma_powers): two arrays of S.  Each distinct family's counts and
    epsilon are read once."""
    size = blocks.shape[1]
    tilted = s_q[:, None] @ blocks @ s_q[:, None]
    spectrum = np.ascontiguousarray(tilted.transpose(0, 2, 3, 1))
    walsh_hadamard(spectrum)
    g = walsh_hadamard((spectrum.real ** 2 + spectrum.imag ** 2).sum(axis=(1, 2)))
    g /= size
    reads = {}
    for fam in families:
        if id(fam) not in reads:
            counts = _count(fam)
            reads[id(fam)] = (counts.plain.astype(float), float(counts.total_weight),
                              float(_report(counts, "dual", "min_dim").epsilon))
    plain, total, epsilon = (np.array(v) for v in zip(*map(reads.get, map(id, families))))
    lhs = np.einsum("sx,sx->s", plain, g - g.sum(axis=1, keepdims=True) / size)
    return lhs / total, epsilon * g[:, 0]


def random_cq_state(key_bits: int, eve_dim: int, rng: np.random.Generator) -> CQState:
    """A random normalized c-q state with full-rank-ish Eve blocks.

    Block a is P(a) G G^dagger / tr(G G^dagger), G a complex Gaussian matrix;
    all normals are drawn at once, block by block, real part then imaginary.
    """
    probs = rng.dirichlet(np.ones(1 << key_bits))
    parts = rng.normal(size=(1 << key_bits, 2, eve_dim, eve_dim))
    g = parts[:, 0] + 1j * parts[:, 1]
    m = g @ g.conj().transpose(0, 2, 1)
    traces = np.real(np.trace(m, axis1=1, axis2=2))
    return CQState(key_bits, probs[:, None, None] * m / traces[:, None, None])
