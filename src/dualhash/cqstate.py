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
    "walsh_transform",
    "walsh_bias",
    "code_bias",
    "uniform_on_code",
    "hash_marginal",
    "verify_pa",
    "random_cq_state",
]

PINV_CUTOFF = 1e-12
HERMITIAN_TOL = 1e-10
WALSH_CAP = 20


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
    delta_sq: Fraction | float
    worst_x: int
    per_x: tuple | None = None


def _decoupled(rho: CQState) -> bool:
    """Whether every block equals the first (the key tells Eve nothing)."""
    return bool(np.all(rho.blocks == rho.blocks[0]))


def d1_distance(rho: CQState) -> float:
    """Trace distance from the ideal decoupled state: the eigenvalues of
    every block minus rho_E / |A|, in one stacked eigvalsh."""
    if _decoupled(rho):
        return 0.0
    ideal = rho.rho_e() / rho.num_values
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho.blocks - ideal))))


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


def _sigma_powers(sigma_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma^(-1/4) and sigma^(-1/2) on the support of sigma (pseudo-inverse
    below the cutoff), both from one eigendecomposition.  sigma must be
    positive semidefinite and nonzero."""
    eigs, vecs = np.linalg.eigh(sigma_m)
    if eigs[0] < -HERMITIAN_TOL or eigs[-1] <= PINV_CUTOFF:
        raise ValueError("sigma must be positive semidefinite and nonzero")
    mask = eigs > PINV_CUTOFF

    def power(p):
        inv = np.zeros_like(eigs)
        inv[mask] = eigs[mask] ** -p
        return (vecs * inv) @ vecs.conj().T

    return power(0.25), power(0.5)


def _collision(blocks: np.ndarray, s_q: np.ndarray) -> float:
    """sum over a stack of blocks b of tr((s_q b s_q)^2), in one stacked pass."""
    t = s_q @ blocks @ s_q
    return float(np.real(np.einsum("kij,kji->", t, t)))


def _d2(rho: CQState, s_q: np.ndarray) -> tuple[float, float]:
    """(collision sum, d2) of rho against the sigma with sigma^(-1/4) = s_q."""
    coll = _collision(rho.blocks, s_q)
    return coll, coll - _collision(rho.rho_e()[None], s_q) / rho.num_values


def h2_d2_hmin(rho: CQState, sigma: np.ndarray | None = None):
    """Conditional collision entropy, d2 distance, and min-entropy.

    sigma defaults to Eve's marginal.  Returns (H2, d2, Hmin), base 2.
    """
    s_q, s_h = _sigma_powers(_sigma_matrix(rho, sigma))
    coll, d2 = _d2(rho, s_q)
    op_norm = float(np.max(np.abs(np.linalg.eigvalsh(s_h @ rho.blocks @ s_h))))
    return -math.log2(coll), d2, -math.log2(op_norm)


def holevo(rho: CQState) -> float:
    """Mutual information between the key register and Eve, in bits."""
    if _decoupled(rho):
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
    # block b of the result is sum_w pw[w] rho_(b xor w), over the support of pw
    support = np.flatnonzero(pw)
    sources = np.arange(rho.num_values)[:, None] ^ support
    out = np.einsum("w,bwij->bij", pw[support], rho.blocks[sources])
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
    out = np.zeros((1 << (c.n - c.dim), rho.eve_dim, rho.eve_dim), dtype=complex)
    np.add.at(out, labels, rho.blocks)
    return CQState(c.n - c.dim, out, normalized=False)


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
    is.  ``family`` is a CodeFamily or a HashFamily (a modified-Toeplitz one
    is counted by parameter ranks, no member built) of length key_length.
    epsilon is the family's measured dual-universality parameter with the
    minimum-dimension convention, read from the same counts.
    """
    if family.n != rho.key_length:
        raise ValueError(f"family length {family.n} does not match "
                         f"the key register length {rho.key_length}")
    s_q, _ = _sigma_powers(_sigma_matrix(rho, sigma))
    tilted = s_q @ rho.blocks @ s_q
    spectrum = np.ascontiguousarray(tilted.transpose(1, 2, 0))
    walsh_hadamard(spectrum)
    g = walsh_hadamard((spectrum.real ** 2 + spectrum.imag ** 2).sum(axis=(0, 1)))
    g /= rho.num_values
    counts = _count(family)
    lhs = float(counts.plain.astype(float) @ (g - g.sum() / rho.num_values))
    lhs /= counts.total_weight
    epsilon = float(_report(counts, "dual", "min_dim").epsilon)
    return lhs, epsilon * float(g[0])


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
