"""Scalar information-theoretic functions and closed-form security bounds.

Everything here is base-2: entropies, divergences, random-coding exponents,
and the decoding / key-security bound formulas used by the simulator.  All
1-D optimizations run over compact intervals with a coarse grid followed by
ternary refinement (the optimized functions are unimodal on these
intervals).  Each scan in the library (reliability_e's s- and q-grids,
gallager_family_bound's s-grid and the delta_biased_chi_c gain's s-grid)
evaluates its grid as a numpy array and calls the scalar function only on
the grid points near the array's maximum, which gives the result of the
scalar scan.  Each grid is built once per (lo, hi, GRID_STEP), and the
R-free terms E0(s, p), h(q) and d(q||p) once per (p, GRID_STEP), into
small LRU caches of read-only arrays, so a call adds only its R terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundReport",
    "binary_entropy",
    "divergence",
    "gallager_e0",
    "reliability_e",
    "eta",
    "renyi_h",
    "weighted_decoding_bound",
    "gallager_family_bound",
    "qkd_bounds",
    "approach_ratio",
]

GRID_STEP = 1e-3
ARG_TOL = 1e-9
# Grid points whose array value is this close (relative to max(1, |top|))
# to the array's maximum top are re-evaluated with the scalar function.
SHORTLIST_TOL = 1e-9


@dataclass
class BoundReport:
    formula_id: str
    value: float
    inputs: dict
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError("bound value must be nonnegative")

    def to_record(self) -> dict:
        rec = {"formula_id": self.formula_id, "value": self.value}
        rec.update({f"input_{k}": v for k, v in sorted(self.inputs.items())})
        rec.update({f"aux_{k}": v for k, v in sorted(self.aux.items())})
        return rec


def binary_entropy(p: float) -> float:
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def divergence(q: float, p: float) -> float:
    """d(q||p) in bits; +inf when the supports are incompatible."""
    if not 0 <= q <= 1 or not 0 <= p <= 1:
        raise ValueError("q, p must be in [0, 1]")
    if (p == 0 and q > 0) or (p == 1 and q < 1):
        return math.inf
    acc = 0.0
    if q > 0:
        acc += q * math.log2(q / p)
    if q < 1:
        acc += (1 - q) * math.log2((1 - q) / (1 - p))
    return acc


def _e0(s: float, p: float) -> float:
    """gallager_e0 without the range checks."""
    e = 1.0 / (1.0 + s)
    return s - (1 + s) * math.log2(p**e + (1 - p) ** e)


def gallager_e0(s: float, p: float) -> float:
    """Random-coding exponent integrand for the binary symmetric channel."""
    if not 0 <= s <= 1:
        raise ValueError("s must be in [0, 1]")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    return _e0(s, p)


def _refine(f, lo, hi, tol):
    while hi - lo > tol:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    x = (lo + hi) / 2
    return x, f(x)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The scan's grid lo + (hi - lo) i / steps, i = 0..steps, read-only."""
    steps = max(1, int(round((hi - lo) / step)))
    return _read_only(lo + (hi - lo) * np.arange(steps + 1) / steps)


def maximize_scalar(f, lo: float, hi: float, *, f_grid):
    """Grid scan (step GRID_STEP) plus ternary refinement to ARG_TOL;
    returns (argmax, max).

    f_grid evaluates f on a numpy array of grid points, equal to f up to
    rounding.  The scan calls f only on the grid points within
    SHORTLIST_TOL * max(1, |top|) of the array's maximum top, which hold
    every point where f is largest, and takes the first largest of those:
    the index, grid value and result of the scan with f alone.  The grid is
    built once per (lo, hi, GRID_STEP) and handed to f_grid read-only.
    """
    grid = _grid(lo, hi, GRID_STEP)
    steps = len(grid) - 1
    approx = f_grid(grid)
    top = float(np.max(approx))
    candidates = np.flatnonzero(approx >= top - SHORTLIST_TOL * max(1.0, abs(top))).tolist()
    vals = {j: f(float(grid[j])) for j in candidates}
    i = max(vals, key=vals.__getitem__)
    x, v = _refine(f, float(grid[max(0, i - 1)]), float(grid[min(steps, i + 1)]), ARG_TOL)
    if vals[i] > v:
        return float(grid[i]), vals[i]
    return x, v


def _type_exponent(q: float, p: float, R: float) -> float:
    """[1-h(q)-R]_+ + d(q||p): the divergence form of the reliability
    function, before minimising over q.  binary_entropy's and divergence's
    arithmetic, without their range checks."""
    if (p == 0 and q > 0) or (p == 1 and q < 1):
        return math.inf
    h = 0.0 if q in (0.0, 1.0) else -q * math.log2(q) - (1 - q) * math.log2(1 - q)
    d = 0.0
    if q > 0:
        d += q * math.log2(q / p)
    if q < 1:
        d += (1 - q) * math.log2((1 - q) / (1 - p))
    return max(1 - h - R, 0.0) + d


# The R-free terms of the exponents on their grids, once per p: 16 entries
# hold the 9 values of p of criterion 5's identity grid, each at 19 rates.
@functools.lru_cache(maxsize=16)
def _e0_grid(p: float, step: float) -> np.ndarray:
    """gallager_e0(s, p) on the s-grid of [0, 1], up to rounding; read-only."""
    s = _grid(0.0, 1.0, step)
    e = 1.0 / (1.0 + s)
    return _read_only(s - (1 + s) * np.log2(p**e + (1 - p) ** e))


@functools.lru_cache(maxsize=16)
def _type_grids(p: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """h(q) and d(q||p) on the q-grid of [0, 1/2] for p in [0, 1/2], up to
    rounding, read-only: d is +inf where d(q||p) is."""
    q = _grid(0.0, 0.5, step)
    inner = q > 0
    qs = np.where(inner, q, 0.5)  # a stand-in where the q log q terms are 0
    h = np.where(inner, -qs * np.log2(qs) - (1 - qs) * np.log2(1 - qs), 0.0)
    if p == 0:
        d = np.where(inner, np.inf, 0.0)
    else:
        with np.errstate(over="ignore"):  # q / p overflows to inf for tiny p
            d = (np.where(inner, qs * np.log2(qs / p), 0.0)
                 + (1 - q) * np.log2((1 - q) / (1 - p)))
    return _read_only(h), _read_only(d)


def reliability_e(R: float, p: float) -> tuple[float, float, float]:
    """Random-coding reliability function of the binary symmetric channel.

    Returns (E, s*, identity_residual) where E = max over s in [0,1] of
    -sR + E0(s,p) and the residual is the absolute difference against the
    independent divergence form min over q in [0,1/2] of
    [1-h(q)-R]_+ + d(q||p).
    """
    if not 0 <= R <= 1:
        raise ValueError("R must be in [0, 1]")
    if not 0 <= p <= 0.5:
        raise ValueError("p must be in [0, 1/2]")
    e0 = _e0_grid(p, GRID_STEP)
    h, d = _type_grids(p, GRID_STEP)
    s_star, e_val = maximize_scalar(
        lambda s: -s * R + _e0(s, p), 0.0, 1.0,
        f_grid=lambda s: -s * R + e0,
    )
    e_val = max(e_val, 0.0)
    _, neg_q_val = maximize_scalar(
        lambda q: -_type_exponent(q, p, R), 0.0, 0.5,
        f_grid=lambda q: -(np.maximum(1 - h - R, 0.0) + d),
    )
    return e_val, s_star, abs(e_val + neg_q_val)


def eta(l: float, x: float) -> float:
    """h(x) + l x for x <= 1/2, else 1 + l x; concave key-leakage envelope."""
    if not (l >= 0 and x >= 0):
        raise ValueError("need l >= 0 and x >= 0")
    if x <= 0.5:
        return binary_entropy(x) + l * x
    return 1 + l * x


def renyi_h(s: float, p: float) -> float:
    """Renyi entropy of order 1-s of a bit: (1/s) log2(p^(1-s)+(1-p)^(1-s))."""
    if not 0 < s <= 1:
        raise ValueError("s must be in (0, 1]")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    return math.log2(p ** (1 - s) + (1 - p) ** (1 - s)) / s


def weighted_decoding_bound(W, R: float, epsilon: float, k_start: int = 1) -> BoundReport:
    """Average decoding error bound from an error-weight distribution:
    ε Σ_k W(k) 2^(-n[1-h(min(k/n,1/2))-R]_+), summing from k_start (1 for
    plain codes, 0 for coset decoding).

    Valid only for ε >= 1: the derivation clips per-weight terms at 1.
    """
    if not epsilon >= 1:
        raise ValueError("the clipped-exponent derivation needs epsilon >= 1")
    if not 0 <= R <= 1:
        raise ValueError("R must be in [0, 1]")
    n = W.n
    total = 0.0
    for k in range(k_start, n + 1):
        mass = float(W.mass[k])
        if mass == 0:
            continue
        expo = max(1 - binary_entropy(min(k / n, 0.5)) - R, 0.0)
        total += mass * 2.0 ** (-n * expo)
    return BoundReport(
        "weighted_sum",
        epsilon * total,
        {"n": n, "R": R, "epsilon": epsilon, "k_start": k_start},
    )


# The largest block length a bound takes: n fits int64, as the array scans
# take it, and every float an approach forms from n alone stays below 10^28
# (n^1.5 in delta_biased_chi_b's eta_n of the d1 bound is the largest).
BLOCK_LENGTH_CAP = 10**18


def _check_block_length(n: int) -> None:
    if not 1 <= n <= BLOCK_LENGTH_CAP:
        raise ValueError("need block length n >= 1 and n <= 10^18")


def _check_key_length(l: int) -> None:
    """A key length takes the block length's cap: eta's l x stays finite."""
    if not 0 <= l <= BLOCK_LENGTH_CAP:
        raise ValueError("need key length l >= 0 and l <= 10^18")


def gallager_family_bound(n: int, R: float, p: float, epsilon: float) -> BoundReport:
    """Average decoding error of an ε-almost universal family on a BSC.

    value is the optimized min over s of ε^s 2^(-n(-sR+E0(s,p))); aux holds
    the looser closed form 2^(-nE(R,p)) max(ε,1).
    """
    _check_block_length(n)
    if not 0 <= R <= 1 or not 0 <= p <= 1:
        raise ValueError("need R in [0,1] and p in [0,1]")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    log_eps = math.log2(epsilon)
    e0 = _e0_grid(p, GRID_STEP)
    s_star, neg_lv = maximize_scalar(
        lambda s: -(s * log_eps - n * (-s * R + _e0(s, p))), 0.0, 1.0,
        f_grid=lambda s: -(s * log_eps - n * (-s * R + e0)),
    )
    lv = -neg_lv
    value = 2.0**lv
    aux = {"s_star": s_star, "value_log2": lv}
    if p <= 0.5:
        e_val, _, _ = reliability_e(R, p)
        aux["loose_value"] = 2.0 ** (-n * e_val) * max(epsilon, 1.0)
        aux["reliability_e"] = e_val
    return BoundReport(
        "family_average", value, {"n": n, "R": R, "p": p, "epsilon": epsilon}, aux=aux
    )


def _log2_binom(n: int, k: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2)


# 2.0 ** x is exactly 0.0 for x < -1075, so a term this far below the
# largest adds exactly +0.0 to the normalised sum.
_NEGLIGIBLE_LOG2 = 1100
# Largest block length whose binomial phase_sum window is walked.  The
# window grows as sqrt(n); at n = 10^9 it is at most about 1.2M terms.
PHASE_SUM_N_CAP = 10**9


def _binomial_window_terms(n: int, S: float, p_ph: float) -> list[float]:
    """The terms log2 W(k) - n[S-h(min(k/n,1/2))]_+ of the binomial(n, p_ph)
    weights, in increasing k, over the window where they exceed the largest
    term minus _NEGLIGIBLE_LOG2."""
    lp, lq = math.log2(p_ph), math.log2(1 - p_ph)

    def term(k):
        w = _log2_binom(n, k) + k * lp + (n - k) * lq
        expo = max(S - binary_entropy(min(k / n, 0.5)), 0.0)
        return w - n * expo

    lo, hi = 0, n
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if term(m1) < term(m2):
            lo = m1 + 1
        else:
            hi = m2
    peak = max(range(lo, hi + 1), key=term)
    terms = [term(peak)]
    floor = terms[0] - _NEGLIGIBLE_LOG2
    k = peak - 1
    while k >= 0 and (t := term(k)) > floor:
        terms.append(t)
        k -= 1
    terms.reverse()
    k = peak + 1
    while k <= n and (t := term(k)) > floor:
        terms.append(t)
        k += 1
    return terms


def _phase_sum_window_bound(n: int, p_ph) -> int:
    """Most terms one phase_sum point walks: 1 when p_ph is 0 or 1, else
    2 sqrt(550 n ln 2) + 3.  log2 binom(n, k) has curvature at most
    -4/(n ln 2), and the linear part and the concave S penalty add none,
    so a term d away from the peak lies at least 2 d^2 / (n ln 2) below
    it: past d = sqrt(550 n ln 2) that is more than _NEGLIGIBLE_LOG2."""
    if p_ph in (0, 1):
        return 1
    return int(2 * math.sqrt(_NEGLIGIBLE_LOG2 / 2 * max(n, 0) * math.log(2))) + 3


def _phase_sum_log2(n: int, S: float, epsilon: float, p_ph: float) -> float:
    """log2 of ε Σ_k W(k) 2^(-n[S-h(min(k/n,1/2))]_+), W the binomial(n,
    p_ph) weights.

    The weights are computed in the log domain, which stays exact enough
    far beyond exact-rational reach.  Their log2 terms are concave in k
    (log2 binom is, the linear part is, and -n[S-h(min(k/n,1/2))]_+ is
    concave, flat past n/2), so only the window around their peak where
    they exceed the largest minus 1100 is summed.  Every term outside it
    contributes 2.0 ** (t - top), which is exactly 0.0, so the result is
    the same float as the sum over all k.  By concavity the outward walk
    covers that window from any start, so the peak search only keeps the
    window short.  The window grows as sqrt(n), so for 0 < p_ph < 1 a block
    length above PHASE_SUM_N_CAP is refused before any term is walked.
    """
    if p_ph == 0:
        terms = [-n * max(S, 0.0)]
    elif p_ph == 1:
        terms = [-n * max(S - binary_entropy(min(1.0, 0.5)), 0.0)]
    elif n > PHASE_SUM_N_CAP:
        raise ValueError(
            f"n={n} exceeds phase_sum block length cap {PHASE_SUM_N_CAP}"
        )
    else:
        terms = _binomial_window_terms(n, S, p_ph)
    top = max(terms)
    total = top + math.log2(sum(2.0 ** (t - top) for t in terms))
    return total + math.log2(epsilon)


def qkd_bounds(
    n: int, approach: str, *, S: float, p_ph: float, epsilon: float, l: int | None = None
) -> BoundReport:
    """Closed-form key-security bounds, named by approach.

    phase_sum: trace-distance bound 2√2 √(ε Σ_k W(k) 2^(-n[S-h(k/n)]_+)),
      W the binomial(n, p_ph) weights; aux carries the matching Holevo
      bound through η_l and the log2 of the inner sum for trend checks.
    phase_iid: 2^(-nE(1-S,p_ph)/2 + 3/2) max(√ε, 1); aux Holevo form
      η_l(2^(-nE) max(ε,1)).
    phase_deterministic: the permutation-orbit forms with ε = n+1.
    delta_biased_d1: (4 + √(n+1) √ε) 2^(-nE(1-S,p_ph)/2).
    delta_biased_chi_b: η_n of the delta_biased_d1 value.
    delta_biased_chi_c: 2 η_u(2^(1 - n max_s (s/(2-s))(S - H_{1-s}(p_ph))))
      with u = ε(n+1)/(4 ln 2) + n.
    """
    _check_block_length(n)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 <= S <= 1:
        raise ValueError("S must be in [0, 1]")
    if not 0 <= p_ph <= 1:
        raise ValueError("p_ph must be in [0, 1]")
    inputs = {"n": n, "S": S, "epsilon": epsilon, "p_ph": p_ph}
    if l is not None:
        _check_key_length(l)
        inputs["l"] = l

    if approach == "phase_sum":
        lg = _phase_sum_log2(n, S, epsilon, p_ph)
        value = 2.0 ** (1.5 + 0.5 * lg)
        aux = {"sum_log2": lg, "value_log2": 1.5 + 0.5 * lg}
        if l is not None:
            aux["chi_value"] = eta(l, 2.0**lg)
        return BoundReport("phase_sum_trace", value, inputs, aux=aux)

    if approach in ("phase_iid", "phase_deterministic", "delta_biased_d1",
                    "delta_biased_chi_b"):
        e_val, _, _ = reliability_e(1 - S, p_ph)
        if approach == "phase_iid":
            value = 2.0 ** (-0.5 * n * e_val + 1.5) * max(math.sqrt(epsilon), 1.0)
            aux = {"reliability_e": e_val,
                   "value_log2": -0.5 * n * e_val + 1.5
                   + max(0.5 * math.log2(epsilon), 0.0)}
            if l is not None:
                aux["chi_value"] = eta(l, 2.0 ** (-n * e_val) * max(epsilon, 1.0))
            return BoundReport("phase_iid_trace", value, inputs, aux=aux)
        if approach == "phase_deterministic":
            value = math.sqrt(n + 1) * 2.0 ** (-0.5 * n * e_val + 1.5)
            aux = {"reliability_e": e_val}
            if l is not None:
                aux["chi_value"] = eta(l, (n + 1) * 2.0 ** (-n * e_val))
            return BoundReport("phase_deterministic_trace", value, inputs, aux=aux)
        d1 = (4 + math.sqrt(n + 1) * math.sqrt(epsilon)) * 2.0 ** (-0.5 * n * e_val)
        if approach == "delta_biased_d1":
            return BoundReport(
                "delta_biased_d1", d1, inputs, aux={"reliability_e": e_val}
            )
        return BoundReport(
            "delta_biased_chi_b", eta(n, d1), inputs,
            aux={"reliability_e": e_val, "d1_bound": d1},
        )

    if approach == "delta_biased_chi_c":
        def gain(s):
            if s == 0:
                return 0.0
            return (s / (2 - s)) * (S - renyi_h(s, p_ph))

        def gain_grid(s):
            inner = s > 0
            t = np.where(inner, s, 1.0)  # a stand-in where the gain is 0
            renyi = np.log2(p_ph ** (1 - t) + (1 - p_ph) ** (1 - t)) / t
            return np.where(inner, (t / (2 - t)) * (S - renyi), 0.0)

        _, g = maximize_scalar(gain, 0.0, 1.0, f_grid=gain_grid)
        u = epsilon * (n + 1) / (4 * math.log(2)) + n
        value = 2 * eta(u, 2.0 ** (1 - n * g))
        return BoundReport(
            "delta_biased_chi_c", value, inputs, aux={"exponent": g, "u": u}
        )

    raise ValueError(f"unknown approach: {approach}")


def approach_ratio(n: int, epsilon: float) -> float:
    """Ratio of the phase-error trace bound to the δ-biased one."""
    _check_block_length(n)
    if not 1 <= epsilon < math.inf:
        raise ValueError("need a finite epsilon >= 1")
    return 2**1.5 * math.sqrt(epsilon) / (4 + math.sqrt(n + 1) * math.sqrt(epsilon))
