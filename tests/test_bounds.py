"""Scalar bound formulas: entropies, exponents, and the QKD bound forms."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualhash import bounds
from dualhash.bounds import (
    BoundReport,
    _binomial_window_terms,
    _log2_binom,
    _phase_sum_log2,
    _phase_sum_window_bound,
    _refine,
    _type_exponent,
    approach_ratio,
    binary_entropy,
    divergence,
    eta,
    gallager_e0,
    gallager_family_bound,
    maximize_scalar,
    qkd_bounds,
    reliability_e,
    renyi_h,
    weighted_decoding_bound,
)
from dualhash.gf2 import WeightDistribution


def test_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert abs(binary_entropy(0.25) - 0.811278124459) < 1e-9
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_divergence_values():
    assert divergence(0.25, 0.25) == 0.0
    assert abs(divergence(0.5, 0.25) - 0.2075187496) < 1e-9
    assert math.isinf(divergence(0.5, 0.0))
    assert divergence(0.0, 0.0) == 0.0


def test_gallager_e0_values():
    # E0(1, p) = 1 - 2 log2(sqrt(p) + sqrt(1-p))
    p = 0.1
    assert abs(gallager_e0(1.0, p) - (1 - 2 * math.log2(p**0.5 + 0.9**0.5))) < 1e-12
    assert gallager_e0(0.0, p) == 0.0
    # cutoff-rate value at p = 0.1
    assert abs(gallager_e0(1.0, 0.1) - 0.3219280948873623) < 1e-10


def test_scalar_optimizers():
    # each objective takes a float or an array of grid points alike
    def peak(t):
        return -(t - 0.3) ** 2

    def neg_bowl(t):
        return -((t - 0.7) ** 2 + 1)

    x, v = maximize_scalar(peak, 0.0, 1.0, f_grid=peak)
    assert abs(x - 0.3) < 1e-6 and abs(v) < 1e-12
    x, v = maximize_scalar(neg_bowl, 0.0, 1.0, f_grid=neg_bowl)
    assert abs(x - 0.7) < 1e-6 and abs(v + 1) < 1e-12


def test_one_form_per_scan_and_per_qkd_input():
    # the array objective is required and minimize_scalar is gone
    assert not hasattr(bounds, "minimize_scalar")
    with pytest.raises(TypeError, match="f_grid"):
        maximize_scalar(lambda t: -t, 0.0, 1.0)
    for missing in ("S", "p_ph", "epsilon"):
        given = {k: v for k, v in {"S": 0.4, "p_ph": 0.05, "epsilon": 1.0}.items()
                 if k != missing}
        with pytest.raises(TypeError, match=missing):
            qkd_bounds(1000, "phase_iid", **given)


def test_reliability_zero_noise_exact():
    for rate in (0.1, 0.25, 0.5, 0.9):
        e_val, s_star, residual = reliability_e(rate, 0.0)
        assert e_val == 1.0 - rate
        assert residual == 0.0


def test_reliability_positive_below_capacity():
    p = 0.1
    cap = 1 - binary_entropy(p)
    assert reliability_e(cap - 0.05, p)[0] > 0
    assert reliability_e(cap + 0.05, p)[0] == 0.0


def test_reliability_identity_residual():
    for rate in (0.2, 0.4, 0.6):
        for p in (0.05, 0.1, 0.2):
            assert reliability_e(rate, p)[2] < 1e-6


def test_eta_branches():
    assert eta(3, 0.0) == 0.0
    assert abs(eta(2, 0.25) - (binary_entropy(0.25) + 0.5)) < 1e-12
    assert eta(2, 0.75) == 1 + 1.5  # past 1/2 the entropy term saturates
    for l, x in ((-1, 0.1), (1, float("nan")), (float("nan"), 0.1)):
        with pytest.raises(ValueError):
            eta(l, x)


def test_renyi_limit_is_shannon():
    p = 0.2
    assert abs(renyi_h(1e-9, p) - binary_entropy(p)) < 1e-6
    assert abs(renyi_h(1.0, p) - 1.0) < 1e-12  # order 0: log of the support size


def test_weighted_bound_requires_epsilon_ge_one():
    w = WeightDistribution.binomial(8, Fraction(1, 10))
    with pytest.raises(ValueError):
        weighted_decoding_bound(w, 0.5, 0.5)


def test_weighted_bound_sum_and_type_method():
    w = WeightDistribution.binomial(12, Fraction(1, 10))
    s = weighted_decoding_bound(w, 0.4, 1.0)
    assert 0 < s.value <= 1.0  # every clipped term is at most its weight


def test_weighted_bound_k_start_zero_is_larger():
    w = WeightDistribution.binomial(10, Fraction(1, 20))
    plain = weighted_decoding_bound(w, 0.5, 1.0, k_start=1)
    coset = weighted_decoding_bound(w, 0.5, 1.0, k_start=0)
    assert coset.value >= plain.value


def test_gallager_family_bound_dominates_nothing_weird():
    rep = gallager_family_bound(12, 0.5, 0.1, 1.0)
    assert 0 < rep.value < 1
    # optimized form never exceeds the loose closed form
    assert rep.value <= rep.aux["loose_value"] + 1e-12
    # epsilon > 1 only increases the bound
    rep2 = gallager_family_bound(12, 0.5, 0.1, 2.0)
    assert rep2.value >= rep.value


def test_bound_report_is_a_plain_record():
    """A report refuses a negative or NaN value and compares nothing: its
    record holds the formula, the value, the inputs and aux only."""
    for value in (-0.1, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            BoundReport("x", value, {})
    rep = BoundReport("x", 0.2, {"n": 3}, aux={"k": 1})
    assert rep.to_record() == {"formula_id": "x", "value": 0.2, "input_n": 3, "aux_k": 1}


def test_qkd_phase_sum_decreases_with_sacrifice():
    p_ph = 0.05
    lo = qkd_bounds(200, "phase_sum", S=binary_entropy(p_ph) + 0.05, p_ph=p_ph, epsilon=1.0)
    hi = qkd_bounds(200, "phase_sum", S=binary_entropy(p_ph) + 0.2, p_ph=p_ph, epsilon=1.0)
    assert hi.value < lo.value


def oracle_phase_sum_log2(n, S, epsilon, p_ph):
    """The binomial k-sum over every k = 0..n, as a plain loop."""
    lp, lq = math.log2(p_ph), math.log2(1 - p_ph)
    terms = []
    for k in range(n + 1):
        w = _log2_binom(n, k) + k * lp + (n - k) * lq
        expo = max(S - binary_entropy(min(k / n, 0.5)), 0.0)
        terms.append(w - n * expo)
    top = max(terms)
    total = top + math.log2(sum(2.0 ** (t - top) for t in terms))
    return total + math.log2(epsilon)


def _near(centre, scale):
    return st.floats(-1, 1).map(lambda u: centre + scale * u)


phase_probabilities = st.one_of(
    st.floats(1e-300, 1e-3),
    _near(0.5, 1e-3),
    st.floats(0.999, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@given(
    st.integers(1, 20000),
    st.floats(0.0, 1.0),
    st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
    phase_probabilities,
)
@example(20000, 0.4, 1.0, 0.05)
@example(20000, 1.0, 0.5, 0.5)
@example(1, 0.0, 3.0, 1e-300)
@settings(max_examples=60, deadline=None)
def test_phase_sum_window_equals_full_sum(n, S, epsilon, p_ph):
    assert _phase_sum_log2(n, S, epsilon, p_ph=p_ph) == oracle_phase_sum_log2(
        n, S, epsilon, p_ph)


def test_phase_sum_window_is_short():
    # 1902 of the 10^6 + 1 terms lie within 1100 of the largest
    assert len(_binomial_window_terms(10**6, 0.4, 0.05)) < 2000


@given(st.integers(1, 20000), st.floats(0.0, 1.0), phase_probabilities)
@example(20000, 0.0, 0.5)
@example(1527, 0.2, 0.5)
@settings(max_examples=60, deadline=None)
def test_phase_sum_window_bound_holds(n, S, p_ph):
    assert len(_binomial_window_terms(n, S, p_ph)) <= _phase_sum_window_bound(n, p_ph)


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("S", [0.0, 0.2, 1.0])
def test_phase_sum_window_bound_is_tight_at_one_half(n, S):
    # log2 binom's curvature is at its least negative at k = n/2, which is
    # where p_ph = 1/2 puts the peak while S <= 1/2 flattens the penalty:
    # 39,045 terms against a bound of 39,053 at n = 10^6
    walked, bound = len(_binomial_window_terms(n, S, 0.5)), _phase_sum_window_bound(n, 0.5)
    assert walked <= bound
    if S <= 0.5:
        assert walked > 0.998 * bound
    assert _phase_sum_window_bound(n, 0.0) == _phase_sum_window_bound(n, 1.0) == 1


def test_phase_sum_block_length_cap_boundary(monkeypatch):
    walked = []

    def window(n, S, p_ph):
        if n > bounds.PHASE_SUM_N_CAP:
            raise AssertionError("k-window walked above the cap")
        walked.append(n)
        return [0.0]

    monkeypatch.setattr(bounds, "_binomial_window_terms", window)
    cap = bounds.PHASE_SUM_N_CAP
    assert _phase_sum_log2(cap, 0.2, 1.0, p_ph=0.05) == 0.0
    assert walked == [cap]
    with pytest.raises(ValueError, match="exceeds phase_sum block length cap"):
        _phase_sum_log2(cap + 1, 0.2, 1.0, p_ph=0.05)
    with pytest.raises(ValueError, match="exceeds phase_sum block length cap"):
        qkd_bounds(10**16, "phase_sum", S=0.2, p_ph=0.5, epsilon=1.0)
    # p_ph = 0 or 1 puts all weight on one k, so no window is walked
    assert _phase_sum_log2(10**16, 0.2, 1.0, p_ph=0.0) == -0.2 * 10**16
    assert _phase_sum_log2(10**16, 0.2, 1.0, p_ph=1.0) == 0.0
    assert walked == [cap]


def test_qkd_iid_and_deterministic_forms():
    p_ph, s_val, n = 0.05, binary_entropy(0.05) + 0.1, 500
    iid = qkd_bounds(n, "phase_iid", S=s_val, l=100, p_ph=p_ph, epsilon=1.0)
    det = qkd_bounds(n, "phase_deterministic", S=s_val, l=100, p_ph=p_ph, epsilon=1.0)
    # the deterministic form pays a sqrt(n+1) factor
    assert abs(det.value / iid.value - math.sqrt(n + 1)) < 1e-6
    assert iid.aux["chi_value"] >= 0


def test_qkd_delta_biased_forms():
    p_ph, s_val, n = 0.05, binary_entropy(0.05) + 0.1, 500
    d1 = qkd_bounds(n, "delta_biased_d1", S=s_val, p_ph=p_ph, epsilon=1.0)
    chib = qkd_bounds(n, "delta_biased_chi_b", S=s_val, p_ph=p_ph, epsilon=1.0)
    chic = qkd_bounds(n, "delta_biased_chi_c", S=s_val, p_ph=p_ph, epsilon=1.0)
    assert chib.aux["d1_bound"] == d1.value
    assert chib.value >= 0 and chic.value >= 0
    with pytest.raises(ValueError):
        qkd_bounds(n, "made_up", S=s_val, p_ph=p_ph, epsilon=1.0)


def test_approach_ratio_monotone():
    vals = [approach_ratio(n, 1.0) for n in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for epsilon in (0.5, float("inf")):
        with pytest.raises(ValueError):
            approach_ratio(10, epsilon)


QKD_APPROACHES = ("phase_sum", "phase_iid", "phase_deterministic",
                  "delta_biased_d1", "delta_biased_chi_b", "delta_biased_chi_c")


def _block_length_calls(n):
    calls = [lambda: gallager_family_bound(n, 0.5, 0.1, 1.0),
             lambda: approach_ratio(n, 1.0)]
    for approach in QKD_APPROACHES:
        for p_ph in (0.0, 0.05):
            calls.append(lambda a=approach, p=p_ph: qkd_bounds(n, a, S=0.4, p_ph=p,
                                                               epsilon=1.0, l=100))
    return calls


@pytest.mark.parametrize("n", [0, -5, 10**18 + 1, int(1.7e308), 10**400],
                         ids=["0", "-5", "10^18+1", "1.7e308", "10^400"])
def test_block_length_outside_the_cap_is_refused_before_any_float(n):
    # a 401-digit n raised OverflowError, and n near 1.7e308 made
    # delta_biased_chi_c's value NaN, before
    for call in _block_length_calls(n):
        with pytest.raises(ValueError, match=r"need block length n >= 1 and n <= 10\^18"):
            call()


def test_every_approach_stays_finite_at_the_block_length_cap():
    for call in _block_length_calls(bounds.BLOCK_LENGTH_CAP):
        try:
            rec = call()
        except ValueError as exc:  # the k-window of 0 < p_ph < 1 has its own cap
            assert "exceeds phase_sum block length cap" in str(exc)
            continue
        values = [rec] if isinstance(rec, float) else list(rec.to_record().values())
        assert all(math.isfinite(v) for v in values if isinstance(v, float))


@pytest.mark.parametrize("l", [-1, 10**18 + 1, 10**400], ids=["-1", "10^18+1", "10^400"])
def test_key_length_outside_the_cap_is_refused(l):
    # a 401-digit l raised OverflowError from eta's l x before
    for approach in QKD_APPROACHES:
        with pytest.raises(ValueError, match=r"need key length l >= 0 and l <= 10\^18"):
            qkd_bounds(1000, approach, S=0.4, p_ph=0.05, epsilon=1.0, l=l)


def test_holevo_forms_stay_finite_at_the_key_length_cap():
    for approach in ("phase_sum", "phase_iid", "phase_deterministic"):
        for l in (0, bounds.BLOCK_LENGTH_CAP):
            rec = qkd_bounds(1000, approach, S=0.4, p_ph=0.05, epsilon=1.0, l=l)
            assert math.isfinite(rec.aux["chi_value"])


def _scalar_scan_maximize(f, lo, hi, grid_step=1e-3, tol=1e-9):
    """maximize_scalar as it was before its grid stage could run on arrays:
    f at every grid point, the first largest, then ternary refinement."""
    steps = max(1, int(round((hi - lo) / grid_step)))
    xs = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    vals = [f(x) for x in xs]
    i = max(range(len(xs)), key=lambda j: vals[j])
    x, v = _refine(f, xs[max(0, i - 1)], xs[min(steps, i + 1)], tol)
    if vals[i] > v:
        return xs[i], vals[i]
    return x, v


def _scalar_reliability_e(R, p, grid_step=1e-3):
    """reliability_e through the scalar scan alone."""
    s_star, e_val = _scalar_scan_maximize(lambda s: -s * R + gallager_e0(s, p), 0.0, 1.0,
                                          grid_step)
    e_val = max(e_val, 0.0)
    _, q_neg = _scalar_scan_maximize(
        lambda q: -(max(1 - binary_entropy(q) - R, 0.0) + divergence(q, p)), 0.0, 0.5,
        grid_step)
    return e_val, s_star, abs(e_val + q_neg)


def _scalar_gallager_record(n, R, p, epsilon):
    """gallager_family_bound(...).to_record() through the scalar scan alone."""
    log_eps = math.log2(epsilon)
    s_star, neg_lv = _scalar_scan_maximize(
        lambda s: -(s * log_eps - n * (-s * R + gallager_e0(s, p))), 0.0, 1.0)
    lv = -neg_lv
    aux = {"s_star": s_star, "value_log2": lv}
    if p <= 0.5:
        e_val = _scalar_reliability_e(R, p)[0]
        aux["loose_value"] = 2.0 ** (-n * e_val) * max(epsilon, 1.0)
        aux["reliability_e"] = e_val
    return BoundReport("family_average", 2.0**lv,
                       {"n": n, "R": R, "p": p, "epsilon": epsilon}, aux=aux).to_record()


def _scalar_chi_c_record(n, S, p_ph, epsilon):
    """qkd_bounds(n, "delta_biased_chi_c", ...).to_record() through the
    scalar scan alone."""
    def gain(s):
        return 0.0 if s == 0 else (s / (2 - s)) * (S - renyi_h(s, p_ph))

    _, g = _scalar_scan_maximize(gain, 0.0, 1.0)
    u = epsilon * (n + 1) / (4 * math.log(2)) + n
    return BoundReport("delta_biased_chi_c", 2 * eta(u, 2.0 ** (1 - n * g)),
                       {"n": n, "S": S, "epsilon": epsilon, "p_ph": p_ph},
                       aux={"exponent": g, "u": u}).to_record()


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    quantum=st.sampled_from([None, 1e-3, 0.05, 1.0]),
    lo=st.floats(-2, 1),
    width=st.floats(0.01, 3),
    grid_step=st.sampled_from([1e-3, 7e-3, 0.05]),
    noise_seed=st.integers(0, 2**32 - 1),
)
def test_grid_shortlist_matches_scalar_scan(coeffs, quantum, lo, width, grid_step,
                                            noise_seed):
    """A polynomial, cut to plateaus when quantum is set (so many grid points
    tie), with an array stage up to 1e-12 away from it."""
    def f(x):
        v = sum(c * x**k for k, c in enumerate(coeffs))
        return v if quantum is None else round(v / quantum) * quantum

    noise = np.random.default_rng(noise_seed)

    def f_grid(xs):
        return np.array([f(x) for x in xs.tolist()]) + noise.uniform(-1e-12, 1e-12, len(xs))

    hi = lo + width
    expected = _scalar_scan_maximize(f, lo, hi, grid_step)
    with mock.patch.object(bounds, "GRID_STEP", grid_step):
        assert maximize_scalar(f, lo, hi, f_grid=f_grid) == expected


def test_reliability_e_equals_scalar_scan_on_criterion_5_points():
    points = [(rate, 0.0) for rate in (0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9)]
    points += [(i / 20, p) for i in range(1, 20)
               for p in (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)]
    assert len(points) == 177
    for R, p in points:
        assert reliability_e(R, p) == _scalar_reliability_e(R, p)


@pytest.mark.parametrize("R", [0.0, 0.123, 0.5, 1.0])
@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 1e-12, 0.11, 0.4999, 0.5])
def test_reliability_e_equals_scalar_scan_at_the_edges(R, p):
    assert reliability_e(R, p) == _scalar_reliability_e(R, p)


def test_reliability_e_equals_scalar_scan_at_random_points():
    rng = np.random.default_rng(39)
    for R, p in zip(rng.uniform(0, 1, 200).tolist(), rng.uniform(0, 0.5, 200).tolist()):
        assert reliability_e(R, p) == _scalar_reliability_e(R, p)


@pytest.mark.parametrize("n", [1, 12, 10**6])
@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.7, 1.0])
def test_gallager_family_bound_equals_scalar_scan(n, epsilon, p):
    for R in (0.0, 0.5, 1.0):
        assert (gallager_family_bound(n, R, p, epsilon).to_record()
                == _scalar_gallager_record(n, R, p, epsilon))


@pytest.mark.parametrize("n", [10, 1000, 10**6])
@pytest.mark.parametrize("p_ph", [0.0, 0.05, 0.5])
def test_delta_biased_chi_c_equals_scalar_scan(n, p_ph):
    for S, epsilon in ((0.0, 1.0), (0.4, 1.0), (0.4, 2.0), (1.0, 0.5)):
        rep = qkd_bounds(n, "delta_biased_chi_c", S=S, p_ph=p_ph, epsilon=epsilon)
        assert rep.to_record() == _scalar_chi_c_record(n, S, p_ph, epsilon)


def test_cached_grids_are_read_only_and_bounded():
    reliability_e(0.5, 0.1)
    step = bounds.GRID_STEP
    h, d = bounds._type_grids(0.1, step)
    arrays = [bounds._grid(0.0, 1.0, step), bounds._grid(0.0, 0.5, step),
              bounds._e0_grid(0.1, step), h, d]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    for cache in (bounds._grid, bounds._e0_grid, bounds._type_grids):
        assert 0 < cache.cache_info().maxsize <= 16


def test_patched_grid_step_gets_its_own_grids():
    seen = []
    maximize_scalar(lambda t: -t, 0.0, 1.0, f_grid=lambda g: seen.append(g) or -g)
    for R, p in ((0.3, 0.05), (0.7, 0.0), (0.1, 0.5)):
        reliability_e(R, p)  # fill the caches at the default step
        with mock.patch.object(bounds, "GRID_STEP", 0.01):
            maximize_scalar(lambda t: -t, 0.0, 1.0, f_grid=lambda g: seen.append(g) or -g)
            assert reliability_e(R, p) == _scalar_reliability_e(R, p, grid_step=0.01)
        assert reliability_e(R, p) == _scalar_reliability_e(R, p)
    assert [len(g) for g in seen[:2]] == [1001, 101]
    assert seen[1].tolist() == [i / 100 for i in range(101)]


@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.05, 0.3, 0.5, 0.9, 1.0])
def test_type_exponent_is_bit_equal_to_its_definition(p):
    qs = [i / 1000 for i in range(501)] + [5e-324, 1e-300, 0.123456789]
    assert 0.0 in qs and 0.5 in qs
    for R in (0.0, 0.25, 0.5, 1.0):
        for q in qs:
            want = max(1 - binary_entropy(q) - R, 0.0) + divergence(q, p)
            assert _type_exponent(q, p, R).hex() == want.hex()
