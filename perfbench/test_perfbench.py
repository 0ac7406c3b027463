"""Tests for the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from layers import PER_LAYER, TARGETS  # noqa: E402
from run import import_dualhash  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Target, Tracer, self_times  # noqa: E402
from workloads import ERROR, KNOWN, WORKLOADS, oracle_hash, oracle_matrices  # noqa: E402


def test_self_times_on_synthetic_tree():
    # a[0,10] -> b[1,4] -> c[2,3];  a -> d[5,9];  e[11,12] is a second root
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    ids = [0, 1, 2, 1, 3]  # b and d share a name
    total, self_ = self_times(ids, parents, starts, ends, 4)
    assert list(total) == [10.0, 7.0, 1.0, 1.0]
    assert list(self_) == [3.0, 6.0, 1.0, 1.0]


def test_tracer_spans_nest_and_summarise(monkeypatch):
    ticks = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(ticks))
    t = Tracer()
    with t.span("outer"):          # opens at 0
        with t.span("inner"):      # opens at 1, closes at 2
            pass
        with t.span("inner"):      # opens at 3, closes at 4
            pass
    # outer closes at 5
    s = t.summary()
    assert s["outer.s"] == 5.0 and s["outer.self_s"] == 3.0
    assert s["inner.s"] == 2.0 and s["inner.self_s"] == 2.0


@pytest.mark.parametrize("n", range(2, 13))
def test_oracle_matches_schoolbook(n):
    dh = import_dualhash()
    rng = random.Random(n)
    for m in range(1, n):
        fam = dh.hashfam.HashFamily(dh.hashfam.HashFamilySpec("modified_toeplitz", n, m))
        for r in {0, fam.index_space - 1, rng.randrange(fam.index_space)}:
            keys = list(range(1 << n)) if n <= 8 else [rng.getrandbits(n) for _ in range(64)]
            want = [
                dh.hashfam.apply_hash_schoolbook(fam[r], dh.gf2.BitVector(n, x)).value
                for x in keys
            ]
            assert oracle_hash(oracle_matrices(n, m, [r]), keys) == want
            per_key = oracle_matrices(n, m, [r] * len(keys))
            assert oracle_hash(per_key, keys) == want


def test_measure_counts_only_the_known_defect_as_known():
    measure = WORKLOADS["measure"](None, 1, None)
    keys = [key for key, _, _ in measure.commands]
    results = {key: (1, "", "error: boom\n") for key in keys}
    results["favg_mc"] = (2, "", "error: exact value 0.3 exceeds bound gallager = 0.2\n")
    outcomes = measure.check(results)
    assert outcomes.count(KNOWN) == 1 and outcomes.count(ERROR) == len(keys) - 1
    for other in [(2, "", "error: no such code\n"), (RuntimeError("boom"), "", "")]:
        results["favg_mc"] = other
        assert KNOWN not in measure.check(results)


def _bindings(dh):
    """Every name the tracer may rebind, with the object it holds."""
    seen = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "dualhash" or mod_name.startswith("dualhash."):
            for key, value in vars(mod).items():
                seen[(mod_name, key)] = value
    for k, v in dh.acceptance.CRITERIA.items():
        seen[("CRITERIA", k)] = v
    for cls in (dh.gf2.LinearCode, dh.gf2.BinaryMatrix, dh.hashfam.HashFamily,
                dh.universality.CodeFamily):
        for key, value in vars(cls).items():
            seen[(cls.__name__, key)] = value
    return seen


def test_install_wraps_every_binding_and_uninstall_restores():
    dh = import_dualhash()
    before = _bindings(dh)
    original_fae = dh.simulator.family_average_error
    original_c5 = dh.acceptance.criterion_5
    t = Tracer()
    t.install(TARGETS)
    try:
        wrapped = dh.simulator.family_average_error
        assert wrapped is not original_fae
        assert dh.acceptance.family_average_error is wrapped
        assert dh.cli.family_average_error is wrapped
        assert dh.acceptance.CRITERIA[5][1] is dh.acceptance.criterion_5
        assert dh.acceptance.criterion_5 is not original_c5
        code = dh.gf2.LinearCode.full(3)
        assert len(list(code.codewords())) == 8
        assert t.counts["gf2.codewords.words"] == 8
        dh.acceptance.run_criteria([7], 1)
        assert t.summary()["acceptance.criterion_7.s"] > 0
        assert t.counts["simulator.counterexample_leakage.calls"] == 1
    finally:
        t.uninstall()
    after = _bindings(dh)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_install_skips_a_target_the_library_lacks(capsys):
    dh = import_dualhash()
    t = Tracer()
    t.install([Target("dualhash.gf2:no_such_function", "gf2.none"),
               Target("dualhash.gf2:LinearCode.no_such_method", "gf2.none"),
               Target("dualhash.gf2:rank", "gf2.rank")])
    try:
        assert dh.gf2.rank([1, 2, 3]) == 2
        assert t.counts["gf2.rank.calls"] == 1
    finally:
        t.uninstall()
    assert capsys.readouterr().err.count("not found, skipped") == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_ref", "setup_s", "peak_rss_mb", "ok_frac"}
    layers = {t.layer for t in TARGETS} | {"cli", "pa", "trace", "universality"}
    for name, _ in PER_LAYER:
        assert name.rsplit(".", 1)[0] in layers or name.split(".")[0] in layers


def test_speed_probe_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 3 * speed.INTERVAL
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 4 and probe.overhead > 0


def test_speed_probe_units_divide_by_local_kernel_time():
    probe = SpeedProbe()
    probe.samples = [0.01, 0.02]  # half the time fast, half slow
    assert probe.units(3.0) == pytest.approx(3.0 * (100 + 50) / 2)
