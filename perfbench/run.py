"""dualhash benchmark.

    python3 perfbench/run.py --workload {verify,measure,pa_stream} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ./src and
nothing else.  Set-up (import plus a small warm-up) is repeated
SETUP_REPEATS times and its median reported as setup_s, in reference seconds
(speed.py).  With --trace 0 the workload then runs as many passes as fit in
--seconds of timed work (at least one) and reports the median pass time in
reference-kernel units.  With --trace 1 it runs exactly one pass with every
layer wrapped, reports per-pass counts and self times, and writes its spans to
.perfbench_traces/.  Outputs are checked after the last pass, once the peak
RSS has been read, so the checks' own memory does not count.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools before numpy is imported: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# Write no bytecode, so that set-up compiles dualhash from source whatever
# PYTHONDONTWRITEBYTECODE says, and the checkout is left as it was found.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from layers import PER_LAYER, TARGETS  # noqa: E402
from speed import SETUP_REFERENCE_S, SpeedProbe, compile_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ERROR, KNOWN, OK, WORKLOADS, WRONG  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_REPEATS = 31
MODULES = ("gf2", "hashfam", "universality", "bounds", "cqstate", "simulator",
           "acceptance", "cli")


def import_dualhash() -> SimpleNamespace:
    """Import the library afresh from ./src (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "dualhash" or n.startswith("dualhash.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"dualhash.{m}") for m in MODULES}
    if not Path(mods["gf2"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: dualhash was imported from outside {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload_cls, seed, span):
    """Repeated set-up; returns (median set-up reference seconds, workload).

    Set-up time is the import plus the warm-up; making the workload's
    inputs from the seed is the benchmark's own work and is not timed.  The
    reference compile runs before each set-up and after the last; the median
    set-up is divided by the median compile time, so the machine's drift,
    which is slow next to the second or so all set-ups take, cancels.
    """
    times, reference_times = [], []
    for _ in range(SETUP_REPEATS):
        reference_times.append(compile_seconds())
        start = perf_counter()
        dh = import_dualhash()
        imported = perf_counter()
        workload = workload_cls(dh, seed, span)
        resumed = perf_counter()
        workload.warm_up()
        times.append(imported - start + perf_counter() - resumed)
    reference_times.append(compile_seconds())
    setup_s = statistics.median(times) / statistics.median(reference_times) * SETUP_REFERENCE_S
    return setup_s, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dualhash" / "__init__.py").is_file():
        print(f"error: no dualhash sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    setup_s, workload = set_up(WORKLOADS[args.workload], args.seed, span)

    passes, pass_times, pass_refs = [], [], []
    if tracer:
        tracer.install(TARGETS)
        try:
            with tracer.span("trace.pass"):
                _, results = workload.run_pass()
        finally:
            tracer.uninstall()
        passes.append(results)
    else:
        # Stop before a pass that would, at the mean pass time so far, end
        # past --seconds, so that a run's length does not depend on speed.
        while not pass_times or sum(pass_times) * (1 + 1 / len(pass_times)) <= args.seconds:
            with SpeedProbe() as probe:
                seconds, results = workload.run_pass()
            pass_times.append(seconds - probe.overhead)
            pass_refs.append(probe.units(pass_times[-1]))
            passes.append(results)
        print(f"pass: median {statistics.median(pass_times):.3f} s over "
              f"{len(pass_times)} passes", file=sys.stderr)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = [o for results in passes for o in workload.check(results)]
    attempted = len(outcomes)
    failed = sum(o != OK for o in outcomes)
    errors, wrong = outcomes.count(ERROR), outcomes.count(WRONG)
    if failed:
        print(f"{failed} of {attempted} operations failed ({outcomes.count(KNOWN)} "
              f"known defect, {errors} errors, {wrong} wrong answers)", file=sys.stderr)

    if tracer:
        summary = tracer.summary()
        metrics = {name: {"value": summary.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "pass_ref": {"value": statistics.median(pass_refs), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": errors + wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
