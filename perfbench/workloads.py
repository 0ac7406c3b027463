"""The benchmark workloads: verify, measure and pa_stream.

Each workload makes its inputs from the seed, runs passes of timed work
through dualhash's public API and checks every output after the timed region.
An operation (a criterion, a CLI command or a hashed key) ends as OK, KNOWN
(it failed exactly as a known defect of the library predicts), ERROR (any other
raise or non-zero exit) or WRONG (it completed with a wrong answer).  All but
OK count as failed; ERROR and WRONG also make a run incorrect, so a new
failure cannot hide among the many operations of a pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import traceback
from fractions import Fraction
from time import perf_counter

import numpy as np

OK, KNOWN, ERROR, WRONG = "ok", "known", "error", "wrong"


class Workload:
    """Inputs come from the seed in ``__init__``.  ``warm_up()`` runs a little
    of the workload's code; ``run_pass()`` returns (timed seconds, raw
    results); ``check(results)`` returns one outcome per operation."""

    def __init__(self, dh, seed: int, span):
        self.dh = dh
        self.span = span


# -- verify -----------------------------------------------------------------


class Verify(Workload):
    """One full pass of the nine acceptance criteria (`dualhash verify all`)."""

    def __init__(self, dh, seed, span):
        super().__init__(dh, seed, span)
        self.criteria_seed = random.Random(seed).randrange(1 << 31)

    def warm_up(self):
        dh = self.dh
        fam = dh.universality.CodeFamily.from_hash_family(
            dh.hashfam.HashFamily(dh.hashfam.HashFamilySpec("modified_toeplitz", 6, 2))
        )
        dh.universality.epsilon_dual_universal(fam)
        dh.cqstate.code_bias(fam)
        dh.simulator.exact_error_prob(dh.gf2.LinearCode.repetition(6), Fraction(1, 10))
        rho = dh.cqstate.random_cq_state(2, 3, np.random.default_rng(0))
        dh.cqstate.h2_d2_hmin(rho)
        dh.cqstate.holevo(rho)
        dh.bounds.reliability_e(0.5, 0.1)

    def run_pass(self):
        start = perf_counter()
        results = self.dh.acceptance.run_criteria(None, self.criteria_seed)
        return perf_counter() - start, results

    def check(self, results):
        outcomes = [OK if r.passed else WRONG for r in results]
        missing = set(self.dh.acceptance.CRITERIA) - {r.number for r in results}
        return outcomes + [WRONG] * len(missing)


# -- measure ----------------------------------------------------------------


def _eps(out, key="epsilon"):
    return Fraction(json.loads(out)[key])


def _binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _universal(out, outputs):
    """epsilon = 1, so the dual family is 2-almost universal."""
    return _eps(out) == 1 and _eps(out, "dual_epsilon") <= 2


def _leaks_floor(out, outputs):
    """Eve learns at least 1 - h(p) bits through the zero-padded family."""
    return float(json.loads(out)["exact_value"]) >= 1 - _binary_entropy(0.1) - 1e-9


def _sweep_decreasing(out, outputs):
    rows = list(csv.DictReader(io.StringIO(out)))
    logs = [float(r["aux_value_log2"]) for r in rows]
    return (
        [int(r["input_n"]) for r in rows] == [10000, 100000, 1000000]
        and all(b < a for a, b in zip(logs, logs[1:]))
    )


def _probability(out, outputs):
    return 0 <= Fraction(json.loads(out)["exact_value"]) <= 1


def _mc_within_ci(out, outputs):
    """The Monte Carlo average lies within its own 99% CI of the exact one."""
    exact = float(Fraction(json.loads(outputs["favg"])["exact_value"]))
    rec = json.loads(out)
    mean = float(rec["exact_value"])
    return abs(mean - exact) <= rec["ci_upper"] - mean


class Measure(Workload):
    """README-style CLI commands run in-process through ``cli.main``.

    Each command's output must pass its check and be byte-identical in every
    pass of the run: the same arguments must give the same bytes.
    """

    def __init__(self, dh, seed, span):
        super().__init__(dh, seed, span)
        rng = random.Random(seed)
        x = rng.randrange(1, 1 << 7)
        family_average = (
            "simulate --what family-average -n 12 -m 8 -p 1/20 -R 0.333 "
            f"--samples 100 --seed {rng.randrange(1 << 31)}"
        )
        # (key, command, check(output, outputs by key))
        commands = [
            ("mtoeplitz", "analyze --kind modified-toeplitz -n 14 -m 5",
             lambda o, _: _eps(o) == 1 and _eps(o, "dual_epsilon") == 1),
            ("toeplitz", "analyze --kind toeplitz -n 10 -m 3", _universal),
            ("rlinear", "analyze --kind random-linear -n 6 -m 2", _universal),
            ("counterexample", "analyze --kind counterexample -n 8",
             lambda o, _: _eps(o) <= 2),
            ("tight", f"analyze --kind tight -n 7 -t 3 --epsilon 3/2 -x {x}",
             lambda o, _: _eps(o) <= Fraction(3, 2)),
            ("leakage", "simulate --what counterexample -n 7 -p 1/10", _leaks_floor),
            ("sweep", "sweep qkd --n-grid 10000,100000,1000000 --approach phase_sum "
                      "-S 0.4 --p-ph 0.05 -l 100", _sweep_decreasing),
            ("favg", family_average, _probability),
            ("favg_mc", family_average + " --mc", _mc_within_ci),
        ]
        self.commands = [(key, cmd.split(), check) for key, cmd, check in commands]
        self.first_outputs: dict[str, str] = {}

    def _main(self, argv):
        """Run one command; returns (exit code or exception, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.dh.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # reported as a failed operation
            rc = exc
            traceback.print_exc()
        return rc, out.getvalue(), err.getvalue()

    def warm_up(self):
        self._main("analyze --kind modified-toeplitz -n 6 -m 2".split())
        self._main("sweep qkd --n-grid 100 --approach phase_sum -S 0.4 --p-ph 0.05 -l 10"
                   .split())

    def run_pass(self):
        results, elapsed = {}, 0.0
        for key, argv, _ in self.commands:
            with self.span(f"cli.{argv[0]}"):
                start = perf_counter()
                results[key] = self._main(argv)
                elapsed += perf_counter() - start
        return elapsed, results

    def check(self, results):
        outputs = {k: out for k, (rc, out, _) in results.items() if rc == 0}
        outcomes = []
        for key, _, correct in self.commands:
            rc, _, err = results[key]
            if key not in outputs:
                # simulator._mc_error_prob tests the coset leader instead of
                # the decoded word, so the --mc average trips its own bound
                # check and exits 2 (ROADMAP, Known defects).  Only that
                # failure is KNOWN; any other is an ERROR.
                known = (key, rc) == ("favg_mc", 2) and "exceeds bound" in err
                outcomes.append(KNOWN if known else ERROR)
                continue
            try:
                ok = correct(outputs[key], outputs)
            except (ValueError, KeyError, TypeError):
                ok = False
            first = self.first_outputs.setdefault(key, outputs[key])
            outcomes.append(OK if ok and outputs[key] == first else WRONG)
        return outcomes


# -- pa_stream --------------------------------------------------------------

WIDE_N, WIDE_M = 4096, 1024
NARROW_N, NARROW_M = 32, 8
FRESH_BLOCKS, REUSE_KEYS, NARROW_KEYS = 2, 200, 40000
CHECK_CHUNK = 4096  # narrow keys checked per batch, to bound the oracle's memory


def _bits(values, width: int) -> np.ndarray:
    """(len(values), width) uint8; column c holds integer bit width-1-c."""
    nbytes = (width + 7) // 8
    buf = b"".join(v.to_bytes(nbytes, "big") for v in values)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(packed, axis=1)[:, nbytes * 8 - width:]


def _ints(bits: np.ndarray) -> list[int]:
    """Inverse of ``_bits``: row r read as a big-endian word."""
    pad = (-bits.shape[1]) % 8
    padded = np.concatenate(
        [np.zeros((bits.shape[0], pad), dtype=np.uint8), bits.astype(np.uint8)], axis=1
    )
    packed = np.packbits(padded, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def oracle_matrices(n: int, m: int, diagonals) -> np.ndarray:
    """(len(diagonals), m, n) matrices (T | I_m), one per diagonal word.

    Follows ``hashfam.toeplitz_matrix``'s docstring: little-endian bit j of
    the word feeds entry (i, k) of the m x (n-m) block T with k - i + m - 1 = j.
    Column k of the matrix multiplies integer bit n-1-k of the input.
    """
    d = _bits(diagonals, n - 1)[:, ::-1]  # d[:, j] = little-endian bit j
    index = np.arange(n - m)[None, :] - np.arange(m)[:, None] + m - 1
    t = d[:, index]
    eye = np.broadcast_to(np.eye(m, dtype=np.uint8), (len(diagonals), m, m))
    return np.concatenate([t, eye], axis=2)


def oracle_hash(matrices: np.ndarray, keys) -> list[int]:
    """Mx mod 2 for each key; ``matrices`` holds one matrix or one per key.

    float32 sums stay exact: each is at most n <= 2^24.
    """
    n = matrices.shape[2]
    x = _bits(keys, n).astype(np.float32)[:, :, None]
    y = np.matmul(matrices.astype(np.float32), x)[:, :, 0]
    return _ints(y.astype(np.int64) & 1)


class PaStream(Workload):
    """Privacy-amplification hashing with modified Toeplitz (T | I).

    fresh: a new seed-drawn n=4096, m=1024 member per block, one key hashed;
    reuse: the last fresh member hashes many n=4096 keys;
    narrow: a new n=32, m=8 member per key, below the CLMUL threshold.
    """

    def __init__(self, dh, seed, span):
        super().__init__(dh, seed, span)
        spec = dh.hashfam.HashFamilySpec
        self.wide = dh.hashfam.HashFamily(spec("modified_toeplitz", WIDE_N, WIDE_M))
        self.narrow = dh.hashfam.HashFamily(spec("modified_toeplitz", NARROW_N, NARROW_M))
        rng = random.Random(seed)
        # index_space, not len(): len() overflows for 2^4095 members
        self.fresh_inputs = [
            (rng.randrange(self.wide.index_space), rng.getrandbits(WIDE_N))
            for _ in range(FRESH_BLOCKS)
        ]
        self.reuse_keys = [rng.getrandbits(WIDE_N) for _ in range(REUSE_KEYS)]
        self.narrow_inputs = [
            (rng.randrange(self.narrow.index_space), rng.getrandbits(NARROW_N))
            for _ in range(NARROW_KEYS)
        ]
        self.expected = None

    def warm_up(self):
        hashfam, bv = self.dh.hashfam, self.dh.gf2.BitVector
        small = hashfam.HashFamily(hashfam.HashFamilySpec("modified_toeplitz", 256, 64))
        hashfam.apply_hash(small[12345], bv(256, 678))
        hashfam.apply_hash(self.narrow[12345], bv(NARROW_N, 678))

    def run_pass(self):
        apply_hash, bv = self.dh.hashfam.apply_hash, self.dh.gf2.BitVector
        wide, narrow = self.wide, self.narrow
        fresh, reuse, narrow_out = [], [], []
        member = None
        with self.span("pa.fresh"):
            start = perf_counter()
            for r, x in self.fresh_inputs:
                try:
                    member = wide[r]
                    fresh.append(apply_hash(member, bv(WIDE_N, x)).value)
                except Exception as exc:
                    member = None
                    fresh.append(exc)
            elapsed = perf_counter() - start
        with self.span("pa.reuse"):
            start = perf_counter()
            for x in self.reuse_keys:
                try:
                    reuse.append(apply_hash(member, bv(WIDE_N, x)).value)
                except Exception as exc:
                    reuse.append(exc)
            elapsed += perf_counter() - start
        with self.span("pa.narrow"):
            start = perf_counter()
            for r, x in self.narrow_inputs:
                try:
                    narrow_out.append(apply_hash(narrow[r], bv(NARROW_N, x)).value)
                except Exception as exc:
                    narrow_out.append(exc)
            elapsed += perf_counter() - start
        return elapsed, (fresh, reuse, narrow_out)

    def _expected(self) -> list[int]:
        expected = []
        for r, x in self.fresh_inputs:
            expected += oracle_hash(oracle_matrices(WIDE_N, WIDE_M, [r]), [x])
        last = oracle_matrices(WIDE_N, WIDE_M, [self.fresh_inputs[-1][0]])
        expected += oracle_hash(last, self.reuse_keys)
        for lo in range(0, NARROW_KEYS, CHECK_CHUNK):
            diagonals, keys = zip(*self.narrow_inputs[lo:lo + CHECK_CHUNK])
            expected += oracle_hash(oracle_matrices(NARROW_N, NARROW_M, diagonals), keys)
        return expected

    def check(self, results):
        if self.expected is None:  # same inputs every pass
            self.expected = self._expected()
        fresh, reuse, narrow = results
        return [
            ERROR if isinstance(got, Exception) else OK if got == want else WRONG
            for got, want in zip(fresh + reuse + narrow, self.expected)
        ]


WORKLOADS = {"verify": Verify, "measure": Measure, "pa_stream": PaStream}
