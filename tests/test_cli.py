"""Command-line interface: exit codes, output formats, reproducibility."""

import csv
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dualhash
from dualhash.cli import (
    APPROACHES,
    GRID_POINT_CAP,
    SWEEP_TERM_CAP,
    _parse_grid,
    build_parser,
    main,
)
from dualhash.gf2 import LinearCode, format_code
from dualhash.hashfam import HashFamily, HashFamilySpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    assert build_parser() is build_parser()

    def refused(argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        return err.value.code, capsys.readouterr()

    bad = ["analyze", "-n", "6", "-m", "2"]  # no --kind
    first = refused(bad)
    assert first[0] == 2 and "the following arguments are required: --kind" in first[1].err
    helped = refused(["simulate", "--help"])
    assert helped[0] == 0 and "--mc" in helped[1].out
    assert run(capsys, "analyze", "--kind", "modified-toeplitz", "-n", "6", "-m", "2")[0] == 0
    # nothing from the earlier calls leaks into the later ones
    assert refused(bad) == first
    assert refused(["simulate", "--help"]) == helped


def test_analyze_modified_toeplitz(capsys):
    code, out, _ = run(
        capsys, "analyze", "--kind", "modified-toeplitz", "-n", "8", "-m", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == "1"
    assert payload["dual_epsilon"] == "1"


def test_analyze_rejects_mc(capsys):
    # analyze always counts exactly, so it takes no --mc (nor --exact)
    for flag in ("--mc", "--exact"):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--kind", "modified-toeplitz", "-n", "6", "-m", "2", flag])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_rejects_oversized_family_before_enumerating(capsys, monkeypatch):
    def no_members(h):
        raise AssertionError("member enumerated")

    def no_rows(*args):
        raise AssertionError("rows built")

    monkeypatch.setattr("dualhash.universality.kernel", no_members)
    monkeypatch.setattr("dualhash.universality.toeplitz_rows", no_rows)
    monkeypatch.setattr(HashFamily, "_rows", no_rows)
    code, _, err = run(capsys, "analyze", "--kind", "toeplitz", "-n", "16", "-m", "8")
    assert code == 2
    assert "exceeds cap" in err
    assert "family of 2^23 members exceeds cap 65536" in err


HUGE_N = str(10**400)  # 401 digits
FLOAT_EDGE_N = str(int(1.7e308))


OVERSIZED_INPUTS = [
    # each took over 120 s, or printed "Exceeds the limit (4300 digits) for
    # integer string conversion", before
    ("analyze --kind random-linear -n 2000 -m 2000",
     "family of at least 2^2000 distinct members exceeds cap 65536"),
    ("analyze --kind random-linear -n 400 -m 400",
     "family of at least 2^400 distinct members exceeds cap 65536"),
    ("analyze --kind toeplitz -n 100000 -m 3", "family of 2^100002 members exceeds cap 65536"),
    # each raised OverflowError, or reported a NaN value, before
    (f"bounds gallager -n {HUGE_N} -R 0.5 -p 0.1", "n <= 10^18"),
    (f"bounds ratio -n {HUGE_N}", "n <= 10^18"),
    *((f"bounds qkd --approach {approach} -n {HUGE_N} -S 0.4 --p-ph 0.05", "n <= 10^18")
      for approach in APPROACHES),
    (f"bounds qkd --approach delta_biased_chi_c -n {FLOAT_EDGE_N} -S 0.4 --p-ph 0.05",
     "n <= 10^18"),
    ("sweep qkd --n-grid 1.7e308 -S 0.4 --p-ph 0.05", "n <= 10^18"),
]


@pytest.mark.parametrize("argv, message", OVERSIZED_INPUTS, ids=[
    argv.replace(HUGE_N, "10^400").replace(FLOAT_EDGE_N, "1.7e308")
    for argv, _ in OVERSIZED_INPUTS])
def test_oversized_input_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *shlex.split(argv))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    *(f"bounds qkd --approach {approach} -n 1000 -S 0.4 --p-ph 0.05 -l {HUGE_N}"
      for approach in ("phase_sum", "phase_iid", "phase_deterministic")),
    f"sweep qkd --n-grid 1000 --approach phase_iid -S 0.4 --p-ph 0.05 -l {HUGE_N}",
    "bounds qkd --approach phase_iid -n 1000 -S 0.4 --p-ph 0.05 -l -1",
], ids=["phase_sum", "phase_iid", "phase_deterministic", "sweep_phase_iid", "negative"])
def test_key_length_outside_the_cap_exits_2(capsys, argv):
    # a 401-digit -l raised OverflowError from bounds.eta before
    assert run(capsys, *shlex.split(argv)) == (
        2, "", "error: need key length l >= 0 and l <= 10^18\n")


@pytest.mark.parametrize("p", [HUGE_N, "-" + HUGE_N, f"{HUGE_N}/3"],
                         ids=["10^400", "-10^400", "10^400/3"])
def test_counterexample_probability_past_float_range_exits_2(capsys, p):
    # float(p) raised OverflowError before the range check
    assert run(capsys, "simulate", "--what", "counterexample", "-n", "5", "-p", p) == (
        2, "", "error: p must be in [0, 1]\n")


@pytest.mark.parametrize("kind, message", [
    ("toeplitz", "family of 2^100000000000 members exceeds cap 65536"),
    ("modified-toeplitz", "ambient length 100000000000 exceeds cap 20"),
    ("random-linear", "family of at least 2^100000000000 distinct members exceeds cap 65536"),
])
def test_huge_index_width_is_refused_under_an_address_space_limit(kind, message):
    # 2^(n + m - 1) at n = 10^11 is a 12.5 GB integer: building the index
    # space raised MemoryError in a child limited to 2 GB of address space
    # (one OpenBLAS thread, whose buffers would otherwise grow with the cores)
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(dualhash.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dualhash.cli", "analyze", "--kind", kind,
         "-n", "100000000000", "-m", "1"],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit,
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_analyze_modified_toeplitz_builds_no_member(capsys, monkeypatch):
    def no_members(*args):
        raise AssertionError("member built")

    monkeypatch.setattr("dualhash.universality.kernel", no_members)
    monkeypatch.setattr(HashFamily, "_rows", no_members)
    monkeypatch.setattr(HashFamily, "__getitem__", no_members)
    code, out, err = run(capsys, "analyze", "--kind", "modified-toeplitz", "-n", "14",
                         "-m", "5")
    assert code == 0, err
    assert json.loads(out)["members"] == 1 << 13


@pytest.mark.parametrize("n, m", [(18, 8), (20, 8)])
def test_analyze_modified_toeplitz_beyond_member_cap(capsys, n, m):
    code, out, err = run(capsys, "analyze", "--kind", "modified-toeplitz", "-n", str(n),
                         "-m", str(m))
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["epsilon"], payload["dual_epsilon"]) == ("1", "1")
    assert payload["members"] == 1 << (n - 1)
    assert payload["report"]["t_min"] == payload["report"]["t_max"] == n - m


def test_analyze_modified_toeplitz_refuses_m_equal_n(capsys):
    code, _, err = run(capsys, "analyze", "--kind", "modified-toeplitz", "-n", "4", "-m", "4")
    assert code == 2
    assert "modified_toeplitz needs n > m" in err


def test_analyze_tight_reports_members_as_given(capsys):
    code, out, _ = run(
        capsys, "analyze", "--kind", "tight", "-n", "7", "-t", "3", "--epsilon", "3/2",
        "-x", "1",
    )
    assert code == 0
    assert json.loads(out)["members"] == 43059


def readme_commands():
    """The `dualhash` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dualhash ")]


def test_readme_command_line_examples(capsys):
    commands = readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        if argv[1] == "verify":  # run in full by CI's console-script step
            continue
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
        if argv[1] == "sweep":
            assert len(list(csv.reader(io.StringIO(out)))) > 1
        else:
            assert isinstance(json.loads(out), dict)


def test_bounds_reliability_zero_noise(capsys):
    code, out, _ = run(capsys, "bounds", "reliability", "-R", "0.5", "-p", "0")
    assert code == 0
    assert json.loads(out)["E"] == 0.5


def test_bounds_qkd(capsys):
    code, out, _ = run(
        capsys, "bounds", "qkd", "-n", "300", "--approach", "phase_iid",
        "-S", "0.4", "--p-ph", "0.05", "-l", "50",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["formula_id"] == "phase_iid_trace"
    assert payload["value"] > 0


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--kind", "tight", "-n", "4", "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--kind", "modified-toeplitz", "-n", "6", "-m", "2"],
    ["bounds", "ratio", "-n", "100"],
    ["simulate", "--what", "counterexample", "-n", "5", "-p", "1/10"],
], ids=["analyze", "bounds", "simulate"])
def test_format_is_a_sweep_flag_only(argv, capsys):
    # single results are always JSON, so only sweep takes --format
    with pytest.raises(SystemExit) as err:
        main([*argv, "--format", "csv"])
    assert err.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_simulate_family_average_needs_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--what", "family-average", "-n", "8", "-m", "4",
              "-p", "0.05", "-R", "0.5"])
    assert err.value.code == 2


def test_simulate_family_average_needs_rate(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--what", "family-average", "-n", "8", "-m", "4",
              "-p", "1/20", "--seed", "1"])
    assert err.value.code == 2
    assert "family-average needs -R" in capsys.readouterr().err


# (target, the options it needs, other options that make the call run);
# {dir} holds c1.txt (F_2^4), c2.txt (repetition code) and ch.txt
REQUIRED_OPTIONS = [
    ("analyze --kind modified-toeplitz", {"-m": "2"}, {"-n": "4"}),
    ("analyze --kind random-linear", {"-m": "2"}, {"-n": "4"}),
    ("analyze --kind tight", {"-t": "2", "--epsilon": "3/2"}, {"-n": "5"}),
    ("analyze --kind toeplitz", {"-m": "2"}, {"-n": "4"}),
    ("bounds reliability", {"-R": "0.5", "-p": "0.1"}, {}),
    ("bounds gallager", {"-n": "100", "-R": "0.5", "-p": "0.05"}, {}),
    ("bounds qkd", {"-n": "1000", "--approach": "phase_iid", "-S": "0.4", "--p-ph": "0.05"},
     {}),
    ("bounds ratio", {"-n": "100"}, {}),
    ("simulate --what error-prob", {"--code": "{dir}/c1.txt", "-p": "1/10"}, {}),
    ("simulate --what family-average",
     {"-n": "6", "-m": "3", "-p": "1/20", "-R": "0.5", "--seed": "1"},
     {"--samples": "3"}),
    ("simulate --what wiretap",
     {"--channel": "{dir}/ch.txt", "--c1": "{dir}/c1.txt", "--c2": "{dir}/c2.txt"}, {}),
    ("simulate --what counterexample", {"-n": "5", "-p": "1/10"}, {}),
    ("simulate --what distill",
     {"--c1": "{dir}/c1.txt", "--c2": "{dir}/c2.txt", "--key-a": "1010",
      "--key-b": "1010", "--seed": "3"}, {}),
    ("sweep reliability", {"--r-grid": "0.1,0.2", "-p": "0.1"}, {}),
    ("sweep qkd", {"--n-grid": "1000,2000", "-S": "0.4", "--p-ph": "0.05"}, {}),
    ("sweep ratio", {"--n-grid": "100,1000"}, {}),
]


@pytest.mark.parametrize("target, required, extra", REQUIRED_OPTIONS,
                         ids=[case[0].replace("--what ", "").replace("--kind ", "")
                              for case in REQUIRED_OPTIONS])
def test_missing_required_option_is_usage_error(tmp_path, capsys, target, required, extra):
    (tmp_path / "c1.txt").write_text(format_code(LinearCode.full(4)))
    (tmp_path / "c2.txt").write_text(format_code(LinearCode.repetition(4)))
    (tmp_path / "ch.txt").write_text("0.9 0.05 0.03 0.02\n" * 4)

    def argv(options):
        return target.split() + [word.format(dir=tmp_path)
                                 for item in options.items() for word in item]

    code, _, err = run(capsys, *argv({**required, **extra}))
    assert code == 0, err
    for flag in required:
        with pytest.raises(SystemExit) as exc:
            main(argv({k: v for k, v in {**required, **extra}.items() if k != flag}))
        assert exc.value.code == 2
        assert f"needs {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_simulate_family_average_rejects_empty_sample(capsys, samples):
    code, _, err = run(
        capsys, "simulate", "--what", "family-average", "-n", "8", "-m", "4",
        "-p", "1/20", "-R", "0.5", "--samples", samples, "--seed", "1",
    )
    assert code == 2
    assert "sample_count must be >= 1" in err


def test_simulate_family_average_refuses_oversized_sample(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("members sampled")

    monkeypatch.setattr(HashFamily, "sample_rows", refuse)
    for flags in ((), ("--mc",)):
        code, _, err = run(
            capsys, "simulate", "--what", "family-average", "-n", "12", "-m", "8",
            "-p", "1/20", "-R", "0.5", "--samples", "5000", "--seed", "1", *flags,
        )
        assert code == 2
        assert "exceeds sample cap" in err


@pytest.mark.parametrize("flag", [["--epsilon", "0.001"], ["--exact"]])
def test_simulate_takes_no_epsilon_or_exact(capsys, flag):
    # a measured family average attaches its bounds at the family's own ε,
    # and exact members are the default
    with pytest.raises(SystemExit) as err:
        main("simulate --what family-average -n 12 -m 8 -p 1/20 -R 0.333 --seed 7".split()
             + flag)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_mc_needs_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--what", "counterexample", "-n", "5", "-p", "1/10", "--mc"])
    assert err.value.code == 2
    assert "--mc needs --seed" in capsys.readouterr().err


def test_simulate_family_average_reproducible(capsys):
    argv = ["simulate", "--what", "family-average", "-n", "8", "-m", "4",
            "-p", "1/20", "-R", "0.5", "--samples", "30", "--seed", "9"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical seed and flags


@pytest.mark.parametrize("flags", [
    "-n 8 -m 1 -p 1/100 -R 0.875 --samples 10 --seed 1 --mc",
    "-n 8 -m 7 -p 1/100 -R 0.125 --samples 5 --seed 6",
    "-n 8 -m 6 -p 1/50 -R 0.25 --samples 1 --seed 6",
])
def test_simulate_prints_an_estimate_above_its_bound(capsys, flags):
    """A sampled upper confidence limit above the weighted-sum bound is a
    result, not a usage error: the bound is a theorem about the exact
    family average, and criterion 5 is what compares the two."""
    code, out, err = run(capsys, "simulate", "--what", "family-average", *flags.split())
    assert code == 0, err
    rec = json.loads(out)
    assert rec["ci_upper"] > rec["bound_weighted_sum"]


def test_simulate_family_average_monte_carlo(capsys):
    code, out, err = run(
        capsys, "simulate", "--what", "family-average", "-n", "12", "-m", "8",
        "-p", "1/20", "-R", "0.333", "--samples", "20", "--seed", "5", "--mc",
    )
    assert code == 0, err
    assert json.loads(out)["param_mode"] == "monte_carlo"


def test_simulate_family_average_monte_carlo_builds_no_big_int(capsys, monkeypatch):
    # the trials come from numpy's MT19937, never from Random.getrandbits;
    # the member sample (which does call it) is drawn before it is refused
    argv = ["simulate", "--what", "family-average", "--kind", "toeplitz", "-n", "12",
            "-m", "8", "-p", "1/20", "-R", "0.333", "--samples", "20", "--seed", "5",
            "--mc"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    rows = HashFamily(HashFamilySpec("toeplitz", 12, 8)).sample_rows(20, 5)

    def sampled(self, count, seed):
        assert (self.spec.kind, self.n, self.m, count, seed) == ("toeplitz", 12, 8, 20, 5)
        return rows

    def no_getrandbits(self, k):
        raise AssertionError("getrandbits called")

    monkeypatch.setattr(HashFamily, "sample_rows", sampled)
    monkeypatch.setattr(random.Random, "getrandbits", no_getrandbits)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("p", ["3/4", "2"])
def test_simulate_family_average_rejects_p_before_sampling(capsys, monkeypatch, p):
    def no_trials(*args):
        raise AssertionError("member sampled")

    monkeypatch.setattr(HashFamily, "sample_rows", no_trials)
    monkeypatch.setattr("dualhash.simulator._random_below", no_trials)
    monkeypatch.setattr("dualhash.simulator._mc_error_prob", no_trials)
    code, _, err = run(
        capsys, "simulate", "--what", "family-average", "-n", "8", "-m", "4",
        "-p", p, "-R", "0.5", "--samples", "5", "--seed", "1", "--mc",
    )
    assert code == 2
    assert "p must be in [0, 1/2]" in err


def test_simulate_distill_refuses_length_beyond_cap(tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(LinearCode, "codewords", no_enumeration)
    c1 = tmp_path / "c1.txt"
    c1.write_text(format_code(LinearCode.full(17)))
    c2 = tmp_path / "c2.txt"
    c2.write_text(format_code(LinearCode.repetition(17)))
    key = "0" * 17
    code, _, err = run(
        capsys, "simulate", "--what", "distill", "--c1", str(c1), "--c2", str(c2),
        "--key-a", key, "--key-b", key, "--seed", "3",
    )
    assert code == 2
    assert "exceeds enumeration cap" in err


def test_simulate_error_prob_from_file(tmp_path, capsys):
    path = tmp_path / "rep3.txt"
    path.write_text(format_code(LinearCode.repetition(3)))
    code, out, _ = run(
        capsys, "simulate", "--what", "error-prob", "--code", str(path),
        "-p", "1/10",
    )
    assert code == 0
    assert json.loads(out)["error_prob"] == "7/250"


def test_simulate_error_prob_refuses_base_of_other_length(tmp_path, capsys):
    # a length-3 base under a length-4 code printed 343/1000
    code_path, base_path = tmp_path / "full4.txt", tmp_path / "rep3.txt"
    code_path.write_text(format_code(LinearCode.full(4)))
    base_path.write_text(format_code(LinearCode.repetition(3)))
    code, out, err = run(
        capsys, "simulate", "--what", "error-prob", "--code", str(code_path),
        "--base", str(base_path), "-p", "1/10",
    )
    assert code == 2
    assert out == ""
    assert "C2 is not a subcode of C1" in err


@pytest.mark.parametrize("argv, message", [
    ("bounds gallager -n 12 -R 0.5 -p 0.05 --epsilon nan", "epsilon must be positive"),
    ("bounds qkd --approach phase_sum -n 100 -S 0.5 --p-ph nan", "p_ph must be in [0, 1]"),
    ("bounds qkd --approach phase_sum -n 100 -S 0.5 --p-ph 0.05 --epsilon nan",
     "epsilon must be positive"),
    ("bounds qkd --approach phase_deterministic -n 100 -S 0.5 --p-ph 0.05 --epsilon nan",
     "epsilon must be positive"),
    ("bounds qkd --approach delta_biased_d1 -n 100 -S 0.5 --p-ph 0.05 --epsilon -1",
     "epsilon must be positive"),
    ("bounds qkd --approach phase_iid -n 100 -S 0.5 --p-ph 0.05 --epsilon 0",
     "epsilon must be positive"),
    ("bounds qkd --approach phase_sum -n 100 -S 0.5 --p-ph 1.5", "p_ph must be in [0, 1]"),
    ("bounds ratio -n 10 --epsilon nan", "epsilon >= 1"),
    # an infinite epsilon printed "ratio": "nan" and exited 0 before
    ("bounds ratio -n 10 --epsilon inf", "finite epsilon >= 1"),
    ("sweep ratio --n-grid 10,100 --epsilon inf", "finite epsilon >= 1"),
])
def test_nan_or_out_of_range_bound_inputs_are_errors(capsys, argv, message):
    # each printed a value, nan or finite, or failed with "math domain
    # error", before
    code, out, err = run(capsys, *shlex.split(argv))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    "analyze --kind tight -n 6 -t 3 --epsilon 1/0",
    "simulate --what family-average -n 8 -m 4 -p 1/0 -R 0.5 --seed 1",
    "simulate --what counterexample -n 5 -p 1/0",
    "simulate --what error-prob --code {d}/c.txt -p 1/0",
])
def test_zero_denominator_fraction_is_an_error(tmp_path, capsys, argv):
    # each printed a ZeroDivisionError traceback and exited 1 before
    (tmp_path / "c.txt").write_text(format_code(LinearCode.repetition(5)))
    code, out, err = run(capsys, *shlex.split(argv.format(d=tmp_path)))
    assert code == 2
    assert out == ""
    assert err == "error: '1/0' has a zero denominator\n"


def test_oversized_counterexample_is_refused_before_sampling(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernels sampled")

    monkeypatch.setattr(HashFamily, "sample_rows", refuse)
    code, out, err = run(capsys, "analyze", "--kind", "counterexample", "-n", "2000",
                         "--seed", "1")
    assert (code, out, err) == (2, "", "error: ambient length 2000 exceeds cap 20\n")


def test_phase_sum_refuses_oversized_block_length_before_walking(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("k-window walked")

    monkeypatch.setattr("dualhash.bounds._binomial_window_terms", no_walk)
    for argv in ("bounds qkd --approach phase_sum -S 0.2 --p-ph 0.05 "
                 "-n 10000000000000000",
                 "sweep qkd --n-grid 1000000001 -S 0.2 --p-ph 0.05"):
        code, out, err = run(capsys, *shlex.split(argv))
        assert code == 2
        assert out == ""
        assert "exceeds phase_sum block length cap 1000000000" in err


def test_phase_sum_sweep_refuses_its_summed_window_before_walking(capsys, monkeypatch):
    # 10,000 points at n near 10^9 walk about 1.2M terms each: some 8 hours
    def no_walk(*args):
        raise AssertionError("k-window walked")

    monkeypatch.setattr("dualhash.bounds._binomial_window_terms", no_walk)
    code, out, err = run(capsys, *shlex.split(
        "sweep qkd --n-grid 999990001:1000000000:1 --approach phase_sum -S 0.2 --p-ph 0.5"))
    assert code == 2
    assert out == ""
    assert f"more than {SWEEP_TERM_CAP}" in err


def test_phase_sum_sweep_term_cap_boundary(capsys, monkeypatch):
    evaluated = []

    def record(args):
        evaluated.append(args.n)
        return {"n": args.n}

    monkeypatch.setattr("dualhash.cli._bound_record", record)
    # 8 points at 10^9 may walk 9,879,048 terms, 9 points 11,113,929
    for points, admitted in ((8, True), (9, False)):
        grid = ",".join(["1000000000"] * points)
        code, out, err = run(capsys, "sweep", "qkd", "--n-grid", grid, "-S", "0.2",
                             "--p-ph", "0.5")
        assert (code, err == "") == ((0, True) if admitted else (2, False))
    assert len(evaluated) == 8
    # p_ph = 0 walks one term a point; other approaches walk none
    for argv in ("--p-ph 0", "--approach phase_iid --p-ph 0.5"):
        code, out, err = run(capsys, "sweep", "qkd", "--n-grid", "1:10000:1", "-S", "0.2",
                             *argv.split())
        assert code == 0
    assert len(evaluated) == 8 + 2 * 10000


@pytest.mark.parametrize("argv, message", [
    ("bounds qkd --approach phase_sum -n 0 -S 0.5 --p-ph 0.05", "n >= 1"),
    ("bounds qkd --approach phase_iid -n -5 -S 0.5 --p-ph 0.05", "n >= 1"),
    ("bounds gallager -n -3 -R 0.5 -p 0.1", "n >= 1"),
    ("sweep qkd --n-grid 0.5 -S 0.4 --p-ph 0.05", "whole number, got 0.5"),
    ("sweep ratio --n-grid 10.7,100", "whole number, got 10.7"),
])
def test_block_length_is_checked(capsys, argv, message):
    # n = 0 raised ZeroDivisionError, n < 0 printed a value, and sweep cut
    # 10.7 down to 10
    code, out, err = run(capsys, *shlex.split(argv))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("grid, message", [
    ("1:10:nan", "finite step > 0"),
    ("1:inf:1", "finite ends"),
    ("0:1e12:1", f"more than {GRID_POINT_CAP} points"),
    ("10:1:1", "a <= b"),
])
def test_sweep_refuses_unbounded_grid_before_building_it(capsys, grid, message):
    # each appended points until MemoryError before, and the reversed range
    # printed an empty sweep with exit 0
    code, out, err = run(capsys, "sweep", "ratio", "--n-grid", grid)
    assert code == 2
    assert out == ""
    assert message in err


def test_grid_point_cap_boundary():
    assert len(_parse_grid(f"1:{GRID_POINT_CAP}:1")) == GRID_POINT_CAP
    with pytest.raises(ValueError, match="more than"):
        _parse_grid(f"0:{GRID_POINT_CAP}:1")
    with pytest.raises(ValueError, match="finite step > 0"):
        _parse_grid("0:1:-0.5")
    assert _parse_grid("5:5:1") == [5.0]


def test_sweep_caps_a_comma_grid_before_evaluating_a_point(capsys, monkeypatch):
    def evaluated(args):
        raise AssertionError("a grid point was evaluated before the cap was checked")

    monkeypatch.setattr("dualhash.cli._bound_record", evaluated)
    grid = ",".join(str(n) for n in range(10, 11 + GRID_POINT_CAP))
    code, out, err = run(capsys, "sweep", "ratio", "--n-grid", grid)
    assert code == 2
    assert out == ""
    assert f"grid has {GRID_POINT_CAP + 1} points, more than {GRID_POINT_CAP} points" in err
    assert len(_parse_grid(",".join(["10"] * GRID_POINT_CAP))) == GRID_POINT_CAP


def test_simulate_wiretap(tmp_path, capsys):
    chan = tmp_path / "chan.txt"
    chan.write_text("0.9 0 0.1 0\n" * 3)
    c1 = tmp_path / "c1.txt"
    c1.write_text(format_code(LinearCode.full(3)))
    c2 = tmp_path / "c2.txt"
    c2.write_text(format_code(LinearCode.repetition(3)))
    code, out, _ = run(
        capsys, "simulate", "--what", "wiretap", "--channel", str(chan),
        "--c1", str(c1), "--c2", str(c2),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_trace_distance"] >= float(payload["exact_value"])


@pytest.mark.parametrize("flags", [[], ["--phase-only"]], ids=["exact", "phase_only"])
def test_simulate_wiretap_rejects_codes_of_other_length(tmp_path, capsys, flags):
    # a 3-qubit channel with length-4 codes printed 0.626 (exact) and 0.271
    chan = tmp_path / "chan.txt"
    chan.write_text("0.9 0 0.1 0\n" * 3)
    c1 = tmp_path / "c1.txt"
    c1.write_text(format_code(LinearCode.full(4)))
    c2 = tmp_path / "c2.txt"
    c2.write_text(format_code(LinearCode.repetition(4)))
    code, out, err = run(
        capsys, "simulate", "--what", "wiretap", "--channel", str(chan),
        "--c1", str(c1), "--c2", str(c2), *flags,
    )
    assert code == 2
    assert out == ""
    assert "qubits" in err


def test_verify_single_criterion(capsys):
    code, out, _ = run(capsys, "verify", "1", "--seed", "7")
    assert code == 0
    assert out.startswith("PASS criterion 1")


def test_verify_unknown_criterion(capsys):
    code, _, err = run(capsys, "verify", "99", "--seed", "7")
    assert code == 2
    assert "unknown" in err


def test_verify_requires_seed():
    with pytest.raises(SystemExit) as err:
        main(["verify", "all"])
    assert err.value.code == 2


def test_sweep_ratio_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "ratio", "--n-grid", "10,100,1000", "--epsilon", "1.0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,epsilon,ratio"
    assert len(lines) == 4
    ratios = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert ratios == sorted(ratios, reverse=True)


def test_sweep_reliability_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "reliability", "-p", "0.1",
        "--r-grid", "0.1:0.5:0.2", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["R"] for r in records] == [0.1, 0.3, 0.5]


def sweep_agrees_with_bounds(capsys, topic, grid_flag, grid, point_flag, *flags):
    code, out, err = run(
        capsys, "sweep", topic, grid_flag, grid, *flags, "--format", "json"
    )
    assert code == 0, err
    rows = json.loads(out)
    points = _parse_grid(grid)
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        if point_flag == "-n":
            point = int(point)
        code, out, err = run(capsys, "bounds", topic, point_flag, repr(point), *flags)
        assert code == 0, err
        assert row == json.loads(out)


def test_sweep_reliability_rows_are_bounds_records(capsys):
    for grid in ("0.1,0.3,0.5", "0.05:0.45:0.1"):
        sweep_agrees_with_bounds(
            capsys, "reliability", "--r-grid", grid, "-R", "-p", "0.1"
        )


def test_sweep_ratio_rows_are_bounds_records(capsys):
    sweep_agrees_with_bounds(
        capsys, "ratio", "--n-grid", "10,1e3", "-n", "--epsilon", "2"
    )


@pytest.mark.parametrize("approach", APPROACHES)
def test_sweep_qkd_rows_are_bounds_records(capsys, approach):
    sweep_agrees_with_bounds(
        capsys, "qkd", "--n-grid", "100:700:300", "-n", "--approach", approach,
        "-S", "0.4", "--p-ph", "0.05", "-l", "50",
    )


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "bounds", "ratio", "-n", "100", "--epsilon", "1.0",
        "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["n"] == 100


def test_float_formatting_is_12_significant_digits(capsys):
    code, out, _ = run(capsys, "bounds", "reliability", "-R", "0.4", "-p", "0.1")
    payload = json.loads(out)
    # values survive a 12-significant-digit round trip unchanged
    assert payload["E"] == float(f"{payload['E']:.12g}")
