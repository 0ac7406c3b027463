"""Golden outputs: exact values and bytes that the numeric fast paths
must reproduce unchanged (captured from the full-loop implementations)."""

import pytest

from dualhash.bounds import _phase_sum_log2
from dualhash.cli import main
from dualhash.gf2 import LinearCode, format_code


@pytest.mark.parametrize("n, expected", [
    (10**4, -116.8403284036683),
    (10**5, -1127.6445699246754),
    (10**6, -11220.21594837997),
])
def test_phase_sum_log2_full_loop_values(n, expected):
    assert _phase_sum_log2(n, 0.4, 1.0, p_ph=0.05) == expected


SWEEP_QKD = (
    "formula_id,value,input_S,input_epsilon,input_l,input_n,input_p_ph,aux_chi_value,aux_sum_log2,aux_value_log2\r\n"
    "phase_sum_trace,7.33370129764e-18,0.4,1.0,100,10000,0.05,1.45779515869e-33,-116.840328404,-56.9201642018\r\n"
    "phase_sum_trace,5.29815910381e-170,0.4,1.0,100,100000,0.05,0.0,-1127.64456992,-562.322284962\r\n"
    "phase_sum_trace,0.0,0.4,1.0,100,1000000,0.05,0.0,-11220.2159484,-5608.60797419\r\n"
)

ANALYZE_MODIFIED_TOEPLITZ = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "1",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 4,\n'
    '    "t_min": 4,\n'
    '    "worst_x": "0000000001"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "modified-toeplitz",\n'
    '  "members": 512,\n'
    '  "n": 10,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 6,\n'
    '    "t_min": 6,\n'
    '    "worst_x": "0000010000"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


ANALYZE_MODIFIED_TOEPLITZ_14_5 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "1",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 5,\n'
    '    "t_min": 5,\n'
    '    "worst_x": "00000000000001"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "modified-toeplitz",\n'
    '  "members": 8192,\n'
    '  "n": 14,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 9,\n'
    '    "t_min": 9,\n'
    '    "worst_x": "00000000100000"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

ANALYZE_MODIFIED_TOEPLITZ_12_3_MAX = (
    "{\n"
    '  "convention": "max_dim",\n'
    '  "dual_epsilon": "1",\n'
    '  "dual_report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 3,\n'
    '    "t_min": 3,\n'
    '    "worst_x": "000000000001"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "modified-toeplitz",\n'
    '  "members": 2048,\n'
    '  "n": 12,\n'
    '  "report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 9,\n'
    '    "t_min": 9,\n'
    '    "worst_x": "000000001000"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


ANALYZE_TIGHT = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "93/16",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 16,\n'
    '    "epsilon_num": 93,\n'
    '    "t_max": 4,\n'
    '    "t_min": 4,\n'
    '    "worst_x": "1001101"\n'
    "  },\n"
    '  "epsilon": "3/2",\n'
    '  "kind": "tight",\n'
    '  "members": 43059,\n'
    '  "n": 7,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 2,\n'
    '    "epsilon_num": 3,\n'
    '    "t_max": 3,\n'
    '    "t_min": 3,\n'
    '    "worst_x": "0000010"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

ANALYZE_COUNTEREXAMPLE = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "32",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 32,\n'
    '    "t_max": 3,\n'
    '    "t_min": 1,\n'
    '    "worst_x": "00000001"\n'
    "  },\n"
    '  "epsilon": "2",\n'
    '  "kind": "counterexample",\n'
    '  "members": 16384,\n'
    '  "n": 8,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 2,\n'
    '    "t_max": 7,\n'
    '    "t_min": 5,\n'
    '    "worst_x": "00000010"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


ANALYZE_TOEPLITZ_10_3 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "7/8",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 8,\n'
    '    "epsilon_num": 7,\n'
    '    "t_max": 3,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "0000000100"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "toeplitz",\n'
    '  "members": 4096,\n'
    '  "n": 10,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 10,\n'
    '    "t_min": 7,\n'
    '    "worst_x": "0000000001"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

# the widest admitted plain-Toeplitz family with mixed ranks; its t_max comes
# from the rank-0 member
ANALYZE_TOEPLITZ_9_8_MAX = (
    "{\n"
    '  "convention": "max_dim",\n'
    '  "dual_epsilon": "7281/32",\n'
    '  "dual_report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 32,\n'
    '    "epsilon_num": 7281,\n'
    '    "t_max": 8,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "011111111"\n'
    "  },\n"
    '  "epsilon": "1/256",\n'
    '  "kind": "toeplitz",\n'
    '  "members": 65536,\n'
    '  "n": 9,\n'
    '  "report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 256,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 9,\n'
    '    "t_min": 1,\n'
    '    "worst_x": "000000001"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

# 2^15 square members, half of them rank-deficient: every rank 0..8 occurs
ANALYZE_TOEPLITZ_8_8 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "23663/32768",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 32768,\n'
    '    "epsilon_num": 23663,\n'
    '    "t_max": 8,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "01111111"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "toeplitz",\n'
    '  "members": 32768,\n'
    '  "n": 8,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 8,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "00000001"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

# the widest plain-Toeplitz table the caps admit: 2^16 rows of length 16
ANALYZE_TOEPLITZ_16_1_MAX = (
    "{\n"
    '  "convention": "max_dim",\n'
    '  "dual_epsilon": "1",\n'
    '  "dual_report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 1,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "0000000000000001"\n'
    "  },\n"
    '  "epsilon": "1/2",\n'
    '  "kind": "toeplitz",\n'
    '  "members": 65536,\n'
    '  "n": 16,\n'
    '  "report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 2,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 16,\n'
    '    "t_min": 15,\n'
    '    "worst_x": "0000000000000001"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

# the smallest family: the zero map and the identity on one bit
ANALYZE_TOEPLITZ_1_1 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "1/2",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 2,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 1,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "1"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "toeplitz",\n'
    '  "members": 2,\n'
    '  "n": 1,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 1,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "1"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

ANALYZE_RANDOM_LINEAR_6_2_MAX = (
    "{\n"
    '  "convention": "max_dim",\n'
    '  "dual_epsilon": "189/64",\n'
    '  "dual_report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 64,\n'
    '    "epsilon_num": 189,\n'
    '    "t_max": 2,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "000001"\n'
    "  },\n"
    '  "epsilon": "1/4",\n'
    '  "kind": "random-linear",\n'
    '  "members": 4096,\n'
    '  "n": 6,\n'
    '  "report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 4,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 6,\n'
    '    "t_min": 4,\n'
    '    "worst_x": "000001"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)

ANALYZE_TIGHT_X5 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "93/16",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 16,\n'
    '    "epsilon_num": 93,\n'
    '    "t_max": 4,\n'
    '    "t_min": 4,\n'
    '    "worst_x": "0000101"\n'
    "  },\n"
    '  "epsilon": "3/2",\n'
    '  "kind": "tight",\n'
    '  "members": 43059,\n'
    '  "n": 7,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 2,\n'
    '    "epsilon_num": 3,\n'
    '    "t_max": 3,\n'
    '    "t_min": 3,\n'
    '    "worst_x": "0000010"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


SIMULATE_FAMILY_AVERAGE_MC = (
    "{\n"
    '  "bound_family_average": 0.295491312645,\n'
    '  "bound_weighted_sum": 0.146894548729,\n'
    '  "ci_upper": 0.185377712939,\n'
    '  "exact_value": "0.033635",\n'
    '  "n": 12,\n'
    '  "param_R": 0.333,\n'
    '  "param_epsilon": 1.0,\n'
    '  "param_mode": "monte_carlo",\n'
    '  "param_p": "1/20",\n'
    '  "seed": 7\n'
    "}\n"
)


# Paths whose library signatures changed after these bytes were recorded:
# the exact family average (its bound checks), the gallager and reliability
# records (the scalar optimisers) and the delta_biased_chi_c record.
SIMULATE_FAMILY_AVERAGE_EXACT = (
    "{\n"
    '  "bound_family_average": 0.295491312645,\n'
    '  "bound_weighted_sum": 0.146894548729,\n'
    '  "ci_upper": 0.184886236185,\n'
    '  "exact_value": "42423709755989/1280000000000000",\n'
    '  "n": 12,\n'
    '  "param_R": 0.333,\n'
    '  "param_epsilon": 1.0,\n'
    '  "param_mode": "exact",\n'
    '  "param_p": "1/20",\n'
    '  "seed": 7\n'
    "}\n"
)

BOUNDS_GALLAGER = (
    "{\n"
    '  "aux_loose_value": 0.056755444129,\n'
    '  "aux_reliability_e": 0.0413909740369,\n'
    '  "aux_s_star": 0.408514839518,\n'
    '  "aux_value_log2": -4.13909740369,\n'
    '  "formula_id": "family_average",\n'
    '  "input_R": 0.5,\n'
    '  "input_epsilon": 1.0,\n'
    '  "input_n": 100,\n'
    '  "input_p": 0.05,\n'
    '  "value": 0.056755444129\n'
    "}\n"
)

BOUNDS_RELIABILITY = (
    "{\n"
    '  "E": 0.000783171783511,\n'
    '  "R": 0.5,\n'
    '  "identity_residual": 3.70855793991e-11,\n'
    '  "p": 0.1,\n'
    '  "s_star": 0.0510740431242\n'
    "}\n"
)

BOUNDS_QKD_DELTA_BIASED_CHI_C = (
    "{\n"
    '  "aux_exponent": 0.0051042885257,\n'
    '  "aux_u": 1361.03443398,\n'
    '  "formula_id": "delta_biased_chi_c",\n'
    '  "input_S": 0.4,\n'
    '  "input_epsilon": 1.0,\n'
    '  "input_n": 1000,\n'
    '  "input_p_ph": 0.05,\n'
    '  "value": 158.905143491\n'
    "}\n"
)


# captured from the member-by-member family build, before members were packed
ANALYZE_RANDOM_LINEAR_6_2 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "189/256",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 256,\n'
    '    "epsilon_num": 189,\n'
    '    "t_max": 2,\n'
    '    "t_min": 0,\n'
    '    "worst_x": "000001"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "random-linear",\n'
    '  "members": 4096,\n'
    '  "n": 6,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 6,\n'
    '    "t_min": 4,\n'
    '    "worst_x": "000001"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


# a float leakage, summed block by block over the members' codeword groups
SIMULATE_COUNTEREXAMPLE_7 = (
    "{\n"
    '  "exact_value": "1.0808197885737567",\n'
    '  "n": 7,\n'
    '  "param_floor": 0.531004406411,\n'
    '  "param_p": 0.1,\n'
    '  "seed": null\n'
    "}\n"
)


# recorded from the per-u elimination that the row-combination count replaced
ANALYZE_MODIFIED_TOEPLITZ_20_1 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "1",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 1,\n'
    '    "t_min": 1,\n'
    '    "worst_x": "00000000000000000001"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "modified-toeplitz",\n'
    '  "members": 524288,\n'
    '  "n": 20,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 19,\n'
    '    "t_min": 19,\n'
    '    "worst_x": "00000000000000000010"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


ANALYZE_MODIFIED_TOEPLITZ_20_19 = (
    "{\n"
    '  "convention": "min_dim",\n'
    '  "dual_epsilon": "1",\n'
    '  "dual_report": {\n'
    '    "convention": "max_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 19,\n'
    '    "t_min": 19,\n'
    '    "worst_x": "00000000000000000001"\n'
    "  },\n"
    '  "epsilon": "1",\n'
    '  "kind": "modified-toeplitz",\n'
    '  "members": 524288,\n'
    '  "n": 20,\n'
    '  "report": {\n'
    '    "convention": "min_dim",\n'
    '    "epsilon_den": 1,\n'
    '    "epsilon_num": 1,\n'
    '    "t_max": 1,\n'
    '    "t_min": 1,\n'
    '    "worst_x": "10000000000000000000"\n'
    "  },\n"
    '  "seed": null\n'
    "}\n"
)


@pytest.mark.parametrize("argv, expected", [
    ("sweep qkd --n-grid 10000,100000,1000000 --approach phase_sum -S 0.4 "
     "--p-ph 0.05 -l 100", SWEEP_QKD),
    ("analyze --kind modified-toeplitz -n 10 -m 4", ANALYZE_MODIFIED_TOEPLITZ),
    ("analyze --kind modified-toeplitz -n 14 -m 5", ANALYZE_MODIFIED_TOEPLITZ_14_5),
    ("analyze --kind modified-toeplitz -n 12 -m 3 --convention max_dim",
     ANALYZE_MODIFIED_TOEPLITZ_12_3_MAX),
    ("analyze --kind modified-toeplitz -n 20 -m 1", ANALYZE_MODIFIED_TOEPLITZ_20_1),
    ("analyze --kind modified-toeplitz -n 20 -m 19", ANALYZE_MODIFIED_TOEPLITZ_20_19),
    ("analyze --kind tight -n 7 -t 3 --epsilon 3/2 -x 77", ANALYZE_TIGHT),
    ("analyze --kind counterexample -n 8", ANALYZE_COUNTEREXAMPLE),
    ("analyze --kind toeplitz -n 10 -m 3", ANALYZE_TOEPLITZ_10_3),
    ("analyze --kind toeplitz -n 9 -m 8 --convention max_dim", ANALYZE_TOEPLITZ_9_8_MAX),
    ("analyze --kind toeplitz -n 8 -m 8", ANALYZE_TOEPLITZ_8_8),
    ("analyze --kind toeplitz -n 16 -m 1 --convention max_dim", ANALYZE_TOEPLITZ_16_1_MAX),
    ("analyze --kind toeplitz -n 1 -m 1", ANALYZE_TOEPLITZ_1_1),
    ("analyze --kind random-linear -n 6 -m 2 --convention max_dim",
     ANALYZE_RANDOM_LINEAR_6_2_MAX),
    ("analyze --kind tight -n 7 -t 3 --epsilon 3/2 -x 5", ANALYZE_TIGHT_X5),
    ("analyze --kind random-linear -n 6 -m 2", ANALYZE_RANDOM_LINEAR_6_2),
    ("simulate --what counterexample -n 7 -p 1/10", SIMULATE_COUNTEREXAMPLE_7),
    ("simulate --what family-average -n 12 -m 8 -p 1/20 -R 0.333 --samples 100 "
     "--seed 7 --mc", SIMULATE_FAMILY_AVERAGE_MC),
    ("simulate --what family-average -n 12 -m 8 -p 1/20 -R 0.333 --samples 100 "
     "--seed 7", SIMULATE_FAMILY_AVERAGE_EXACT),
    ("bounds gallager -n 100 -R 0.5 -p 0.05", BOUNDS_GALLAGER),
    ("bounds reliability -R 0.5 -p 0.1", BOUNDS_RELIABILITY),
    ("bounds qkd -n 1000 --approach delta_biased_chi_c -S 0.4 --p-ph 0.05",
     BOUNDS_QKD_DELTA_BIASED_CHI_C),
], ids=["sweep_qkd", "analyze_modified_toeplitz", "analyze_modified_toeplitz_14_5",
        "analyze_modified_toeplitz_12_3_max_dim", "analyze_modified_toeplitz_20_1",
        "analyze_modified_toeplitz_20_19", "analyze_tight", "analyze_counterexample",
        "analyze_toeplitz_10_3", "analyze_toeplitz_9_8_max_dim", "analyze_toeplitz_8_8",
        "analyze_toeplitz_16_1_max_dim", "analyze_toeplitz_1_1",
        "analyze_random_linear_6_2_max_dim", "analyze_tight_x5",
        "analyze_random_linear_6_2", "simulate_counterexample_7",
        "simulate_family_average_mc", "simulate_family_average_exact", "bounds_gallager",
        "bounds_reliability", "bounds_qkd_delta_biased_chi_c"])
def test_cli_output_bytes(capsys, argv, expected):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


# The single-code decoding paths: one code (or a code with its subcode)
# read from files, the Hamming [7,4] code over the repetition code.
HAMMING = LinearCode.from_strings(["1000110", "0100101", "0010011", "0001111"])
CHANNEL = "0.8 0.1 0.06 0.04\n0.85 0.05 0.07 0.03\n" * 3 + "0.8 0.1 0.06 0.04\n"

SIMULATE_ERROR_PROB = '{\n  "error_prob": "93559/625000",\n  "n": 7,\n  "p": "1/10"\n}\n'
SIMULATE_ERROR_PROB_BASE = (
    '{\n  "error_prob": "18711/125000",\n  "n": 7,\n  "p": "1/10"\n}\n'
)
SIMULATE_WIRETAP = (
    "{\n"
    '  "bound_holevo": 2.39274296424,\n'
    '  "bound_trace_distance": 1.92955953523,\n'
    '  "exact_value": "1.221777151182485",\n'
    '  "n": 7,\n'
    '  "param_holevo": 1.78238434454,\n'
    '  "param_l": 3,\n'
    '  "param_mode": "exact",\n'
    '  "param_p_ph": 0.1,\n'
    '  "param_p_ph_remaining": "2327/5000"\n'
    "}\n"
)
SIMULATE_WIRETAP_PHASE_ONLY = (
    "{\n"
    '  "bound_holevo": 2.39274296424,\n'
    '  "bound_trace_distance": 1.92955953523,\n'
    '  "exact_value": "0.4654",\n'
    '  "n": 7,\n'
    '  "param_l": 3,\n'
    '  "param_mode": "phase_only",\n'
    '  "param_p_ph": 0.1,\n'
    '  "param_p_ph_remaining": "2327/5000"\n'
    "}\n"
)
SIMULATE_DISTILL = (
    '{\n  "agree": true,\n  "key_a": "1010101",\n  "key_b": "1010101",\n'
    '  "seed": 3\n}\n'
)


@pytest.mark.parametrize("argv, expected", [
    ("simulate --what error-prob --code {d}/c1.txt -p 1/10", SIMULATE_ERROR_PROB),
    ("simulate --what error-prob --code {d}/c1.txt --base {d}/c2.txt -p 1/10",
     SIMULATE_ERROR_PROB_BASE),
    ("simulate --what wiretap --channel {d}/ch.txt --c1 {d}/c1.txt --c2 {d}/c2.txt",
     SIMULATE_WIRETAP),
    ("simulate --what wiretap --channel {d}/ch.txt --c1 {d}/c1.txt --c2 {d}/c2.txt "
     "--phase-only", SIMULATE_WIRETAP_PHASE_ONLY),
    ("simulate --what distill --c1 {d}/c1.txt --c2 {d}/c2.txt --key-a 1011001 "
     "--key-b 1011011 --seed 3", SIMULATE_DISTILL),
], ids=["simulate_error_prob", "simulate_error_prob_base", "simulate_wiretap",
        "simulate_wiretap_phase_only", "simulate_distill"])
def test_cli_single_code_output_bytes(tmp_path, capsys, argv, expected):
    (tmp_path / "c1.txt").write_text(format_code(HAMMING))
    (tmp_path / "c2.txt").write_text(format_code(LinearCode.repetition(7)))
    (tmp_path / "ch.txt").write_text(CHANNEL)
    assert main(argv.format(d=tmp_path).split()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
