"""Golden outputs: exact values and bytes that the numeric fast paths
must reproduce unchanged (captured from the full-loop implementations)."""

import pytest

from dualhash.bounds import _phase_sum_log2
from dualhash.cli import main


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


@pytest.mark.parametrize("argv, expected", [
    ("sweep qkd --n-grid 10000,100000,1000000 --approach phase_sum -S 0.4 "
     "--p-ph 0.05 -l 100", SWEEP_QKD),
    ("analyze --kind modified-toeplitz -n 10 -m 4", ANALYZE_MODIFIED_TOEPLITZ),
    ("analyze --kind tight -n 7 -t 3 --epsilon 3/2 -x 77", ANALYZE_TIGHT),
    ("analyze --kind counterexample -n 8", ANALYZE_COUNTEREXAMPLE),
], ids=["sweep_qkd", "analyze_modified_toeplitz", "analyze_tight", "analyze_counterexample"])
def test_cli_output_bytes(capsys, argv, expected):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
