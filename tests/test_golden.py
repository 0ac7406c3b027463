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


@pytest.mark.parametrize("argv, expected", [
    ("sweep qkd --n-grid 10000,100000,1000000 --approach phase_sum -S 0.4 "
     "--p-ph 0.05 -l 100", SWEEP_QKD),
    ("analyze --kind modified-toeplitz -n 10 -m 4", ANALYZE_MODIFIED_TOEPLITZ),
], ids=["sweep_qkd", "analyze_modified_toeplitz"])
def test_cli_output_bytes(capsys, argv, expected):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
