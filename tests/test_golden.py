"""Golden corpus: `--report machine` output of the CLI, byte for byte.

Each case runs `run_command(["--report", "machine", *argv])` in-process and
compares the exit status and the stdout bytes with the files stored under
`tests/golden/`: `<case>.out` holds stdout and `status.json` the exit
statuses.  Refactors must leave every byte unchanged.

Two outputs are left out because each takes 5-6 s on its own:
`chartab extraspecial128_group.profile` and `verify-paper 3`.  Acceptance
criterion 6 (`test_acceptance.py`) and `test_cli_verify_paper_example3`
(`test_io_cli.py`) already pin what they report.
"""

import io
import json
from pathlib import Path

import pytest

import jigroup
from jigroup.cli import run_command

DATA = Path(jigroup.__file__).parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze_c3_z3": ["analyze", DATA / "c3_z3.profile"],
    "analyze_pro2_dihedral": ["analyze", DATA / "pro2_dihedral.profile"],
    "analyze_q16_va": ["analyze", DATA / "q16_va.profile"],
    "analyze_q16_va_prec256": ["--precision", "256", "analyze", DATA / "q16_va.profile"],
    "shadow_wreath_a5_p2": ["shadow", DATA / "wreath_a5_p2.profile"],
    "chartab_q16_group": ["chartab", DATA / "q16_group.profile"],
    "hilbert_m1_m1_2": ["hilbert", "-1", "-1", "2"],
    "hilbert_m1_m1_real": ["hilbert", "-1", "-1", "real"],
    "hilbert_1_m7_5": ["hilbert", "1", "-7", "5"],
    "verify_paper_1": ["verify-paper", "1"],
    "verify_paper_2": ["verify-paper", "2"],
    "verify_paper_leethm": ["verify-paper", "leethm"],
}


def _run(argv):
    out = io.StringIO()
    status, _ = run_command(["--report", "machine", *map(str, argv)], out)
    return status, out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_machine_report(case):
    status, stdout = _run(CASES[case])
    expected = json.loads((GOLDEN / "status.json").read_text())
    assert status == expected[case]
    assert stdout == (GOLDEN / f"{case}.out").read_bytes()
