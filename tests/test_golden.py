"""Golden corpus: `--report machine` output of the CLI, byte for byte.

Each case runs `run_command(["--report", "machine", *argv])` in-process and
compares the exit status and the stdout bytes with the files stored under
`tests/golden/`: `<case>.out` holds stdout and `status.json` the exit
statuses.  Refactors must leave every byte unchanged.
"""

import io
import json
from pathlib import Path

import pytest

import jigroup
from jigroup.cli import run_command

DATA = Path(jigroup.__file__).parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Z_p profiles with rational entries for the rational route's splits:
# the field split (c3_z7), the quaternion split (q8_z3) and division (q8_z2).
# Permutation groups whose G/G' gives too few linear characters to fill the
# table, so the Dixon split still runs: S6 (2 of 11) and D30 (4 of 18).

CASES = {
    "analyze_c3_z3": ["analyze", DATA / "c3_z3.profile"],
    "analyze_pro2_dihedral": ["analyze", DATA / "pro2_dihedral.profile"],
    "analyze_q16_va": ["analyze", DATA / "q16_va.profile"],
    "analyze_q16_va_prec256": ["--precision", "256", "analyze", DATA / "q16_va.profile"],
    "analyze_c3_z7": ["analyze", GOLDEN / "c3_z7.profile"],
    "analyze_q8_z3": ["analyze", GOLDEN / "q8_z3.profile"],
    "analyze_q8_z2": ["analyze", GOLDEN / "q8_z2.profile"],
    "shadow_wreath_a5_p2": ["shadow", DATA / "wreath_a5_p2.profile"],
    "chartab_q16_group": ["chartab", DATA / "q16_group.profile"],
    "chartab_extraspecial128_group": ["chartab", DATA / "extraspecial128_group.profile"],
    "chartab_s6_group": ["chartab", GOLDEN / "s6_group.profile"],
    "chartab_d30_group": ["chartab", GOLDEN / "d30_group.profile"],
    "hilbert_m1_m1_2": ["hilbert", "-1", "-1", "2"],
    "hilbert_m1_m1_real": ["hilbert", "-1", "-1", "real"],
    "hilbert_1_m7_5": ["hilbert", "1", "-7", "5"],
    "verify_paper_1": ["verify-paper", "1"],
    "verify_paper_2": ["verify-paper", "2"],
    "verify_paper_3": ["verify-paper", "3"],
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


def test_verify_paper_all_splits_example_2_once(monkeypatch):
    """`verify-paper all` builds the Example-2 bundle once for targets 2 and
    leethm, and its claims are those of the four golden targets in order."""
    from jigroup import fixtures

    splits = []
    real_split = fixtures.padic_split

    def counting_split(*args, **kwargs):
        splits.append(args)
        return real_split(*args, **kwargs)

    monkeypatch.setattr(fixtures, "padic_split", counting_split)
    status, stdout = _run(["verify-paper", "all"])
    assert status == 0
    assert len(splits) == 1
    claims = []
    for target in ("1", "2", "3", "leethm"):
        claims += json.loads((GOLDEN / f"verify_paper_{target}.out").read_text())["claims"]
    report = json.loads(stdout)
    assert report["claims"] == claims
    assert report["targets"] == ["1", "2", "3", "leethm"]
