"""The golden corpus: each case's CLI arguments, after `--report machine`.

`tests/golden/<case>.out` holds a case's stdout and `tests/golden/status.json`
its exit status.  Only the standard library is used, so the runner
`tests/check_goldens.py` reads this list on a bare Python too.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "jigroup" / "data"
GOLDEN = ROOT / "tests" / "golden"

# Z_p profiles with rational entries for the rational route's splits:
# the field split (c3_z7), the quaternion split (q8_z3) and division (q8_z2).
# Z profiles, whose reports print the rational idempotents and subspaces:
# Q8 by rho_H (q8_z), Example 2's Q16 on Z^8 (q16_z, the one pinned report
# through the quadratic centre) and S3, a point group that is not a p-group.
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
    "analyze_q8_z": ["analyze", GOLDEN / "q8_z.profile"],
    "analyze_q16_z": ["analyze", GOLDEN / "q16_z.profile"],
    "analyze_s3_z": ["analyze", GOLDEN / "s3_z.profile"],
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


def argv(case):
    """The full CLI argument list of a case, as strings."""
    return ["--report", "machine", *map(str, CASES[case])]
