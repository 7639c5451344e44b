import io
import json
from pathlib import Path

import pytest

from jigroup import catalog, fixtures
from jigroup.cli import run_command
from jigroup.perm import PermGroup
from jigroup.profile_io import (
    ProfileError,
    emit_permgroup,
    emit_va_profile,
    parse_profile,
)
from jigroup.profiles import VaProfile

DATA = Path(__file__).resolve().parent.parent / "src" / "jigroup" / "data"


def test_parse_minimal_va_profile():
    text = """jigroup-profile v1
kind va
ring Z
rank 1
degree 2
gen 1 0
mat -1
"""
    profile = parse_profile(text)
    assert isinstance(profile, VaProfile)
    assert profile.ring == "Z" and profile.rank == 1
    assert profile.action.faithful


def test_parse_truncated_file_reports_position():
    text = """jigroup-profile v1
kind va
ring Z
rank 1
degree 2
gen 1 0 3
"""
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert "line 6" in str(err.value)


def test_parse_unknown_version():
    with pytest.raises(ProfileError) as err:
        parse_profile("jigroup-profile v9\nkind va\n")
    assert "version" in str(err.value)


def test_parse_unknown_field_located():
    text = "jigroup-profile v1\nkind va\nbanana 3\n"
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert "line 3" in str(err.value)


def test_roundtrip_va_profiles():
    for profile in (
        fixtures.c3_rank2_profile(),
        fixtures.pro2_dihedral_profile(),
        fixtures.c3_rank2_profile_over_Z(),
    ):
        text = emit_va_profile(profile)
        again = parse_profile(text)
        assert emit_va_profile(again) == text
        assert again.ring == profile.ring and again.rank == profile.rank


def test_roundtrip_padic_profile():
    profile, _, _ = fixtures.quaternionic_profile()
    text = emit_va_profile(profile)
    again = parse_profile(text)
    assert emit_va_profile(again) == text
    assert again.ring == ("Zp", 2)
    assert again.action.faithful


def test_shipped_q16_profile_matches_fixture():
    text = (DATA / "q16_va.profile").read_text()
    parsed = parse_profile(text)
    profile, _, _ = fixtures.quaternionic_profile()
    assert emit_va_profile(parsed) == emit_va_profile(profile)


def test_parse_permgroup_and_roundtrip():
    G = catalog.quaternion16()
    text = emit_permgroup(G)
    again = parse_profile(text)
    assert isinstance(again, PermGroup)
    assert again.order == 16
    assert emit_permgroup(again) == text


def test_parse_number_ring_matrix():
    text = """jigroup-profile v1
kind matrep
degree 4
modulus 1 0 1
gen 1 2 3 0
mat 0,1
"""
    rep = parse_profile(text)
    assert rep.dimension == 1
    assert rep.faithful  # multiplication by i has order 4


def test_cli_hilbert():
    out = io.StringIO()
    status, report = run_command(["hilbert", "-1", "-1", "2"], out)
    assert status == 0
    assert report["symbol"] == -1
    status, report = run_command(["hilbert", "-1", "-1", "real"], out)
    assert report["symbol"] == -1
    status, report = run_command(["hilbert", "1", "-7", "5"], out)
    assert report["symbol"] == 1


def test_cli_analyze_c3(tmp_path):
    f = tmp_path / "c3.profile"
    f.write_text(emit_va_profile(fixtures.c3_rank2_profile()))
    out = io.StringIO()
    status, report = run_command(["analyze", str(f)], out)
    assert status == 0
    assert report["just_infinite"].status == "ji"
    assert report["hereditary_check"].status == "hypothesis_failed"


def test_cli_machine_report_deterministic(tmp_path):
    f = tmp_path / "c3.profile"
    f.write_text(emit_va_profile(fixtures.c3_rank2_profile()))
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        run_command(["--report", "machine", "analyze", str(f)], out)
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["timing_ms"] is None


def test_cli_seed_does_not_change_verdicts(tmp_path):
    f = tmp_path / "c3.profile"
    f.write_text(emit_va_profile(fixtures.c3_rank2_profile()))
    reports = []
    for seed in ("0", "1"):
        out = io.StringIO()
        _, rep = run_command(["--seed", seed, "analyze", str(f)], out)
        reports.append(rep)
    assert reports[0]["just_infinite"].status == reports[1]["just_infinite"].status


def test_cli_chartab(tmp_path):
    f = tmp_path / "q16.profile"
    f.write_text(emit_permgroup(catalog.quaternion16()))
    out = io.StringIO()
    status, report = run_command(["chartab", str(f)], out)
    assert status == 0
    assert report["degrees"] == [1, 1, 1, 1, 2, 2, 2]
    assert report["min_faithful_degree"] == 2


def test_cli_shadow(tmp_path):
    f = tmp_path / "w.profile"
    f.write_text((DATA / "wreath_a5_p2.profile").read_text())
    out = io.StringIO()
    status, report = run_command(["shadow", str(f)], out)
    assert status == 0
    assert report["verdicts"]["G"].status == "ji"
    assert report["verdicts"]["H"].status == "not_ji"
    assert all(r["agree"] for r in report["normal_equivalence"])


def test_cli_error_on_bad_file(tmp_path):
    f = tmp_path / "bad.profile"
    f.write_text("jigroup-profile v1\nkind va\nring Z\nrank 1\ndegree 2\ngen 9 9\n")
    out = io.StringIO()
    status, report = run_command(["analyze", str(f)], out)
    assert status == 2
    assert "error" in report


def test_cli_verify_paper_example3():
    out = io.StringIO()
    status, report = run_command(["verify-paper", "3"], out)
    assert status == 0
    text = out.getvalue()
    assert "PASS" in text and "FAIL" not in text
    assert report["all_passed"]


def test_cli_analyze_pro2_dihedral_reaches_hji(tmp_path):
    f = tmp_path / "d.profile"
    f.write_text(emit_va_profile(fixtures.pro2_dihedral_profile()))
    out = io.StringIO()
    status, report = run_command(["analyze", str(f)], out)
    assert status == 0
    assert report["hereditary_check"].status == "hji"


def test_cli_chartab_order_gate(tmp_path):
    f = tmp_path / "e.profile"
    f.write_text(emit_permgroup(catalog.extraspecial_128()))
    out = io.StringIO()
    status, report = run_command(
        ["--order-gate", "64", "chartab", str(f)], out
    )
    assert status == 2
    assert "order gate" in report["error"]


def test_cli_shadow_p3(tmp_path):
    from jigroup.profile_io import emit_wreath

    f = tmp_path / "w3.profile"
    f.write_text(emit_wreath("A5", 3))
    out = io.StringIO()
    status, report = run_command(["shadow", str(f)], out)
    assert status == 0
    assert report["H_index"] == 9
    assert all(r["agree"] for r in report["normal_equivalence"])


def _analyze_text(tmp_path, text):
    f = tmp_path / "bad.profile"
    f.write_text(text)
    out = io.StringIO()
    status, report = run_command(["analyze", str(f)], out)
    return status, out.getvalue()


def test_ring_with_composite_modulus_is_a_located_error(tmp_path):
    text = (DATA / "c3_z3.profile").read_text().replace("ring Z3", "ring Z4")
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert "line 3" in str(err.value)
    status, out = _analyze_text(tmp_path, text)
    assert status == 2
    assert out.startswith("error: line 3: ")


@pytest.mark.parametrize("entry", ["1/0", "1,1/0"])
def test_zero_denominator_entry_is_a_located_error(tmp_path, entry):
    text = ("jigroup-profile v1\nkind va\nring Z\nrank 1\nmodulus 1 0 1\n"
            f"degree 2\ngen 1 0\nmat {entry}\n")
    status, out = _analyze_text(tmp_path, text)
    assert status == 2
    assert out == f"error: line 8: bad matrix entry {entry!r}\n"


@pytest.mark.parametrize("ring, entry", [("Z", "2"), ("Z2", "3:8")])
def test_relation_violation_is_a_located_error(tmp_path, ring, entry):
    # the transposition squares to 1, but 2*2 = 4 and 3*3 = 9 != 1 mod 2^8
    text = (f"jigroup-profile v1\nkind va\nring {ring}\nrank 1\ndegree 2\n"
            f"gen 1 0\nmat {entry}\n")
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert str(err.value) == (
        "line 7: generator images violate the relation at word (0, 0)"
    )
    status, out = _analyze_text(tmp_path, text)
    assert status == 2
    assert out.startswith("error: line 7: ")
