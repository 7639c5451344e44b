import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from jigroup import catalog, fixtures
from jigroup.cli import run_command
from jigroup.perm import PermGroup
from jigroup.profile_io import ProfileError, parse_profile
from jigroup.profiles import VaProfile

import corpora
from oracles import emit_permgroup, emit_va_profile, emit_wreath

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
        corpora.c3_rank2_profile(),
        corpora.pro2_dihedral_profile(),
        corpora.c3_rank2_profile_over_Z(),
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


def test_cli_hilbert():
    out = io.StringIO()
    status, report = run_command(["hilbert", "-1", "-1", "2"], out)
    assert status == 0
    assert report["symbol"] == -1
    status, report = run_command(["hilbert", "-1", "-1", "real"], out)
    assert report["symbol"] == -1
    status, report = run_command(["hilbert", "1", "-7", "5"], out)
    assert report["symbol"] == 1


@pytest.mark.parametrize("argv, message", [
    (["3", "2", "4"], "argument place: not a prime or 'real': '4'"),
    (["3", "2", "x"], "argument place: not a prime or 'real': 'x'"),
    (["3", "2", "-5"], "argument place: not a prime or 'real': '-5'"),
    (["a", "1", "2"], "argument a: not a rational number: 'a'"),
    (["1", "1/0", "2"], "argument b: not a rational number: '1/0'"),
    (["1", "0", "2"], "argument b: must be nonzero"),
])
def test_cli_hilbert_bad_argument_is_a_usage_error(argv, message):
    out = io.StringIO()
    status, report = run_command(["hilbert", *argv], out)
    assert status == 2
    assert out.getvalue() == f"error: {message}\n"
    assert report == {"error": message}
    out = io.StringIO()
    status, _ = run_command(["--report", "machine", "hilbert", *argv], out)
    assert status == 2
    assert json.loads(out.getvalue()) == {
        "error": {"kind": "usage", "line": None, "message": message}}


@pytest.mark.parametrize("argv, message", [
    (["analyze"], "the following arguments are required: file"),
    (["--precision", "x", "analyze", "f"], "argument --precision: invalid int value: 'x'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
     "(choose from 'analyze', 'shadow', 'hilbert', 'chartab', 'verify-paper')"),
    (["verify-paper", "1", "2"], "unrecognized arguments: 2"),
    (["--precision", "-3", "analyze", str(DATA / "pro2_dihedral.profile")],
     "argument --precision: must be at least 0, got -3"),
    (["--order-gate", "0", "analyze", str(DATA / "q16_va.profile")],
     "argument --order-gate: must be at least 1, got 0"),
    (["--order-gate", "-1", "chartab", str(DATA / "q16_group.profile")],
     "argument --order-gate: must be at least 1, got -1"),
])
def test_argument_error_is_json_in_machine_mode(argv, message, capsys):
    for report_args in (["--report", "machine"], ["--report=machine"]):
        out = io.StringIO()
        status, report = run_command([*report_args, *argv], out)
        assert status == 2
        assert out.getvalue() == json.dumps(
            {"error": {"kind": "usage", "line": None, "message": message}},
            sort_keys=True, indent=1) + "\n"
        assert report == {"error": message}
        assert capsys.readouterr() == ("", "")


def test_argument_error_keeps_argparse_usage_in_text_mode(capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run_command(["analyze"], out)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: jigroup analyze [-h] file\n"
        "jigroup analyze: error: the following arguments are required: file\n")
    with pytest.raises(SystemExit):  # an unusable --report is text mode
        run_command(["--report", "json", "analyze", "f"], out)
    assert "invalid choice: 'json'" in capsys.readouterr().err


def test_cli_analyze_c3(tmp_path):
    f = tmp_path / "c3.profile"
    f.write_text(emit_va_profile(corpora.c3_rank2_profile()))
    out = io.StringIO()
    status, report = run_command(["analyze", str(f)], out)
    assert status == 0
    assert report["just_infinite"].status == "ji"
    assert report["hereditary_check"].status == "hypothesis_failed"


def test_cli_machine_report_deterministic(tmp_path):
    f = tmp_path / "c3.profile"
    f.write_text(emit_va_profile(corpora.c3_rank2_profile()))
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
    f.write_text(emit_va_profile(corpora.c3_rank2_profile()))
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


def test_cli_chartab_on_the_trivial_group_ends(tmp_path):
    # exponent 1: the modulus search once waited for l % 1 == 1 forever
    f = tmp_path / "trivial.profile"
    f.write_text("jigroup-profile v1\nkind permgroup\ndegree 2\ngen 0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "jigroup.cli", "--report", "machine", "chartab", str(f)],
        capture_output=True, text=True, env={"PYTHONPATH": str(DATA.parent.parent)},
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["order"], report["classes"], report["degrees"]) == (1, 1, [1])
    assert report["min_faithful_degree"] == 0  # the empty collection


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


@pytest.mark.parametrize("target", ["1", "3"])
def test_cli_verify_paper_machine_stdout_is_json(target):
    out = io.StringIO()
    status, _ = run_command(["--report", "machine", "verify-paper", target], out)
    assert status == 0
    doc = json.loads(out.getvalue())
    assert doc["all_passed"] and doc["targets"] == [target]


def test_cli_analyze_pro2_dihedral_reaches_hji(tmp_path):
    f = tmp_path / "d.profile"
    f.write_text(emit_va_profile(corpora.pro2_dihedral_profile()))
    out = io.StringIO()
    status, report = run_command(["analyze", str(f)], out)
    assert status == 0
    assert report["hereditary_check"].status == "hji"


def test_cli_analyze_scans_once(monkeypatch):
    # respthm_check reads the scan and the quaternionic pair that analyze
    # reports; a second call would come from inside profiles.  Each rep is
    # restricted once per subgroup and decided over Q_p once per key.
    from jigroup import cli, padic, profiles
    from jigroup.rep import MatRep

    calls = {}
    for name in ("maximal_scan", "quaternionic_type"):
        def spy(*args, _name=name, _real=getattr(profiles, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
        monkeypatch.setattr(profiles, name, spy)

    def qp_spy(*args, _real=padic._qp_analyze):
        calls["_qp_analyze"] += 1
        return _real(*args)
    monkeypatch.setattr(padic, "_qp_analyze", qp_spy)
    restricted = {}

    def restrict_spy(rep, handle, _real=MatRep.restrict):
        res = _real(rep, handle)
        restricted.setdefault((rep, tuple(handle.group.generators)), []).append((handle, res))
        return res
    monkeypatch.setattr(MatRep, "restrict", restrict_spy)
    for argv, scans, analyses in (
        (["analyze", str(DATA / "q16_va.profile")], 1, 4),
        (["verify-paper", "2"], 1, 14),
        (["verify-paper", "leethm"], 0, 24),
    ):
        calls.update(maximal_scan=0, quaternionic_type=0, _qp_analyze=0)
        restricted.clear()
        status, report = run_command(["--report", "machine", *argv], io.StringIO())
        assert status == 0
        assert calls == {"maximal_scan": scans, "quaternionic_type": scans,
                         "_qp_analyze": analyses}, argv
        for seen in restricted.values():
            assert all(res is seen[0][1] for _, res in seen)
        if argv == ["verify-paper", "2"]:
            # the maximal scan and the full subgroup walk hand in distinct
            # handles with equal generators
            assert any(len({id(h) for h, _ in seen}) > 1 for seen in restricted.values())
        if argv[0] == "analyze":
            trace = report["hereditary_check"].witness["trace"]
            assert [row["status"] for row in trace["ii"]["rows"]] == [
                row["verdict"].status for row in report["maximal_scan"]]
            assert trace["iii"]["evidence"] == report["quaternionic_type"]["evidence"]


def test_cli_chartab_order_gate(tmp_path):
    f = tmp_path / "e.profile"
    f.write_text(emit_permgroup(catalog.extraspecial_128()))
    out = io.StringIO()
    status, report = run_command(
        ["--order-gate", "64", "chartab", str(f)], out
    )
    assert status == 2
    assert "order gate" in report["error"]


def test_cli_chartab_over_gate_machine_error_is_pinned():
    out = io.StringIO()
    status, _ = run_command(["--report", "machine", "--order-gate", "100", "chartab",
                             str(DATA / "extraspecial128_group.profile")], out)
    assert status == 2
    body = {"error": {"kind": "order_gate", "line": None,
                      "message": "small-group table: group order 128 exceeds gate 100"}}
    assert out.getvalue() == json.dumps(body, sort_keys=True, indent=1) + "\n"
    assert out.getvalue() == (
        '{\n "error": {\n  "kind": "order_gate",\n  "line": null,\n'
        '  "message": "small-group table: group order 128 exceeds gate 100"\n }\n}\n')


def test_cli_shadow_p3(tmp_path):
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
    text = ("jigroup-profile v1\nkind va\nring Z\nrank 1\n"
            f"degree 2\ngen 1 0\nmat {entry}\n")
    status, out = _analyze_text(tmp_path, text)
    assert status == 2
    assert out == f"error: line 7: bad matrix entry {entry!r}\n"


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


@pytest.mark.parametrize("ring, one, minus_one", [("Z", "1", "-1"), ("Z2", "1:8", "255:8")])
def test_identity_gen_with_identity_mat_is_dropped(tmp_path, ring, one, minus_one):
    text = (f"jigroup-profile v1\nkind va\nring {ring}\nrank 1\ndegree 2\n"
            f"gen 1 0\ngen 0 1\nmat {minus_one}\nmat {one}\n")
    profile = parse_profile(text)
    assert len(profile.Q.generators) == 1
    assert len(profile.action.gen_images) == 1
    status, _ = _analyze_text(tmp_path, text)
    assert status == 0


@pytest.mark.parametrize("rank, mat, status", [(1, "1", "ji"), (2, "1 0 0 1", "not_ji")])
def test_profile_whose_gens_are_all_the_identity_is_the_trivial_group(
        tmp_path, rank, mat, status):
    # Z^d x| 1 is a lattice group: ji exactly when d = 1
    f = tmp_path / "trivial.profile"
    f.write_text(f"jigroup-profile v1\nkind va\nring Z\nrank {rank}\ndegree 1\n"
                 f"gen 0\nmat {mat}\n")
    profile = parse_profile(f.read_text())
    assert (profile.Q.order, profile.action.dimension) == (1, rank)
    out = io.StringIO()
    code, _ = run_command(["--report", "machine", "analyze", str(f)], out)
    assert code == 0
    assert json.loads(out.getvalue())["just_infinite"]["status"] == status


def test_order_gate_defaults_to_the_lattice_gate():
    from jigroup.cli import _build_parser
    from jigroup.perm import LATTICE_GATE

    args = _build_parser().parse_args(["hilbert", "1", "1", "2"])
    assert args.order_gate == LATTICE_GATE


def test_relation_violation_line_skips_identity_gen():
    # the identity pair comes first, so the kept transposition is mat line 9
    text = ("jigroup-profile v1\nkind va\nring Z\nrank 1\ndegree 2\n"
            "gen 0 1\ngen 1 0\nmat 1\nmat 2\n")
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert str(err.value) == (
        "line 9: generator images violate the relation at word (0, 0)"
    )


@pytest.mark.parametrize("ring, entry", [("Z", "-1"), ("Z2", "255:8")])
def test_identity_gen_with_other_mat_is_a_located_error(tmp_path, ring, entry):
    text = (f"jigroup-profile v1\nkind va\nring {ring}\nrank 1\ndegree 2\n"
            f"gen 1 0\ngen 0 1\nmat {entry}\nmat {entry}\n")
    status, out = _analyze_text(tmp_path, text)
    assert status == 2
    assert out == "error: line 9: identity generator needs the identity matrix\n"


@pytest.mark.parametrize("entry, k", [("255:0", 0), ("255:-1", -1)])
def test_entry_precision_below_one_is_a_located_error(tmp_path, entry, k):
    text = ("jigroup-profile v1\nkind va\nring Z2\nrank 1\ndegree 2\n"
            f"gen 1 0\nmat {entry}\n")
    status, out = _analyze_text(tmp_path, text)
    assert status == 2
    assert out == f"error: line 7: entry precision must be at least 1, got {k}\n"


def test_certificate_error_is_exit_2(monkeypatch):
    from jigroup.chartab import CharacterTable
    from jigroup.verdicts import CertificateError

    def reject(table, order):
        raise CertificateError("orthogonality failed at rows 1,0")

    monkeypatch.setattr(CharacterTable, "verify", reject)
    out = io.StringIO()
    status, report = run_command(["chartab", str(DATA / "q16_group.profile")], out)
    assert status == 2
    assert out.getvalue() == "error: certificate: orthogonality failed at rows 1,0\n"
    assert report == {"error": "certificate: orthogonality failed at rows 1,0"}
    out = io.StringIO()
    status, _ = run_command(
        ["--report", "machine", "chartab", str(DATA / "q16_group.profile")], out)
    assert status == 2
    assert json.loads(out.getvalue()) == {"error": {
        "kind": "certificate", "line": None, "message": "orthogonality failed at rows 1,0"}}


def test_failed_guard_is_a_certificate_error_in_machine_mode(monkeypatch):
    from jigroup.chartab import CharacterTable

    # no character has a proper kernel, so no collection is faithful
    monkeypatch.setattr(CharacterTable, "kernel_classes",
                        lambda table, i: frozenset(range(table.n_classes)))
    out = io.StringIO()
    status, _ = run_command(
        ["--report", "machine", "chartab", str(DATA / "q16_group.profile")], out)
    assert status == 2
    assert json.loads(out.getvalue()) == {"error": {
        "kind": "certificate", "line": None,
        "message": "no faithful character collection found"}}


def test_cli_import_leaves_sympy_unloaded():
    # sympy costs about 0.4 s of start-up; it is a test oracle only
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jigroup.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env={"PYTHONPATH": str(DATA.parent.parent)},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_numpy_unloaded():
    # the mod-l character-table solve runs on Python ints; numpy is a test oracle
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jigroup.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={"PYTHONPATH": str(DATA.parent.parent)},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_closed_stdout_is_an_io_error_exit_2():
    # the reader closes the pipe before the report is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "jigroup.cli", "--report", "machine", "analyze",
         str(DATA / "c3_z3.profile")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(DATA.parent.parent)})
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


@pytest.mark.parametrize("entries, emitted", [
    ("255:8 0:8 3:8 1:8", "255:8 0:8 3:8 1:8"),
    # one cap per matrix: the least precision an entry states
    ("255:8 0:6 3:8 1:6", "63:6 0:6 3:6 1:6"),
])
def test_padic_matrix_emits_at_its_least_entry_precision(entries, emitted):
    # g = [[-1, 0], [3, 1]] squares to the identity
    text = ("jigroup-profile v1\nkind va\nring Z2\nrank 2\nprecision 8\n"
            f"degree 2\ngen 1 0\nmat {entries}\n")
    out = emit_va_profile(parse_profile(text))
    assert out == text.replace(entries, emitted)
    assert emit_va_profile(parse_profile(out)) == out


# argv before the file, the file (text, bytes, or None for a directory),
# the text-mode prefix and the machine error's kind and line
ERROR_CASES = {
    "analyze_wreath_profile": (
        ["analyze"], (DATA / "wreath_a5_p2.profile").read_text(), "line 2: ", "profile", 2),
    "shadow_permgroup_profile": (
        ["shadow"], (DATA / "q16_group.profile").read_text(), "line 2: ", "profile", 2),
    "chartab_va_profile": (
        ["chartab"], (DATA / "c3_z3.profile").read_text(), "line 2: ", "profile", 2),
    "va_coefficient_vector": (
        ["analyze"],
        "jigroup-profile v1\nkind va\nring Z\nrank 1\ndegree 4\n"
        "gen 1 2 3 0\nmat 0,1\n",
        "line 7: ", "profile", 7),
    "wreath_prime_5": (
        ["shadow"], "jigroup-profile v1\nkind wreath\nfiber A5\nprime 5\n",
        "line 4: ", "profile", 4),
    "wreath_fiber_a6": (
        ["shadow"], "jigroup-profile v1\nkind wreath\nfiber A6\nprime 2\n",
        "line 3: ", "profile", 3),
    "not_utf8": (["analyze"], b"jigroup-profile v1\nkind va\n\xff\n", "line 3: ", "profile", 3),
    "directory": (["analyze"], None, "", "io", None),
    "missing_header": (["analyze"], "kind va\n", "line 1: ", "profile", 1),
    "empty_file": (["analyze"], "", "line 1: ", "profile", 1),
    "blank_and_comment_lines": (
        ["analyze"], "\n   \n# jigroup-profile v1\n\n", "line 1: ", "profile", 1),
    "va_precision_negative": (
        ["analyze"],
        (DATA / "pro2_dihedral.profile").read_text().replace("precision 64", "precision -1"),
        "line 5: ", "profile", 5),
    "va_precision_zero": (
        ["analyze"],
        (DATA / "pro2_dihedral.profile").read_text().replace("precision 64", "precision 0"),
        "line 5: ", "profile", 5),
    "order_gate": (
        ["--order-gate", "8", "analyze"], (DATA / "q16_va.profile").read_text(),
        "order gate: ", "order_gate", None),
    "modulus_is_an_unknown_field": (
        ["analyze"],
        "jigroup-profile v1\nkind va\nring Z\nrank 1\nmodulus 1 0 1\ndegree 2\n"
        "gen 1 0\nmat -1\n",
        "line 5: ", "profile", 5),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_is_a_located_error_and_machine_json(tmp_path, case):
    argv, content, prefix, kind, line = ERROR_CASES[case]
    path = tmp_path / "case.profile"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    out = io.StringIO()
    status, report = run_command([*argv, str(path)], out)
    assert status == 2
    assert out.getvalue() == f"error: {report['error']}\n"
    assert report["error"].startswith(prefix)
    out = io.StringIO()
    status, _ = run_command(["--report", "machine", *argv, str(path)], out)
    assert status == 2
    error = json.loads(out.getvalue())["error"]
    assert (error["kind"], error["line"]) == (kind, line)
    assert report["error"] == prefix + error["message"]
    assert out.getvalue() == json.dumps({"error": error}, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("degree, gens, mat, status", [
    (3, ["1 2 0"], ["0 -1 1 -1"], "irreducible"),
    # [[1, 1/2], [0, -1]] squares to the identity and fixes the first axis
    (2, ["1 0"], ["1 1/2 0 -1"], "reducible"),
])
def test_rational_matrep_profile_is_decided_over_Q(degree, gens, mat, status):
    from jigroup.rep import MatRep, irreducible_over_Q

    text = (f"jigroup-profile v1\nkind matrep\ndegree {degree}\n"
            + "".join(f"gen {g}\n" for g in gens) + "".join(f"mat {m}\n" for m in mat))
    rep = parse_profile(text)
    assert isinstance(rep, MatRep) and (rep.ring, rep.dimension) == ("Q", 2)
    assert irreducible_over_Q(rep).status == status
