"""Golden corpus: `--report machine` output of the CLI, byte for byte.

Each case of `golden_cases.CASES` runs through `run_command` in-process and
compares the exit status and the stdout bytes with the files stored under
`tests/golden/`: `<case>.out` holds stdout and `status.json` the exit
statuses.  Refactors must leave every byte unchanged.  `check_goldens.py`
runs the same cases as `python -O` processes.
"""

import io
import json

import pytest
from golden_cases import CASES, GOLDEN, argv

from jigroup.cli import run_command


def _run(args):
    out = io.StringIO()
    status, _ = run_command(args, out)
    return status, out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_machine_report(case):
    status, stdout = _run(argv(case))
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
    status, stdout = _run(["--report", "machine", "verify-paper", "all"])
    assert status == 0
    assert len(splits) == 1
    claims = []
    for target in ("1", "2", "3", "leethm"):
        claims += json.loads((GOLDEN / f"verify_paper_{target}.out").read_text())["claims"]
    report = json.loads(stdout)
    assert report["claims"] == claims
    assert report["targets"] == ["1", "2", "3", "leethm"]


def test_the_subprocess_runner_passes_a_golden_and_flags_a_changed_one(monkeypatch, tmp_path):
    import check_goldens

    case = "hilbert_1_m7_5"
    assert check_goldens.check(case) is None
    (tmp_path / "status.json").write_bytes((GOLDEN / "status.json").read_bytes())
    (tmp_path / f"{case}.out").write_bytes((GOLDEN / f"{case}.out").read_bytes() + b" ")
    monkeypatch.setattr(check_goldens, "GOLDEN", tmp_path)
    assert check_goldens.check(case) == "stdout differs from the golden"
