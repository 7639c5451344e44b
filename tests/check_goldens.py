"""Run every golden case as a fresh `python -O -m jigroup.cli` process.

    python tests/check_goldens.py

Each case of `golden_cases.CASES` must print its `tests/golden/<case>.out`
byte for byte and exit with its status in `tests/golden/status.json`.
Asserts are off in the children, so the checks here raise nothing through
`assert` either: a mismatch is reported and the exit status is 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_cases import CASES, GOLDEN, ROOT, argv  # noqa: E402


def check(case):
    """None if the case reproduces its golden, else what differs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-O", "-m", "jigroup.cli", *argv(case)],
                         capture_output=True, env=env, cwd=ROOT)
    want = json.loads((GOLDEN / "status.json").read_text())[case]
    if run.returncode != want:
        return f"exit status {run.returncode}, want {want}: {run.stderr.decode()[-300:]}"
    if run.stdout != (GOLDEN / f"{case}.out").read_bytes():
        return "stdout differs from the golden"
    return None


def main():
    failed = 0
    for case in sorted(CASES):
        problem = check(case)
        print(f"{case}: {problem or 'ok'}")
        failed += problem is not None
    if failed:
        sys.exit(f"{failed} of {len(CASES)} golden cases differ")


if __name__ == "__main__":
    main()
