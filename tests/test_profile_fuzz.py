"""Seeded line mutations of the shipped profiles: a verdict or a located error.

Each example takes one of the six profiles in `src/jigroup/data`, mutates
one line (drops or repeats it, replaces, drops or swaps a token, cuts it
short, or inserts a line after it) and runs the result in-process through
`run_command` with machine reports: `analyze` for va profiles, `chartab` for
permgroup profiles and `shadow` for wreath profiles, under the default
order gate `LATTICE_GATE`.  The contract is the CLI's: exit 0 or 1 with one
JSON report, or exit 2 with one JSON error object that is located at a line
of the file (text mode prints `error: line N: ...`) or is an order-gate
refusal.  Any other exception, a traceback, fails the test.
"""

import io
import json
from datetime import timedelta
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from jigroup.cli import run_command
from jigroup.perm import LATTICE_GATE

DATA = Path(__file__).resolve().parent.parent / "src" / "jigroup" / "data"
PROFILES = {p.name: p.read_text() for p in sorted(DATA.glob("*.profile"))}
COMMAND = {"va": "analyze", "permgroup": "chartab", "wreath": "shadow"}

TOKENS = st.one_of(
    st.integers(-3, 130).map(str),
    st.sampled_from(["", "0", "-1", "2", "1/2", "-3/4", "0/1", "1:0", "3:2", "x",
                     "Z", "Z2", "Z3", "Q", "va", "permgroup", "wreath", "A5", "A6",
                     "PSL27", "gen", "mat", "kind", "ring", "rank", "degree",
                     "precision", "modulus", "prime", "fiber", "#", "1e3", "\t"]),
)
OPS = ("drop_line", "repeat_line", "replace_token", "drop_token", "swap_tokens",
       "cut_line", "insert_line")


@st.composite
def mutated_profiles(draw):
    name = draw(st.sampled_from(sorted(PROFILES)))
    lines = PROFILES[name].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split(" ")
    op = draw(st.sampled_from(OPS))
    if op == "drop_line":
        del lines[i]
    elif op == "repeat_line":
        lines.insert(i, lines[i])
    elif op == "insert_line":
        lines.insert(i + 1, " ".join(draw(st.lists(TOKENS, min_size=1, max_size=4))))
    elif op == "cut_line":
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    else:
        k = draw(st.integers(0, len(tokens) - 1))
        if op == "replace_token":
            tokens[k] = draw(TOKENS)
        elif op == "drop_token":
            del tokens[k]
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[k], tokens[j] = tokens[j], tokens[k]
        lines[i] = " ".join(tokens)
    kind = next(l.split()[1] for l in PROFILES[name].splitlines() if l.startswith("kind "))
    return COMMAND[kind], "\n".join(lines) + "\n"


@seed(20261019)
@settings(max_examples=60, deadline=timedelta(seconds=3), database=None)
@given(mutated_profiles())
def test_mutated_profile_ends_in_a_verdict_or_a_located_error(tmp_path_factory, case):
    command, text = case
    path = tmp_path_factory.mktemp("fuzz") / "case.profile"
    path.write_text(text)
    out = io.StringIO()
    status, report = run_command(
        ["--report", "machine", "--order-gate", str(LATTICE_GATE), command, str(path)], out)
    body = json.loads(out.getvalue())
    if status in (0, 1):
        assert "error" not in body
        return
    assert status == 2, status
    error = body["error"]
    if error["kind"] == "order_gate":
        assert report["error"].startswith("order gate: ")
    else:
        assert error["kind"] == "profile", error
        assert report["error"].startswith(f"line {error['line']}: "), report["error"]
        assert 1 <= error["line"] <= text.count("\n") + 1
