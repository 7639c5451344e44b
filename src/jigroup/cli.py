"""Command-line surface: analyze, shadow, hilbert, chartab, verify-paper.

Machine reports are byte-deterministic JSON (sorted keys, no timing); text
reports carry wall-clock timing.  Exit status is 0 exactly when no claim
FAILed and no error occurred; an error exits 2, as one JSON object
{"error": {"kind", "line", "message"}} in machine mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import fixtures
from .basal import maxcor_equivalence_check
from .chartab import character_table, min_faithful_degree
from .hilbert import REAL_PLACE, hilbert_symbol
from .padic import DEFAULT_PRECISION
from .perm import LATTICE_GATE, OrderGateExceeded
from .profile_io import ProfileError, parse_profile_kind
from .profiles import (
    maximal_scan,
    quaternionic_type,
    respthm_check,
    va_just_infinite,
    validate_va_profile,
)
from .verdicts import JI, NOT_JI, CertificateError, Verdict, describe
from .wreath import wreath_verdicts


class UsageError(ValueError):
    """A command-line argument that cannot be used.

    parser is the argparse parser that refused the argument list, or None
    when a command refuses an argument the grammar took.
    """

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


# error class, machine-report kind, text prefix
_ERRORS = (
    (UsageError, "usage", ""),
    (ProfileError, "profile", ""),
    (CertificateError, "certificate", "certificate: "),
    (OrderGateExceeded, "order_gate", "order gate: "),
    (OSError, "io", ""),
)


def _write_json(obj, out):
    out.write(json.dumps(obj, sort_keys=True, indent=1))
    out.write("\n")


def _print_report(report, mode, t0, out):
    if mode == "machine":
        report = dict(report)
        report["timing_ms"] = None  # deterministic machine output
        _write_json(describe(report), out)
    else:
        _print_text(report, out)
        out.write(f"elapsed: {time.time() - t0:.2f}s\n")


def _print_text(node, out, indent=0):
    pad = "  " * indent
    if isinstance(node, Verdict):
        out.write(f"{pad}verdict: {node.status} [{node.provenance}]")
        if node.shadow:
            out.write(" (shadow verdict)")
        out.write("\n")
        return
    if isinstance(node, dict):
        for k in node:
            v = node[k]
            if isinstance(v, (dict, list, tuple, Verdict)):
                out.write(f"{pad}{k}:\n")
                _print_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {describe(v)}\n")
        return
    if isinstance(node, (list, tuple)):
        for v in node:
            _print_text(v, out, indent + 1)
        return
    out.write(f"{pad}{describe(node)}\n")


def _read_profile(path, kind):
    with open(path, "rb") as fh:
        return parse_profile_kind(fh.read(), kind)


def _cmd_analyze(args, out):
    obj = _read_profile(args.file, "va")
    if args.precision:
        obj.precision = args.precision
    report = {"command": "analyze", "profile": repr(obj)}
    report["validation"] = validate_va_profile(obj)
    report["just_infinite"] = va_just_infinite(obj, args.seed)
    rows = maximal_scan(obj, args.seed, gate=args.order_gate)
    report["maximal_scan"] = [{k: r[k] for k in ("label", "index", "verdict")}
                              for r in rows]
    quaternionic = quaternionic_type(obj, args.seed)
    report["quaternionic_type"] = {"is_quaternionic": quaternionic[0],
                                   "evidence": quaternionic[1]}
    if obj.p is not None:
        report["hereditary_check"] = respthm_check(obj, rows, quaternionic)
    return report, 0


def _cmd_shadow(args, out):
    obj = _read_profile(args.file, "wreath")
    v = wreath_verdicts(obj)
    report = {
        "command": "shadow",
        "order": obj.model.group.order,
        "verdicts": {
            "G": v["G"], "H": v["H"], "M": v["M"],
        },
        "M_unique_over_H": v["M_unique_over_H"],
        "H_index": v["H_index"],
    }
    eq = []
    for H in obj.model.normal_subgroups_structural():
        r = maxcor_equivalence_check(obj.model, H)
        eq.append(
            {
                "subgroup": H.label,
                "lhs": r["lhs"],
                "rhs_all_ji": r["rhs_all_ji"],
                "agree": r["agree"],
            }
        )
    report["normal_equivalence"] = eq
    status = 0 if all(row["agree"] for row in eq) else 1
    return report, status


def _hilbert_entry(name, text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"argument {name}: not a rational number: {text!r}") from None
    if value == 0:
        raise UsageError(f"argument {name}: must be nonzero")
    return value


def _cmd_hilbert(args, out):
    a, b = _hilbert_entry("a", args.a), _hilbert_entry("b", args.b)
    place = args.place
    if place in ("real", "oo", "inf"):
        place = REAL_PLACE
    elif place.isdecimal():
        place = int(place)
    try:
        value = hilbert_symbol(a, b, place)
    except ValueError:  # a, b are nonzero: the place is neither a prime nor real
        raise UsageError(
            f"argument place: not a prime or 'real': {args.place!r}") from None
    return {"command": "hilbert", "a": args.a, "b": args.b,
            "place": str(args.place), "symbol": value}, 0


def _cmd_chartab(args, out):
    obj = _read_profile(args.file, "permgroup")
    table = character_table(obj, gate=args.order_gate)
    report = {
        "command": "chartab",
        "order": obj.order,
        "classes": table.n_classes,
        "degrees": sorted(table.degrees),
        "min_faithful_degree": min_faithful_degree(obj, table=table),
        "orthogonality": "verified exactly",
    }
    return report, 0


# -- verify-paper -----------------------------------------------------------------


def _claims_example1(example2, seed):
    out = []
    for p in (2, 3):
        shadow = fixtures.build_wreath_shadow("A5", p)
        v = wreath_verdicts(shadow)
        out.append((f"example1 p={p}: shadow group is ji", v["G"].status == JI))
        out.append(
            (f"example1 p={p}: H = base x| W is not ji with a basal witness",
             v["H"].status == NOT_JI)
        )
        out.append((f"example1 p={p}: unique maximal M over H", v["M_unique_over_H"]))
        out.append((f"example1 p={p}: M is ji", v["M"].status == JI))
        out.append((f"example1 p={p}: H has index p^2", v["H_index"] == p * p))
    return out


def _claims_example2(example2, seed):
    from .rep import irreducible_over_Q
    from .smallgrp import all_subgroups

    out = []
    profile, rep8, pieces = example2()
    out.append(("example2: 8-dim integral rep is faithful", rep8.faithful))
    out.append(
        ("example2: 8-dim rep is irreducible over Q",
         irreducible_over_Q(rep8, seed).status == "irreducible")
    )
    out.append(
        ("example2: splits 2-adically into two 4-dim constituents",
         sorted(s.dimension for s in pieces) == [4, 4])
    )
    out.append(
        ("example2: constituents are faithful and 2-integral with unit dets",
         all(s.faithful for s in pieces))
    )
    out.append(
        ("example2: constituent profile is ji",
         va_just_infinite(profile, seed).status == JI)
    )
    rows = maximal_scan(profile, seed)
    out.append(
        ("example2: all three maximal rows are ji",
         len(rows) == 3 and all(r["verdict"].status == JI for r in rows))
    )
    from .profiles import subgroup_ji

    ok = True
    for handle in all_subgroups(profile.Q):
        index = profile.Q.order // handle.order
        expected = JI if index <= 2 else NOT_JI
        if subgroup_ji(profile, handle, seed).status != expected:
            ok = False
    out.append(("example2: subgroup rows are ji exactly at index <= 2", ok))
    qt, _ = quaternionic_type(profile, seed)
    out.append(("example2: constituent profile is of quaternionic type", qt))
    return out


def _claims_example3(example2, seed):
    bundle = fixtures.paper_examples(3)
    out = [
        ("example3: extraspecial group has order 128",
         bundle["group"].order == 128),
        ("example3: character degrees are 64 ones and a single 8",
         bundle["character_degrees"] == [1] * 64 + [8]),
        ("example3: smallest faithful degree is 8",
         bundle["min_faithful_degree"] == 8),
        ("example3: double-cover degree 8 carried as cited reference data",
         bundle["cited"]["double_cover_alt8_min_faithful_degree"] == 8),
    ]
    return out


def _claims_leethm(example2, seed):
    from .profiles import lgm_oracle

    out = []
    expected_primitive = {"C2", "Q16-constituent"}
    for name, profile in fixtures.leethm_corpus(example2()[0]):
        report = lgm_oracle(profile, seed)
        want = "primitive" if name in expected_primitive else "imprimitive"
        out.append(
            (f"leethm: {name} is {want} over Q_2",
             report["primitivity"] == want)
        )
        out.append(
            (f"leethm: {name} consistent with the classification",
             report["flag"] == "CONSISTENT")
        )
    return out


# Each target takes a callable that builds the Example-2 bundle (profile, 8-dim
# rep, constituents) on first use and returns the same bundle after, so
# `verify-paper all` runs its 2-adic split once.
VERIFY_TARGETS = {
    "1": _claims_example1,
    "2": _claims_example2,
    "3": _claims_example3,
    "leethm": _claims_leethm,
}


def _cmd_verify_paper(args, out):
    targets = ["1", "2", "3", "leethm"] if args.target == "all" else [args.target]
    precision = args.precision or DEFAULT_PRECISION
    example2 = functools.cache(lambda: fixtures.quaternionic_profile(precision))
    all_ok = True
    claims = []
    for t in targets:
        for label, ok in VERIFY_TARGETS[t](example2, args.seed):
            claims.append({"claim": label, "passed": bool(ok)})
            if args.report == "text":
                out.write(f"{'PASS' if ok else 'FAIL'}  {label}\n")
            all_ok = all_ok and ok
    report = {"command": "verify-paper", "targets": targets, "claims": claims,
              "all_passed": all_ok}
    return report, 0 if all_ok else 1


def _build_parser():
    parser = _Parser(
        prog="jigroup",
        description="just-infinite decision procedures for lattice profiles "
        "and wreath shadow models",
    )
    parser.add_argument("--precision", type=int, default=0,
                        help="p-adic working precision (digits; 0 for the default)")
    parser.add_argument("--order-gate", type=int, default=LATTICE_GATE,
                        help="order gate for exhaustive subgroup work")
    parser.add_argument("--report", choices=("text", "machine"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed (affects search order, never verdicts)")
    subs = parser.add_subparsers(dest="command", required=True)
    p_an = subs.add_parser("analyze", help="decide a va profile file")
    p_an.add_argument("file")
    p_sh = subs.add_parser("shadow", help="verdicts for a wreath shadow file")
    p_sh.add_argument("file")
    p_hi = subs.add_parser("hilbert", help="Hilbert symbol (a, b) at a place")
    p_hi.add_argument("a")
    p_hi.add_argument("b")
    p_hi.add_argument("place", help="a prime, or 'real'")
    p_ch = subs.add_parser("chartab", help="character table of a permgroup file")
    p_ch.add_argument("file")
    p_vp = subs.add_parser("verify-paper", help="run the fixture claim suite")
    p_vp.add_argument("target", nargs="?", default="all",
                      choices=("1", "2", "3", "leethm", "all"))
    return parser


def _protect_negative_args(argv):
    """Let the hilbert subcommand take negative numbers positionally."""
    if "hilbert" in argv:
        i = argv.index("hilbert")
        if "--" not in argv[i:]:
            return argv[: i + 1] + ["--"] + argv[i + 1 :]
    return argv


def _asks_machine_report(argv):
    """Whether argv asks for machine reports, read apart from the rest of it."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--report")
    try:
        known, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        return False
    return known.report == "machine"


def _report_error(exc, mode, out):
    kind, prefix = next((k, p) for cls, k, p in _ERRORS if isinstance(exc, cls))
    if mode == "machine":
        _write_json({"error": {
            "kind": kind,
            "line": getattr(exc, "line_no", None),
            "message": getattr(exc, "message", str(exc)),
        }}, out)
    else:
        out.write(f"error: {prefix}{exc}\n")
    return 2, {"error": f"{prefix}{exc}"}


def run_command(argv, out=None):
    """Dispatch a CLI invocation; returns (exit status, report dict)."""
    out = out or sys.stdout
    parser = _build_parser()
    argv = _protect_negative_args(list(argv))
    try:
        args = parser.parse_args(argv)
        if args.precision < 0:
            parser.error(f"argument --precision: must be at least 0, got {args.precision}")
        if args.order_gate < 1:
            parser.error(f"argument --order-gate: must be at least 1, got {args.order_gate}")
    except UsageError as exc:
        if not _asks_machine_report(argv):
            argparse.ArgumentParser.error(exc.parser, str(exc))  # usage on stderr, exit 2
        return _report_error(exc, "machine", out)
    t0 = time.time()
    handlers = {
        "analyze": _cmd_analyze,
        "shadow": _cmd_shadow,
        "hilbert": _cmd_hilbert,
        "chartab": _cmd_chartab,
        "verify-paper": _cmd_verify_paper,
    }
    try:
        report, status = handlers[args.command](args, out)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        return _report_error(exc, args.report, out)
    _print_report(report, args.report, t0, out)
    return status, report


def main():
    try:
        status, _ = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: an io error.  Point stdout at devnull so
        # the flush at exit cannot fail again (Python docs, signal module,
        # "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    raise SystemExit(status)


if __name__ == "__main__":
    main()
