"""Verdict objects: every definite status carries a checkable witness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

JI = "ji"
NOT_JI = "not_ji"
HJI = "hji"
NOT_HJI = "not_hji"
HYPOTHESIS_FAILED = "hypothesis_failed"
UNKNOWN = "unknown"

REDUCIBLE = "reducible"
IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Any = None
    provenance: str = ""
    shadow: bool = False  # verdicts on finite shadow models are labeled

    def definite(self):
        return self.status != UNKNOWN

    def to_report(self):
        out = {
            "status": self.status,
            "provenance": self.provenance,
            "witness": describe(self.witness),
        }
        if self.shadow:
            out["shadow_verdict"] = True
        return out


def describe(value):
    """JSON-ready form of a report value.

    Dict keys become strings, sorted as strings; Fractions become "n/d" (or
    "n"); objects with a `to_report` are described through it; anything
    else unknown becomes its repr.
    """
    if isinstance(value, dict):
        return {str(k): describe(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if hasattr(value, "to_report"):
        return describe(value.to_report())
    return repr(value)
