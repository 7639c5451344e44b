"""Deciders for virtually abelian lattice profiles.

A profile encodes G = O^d x| Q with O = Z or Z_p, Q a finite permutation
group, and a faithful action of Q on the lattice by O-matrices with unit
determinants.  The just-infinite question for such G reduces to the
irreducibility of the action over the fraction field, and the hereditary
question runs through the maximal subgroups of Q; both are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import ratmat as rm
from .hilbert import _valuation_and_unit
from .padic import DEFAULT_PRECISION, PadicMatrix, irreducible_over_Qp
from .perm import LATTICE_GATE, SubgroupHandle
from .rep import MatRep, irreducible_over_Q, matrix_block_system
from .smallgrp import maximal_subgroups, recognize_special
from .verdicts import (
    HJI,
    HYPOTHESIS_FAILED,
    IRREDUCIBLE,
    JI,
    NOT_JI,
    REDUCIBLE,
    UNKNOWN,
    Verdict,
)


@dataclass
class VaProfile:
    ring: Any  # "Z" or ("Zp", p)
    rank: int
    action: MatRep  # Q acting in dimension `rank` over the ring
    precision: int = DEFAULT_PRECISION

    @property
    def Q(self):
        return self.action.group

    @property
    def p(self):
        return self.ring[1] if isinstance(self.ring, tuple) else None

    def __repr__(self):
        ring = "Z" if self.ring == "Z" else f"Z_{self.ring[1]}"
        return f"VaProfile(O={ring}, d={self.rank}, |Q|={self.Q.order})"


def validate_va_profile(profile):
    """Faithfulness, integrality and unit-determinant checks, pinpointed."""
    failures = []
    rep = profile.action
    if rep.dimension != profile.rank:
        failures.append(
            {"condition": "rank", "detail": f"action dimension {rep.dimension}"}
        )
    if not rep.faithful:
        failures.append(
            {"condition": "faithful", "detail": "action kernel is nontrivial"}
        )
    p = profile.p
    for gi, mat_g in enumerate(rep.gen_images):
        if profile.ring == "Z":
            bad = [
                (i, j)
                for i, row in enumerate(mat_g)
                for j, x in enumerate(row)
                if Fraction(x).denominator != 1
            ]
            if bad:
                failures.append(
                    {"condition": "integrality", "generator": gi, "entries": bad}
                )
            det = rm.mat_det(mat_g)
            if det not in (1, -1):
                failures.append(
                    {"condition": "unit_determinant", "generator": gi,
                     "detail": str(det)}
                )
        else:
            vals = (mat_g.valuations() if isinstance(mat_g, PadicMatrix)
                    else [[_entry_valuation(x, p) for x in row] for row in mat_g])
            bad = [(i, j) for i, row in enumerate(vals) for j, v in enumerate(row) if v < 0]
            if bad:
                failures.append(
                    {"condition": "integrality", "generator": gi, "entries": bad}
                )
            detv = _det_valuation(mat_g, p)
            if detv != 0:
                failures.append(
                    {"condition": "unit_determinant", "generator": gi,
                     "detail": f"v_p(det) = {detv}"}
                )
    return {"valid": not failures, "failures": failures}


def _entry_valuation(x, p):
    q = Fraction(x)
    return _valuation_and_unit(q, p)[0] if q else 0


def _det_valuation(mat_g, p):
    if isinstance(mat_g, PadicMatrix):
        return mat_g.det_valuation()
    det = rm.mat_det(mat_g)
    return _entry_valuation(det, p)


def _irreducibility(profile, rep, seed=0):
    if profile.ring == "Z":
        return irreducible_over_Q(rep, seed)
    return irreducible_over_Qp(rep, profile.p, profile.precision, seed)


def va_just_infinite(profile, seed=0):
    """ji iff the action is irreducible over the fraction field."""
    check = validate_va_profile(profile)
    if not check["valid"]:
        return Verdict(
            HYPOTHESIS_FAILED, check, "lattice-profile-validation"
        )
    v = _irreducibility(profile, profile.action, seed)
    if v.status == IRREDUCIBLE:
        return Verdict(JI, v.witness, "irreducible-lattice-action")
    if v.status == REDUCIBLE:
        return Verdict(NOT_JI, v.witness, "invariant-sublattice")
    return Verdict(UNKNOWN, v.witness, v.provenance)


def subgroup_ji(profile, handle, seed=0):
    """Verdict for the finite-index subgroup O^d x| S, S <= Q.

    Irreducibility of the restricted action decides it; the trivial S gives
    the lattice itself, which is ji exactly in rank one.
    """
    sub = handle.group if isinstance(handle, SubgroupHandle) else handle
    if sub.is_trivial():
        status = JI if profile.rank == 1 else NOT_JI
        return Verdict(
            status,
            {"subgroup_order": 1, "rank": profile.rank},
            "rank-one-lattice" if profile.rank == 1 else "lattice-splits",
        )
    res = profile.action.restrict(
        handle
        if isinstance(handle, SubgroupHandle)
        else SubgroupHandle(profile.Q, handle.generators)
    )
    v = _irreducibility(profile, res, seed)
    if v.status == IRREDUCIBLE:
        return Verdict(JI, v.witness, "irreducible-restricted-action")
    if v.status == REDUCIBLE:
        return Verdict(NOT_JI, v.witness, "invariant-sublattice")
    return Verdict(UNKNOWN, v.witness, v.provenance)


def maximal_scan(profile, seed=0, gate=LATTICE_GATE):
    """One (maximal class of Q, verdict) row per class; plus the lattice row
    when Q is cyclic of prime order (the lattice is then maximal in G)."""
    rows = []
    for M in maximal_subgroups(profile.Q, gate):
        label = f"maximal subgroup of order {M.order}"
        if M.order == 1:
            label = "lattice A itself (trivial point group)"
        rows.append(
            {
                "label": label,
                "order": M.order,
                "index": profile.Q.order // M.order,
                "verdict": subgroup_ji(profile, M, seed),
            }
        )
    return rows


def quaternionic_type(profile, seed=0):
    """The special family: Z_2^4 with Q_16 acting faithfully Q_2-irreducibly."""
    evidence = {
        "ring_is_Z2": profile.ring == ("Zp", 2),
        "rank_is_4": profile.rank == 4,
    }
    tags = recognize_special(profile.Q)
    evidence["point_group_is_Q16"] = ("generalized_quaternion", 16) in tags
    evidence["faithful"] = bool(profile.action.faithful)
    if all(evidence.values()):
        v = _irreducibility(profile, profile.action, seed)
        evidence["irreducible_over_Q2"] = v.status == IRREDUCIBLE
    else:
        evidence["irreducible_over_Q2"] = None
    return all(bool(x) for x in evidence.values()), evidence


def lgm_oracle(profile, seed=0):
    """Primitivity cross-check against the classification of faithful
    primitive p-group actions: C_p in dimension p-1, or Q_16 in dimension 4
    at p = 2.  INCONSISTENT on verified inputs indicates a bug, never new
    mathematics.
    """
    p = profile.p
    if p is None:
        raise ValueError("lgm_oracle expects a Z_p profile")
    tags = recognize_special(profile.Q)
    if ("p_group", p) not in tags:
        raise ValueError("lgm_oracle expects Q a p-group for the profile prime")
    if not profile.action.faithful:
        raise ValueError("lgm_oracle expects a faithful action")
    irr = _irreducibility(profile, profile.action, seed)
    if irr.status != IRREDUCIBLE:
        raise ValueError("lgm_oracle expects an irreducible action")
    block = matrix_block_system(profile.action, seed, p=p, precision=profile.precision)
    report = {
        "primitivity": block.status,
        "blocks": block.witness if block.status == "imprimitive" else None,
    }
    if block.status == "primitive":
        is_cp = (
            "cyclic" in tags
            and profile.Q.order == p
            and profile.rank == p - 1
        )
        is_q16 = (
            p == 2
            and ("generalized_quaternion", 16) in tags
            and profile.rank == 4
        )
        report["classified_case"] = (
            "C_p in dimension p-1" if is_cp else "Q16 in dimension 4" if is_q16 else None
        )
        report["flag"] = "CONSISTENT" if (is_cp or is_q16) else "INCONSISTENT"
    elif block.status == "imprimitive":
        report["flag"] = "CONSISTENT"
        report["classified_case"] = None
    else:
        report["flag"] = "UNDECIDED"
        report["classified_case"] = None
    return report


def respthm_check(profile, rows, quaternionic):
    """Hereditary-just-infinite checker, reading the profile's `maximal_scan`
    rows and its `quaternionic_type` pair (is_quaternionic, evidence).

    (i) the prime-residual condition, taken as: O = Z_p and the point group
    is a p-group; (ii) every maximal-subgroup row is ji (maximal subgroups
    of the semidirect product not containing the lattice share their
    point-group image with G, so the lattice-containing rows decide); (iii)
    the profile is not of quaternionic type.  All pass: hji.  A failure
    names the condition; the converse is not claimed.
    """
    check = validate_va_profile(profile)
    if not check["valid"]:
        return Verdict(HYPOTHESIS_FAILED, check, "hereditary-checker")
    trace = {}
    cond1 = ("p_group", profile.p) in recognize_special(profile.Q)
    trace["i"] = {
        "holds": cond1,
        "detail": "O = Z_p with a p-group acting" if cond1 else
        "point group is not a p-group over Z_p",
    }
    bad = [r for r in rows if r["verdict"].status != JI]
    trace["ii"] = {
        "holds": not bad,
        "rows": [
            {"label": r["label"], "status": r["verdict"].status} for r in rows
        ],
        "note": "maximals not containing the lattice share the point-group "
        "image and inherit the verdict of H itself",
    }
    qt, evidence = quaternionic
    trace["iii"] = {"holds": not qt, "evidence": evidence}
    failed = [name for name in ("i", "ii", "iii") if not trace[name]["holds"]]
    if failed:
        return Verdict(
            HYPOTHESIS_FAILED,
            {"failed_conditions": failed, "trace": trace},
            "hereditary-checker",
        )
    return Verdict(HJI, {"trace": trace}, "hereditary-checker")
