"""The Theorem-1 property suite over the shadow corpus.

Agreement must hold for every normal nontrivial subgroup of every corpus
model.  The non-normal failure phenomenon exists precisely for the models
whose top group admits a non-normal subgroup all of whose maximal
overgroups act transitively with block-fixing cores; in this corpus those
are the tops D8, A4 and S4 (and the affine tops of the worked example).
"""

import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jigroup import wreath
from jigroup.basal import (
    ShadowModel,
    ShadowSubgroup,
    maxcor_equivalence_check,
    shadow_ji_verdict,
)
from jigroup.perm import PermGroup, conj, identity_perm, mul, perm_from_cycles
from jigroup.smallgrp import all_subgroups, maximal_subgroups_over
from jigroup.verdicts import JI, CertificateError
from jigroup.wreath import SIMPLE_FIBERS, build_wreath_shadow, wreath_verdicts

import corpora
from oracles import random_element

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

@pytest.fixture(scope="module")
def corpus():
    return corpora.shadow_corpus()


def _nonnormal_disagreements(model):
    out = []
    seen = set()
    for w in all_subgroups(model.top):
        if w.is_normal_in_parent():
            continue
        key = frozenset(w.group.elements())
        if key in seen:
            continue
        seen.add(key)
        sub = ShadowSubgroup(model, w)
        lhs = shadow_ji_verdict(model, sub)
        over = maximal_subgroups_over(model.top, w)
        rhs = all(
            shadow_ji_verdict(model, ShadowSubgroup(model, m)).status == JI
            for m in over
        )
        if (lhs.status == JI) != rhs:
            out.append(w)
    return out


def test_normal_subgroup_equivalence_whole_corpus(corpus):
    checked = 0
    for name, model in corpus:
        for H in model.normal_subgroups_structural():
            report = maxcor_equivalence_check(model, H)
            assert report["agree"], (name, H.label)
            checked += 1
    assert checked >= 70


def test_nonnormal_disagreement_models(corpus):
    got = {}
    for name, model in corpus:
        got[name] = len(_nonnormal_disagreements(model))
    with_phenomenon = {n for n, k in got.items() if k > 0}
    expected = {
        f"{f}-wr-{t}" for f in ("A5", "PSL27") for t in ("D8", "A4", "S4")
    }
    assert with_phenomenon == expected, got


def test_example1_models_exhibit_the_phenomenon():
    for p in (2, 3):
        shadow = build_wreath_shadow("A5", p)
        model = shadow.model
        lhs = shadow_ji_verdict(model, shadow.H)
        over = maximal_subgroups_over(model.top, shadow.H.top_handle)
        rhs = all(
            shadow_ji_verdict(model, ShadowSubgroup(model, m)).status == JI
            for m in over
        )
        assert lhs.status != JI and rhs, f"p={p}"


def test_wreath_verdicts_p3():
    shadow = build_wreath_shadow("A5", 3)
    v = wreath_verdicts(shadow)
    assert v["G"].status == JI
    assert v["H"].status == "not_ji"
    assert v["M"].status == JI
    assert v["M_unique_over_H"]
    assert v["H_index"] == 9


def _exhaustive_normal_subgroups(G, gate=10000):
    """Class-closure oracle: every normal subgroup of a small group."""
    els = G.elements(gate)
    ident = identity_perm(G.degree)
    # conjugacy classes
    class_of = {}
    classes = []
    for e in els:
        if e in class_of:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in G.generators:
                y = conj(x, g)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        ci = len(classes)
        classes.append(sorted(orbit))
        for x in orbit:
            class_of[x] = ci
    # normal closures of single classes, then close under join
    closures = set()
    for cls in classes:
        ncl = G.normal_closure([cls[0]])
        closures.add(frozenset(ncl.elements(gate)))
    normals = set(closures)
    work = list(closures)
    while work:
        a = work.pop()
        for b in closures:
            gens = [g for g in (a | b) if g != ident]
            j = frozenset(
                G.normal_closure(gens).elements(gate)
            )
            if j not in normals:
                normals.add(j)
                work.append(j)
    normals.add(frozenset([ident]))
    return normals


def test_structural_normals_complete_for_smallest_model():
    # A5 wr C2 has order 7200: cross-check the structural enumeration
    # against the exhaustive class-closure oracle
    model = corpora.shadow_corpus(fibers=("A5",))[0][1]
    assert model.group.order == 7200
    oracle = _exhaustive_normal_subgroups(model.group)
    structural = model.normal_subgroups_structural()
    structural_sets = {
        frozenset(h.group.elements(10000)) for h in structural
    }
    nontrivial_oracle = {s for s in oracle if len(s) > 1}
    assert structural_sets == nontrivial_oracle
    assert len(structural_sets) == 2  # base and the whole group


# -- the known-order chain of the shadow group --------------------------------


def _outside_members(model):
    """Permutations of the shadow points outside F wr P: an odd permutation
    inside one A5 fiber, two swaps of points of two fibers (the first points
    and the last), and the lift of a swap of two fibers (odd, so outside the
    3-group or 2-group P)."""
    k = len(model.fibers[0])
    n = len(model.fibers) * k
    swap = list(range(model.top.degree))
    swap[0], swap[1] = 1, 0
    return [
        perm_from_cycles(n, (0, 1)),
        perm_from_cycles(n, (0, k)),
        perm_from_cycles(n, (k - 1, 2 * k - 1)),
        model.lift_top(tuple(swap)),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_known_order_chain_agrees_with_deterministic_chain(p):
    model = build_wreath_shadow("A5", p).model
    known = model.group
    exact = PermGroup(known.generators)
    assert known.order == exact.order == 60 ** (p**p) * p ** (p + 1)
    rng = random.Random(p)
    members = [random_element(G, rng) for G in (known, exact) for _ in range(10)]
    for g in members:
        assert g in known and g in exact
    for bad in _outside_members(model):
        assert bad not in known and bad not in exact
        for g in members[:4]:
            assert mul(g, bad) not in known and mul(g, bad) not in exact


def test_wreath_upper_bound_refuses_generators_outside_f_wr_p(monkeypatch):
    model = build_wreath_shadow("A5", 2).model
    fiber = wreath.SIMPLE_FIBERS["A5"]()
    gens = list(model.group.generators)
    wreath._check_in_wreath(gens, fiber, model.top)
    for bad in _outside_members(model):
        with pytest.raises(CertificateError):
            wreath._check_in_wreath(gens + [bad], fiber, model.top)
    # through the builder: a top lift that also swaps two points of fiber 0
    lift = type(model).lift_top
    odd = _outside_members(model)[0]
    monkeypatch.setattr(type(model), "lift_top", lambda self, a: mul(lift(self, a), odd))
    with pytest.raises(CertificateError, match="outside F"):
        build_wreath_shadow("A5", 2)


def test_wreath_order_certificates_hold_under_O():
    script = (
        "from jigroup.basal import ShadowModel\n"
        "from jigroup.perm import PermGroup, mul, perm_from_cycles\n"
        "from jigroup.verdicts import CertificateError\n"
        "from jigroup.wreath import build_wreath_shadow\n"
        "from test_wreath_corpus import BAD_LIFTS\n"
        "assert False, 'asserts are on'\n"
        "G = build_wreath_shadow('A5', 3).model.group\n"
        "for target in (2 * G.order, G.order // 2):\n"
        "    try:\n"
        "        PermGroup(G.generators, _known_order=target)\n"
        "    except CertificateError as exc:\n"
        "        print('rejected:', exc)\n"
        "lift = ShadowModel.lift_top\n"
        "odd = perm_from_cycles(135, (0, 1))\n"
        "for patch in [lambda self, a: mul(lift(self, a), odd), *BAD_LIFTS.values()]:\n"
        "    ShadowModel.lift_top = patch\n"
        "    try:\n"
        "        build_wreath_shadow('A5', 3)\n"
        "    except CertificateError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": f"{SRC}{os.pathsep}{TESTS}"},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and all(line.startswith("rejected: ") for line in lines)
    assert "outside F" in lines[2]
    for line, match in zip(lines[3:], BAD_LIFTS):
        assert re.search(match, line), (line, match)


# Top lifts that stay inside F wr P, so that only the lower bound can refuse
# them, on A5 wr (V x| C_3): each keyed by the refusal it must meet.
_LIFT = ShadowModel.lift_top
BAD_LIFTS = {
    # a 3-cycle of A5 on the fiber that fiber 0 goes to: fiber 0 is carried
    # there by a conjugate of F's copy, not by the copy itself
    "not conjugated onto F on fiber": lambda self, a: mul(
        _LIFT(self, a), perm_from_cycles(135, tuple(5 * a[0] + t for t in range(3)))),
    # the lift of a^2, which generates the same top group
    "projects outside the top generators": lambda self, a: _LIFT(self, mul(a, a)),
    "carry fiber 0 to 1 of 27 fibers": lambda self, a: identity_perm(135),
}


@pytest.mark.parametrize("match", BAD_LIFTS)
def test_wreath_lower_bound_refuses_lifts_that_miss_the_base_or_the_top(match, monkeypatch):
    monkeypatch.setattr(ShadowModel, "lift_top", BAD_LIFTS[match])
    with pytest.raises(CertificateError, match=match):
        build_wreath_shadow("A5", 3)


WREATH_PROFILES = {
    "A5-p2": SRC / "jigroup" / "data" / "wreath_a5_p2.profile",
    **{f"{tag}-p{p}": GOLDEN / f"wreath_{tag.lower()}_p{p}.profile"
       for tag, p in (("A5", 3), ("PSL27", 2), ("PSL27", 3))},
}


def test_shadow_builds_no_chain_of_the_shadow_group(monkeypatch):
    # the order is certified from the structure; the chains built are those
    # of the fiber, the top and its subgroups, never one on 4 or 27 fibers
    from jigroup import perm
    from jigroup.cli import run_command

    degrees = []
    init = perm._Chain.__init__
    monkeypatch.setattr(perm._Chain, "__init__",
                        lambda self, degree: degrees.append(degree) or init(self, degree))
    for name, path in WREATH_PROFILES.items():
        status, report = run_command(["shadow", str(path)], io.StringIO())
        fiber, p = SIMPLE_FIBERS[name[:-3]](), int(name[-1])
        assert status == 0 and report["order"] == fiber.order ** (p**p) * p ** (p + 1)
    assert degrees and not {20, 28, 135, 189} & set(degrees)
