"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS line (pytest -s shows them; the CLI's verify-paper
covers the fixture-facing subset).  Tolerances are exact equalities
throughout: no floating point exists anywhere in the package.
"""

import time

import pytest

from jigroup import fixtures
from jigroup.basal import (
    ShadowSubgroup,
    maxcor_equivalence_check,
    permji_witness,
    shadow_ji_verdict,
)
from jigroup.hilbert import REAL_PLACE, hilbert_symbol
from jigroup.profiles import (
    lgm_oracle,
    maximal_scan,
    quaternionic_type,
    respthm_check,
    subgroup_ji,
    va_just_infinite,
)
from jigroup.rep import irreducible_over_Q
from jigroup.smallgrp import (
    all_subgroups,
    frattini,
    maximal_subgroups_over,
    normal_subgroups,
)
from jigroup.verdicts import HJI, HYPOTHESIS_FAILED, JI, NOT_JI
from jigroup.wreath import build_wreath_shadow, wreath_verdicts

import corpora
from oracles import solubility_oracle


def _report(n, label, seconds, bound=None):
    budget = f" < {bound}s" if bound else ""
    print(f"ACCEPTANCE {n}: PASS  {label}  ({seconds:.2f}s{budget})")


@pytest.fixture(scope="module")
def example2():
    t0 = time.monotonic()
    profile, rep8, pieces = fixtures.quaternionic_profile(64)
    return {"profile": profile, "rep8": rep8, "pieces": pieces,
            "build_time": time.monotonic() - t0}


@pytest.fixture(scope="module")
def shadow_corpus():
    return corpora.shadow_corpus()


def test_criterion_1_example2_reproduction(example2):
    t0 = time.monotonic()
    rep8 = example2["rep8"]
    pieces = example2["pieces"]
    profile = example2["profile"]
    assert rep8.faithful
    assert irreducible_over_Q(rep8).status == "irreducible"
    assert sorted(s.dimension for s in pieces) == [4, 4]
    assert all(s.faithful for s in pieces)
    assert va_just_infinite(profile).status == JI
    rows = maximal_scan(profile)
    assert len(rows) == 3 and all(r["verdict"].status == JI for r in rows)
    for handle in all_subgroups(profile.Q):
        index = profile.Q.order // handle.order
        expected = JI if index <= 2 else NOT_JI
        assert subgroup_ji(profile, handle).status == expected
    ok, _ = quaternionic_type(profile)
    assert ok
    elapsed = time.monotonic() - t0 + example2["build_time"]
    assert elapsed < 5.0, f"criterion 1 exceeded 5s: {elapsed:.2f}s"
    _report(1, "Q16 lattice: 8-dim rep, 2-adic split, ji boundary at index 2",
            elapsed, 5)


def test_criterion_2_classification_spot_check(example2):
    t0 = time.monotonic()
    expected_primitive = {"C2", "Q16-constituent"}
    corpus = [
        ("C2", fixtures.z2_profile_c2()),
        ("C4", fixtures.z2_profile_c4()),
        ("C8", fixtures.z2_profile_c8()),
        ("D8", fixtures.z2_profile_d8()),
        ("Q8", fixtures.z2_profile_q8()),
        ("SD16", fixtures.z2_profile_sd16()),
        ("Q16-constituent", example2["profile"]),
    ]
    for name, profile in corpus:
        report = lgm_oracle(profile)
        assert report["flag"] == "CONSISTENT", name
        want = "primitive" if name in expected_primitive else "imprimitive"
        assert report["primitivity"] == want, name
        if name in ("Q8", "D8"):
            blocks = report["blocks"]["blocks"]
            assert len(blocks) == 2
            assert all(len(b) == profile.rank // 2 for b in blocks)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, "2-adic primitivity exactly at C2 (dim 1) and Q16 (dim 4)",
            elapsed, 30)


def test_criterion_3_example1_shadows():
    t0 = time.monotonic()
    for p in (2, 3):
        shadow = build_wreath_shadow("A5", p)
        v = wreath_verdicts(shadow)
        assert v["G"].status == JI, p
        assert v["H"].status == NOT_JI, p
        witness = permji_witness(shadow.model, shadow.H)
        assert witness is not None
        # the witness is the coordinate-factor system (one block per point)
        assert witness.n_conjugates == shadow.model.top.degree
        assert v["M"].status == JI and v["M_unique_over_H"], p
        assert v["H_index"] == p * p
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, "affine wreath shadows at p=2,3: G ji, H not-ji, unique M ji",
            elapsed, 60)


def test_criterion_4_theorem1_property_suite(shadow_corpus):
    t0 = time.monotonic()
    n_checked = 0
    for name, model in shadow_corpus:
        for H in model.normal_subgroups_structural():
            assert maxcor_equivalence_check(model, H)["agree"], (name, H.label)
            n_checked += 1
    assert n_checked >= 70

    # The non-normal failure phenomenon.  The criterion asks for one failing
    # H per model; that is provably impossible for most corpus tops (see the
    # decisions ledger), so the suite pins the exact truth: the phenomenon
    # occurs precisely for the tops that admit it, and always for the
    # worked-example models.
    def disagreements(model):
        out = 0
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
            rhs = all(
                shadow_ji_verdict(model, ShadowSubgroup(model, m)).status == JI
                for m in maximal_subgroups_over(model.top, w)
            )
            if (lhs.status == JI) != rhs:
                out += 1
        return out

    with_phenomenon = {
        name for name, model in shadow_corpus if disagreements(model) > 0
    }
    expected = {
        f"{f}-wr-{t}" for f in ("A5", "PSL27") for t in ("D8", "A4", "S4")
    }
    assert with_phenomenon == expected
    for p in (2, 3):
        shadow = build_wreath_shadow("A5", p)
        lhs = shadow_ji_verdict(shadow.model, shadow.H)
        rhs = all(
            shadow_ji_verdict(shadow.model, ShadowSubgroup(shadow.model, m)).status
            == JI
            for m in maximal_subgroups_over(shadow.model.top, shadow.H.top_handle)
        )
        assert lhs.status == NOT_JI and rhs
    elapsed = time.monotonic() - t0
    _report(4, f"equivalence agreement on {n_checked} normal subgroups; "
               "failure phenomenon exactly where it exists", elapsed)


def test_criterion_5_frattini_suite():
    t0 = time.monotonic()
    n_checked = 0
    for name, G in corpora.primitive_corpus():
        for H in normal_subgroups(G):
            if H.order == 1:
                continue
            assert frattini(H.group).order == 1, (name, H.order)
            n_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert n_checked >= 25
    _report(5, f"Frattini trivial for {n_checked} normal subgroups of "
               "primitive groups of degree <= 8", elapsed, 60)


def test_criterion_6_example3_partial():
    t0 = time.monotonic()
    bundle = fixtures.paper_examples(3)
    assert bundle["group"].order == 128
    assert bundle["character_degrees"] == [1] * 64 + [8]
    assert bundle["min_faithful_degree"] == 8
    cited = bundle["cited"]
    assert cited["double_cover_alt8_min_faithful_degree"] == 8
    assert "cited" in cited["status"]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, "extraspecial 2^7: degrees 64x1 + 8, smallest faithful degree 8",
            elapsed, 30)


def test_criterion_7_hilbert_oracle_equivalence():
    t0 = time.monotonic()
    n = 0
    for p in (2, 3, 5):
        base = sorted({1, -1, 2, -2, 5, -5, p, -p})
        for a in base:
            for b in base:
                formula = hilbert_symbol(a, b, p)
                assert (formula == 1) == solubility_oracle(a, b, p), (a, b, p)
                n += 1
    for a in (-3, -1, 1, 7):
        for b in (-11, -2, 2, 5):
            assert hilbert_symbol(a, b, REAL_PLACE) == (
                -1 if (a < 0 and b < 0) else 1
            )
    elapsed = time.monotonic() - t0
    _report(7, f"closed-formula symbols match the solubility oracle on {n} pairs",
            elapsed)


def test_criterion_8_hereditary_checker(example2):
    t0 = time.monotonic()
    p = corpora.pro2_dihedral_profile()
    v = respthm_check(p, maximal_scan(p), quaternionic_type(p))
    assert v.status == HJI
    p = example2["profile"]
    v = respthm_check(p, maximal_scan(p), quaternionic_type(p))
    assert v.status == HYPOTHESIS_FAILED
    assert v.witness["failed_conditions"] == ["iii"]
    p = corpora.c3_rank2_profile()
    v = respthm_check(p, maximal_scan(p), quaternionic_type(p))
    assert v.status == HYPOTHESIS_FAILED
    assert "ii" in v.witness["failed_conditions"]
    elapsed = time.monotonic() - t0
    _report(8, "hereditary checker: hji / failed(iii) / failed(ii) fixtures",
            elapsed)


def test_criterion_9_numerical_robustness(example2):
    t0 = time.monotonic()
    # precision doubling never changes a verdict
    runs = {}
    for prec in (64, 128):
        profile, _, pieces = fixtures.quaternionic_profile(prec)
        statuses = [va_just_infinite(profile).status]
        statuses.append(str(sorted(s.dimension for s in pieces)))
        for row in maximal_scan(profile):
            statuses.append(row["verdict"].status)
        for name, prof in (("C4", fixtures.z2_profile_c4()),
                           ("Q8", fixtures.z2_profile_q8()),
                           ("SD16", fixtures.z2_profile_sd16())):
            prof.precision = prec
            statuses.append(va_just_infinite(prof).status)
            statuses.append(lgm_oracle(prof)["primitivity"])
        runs[prec] = statuses
    assert runs[64] == runs[128]
    # sampling seeds never change a verdict
    seed_runs = {}
    for seed in (0, 1):
        profile = example2["profile"]
        statuses = [va_just_infinite(profile, seed).status]
        statuses += [r["verdict"].status for r in maximal_scan(profile, seed)]
        statuses.append(va_just_infinite(corpora.c3_rank2_profile(), seed).status)
        seed_runs[seed] = statuses
    assert seed_runs[0] == seed_runs[1]
    elapsed = time.monotonic() - t0
    _report(9, "verdicts stable under precision doubling and seed changes",
            elapsed)
