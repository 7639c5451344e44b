import pytest

from jigroup import catalog, fixtures
from jigroup.perm import SubgroupHandle
from jigroup.profiles import (
    VaProfile,
    lgm_oracle,
    maximal_scan,
    quaternionic_type,
    respthm_check,
    subgroup_ji,
    va_just_infinite,
    validate_va_profile,
)
from jigroup.rep import rep_from_data
from jigroup.smallgrp import maximal_subgroups
from jigroup.verdicts import HJI, HYPOTHESIS_FAILED, JI, NOT_JI

import corpora
from oracles import full_lattice_scan


@pytest.fixture(scope="module")
def q16_profile():
    profile, _, _ = fixtures.quaternionic_profile()
    return profile


def test_validate_c3_over_Z():
    profile = corpora.c3_rank2_profile_over_Z()
    assert validate_va_profile(profile)["valid"]


def test_validate_rejects_nonunit_determinant():
    # a finite-order matrix always has determinant +-1, so a determinant-2
    # generator can only come in through a malformed profile; build the
    # MatRep by hand to exercise the validator
    from fractions import Fraction

    from jigroup.ratmat import mat
    from jigroup.rep import MatRep

    G = catalog.cyclic(2)
    bad = mat([[2, 0], [0, 1]])
    rep = MatRep(G, [bad], {G.identity(): mat([[1, 0], [0, 1]]),
                            G.generators[0]: bad}, frozenset([G.identity()]))
    profile = VaProfile("Z", 2, rep)
    report = validate_va_profile(profile)
    assert not report["valid"]
    assert any(f["condition"] == "unit_determinant" for f in report["failures"])


def test_validate_rejects_nonintegral_entries():
    from fractions import Fraction

    from jigroup.ratmat import mat
    from jigroup.rep import MatRep

    G = catalog.cyclic(2)
    bad = mat([[Fraction(1, 3), 0], [0, -1]])
    rep = MatRep(G, [bad], {G.identity(): mat([[1, 0], [0, 1]]),
                            G.generators[0]: bad}, frozenset([G.identity()]))
    profile = VaProfile("Z", 2, rep)
    report = validate_va_profile(profile)
    assert not report["valid"]
    assert any(f["condition"] == "integrality" for f in report["failures"])


def test_validate_padic_integrality(q16_profile):
    report = validate_va_profile(q16_profile)
    assert report["valid"], report


def test_va_just_infinite_c3_z3():
    profile = corpora.c3_rank2_profile()
    assert va_just_infinite(profile).status == JI


def test_va_just_infinite_diag_reducible():
    rep = rep_from_data(catalog.cyclic(2), [[[1, 0], [0, -1]]])
    profile = VaProfile("Z", 2, rep)
    v = va_just_infinite(profile)
    assert v.status == NOT_JI
    assert "subspace" in v.witness


def test_va_just_infinite_quaternionic(q16_profile):
    assert va_just_infinite(q16_profile).status == JI


def test_subgroup_ji_q16_maximals(q16_profile):
    for M in maximal_subgroups(q16_profile.Q):
        assert subgroup_ji(q16_profile, M).status == JI


def test_subgroup_ji_index4_not_ji(q16_profile):
    from jigroup.smallgrp import all_subgroups

    for handle in all_subgroups(q16_profile.Q):
        index = q16_profile.Q.order // handle.order
        expected = JI if index <= 2 else NOT_JI
        assert subgroup_ji(q16_profile, handle).status == expected, (
            handle.order,
            index,
        )


def test_subgroup_ji_trivial_rank1():
    profile = corpora.pro2_dihedral_profile()
    triv = SubgroupHandle.trivial(profile.Q)
    assert subgroup_ji(profile, triv).status == JI


def test_maximal_scan_q16(q16_profile):
    rows = maximal_scan(q16_profile)
    assert len(rows) == 3
    assert all(r["verdict"].status == JI for r in rows)


def test_maximal_scan_c3_profile():
    profile = corpora.c3_rank2_profile()
    rows = maximal_scan(profile)
    assert len(rows) == 1
    assert rows[0]["order"] == 1  # the lattice row
    assert rows[0]["verdict"].status == NOT_JI


def test_maximal_scan_q8_imprimitivity_reveal():
    profile = fixtures.z2_profile_q8()
    rows = maximal_scan(profile)
    assert any(r["verdict"].status == NOT_JI for r in rows)


def test_quaternionic_type(q16_profile):
    ok, evidence = quaternionic_type(q16_profile)
    assert ok, evidence


def test_quaternionic_type_rejects_c3():
    ok, evidence = quaternionic_type(corpora.c3_rank2_profile())
    assert not ok
    assert not evidence["rank_is_4"]


def test_quaternionic_type_rejects_presplit_8dim():
    _, rep8, _ = fixtures.quaternionic_profile()
    profile8 = VaProfile("Z", 8, rep8)
    ok, evidence = quaternionic_type(profile8)
    assert not ok
    assert not evidence["ring_is_Z2"] and not evidence["rank_is_4"]


def test_lgm_oracle_c3_at_3():
    report = lgm_oracle(corpora.c3_rank2_profile())
    assert report["flag"] == "CONSISTENT"
    assert report["primitivity"] == "primitive"
    assert report["classified_case"] == "C_p in dimension p-1"


def test_lgm_oracle_q16(q16_profile):
    report = lgm_oracle(q16_profile)
    assert report["flag"] == "CONSISTENT"
    assert report["primitivity"] == "primitive"
    assert report["classified_case"] == "Q16 in dimension 4"


def test_lgm_oracle_q8_imprimitive():
    report = lgm_oracle(fixtures.z2_profile_q8())
    assert report["flag"] == "CONSISTENT"
    assert report["primitivity"] == "imprimitive"


def test_respthm_pro2_dihedral():
    profile = corpora.pro2_dihedral_profile()
    v = respthm_check(profile, maximal_scan(profile), quaternionic_type(profile))
    assert v.status == HJI


def test_respthm_quaternionic_fails_iii(q16_profile):
    v = respthm_check(q16_profile, maximal_scan(q16_profile),
                      quaternionic_type(q16_profile))
    assert v.status == HYPOTHESIS_FAILED
    assert v.witness["failed_conditions"] == ["iii"]


def test_respthm_c3_fails_ii():
    profile = corpora.c3_rank2_profile()
    v = respthm_check(profile, maximal_scan(profile), quaternionic_type(profile))
    assert v.status == HYPOTHESIS_FAILED
    assert "ii" in v.witness["failed_conditions"]


def test_respthm_never_hji_with_bad_row(q16_profile):
    # consistency property: any hji verdict has all-ji maximal rows
    for profile in (corpora.pro2_dihedral_profile(), q16_profile,
                    corpora.c3_rank2_profile()):
        v = respthm_check(profile, maximal_scan(profile), quaternionic_type(profile))
        if v.status == HJI:
            rows = maximal_scan(profile)
            assert all(r["verdict"].status == JI for r in rows)


def test_full_lattice_scan_matches_subgroup_ji(q16_profile):
    rows = full_lattice_scan(q16_profile)
    for r in rows:
        assert (r["verdict"].status == JI) == (r["index"] <= 2)
