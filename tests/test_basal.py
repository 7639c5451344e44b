import pytest

from jigroup import catalog
from jigroup.basal import (
    basal_from_intersections,
    is_basal,
    maxcor_equivalence_check,
    permji_witness,
    shadow_ji_verdict,
)
from jigroup.perm import PermGroup, SubgroupHandle, perm_from_cycles
from jigroup.verdicts import JI, NOT_JI
from jigroup.wreath import build_wreath_shadow, wreath_shadow


def test_is_basal_base_factor_of_c2wrc2():
    # dihedral of order 8 on 4 points = C2 wr C2; one base factor = <(0 1)>
    G = PermGroup([perm_from_cycles(4, (0, 1)), perm_from_cycles(4, (0, 2), (1, 3))])
    assert G.order == 8
    B = SubgroupHandle(G, [perm_from_cycles(4, (0, 1))])
    check = is_basal(G, B)
    assert check.basal
    assert check.certificate.n_conjugates == 2


def test_is_basal_normal_subgroup():
    G = catalog.symmetric(4)
    v4 = SubgroupHandle(
        G,
        [perm_from_cycles(4, (0, 1), (2, 3)), perm_from_cycles(4, (0, 2), (1, 3))],
    )
    check = is_basal(G, v4)
    assert check.basal
    assert check.certificate.n_conjugates == 1


def test_is_basal_refusal_sym3():
    G = catalog.symmetric(3)
    B = SubgroupHandle(G, [perm_from_cycles(3, (0, 1))])
    check = is_basal(G, B)
    assert not check.basal
    assert "commute" in check.reason or "order" in check.reason


def test_is_basal_rejects_trivial():
    G = catalog.symmetric(3)
    with pytest.raises(ValueError):
        is_basal(G, SubgroupHandle.trivial(G))


def test_basal_from_intersections_coordinate_factor():
    # A5 wr C2 on 10 points; K = coordinate A5 is already basal
    model = wreath_shadow(catalog.alternating(5), catalog.cyclic(2))
    G = model.group
    K = SubgroupHandle(
        G, [g for g in model.base_generators if all(g[i] == i for i in range(5, 10))]
    )
    assert K.order == 60
    cert, info = basal_from_intersections(G, K)
    assert cert.n_conjugates == 2
    assert info["closure_center_trivial"] is True
    assert len(info["J"]) == 1


def test_basal_from_intersections_already_basal():
    G = catalog.symmetric(4)
    v4 = SubgroupHandle(
        G,
        [perm_from_cycles(4, (0, 1), (2, 3)), perm_from_cycles(4, (0, 2), (1, 3))],
    )
    cert, info = basal_from_intersections(G, v4)
    assert cert.n_conjugates == 1


def test_basal_from_intersections_c3xc3():
    # (C3 x C3) x| C2 swapping the factors, faithfully on 9 points
    pts = [(i, j) for i in range(3) for j in range(3)]
    idx = {v: k for k, v in enumerate(pts)}
    t1 = tuple(idx[((i + 1) % 3, j)] for i, j in pts)
    t2 = tuple(idx[(i, (j + 1) % 3)] for i, j in pts)
    sw = tuple(idx[(j, i)] for i, j in pts)
    G = PermGroup([t1, t2, sw])
    assert G.order == 18
    K = SubgroupHandle(G, [t1])
    cert, info = basal_from_intersections(G, K)
    assert cert.n_conjugates == 2
    assert cert.subgroup.order == 3


def test_basal_from_intersections_requires_subnormality():
    G = catalog.symmetric(3)
    K = SubgroupHandle(G, [perm_from_cycles(3, (0, 1))])
    # K^G = S3 and K is not normal in S3
    with pytest.raises(ValueError):
        basal_from_intersections(G, K)


def test_wreath_shadow_family_verified_against_is_basal():
    model = wreath_shadow(catalog.alternating(5), catalog.cyclic(2))
    for cert in model.basal_family:
        check = is_basal(model.group, cert.subgroup, gate=4000)
        assert check.basal
        assert check.certificate.n_conjugates == cert.n_conjugates


def test_example1_shadow_p2():
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    assert model.group.order == 60**4 * 8
    assert shadow.H.order == 60**4 * 2
    # H = base x| W is not ji, witnessed by a coordinate factor
    w = permji_witness(model, shadow.H)
    assert w is not None
    assert w.n_conjugates == 4  # the singleton system: coordinate factors
    # the unique maximal over H is ji; the shadow itself is ji
    assert shadow_ji_verdict(model, shadow.M).status == JI
    assert shadow_ji_verdict(model, shadow.full).status == JI
    assert shadow_ji_verdict(model, shadow.H).status == NOT_JI


def test_example1_H_has_two_orbits_on_coordinates():
    shadow = build_wreath_shadow("A5", 2)
    w_handle = shadow.H.top_handle
    orbits = PermGroup(w_handle.generators, 4).orbits()
    assert len(orbits) == 2


def test_maxcor_normal_subgroups_agree_p2():
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    for H in model.normal_subgroups_structural():
        report = maxcor_equivalence_check(model, H)
        assert report["agree"], H.label


def test_maxcor_example1_disagreement_for_nonnormal():
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    lhs = shadow_ji_verdict(model, shadow.H)
    assert lhs.status == NOT_JI
    from jigroup.smallgrp import maximal_subgroups_over
    from jigroup.basal import ShadowSubgroup

    maxima = maximal_subgroups_over(model.top, shadow.H.top_handle)
    assert len(maxima) == 1
    sub = ShadowSubgroup(model, maxima[0])
    assert shadow_ji_verdict(model, sub).status == JI


def test_maxcor_rejects_nonnormal():
    shadow = build_wreath_shadow("A5", 2)
    with pytest.raises(ValueError):
        maxcor_equivalence_check(shadow.model, shadow.H)


def test_maxcor_full_group_trivially_agrees():
    shadow = build_wreath_shadow("A5", 2)
    report = maxcor_equivalence_check(shadow.model, shadow.full)
    assert report["agree"] and report["maximal_count"] == 0


def test_shadow_base_not_ji_but_detected_via_coarse_blocks():
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    base = model.normal_subgroups_structural()[0]
    assert base.top_handle.order == 1
    report = maxcor_equivalence_check(model, base)
    assert report["lhs"].status == NOT_JI
    assert not report["rhs_all_ji"]
    assert report["agree"]


def test_permji_witness_none_for_maximal_and_full():
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    assert permji_witness(model, shadow.M) is None
    assert permji_witness(model, shadow.full) is None


def test_permji_witness_requires_base():
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    # a single coordinate factor does not contain the base
    K = SubgroupHandle(
        model.group,
        [g for g in model.base_generators if all(g[i] == i for i in range(5, 20))],
    )
    with pytest.raises(ValueError):
        permji_witness(model, K)


def test_basal_certificate_order_identity_recheck():
    # recomputing the closure from scratch reproduces the product identity
    model = wreath_shadow(catalog.alternating(5), catalog.cyclic(2))
    for cert in model.basal_family:
        closure = model.group.normal_closure(cert.subgroup.generators)
        prod = 1
        for h in cert.conjugates:
            prod *= h.order
        assert closure.order == prod


def _label(verdict):
    return verdict.status, getattr(verdict.witness, "label", None)


def _maxcor_summary(model, H):
    try:
        report = maxcor_equivalence_check(model, H)
    except ValueError as exc:
        return "ValueError", str(exc)
    return (_label(report["lhs"]), report["rhs_all_ji"], report["maximal_count"],
            [_label(v) for v in report.get("maximal_verdicts", [])], report["agree"])


def test_plain_handles_project_to_the_top_like_shadow_subgroups():
    # a plain handle reaches the top through project_to_top, a ShadowSubgroup
    # through its top handle; both give the same verdicts
    shadow = build_wreath_shadow("A5", 2)
    model = shadow.model
    subgroups = [shadow.H, shadow.M, shadow.full, *model.normal_subgroups_structural()]
    for sub in subgroups:
        plain = SubgroupHandle(model.group, sub.generators, check=False)
        top = model.top_image_handle(plain)
        assert type(top) is SubgroupHandle and top.same_subgroup(sub.top_handle)
        assert _label(shadow_ji_verdict(model, plain)) == _label(shadow_ji_verdict(model, sub))
        assert _maxcor_summary(model, plain) == _maxcor_summary(model, sub)
    assert _maxcor_summary(model, shadow.H)[0] == "ValueError"
    with pytest.raises(ValueError, match="does not respect fibers"):
        model.project_to_top(perm_from_cycles(model.group.degree, (0, 5)))
