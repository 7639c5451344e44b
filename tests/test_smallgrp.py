import io
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from jigroup import catalog
from jigroup.perm import (
    OrderGateExceeded,
    PermGroup,
    SubgroupHandle,
    center,
    core,
    derived_subgroup,
    identity_perm,
    mul,
    perm_from_cycles,
    perm_order,
)
from jigroup.smallgrp import (
    all_subgroups,
    frattini,
    maximal_subgroups,
    maximal_subgroups_over,
    normal_subgroups,
    recognize_special,
    small_table,
)
from jigroup.verdicts import CertificateError

import corpora
from oracles import (
    dixon_split_full_space,
    lift_by_exponent_dft,
    min_faithful_degree_by_frozensets,
    mod_l_value,
    table_center,
    table_class_matrices,
    table_conjugacy_classes,
    table_derived_subgroup,
    table_exponent,
    table_power_classes,
    table_recognize_special,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def bruteforce_subgroups(G):
    """Independent lattice oracle: test all element subsets (order <= 20)."""
    els = G.elements()
    n = len(els)
    assert n <= 20
    idx = {e: i for i, e in enumerate(els)}
    table = [[idx[mul(a, b)] for b in els] for a in els]
    ident = idx[identity_perm(G.degree)]
    subs = set()
    indices = [i for i in range(n) if i != ident]
    for size in range(0, n):
        if (n) % (size + 1):
            continue
        for combo in itertools.combinations(indices, size):
            cand = set(combo) | {ident}
            if all(table[a][b] in cand for a in cand for b in cand):
                subs.add(frozenset(cand))
    return subs


@pytest.mark.parametrize(
    "G",
    [catalog.quaternion(8), catalog.quaternion(16), catalog.cyclic(12),
     catalog.dihedral(4), catalog.symmetric(3)],
)
def test_lattice_against_subset_oracle(G):
    tbl = small_table(G)
    got = {s for s, _ in tbl.all_subgroups()}
    assert got == bruteforce_subgroups(G)


def test_maximal_subgroups_q8():
    ms = maximal_subgroups(catalog.quaternion(8))
    assert len(ms) == 3
    assert all(m.order == 4 for m in ms)


def test_maximal_subgroups_cyclic_prime():
    ms = maximal_subgroups(catalog.cyclic(5))
    assert len(ms) == 1
    assert ms[0].order == 1


def test_maximal_subgroups_q16():
    ms = maximal_subgroups(catalog.quaternion(16))
    assert len(ms) == 3
    assert sorted(m.order for m in ms) == [8, 8, 8]
    kinds = sorted(
        "cyclic" in recognize_special(m.group) for m in ms
    )
    assert kinds == [False, False, True]  # one C8, two Q8


def test_maximal_subgroups_gate():
    with pytest.raises(OrderGateExceeded):
        maximal_subgroups(catalog.symmetric(8))


def test_frattini_q8():
    f = frattini(catalog.quaternion(8))
    assert f.order == 2


def test_frattini_elementary_abelian():
    f = frattini(catalog.elementary_abelian(2, 3))
    assert f.order == 1


def test_frattini_alt4_inside_sym4():
    _, primitive = catalog.symmetric(4).minimal_block_systems()
    assert primitive
    assert frattini(catalog.alternating(4)).order == 1


def test_normal_subgroups_sym4():
    ns = normal_subgroups(catalog.symmetric(4))
    assert sorted(h.order for h in ns) == [1, 4, 12, 24]
    assert all(h.is_normal_in_parent() for h in ns)


def test_maximal_subgroups_over():
    G = catalog.symmetric(4)
    v4_prime = SubgroupHandle(
        G,
        [
            (1, 0, 2, 3),  # (0 1)
            (0, 1, 3, 2),  # (2 3)
        ],
    )
    over = maximal_subgroups_over(G, v4_prime)
    assert len(over) == 1 and over[0].order == 8


def test_all_block_systems_c4():
    systems = catalog.cyclic(4).block_systems()
    assert ((0,), (1,), (2,), (3,)) in systems
    assert ((0, 2), (1, 3)) in systems
    assert len(systems) == 2


def test_all_block_systems_s4_primitive():
    systems = catalog.symmetric(4).block_systems()
    assert systems == [((0,), (1,), (2,), (3,))]


def test_all_block_systems_d8():
    systems = catalog.dihedral(4).block_systems()
    assert ((0, 2), (1, 3)) in systems
    assert len(systems) == 2


def test_all_block_systems_regular_v4():
    # regular Klein four-group: three block systems of size 2 plus singletons
    systems = catalog.klein_four().block_systems()
    assert len(systems) == 4


def test_recognize_special():
    assert recognize_special(catalog.quaternion(16)) == {
        ("p_group", 2),
        ("generalized_quaternion", 16),
    }
    assert recognize_special(catalog.cyclic(6)) == {"cyclic"}
    assert recognize_special(catalog.cyclic(8)) == {"cyclic", ("p_group", 2)}
    assert recognize_special(catalog.klein_four()) == {
        ("p_group", 2),
        "elementary_abelian",
    }
    assert recognize_special(catalog.symmetric(3)) == {"none"}
    tags = recognize_special(catalog.extraspecial_128())
    assert ("p_group", 2) in tags and "extraspecial" in tags
    assert ("generalized_quaternion", 128) not in tags


def test_extraspecial_structure():
    E = catalog.extraspecial_128()
    tbl = small_table(E)
    assert len(center(E)) == len(table_center(tbl)) == 2
    assert table_derived_subgroup(tbl) == table_center(tbl)
    assert table_exponent(tbl) == 4
    assert len(frattini(E).group.elements()) == 2
    _check_against_all_element_oracles(E)


def _extraspecial_invariants(E):
    from jigroup.chartab import character_table, min_faithful_degree

    tbl = small_table(E)
    table = character_table(E)
    return {
        "order": E.order,
        "center": len(table_center(tbl)),
        "derived_is_center": table_derived_subgroup(tbl) == table_center(tbl),
        "exponent": table_exponent(tbl),
        "order_at_most_2": sum(perm_order(e) <= 2 for e in tbl.elements),
        "classes": table.n_classes,
        "degrees": sorted(table.degrees),
        "min_faithful_degree": min_faithful_degree(E, table=table),
        "tags": recognize_special(E),
    }


def test_extraspecial_on_signed_vectors_matches_the_coset_build():
    from jigroup.profile_io import emit_permgroup
    from oracles import extraspecial_128_on_cosets

    E = catalog.extraspecial_128()
    assert E.degree == 16
    old = extraspecial_128_on_cosets()
    shipped = Path(__file__).resolve().parent.parent / "src/jigroup/data/extraspecial128_group.profile"
    assert emit_permgroup(old) == shipped.read_text()
    invariants = _extraspecial_invariants(E)
    assert invariants == _extraspecial_invariants(old)
    assert invariants["order_at_most_2"] == 72  # the + type; the - type has 40
    assert invariants["classes"] == 65
    assert invariants["degrees"] == [1] * 64 + [8]
    assert invariants["min_faithful_degree"] == 8
    assert "extraspecial" in invariants["tags"]


def _subgroups_by_closure(tbl):
    """The former lattice loop: every join <s, c> closed from the identity."""
    cyc = tbl.cyclic_subgroups()
    subs = {frozenset([tbl.ident]): ()}
    for s, g in cyc.items():
        subs.setdefault(s, (g,))
    worklist = list(subs.items())
    while worklist:
        s, gens = worklist.pop()
        for c, cgen in cyc.items():
            if c <= s:
                continue
            t = tbl.closure(gens + (cgen,))
            if t not in subs:
                subs[t] = gens + (cgen,)
                worklist.append((t, gens + (cgen,)))
    return sorted(subs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


@pytest.mark.parametrize("name", ["Q16", "D30", "S4", "affine_p3"])
def test_lattice_joins_match_closure_from_the_identity(name):
    from jigroup.wreath import build_wreath_shadow

    G = {
        "Q16": lambda: catalog.quaternion(16),
        "D30": lambda: catalog.dihedral(15),
        "S4": lambda: catalog.symmetric(4),
        "affine_p3": lambda: build_wreath_shadow("A5", 3).model.top,
    }[name]()
    tbl = small_table(G)
    assert tbl.all_subgroups() == _subgroups_by_closure(tbl)


# The former loops, which act by every element of the group; the table
# acts by the generators only.


def _conj_set(tbl, s, g):
    return frozenset(tbl.conj(i, g) for i in s)


def classes_of_subgroups_oracle(tbl, subgroups):
    remaining = set(subgroups)
    classes = []
    while remaining:
        s = min(remaining, key=lambda x: (len(x), sorted(x)))
        orbit = {s}
        frontier = [s]
        while frontier:
            cur = frontier.pop()
            for g in range(tbl.n):
                img = _conj_set(tbl, cur, g)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        classes.append(sorted(orbit, key=lambda x: sorted(x)))
        remaining -= orbit
    classes.sort(key=lambda c: (len(c[0]), len(c), sorted(c[0])))
    return classes


def is_normal_oracle(tbl, s):
    return all(_conj_set(tbl, s, g) == s for g in range(tbl.n))


def center_oracle(tbl):
    return frozenset(
        i for i in range(tbl.n)
        if all(tbl.table[i][j] == tbl.table[j][i] for j in range(tbl.n))
    )


def core_oracle(tbl, s):
    return frozenset.intersection(*(_conj_set(tbl, s, g) for g in range(tbl.n)))


def _check_against_all_element_oracles(group):
    tbl = small_table(group)
    maxim = tbl.maximal_subgroups()
    assert tbl.conjugacy_classes_of_subgroups(maxim) == classes_of_subgroups_oracle(tbl, maxim)
    assert {tbl.index[z] for z in center(group)} == center_oracle(tbl)
    for s, _ in tbl.all_subgroups():
        assert tbl.is_subgroup_normal(s) == is_normal_oracle(tbl, s)
        assert core(group, [tbl.elements[i] for i in s]) == {
            tbl.elements[i] for i in core_oracle(tbl, s)}


ORACLE_GROUPS = {
    **dict(corpora.primitive_corpus()),
    **dict(corpora.curated_top_groups()),
    "Q16": catalog.quaternion(16),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_generator_actions_match_all_element_oracles(name):
    # the extraspecial group of order 128 is checked in test_extraspecial_structure
    _check_against_all_element_oracles(ORACLE_GROUPS[name])


CLASS_GROUPS = {
    **ORACLE_GROUPS,
    "D30": catalog.dihedral(30),
    "S6": catalog.symmetric(6),
    "extraspecial128": catalog.extraspecial_128(),
}


@pytest.mark.parametrize("name", sorted(CLASS_GROUPS))
def test_class_data_and_tags_match_the_table_oracles(name, monkeypatch):
    # character_table and recognize_special read permutations; the table of
    # the subgroup lattice gives the same classes, class-matrix columns (all
    # r^2 of them, not only those the table built), power classes, exponent,
    # derived subgroup and tags
    from jigroup import chartab

    group = CLASS_GROUPS[name]
    seen = {}
    for fn in ("_class_columns", "_power_classes"):
        monkeypatch.setattr(chartab, fn, lambda *args, fn=fn, real=getattr(chartab, fn):
                            seen.setdefault(fn, real(*args)))
    ct = chartab.character_table(group)
    tbl = small_table(group)
    classes = table_conjugacy_classes(tbl)
    exponent = table_exponent(tbl)
    assert ct.classes == classes and ct.ctx.e == exponent
    column, r = seen["_class_columns"], len(classes)
    assert [[dict(column(i, k)) for k in range(r)] for i in range(r)] == \
        table_class_matrices(tbl, classes)
    assert seen["_power_classes"] == table_power_classes(tbl, classes, exponent)
    derived = frozenset(tbl.index[x] for x in derived_subgroup(group).elements())
    assert derived == table_derived_subgroup(tbl)
    assert recognize_special(group) == table_recognize_special(group)


SPLIT_GROUPS = {
    **CLASS_GROUPS,
    "C2xC4xC3": PermGroup([perm_from_cycles(9, (0, 1)), perm_from_cycles(9, (2, 3, 4, 5)),
                           perm_from_cycles(9, (6, 7, 8))]),
    "trivial": catalog.cyclic(1),
}


@pytest.mark.parametrize("name", sorted(SPLIT_GROUPS))
def test_known_linear_characters_give_the_full_space_split(name):
    # the table starts from the linear characters of G/G' and splits the rest;
    # its values mod l, row by row, are those that Dixon's split of the whole
    # class space finds
    from jigroup import chartab

    group = SPLIT_GROUPS[name]
    ct = chartab.character_table(group)
    l = chartab._smallest_modulus(group.order, ct.ctx.e)
    t_root = chartab._element_of_order(l, ct.ctx.e)
    got = [(d, [mod_l_value(v, t_root, l) for v in row])
           for d, row in zip(ct.degrees, ct.values)]
    assert got == dixon_split_full_space(group)


@pytest.mark.parametrize("name", sorted(CLASS_GROUPS))
def test_order_length_lift_and_bitmask_search_match_the_former_ones(name, monkeypatch):
    # the lift hands from_root_multiplicities the lists that an inverse DFT of
    # length exponent gives on every class, and the bitmask search finds the
    # degree that the search over frozensets of classes finds
    from jigroup import chartab
    from jigroup.cyclotomic import CycloContext

    group = CLASS_GROUPS[name]
    passed, powers, seen = [], [], {}
    monkeypatch.setattr(CycloContext, "from_root_multiplicities",
                        lambda ctx, mults, real=CycloContext.from_root_multiplicities:
                        passed.append(list(mults)) or real(ctx, mults))
    monkeypatch.setattr(chartab, "_multiplicities", lambda p, *args, real=chartab._multiplicities:
                        powers.append(p) or real(p, *args))
    monkeypatch.setattr(chartab, "_power_classes", lambda *args, real=chartab._power_classes:
                        seen.setdefault("power_class", real(*args)))
    ct = chartab.character_table(group)
    r, exponent = ct.n_classes, ct.ctx.e
    l = chartab._smallest_modulus(group.order, exponent)
    t_root = chartab._element_of_order(l, exponent)
    former = []
    for i, d in enumerate(ct.degrees):
        # chi_i(z_j) mod l as the lift read it: entry 1 of the powers of z_j,
        # or entry 0 for the identity
        vmod = [p[1 % len(p)] for p in powers[i * r:(i + 1) * r]]
        former += lift_by_exponent_dft(d, vmod, seen["power_class"], exponent, l, t_root)
    # the lift calls come first; the orthogonality check makes the others
    assert passed[:len(former)] == former
    assert chartab.min_faithful_degree(group, table=ct) == min_faithful_degree_by_frozensets(ct)


def test_character_table_tags_and_witness_build_no_table(monkeypatch):
    from jigroup import basal, chartab, smallgrp
    from jigroup.perm import PermGroup
    from jigroup.wreath import wreath_shadow

    built = []
    init = smallgrp.SmallGroupTable.__init__
    monkeypatch.setattr(smallgrp.SmallGroupTable, "__init__",
                        lambda self, group, *args: built.append(group) or init(self, group, *args))
    E = catalog.extraspecial_128()
    chartab.character_table(E)
    assert "extraspecial" in recognize_special(E)
    assert ("generalized_quaternion", 16) in recognize_special(catalog.quaternion(16))
    model = wreath_shadow(catalog.alternating(5), PermGroup(catalog.dihedral(4).generators))
    reflection = SubgroupHandle(model.top, [(0, 3, 2, 1)])  # not normal: its core is read
    assert not reflection.is_normal_in_parent()
    assert basal.permji_witness(model, basal.ShadowSubgroup(model, reflection)) is not None
    assert built == []


def test_table_is_kept_on_the_group():
    Q = catalog.quaternion(16)
    tbl = small_table(Q, 4096)
    assert small_table(Q, 10000) is tbl
    with pytest.raises(OrderGateExceeded):
        small_table(Q, 8)


def test_block_system_recheck_raises_under_O():
    script = (
        "from jigroup import catalog\n"
        "from jigroup.perm import PermGroup\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "PermGroup.invariant_partition = lambda self, partition: False\n"
        "try:\n"
        "    catalog.dihedral(4).block_systems()\n"
        "except CertificateError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: block system is not invariant")


def test_conjugacy_classes_extraspecial():
    from jigroup.chartab import _classes

    E = catalog.extraspecial_128()
    classes = _classes(E, E.elements())
    assert len(classes) == 65
    assert sorted(len(c) for c in classes) == [1, 1] + [2] * 63


@pytest.mark.parametrize("group", [catalog.symmetric(4), catalog.quaternion(16),
                                   catalog.dihedral(6), catalog.elementary_abelian(2, 4)])
def test_handles_keep_their_elements_from_a_small_generating_set(group):
    tbl = small_table(group)
    for s, _ in tbl.all_subgroups():
        h = tbl.handle(s)
        assert h.order == len(s)
        assert h.element_set() == {tbl.elements[i] for i in s}
        # each generator lies outside the subgroup of the ones before it, so
        # it at least doubles that subgroup
        assert 2 ** len(h.generators) <= len(s)
        sub = tbl.closure(())
        for g in h.generators:
            assert tbl.index[g] not in sub
            sub = tbl.closure(sub | {tbl.index[g]})
    # an elementary abelian 2^k needs exactly k generators, and the whole
    # group is no longer generated by all 15 of its nonidentity elements
    if group.order == 16 and all(perm_order(e) <= 2 for e in tbl.elements):
        assert len(tbl.handle(frozenset(range(16))).generators) == 4



def test_handle_of_a_non_subgroup_raises():
    tbl = small_table(catalog.symmetric(3))
    t, c = (next(i for i, e in enumerate(tbl.elements) if perm_order(e) == k) for k in (2, 3))
    with pytest.raises(CertificateError, match="not a subgroup"):
        tbl.handle(frozenset([tbl.ident, t, c]))


@pytest.mark.parametrize("p,lifts", [(2, 30), (3, 59)])
def test_wreath_shadow_lifts_only_handle_generators(p, lifts, monkeypatch, tmp_path):
    # with every nonidentity element as a generator there were 51 and 619 lifts
    from jigroup import basal
    from jigroup.cli import run_command

    calls = []
    lift = basal.ShadowModel.lift_top
    monkeypatch.setattr(basal.ShadowModel, "lift_top",
                        lambda self, a: calls.append(a) or lift(self, a))
    f = tmp_path / "w.profile"
    f.write_text(f"jigroup-profile v1\nkind wreath\nfiber A5\nprime {p}\n")
    status, report = run_command(["shadow", str(f)], io.StringIO())
    assert status == 0 and report["H_index"] == p * p
    assert len(calls) == lifts
