import itertools
import random

import pytest

from jigroup import catalog, perm
from jigroup.perm import (
    PermGroup,
    SubgroupHandle,
    OrderGateExceeded,
    conj,
    group_from_generators,
    identity_perm,
    inv,
    mul,
    perm_from_cycles,
    perm_order,
    relative_ops,
)
from jigroup.smallgrp import all_subgroups
from jigroup.verdicts import CertificateError

import corpora
from oracles import (
    all_block_systems,
    closure_order_bruteforce,
    point_stabilizer,
    random_element,
)


def test_group_from_generators_examples():
    # {(0 1 2 3), (0 1)} on 4 points -> order 24, oracle: exhaustive closure
    g1 = perm_from_cycles(4, (0, 1, 2, 3))
    g2 = perm_from_cycles(4, (0, 1))
    G = group_from_generators([g1, g2])
    assert G.order == 24 == closure_order_bruteforce([g1, g2])

    assert group_from_generators([identity_perm(3)]).order == 1

    a = perm_from_cycles(4, (0, 1), (2, 3))
    b = perm_from_cycles(4, (0, 2), (1, 3))
    V = group_from_generators([a, b])
    assert V.order == 4 == closure_order_bruteforce([a, b])
    assert all(mul(x, x) == identity_perm(4) for x in V.elements())


def test_group_from_generators_errors():
    with pytest.raises(ValueError):
        group_from_generators([])
    with pytest.raises(Exception):
        group_from_generators([(1, 0), (0, 1, 2)])


@pytest.mark.parametrize(
    "builder,expected",
    [
        (lambda: catalog.symmetric(5), 120),
        (lambda: catalog.symmetric(6), 720),
        (lambda: catalog.alternating(5), 60),
        (lambda: catalog.alternating(6), 360),
        (lambda: catalog.alternating(7), 2520),
        (lambda: catalog.dihedral(4), 8),
        (lambda: catalog.dihedral(5), 10),
        (lambda: catalog.quaternion(8), 8),
        (lambda: catalog.quaternion(16), 16),
        (lambda: catalog.semidihedral16(), 16),
        (lambda: catalog.cyclic(12), 12),
        (lambda: catalog.klein_four(), 4),
        (lambda: catalog.elementary_abelian(3, 2), 9),
        (lambda: catalog.psl27(7), 168),
        (lambda: catalog.psl27(8), 168),
        (lambda: catalog.extraspecial_128(), 128),
    ],
)
def test_catalog_orders(builder, expected):
    assert builder().order == expected


def test_chain_order_matches_bruteforce_closure():
    cases = [
        catalog.symmetric(5),
        catalog.alternating(5),
        catalog.dihedral(6),
        catalog.quaternion(16),
        catalog.semidihedral16(),
        catalog.psl27(7),
        catalog.elementary_abelian(2, 3),
    ]
    for G in cases:
        assert G.order == closure_order_bruteforce(G.generators)


def test_membership_agrees_with_closure():
    G = catalog.quaternion(16)
    els = set(G.elements())
    rng = random.Random(7)
    n = G.degree
    for _ in range(50):
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        assert (p in G) == (p in els)
    for e in els:
        assert e in G


def test_perm_order_and_inverse():
    p = perm_from_cycles(6, (0, 1, 2), (3, 4))
    assert perm_order(p) == 6
    assert mul(p, inv(p)) == identity_perm(6)


def test_orbits():
    triv = PermGroup([identity_perm(3)], 3)
    assert triv.orbits() == [(0,), (1,), (2,)]
    c4 = catalog.cyclic(4)
    assert c4.orbits() == [(0, 1, 2, 3)]
    g = PermGroup([perm_from_cycles(4, (0, 1))])
    assert g.orbits() == [(0, 1), (2,), (3,)]


def test_orbits_invariant_under_generating_set_change():
    G1 = catalog.symmetric(4)
    G2 = PermGroup(
        [perm_from_cycles(4, (0, 1)), perm_from_cycles(4, (1, 2)), perm_from_cycles(4, (2, 3))]
    )
    assert G1.order == G2.order == 24
    assert G1.orbits() == G2.orbits()


def _all_invariant_partitions(G):
    """Brute-force block-system oracle for tiny degrees."""
    n = G.degree
    pts = list(range(n))
    def partitions(pool):
        if not pool:
            yield []
            return
        first, rest = pool[0], pool[1:]
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                cell = (first,) + combo
                remaining = [x for x in rest if x not in combo]
                for sub in partitions(remaining):
                    yield [cell] + sub
    out = []
    for part in partitions(pts):
        if G.invariant_partition(part):
            out.append(tuple(sorted(tuple(sorted(c)) for c in part)))
    return out


@pytest.mark.parametrize(
    "G",
    [catalog.cyclic(4), catalog.symmetric(4), catalog.dihedral(4), catalog.cyclic(6),
     catalog.alternating(4), catalog.dihedral(6)],
)
def test_minimal_blocks_against_partition_oracle(G):
    systems, primitive = G.minimal_block_systems()
    oracle = _all_invariant_partitions(G)
    nontrivial = [
        p for p in oracle if len(p) not in (1, G.degree)
    ]
    # minimality in the refinement order, judged via the block containing 0
    def block0(p):
        return set(next(c for c in p if 0 in c))
    minimal_oracle = sorted(
        p for p in nontrivial if not any(block0(q) < block0(p) for q in nontrivial)
    )
    assert systems == minimal_oracle
    assert primitive == (not nontrivial)


@pytest.mark.parametrize(
    "G",
    [catalog.cyclic(4), catalog.symmetric(4), catalog.dihedral(4), catalog.cyclic(6),
     catalog.alternating(4), catalog.dihedral(6), catalog.klein_four(), catalog.cyclic(5),
     catalog.symmetric(3), PermGroup([identity_perm(1)], 1)],
)
def test_block_systems_against_partition_oracle(G):
    oracle = [p for p in _all_invariant_partitions(G) if len(p) > 1]
    assert G.block_systems() == sorted(oracle, key=lambda p: (len(p[0]), p))


def _block_system_corpus():
    from jigroup.wreath import build_wreath_shadow

    return {
        "C4": lambda: catalog.cyclic(4),
        "S4": lambda: catalog.symmetric(4),
        "D8": lambda: catalog.dihedral(4),
        "V4": catalog.klein_four,
        "C12": lambda: catalog.cyclic(12),
        "D12": lambda: catalog.dihedral(6),
        "Q16-regular": lambda: catalog.quaternion(16),
        "SD16-regular": catalog.semidihedral16,
        "PSL27@7": lambda: catalog.psl27(7),
        "PSL27@8": lambda: catalog.psl27(8),
        "C2^3-regular": lambda: catalog.elementary_abelian(2, 3),
        "D30": lambda: catalog.dihedral(15),
        "wreath-top-p2": lambda: build_wreath_shadow("A5", 2).model.top,
        "wreath-top-p3": lambda: build_wreath_shadow("A5", 3).model.top,
    }


@pytest.mark.parametrize("name", sorted(_block_system_corpus()))
def test_block_systems_match_the_lattice_oracle(name):
    G = _block_system_corpus()[name]()
    systems = G.block_systems()
    assert systems == all_block_systems(G)
    # the minimal systems are the ones whose block of 0 holds no smaller block
    nontrivial = systems[1:]  # the singletons come first
    assert G.minimal_block_systems() == (
        sorted(s for s in nontrivial
               if not any(set(t[0]) < set(s[0]) for t in nontrivial)),
        not nontrivial)


def test_block_systems_skip_joins_with_a_finer_layer_system():
    # C3^3 regular: 27 systems; a join whose layer block of 0 already lies in
    # the visited block of 0 is the visited system, with no Atkinson run
    G = catalog.elementary_abelian(3, 3)
    atkinson = G._atkinson_blocks
    calls = []

    def counted(points):
        calls.append(points)
        return atkinson(points)

    G._atkinson_blocks = counted
    systems = G.block_systems()
    runs = len(calls)
    del G._atkinson_blocks
    # the walk with one Atkinson run per (visited system, layer system) pair
    layer = G._layer()
    singletons = tuple((i,) for i in range(G.degree))
    visited = list(perm._walk(singletons, layer, lambda s, c: atkinson(s[0] + c[0])))
    assert systems == sorted((s for s in visited if len(s) > 1),
                             key=lambda s: (len(s[0]), s))
    assert systems == all_block_systems(G)
    assert runs < (G.degree - 1) + len(visited) * len(layer)


@pytest.mark.parametrize("name, G", corpora.primitive_corpus())
def test_primitive_corpus_has_only_the_singleton_system(name, G):
    assert G.minimal_block_systems() == ([], True)
    assert G.block_systems() == [tuple((i,) for i in range(G.degree))]


def test_minimal_blocks_spec_examples():
    systems, primitive = catalog.cyclic(4).minimal_block_systems()
    assert not primitive
    assert systems == [((0, 2), (1, 3))]

    _, primitive = catalog.symmetric(4).minimal_block_systems()
    assert primitive

    _, primitive = catalog.dihedral(4).minimal_block_systems()
    assert not primitive


def test_minimal_blocks_rejects_intransitive():
    G = PermGroup([perm_from_cycles(4, (0, 1))])
    with pytest.raises(ValueError):
        G.minimal_block_systems()


def test_point_stabilizer():
    G = catalog.symmetric(5)
    S = point_stabilizer(G, 0)
    assert S.order == 24
    assert all(g[0] == 0 for g in S.generators)
    S3 = point_stabilizer(catalog.psl27(7), 3)
    assert S3.order == 24


def test_relative_ops_sym3():
    G = catalog.symmetric(3)
    H = SubgroupHandle(G, [perm_from_cycles(3, (0, 1))])
    ops = relative_ops(G, H)
    assert ops["normal_closure"].order == 6
    assert ops["core"].order == 1
    assert ops["normalizer"].order == 2
    assert ops["centralizer"].order == 2
    assert ops["center_of_G"].order == 1


def test_relative_ops_normal_subgroup():
    G = catalog.symmetric(4)
    a4 = SubgroupHandle(
        G, [perm_from_cycles(4, (0, 1, 2)), perm_from_cycles(4, (1, 2, 3))]
    )
    ops = relative_ops(G, a4)
    assert ops["normal_closure"].order == 12
    assert ops["core"].order == 12
    assert ops["normalizer"].order == 24


def test_relative_ops_dihedral_reflection():
    G = catalog.dihedral(4)
    # a non-central reflection subgroup
    refl = next(
        g for g in G.elements() if perm_order(g) == 2 and g[0] == 0 and g != identity_perm(4)
    )
    H = SubgroupHandle(G, [refl])
    ops = relative_ops(G, H)
    assert ops["core"].order == 1


TOPS = dict(corpora.curated_top_groups())


@pytest.mark.parametrize("name", sorted(TOPS))
def test_relative_ops_core_is_the_meet_of_all_conjugates(name):
    G = TOPS[name]
    els = G.elements()
    for H in all_subgroups(G):
        h_els = H.element_set()
        oracle = frozenset.intersection(
            *(frozenset(conj(h, g) for h in h_els) for g in els)
        )
        assert perm.core(G, h_els) == oracle
        assert relative_ops(G, H)["core"].element_set() == oracle


def test_relative_ops_requires_containment():
    G = catalog.cyclic(4)
    with pytest.raises(ValueError):
        relative_ops(G, SubgroupHandle(G, [perm_from_cycles(4, (0, 1))], check=False))


def test_normal_closure_scales_without_element_enumeration():
    G = catalog.symmetric(6)
    H = [perm_from_cycles(6, (0, 1, 2))]
    assert G.normal_closure(H).order == 360


def test_element_gate():
    G = catalog.symmetric(8)
    with pytest.raises(OrderGateExceeded):
        G.elements(gate=1000)


def test_random_element_lands_in_group():
    G = catalog.alternating(5)
    rng = random.Random(0)
    for _ in range(20):
        assert random_element(G, rng) in G


def test_subgroup_handle_checks_membership():
    G = catalog.alternating(4)
    with pytest.raises(ValueError):
        SubgroupHandle(G, [perm_from_cycles(4, (0, 1))])


def test_conjugation_convention():
    # p^g moves g(x) the way p moves x
    p = perm_from_cycles(5, (0, 1))
    g = perm_from_cycles(5, (0, 2), (1, 3))
    assert conj(p, g) == perm_from_cycles(5, (2, 3))


# -- the product kernel and the known-order chain ----------------------------


def _mul_by_generator(p, q):
    return tuple(q[i] for i in p)


def _inv_by_loop(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _conj_by_generator(p, g):
    gi = _inv_by_loop(g)
    return tuple(g[p[gi[i]]] for i in range(len(p)))


@pytest.mark.parametrize("degree", [0, 1, 2, 189])
def test_product_kernel_matches_the_generator_forms(degree):
    rng = random.Random(degree)
    perms = []
    for _ in range(6):
        p = list(range(degree))
        rng.shuffle(p)
        perms.append(tuple(p))
    perms.append(identity_perm(degree))
    for p in perms:
        assert inv(p) == _inv_by_loop(p)
        for q in perms:
            assert mul(p, q) == _mul_by_generator(p, q)
            assert type(mul(p, q)) is tuple
            assert conj(p, q) == _conj_by_generator(p, q)
    # a list on the right still gives a tuple
    assert mul(perms[0], list(perms[1])) == _mul_by_generator(perms[0], perms[1])


@pytest.mark.parametrize("name", ["S6", "PSL27", "Q16", "extraspecial128"])
def test_known_order_chain_matches_the_deterministic_chain(name):
    G = {
        "S6": catalog.symmetric(6),
        "PSL27": catalog.psl27(8),
        "Q16": catalog.quaternion(16),
        "extraspecial128": catalog.extraspecial_128(),
    }[name]
    K = PermGroup(G.generators, _known_order=G.order)
    assert K.order == G.order
    assert K.elements() == G.elements()


@pytest.mark.parametrize("factor", [2, 0.5])
def test_known_order_chain_refuses_a_wrong_order(factor):
    G = catalog.psl27(8)
    with pytest.raises(CertificateError):
        PermGroup(G.generators, _known_order=int(G.order * factor))


def test_known_order_chain_refuses_each_order_it_passes_on_the_way(monkeypatch):
    # a fill that stopped on reaching its target would accept each of these
    G = catalog.symmetric(6)
    passed = []
    sift_in = perm._Chain._sift_in
    monkeypatch.setattr(perm._Chain, "_sift_in",
                        lambda chain, g: sift_in(chain, g) and not passed.append(chain.order()))
    PermGroup(G.generators, _known_order=G.order)
    monkeypatch.undo()
    below = sorted(set(passed) - {G.order})
    assert below
    for target in below:
        with pytest.raises(CertificateError, match="passed the known order"):
            PermGroup(G.generators, _known_order=target)


def test_known_order_chain_completes_a_stalled_fill_by_the_sweep(monkeypatch):
    G = catalog.symmetric(6)
    monkeypatch.setattr(perm, "_STALL", 1)
    swept = []
    sweep = perm._Chain._sweep
    monkeypatch.setattr(perm._Chain, "_sweep",
                        lambda chain, i: swept.append(chain.order()) or sweep(chain, i))
    K = PermGroup(G.generators, _known_order=G.order)
    assert swept and swept[0] < G.order  # the fill stalled below the target
    assert K.order == G.order
    assert K.elements() == G.elements()
    with pytest.raises(CertificateError):
        PermGroup(G.generators, _known_order=2 * G.order)


def test_known_order_chain_of_the_trivial_group():
    assert PermGroup([], degree=3, _known_order=1).order == 1
    with pytest.raises(CertificateError):
        PermGroup([], degree=3, _known_order=2)
