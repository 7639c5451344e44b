"""Profiles and group corpora that only the tests run on.

The shipped `jigroup.fixtures` keeps the paper's worked examples and the
Z_2 classification corpus of `verify-paper`; these are the extra inputs of
the suites: two small va profiles, the shadow corpus over the curated
transitive tops, and the primitive groups of degree at most 8.
"""

from itertools import product as iproduct

from jigroup import catalog
from jigroup.perm import PermGroup
from jigroup.profiles import VaProfile
from jigroup.rep import rep_from_data
from jigroup.wreath import SIMPLE_FIBERS, wreath_shadow

from oracles import klein_four, minimal_block_systems, symmetric

# -- named profiles ---------------------------------------------------------------


def pro2_dihedral_profile():
    """d = 1, O = Z_2, C2 acting by -1: the infinite pro-2 dihedral group."""
    rep = rep_from_data(catalog.cyclic(2), [[[-1]]])
    return VaProfile(("Zp", 2), 1, rep)


def c3_rank2_profile():
    """C3 acting by the companion of x^2 + x + 1 over Z_3."""
    rep = rep_from_data(catalog.cyclic(3), [[[0, -1], [1, -1]]])
    return VaProfile(("Zp", 3), 2, rep)


def c3_rank2_profile_over_Z():
    rep = rep_from_data(catalog.cyclic(3), [[[0, -1], [1, -1]]])
    return VaProfile("Z", 2, rep)


# -- the shadow corpus -----------------------------------------------------------


def curated_top_groups():
    """Transitive groups on at most 5 points used by the shadow corpus."""
    return [
        ("C2", catalog.cyclic(2)),
        ("C3", catalog.cyclic(3)),
        ("S3", symmetric(3)),
        ("C4", catalog.cyclic(4)),
        ("V4", klein_four()),
        ("D8", catalog.dihedral(4)),
        ("A4", catalog.alternating(4)),
        ("S4", symmetric(4)),
        ("C5", catalog.cyclic(5)),
        ("D10", catalog.dihedral(5)),
        ("F20", _frobenius(5, 4, 2)),
        ("A5", catalog.alternating(5)),
        ("S5", symmetric(5)),
    ]


def shadow_corpus(fibers=("A5", "PSL27")):
    """All wreath shadows over the curated tops with the supported fibers."""
    out = []
    for fname in fibers:
        fiber = SIMPLE_FIBERS[fname]()
        for tname, top in curated_top_groups():
            model = wreath_shadow(fiber, top, provenance=f"{fname} wr {tname}")
            out.append((f"{fname}-wr-{tname}", model))
    return out


# -- the primitive-group corpus ---------------------------------------------------


def primitive_corpus():
    """Primitive groups of degree <= 8 for the Frattini suite, with names."""
    groups = [
        ("C2", catalog.cyclic(2)),
        ("C3", catalog.cyclic(3)),
        ("S3", symmetric(3)),
        ("A4", catalog.alternating(4)),
        ("S4", symmetric(4)),
        ("C5", catalog.cyclic(5)),
        ("D10", catalog.dihedral(5)),
        ("F20", _frobenius(5, 4, 2)),
        ("A5", catalog.alternating(5)),
        ("S5", symmetric(5)),
        ("C7", catalog.cyclic(7)),
        ("D14", catalog.dihedral(7)),
        ("F21", _frobenius(7, 3, 2)),
        ("F42", _frobenius(7, 6, 3)),
        ("PSL(2,7)@7", catalog.psl27(7)),
        ("PSL(2,7)@8", catalog.psl27(8)),
        ("AGL(1,8)", _agl18()),
    ]
    for name, g in groups:
        _, primitive = minimal_block_systems(g)
        assert primitive, f"{name} is not primitive"
    return groups


def _frobenius(p, k, mult):
    """C_p x| C_k on p points, C_k generated by x -> mult * x."""
    cyc = tuple((i + 1) % p for i in range(p))
    m = tuple((mult * i) % p for i in range(p))
    G = PermGroup([cyc, m])
    assert G.order == p * k, f"the Frobenius group of order {p * k} has the wrong order"
    return G


def _agl18():
    """AGL(1,8) = F_8 x| F_8^* on 8 points, order 56."""
    # F_8 = F_2[t]/(t^3 + t + 1); points = field elements
    els = [tuple(v) for v in iproduct(range(2), repeat=3)]
    idx = {v: i for i, v in enumerate(els)}

    def add(a, b):
        return tuple((x + y) % 2 for x, y in zip(a, b))

    def mul(a, b):
        out = [0] * 5
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] ^= y
        # reduce t^3 = t + 1, t^4 = t^2 + t
        if out[4]:
            out[2] ^= 1
            out[1] ^= 1
        if out[3]:
            out[1] ^= 1
            out[0] ^= 1
        return tuple(out[:3])

    one = (1, 0, 0)
    t = (0, 1, 0)
    trans = tuple(idx[add(v, one)] for v in els)
    scale = tuple(idx[mul(v, t)] for v in els)
    G = PermGroup([trans, scale])
    assert G.order == 56, "AGL(1,8) has the wrong order"
    return G
