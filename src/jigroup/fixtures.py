"""Builders for the three worked examples and the corpus profiles.

Example 1: the affine wreath shadow (see wreath.build_wreath_shadow).
Example 2: the generalized quaternion group of order 16 acting integrally in
dimension 8 (left multiplication on Z[zeta_8] + Z[zeta_8] y with y^2 = -1
and conjugation acting as the Galois twist), split 2-adically into two
4-dimensional lattice constituents of quaternionic type.
Example 3: the extraspecial central product of three dihedral groups of
order 8; its smallest faithful characteristic-0 degree is computed, while
the matching degree for the double cover of Alt(8) is carried as cited
reference data only.
"""

from __future__ import annotations

from . import catalog
from .chartab import character_table, min_faithful_degree
from .padic import DEFAULT_PRECISION, padic_split
from .profiles import VaProfile, validate_va_profile
from .rep import rep_from_data
from .verdicts import CertificateError
from .wreath import build_wreath_shadow, wreath_shadow

# the degree-8 figure for the double cover of Alt(8) is cited reference
# data (character-table sources), asserted but never computed here
CITED_DOUBLE_COVER_ALT8_MIN_DEGREE = 8


def q16_integral_rep():
    """The faithful integral 8-dimensional representation of Q16.

    Basis e_k = zeta^k, f_k = zeta^k y (k = 0..3) of the lattice
    Z[zeta] + Z[zeta] y, zeta a primitive 8th root of unity, y^2 = -1,
    y zeta y^-1 = zeta^-1.  Row-vector convention: matrices act on the
    right, entry [i][j] is the j-coefficient of the image of basis i.
    """
    G = catalog.quaternion16()
    x_mat = [[0] * 8 for _ in range(8)]
    for k in range(3):
        x_mat[k][k + 1] = 1
        x_mat[4 + k][4 + k + 1] = 1
    x_mat[3][0] = -1
    x_mat[7][4] = -1
    y_mat = [[0] * 8 for _ in range(8)]
    y_mat[0][4] = 1
    y_mat[1][7] = -1
    y_mat[2][6] = -1
    y_mat[3][5] = -1
    y_mat[4][0] = -1
    y_mat[5][3] = 1
    y_mat[6][2] = 1
    y_mat[7][1] = 1
    rep = rep_from_data(G, [x_mat, y_mat])
    if not rep.faithful:
        raise CertificateError("the Q16 representation is not faithful")
    return rep


def quaternionic_profile(precision=DEFAULT_PRECISION):
    """The Example-2 profile: a 4-dim 2-adic constituent of the 8-dim rep."""
    rep8 = q16_integral_rep()
    pieces = padic_split(rep8, 2, precision)
    if sorted(s.dimension for s in pieces) != [4, 4]:
        raise CertificateError("the Q16 lattice does not split 2-adically as [4, 4]")
    constituent = pieces[0]
    profile = VaProfile(("Zp", 2), 4, constituent, precision)
    check = validate_va_profile(profile)
    if not check["valid"]:
        raise CertificateError(f"the Example-2 profile is not valid: {check}")
    return profile, rep8, pieces


def paper_examples(example_id, precision=DEFAULT_PRECISION):
    """Fixture bundle for example 1, 2, or 3."""
    if example_id == 1:
        shadow = build_wreath_shadow("A5", 2)
        return {"shadow": shadow, "fiber": "A5", "p": 2}
    if example_id == 2:
        profile, rep8, pieces = quaternionic_profile(precision)
        return {
            "group": profile.Q,
            "rep8": rep8,
            "constituents": pieces,
            "profile": profile,
        }
    if example_id == 3:
        E = catalog.extraspecial_128()
        table = character_table(E)
        degree = min_faithful_degree(E, table=table)
        return {
            "group": E,
            "character_degrees": sorted(table.degrees),
            "min_faithful_degree": degree,
            "cited": {
                "double_cover_alt8_min_faithful_degree":
                    CITED_DOUBLE_COVER_ALT8_MIN_DEGREE,
                "status": "cited reference data, not computed",
            },
        }
    raise ValueError("example_id must be 1, 2 or 3")


# -- the Z_2 classification corpus --------------------------------------------


def z2_profile_c2():
    rep = rep_from_data(catalog.cyclic(2), [[[-1]]])
    return VaProfile(("Zp", 2), 1, rep)


def z2_profile_c4():
    rep = rep_from_data(catalog.cyclic(4), [[[0, -1], [1, 0]]])
    return VaProfile(("Zp", 2), 2, rep)


def z2_profile_c8():
    companion = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
    ]
    rep = rep_from_data(catalog.cyclic(8), [companion])
    return VaProfile(("Zp", 2), 4, rep)


def z2_profile_d8():
    r = [[0, -1], [1, 0]]
    s = [[1, 0], [0, -1]]
    rep = rep_from_data(catalog.dihedral(4), [r, s])
    return VaProfile(("Zp", 2), 2, rep)


def z2_profile_q8():
    i_m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j_m = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    rep = rep_from_data(catalog.quaternion(8), [i_m, j_m])
    return VaProfile(("Zp", 2), 4, rep)


def z2_profile_sd16():
    # r = multiplication by zeta8 on Z[zeta8]; s = the Galois map zeta -> zeta^3
    r = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
    ]
    s = [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
    ]
    rep = rep_from_data(catalog.semidihedral16(), [r, s])
    if not rep.faithful:
        raise CertificateError("the SD16 representation is not faithful")
    return VaProfile(("Zp", 2), 4, rep)


def z2_profile_q16_constituent(precision=DEFAULT_PRECISION):
    profile, _, _ = quaternionic_profile(precision)
    return profile


def leethm_corpus(precision=DEFAULT_PRECISION):
    """(name, profile) pairs for the 2-adic classification spot-check."""
    return [
        ("C2", z2_profile_c2()),
        ("C4", z2_profile_c4()),
        ("C8", z2_profile_c8()),
        ("D8", z2_profile_d8()),
        ("Q8", z2_profile_q8()),
        ("SD16", z2_profile_sd16()),
        ("Q16-constituent", z2_profile_q16_constituent(precision)),
    ]


# -- other named profiles -------------------------------------------------------


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
        ("S3", catalog.symmetric(3)),
        ("C4", catalog.cyclic(4)),
        ("V4", catalog.klein_four()),
        ("D8", catalog.dihedral(4)),
        ("A4", catalog.alternating(4)),
        ("S4", catalog.symmetric(4)),
        ("C5", catalog.cyclic(5)),
        ("D10", catalog.dihedral(5)),
        ("F20", _frobenius20()),
        ("A5", catalog.alternating(5)),
        ("S5", catalog.symmetric(5)),
    ]


def _frobenius20():
    from .perm import PermGroup, perm_from_cycles

    five = perm_from_cycles(5, (0, 1, 2, 3, 4))
    double = tuple((2 * i) % 5 for i in range(5))  # x -> 2x mod 5
    F = PermGroup([five, double])
    if F.order != 20:
        raise CertificateError("F20 has the wrong order")
    return F


def shadow_corpus(fibers=("A5", "PSL27")):
    """All wreath shadows over the curated tops with the supported fibers."""
    from .wreath import SIMPLE_FIBERS

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
        ("S3", catalog.symmetric(3)),
        ("A4", catalog.alternating(4)),
        ("S4", catalog.symmetric(4)),
        ("C5", catalog.cyclic(5)),
        ("D10", catalog.dihedral(5)),
        ("F20", _frobenius20()),
        ("A5", catalog.alternating(5)),
        ("S5", catalog.symmetric(5)),
        ("C7", catalog.cyclic(7)),
        ("D14", catalog.dihedral(7)),
        ("F21", _frobenius(7, 3, 2)),
        ("F42", _frobenius(7, 6, 3)),
        ("PSL(2,7)@7", catalog.psl27(7)),
        ("PSL(2,7)@8", catalog.psl27(8)),
        ("AGL(1,8)", _agl18()),
    ]
    for name, g in groups:
        _, primitive = g.minimal_block_systems()
        if not primitive:
            raise CertificateError(f"{name} is not primitive")
    return groups


def _frobenius(p, k, mult):
    """C_p x| C_k on p points, C_k generated by x -> mult * x."""
    from .perm import PermGroup

    cyc = tuple((i + 1) % p for i in range(p))
    m = tuple((mult * i) % p for i in range(p))
    G = PermGroup([cyc, m])
    if G.order != p * k:
        raise CertificateError(f"the Frobenius group of order {p * k} has the wrong order")
    return G


def _agl18():
    """AGL(1,8) = F_8 x| F_8^* on 8 points, order 56."""
    from itertools import product as iproduct

    from .perm import PermGroup

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
    if G.order != 56:
        raise CertificateError("AGL(1,8) has the wrong order")
    return G
