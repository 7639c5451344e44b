"""Builders for the three worked examples and the corpus profiles.

Example 1: the affine wreath shadow (see wreath.build_wreath_shadow).
Example 2: the generalized quaternion group of order 16 acting integrally in
dimension 8 (left multiplication on Z[zeta_8] + Z[zeta_8] y with y^2 = -1
and conjugation acting as the Galois twist), split 2-adically into two
4-dimensional lattice constituents of quaternionic type.
Example 3: the extraspecial central product of three dihedral groups of
order 8, acting on the 16 signed basis vectors of Q^8 (see
catalog.extraspecial_128); its smallest faithful characteristic-0 degree is
computed, while the matching degree for the double cover of Alt(8) is
carried as cited reference data only.
"""

from __future__ import annotations

from . import catalog
from .chartab import character_table, min_faithful_degree
from .padic import DEFAULT_PRECISION, padic_split
from .profiles import VaProfile, validate_va_profile
from .rep import rep_from_data
from .verdicts import CertificateError
from .wreath import build_wreath_shadow

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


def leethm_corpus(q16_constituent):
    """(name, profile) pairs for the 2-adic classification spot-check; the
    Example-2 constituent profile (see quaternionic_profile) comes last."""
    return [
        ("C2", z2_profile_c2()),
        ("C4", z2_profile_c4()),
        ("C8", z2_profile_c8()),
        ("D8", z2_profile_d8()),
        ("Q8", z2_profile_q8()),
        ("SD16", z2_profile_sd16()),
        ("Q16-constituent", q16_constituent),
    ]
