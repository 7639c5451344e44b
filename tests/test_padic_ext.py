"""Extension-field arithmetic and additional p-adic engine paths."""

from fractions import Fraction

import pytest

from jigroup import catalog, fixtures
from jigroup.padic import (
    PrecisionExhausted,
    QuadExt,
    conic_solve_ext,
    irreducible_over_Qp,
    padic_split,
    qp_factor_count,
)
from jigroup.profiles import VaProfile, va_just_infinite
from jigroup.rep import irreducible_over_Q, rep_from_data
from jigroup.verdicts import IRREDUCIBLE, JI, REDUCIBLE, UNKNOWN

from oracles import mul_pi


def test_quadext_ramified_basics():
    # E = Q_2(sqrt 2): gamma^2 = 2 (B = 0, C = -2)
    ext = QuadExt(2, (-2, 0, 1), 24)
    assert ext.ramified and ext.e == 2
    g = ext.gamma()
    assert ext.val(g) == 1
    assert ext.val(ext.square(g)) == 2
    two = ext.from_int(2)
    assert ext.val(two) == 2
    # pi division inverts pi multiplication
    x = (3, 5)
    assert ext.div_pi(mul_pi(ext, x)) == (3 % ext.mod, 5 % ext.mod)
    # unit inversion
    u = (3, 4)
    prod = ext.mul(u, ext.inv_unit(u))
    assert ext.reduce_pi(prod, 20) == ext.reduce_pi(ext.one(), 20)


def test_quadext_unramified_basics():
    # E = Q_2[t]/(t^2 + t + 1): the unramified quadratic extension
    ext = QuadExt(2, (1, 1, 1), 24)
    assert not ext.ramified and ext.e == 1
    g = ext.gamma()
    assert ext.val(g) == 0
    assert ext.val(ext.from_int(2)) == 1
    x = (3, 5)
    assert ext.div_pi(mul_pi(ext, x)) == (3 % ext.mod, 5 % ext.mod)


def test_quadext_rejects_split_quadratic():
    # t^2 - 1 is split, neither unramified nor Eisenstein at 3
    with pytest.raises(PrecisionExhausted):
        QuadExt(3, (-1, 0, 1), 16)


def test_conic_split_over_ramified_quadratic():
    # (-1, -1) is division over Q_2 but splits over Q_2(sqrt 2)
    ext = QuadExt(2, (-2, 0, 1), 40)
    a = ext.from_int(-1)
    b = ext.from_int(-1)
    sol = conic_solve_ext(ext, a, b, 40)
    assert sol is not None
    x, y, z = sol
    lhs = ext.square(z)
    rhs = ext.add(ext.mul(a, ext.square(x)), ext.mul(b, ext.square(y)))
    diff = ext.sub(lhs, rhs)
    assert ext.val(diff, 40) >= 40
    assert min(ext.val(x, 1), ext.val(y, 1), ext.val(z, 1)) == 0


def test_conic_division_detected_over_unramified_quadratic():
    # the division quaternion over Q_2 stays division over no quadratic
    # extension; over the unramified one (-1,-1) must split as well
    ext = QuadExt(2, (1, 1, 1), 40)
    sol = conic_solve_ext(ext, ext.from_int(-1), ext.from_int(-1), 40)
    assert sol is not None


def test_conic_insoluble_case_ramified():
    # (gamma, u) with u a unit nonsquare whose class survives: use the
    # uniformizer and -1 over Q_3(sqrt 3): (pi, -1) is division iff -1 is a
    # nonsquare in the residue field F_3, which it is
    ext = QuadExt(3, (-3, 0, 1), 30)
    a = ext.gamma()
    b = ext.from_int(-1)
    assert conic_solve_ext(ext, a, b, 30) is None


def test_c4_profile_splits_at_5():
    # x^2 + 1 has roots mod 5: the C4 lattice action splits over Z_5
    rep = rep_from_data(catalog.cyclic(4), [[[0, -1], [1, 0]]])
    v = irreducible_over_Qp(rep, 5, 32)
    assert v.status == REDUCIBLE
    pieces = padic_split(rep, 5, 32)
    assert sorted(s.dimension for s in pieces) == [1, 1]
    eigs = sorted(s.gen_images[0].residues(1)[0][0] for s in pieces)
    assert eigs == [2, 3]  # the square roots of -1 mod 5


def test_c4_profile_inert_at_3():
    # x^2 + 1 is irreducible mod 3: the action stays irreducible over Q_3
    rep = rep_from_data(catalog.cyclic(4), [[[0, -1], [1, 0]]])
    assert irreducible_over_Qp(rep, 3, 32).status == IRREDUCIBLE


def test_q16_constituent_restrictions_irreducible():
    profile, _, _ = fixtures.quaternionic_profile()
    from jigroup.smallgrp import maximal_subgroups

    for M in maximal_subgroups(profile.Q):
        res = profile.action.restrict(M)
        v = irreducible_over_Qp(res, 2, 64)
        assert v.status == IRREDUCIBLE, M.order


def test_block_dimensions_equal_and_divide():
    from jigroup.rep import matrix_block_system

    for profile in (fixtures.z2_profile_q8(), fixtures.z2_profile_c8(),
                    fixtures.z2_profile_sd16()):
        v = matrix_block_system(profile.action, p=2, precision=64)
        assert v.status == "imprimitive"
        blocks = v.witness["blocks"]
        dims = {len(b) for b in blocks}
        assert len(dims) == 1
        assert profile.rank % len(blocks) == 0


def test_padic_split_preserves_unit_determinants():
    profile, rep8, pieces = fixtures.quaternionic_profile()
    for sub in pieces:
        for g in sub.gen_images:
            assert g.det_valuation() == 0
        for mat in sub.element_map.values():
            assert mat.min_valuation() >= 0


def test_normalize_ext_square_ramified():
    from jigroup.padic import _normalize_ext_square

    ext = QuadExt(2, (-2, 0, 1), 24)  # gamma^2 = 2
    pair, k = _normalize_ext_square(ext, (Fraction(2), Fraction(0)), 2)
    assert k == 1 and pair == (1, 0)  # 2 / gamma^2 = 1
    pair, k = _normalize_ext_square(ext, (Fraction(-1), Fraction(0)), 2)
    assert k == 0 and pair == ((-1) % ext.mod, 0)
    # valuation -2: two multiplications by gamma, (1/2) * gamma^2 = 1
    pair, k = _normalize_ext_square(ext, (Fraction(1, 2), Fraction(0)), 2)
    assert k == -1 and pair == (1, 0)


def test_normalize_ext_square_unramified():
    from jigroup.padic import _normalize_ext_square

    ext = QuadExt(2, (1, 1, 1), 24)  # unramified: uniformizer is 2 itself
    pair, k = _normalize_ext_square(ext, (Fraction(4), Fraction(0)), 2)
    assert k == 1 and pair == (1, 0)
    pair, k = _normalize_ext_square(ext, (Fraction(1, 2), Fraction(0)), 2)
    assert k == -1 and pair == (2, 0)  # (1/2) * 2^2 = 2, valuation 1
    pair, k = _normalize_ext_square(ext, (Fraction(8), Fraction(4)), 2)
    assert k == 1 and pair == (2, 1)  # (8 + 4 gamma)/4 = 2 + gamma, v_E = 0


def q8c3_rep(scale=1):
    """rho_H (x) rho_C3 of Q8 x C3 on Q^8, conjugated by diag(1, 1, scale, 1, ...).

    The commutant is the quaternion algebra (-1, -1) over the centre
    Q(sqrt -3), which splits it: -1 = w + w^2 with w a cube root of unity.
    """
    from jigroup.perm import PermGroup

    def kron(a, b):
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    r, s = catalog.quaternion(8).generators
    group = PermGroup([r + (8, 9, 10), s + (8, 9, 10),
                       tuple(range(8)) + (9, 10, 8)])
    i_m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j_m = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    i2 = [[1, 0], [0, 1]]
    i4 = [[int(a == b) for b in range(4)] for a in range(4)]
    diag = [Fraction(scale if k == 2 else 1) for k in range(8)]

    def conj(m):
        return [[m[a][b] * diag[b] / diag[a] for b in range(8)]
                for a in range(8)]

    gens = [kron(i_m, i2), kron(j_m, i2), kron(i4, [[0, -1], [1, -1]])]
    return rep_from_data(group, [conj(m) for m in gens])


def test_padic_split_inert_quadratic_center_rescaled_lattice():
    # The centre Q(sqrt -3) is inert at 5 and ramified at 3.  Conjugating by
    # diag(1, 1, p^2, 1, ...) makes the quaternion square b carry p^-4, so
    # the normalization scales by pi^2 per step: p^2 when unramified, and
    # through _gamma_multiply when ramified.
    for p, scale in ((5, 25), (3, 9)):
        pieces = padic_split(q8c3_rep(scale), p, 32)
        assert sorted(s.dimension for s in pieces) == [4, 4], p


@pytest.mark.parametrize("scale", [1, 3, 9, Fraction(1, 3)])
def test_q8c3_split_commutant_is_never_irreducible_over_Q(scale):
    # (-1, -1) over Q(sqrt -3) splits; no real place certifies division
    rep = q8c3_rep(scale)
    assert irreducible_over_Q(rep).status != IRREDUCIBLE
    profile = VaProfile("Z", 8, rep)
    assert va_just_infinite(profile).status != JI


def test_real_place_ramification_is_exact():
    from jigroup.rep import _ramified_at_a_real_place

    sqrt2 = (Fraction(-2), Fraction(0), Fraction(1))  # w^2 = 2
    minus_one = (Fraction(-1), Fraction(0))
    assert _ramified_at_a_real_place(sqrt2, minus_one, minus_one)
    # sqrt 2 < 0 at w = -sqrt 2, where -1 < 0 too
    assert _ramified_at_a_real_place(sqrt2, (0, 1), minus_one)
    # 1 + sqrt 2 is negative only at w = -sqrt 2, 1 - sqrt 2 only at +sqrt 2
    assert not _ramified_at_a_real_place(sqrt2, (1, 1), (1, -1))
    assert _ramified_at_a_real_place(sqrt2, (1, 1), (Fraction(7, 5), 1))
    # 3 - 2 sqrt 2 > 0 at both places: 9 > 8
    assert not _ramified_at_a_real_place(sqrt2, (3, -2), minus_one)
    # an imaginary centre has no real place
    assert not _ramified_at_a_real_place((Fraction(3, 4), 0, 1), minus_one, minus_one)


def d16_zeta8_rep(scale=1):
    """D16 on Z[zeta8] (basis 1, z, z^2, z^3): r multiplies by zeta8 and s is
    complex conjugation, conjugated by diag(1, 1, 1, scale).

    The commutant is Q(sqrt 2), generated by zeta8 + zeta8^-1."""
    r = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]
    s = [[1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0]]
    diag = [1, 1, 1, Fraction(scale)]

    def conj(m):
        return [[m[a][b] * diag[b] / diag[a] for b in range(4)] for a in range(4)]

    return rep_from_data(catalog.dihedral(8), [conj(r), conj(s)])


def test_d16_verdict_over_q2_does_not_depend_on_the_lattice_basis():
    # the conjugated commutant generator has integer model x^2 - 8, which no
    # Eisenstein shift reaches; its one Newton slope -3/2 certifies it
    plain = irreducible_over_Qp(d16_zeta8_rep(), 2)
    scaled = irreducible_over_Qp(d16_zeta8_rep(2), 2)
    assert plain.status == scaled.status == IRREDUCIBLE
    assert plain.witness["report"].method == "eisenstein_shift"
    assert scaled.witness["report"].polynomial == (-8, 0, 1)
    assert scaled.witness["report"].method == "single_newton_slope"


def test_qp_factor_count_single_newton_slope():
    report = qp_factor_count((-8, 0, 1), 2)
    assert (report.factor_count, report.method) == (1, "single_newton_slope")


def test_single_slope_quadratic_centre_stays_uncertified():
    # the Q16 lattice conjugated by diag(2, 1, ..., 1): the commutant is a
    # quaternion algebra over Q(sqrt 2) whose centre generator has model
    # x^2 - 8.  The slope certifies one factor, but QuadExt needs an
    # unramified or Eisenstein centre, so the verdict stays a mathematical
    # unknown, not a precision exhaustion.
    from jigroup.rep import commutant_analysis

    rep8 = fixtures.q16_integral_rep()
    diag = [2] + [1] * 7
    gens = [[[Fraction(m[a][b] * diag[b], diag[a]) for b in range(8)] for a in range(8)]
            for m in (rep8.element_map[g] for g in rep8.group.generators)]
    rep = rep_from_data(rep8.group, gens)
    st, _ = commutant_analysis(rep, 0)
    assert st.kind == "cyclic_algebra"
    assert st.data["center_minpoly"] == (-8, 0, 1)
    verdict = irreducible_over_Qp(rep, 2)
    assert verdict.status == UNKNOWN
    assert verdict.provenance == "padic-unclassified"
    assert verdict.witness["reason"] == "center factor count not certified"
