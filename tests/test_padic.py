from fractions import Fraction

import pytest

from jigroup import catalog
from jigroup.padic import (
    PadicApprox,
    PrecisionExhausted,
    conic_solve_qp,
    hensel_lift_pair,
    irreducible_over_Qp,
    newton_polygon_slopes,
    padic_split,
    qp_factor_count,
    zp_simple_roots,
)
from jigroup.rep import rep_from_data
from jigroup.verdicts import IRREDUCIBLE, REDUCIBLE


def c3_companion_rep():
    return rep_from_data(catalog.cyclic(3), [[[0, -1], [1, -1]]])


def c2_diag_rep():
    return rep_from_data(catalog.cyclic(2), [[[1, 0], [0, -1]]])


def q8_quaternion_rep():
    G = catalog.quaternion(8)
    i_m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j_m = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return rep_from_data(G, [i_m, j_m])


# -- PadicApprox basics -------------------------------------------------------


def test_padic_approx_arithmetic():
    a = PadicApprox.from_int(10, 2, 10)
    assert a.valuation() == 1
    b = PadicApprox.from_rational(Fraction(3, 4), 2, 10)
    assert b.valuation() == -2
    prod = a * b
    assert prod.valuation() == -1
    s = a + a
    assert s.valuation() == 2
    # cancellation loses certainty, not correctness
    z = a - a
    assert not z.provably_nonzero()
    assert z.abs_prec >= 10


def test_padic_approx_division():
    a = PadicApprox.from_int(6, 3, 8)
    b = PadicApprox.from_int(3, 3, 8)
    q = a / b
    assert q.valuation() == 0
    assert q.residue(5) == 2


def test_padic_valuation_uncertain():
    z = PadicApprox.zero(5, 4)
    with pytest.raises(PrecisionExhausted):
        z.valuation()


# -- polynomial machinery -----------------------------------------------------


def test_qp_factor_count_phi3_at_3():
    rep = qp_factor_count((1, 1, 1), 3)
    assert rep.factor_count == 1
    assert rep.method == "eisenstein_shift"


def test_qp_factor_count_x2_minus_1_at_3():
    rep = qp_factor_count((-1, 0, 1), 3)
    assert rep.factor_count == 2
    assert rep.method == "squarefree_hensel"


def test_qp_factor_count_phi3_at_7():
    rep = qp_factor_count((1, 1, 1), 7)
    assert rep.factor_count == 2


def test_qp_factor_count_phi8_at_2():
    rep = qp_factor_count((1, 0, 0, 0, 1), 2)
    assert rep.factor_count == 1
    assert rep.method == "eisenstein_shift"


def test_qp_factor_count_requires_squarefree():
    with pytest.raises(ValueError):
        qp_factor_count((1, 2, 1), 5)  # (x+1)^2


def test_qp_factor_count_newton_polygon_fallback():
    # x^4 + 2x^2 + 4 at 2: not squarefree mod 2, no Eisenstein shift
    rep = qp_factor_count((4, 0, 2, 0, 1), 2)
    assert rep.method == "newton_polygon_bound"
    assert rep.factor_count is None
    assert rep.detail["lower_bound"] >= 1


def test_newton_polygon_slopes():
    # x^2 - 2: slope -1/2... valuations: (0,1),(2,0): slope -1/2 single
    assert len(newton_polygon_slopes((-2, 0, 1), 2)) == 1
    # x^2 - 4x + 2 ... vals (0:1),(1:2),(2:0)
    slopes = newton_polygon_slopes((2, -4, 1), 2)
    assert len(slopes) == 1


def test_hensel_lift_pair():
    # x^2 - 1 = (x-1)(x+1) mod 3, lift to 3^10
    f = [-1, 0, 1]
    g, h = hensel_lift_pair(f, [2, 1], [1, 1], 3, 10)
    mod = 3**10
    # check product
    prod = [
        (g[0] * h[0]) % mod,
        (g[0] * h[1] + g[1] * h[0]) % mod,
        (g[1] * h[1]) % mod,
    ]
    assert prod == [(-1) % mod, 0, 1]


def test_hensel_lift_pair_nontrivial():
    # x^2 + x + 1 mod 7 = (x-2)(x-4): lift and verify roots
    f = [1, 1, 1]
    g, h = hensel_lift_pair(f, [(-2) % 7, 1], [(-4) % 7, 1], 7, 8)
    mod = 7**8
    r1 = (-g[0]) % mod
    assert (r1 * r1 + r1 + 1) % mod == 0


def test_zp_simple_roots():
    roots = zp_simple_roots([1, 1, 1], 7, 20)
    assert len(roots) == 2
    for r, k in roots:
        assert (r * r + r + 1) % 7**k == 0
    assert sorted(r % 7 for r, _ in roots) == [2, 4]


def test_zp_simple_roots_none():
    assert zp_simple_roots([1, 0, 1], 7, 10) == []  # x^2+1 at 7 = 3 mod 4


def test_conic_solve_qp():
    # (-1,-1) at 2 is division: no solution
    assert conic_solve_qp(-1, -1, 2, 20) is None
    # (-1,-1) at 3 splits
    sol = conic_solve_qp(-1, -1, 3, 20)
    assert sol is not None
    x, y, z = sol
    mod = 3**18
    assert (z * z + x * x + y * y) % mod == 0
    assert any(v % 3 for v in (x, y, z))


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def oracle_conic_solve_qp(a, b, p, prec):
    """The former stand-alone Q_p conic solver: search mod p^K, then Newton
    on the variable with the best margin, steps taken mod p^(prec - v)."""
    e = 1 if p == 2 else 0
    va, vb = _vp(a, p), _vp(b, p)
    K = 2 * e + 1 + 2 * max(va, vb)
    mod = p**K
    sq_all, sq_unit = {}, {}
    for z in range(mod):
        sq_all.setdefault(z * z % mod, z)
        if z % p:
            sq_unit.setdefault(z * z % mod, z)
    found = None
    for x in range(mod):
        for y in range(mod):
            t = (a * x * x + b * y * y) % mod
            z = sq_all.get(t) if (x % p or y % p) else sq_unit.get(t)
            if z is not None:
                found = (x, y, z)
                break
        if found:
            break
    if found is None:
        return None
    x, y, z = found
    big = p**prec
    cands = [(v, t) for v, u, t in (("z", z, e), ("x", x, e + va), ("y", y, e + vb))
             if u % p]
    var = min(cands, key=lambda c: c[1])[0]
    while True:
        fv = (z * z - a * x * x - b * y * y) % big
        if fv == 0 or _vp(fv, p) >= prec - 1:
            return x, y, z
        dv = {"z": 2 * z, "x": -2 * a * x, "y": -2 * b * y}[var]
        tv = _vp(dv, p)
        step = (fv // p**tv) * pow(dv // p**tv, -1, p ** (prec - tv)) % p ** (prec - tv)
        if var == "z":
            z = (z - step) % big
        elif var == "x":
            x = (x - step) % big
        else:
            y = (y - step) % big


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_conic_solve_qp_matches_former_solver(p):
    units = [u for u in (1, -1, 2, 3, -3, 5, 6) if u % p]
    for a in units + [p]:
        for b in units + [p]:
            # the search does not depend on prec, so an insoluble conic is
            # checked at one prec only
            if oracle_conic_solve_qp(a, b, p, 20) is None:
                assert conic_solve_qp(a, b, p, 20) is None, (a, b, p)
                continue
            for prec in (6, 20):
                x, y, z = sol = conic_solve_qp(a, b, p, prec)
                want = oracle_conic_solve_qp(a, b, p, prec)
                low = p ** (prec - 2)
                assert [v % low for v in sol] == [v % low for v in want], (a, b, p)
                assert (z * z - a * x * x - b * y * y) % p ** (prec - 1) == 0


# -- irreducibility over Q_p ----------------------------------------------------


def test_c3_rep_irreducible_at_3():
    v = irreducible_over_Qp(c3_companion_rep(), 3)
    assert v.status == IRREDUCIBLE


def test_c3_rep_reducible_at_7():
    v = irreducible_over_Qp(c3_companion_rep(), 7)
    assert v.status == REDUCIBLE


def test_q8_rep_irreducible_at_2():
    v = irreducible_over_Qp(q8_quaternion_rep(), 2)
    assert v.status == IRREDUCIBLE
    assert v.witness["symbol"] == -1


def test_q8_rep_reducible_at_3():
    # (-1,-1) splits at every odd prime
    v = irreducible_over_Qp(q8_quaternion_rep(), 3)
    assert v.status == REDUCIBLE


def test_c2_diag_reducible_everywhere():
    for p in (2, 3, 5):
        v = irreducible_over_Qp(c2_diag_rep(), p)
        assert v.status == REDUCIBLE


# -- padic_split -----------------------------------------------------------------


def test_padic_split_c2_diag():
    pieces = padic_split(c2_diag_rep(), 5)
    assert len(pieces) == 2
    assert all(sub.dimension == 1 for sub in pieces)


def test_padic_split_c3_at_7():
    pieces = padic_split(c3_companion_rep(), 7)
    assert len(pieces) == 2
    assert all(sub.dimension == 1 for sub in pieces)
    eigs = []
    for sub in pieces:
        g = sub.gen_images[0]
        eigs.append(g[0][0].residue(1))
    assert sorted(eigs) == [2, 4]


def test_padic_split_precision_monotone_c3():
    for prec in (32, 64, 128):
        pieces = padic_split(c3_companion_rep(), 7, prec)
        eigs = sorted(sub.gen_images[0][0][0].residue(1) for sub in pieces)
        assert eigs == [2, 4]


def test_padic_split_q8_at_3():
    pieces = padic_split(q8_quaternion_rep(), 3)
    assert sorted(sub.dimension for sub in pieces) == [2, 2]
    for sub in pieces:
        assert sub.faithful
