import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from jigroup import catalog
from jigroup.padic import (
    PadicMatrix,
    PrecisionExhausted,
    _approx_ladder,
    _int_shift_poly,
    _is_eisenstein,
    conic_solve_qp,
    irreducible_over_Qp,
    newton_polygon_slopes,
    padic_split,
    prow_echelon,
    qp_factor_count,
)
from jigroup.rep import rep_from_data
from jigroup.verdicts import IRREDUCIBLE, REDUCIBLE
from jigroup.zpoly import fp_factor_squarefree_monic, is_squarefree

SRC = Path(__file__).resolve().parent.parent / "src"


def c3_companion_rep():
    return rep_from_data(catalog.cyclic(3), [[[0, -1], [1, -1]]])


def c2_diag_rep():
    return rep_from_data(catalog.cyclic(2), [[[1, 0], [0, -1]]])


def q8_quaternion_rep():
    G = catalog.quaternion(8)
    i_m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j_m = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return rep_from_data(G, [i_m, j_m])


# -- PadicMatrix elements ------------------------------------------------------


def test_padic_approx_arithmetic():
    a = PadicMatrix.from_rational([[10]], 2, 10)
    assert a.valuation() == 1
    b = PadicMatrix.from_rational([[Fraction(3, 4)]], 2, 10)
    assert b.valuation() == -2
    prod = a * b
    assert prod.valuation() == -1
    assert prod.cap == 8  # the 10 digits of a, less the 2 of the denominator of b
    s = a + a
    assert s.valuation() == 2
    # cancellation loses certainty, not correctness
    z = a - a
    assert z.is_zero()
    assert z.cap == 10


def test_padic_approx_division():
    a = PadicMatrix.from_rational([[6]], 3, 8)
    q = a.scale(Fraction(1, 3))
    assert q.valuation() == 0
    assert q.cap == 7
    assert q.residues(5) == [[2]]
    with pytest.raises(PrecisionExhausted):
        q.residues(8)


def test_padic_valuation_uncertain():
    z = PadicMatrix(5, 4, [[0]])
    with pytest.raises(PrecisionExhausted):
        z.valuation()


@pytest.mark.parametrize("p, rows, pivots, vals", [
    # the pivot row keeps 2 digits and the cleared row 6, in which -72 is nonzero
    (3, [[81, 9, 9], [-81, -81, -9]], [0, 1], [4, 2]),
    (2, [[4, -13, -6], [4, -1, 18], [4, 11, -8]], [0, 1, 2], [2, 2, 1]),
    (2, [[12, 4, Fraction(-35, 2)], [42, 9, Fraction(-57, 2)], [52, 4, Fraction(23, 2)]],
     [0, 1], [1, 1]),
    # rank 4 over Q, but the last row is 0 to the digits it has left
    (2, [[-14, 39, 27, 6], [-12, 57, 41, 19], [14, -38, -18, 8], [-24, 49, 41, 2]],
     [0, 1, 2], [1, 0, 4]),
])
def test_echelon_decisions_at_eight_digits(p, rows, pivots, vals):
    _, got_pivots, got_vals = prow_echelon(PadicMatrix.from_rational(rows, p, 8))
    assert (got_pivots, got_vals) == (pivots, vals)


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


def approx_ladder_read(coeffs, p):
    """The approx route's read of the one ladder, in the former tuple form:
    ('irreducible', how) / ('factors_mod_p', factors) / ('unknown', why)."""
    report, how = _approx_ladder(coeffs, p)
    if report is None:
        return ("unknown", how)
    if report.factor_count == 1:
        return ("irreducible", how)
    return ("factors_mod_p", report.detail["factors"])


def oracle_qp_poly_status_approx(coeffs, p):
    """The former stand-alone certificate for approx polynomials: its own
    mod-p squarefree count, Eisenstein shifts and single-slope polygon, the
    polygon read with the row's own leading coefficient."""
    n = coeffs.ncols - 1
    if n == 1:
        return ("irreducible", "linear")
    kmin = coeffs.cap
    if kmin < 2:
        raise PrecisionExhausted("not enough digits for reduction tests")
    if coeffs.min_valuation() < 0:
        return ("unknown", "non-integral coefficients")
    res = coeffs.residues(kmin)[0]
    fbar = [c % p for c in res]
    while fbar and fbar[-1] == 0:
        fbar.pop()
    if len(fbar) == n + 1 and is_squarefree(fbar, p):
        facs = fp_factor_squarefree_monic(fbar, p)
        if len(facs) == 1:
            return ("irreducible", "irreducible mod p")
        return ("factors_mod_p", facs)
    for s in range(-p, p + 1):
        if _is_eisenstein(_int_shift_poly(tuple(res), s), p):
            return ("irreducible", f"eisenstein shift {s}")
    # the segment from (0, v0) to (n, vn); the approx route's rows are
    # monic, so there vn = 0
    v0 = _vp(res[0], p) if res[0] else kmin
    vn = _vp(res[n], p) if res[n] else kmin
    if res[0] and res[n] and gcd(vn - v0, n) == 1:
        for i in range(1, n):
            vi = _vp(res[i], p) if res[i] else kmin
            if Fraction(vi) < Fraction(v0 * (n - i) + vn * i, n):
                break
        else:
            return ("irreducible", "single newton slope")
    return ("unknown", "no certificate applies")


def test_approx_ladder_matches_former_certificate():
    rng = random.Random(9)
    seen = set()
    for p in (2, 3, 5):
        for n in range(1, 5):
            for cap in range(2, 9):
                for _ in range(25):
                    # small multiples of p make Eisenstein shapes and single
                    # slopes common; a few leading coefficients are not units
                    coeffs = [rng.choice([rng.randrange(p**cap), p * rng.randrange(4),
                                          p * p * rng.randrange(4)]) for _ in range(n)]
                    coeffs.append(1 if rng.random() < 0.8 else rng.randrange(p**cap))
                    val = -1 if rng.random() < 0.05 else 0
                    row = PadicMatrix(p, cap, [coeffs], val)
                    want = oracle_qp_poly_status_approx(row, p)
                    assert approx_ladder_read(row, p) == want, (p, coeffs, cap)
                    seen.add(want[1] if want[0] != "factors_mod_p" else want[0])
    assert {"linear", "irreducible mod p", "factors_mod_p", "eisenstein shift -2",
            "single newton slope", "no certificate applies",
            "non-integral coefficients"} <= seen, seen


def test_newton_polygon_slopes():
    # x^2 - 2: slope -1/2... valuations: (0,1),(2,0): slope -1/2 single
    assert len(newton_polygon_slopes((-2, 0, 1), 2)) == 1
    # x^2 - 4x + 2 ... vals (0:1),(1:2),(2:0)
    slopes = newton_polygon_slopes((2, -4, 1), 2)
    assert len(slopes) == 1


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
        eigs.append(g.residues(1)[0][0])
    assert sorted(eigs) == [2, 4]


def test_padic_split_precision_monotone_c3():
    for prec in (32, 64, 128):
        pieces = padic_split(c3_companion_rep(), 7, prec)
        eigs = sorted(sub.gen_images[0].residues(1)[0][0] for sub in pieces)
        assert eigs == [2, 4]


def test_padic_split_q8_at_3():
    pieces = padic_split(q8_quaternion_rep(), 3)
    assert sorted(sub.dimension for sub in pieces) == [2, 2]
    for sub in pieces:
        assert sub.faithful


def test_insoluble_conic_after_split_symbol_raises_under_O():
    # (-1, -1) splits at 3, so an insoluble conic there is a failed
    # certificate, not a verdict; the check must survive python -O
    script = (
        "from jigroup import catalog, padic\n"
        "from jigroup.rep import rep_from_data\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "i_m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]\n"
        "j_m = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]\n"
        "rep = rep_from_data(catalog.quaternion(8), [i_m, j_m])\n"
        "padic.conic_solve_qp = lambda a, b, p, prec: None\n"
        "try:\n"
        "    padic.irreducible_over_Qp(rep, 3)\n"
        "except CertificateError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: split symbol but insoluble conic")


def test_padic_checks_raise_under_O():
    # witness re-checks raise CertificateError and argument preconditions
    # ValueError, also when asserts are off
    script = (
        "from jigroup.padic import QuadExt, _ZpRing, _normalize_ext_square, conic_solve_ext\n"
        "from jigroup.zpoly import bezout\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "checks = [\n"
        "    lambda: QuadExt(3, (1, 0, 2), 8),\n"
        "    lambda: conic_solve_ext(_ZpRing(3, 8), 9, 1, 6),\n"
        "    lambda: _normalize_ext_square(QuadExt(2, (1, 1, 1), 8), (0, 0), 2),\n"
        "    lambda: bezout([0, 1], [0, 1], 3),\n"
        "    lambda: QuadExt(2, (1, 1, 1), 8).div_pi((1, 0)),\n"
        "    lambda: QuadExt(2, (-2, 0, 1), 8).div_pi((1, 0)),\n"
        "]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except (ValueError, CertificateError) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 3 + ["CertificateError"] * 3


# -- the approx route's quaternion step ---------------------------------------------

# Q8 by rho_H on Z3^4 with 3-adic entries known to 40 digits: the approx route
Q8_RHO_H_Z3_APPROX = """jigroup-profile v1
kind va
ring Z3
rank 4
precision 40
degree 8
gen 1 2 3 0 7 4 5 6
gen 4 5 6 7 2 3 0 1
mat 0:40 -1:40 0:40 0:40 1:40 0:40 0:40 0:40 0:40 0:40 0:40 -1:40 0:40 0:40 1:40 0:40
mat 0:40 0:40 -1:40 0:40 0:40 0:40 0:40 1:40 1:40 0:40 0:40 0:40 0:40 -1:40 0:40 0:40
"""


def test_approx_route_splits_a_quaternion_commutant_at_3(monkeypatch):
    """With the sampled minimal polynomials and the spin search both made
    silent, the approx route reaches its quaternion step: (-1, -1) splits
    over Q_3, and the two pieces are invariant planes."""
    from jigroup import padic
    from jigroup.hilbert import hilbert_symbol
    from jigroup.profile_io import parse_profile_kind

    rep = parse_profile_kind(Q8_RHO_H_Z3_APPROX, "va").action
    assert rep.ring == ("Zp", 3)
    assert hilbert_symbol(-1, -1, 3) == 1
    reached = []
    real_quaternion = padic._approx_quaternion
    monkeypatch.setattr(padic, "_approx_ladder", lambda coeffs, p: (None, "patched"))
    monkeypatch.setattr(padic, "_spin_split", lambda *args, **kwargs: None)
    monkeypatch.setattr(padic, "_approx_quaternion",
                        lambda *args: reached.append(args) or real_quaternion(*args))
    kind, info = padic._qp_analyze(rep, 3, 40)
    assert reached
    assert kind == "split"
    pieces = info["pieces"]
    assert [len(rows) for rows in pieces] == [2, 2]
    floor = 20
    assert PadicMatrix.stack(pieces).rank(floor) == 4
    for rows in pieces:
        assert rows.rank(floor) == 2
        for g in rep.gen_images:
            assert PadicMatrix.stack([rows, rows * g]).rank(floor) == 2


# -- the one-echelon minimal polynomial against the per-degree oracle ----------------


def _minpoly_outcome(f, m):
    try:
        mp = f(m)
    except PrecisionExhausted as exc:
        return str(exc)
    return mp.rows, mp.cap, mp.val


def _shipped_commutant_elements():
    """commutant_approx of each shipped Z_p profile and of its maximal
    restrictions, at 8 digits and at the profile's precision."""
    from jigroup.padic import commutant_approx
    from jigroup.profile_io import parse_profile
    from jigroup.smallgrp import maximal_subgroups

    data = SRC / "jigroup" / "data"
    for name in ("c3_z3", "pro2_dihedral", "q16_va"):
        profile = parse_profile((data / f"{name}.profile").read_text())
        p = profile.p
        reps = [profile.action] + [profile.action.restrict(M)
                                   for M in maximal_subgroups(profile.Q)]
        for rep in reps:
            for prec in (8, profile.precision):
                gens = [g if isinstance(g, PadicMatrix) else PadicMatrix.from_rational(g, p, prec)
                        for g in rep.gen_images]
                yield from commutant_approx(gens, p, prec)


def _random_integer_matrices(seed, count):
    """Integer matrices of dimension 2 to 4 at p = 2, 3, 5 and caps 2 to 16:
    residues, small entries, and a scalar plus p^j times small entries."""
    rng = random.Random(seed)
    for _ in range(count):
        p, d, cap = rng.choice((2, 3, 5)), rng.randint(2, 4), rng.randint(2, 16)
        kind = rng.randrange(3)
        if kind == 0:
            rows = [[rng.randrange(p**cap) for _ in range(d)] for _ in range(d)]
        elif kind == 1:
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        else:
            a, j = rng.randint(-3, 3), rng.randint(0, cap + 1)
            rows = [[a * (i == k) + p**j * rng.randint(-2, 2) for k in range(d)]
                    for i in range(d)]
        yield PadicMatrix(p, cap, rows)


def test_pminimal_polynomial_matches_the_per_degree_oracle():
    from jigroup.padic import pminimal_polynomial
    from oracles import minimal_polynomial_by_degree

    mats = list(_shipped_commutant_elements()) + list(_random_integer_matrices(7, 300))
    degrees = set()
    for m in mats:
        got = _minpoly_outcome(pminimal_polynomial, m)
        assert got == _minpoly_outcome(minimal_polynomial_by_degree, m), m
        degrees.add(len(got[0][0]) - 1)
    assert degrees == {1, 2, 3, 4}
    # known to no digit: both raise at the first pivot decision
    blind = PadicMatrix(3, 0, [[1, 2], [0, 1]])
    assert _minpoly_outcome(pminimal_polynomial, blind) == (
        _minpoly_outcome(minimal_polynomial_by_degree, blind))
    assert _minpoly_outcome(pminimal_polynomial, blind) == "pivot decision beyond precision"


def test_pminimal_polynomial_runs_one_echelon(monkeypatch):
    from jigroup import padic

    calls = []
    real = padic.prow_echelon
    monkeypatch.setattr(padic, "prow_echelon",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for m in list(_shipped_commutant_elements())[:20] + list(_random_integer_matrices(8, 20)):
        calls.clear()
        padic.pminimal_polynomial(m)
        assert len(calls) == 1


def _constituent_inputs():
    from jigroup.fixtures import q16_integral_rep
    from test_padic_ext import q8c3_rep

    yield q16_integral_rep(), 2, 32
    yield q16_integral_rep(), 2, 64
    yield c3_companion_rep(), 7, None
    yield q8_quaternion_rep(), 3, None
    yield q8c3_rep(25), 5, 32
    yield q8c3_rep(9), 3, 32


def test_constituent_rep_matches_the_element_by_element_oracle(monkeypatch):
    """On every constituent padic_split builds, the closed generator images
    agree entry by entry, to the lesser cap, with one coords echelon per
    group element."""
    from jigroup import padic
    from oracles import constituent_rep_by_elements

    calls = []
    real = padic._constituent_rep

    def compared(rep, rows, p, n):
        new = real(rep, rows, p, n)
        old = constituent_rep_by_elements(rep, rows, p, n)
        assert list(new.element_map) == list(old.element_map)
        for perm, m in new.element_map.items():
            assert (m - old.element_map[perm]).is_zero()
            assert min(m.cap, old.element_map[perm].cap) >= n // 2
        assert (new.faithful, new.dimension) == (old.faithful, old.dimension)
        calls.append(n)
        return new

    monkeypatch.setattr(padic, "_constituent_rep", compared)
    for rep, p, prec in _constituent_inputs():
        calls.clear()
        padic_split(rep, p, prec)
        assert len(calls) == 2


def test_constituent_rep_runs_coords_once_per_generator(monkeypatch):
    from jigroup import ratmat as rm
    from jigroup.fixtures import q16_integral_rep
    from jigroup.padic import _constituent_rep

    calls = []
    real = PadicMatrix.coords
    monkeypatch.setattr(PadicMatrix, "coords",
                        lambda self, *args: calls.append(1) or real(self, *args))
    rep = q16_integral_rep()
    sub = _constituent_rep(rep, rm.identity(8), 2, 32)
    assert len(calls) == len(rep.group.generators) == 2
    assert len(sub.element_map) == 16 and sub.faithful


def test_constituent_breaking_a_relation_is_precision_exhausted():
    # 3 is a 2-adic unit, but its square is not 1: the generator of C2
    # cannot map to it, and the closure says so at the cap
    from jigroup import ratmat as rm
    from jigroup.padic import _constituent_rep
    from jigroup.rep import MatRep

    G = catalog.cyclic(2)
    three = rm.mat([[3]])
    rep = MatRep(G, [three], {G.generators[0]: three}, frozenset([G.identity()]))
    with pytest.raises(PrecisionExhausted, match="violate the relation"):
        _constituent_rep(rep, [[1]], 2, 16)
