"""Property tests for the invariants that quantify over inputs."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jigroup import catalog
from jigroup import ratmat as rm
from jigroup.hilbert import REAL_PLACE, _valuation_and_unit, hilbert_symbol
from jigroup.padic import PadicMatrix, PrecisionExhausted, qp_factor_count
from jigroup.perm import PermGroup
from jigroup.ratmat import poly_trim
from jigroup.zpoly import is_squarefree

import corpora
from oracles import closure_order_bruteforce, fraction_solve

nonzero_rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30)
).filter(lambda q: q != 0)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=200, deadline=None)
def test_hilbert_symmetric(a, b, p):
    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


@given(nonzero_rationals, nonzero_rationals, nonzero_rationals,
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=150, deadline=None)
def test_hilbert_bimultiplicative(a1, a2, b, p):
    assert hilbert_symbol(a1 * a2, b, p) == hilbert_symbol(a1, b, p) * hilbert_symbol(
        a2, b, p
    )


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=100, deadline=None)
def test_hilbert_real_rule(a, b):
    assert hilbert_symbol(a, b, REAL_PLACE) == (-1 if a < 0 and b < 0 else 1)


small_rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 1, 1, 2, 3, 4, 5]))


def rational_matrix(rows, cols):
    return st.lists(st.lists(small_rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _agrees(kernel, exact):
    """The kernel matrix equals the exact rational one mod p^cap."""
    return (kernel - PadicMatrix.from_rational(exact, kernel.p, kernel.cap + 64)).is_zero()


@given(st.data(), st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_padic_matrix_matches_exact_linear_algebra(data, p, r, k, m):
    """Product, rank, nullspace, solve, saturation, determinant valuation and
    inverse of the capped-absolute kernel against exact ratmat results,
    compared mod p^cap."""
    prec = 48
    a = data.draw(rational_matrix(r, k))
    b = data.draw(rational_matrix(k, m))
    c = data.draw(rational_matrix(m, r))
    pa, pb = PadicMatrix.from_rational(a, p, prec), PadicMatrix.from_rational(b, p, prec)
    prod = pa * pb
    assert prod.cap == min(pa.cap + pb.val, pb.cap + pa.val)
    assert _agrees(prod, rm.mat_mul(a, b))
    rank = rm.rank(a)
    assert pa.rank() == rank
    ns = pa.nullspace()
    exact_ns = rm.nullspace(a)
    assert len(ns) == len(exact_ns) == k - rank
    if exact_ns:
        assert _agrees(ns, exact_ns)
        assert (pa * ns.transpose()).is_zero()
    # X . a = c . a: X is c itself when the rows of a are independent
    images = rm.mat_mul(c, a)
    x = pa.coords(PadicMatrix.from_rational(images, p, prec))
    assert _agrees(x * pa, images)
    if rank == r:
        assert _agrees(x, c)
    outside = [e for e in rm.identity(k) if rm.rank(list(a) + [e]) > rank]
    if outside:
        with pytest.raises(PrecisionExhausted):
            pa.coords(PadicMatrix.from_rational([outside[0]], p, prec))
    # saturation: integral rows of the same span, pure (a unit minor mod p)
    sat = pa.saturate(prec // 2)
    assert len(sat) == rank and sat.min_valuation() >= 0
    assert PadicMatrix.stack([sat, pa]).rank() == rank
    if rank:
        low = [[x % p for x in row] for row in sat.residues(1)]
        assert any(rm.mat_det([[row[j] for j in cols] for row in low]) % p
                   for cols in itertools.combinations(range(k), rank))
    if r == k:
        det = rm.mat_det(a)
        if det:
            assert pa.det_valuation() == _valuation_and_unit(det, p)[0]
            assert _agrees(pa.inverse(), rm.mat_inv(a))
        else:
            with pytest.raises(PrecisionExhausted):
                pa.det_valuation()
            assert pa.inverse() is None


@given(st.data(), st.integers(1, 4), st.integers(2, 5), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_coords_matches_one_fraction_solve_per_image(data, r, k, m):
    """rm.coords against a Fraction solve per image, on rows that are often
    dependent (a last row summing two others, or a zero row) and images that
    are combinations of the rows or free vectors, which may fall off the
    span."""
    rows = data.draw(rational_matrix(r, k))
    if r > 2 and data.draw(st.booleans()):
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    images = []
    for _ in range(m):
        if data.draw(st.booleans()):
            images.append(data.draw(rational_matrix(1, k))[0])
            continue
        c = data.draw(st.lists(small_rationals, min_size=r, max_size=r))
        images.append([sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(k)])
    want = [fraction_solve(rm.mat_transpose(rm.mat(rows)), img) for img in images]
    got = rm.coords(rm.mat(rows), rm.mat(images))
    if None in want:
        assert got is None
    else:
        assert got == tuple(want)
        assert all(type(x) is Fraction for row in got for x in row)


@given(st.permutations(range(6)), st.permutations(range(6)))
@settings(max_examples=50, deadline=None)
def test_chain_order_equals_closure(p1, p2):
    gens = [tuple(p1), tuple(p2)]
    G = PermGroup(gens)
    assert G.order == closure_order_bruteforce(gens)


@given(st.permutations(range(6)), st.permutations(range(6)), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_orbits_generating_set_invariance(p1, p2, seed):
    gens = [tuple(p1), tuple(p2)]
    G = PermGroup(gens)
    if G.order > 2000:
        return
    rng = random.Random(seed)
    els = G.elements(5000)
    alt = [els[rng.randrange(len(els))] for _ in range(3)] + gens
    G2 = PermGroup(alt)
    if G2.order == G.order:
        assert G.orbits() == G2.orbits()


def _fp_factor_count_oracle(f, p):
    """Trial division by every monic polynomial of degree <= 2 over F_p."""
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    inv = pow(f[-1], p - 2, p)
    f = [c * inv % p for c in f]

    def divmod_fp(a, b):
        a = list(a)
        binv = pow(b[-1], p - 2, p)
        q = [0] * max(0, len(a) - len(b) + 1)
        while len(a) >= len(b):
            c = a[-1] * binv % p
            q[len(a) - len(b)] = c
            for j, x in enumerate(b):
                a[len(a) - len(b) + j] = (a[len(a) - len(b) + j] - c * x) % p
            while a and a[-1] == 0:
                a.pop()
        return q, a

    def irreducible(g):
        if len(g) - 1 == 1:
            return True
        for r in range(p):
            acc = 0
            for c in reversed(g):
                acc = (acc * r + c) % p
            if acc == 0:
                return False
        if len(g) - 1 <= 3:
            return True  # no roots and degree <= 3
        for b0 in range(p):
            for b1 in range(p):
                q, r = divmod_fp(list(g), [b0, b1, 1])
                if not r:
                    return False
        return True

    count = 0
    work = list(f)
    for deg in (1, 2):
        coeffs = (
            [[c, 1] for c in range(p)]
            if deg == 1
            else [[c0, c1, 1] for c0 in range(p) for c1 in range(p)]
        )
        for g in coeffs:
            if deg == 2 and not irreducible(g):
                continue
            while True:
                q, r = divmod_fp(work, g)
                if r or len(work) < len(g):
                    break
                work = q
                count += 1
    if len(work) > 1:
        count += 1  # a single factor of degree 3 or 4 remains
        assert irreducible(work)
    return count


@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=5),
    st.sampled_from([2, 3, 5]),
)
@example([1, 0, 2], 2)  # 2x^2 + 1 at 2: a single slope 1/2
@settings(max_examples=300, deadline=None)
def test_qp_factor_count_against_trial_division(coeffs, p):
    f = poly_trim(coeffs)
    if len(f) < 3 or not is_squarefree(f):
        return
    fi = tuple(int(c) for c in f)
    report = qp_factor_count(fi, p)
    if report.method == "squarefree_hensel":
        assert report.factor_count == _fp_factor_count_oracle(list(fi), p)
    elif report.method == "eisenstein_shift":
        assert report.factor_count == 1
    elif report.method == "single_newton_slope":
        assert report.factor_count == 1
        assert _single_slope_oracle(fi, p)
    else:
        assert report.factor_count is None
        assert report.detail["lower_bound"] >= 1


def _vp_slow(n, p):
    return next(k for k in itertools.count() if n % p ** (k + 1))


def _single_slope_oracle(f, p):
    """Irreducibility over Q_p, checked slowly: a quadratic's discriminant is
    not a square in Q_p (p^v u is one iff v is even and u is a square mod
    p^3); a higher degree has every point (i, v(f_i)) on or above the segment
    from (0, v(f_0)) to (n, v(f_n)), whose slope has denominator n."""
    n = len(f) - 1
    if n == 2:
        disc = f[1] ** 2 - 4 * f[0] * f[2]
        v = _vp_slow(disc, p)
        u = disc // p**v
        return v % 2 == 1 or all((x * x - u) % p**3 for x in range(p**3))
    v0, vn = _vp_slow(f[0], p), _vp_slow(f[n], p)
    return math.gcd(vn - v0, n) == 1 and all(
        n * _vp_slow(c, p) >= v0 * (n - i) + vn * i for i, c in enumerate(f) if c)


def test_min_faithful_degree_one_iff_cyclic():
    from jigroup.chartab import min_faithful_degree

    cases = [
        (catalog.cyclic(2), True),
        (catalog.cyclic(6), True),
        (catalog.cyclic(9), True),
        (catalog.klein_four(), False),
        (catalog.symmetric(3), False),
        (catalog.quaternion(8), False),
        (catalog.dihedral(4), False),
    ]
    for G, cyclic in cases:
        assert (min_faithful_degree(G) == 1) == cyclic


def test_modp_spinning_consistency():
    """If the mod-p reduction is irreducible, the rational verdict cannot be
    reducible (p coprime to the group order; exhaustive line/plane check)."""
    from itertools import product

    from jigroup.rep import irreducible_over_Q, rep_from_data

    def fp_irreducible(rep, p):
        d = rep.dimension
        mats = [
            [[int(x) % p for x in row] for row in m] for m in rep.gen_images
        ]
        # enumerate invariant lines (enough for d = 2)
        assert d == 2
        vectors = [v for v in product(range(p), repeat=d) if any(v)]
        for v in vectors:
            line_ok = True
            for m in mats:
                img = [
                    sum(v[k] * m[k][j] for k in range(d)) % p for j in range(d)
                ]
                # img must be proportional to v
                if (img[0] * v[1] - img[1] * v[0]) % p:
                    line_ok = False
                    break
            if line_ok:
                return False
        return True

    rep = rep_from_data(catalog.cyclic(3), [[[0, -1], [1, -1]]])
    for p in (5, 11):
        if fp_irreducible(rep, p):
            assert irreducible_over_Q(rep).status != "reducible"


def test_va_equals_subgroup_ji_at_full_group():
    from jigroup.perm import SubgroupHandle
    from jigroup.profiles import subgroup_ji, va_just_infinite

    for profile in (corpora.c3_rank2_profile(), corpora.pro2_dihedral_profile()):
        full = SubgroupHandle.full(profile.Q)
        assert va_just_infinite(profile).status == subgroup_ji(profile, full).status
