"""The stdlib prime tests and factorization over Q, against sympy as oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from jigroup import padic
from jigroup import ratmat as rm
from jigroup import zpoly
from jigroup.verdicts import CertificateError

X = sympy.Symbol("x")


def _sympy_factor_q(coeffs):
    """poly_factor_q's contract, computed by sympy.factor_list."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, X, domain="QQ"))
    out = []
    for fac, mult in factors:
        cs = [Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
              for c in fac.all_coeffs()[::-1]]
        out.append((tuple(c / cs[-1] for c in cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def _random_factor(rng):
    degree = rng.randint(1, 4)
    lead = rng.choice([1, -1, 2, 3, -4, 6])
    return [Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(degree)] + [lead]


def _random_product(rng):
    f = (Fraction(rng.randint(1, 9), rng.randint(1, 9)),)
    while rm.poly_deg(f) < 1 or (rng.random() < 0.6 and rm.poly_deg(f) < 6):
        g = _random_factor(rng)
        for _ in range(rng.choice([1, 1, 2, 3])):
            if rm.poly_deg(f) + len(g) - 1 <= 8:
                f = zpoly.mul(f, g)
    return f


SWINNERTON_DYER_3 = (576, 0, -960, 0, 352, 0, -40, 0, 1)  # x +- sqrt2 +- sqrt3 +- sqrt5

FORCED_RECOMBINATION = [
    (1, 0, 0, 0, 1),  # x^4 + 1 splits mod every prime
    (1, 0, -10, 0, 1),  # x +- sqrt2 +- sqrt3
    SWINNERTON_DYER_3,
    zpoly.mul((1, 0, 0, 0, 1), (1, 0, -10, 0, 1)),
    zpoly.mul((1, 0, -10, 0, 1), zpoly.mul((1, 0, -10, 0, 1), (-3, 0, 4))),
    (0, 0, 0, Fraction(1, 3)),
    (Fraction(7, 2),),
]


@pytest.mark.parametrize("seed", range(4))
def test_poly_factor_q_matches_sympy_on_random_products(seed):
    rng = random.Random(seed)
    for _ in range(60):
        f = rm.poly_trim(_random_product(rng))
        assert rm.poly_factor_q(f) == _sympy_factor_q(f), f


@pytest.mark.parametrize("f", FORCED_RECOMBINATION)
def test_poly_factor_q_matches_sympy_where_recombination_is_forced(f):
    f = rm.poly_trim(f)
    assert rm.poly_factor_q(f) == _sympy_factor_q(f)


# (x^3 + x^2 + 3x + 4)(x^3 + 2x^2 + 4x + 4): no linear base x + c splits it mod 5
SEXTIC_MOD_5 = [1, 3, 4, 3, 4, 3, 6]


def test_split_mod_p_where_no_linear_base_splits():
    # 2 and 3 divide the leading coefficient, so 5 is the least good prime
    f = SEXTIC_MOD_5
    factors = zpoly.fp_factor_squarefree_monic(zpoly.trim(f, 5), 5)
    assert sorted(factors) == [[4, 3, 1, 1], [4, 4, 2, 1]]
    assert rm.poly_factor_q(rm.poly_trim(f)) == _sympy_factor_q(rm.poly_trim(f))
    assert padic.qp_factor_count([4, 3, 1, 1], 5).factor_count == 1
    product = zpoly.mul([4, 3, 1, 1], [4, 4, 2, 1])
    assert padic.qp_factor_count([int(c) for c in product], 5).factor_count == 2


def _mul_mod(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _monic_irreducibles(d, p):
    """Monic degree-d polynomials over F_p with no monic factor of degree 1..d/2."""
    def monics(k):
        for c in range(p**k):
            yield [c // p**i % p for i in range(k)] + [1]

    def divides(g, f):
        f = list(f)
        for k in range(len(f) - len(g), -1, -1):
            q = f[k + len(g) - 1]
            for j, b in enumerate(g):
                f[k + j] = (f[k + j] - q * b) % p
        return not any(f)

    return [f for f in monics(d)
            if not any(divides(g, f) for k in range(1, d // 2 + 1) for g in monics(k))]


@pytest.mark.parametrize("p,d", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_equal_degree_split_of_every_product_of_two_irreducibles(p, d):
    irreducibles = _monic_irreducibles(d, p)
    pairs = [(g, h) for i, g in enumerate(irreducibles) for h in irreducibles[i + 1:]]
    assert len(pairs) == {(2, 3): 1, (2, 4): 3, (2, 5): 15, (3, 2): 3, (3, 3): 28,
                          (5, 2): 45, (5, 3): 780}[p, d]
    for g, h in pairs:
        assert sorted(zpoly._fp_equal_degree(_mul_mod(g, h, p), d, p)) == sorted([g, h])


STRONG_PSEUDOPRIMES = [
    3215031751,  # to the bases 2, 3, 5, 7
    3825123056546413051,  # to the bases 2, ..., 23
    318665857834031151167461,  # to the bases 2, ..., 37
    3317044064679887385961981,  # to the bases 2, ..., 41: the Lucas test decides
]


def test_isprime_matches_sympy_below_a_million():
    primes = set(sympy.primerange(10**6))
    assert [n for n in range(-2, 10**6) if zpoly.isprime(n)] == sorted(primes)


def test_isprime_matches_sympy_on_large_numbers():
    rng = random.Random(0)
    numbers = STRONG_PSEUDOPRIMES + [2**61 - 1, 2**89 - 1, 2**127 - 1, (2**61 - 1) ** 2,
                                     (10**12 + 39) * (10**13 + 37)]
    numbers += [rng.randrange(10**6, 10**30) | 1 for _ in range(400)]
    numbers += [sympy.nextprime(rng.randrange(10**20, 10**40)) for _ in range(20)]
    for n in numbers:
        assert zpoly.isprime(n) == sympy.isprime(n), n
    assert not any(zpoly.isprime(n) for n in STRONG_PSEUDOPRIMES)


def test_primefactors_matches_sympy():
    rng = random.Random(0)
    near_1e9 = [sympy.prevprime(10**9 - rng.randrange(10**6)) for _ in range(6)]
    numbers = [0, 1, -1, -12, 2**40, 997**3, 1009**2 * 3]
    numbers += [a * b for a, b in zip(near_1e9, near_1e9[1:])]
    numbers += [rng.randrange(-10**15, 10**15) for _ in range(300)]
    numbers += STRONG_PSEUDOPRIMES
    for n in numbers:
        assert zpoly.primefactors(n) == sympy.primefactors(n), n


# -- the shared arithmetic over Q, F_p and Z/p^k --------------------------------------


def _to_sympy(f, p=None):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, f)]
    if p is None:
        return sympy.Poly(coeffs[::-1] or [0], X, domain="QQ")
    return sympy.Poly(coeffs[::-1] or [0], X, modulus=p)


def _from_sympy(poly, p=None):
    if p is None:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, poly.all_coeffs())]
    else:
        coeffs = [int(c) % p for c in poly.all_coeffs()]
    return zpoly.trim(coeffs[::-1])


def _random_poly(rng, p, degree):
    if p is None:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)] + [
            Fraction(rng.choice([1, -1, 2, 3, -5]), rng.randint(1, 4))]
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _random_pairs(rng, p, count):
    """(f, g) pairs, g nonzero; about half share a common factor."""
    for _ in range(count):
        f = _random_poly(rng, p, rng.randint(0, 6))
        g = _random_poly(rng, p, rng.randint(0, 4))
        if rng.random() < 0.5:
            common = _random_poly(rng, p, rng.randint(1, 2))
            f, g = zpoly.mul(f, common, p), zpoly.mul(g, common, p)
        if rng.random() < 0.3:
            f = zpoly.mul(f, zpoly.mul(g, g, p), p)  # repeated factors
        yield f, g


RINGS = [None, 2, 3, 5, 7]


@pytest.mark.parametrize("p", RINGS, ids=lambda p: "Q" if p is None else f"F{p}")
def test_division_gcd_and_squarefree_match_sympy(p):
    rng = random.Random(p or 0)
    for f, g in _random_pairs(rng, p, 150):
        q, r = zpoly.quo_rem(f, g, p)
        want_q, want_r = _to_sympy(f, p).div(_to_sympy(g, p))
        assert (q, r) == (_from_sympy(want_q, p), _from_sympy(want_r, p)), (f, g)
        want_gcd = _to_sympy(f, p).gcd(_to_sympy(g, p)).monic()
        assert zpoly.monic_gcd(f, g, p) == _from_sympy(want_gcd, p), (f, g)
        # sympy's Poly.is_sqf calls (x + 1)^2 over F_2 squarefree: read the
        # multiplicities of its factorization instead
        squarefree = all(m == 1 for _, m in _to_sympy(f, p).factor_list()[1])
        assert zpoly.is_squarefree(f, p) == squarefree, f


@pytest.mark.parametrize("p", RINGS, ids=lambda p: "Q" if p is None else f"F{p}")
def test_bezout_matches_sympy_and_rejects_a_common_factor(p):
    rng = random.Random(p or 0)
    coprime = 0
    for f, g in _random_pairs(rng, p, 150):
        f = f or [1]
        want_s, want_t, h = _to_sympy(f, p).gcdex(_to_sympy(g, p))
        if _from_sympy(h, p) == [1]:
            coprime += 1
            assert zpoly.bezout(f, g, p) == (_from_sympy(want_s, p), _from_sympy(want_t, p))
        else:
            with pytest.raises(CertificateError):
                zpoly.bezout(f, g, p)
    assert 20 < coprime < 130
    with pytest.raises(CertificateError):
        zpoly.bezout([0, 1], [0, 1], p)


@pytest.mark.parametrize("p, k", [(2, 5), (3, 4), (5, 3)])
def test_division_over_z_mod_prime_powers(p, k):
    # a monic divisor divides over Z, so the residues of sympy's quotient and
    # remainder are the ones mod p^k; a unit leading coefficient is checked
    # by q g + r = f with deg r < deg g
    rng = random.Random(p)
    m = p**k
    for _ in range(200):
        f = [rng.randrange(-m, m) for _ in range(rng.randint(0, 8))]
        g = [rng.randrange(-m, m) for _ in range(rng.randint(0, 4))] + [1]
        q, r = zpoly.quo_rem(f, g, m)
        want_q, want_r = _to_sympy(f).div(_to_sympy(g))
        assert (q, r) == (zpoly.trim(_from_sympy(want_q), m), zpoly.trim(_from_sympy(want_r), m))
        g[-1] = rng.choice([u for u in range(1, m) if u % p])
        q, r = zpoly.quo_rem(f, g, m)
        assert len(r) < len(g)
        assert zpoly.add(zpoly.mul(q, g), r, m) == zpoly.trim(f, m)
