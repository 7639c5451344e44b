"""The stdlib prime tests and factorization over Q, against sympy as oracle."""

import random
from fractions import Fraction

import pytest
import sympy

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
                f = rm.poly_mul(f, g)
    return f


SWINNERTON_DYER_3 = (576, 0, -960, 0, 352, 0, -40, 0, 1)  # x +- sqrt2 +- sqrt3 +- sqrt5

FORCED_RECOMBINATION = [
    (1, 0, 0, 0, 1),  # x^4 + 1 splits mod every prime
    (1, 0, -10, 0, 1),  # x +- sqrt2 +- sqrt3
    SWINNERTON_DYER_3,
    rm.poly_mul((1, 0, 0, 0, 1), (1, 0, -10, 0, 1)),
    rm.poly_mul((1, 0, -10, 0, 1), rm.poly_mul((1, 0, -10, 0, 1), (-3, 0, 4))),
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


def test_failed_split_mod_p_moves_to_the_next_prime():
    # 2 and 3 divide the leading coefficient, so 5 is the least good prime;
    # mod 5 the polynomial is a product of two irreducible cubics that the
    # linear bases x + c of the equal-degree search do not separate.
    f = [1, 3, 4, 3, 4, 3, 6]
    with pytest.raises(CertificateError):
        zpoly.fp_factor_squarefree_monic(zpoly._fp_trim(f, 5), 5)
    assert rm.poly_factor_q(rm.poly_trim(f)) == _sympy_factor_q(rm.poly_trim(f))


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
