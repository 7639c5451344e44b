"""Hilbert symbols and quaternion-algebra division tests, exact over Q.

Closed formulas at every place (odd p, p = 2, the real place).  The test
suite checks them against a brute-force local solubility oracle, kept in
`tests/oracles.py`: z^2 = a x^2 + b y^2 has a nontrivial p-adic solution
iff it has a primitive solution mod p^K for K = 2 v_p(2) + 1 +
2 max(v_p(a), v_p(b)).
"""

from __future__ import annotations

from fractions import Fraction

from .zpoly import isprime, primefactors

REAL_PLACE = "real"


def _valuation_and_unit(q, p):
    """q = p^v * u with u a p-adic unit; q a nonzero Fraction."""
    q = Fraction(q)
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _legendre(u, p):
    """Legendre symbol of a p-adic unit (given as a Fraction) for odd p."""
    num = u.numerator % p
    den = u.denominator % p
    a = num * pow(den, p - 2, p) % p
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def _unit_mod8(u):
    num = u.numerator % 8
    den = u.denominator % 8
    inv8 = {1: 1, 3: 3, 5: 5, 7: 7}[den]
    return num * inv8 % 8


def hilbert_symbol(a, b, place):
    """(a, b) at a finite prime p or at the real place; returns +1 or -1.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not (isinstance(p, int) and isprime(p)):
        raise ValueError(f"not a place: {place!r}")
    alpha, u = _valuation_and_unit(a, p)
    beta, v = _valuation_and_unit(b, p)
    if p != 2:
        sign = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= _legendre(u, p)
        if alpha % 2:
            sign *= _legendre(v, p)
        return sign
    # p = 2: epsilon(u) = (u-1)/2, omega(u) = (u^2-1)/8 on unit parts mod 8
    u8, v8 = _unit_mod8(u), _unit_mod8(v)
    eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
    om_u, om_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
    exponent = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if exponent % 2 else 1


def quaternion_is_division(a, b, field):
    """Is the quaternion algebra (a, b) a division algebra over the field?

    field: 'Q', ('Qp', p), or 'R'.  Over Q the scanned set of places is 2,
    the real place, and every prime dividing a numerator or denominator of
    a or b, which carries the whole conductor.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("quaternion algebras require nonzero parameters")
    if field == "R":
        return hilbert_symbol(a, b, REAL_PLACE) == -1
    if isinstance(field, tuple) and field[0] == "Qp":
        return hilbert_symbol(a, b, field[1]) == -1
    if field == "Q":
        support = primefactors(a.numerator * a.denominator * b.numerator * b.denominator)
        places = [REAL_PLACE] + sorted(set(support) | {2})
        return any(hilbert_symbol(a, b, pl) == -1 for pl in places)
    raise ValueError(f"unknown field: {field!r}")

