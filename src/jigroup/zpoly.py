"""Exact integer algebra in the standard library: prime tests, prime
factors, polynomial arithmetic, and factorization over Q.

This is the package's one polynomial module.  Polynomials are coefficient
lists, lowest degree first, with no trailing zeros.  Addition,
multiplication, derivative, division with remainder, the monic gcd, Bezout
coefficients and the squarefree test each have one implementation, which
takes the coefficient ring as `mod`: None for Q, else Z/mod.  The Z[x]
helpers of Zassenhaus (exact quotient, pseudo-remainder, primitive gcd)
are kept apart.

- `isprime`: trial division, then Miller-Rabin on the prime bases 2..41,
  which is deterministic below 3.3e24 (Sorenson and Webster, 2017); above
  that a strong Lucas test makes it the Baillie-PSW test.
- `primefactors`: trial division, then Pollard rho in Brent's form (Cohen,
  A Course in Computational Algebraic Number Theory, section 8.5).
- `factor_q`: Zassenhaus (von zur Gathen and Gerhard, Modern Computer
  Algebra, ch. 15): clear denominators, Yun's squarefree decomposition,
  the least prime p that divides neither the leading coefficient nor the
  discriminant, factors mod p, one multifactor Hensel lift to p^k past the
  Mignotte bound, and recombination of subsets by trial division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, count, zip_longest
from math import gcd, isqrt, lcm

from .verdicts import CertificateError

_SMALL_PRIMES = [q for q in range(2, 1000) if all(q % d for d in range(2, isqrt(q) + 1))]
_MR_BASES = _SMALL_PRIMES[:13]  # 2, 3, ..., 41
# Least composite that is a strong pseudoprime to every base in _MR_BASES
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BOUND = 3317044064679887385961981


# -- primes ------------------------------------------------------------------------


def isprime(n):
    """Whether the int n is prime."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
        if q * q > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


def _jacobi(a, n):
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of an odd n > 1 that is not a
    square, with Selfridge's parameters (Baillie and Wagstaff, 1980)."""
    if isqrt(n) ** 2 == n:
        return False
    dd = 5
    while _jacobi(dd, n) != -1:
        dd = -dd - 2 if dd > 0 else -dd + 2
    q = (1 - dd) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    half = (n + 1) // 2
    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (dd * u + v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _pollard_rho(n):
    """A proper factor of an odd composite n (Brent's cycle search)."""
    for c in count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def primefactors(n):
    """The distinct primes dividing the int n, ascending ([] for 0 and +-1)."""
    n = abs(n)
    out = []
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if isprime(m):
            out.append(m)
        else:
            d = _pollard_rho(m)
            todo += [d, m // d]
    return sorted(set(out))


def _primes():
    return (q for q in count(2) if isprime(q))


# -- arithmetic over Q and Z/m -----------------------------------------------------
#
# Each operation takes the coefficient ring as `mod`: None for Q (Fraction
# coefficients; ints are taken as rationals), else Z/mod (ints, reduced into
# [0, mod)).  Only the inverse of a leading coefficient and the reduction
# depend on it.  Division, gcd and Bezout need unit leading coefficients,
# so over Z/mod they are meant for a prime mod, or a monic divisor.


def trim(f, mod=None):
    """f as a list without trailing zeros, reduced mod `mod` unless it is None."""
    f = list(f) if mod is None else [c % mod for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _unit_inverse(c, mod):
    return 1 / Fraction(c) if mod is None else pow(c, -1, mod)


def add(f, g, mod=None):
    return trim([a + b for a, b in zip_longest(f, g, fillvalue=0)], mod)


def sub(f, g, mod=None):
    return trim([a - b for a, b in zip_longest(f, g, fillvalue=0)], mod)


def mul(f, g, mod=None):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return trim(out, mod)


def deriv(f, mod=None):
    return trim([i * c for i, c in enumerate(f)][1:], mod)


def monic(f, mod=None):
    """f divided by its leading coefficient ([] for the zero polynomial)."""
    if not f:
        return []
    inv = _unit_inverse(f[-1], mod)
    return trim([c * inv for c in f], mod)


def quo_rem(f, g, mod=None):
    """(quotient, remainder) of f by g; g's leading coefficient must be a unit."""
    f, g = trim(f, mod), trim(g, mod)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = _unit_inverse(g[-1], mod)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = f[-1] * inv if mod is None else f[-1] * inv % mod
        k = len(f) - len(g)
        q[k] = c
        for j, b in enumerate(g, k):
            f[j] -= c * b
        f = trim(f, mod)
    return trim(q), f


def monic_gcd(f, g, mod=None):
    """The monic gcd of f and g ([] when both are zero)."""
    f, g = trim(f, mod), trim(g, mod)
    while g:
        f, g = g, quo_rem(f, g, mod)[1]
    return monic(f, mod)


def bezout(f, g, mod=None):
    """(s, t) with s f + t g = 1; raises CertificateError when the gcd of f
    and g is not 1."""
    r0, r1 = trim(f, mod), trim(g, mod)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = quo_rem(r0, r1, mod)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, mod), mod)
        t0, t1 = t1, sub(t0, mul(q, t1, mod), mod)
    if len(r0) != 1:
        raise CertificateError("Bezout factors are not coprime")
    inv = _unit_inverse(r0[0], mod)
    return trim([c * inv for c in s0], mod), trim([c * inv for c in t0], mod)


def is_squarefree(f, mod=None):
    return len(monic_gcd(f, deriv(f, mod), mod)) == 1


# -- factoring over F_p ------------------------------------------------------------


def _fp_pow_mod(base, e, modulus, p):
    """base^e modulo the polynomial `modulus`, over F_p."""
    out = [1]
    base = quo_rem(base, modulus, p)[1]
    while e:
        if e & 1:
            out = quo_rem(mul(out, base, p), modulus, p)[1]
        base = quo_rem(mul(base, base, p), modulus, p)[1]
        e >>= 1
    return out


def fp_factor_squarefree_monic(fbar, p):
    return _fp_factor_squarefree(monic(fbar, p), p)


def _fp_factor_squarefree(f, p):
    """Factor a squarefree monic poly over F_p into irreducibles."""
    out = []
    # distinct-degree decomposition
    work = list(f)
    d = 1
    x = [0, 1]
    while len(work) - 1 >= 2 * d:
        g = monic_gcd(work, sub(_fp_pow_mod(x, p**d, work, p), x, p), p)
        if len(g) > 1:
            out.extend(_fp_equal_degree(g, d, p))
            work = quo_rem(work, g, p)[0]
        d += 1
    if len(work) > 1:
        out.append(work)
    return out


def _fp_equal_degree(f, d, p):
    """Split a product of distinct degree-d irreducibles (deterministic search).

    Each base b gives the factor gcd(f, b^((p^d - 1)/2) - 1), or for p = 2
    gcd(f, b + b^2 + b^4 + ... + b^(2^(d-1))).  The bases are x + c for odd
    p, or the 64 polynomials of degree < 6 for p = 2, and then every other
    polynomial of degree < deg f, read off the base-p digits of 0, 1, 2, ...
    By the Chinese remainder theorem some b of degree < deg f is a square
    (trace 0) modulo one irreducible factor and not modulo another, so the
    search ends unless f is not such a product.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    first = range(64) if p == 2 else range(p, 2 * p)
    e = (p**d - 1) // 2
    for c in chain(first, (c for c in range(1, p**n) if c not in first)):
        base = _poly_from_digits(c, p)
        if p == 2:
            h, cur = [], base
            for _ in range(d):
                h = add(h, cur, p)
                cur = quo_rem(mul(cur, cur, p), f, p)[1]
        else:
            h = sub(_fp_pow_mod(base, e, f, p), [1], p)
        g = monic_gcd(f, h, p)
        if 1 < len(g) < len(f):
            return _fp_equal_degree(g, d, p) + _fp_equal_degree(quo_rem(f, g, p)[0], d, p)
    raise CertificateError("equal-degree splitting failed")


def _poly_from_digits(c, p):
    """The polynomial over F_p whose coefficients are the base-p digits of c."""
    out = []
    while c:
        c, r = divmod(c, p)
        out.append(r)
    return out or [0]


# -- Z[x] --------------------------------------------------------------------------


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    if not f:
        return []
    c = gcd(*f)
    c = -c if f[-1] < 0 else c
    return [a // c for a in f]


def exact_quo(f, g):
    """f / g if g divides f in Z[x], else None."""
    f = list(f)
    if len(f) < len(g):
        return [] if not f else None
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(f[k + len(g) - 1], g[-1])
        if r:
            return None
        q[k] = c
        for j, b in enumerate(g):
            f[k + j] -= c * b
    return None if any(f) else q


def _pseudo_rem(f, g):
    f = list(f)
    while len(f) >= len(g):
        c, k = f[-1], len(f) - len(g)
        f = [g[-1] * a for a in f]
        for j, b in enumerate(g):
            f[k + j] -= c * b
        f = trim(f)
    return f


def _primitive_gcd(f, g):
    """The primitive gcd of f and g in Z[x] (primitive remainder sequence)."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_pseudo_rem(f, g))
    return f


def _squarefree_parts(f):
    """Yun: [(g, i)] with f = +-prod g^i, each g primitive, squarefree and of
    positive degree, pairwise coprime; f primitive of positive degree."""
    out = []
    df = deriv(f)
    a = _primitive_gcd(f, df)
    b, c = exact_quo(f, a), exact_quo(df, a)
    i = 1
    while len(b) > 1:
        d = sub(c, deriv(b))
        a = _primitive_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = exact_quo(b, a), exact_quo(d, a)
        i += 1
    return out


def _hensel_step(f, g, h, s, t, mod):
    """From f = g h and s g + t h = 1 mod m, the same mod `mod`, a power of
    p from m to m^2; h monic (von zur Gathen and Gerhard, Algorithm 15.10)."""
    e = sub(f, mul(g, h), mod)
    q, r = quo_rem(mul(s, e), h, mod)
    g = add(add(g, mul(t, e)), mul(q, g), mod)
    h = add(h, r, mod)
    b = sub(add(mul(s, g), mul(t, h)), [1], mod)
    c, d = quo_rem(mul(s, b), h, mod)
    s = sub(s, d, mod)
    t = sub(sub(t, mul(t, b)), mul(c, g), mod)
    return g, h, s, t


def _hensel_lift(f, facs, p, pk):
    """Monic lifts mod pk of the monic, pairwise coprime factors mod p of
    f = lc(f) * prod(facs) mod p (von zur Gathen and Gerhard, Algorithm
    15.17: split the factors in two halves, lift the pair, recurse)."""
    if len(facs) == 1:
        return [monic(f, pk)]
    half = len(facs) // 2
    g = [f[-1] % p]
    for fac in facs[:half]:
        g = mul(g, fac, p)
    h = [1]
    for fac in facs[half:]:
        h = mul(h, fac, p)
    s, t = bezout(g, h, p)
    m = p
    while m < pk:
        m = min(m * m, pk)
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
    return _hensel_lift(g, facs[:half], p, pk) + _hensel_lift(h, facs[half:], p, pk)


def _factor_squarefree(f):
    """The irreducible factors in Z[x] of a primitive squarefree f."""
    if len(f) <= 2:
        return [f]
    lead = f[-1]
    for p in _primes():
        fbar = trim(f, p)
        if lead % p == 0 or not is_squarefree(fbar, p):
            continue
        modular = fp_factor_squarefree_monic(fbar, p)
        break
    if len(modular) == 1:
        return [f]
    # Mignotte: a factor of f has coefficients at most 2^deg(f) |f|_2, and a
    # candidate carries the factor lc(f) on top.
    bound = abs(lead) * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    pk = p
    while pk <= 2 * bound:
        pk *= p
    lifted = _hensel_lift(f, modular, p, pk)
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [f[-1]]
            for i in subset:
                g = mul(g, lifted[i], pk)
            g = _primitive([c - pk if 2 * c > pk else c for c in g])
            q = exact_quo(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [_primitive(f)]


def factor_q(coeffs):
    """Irreducible factors over Q of a rational polynomial, with multiplicities.

    coeffs: ints or Fractions, lowest degree first.  Returns [(g, m)] with
    each g a primitive int list with positive leading coefficient; [] for a
    constant.
    """
    coeffs = trim(Fraction(c) for c in coeffs)
    if len(coeffs) < 2:
        return []
    den = lcm(*(c.denominator for c in coeffs))
    f = _primitive([int(c * den) for c in coeffs])
    return [(g, m) for part, m in _squarefree_parts(f) for g in _factor_squarefree(part)]
