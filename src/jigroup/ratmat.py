"""Exact rational matrices, and polynomials over Q as matrix invariants.

Matrices are tuples of tuples of Fraction; polynomials are Fraction
coefficient tuples, lowest degree first.  Here live the polynomial of a
matrix, the minimal polynomial and the factorization over Q as monic
tuples; the polynomial arithmetic itself (division, gcd, Bezout,
Zassenhaus's factorization) is in `zpoly`.  The matrix kernels
(products, linear combinations, polynomials of a matrix, rref and
minimal_polynomial) clear each operand to an integer matrix over one
common denominator, work on Python ints, and form one Fraction per
nonzero entry of the result.  Fractions go in and Fractions come out.
The linear questions all read one rref: row_space_canonical, nullspace,
rank, mat_inv, and coords, the coordinates of many images over one set of
rows (None when an image is off their span).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import zpoly
from .verdicts import CertificateError

_ZERO = Fraction(0)


def F(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def identity(d):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def zeros(r, c):
    return tuple((Fraction(0),) * c for _ in range(r))


def _cleared(a):
    """(integer rows, den) with a = rows / den; den is the lcm of the
    entries' denominators (int entries count as denominator 1)."""
    den = lcm(*(x.denominator for row in a for x in row))
    if den == 1:
        return [[x.numerator for x in row] for row in a], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def integer_multiple(a):
    """The least positive multiple of a with integer entries, as lists of
    ints: it has the row space, the nullspace and the commutant of a."""
    return _cleared(a)[0]


def _int_mul(a, b):
    """Product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _uncleared(rows, den):
    """The Fraction matrix rows / den, with the shared zero for zero entries."""
    if den == 1:
        return tuple(tuple(Fraction(x) if x else _ZERO for x in row) for row in rows)
    return tuple(
        tuple(Fraction(x, den) if x else _ZERO for x in row) for row in rows
    )


def mat_mul(a, b):
    ia, da = _cleared(a)
    ib, db = _cleared(b)
    return _uncleared(_int_mul(ia, ib), da * db)


def _combine(terms, shape):
    """sum c * rows / den over (c, rows, den) terms, c a nonzero int or Fraction,
    on the common denominator of the c / den."""
    r, c = shape
    if not terms:
        return zeros(r, c)
    dens = [k.denominator * den for k, _, den in terms]
    common = lcm(*dens)
    scales = [k.numerator * (common // d) for (k, _, _), d in zip(terms, dens)]
    out = [
        [sum(map(mul, scales, entries)) for entries in zip(*rows_i)]
        for rows_i in zip(*(rows for _, rows, _ in terms))
    ]
    return _uncleared(out, common)


def mat_combination(coeffs, mats):
    """sum c * m over the coefficients and matrices, exactly.

    Zero coefficients are skipped; an empty or all-zero combination is the
    zero matrix of the shape of mats[0].
    """
    return combiner(mats)(coeffs)


def combiner(mats):
    """The map coeffs -> mat_combination(coeffs, mats), with each matrix
    cleared once: for a basis that many combinations share."""
    if not mats:
        raise ValueError("mat_combination needs at least one matrix")
    shape = (len(mats[0]), len(mats[0][0]) if mats[0] else 0)
    cleared = [_cleared(m) for m in mats]

    def combine(coeffs):
        return _combine([(k, *c) for k, c in zip(coeffs, cleared) if k], shape)

    return combine


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_transpose(a):
    return tuple(zip(*a))


def mat_inv(a):
    """Inverse as the right half of the RREF of [A | I].

    Raises ZeroDivisionError if A is singular.
    """
    d = len(a)
    reduced, pivots = rref(
        [tuple(row) + tuple(int(i == j) for j in range(d)) for i, row in enumerate(a)]
    )
    if pivots != list(range(d)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[d:] for row in reduced)


def mat_det(a):
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968) of the cleared integer matrix: every division is exact."""
    m, den = _cleared(a)
    d = len(m)
    sign, prev = 1, 1
    for c in range(d):
        piv = next((r for r in range(c, d) if m[r][c]), None)
        if piv is None:
            return _ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        prow, p = m[c], m[c][c]
        for r in range(c + 1, d):
            f = m[r][c]
            m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], prow)]
        prev = p
    return Fraction(sign * prev, den**d)


def _primitive(v):
    """An integer vector divided by its content (the gcd of its entries)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _integer_rows(rows):
    """Each rational row scaled to a primitive integer vector (same row space)."""
    return [_primitive(_cleared((row,))[0][0]) for row in rows]


def _eliminate(target, pivot_row, c):
    """Integer combination of target and pivot_row that is zero in column c.

    Returns (a, b, a*target - b*pivot_row) with a = pivot/g, b = target[c]/g,
    g their gcd; a is never zero.
    """
    g = gcd(pivot_row[c], target[c])
    a, b = pivot_row[c] // g, target[c] // g
    return a, b, [a * x - b * y for x, y in zip(target, pivot_row)]


def rref(rows):
    """Reduced row echelon form; returns (rows tuple, pivot column list).

    Fraction-free: the rows are cleared to primitive integer vectors and
    eliminated Gauss-Jordan with integer row operations, dividing out each
    row's content as it goes to keep the entries small.  The canonical
    Fraction RREF is formed only at the end; it depends on the row space
    alone, so the result is the one plain Fraction elimination gives.
    """
    m = _integer_rows(rows)
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        for i in range(nr):
            if i != r and m[i][c]:
                m[i] = _primitive(_eliminate(m[i], prow, c)[2])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return (
        tuple(
            tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
            for row, c in zip(m, pivots)
        ),
        pivots,
    )


def row_space_canonical(rows):
    """Canonical basis of the row space (RREF rows); equality-comparable."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return ()
    reduced, _ = rref(rows)
    return reduced


def nullspace(rows):
    """Basis of {v : rows . v = 0}, canonical order."""
    if not rows:
        return ()
    reduced, pivots = rref(rows)
    nc = len(rows[0])
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def rank(rows):
    return len(rref(rows)[0]) if rows else 0


def coords(rows, images):
    """X with X . rows = images, one coordinate row per image; None if an
    image is not in the row span.

    One elimination of [rows^T | images^T] serves every image; the
    coordinates of the free columns (dependent rows) are 0.
    """
    n = len(rows)
    reduced, pivots = rref([tuple(col) for col in zip(*rows, *images)])
    if pivots and pivots[-1] >= n:
        return None
    x = [[_ZERO] * n for _ in images]
    for row, c in zip(reduced, pivots):
        for xi, v in zip(x, row[n:]):
            xi[c] = v
    return tuple(map(tuple, x))


# -- polynomials over Q (coefficient tuples, lowest degree first) -------------


def poly_trim(p):
    return tuple(F(x) for x in zpoly.trim(p))


def poly_deg(p):
    return len(p) - 1


def poly_eval_mat(p, m):
    """p(m) for a square matrix m, as the combination of the integer powers
    of den * m."""
    n, den = _cleared(m)
    d = len(n)
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    terms = []
    for k, c in enumerate(p):
        if k:
            power = _int_mul(power, n)
        if c:
            terms.append((c, power, den**k))
    return _combine(terms, (d, d))


def poly_factor_q(p):
    """Irreducible factorization over Q: list of (factor, mult).

    Factors are monic coefficient tuples, lowest degree first, sorted by
    (degree, coefficients).
    """
    out = [(poly_trim(Fraction(c, g[-1]) for c in g), m) for g, m in zpoly.factor_q(p)]
    out.sort(key=lambda fm: (poly_deg(fm[0]), fm[0]))
    return out


def poly_is_irreducible_q(p):
    p = poly_trim(p)
    if poly_deg(p) < 1:
        return False
    facs = poly_factor_q(p)
    return len(facs) == 1 and facs[0][1] == 1 and poly_deg(facs[0][0]) == poly_deg(p)


def minimal_polynomial(m):
    """Monic minimal polynomial of a square rational matrix.

    Krylov iteration on the integer matrix N = den*M: each power N^k is
    flattened and reduced fraction-free against the echelon basis of
    I, N, ..., N^(k-1), carrying its combination of powers along.  The
    first power that reduces to zero gives q(N) = 0 with q of least degree,
    and the minimal polynomial of M is q(den*x) / den^k, made monic.
    """
    n, den = _cleared(m)
    d = len(n)
    basis = []  # (pivot column, reduced power, its combination of powers)
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(d + 1):
        vec = [x for row in power for x in row]
        comb = [0] * k + [1]
        for c, bvec, bcomb in basis:
            if vec[c]:
                a, b, vec = _eliminate(vec, bvec, c)
                comb = [a * x - b * y for x, y in zip(comb, bcomb)] + [
                    a * x for x in comb[len(bcomb):]
                ]
                both = _primitive(vec + comb)
                vec, comb = both[: len(vec)], both[len(vec):]
        if not any(vec):
            lead = comb[k]
            return poly_trim(
                Fraction(q, lead * den ** (k - i)) for i, q in enumerate(comb)
            )
        basis.append((next(j for j, x in enumerate(vec) if x), vec, comb))
        power = _int_mul(power, n)
    raise CertificateError("minimal polynomial search exceeded dimension")
