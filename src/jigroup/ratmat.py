"""Exact rational matrices and polynomials.

Matrices are tuples of tuples of Fraction; polynomials are coefficient
tuples, lowest degree first, with exact gcd / division / factorization
(factorization over Q delegates to sympy).  rref and minimal_polynomial
work on integer rows internally and return Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import sympy

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


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    c = F(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_transpose(a):
    return tuple(zip(*a))


def mat_inv(a):
    d = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(d)]
           for i, row in enumerate(a)]
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[d:]) for row in aug)


def mat_det(a):
    d = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for c in range(d):
        piv = next((r for r in range(c, d) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, d):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _primitive(v):
    """An integer vector divided by its content (the gcd of its entries)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _integer_rows(rows):
    """Each rational row scaled to a primitive integer vector (same row space)."""
    out = []
    for row in rows:
        row = [F(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    return out


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


def row_space_intersection(u_rows, v_rows):
    """Canonical basis of the intersection of two row spaces."""
    u_rows = [r for r in u_rows if any(x != 0 for x in r)]
    v_rows = [r for r in v_rows if any(x != 0 for x in r)]
    if not u_rows or not v_rows:
        return ()
    n = len(u_rows[0])
    # x = a.U = b.V: solve [U^T | -V^T] (a;b)^T = 0
    rows = []
    for i in range(n):
        row = [u[i] for u in u_rows] + [-v[i] for v in v_rows]
        rows.append(tuple(row))
    base = nullspace(rows)
    out = []
    for w in base:
        vec = [Fraction(0)] * n
        for a, u in zip(w[: len(u_rows)], u_rows):
            if a:
                for i in range(n):
                    vec[i] += a * u[i]
        out.append(tuple(vec))
    return row_space_canonical(out)


def solve(a_rows, b_vec):
    """One solution x of a x = b, or None if inconsistent."""
    nc = len(a_rows[0])
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b_vec)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        if c == nc:
            return None
        x[c] = reduced[i][-1]
    return tuple(x)


# -- polynomials over Q (coefficient tuples, lowest degree first) -------------


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(F(x) for x in p)


def poly_deg(p):
    return len(p) - 1


def poly_sub(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return poly_trim(x - y for x, y in zip(p, q))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(p, c):
    c = F(c)
    return poly_trim(c * x for x in p)


def poly_divmod(p, q):
    p = list(poly_trim(p))
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        k = len(p) - len(q)
        out[k] = c
        for j, qq in enumerate(q):
            p[k + j] -= c * qq
        while p and p[-1] == 0:
            p.pop()
    return poly_trim(out), poly_trim(p)


def poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        p = poly_scale(p, 1 / p[-1])
    return p


def poly_xgcd(p, q):
    """Extended gcd: (g, u, v) with u p + v q = g, g monic."""
    r0, r1 = poly_trim(p), poly_trim(q)
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        qq, rr = poly_divmod(r0, r1)
        r0, r1 = r1, rr
        s0, s1 = s1, poly_sub(s0, poly_mul(qq, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(qq, t1))
    if r0:
        c = 1 / r0[-1]
        r0, s0, t0 = poly_scale(r0, c), poly_scale(s0, c), poly_scale(t0, c)
    return r0, s0, t0


def poly_deriv(p):
    return poly_trim(i * c for i, c in enumerate(p) if i > 0)


def poly_eval_mat(p, m):
    d = len(m)
    acc = zeros(d, d)
    for c in reversed(p):
        acc = mat_mul(acc, m)
        acc = mat_add(acc, mat_scale(identity(d), c))
    return acc


def poly_is_squarefree(p):
    return poly_deg(poly_gcd(p, poly_deriv(p))) == 0


_X = sympy.Symbol("x")


def poly_factor_q(p):
    """Irreducible factorization over Q via sympy: list of (factor, mult).

    Factors are monic coefficient tuples, lowest degree first.
    """
    p = poly_trim(p)
    if poly_deg(p) <= 0:
        return []
    expr = sum(sympy.Rational(c.numerator, c.denominator) * _X**i
               for i, c in enumerate(p))
    _, factors = sympy.factor_list(sympy.Poly(expr, _X, domain="QQ"))
    out = []
    for fac, mult in factors:
        coeffs = fac.all_coeffs()[::-1]
        tup = poly_trim(Fraction(sympy.Rational(c).p, sympy.Rational(c).q)
                        for c in coeffs)
        tup = poly_scale(tup, 1 / tup[-1])
        out.append((tup, int(mult)))
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
    m = [[F(x) for x in row] for row in m]
    d = len(m)
    den = lcm(*(x.denominator for row in m for x in row))
    n_cols = list(zip(*(
        [x.numerator * (den // x.denominator) for x in row] for row in m
    )))
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
        power = [
            [sum(x * y for x, y in zip(row, col)) for col in n_cols]
            for row in power
        ]
    raise AssertionError("minimal polynomial search exceeded dimension")


class NumberRing:
    """Z[t]/(m(t)) with m monic irreducible over Q; exact arithmetic.

    Elements are Fraction coefficient tuples of length deg(m).
    """

    def __init__(self, modulus):
        mod = poly_trim(modulus)
        if poly_deg(mod) < 1:
            raise ValueError("modulus must have positive degree")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if not poly_is_irreducible_q(mod):
            raise ValueError("modulus is reducible over Q")
        self.modulus = mod
        self.degree = poly_deg(mod)

    def element(self, coeffs):
        coeffs = [F(c) for c in coeffs]
        if len(coeffs) > self.degree:
            _, coeffs = poly_divmod(coeffs, self.modulus)
            coeffs = list(coeffs)
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return tuple(coeffs[: self.degree])

    def zero(self):
        return (Fraction(0),) * self.degree

    def one(self):
        return self.element([1])

    def gen(self):
        return self.element([0, 1])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = poly_mul(a, b)
        _, rem = poly_divmod(prod, self.modulus)
        return self.element(rem)

    def inv(self, a):
        g, u, _ = poly_xgcd(poly_trim(a), self.modulus)
        if poly_deg(g) != 0:
            raise ZeroDivisionError("element is not invertible")
        _, rem = poly_divmod(poly_scale(u, 1 / g[0]), self.modulus)
        return self.element(rem)

    def mult_matrix(self, a):
        """Multiplication-by-a as a rational matrix on the power basis."""
        cols = []
        for k in range(self.degree):
            basis = self.element([0] * k + [1])
            cols.append(self.mul(a, basis))
        return tuple(
            tuple(cols[j][i] for j in range(self.degree))
            for i in range(self.degree)
        )
