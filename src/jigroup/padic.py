"""p-adic decision layer: factor counting over Q_p, precision-tracked
linear algebra, idempotent lifting, and irreducibility over Q_p.

Matrices over Q_p follow the capped-absolute model: a PadicMatrix holds
Python-int residues under one absolute precision cap for all its entries,
and a block exponent for entries with p in the denominator.  Where two
matrices meet, the smaller cap wins; products and pivot divisions lower it
by the valuations involved (elimination keeps a cap per row and returns the
least of them), so a digit below the cap is always certified.
Any decision that would need more digits than are available raises
PrecisionExhausted (callers retry with doubled precision, twice, before
giving up).  Nothing here is floating point: every residue is an exact
integer mod p^k.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, partial, reduce
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import ratmat as rm
from . import zpoly
from .hilbert import _valuation_and_unit, hilbert_symbol
from .rep import (
    RelationViolation,
    UncertifiedSplit,
    _subspace_restriction,
    close_over_group,
    commutant_analysis,
    commutation_rows,
    decompose_over_Q,
)
from .verdicts import IRREDUCIBLE, REDUCIBLE, UNKNOWN, CertificateError, Verdict

DEFAULT_PRECISION = 64


class PrecisionExhausted(RuntimeError):
    pass


def _vp(n, p):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _residue(q, mod):
    """A p-integral rational as an int mod `mod`, a power of p."""
    return q.numerator * pow(q.denominator, -1, mod) % mod


class PadicMatrix:
    """A matrix over Q_p in the capped-absolute model.

    Entry (i, j) is p^val * rows[i][j], known mod p^cap: the residues are
    ints mod p^(cap - val).  `val` is a block exponent, a lower bound for
    the entry valuations; it is 0 for integral matrices and negative where
    p divides a denominator.
    """

    __slots__ = ("p", "cap", "val", "rows")

    def __init__(self, p, cap, rows, val=0):
        mod = p ** max(cap - val, 0)
        self.p, self.cap, self.val = p, cap, val
        self.rows = tuple(tuple(x % mod for x in row) for row in rows)

    @classmethod
    def from_rational(cls, rows, p, prec):
        """An exact rational matrix with prec digits above its least valuation."""
        rows = [[Fraction(x) for x in row] for row in rows]
        val = min([0] + [_valuation_and_unit(x, p)[0] for row in rows for x in row if x])
        lift = Fraction(p) ** -val
        mod = p**prec
        return cls(p, prec + val, [[_residue(x * lift, mod) for x in row] for row in rows],
                   val)

    @classmethod
    def identity(cls, d, p, cap):
        return cls(p, cap, [[int(i == j) for j in range(d)] for i in range(d)])

    @classmethod
    def stack(cls, mats):
        """The rows of all of `mats`, one matrix below the other."""
        val = min(m.val for m in mats)
        return cls(mats[0].p, min(m.cap for m in mats),
                   [row for m in mats for row in m._at(val)], val)

    def _at(self, val):
        """The residues rescaled to a block exponent val <= self.val."""
        if val == self.val:
            return self.rows
        f = self.p ** (self.val - val)
        return tuple(tuple(x * f for x in row) for row in self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def __repr__(self):
        return f"PadicMatrix(p={self.p}, cap={self.cap}, val={self.val}, rows={self.rows})"

    # -- arithmetic -----------------------------------------------------------

    def _plus(self, other, sign):
        val = min(self.val, other.val)
        rows = [[x + sign * y for x, y in zip(ra, rb)]
                for ra, rb in zip(self._at(val), other._at(val))]
        return PadicMatrix(self.p, min(self.cap, other.cap), rows, val)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        cols = tuple(zip(*other.rows))
        rows = [[sum(map(operator.mul, row, col)) for col in cols] for row in self.rows]
        cap = min(self.cap + other.val, other.cap + self.val)
        return PadicMatrix(self.p, cap, rows, self.val + other.val)

    def scale(self, c):
        """c times the matrix: c an exact int or Fraction, or a 1x1 PadicMatrix."""
        p = self.p
        if isinstance(c, PadicMatrix):
            u, cap, v = c.rows[0][0], min(self.cap + c.val, c.cap + self.val), c.val
        elif c == 0:
            u, cap, v = 0, self.cap, 0
        else:
            v, u = _valuation_and_unit(c, p)
            u, cap = _residue(u, p ** max(self.cap - self.val, 1)), self.cap + v
        return PadicMatrix(p, cap, [[x * u for x in row] for row in self.rows], self.val + v)

    def transpose(self):
        return PadicMatrix(self.p, self.cap, zip(*self.rows), self.val)

    def flat(self):
        """The entries as a single row, row after row."""
        return PadicMatrix(self.p, self.cap, [[x for row in self.rows for x in row]], self.val)

    def square(self, d):
        """A single row of d*d entries as a d x d matrix."""
        r = self.rows[0]
        return PadicMatrix(self.p, self.cap, [r[i * d:(i + 1) * d] for i in range(d)],
                           self.val)

    def entry(self, i, j):
        return PadicMatrix(self.p, self.cap, [[self.rows[i][j]]], self.val)

    def normalized(self):
        """The matrix times the power of p that makes its least valuation 0."""
        low = min((_vp(x, self.p) for row in self.rows for x in row if x), default=None)
        if low is None:
            return self
        f = self.p**low
        return PadicMatrix(self.p, self.cap - self.val - low,
                           [[x // f for x in row] for row in self.rows])

    # -- reading entries --------------------------------------------------------

    def valuations(self):
        """Entry valuations; an entry that is 0 mod p^cap counts as cap."""
        p, val, cap = self.p, self.val, self.cap
        return [[_vp(x, p) + val if x else cap for x in row] for row in self.rows]

    def min_valuation(self):
        return min((v for row in self.valuations() for v in row), default=self.cap)

    def is_zero(self):
        return not any(map(any, self.rows))

    def valuation(self):
        """The valuation of a 1x1 matrix; raises if it is 0 mod p^cap."""
        x = self.rows[0][0]
        if not x:
            raise PrecisionExhausted(f"valuation undecidable: element is 0 mod p^{self.cap}")
        return _vp(x, self.p) + self.val

    def residues(self, k):
        """The entries as ints mod p^k; they must be integral, and k <= cap."""
        if k > self.cap:
            raise PrecisionExhausted(f"residue mod p^{k} needs precision {k}, have {self.cap}")
        if self.min_valuation() < 0:
            raise PrecisionExhausted("negative valuation residue requested")
        p, mod = self.p, self.p**k
        if self.val >= 0:
            return [[x * p**self.val % mod for x in row] for row in self.rows]
        return [[x // p**-self.val % mod for x in row] for row in self.rows]

    # -- reads of the echelon -----------------------------------------------------

    def rank(self, floor=None):
        return len(prow_echelon(self, floor=floor)[1])

    def nullspace(self, floor=None):
        """Rows spanning the right kernel {v : self . v = 0}."""
        ech, pivots, _ = prow_echelon(self, floor=floor)
        out = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            v = [0] * self.ncols
            v[f] = self.p**-ech.val
            for row, c in zip(ech.rows, pivots):
                v[c] = -row[f]
            out.append(v)
        return PadicMatrix(self.p, ech.cap, out, ech.val)

    def coords(self, images, floor=None):
        """X with X . self = images; raises if an image is not in the row span."""
        n = len(self)
        aug = PadicMatrix.stack([self, images]).transpose()
        ech, pivots, _ = prow_echelon(aug, floor=floor)
        if pivots and pivots[-1] >= n:
            raise PrecisionExhausted("image not in the span at precision")
        xt = [(0,) * len(images)] * n
        for row, c in zip(ech.rows, pivots):
            xt[c] = row[n:]
        return PadicMatrix(self.p, ech.cap, xt, ech.val).transpose()

    def saturate(self, floor):
        """A pure integral basis of the row space, rows sorted by pivot column.

        Full pivoting makes each row integral with a unit pivot; rows below
        the noise floor drop out.
        """
        ech, pivots, _ = prow_echelon(self, floor=floor, full=True)
        order = sorted(range(len(pivots)), key=pivots.__getitem__)
        return PadicMatrix(self.p, ech.cap, [ech.rows[i] for i in order], ech.val)

    def inverse(self, floor=None):
        """The inverse of a square matrix, or None if it is singular at the floor."""
        d = len(self)
        ident = PadicMatrix.identity(d, self.p, self.cap)
        aug = PadicMatrix.stack([self.transpose(), ident]).transpose()
        ech, pivots, _ = prow_echelon(aug, floor=floor)
        if pivots != list(range(d)):
            return None
        return PadicMatrix(self.p, ech.cap, [row[d:] for row in ech.rows], ech.val)

    def det_valuation(self):
        """The valuation of the determinant: the sum of the pivot valuations."""
        _, pivots, vals = prow_echelon(self)
        if len(pivots) < len(self):
            raise PrecisionExhausted("determinant valuation uncertain")
        return sum(vals)


def _pivot_val(x, mod, p, s, floor):
    """Valuation of the entry x / p^s known mod `mod`, or None where it is 0."""
    x %= mod
    if not x:
        return None
    v = _vp(x, p) - s
    return None if floor is not None and v >= floor else v


def prow_echelon(m, floor=None, full=False):
    """Gauss-Jordan elimination of a PadicMatrix, minimal-valuation pivoting.

    Returns (echelon, pivot columns, pivot valuations): each echelon row is
    1 at its pivot column and 0 at the other pivot columns.  Column by
    column, the pivot is the first entry of least valuation in the rows not
    yet used; with `full`, it is the first such entry, row by row, over all
    columns not yet used, which keeps integral rows integral.  An entry that
    is 0 mod p^cap is 0.  Without a floor, such an entry in a pivot search
    raises PrecisionExhausted when its row has no digit left; with a
    floor, entries of valuation floor or more are 0 by fiat, and the caller
    verifies the outcome independently.

    The rows are ints over a common denominator p^s, each known to its own
    cap while the elimination runs; the result takes the least cap of its
    rows.  Dividing a row of least valuation m_r and cap a by a pivot of
    valuation w leaves it a - 2w + m_r digits, and clearing an entry f of a
    row of cap b with it leaves that row min(b + m_r - w, a - 2w + m_r + v(f)).
    """
    p, s = m.p, max(-m.val, 0)
    work = [list(row) for row in m._at(min(m.val, 0))]
    nr, nc = len(work), len(work[0]) if work else 0
    caps = [m.cap] * nr
    pivots, vals = [], []
    c0 = 0
    while len(pivots) < nr:
        r = len(pivots)
        best = None
        if full:
            for i in range(r, nr):
                mod = p ** max(caps[i] + s, 0)
                for c in range(nc):
                    v = None if c in pivots else _pivot_val(work[i][c], mod, p, s, floor)
                    if v is not None and (best is None or v < best[0]):
                        best = (v, i, c)
        while not full and best is None and c0 < nc:
            for i in range(r, nr):
                v = _pivot_val(work[i][c0], p ** max(caps[i] + s, 0), p, s, floor)
                if v is None:
                    if floor is None and caps[i] < 1:
                        raise PrecisionExhausted("pivot decision beyond precision")
                elif best is None or v < best[0]:
                    best = (v, i, c0)
            c0 += 1
        if best is None:
            break
        w, i, c = best
        if full:
            work.insert(r, work.pop(i))
            caps.insert(r, caps.pop(i))
        else:
            work[r], work[i] = work[i], work[r]
            caps[r], caps[i] = caps[i], caps[r]
        row = [x % p ** max(caps[r] + s, 0) for x in work[r]]
        m_r = min(_vp(x, p) for x in row if x) - s
        fvals = {k: _pivot_val(work[k][c], p ** max(caps[k] + s, 0), p, s, floor)
                 for k in range(nr) if k != r}
        fvals = {k: v for k, v in fvals.items() if v is not None}
        caps[r] = min(caps[r], caps[r] - 2 * w + m_r)
        s_new = max([s, w - m_r] + [w - m_r - vf for vf in fvals.values()])
        for k, vf in fvals.items():
            caps[k] = min(caps[k], caps[k] + m_r - w, caps[r] + vf)
        # the pivot row keeps s_new more digits, which the division by
        # p^s_new in the elimination uses up
        one = p**s_new
        if s_new > s:
            work = [[x * p ** (s_new - s) for x in wrow] for wrow in work]
        rmod = p ** max(caps[r] + s_new, 0) * one
        inv = pow(row[c] // p ** (w + s), -1, rmod)
        e = s_new - s - w
        row = [(x * inv * p**e if e >= 0 else x * inv // p**-e) % rmod for x in row]
        row[c] = one
        for k in fvals:
            f, mod = work[k][c], p ** max(caps[k] + s_new, 0)
            work[k] = [(x - f * y // one) % mod for x, y in zip(work[k], row)]
        work[r] = row
        s = s_new
        pivots.append(c)
        vals.append(w)
    cap = min(caps[:len(pivots)], default=m.cap)
    mod = p ** max(cap + s, 0)
    ech = [[x % mod for x in row] for row in work[:len(pivots)]]
    low = min((_vp(x, p) for row in ech for x in row if x), default=0)
    k = max(min(low, s), 0)
    return PadicMatrix(p, cap, [[x // p**k for x in row] for row in ech], k - s), pivots, vals


# -- qp_factor_count ------------------------------------------------------------


@dataclass
class QpFactorReport:
    polynomial: tuple
    p: int
    factor_count: int | None
    method: str
    detail: dict

    def to_report(self):
        return {
            "p": self.p,
            "factor_count": self.factor_count,
            "method": self.method,
            **{k: v for k, v in self.detail.items() if k != "factors"},
        }


def newton_polygon_slopes(f, p):
    """Distinct slopes of the lower Newton polygon of f at p."""
    pts = [(i, _vp(c, p)) for i, c in enumerate(f) if c != 0]
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep lower-convex: remove if new point makes hull[-1] redundant
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        if not slopes or slopes[-1] != s:
            slopes.append(s)
    return slopes


def qp_factor_count(f, p):
    """Number of irreducible factors of a squarefree integer polynomial over Q_p.

    The ladder of `_residue_report` (Hensel residue count, Eisenstein shift,
    single Newton slope); where no rung answers, the Newton polygon segment
    count as a lower bound with factor_count unknown.
    """
    f = tuple(int(c) for c in f)
    if not f or f[-1] == 0:
        raise ValueError("polynomial must have a nonzero leading coefficient")
    if not zpoly.is_squarefree(f):
        raise ValueError("polynomial is not squarefree over Q")
    if len(f) <= 2:
        return QpFactorReport(f, p, 1 if len(f) == 2 else 0, "trivial", {})
    report = _residue_report(f, p)
    if report is not None:
        return report
    segments = len(newton_polygon_slopes(f, p))
    return QpFactorReport(f, p, None, "newton_polygon_bound",
                          {"segment_count": segments, "lower_bound": segments})


def _residue_report(f, p):
    """The Q_p factor count of an integer polynomial of degree n >= 2 read off
    its residues, or None: the one ladder of the exact and approx routes.

    Rungs, in order: a squarefree reduction mod p under a unit leading
    coefficient has one factor over Q_p per factor mod p (Hensel); f(x + c)
    Eisenstein for some c = -p, ..., p, in that order, is irreducible; a
    Newton polygon of one segment from (0, v(f_0)) to (n, v(f_n)) whose slope
    has denominator n is irreducible, as every root then has ramification
    index n.  The first two rungs read only f mod p^2 and the third only
    valuations, so residues mod p^k, k >= 2, whose f_0 and f_n are nonzero
    give the count of any lift.
    """
    f = tuple(f)
    n = len(f) - 1
    if f[-1] % p:
        fbar = zpoly.trim(f, p)
        if zpoly.is_squarefree(fbar, p):
            facs = zpoly.fp_factor_squarefree_monic(fbar, p)
            return QpFactorReport(f, p, len(facs), "squarefree_hensel", {"factors": facs})
    for c in range(-p, p + 1):
        if _is_eisenstein(_int_shift_poly(f, c), p):
            return QpFactorReport(f, p, 1, "eisenstein_shift", {"shift": c})
    if f[0] and f[-1]:
        slopes = newton_polygon_slopes(f, p)
        if len(slopes) == 1 and slopes[0].denominator == n:
            return QpFactorReport(f, p, 1, "single_newton_slope", {})
    return None


def _int_shift_poly(f, c):
    # f(x + c) by synthetic substitution
    out = list(f)
    n = len(out) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] += c * out[j + 1]
    return tuple(out)


def _is_eisenstein(f, p):
    if f[-1] % p == 0:
        return False
    if any(c % p for c in f[:-1]):
        return False
    return f[0] % (p * p) != 0


# -- quadratic extensions of Q_p -------------------------------------------------
#
# E = Q_p[t]/(q(t)) for a monic integer quadratic q, handled in two shapes:
# unramified (q irreducible mod p, uniformizer p) and ramified (q Eisenstein
# after an integer shift, uniformizer = the shifted generator).  Elements are
# integer pairs (a0, a1) = a0 + a1*gamma mod p^W with gamma^2 = -B*gamma - C.


class QuadExt:
    def __init__(self, p, quad, work_digits):
        # quad = (C, B, 1): gamma^2 + B gamma + C = 0
        c, b, lead = quad
        if lead != 1:
            raise ValueError("QuadExt needs a monic quadratic (C, B, 1)")
        self.p = p
        self.B = int(b)
        self.C = int(c)
        self.W = work_digits
        self.mod = p**work_digits
        quad = (self.C, self.B, 1)
        report = _residue_report(quad, p)
        self.ramified = not (report and report.method == "squarefree_hensel"
                             and report.factor_count == 1)
        if self.ramified and not _is_eisenstein(quad, p):
            raise PrecisionExhausted("quadratic extension is neither unramified nor Eisenstein")
        self.e = 2 if self.ramified else 1

    # elements: pairs of ints mod self.mod
    def one(self):
        return (1, 0)

    def gamma(self):
        return (0, 1)

    def from_int(self, n):
        return (n % self.mod, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.mod, (x[1] + y[1]) % self.mod)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.mod, (x[1] - y[1]) % self.mod)

    def mul(self, x, y):
        a0, a1 = x
        b0, b1 = y
        cross = a1 * b1 % self.mod
        return (
            (a0 * b0 - self.C * cross) % self.mod,
            (a0 * b1 + a1 * b0 - self.B * cross) % self.mod,
        )

    def square(self, x):
        return self.mul(x, x)

    def val(self, x, limit=None):
        """v_E(x), or `limit` if x = 0 mod gamma^limit-ish (capped)."""
        a0, a1 = x[0] % self.mod, x[1] % self.mod
        cap = limit if limit is not None else 2 * self.W
        if self.ramified:
            v0 = 2 * (_vp(a0, self.p) if a0 else self.W)
            v1 = 2 * (_vp(a1, self.p) if a1 else self.W) + 1
            return min(v0, v1, cap)
        v0 = _vp(a0, self.p) if a0 else self.W
        v1 = _vp(a1, self.p) if a1 else self.W
        return min(v0, v1, cap)

    def pi_digits(self, k):
        """Residue system of O_E / pi^k as a list of element pairs."""
        p = self.p
        if self.ramified:
            d0, d1 = (k + 1) // 2, k // 2
            return [
                (a0, a1) for a0 in range(p**d0) for a1 in range(p**d1)
            ]
        return [(a0, a1) for a0 in range(p**k) for a1 in range(p**k)]

    def reduce_pi(self, x, k):
        """Canonical representative of x mod pi^k."""
        p = self.p
        if self.ramified:
            d0, d1 = (k + 1) // 2, k // 2
            return (x[0] % p**d0, x[1] % p**d1)
        return (x[0] % p**k, x[1] % p**k)

    def div_pi(self, x):
        """x / pi for v_E(x) >= 1 (exact)."""
        p = self.p
        a0, a1 = x
        if not self.ramified:
            if a0 % p or a1 % p:
                raise CertificateError("div_pi of a unit")
            return (a0 // p % self.mod, a1 // p % self.mod)
        # pi * (y0 + y1 pi) = -C y1 + (y0 - B y1) pi = a0 + a1 pi
        if a0 % p:
            raise CertificateError("div_pi of a unit")
        cu = self.C // p
        y1 = (-(a0 // p) * pow(cu, -1, self.mod)) % self.mod
        y0 = (a1 + self.B * y1) % self.mod
        return (y0, y1)

    def inv_unit(self, x):
        """Inverse of a v_E = 0 element (via the conjugate / norm)."""
        a0, a1 = x
        # conjugate: a0 + a1*gamma -> (a0 - B a1) - a1 gamma; N = x * conj(x)
        conj = ((a0 - self.B * a1) % self.mod, (-a1) % self.mod)
        n = self.mul(x, conj)
        if n[1] % self.mod:
            raise CertificateError("norm not rational")
        n0 = n[0]
        if n0 % self.p == 0:
            raise PrecisionExhausted("inverting a non-unit")
        inv_n = pow(n0, -1, self.mod)
        return ((conj[0] * inv_n) % self.mod, (conj[1] * inv_n) % self.mod)

    def v2(self):
        """v_E(2)."""
        if self.p != 2:
            return 0
        return self.e


class _ZpRing:
    """Z_p as integers mod p^W, with the QuadExt methods the conic code uses.

    The degree-one case of QuadExt: the uniformizer is p itself.
    """

    def __init__(self, p, work_digits):
        self.p = p
        self.W = work_digits
        self.mod = p**work_digits

    def from_int(self, n):
        return n % self.mod

    def add(self, x, y):
        return (x + y) % self.mod

    def sub(self, x, y):
        return (x - y) % self.mod

    def mul(self, x, y):
        return x * y % self.mod

    def square(self, x):
        return x * x % self.mod

    def val(self, x, limit):
        x %= self.mod
        return min(_vp(x, self.p) if x else self.W, limit)

    def pi_digits(self, k):
        return range(self.p**k)

    def reduce_pi(self, x, k):
        return x % self.p**k

    def div_pi(self, x):
        return x // self.p % self.mod

    def inv_unit(self, x):
        if x % self.p == 0:
            raise PrecisionExhausted("inverting a non-unit")
        return pow(x, -1, self.mod)

    def v2(self):
        return 1 if self.p == 2 else 0


def conic_solve_ext(ext, a, b, target_pi_prec):
    """Solve z^2 = a x^2 + b y^2 nontrivially over O_E, or return None.

    a, b integral with v_E in {0, 1}.  Complete search of primitive triples
    mod pi^K, K = 2 v_E(2) + 1 + 2 max(v(a), v(b)): a hit is Hensel-liftable,
    no hit proves local insolubility.  Returns (x, y, z) to target precision.
    """
    va, vb = ext.val(a, 2), ext.val(b, 2)
    if va > 1 or vb > 1:
        raise ValueError("conic coefficients need valuation 0 or 1")
    K = 2 * ext.v2() + 1 + 2 * max(va, vb)
    residues = ext.pi_digits(K)
    sq_all = {}
    sq_unit = {}
    for z in residues:
        zz = ext.reduce_pi(ext.square(z), K)
        sq_all.setdefault(zz, z)
        if ext.val(z, 1) == 0:
            sq_unit.setdefault(zz, z)
    found = None
    for x in residues:
        ax2 = ext.mul(a, ext.square(x))
        for y in residues:
            t = ext.reduce_pi(ext.add(ax2, ext.mul(b, ext.square(y))), K)
            if ext.val(x, 1) == 0 or ext.val(y, 1) == 0:
                z = sq_all.get(t)
            else:
                z = sq_unit.get(t)
            if z is not None:
                found = (x, y, z)
                break
        if found:
            break
    if found is None:
        return None
    return _conic_newton(ext, a, b, found, target_pi_prec)


def _conic_newton(ext, a, b, sol, target_pi_prec):
    """Lift a mod-pi^K conic solution by Newton on the best unit variable."""
    x, y, z = sol

    def F(xx, yy, zz):
        return ext.sub(
            ext.square(zz),
            ext.add(ext.mul(a, ext.square(xx)), ext.mul(b, ext.square(yy))),
        )

    # derivative valuations: d/dz = 2z, d/dx = -2ax, d/dy = -2by
    cands = []
    if ext.val(z, 1) == 0:
        cands.append(("z", ext.v2()))
    if ext.val(x, 1) == 0:
        cands.append(("x", ext.v2() + ext.val(a, 2)))
    if ext.val(y, 1) == 0:
        cands.append(("y", ext.v2() + ext.val(b, 2)))
    var, t = min(cands, key=lambda c: c[1])
    guard = 0
    while ext.val(F(x, y, z), target_pi_prec + 1) < target_pi_prec:
        guard += 1
        if guard > 64:
            raise PrecisionExhausted("conic Newton failed to converge")
        fv = F(x, y, z)
        if var == "z":
            d = ext.add(z, z)
        elif var == "x":
            d = ext.mul(ext.from_int(-2), ext.mul(a, x))
        else:
            d = ext.mul(ext.from_int(-2), ext.mul(b, y))
        # step = fv / d with v(d) = t: strip pi^t from both
        fshift = fv
        dshift = d
        for _ in range(t):
            fshift = ext.div_pi(fshift)
            dshift = ext.div_pi(dshift)
        step = ext.mul(fshift, ext.inv_unit(dshift))
        if var == "z":
            z = ext.sub(z, step)
        elif var == "x":
            x = ext.sub(x, step)
        else:
            y = ext.sub(y, step)
    return x, y, z


# -- approx commutants and minimal polynomials -----------------------------------


def rep_from_approx(group, gen_mats, identity):
    """The approx MatRep of the given generator images over Z_p.

    A rational image is read to the cap of the approx `identity`.  Each
    relation must hold provably, that is, to the cap of its two sides.
    """
    p, cap = identity.p, identity.cap
    mats = [m if isinstance(m, PadicMatrix) else PadicMatrix.from_rational(m, p, cap)
            for m in gen_mats]
    return close_over_group(group, mats, identity, operator.mul,
                            lambda a, b: (a - b).is_zero(), ("Zp", p))


def commutant_approx(gen_images_p, p, prec):
    """Approx basis of {X : X g = g X for the given approx matrices}.

    Each basis element is scaled by a power of p to least valuation 0.
    """
    d = len(gen_images_p[0])
    val = min(g.val for g in gen_images_p)
    rows = commutation_rows([g._at(val) for g in gen_images_p])
    cap = min([prec] + [g.cap for g in gen_images_p])
    vecs = PadicMatrix(p, cap, rows, val).nullspace()
    return [PadicMatrix(p, vecs.cap, [row], vecs.val).square(d).normalized()
            for row in vecs.rows]


def pminimal_polynomial(m):
    """Approx monic minimal polynomial of an approx matrix, as a single row:
    the first nullspace row of one echelon of the flattened I, m, ..., m^d,
    up to its last nonzero entry, the 1 at the first free column."""
    powers = [PadicMatrix.identity(len(m), m.p, m.cap)]
    for _ in range(len(m)):
        powers.append(powers[-1] * m)
    ns = PadicMatrix.stack([q.flat() for q in powers]).transpose().nullspace()
    if not ns.rows:
        raise PrecisionExhausted("no dependence found for minimal polynomial")
    row = ns.rows[0]
    k = max((j for j, x in enumerate(row) if x), default=0)
    if row[k] != m.p**-ns.val:
        raise PrecisionExhausted("minimal polynomial lead uncertain")
    return PadicMatrix(m.p, ns.cap, [row[:k + 1]], ns.val)


def _newton_idempotent(e, target_slack):
    """Refine e with e^2 - e = O(p) to an idempotent mod p^target_slack."""
    guard = 0
    while True:
        e2 = e * e
        if (e2 - e).min_valuation() >= target_slack:
            return e
        guard += 1
        if guard > 40:
            raise PrecisionExhausted("idempotent refinement stalled")
        e = e2.scale(3) - (e2 * e).scale(2)


# -- polynomial irreducibility certificates for approx coefficients ---------------


# how the approx route names each rung's certificate in its reports
_HOW = {"squarefree_hensel": "irreducible mod p", "eisenstein_shift": "eisenstein shift {shift}",
        "single_newton_slope": "single newton slope"}


def _approx_ladder(coeffs, p):
    """(report, how) for a monic approx polynomial over Z_p, given as a single
    row: the `_residue_report` of its residues mod p^cap and how it
    certifies, or (None, why) where no rung answers."""
    n = coeffs.ncols - 1
    if n == 1:
        return QpFactorReport(coeffs.rows[0], p, 1, "trivial", {}), "linear"
    if coeffs.cap < 2:
        raise PrecisionExhausted("not enough digits for reduction tests")
    if coeffs.min_valuation() < 0:
        return None, "non-integral coefficients"
    report = _residue_report(coeffs.residues(coeffs.cap)[0], p)
    if report is None:
        return None, "no certificate applies"
    return report, _HOW[report.method].format(**report.detail)


# -- conic solving over Q_p itself -----------------------------------------------


def conic_solve_qp(a_int, b_int, p, prec):
    """Nontrivial (x, y, z) in Z_p^3 with z^2 = a x^2 + b y^2 mod p^(prec-1),
    or None.

    a, b integers with v_p in {0, 1}.  The extension-field search and Newton
    run over Z_p itself, residues mod p^prec.
    """
    ring = _ZpRing(p, prec)
    return conic_solve_ext(ring, ring.from_int(a_int), ring.from_int(b_int), prec - 1)


# -- the splitting engine ---------------------------------------------------------


class ApproxSplitNeeded(RuntimeError):
    """A p-adic constituent split was detected but not constructed."""


def _int_model(f):
    """Monic rational poly f -> (c, g) with g(y) = c^deg * f(y/c) integer monic."""
    n = len(f) - 1
    c = 1
    for q in f:
        c = lcm(c, Fraction(q).denominator)
    g = tuple(int(Fraction(f[j]) * c ** (n - j)) for j in range(n + 1))
    return c, g


def _matrix_poly_approx(coeffs_int, mat_p, prec):
    """Evaluate an integer polynomial at an approx matrix."""
    ident = PadicMatrix.identity(len(mat_p), mat_p.p, prec)
    acc = ident.scale(0)
    for c in reversed(coeffs_int):
        acc = acc * mat_p + ident.scale(c)
    return acc


def _lift_idempotent(facs, a_mat_p, p, prec, target_slack):
    """Idempotent of Q_p[a] lifting the first of the coprime mod-p factors.

    facs: the mod-p factors of the minimal polynomial of the approx matrix
    a_mat_p.  A Bezout combination v*h of the first factor and the product
    h of the others is an idempotent mod p; Newton refines it to
    p^target_slack.  Returns None when the lift is 0 or the identity.
    """
    h0 = [1]
    for f in facs[1:]:
        h0 = zpoly.mul(h0, f, p)
    _, v0 = zpoly.bezout(facs[0], h0, p)
    e0 = _matrix_poly_approx(zpoly.mul(v0, h0, p), a_mat_p, prec)
    e = _newton_idempotent(e0, target_slack)
    if e.is_zero() or (e - PadicMatrix.identity(len(e), p, 4)).is_zero():
        return None
    return e


def _rational_field_split(a, c, facs, gens_p, p, prec):
    """The split of Q_p[a] for an exact commutant element a whose minimal
    polynomial, scaled to an integer model by x -> c x, factors as `facs`
    mod p: the idempotent lifted from c a, and its two invariant pieces."""
    ca = PadicMatrix.from_rational(rm.mat_combination((c,), (a,)), p, prec)
    e = _lift_idempotent(facs, ca, p, prec, prec - 4)
    if e is None:
        raise PrecisionExhausted("field-split idempotent degenerated")
    return ("split", {"pieces": _pieces_from_projector(gens_p, e)})


def _pieces_from_projector(gen_images_p, q_mat):
    """Two invariant pieces from a commutant zero divisor / idempotent.

    The noise floor is half the cap of the projector: exact-rank decisions
    are replaced by rank-at-floor plus the downstream invariance/direct-sum
    verifications.
    """
    floor = max(q_mat.cap // 2, 4)
    rows_img = q_mat.saturate(floor)
    kernel = q_mat.transpose().nullspace(floor)
    pieces = [rows_img, kernel.saturate(floor) if kernel.rows else kernel]
    d = len(q_mat)
    if sum(len(rows) for rows in pieces) != d:
        raise PrecisionExhausted("projector pieces do not fill the space")
    if PadicMatrix.stack(pieces).rank(floor) != d:
        raise PrecisionExhausted("projector pieces are not independent")
    for rows in pieces:
        if len(rows):
            for g in gen_images_p:
                rows.coords(rows * g, floor)
    return pieces


def _qp_analyze(rep, p, prec, seed=0):
    """('irreducible', info) | ('split', {'pieces': [...]}) |
    ('split_exact', {'pieces': [...rational rows...]}) | ('unknown', why).

    An exact rep reads the commutant analysis of the Q decider.
    """
    if rep.ring != "Q":
        return _qp_analyze_approx(rep, p, prec, seed)
    st, verdict = commutant_analysis(rep, seed)
    if verdict.status == REDUCIBLE:
        pieces = decompose_over_Q(rep, seed)
        return ("split_exact", {"pieces": pieces, "note": "reducible over Q"})
    gens_p = [PadicMatrix.from_rational(g, p, prec) for g in rep.gen_images]
    if st.kind == "scalars":
        return ("irreducible", {"certificate": "scalar commutant"})
    if st.kind == "field":
        c, g = _int_model(st.data["minpoly"])
        report = qp_factor_count(g, p)
        if report.factor_count == 1:
            return ("irreducible", {"certificate": "commutant field inert", "report": report})
        if report.factor_count is None:
            return ("unknown", f"field factor count not certified: {report.method}")
        return _rational_field_split(st.data["generator"], c, report.detail["factors"],
                                     gens_p, p, prec)
    if st.kind == "quaternion_over_Q":
        a, b = st.data["a"], st.data["b"]
        a_int, i_scale = _normalize_qp_square(a, p)
        b_int, j_scale = _normalize_qp_square(b, p)
        i_p = PadicMatrix.from_rational(rm.mat_combination((i_scale,), (st.data["i"],)),
                                        p, prec)
        j_p = PadicMatrix.from_rational(rm.mat_combination((j_scale,), (st.data["j"],)),
                                        p, prec)
        kind, info = _quaternion_step(a_int, b_int, i_p, j_p, gens_p, p, prec, prec)
        if kind == "irreducible":
            info["params"] = (a, b)
        return kind, info
    if st.kind == "cyclic_algebra":
        return _qp_analyze_quadratic_center(st, gens_p, p, prec)
    return ("unknown", f"global commutant kind {st.kind}")


def _quaternion_step(a, b, i_p, j_p, gens_p, p, prec, conic_prec):
    """Division or split over Q_p of a quaternion commutant: i^2 = a, j^2 = b,
    ij = -ji, with a, b integers of valuation 0 or 1 and i_p, j_p approx.

    A -1 Hilbert symbol certifies division.  Otherwise a point (x, y, z) of
    z^2 = a x^2 + b y^2 to conic_prec digits gives the zero divisor
    z + x i + y j, and the two invariant pieces it cuts out.
    """
    if hilbert_symbol(a, b, p) == -1:
        return ("irreducible", {"certificate": "division quaternion", "symbol": -1})
    sol = conic_solve_qp(a, b, p, conic_prec)
    if sol is None:
        raise CertificateError("split symbol but insoluble conic")
    x, y, z = (PadicMatrix(p, prec, [[c]]) for c in sol)
    ident = PadicMatrix.identity(len(i_p), p, prec)
    q = ident.scale(z) + (i_p.scale(x) + j_p.scale(y))
    return ("split", {"pieces": _pieces_from_projector(gens_p, q)})


def _normalize_qp_square(q, p):
    """(integer with v_p in {0,1}, rational scale s) with q*s^2 = integer."""
    q = Fraction(q)
    v, unit = _valuation_and_unit(q, p)
    num, den = unit.numerator, unit.denominator
    half = v // 2  # floor toward -inf keeps v - 2*half in {0, 1}
    s = Fraction(den) * Fraction(p) ** (-half)
    t = p ** (v - 2 * half) * num * den
    if q * s * s != t or _vp(t, p) not in (0, 1):
        raise CertificateError("square normalization does not give q s^2 = t")
    return t, s


def _qp_analyze_quadratic_center(st, gens_p, p, prec):
    """A quaternion commutant over a quadratic center F = Q(w): split by the
    center when F splits at p, else by a conic point over E = F (x) Q_p."""
    m = st.data["center_minpoly"]
    wmat = st.data["center_generator"]
    c, m_int = _int_model(m)
    report = qp_factor_count(m_int, p)
    # QuadExt takes an unramified or an Eisenstein-shifted centre; a single
    # Newton slope certifies the count but gives neither shape
    if report.method not in ("squarefree_hensel", "eisenstein_shift"):
        return ("unknown", "center factor count not certified")
    if report.factor_count >= 2:
        return _rational_field_split(wmat, c, report.detail["factors"], gens_p, p, prec)
    a_pair, b_pair, i_mat, j_mat = (st.data[k] for k in ("a", "b", "i", "j"))
    # E from the unramified generator or the Eisenstein shift that certified it
    shift = report.detail.get("shift", 0)
    ext = QuadExt(p, _int_shift_poly(m_int, shift), prec + 24)
    gamma_mat = rm.mat_combination((c, -shift), (wmat, rm.identity(len(wmat))))
    # express a = a0 + a1 w in the gamma basis: w = (gamma + shift)/c
    def to_gamma_pair(pair):
        a0, a1 = Fraction(pair[0]), Fraction(pair[1])
        return (a0 + a1 * Fraction(shift, c), a1 / c)

    a_g = to_gamma_pair(a_pair)
    b_g = to_gamma_pair(b_pair)
    a_e, i_adj = _normalize_ext_square(ext, a_g, p)
    b_e, j_adj = _normalize_ext_square(ext, b_g, p)
    # solve to enough pi-digits that the coefficients are good mod p^(prec+8)
    sol = conic_solve_ext(ext, a_e, b_e, ext.e * (prec + 8))
    if sol is None:
        return (
            "irreducible",
            {"certificate": "division quaternion over inert quadratic center",
             "search_exhausted": True},
        )
    x, y, z = sol
    d = len(i_mat)
    # the uniformizer as an exact rational matrix: gamma if ramified, else p
    pi_mat = gamma_mat if ext.ramified else rm.mat_combination((p,), (rm.identity(d),))
    i_use = _apply_gamma_scale(i_mat, pi_mat, i_adj, p, prec)
    j_use = _apply_gamma_scale(j_mat, pi_mat, j_adj, p, prec)
    q = _ext_coeff_matrix(z, gamma_mat, p, prec) + (
        _ext_coeff_matrix(x, gamma_mat, p, prec) * i_use
        + _ext_coeff_matrix(y, gamma_mat, p, prec) * j_use
    )
    return ("split", {"pieces": _pieces_from_projector(gens_p, q)})


def _normalize_ext_square(ext, pair_fracs, p):
    """Normalize an F-element to v_E in {0,1} by even powers of pi.

    The uniformizer lies in F itself (the shifted generator gamma when
    ramified, the rational prime p when unramified), so the normalization
    a -> a * pi^(-2k) is exact rational arithmetic.  Returns (integral
    E-pair, k); the caller must scale the square root by pi^(-k).

    With 1, gamma an integral basis of O_E, v_E(q0 + q1 gamma) =
    min(e v(q0), e v(q1) + [E ramified]), and k = floor(v_E / 2).
    """
    q0, q1 = Fraction(pair_fracs[0]), Fraction(pair_fracs[1])
    if not (q0 or q1):
        raise ValueError("zero center coefficient")
    k = min(ext.e * _valuation_and_unit(q, p)[0] + i * ext.ramified
            for i, q in enumerate((q0, q1)) if q) // 2
    if ext.ramified:
        step = _gamma_divide if k > 0 else _gamma_multiply
        for _ in range(2 * abs(k)):
            q0, q1 = step(ext, q0, q1)
    else:
        q0, q1 = q0 / Fraction(p) ** (2 * k), q1 / Fraction(p) ** (2 * k)
    return (_residue(q0, ext.mod), _residue(q1, ext.mod)), k


def _gamma_divide(ext, q0, q1):
    """(q0 + q1 gamma)/gamma exactly over Q (gamma^2 = -B gamma - C)."""
    # (y0 + y1 gamma) gamma = -C y1 + (y0 - B y1) gamma
    y1 = -q0 / ext.C
    y0 = q1 + ext.B * y1
    return y0, y1


def _gamma_multiply(ext, q0, q1):
    return (-ext.C * q1, q0 - ext.B * q1)


def _ext_coeff_matrix(pair, gamma_mat, p, prec):
    """c0 + c1*gamma as an approx matrix (c_i integer residues mod p^prec)."""
    c0, c1 = (PadicMatrix(p, prec, [[c]]) for c in pair)
    ident = PadicMatrix.identity(len(gamma_mat), p, prec)
    return ident.scale(c0) + PadicMatrix.from_rational(gamma_mat, p, prec).scale(c1)


def _apply_gamma_scale(mat, pi_mat, k, p, prec):
    """mat * pi^-k (k may be negative) as an approx matrix.

    ``pi_mat`` is the uniformizer as an exact rational matrix: the shifted
    generator gamma when E/Q_p is ramified, ``p * I`` when unramified.
    """
    out = rm.mat(mat)
    if k > 0:
        pinv = rm.mat_inv(pi_mat)
        for _ in range(k):
            out = rm.mat_mul(out, pinv)
    elif k < 0:
        for _ in range(-k):
            out = rm.mat_mul(out, pi_mat)
    return PadicMatrix.from_rational(out, p, prec)


def _spin_split(rep, p, prec, seed=0):
    """Invariant pieces by spinning vectors through the group action.

    Finds a proper submodule as the span of the translates of a vector,
    then turns it into a commutant projector by Maschke averaging so both
    pieces come out verified.  Returns pieces or None.
    """
    import random

    from .perm import inv as perm_inv

    d = rep.dimension
    emap = rep.element_map
    floor = max(prec // 2, 4)
    rng = random.Random(seed + 17)
    ident = PadicMatrix.identity(d, p, prec)
    vectors = list(ident.rows)
    for _ in range(6):
        vectors.append(tuple(rng.randint(-3, 3) for _ in range(d)))
    for v in vectors:
        v = PadicMatrix(p, prec, [v])
        sat = PadicMatrix.stack([v * g for g in emap.values()]).saturate(floor)
        k = len(sat)
        if not 0 < k < d:
            continue
        # projector onto span(sat) along the unit-vector complement; the
        # complement skips the first unit entry of each row
        pivots = [row.index(0) for row in sat.valuations()]
        others = [j for j in range(d) if j not in pivots]
        m_rows = PadicMatrix.stack([sat, PadicMatrix(p, prec, [ident.rows[j] for j in others])])
        minv = m_rows.inverse(floor)
        if minv is None:
            continue
        sel = PadicMatrix(p, prec, [[int(i == j < k) for j in range(d)] for i in range(d)])
        proj0 = minv * sel * m_rows
        proj = reduce(operator.add, [g * proj0 * emap[perm_inv(perm)]
                                     for perm, g in emap.items()])
        proj = proj.scale(Fraction(1, rep.group.order))
        if (proj * proj - proj).min_valuation() < floor:
            continue
        try:
            return _pieces_from_projector(rep.gen_images, proj)
        except PrecisionExhausted:
            continue
    return None


def _qp_analyze_approx(rep, p, prec, seed=0):
    """Classification for reps whose entries are already PadicMatrix.

    A noncommutative 4-dim commutant is a quaternion algebra over Q_p.  A -1
    Hilbert symbol makes it a division algebra, which no sampled element or
    spin search could split, so its structure is built and read first.
    """
    import random

    gens_p = list(rep.gen_images)
    comm = commutant_approx(gens_p, p, prec)
    dim = len(comm)
    if dim == 1:
        return ("irreducible", {"certificate": "scalar commutant"})
    quaternion = cache(partial(_approx_quaternion, comm, p, prec))
    if dim == 4 and not all((x * y - y * x).is_zero() for x, y in combinations(comm, 2)):
        try:
            quat = quaternion()
        except PrecisionExhausted:
            quat = None  # the fallback below builds it again and raises
        if quat is not None:
            k, a_int, b_int = _quaternion_ints(quat, prec)
            if k >= 7 and hilbert_symbol(a_int, b_int, p) == -1:
                return _quaternion_step(a_int, b_int, *quat[2:], gens_p, p, prec, k - 2)
    # sample elements: a constructive factorization of any minimal polynomial
    # splits; an inert minimal polynomial of full commutant degree certifies
    rng = random.Random(seed)
    cands = list(comm)
    for _ in range(16):
        cands.append(reduce(operator.add, [
            b.scale(PadicMatrix(p, prec, [[rng.randint(-3, 3)]])) for b in comm]))
    for a in cands:
        try:
            mp = pminimal_polynomial(a)
            report, how = _approx_ladder(mp, p)
        except PrecisionExhausted:
            continue
        if report is None:
            continue
        if report.factor_count == 1 and mp.ncols - 1 == dim:
            return ("irreducible", {"certificate": "commutant field inert", "how": how})
        if report.factor_count > 1:
            try:
                e = _lift_idempotent(report.detail["factors"], a, p, prec, prec - 6)
            except PrecisionExhausted:
                continue
            if e is None:
                continue
            return ("split", {"pieces": _pieces_from_projector(gens_p, e)})
    spun = _spin_split(rep, p, prec, seed)
    if spun is not None:
        return ("split", {"pieces": spun})
    if dim == 4:
        quat = quaternion()
        if quat is not None:
            k, a_int, b_int = _quaternion_ints(quat, prec)
            # the conic search reads up to 5 digits, and Newton lifts to k - 2
            if k < 7:
                raise PrecisionExhausted("not enough digits for the quaternion step")
            return _quaternion_step(a_int, b_int, *quat[2:], gens_p, p, prec, k - 2)
    return ("unknown", f"approx commutant of dimension {dim} not classified")


def _quaternion_ints(quat, prec):
    """(k, a_int, b_int) for an approx quaternion pair: the digits k, at most
    prec, to which both squares are known, and their residues mod p^k."""
    a, b = quat[:2]
    k = min(prec, a.cap, b.cap)
    return (k, *(x.residues(k)[0][0] for x in (a, b)))


def _approx_quaternion(comm, p, prec):
    """(a, b, i, j) for an approx quaternion commutant: i^2 = a, j^2 = b,
    ij = -ji, with a and b (1x1) of valuation 0 or 1."""
    d = len(comm[0])
    ident = PadicMatrix.identity(d, p, prec)
    for x in comm:
        mp = pminimal_polynomial(x)
        if mp.ncols - 1 != 2:
            continue
        # i = x - t/2 with mp = x^2 - t x + n: mp[1] = -t
        i_p = x + ident.scale(mp.entry(0, 1).scale(Fraction(1, 2)))
        sq = i_p * i_p
        a = sq.entry(0, 0)
        if not (sq - ident.scale(a)).is_zero() or a.is_zero():
            continue
        # normalize v(a) into {0,1}
        k = a.valuation() // 2
        i_p = i_p.scale(Fraction(p) ** -k)
        a = a.scale(Fraction(p) ** (-2 * k))
        rows = PadicMatrix.stack([(i_p * bb + bb * i_p).flat() for bb in comm])
        coeffs = rows.transpose().nullspace()
        for n in range(len(coeffs)):
            j_p = reduce(operator.add, [bb.scale(coeffs.entry(n, idx))
                                        for idx, bb in enumerate(comm)])
            sqj = j_p * j_p
            b = sqj.entry(0, 0)
            if not (sqj - ident.scale(b)).is_zero() or b.is_zero():
                continue
            k2 = b.valuation() // 2
            j_p = j_p.scale(Fraction(p) ** -k2)
            b = b.scale(Fraction(p) ** (-2 * k2))
            return a, b, i_p, j_p
    return None


# -- public API --------------------------------------------------------------------


def irreducible_over_Qp(rep, p, precision=None, seed=0):
    """Verdict for irreducibility of a representation over Q_p.

    Decision tree: rational reducibility first, then the commutant (field /
    quaternion / quadratic-center cases), with idempotent lifting for the
    constructive splits.  Precision is doubled twice on exhaustion; a final
    failure reports 'unknown' with a precision-exhaustion marker, distinct
    from a mathematical unknown.

    The verdict is computed once per (p, precision, seed) and cached on the
    rep (everything here is immutable).
    """
    precision = precision or DEFAULT_PRECISION
    cache = rep.__dict__.setdefault("_qp_verdict_cache", {})
    key = (p, precision, seed)
    if key not in cache:
        cache[key] = _qp_verdict(rep, p, precision, seed)
    return cache[key]


def _qp_verdict(rep, p, precision, seed):
    last = None
    for n in (precision, 2 * precision, 4 * precision):
        try:
            kind, info = _qp_analyze(rep, p, n, seed)
        except PrecisionExhausted as exc:
            last = exc
            continue
        if kind == "irreducible":
            return Verdict(IRREDUCIBLE, info, "padic-commutant")
        if kind in ("split", "split_exact"):
            return Verdict(
                REDUCIBLE,
                {"subspace": info["pieces"][0], "pieces": info["pieces"],
                 "precision": n},
                "padic-idempotent" if kind == "split" else "rational-witness",
            )
        return Verdict(UNKNOWN, {"reason": info}, "padic-unclassified")
    return Verdict(
        UNKNOWN, {"reason": f"precision exhausted: {last}"}, "padic-precision"
    )


def padic_split(rep, p, precision=None, seed=0):
    """Constituent lattice reps of rep over Z_p (requires a reducible input).

    Each constituent is verified: its generator images are p-integral with
    p-adic unit determinants, and every relation holds to the cap.
    """
    precision = precision or DEFAULT_PRECISION
    last = None
    for n in (precision, 2 * precision, 4 * precision):
        try:
            return _padic_split_at(rep, p, n, seed)
        except PrecisionExhausted as exc:
            last = exc
    raise PrecisionExhausted(f"padic_split: {last}")


def _padic_split_at(rep, p, n, seed):
    kind, info = _qp_analyze(rep, p, n, seed)
    if kind == "irreducible":
        raise ValueError("padic_split requires a Q_p-reducible representation")
    if kind == "unknown":
        raise PrecisionExhausted(f"split not constructed: {info}")
    out = []
    for rows in info["pieces"]:
        sub = _constituent_rep(rep, rows, p, n)
        sub_kind, sub_info = _qp_analyze(sub, p, max(n // 2, 8), seed)
        if sub_kind in ("split", "split_exact"):
            for rows2 in sub_info["pieces"]:
                out.append(_constituent_rep(sub, rows2, p, max(n // 2, 8)))
        else:
            out.append(sub)
    return out


def _constituent_rep(rep, rows, p, n):
    """Restriction of rep to an invariant subspace as a Z_p lattice rep.

    Only the generator images are solved for, and they must be p-integral
    with unit determinants.  A relation they break at the cap means too few
    digits, so it raises PrecisionExhausted.
    """
    if not isinstance(rows, PadicMatrix):
        rows = PadicMatrix.from_rational(rows, p, n)
    floor = max(rows.cap // 2, 4)
    sat = rows.saturate(floor)
    gens = [rep.element_map[g] for g in rep.group.generators]
    if rep.ring == "Q":
        gens = [PadicMatrix.from_rational(g, p, n) for g in gens]
    images = [sat.coords(sat * g, floor) for g in gens]
    if any(m.min_valuation() < 0 for m in images):
        raise PrecisionExhausted("constituent entry not p-integral")
    if any(m.det_valuation() != 0 for m in images):
        raise PrecisionExhausted("constituent determinant is not a unit")
    try:
        return rep_from_approx(rep.group, images, PadicMatrix.identity(len(sat), p, n))
    except RelationViolation as exc:
        raise PrecisionExhausted(f"constituent {exc}")


def decompose_over_Qp(rep, p, precision=None, seed=0):
    """Irreducible-over-Q_p constituent subspaces of a representation.

    Returns exact rational row bases when the whole split is rational, and
    a single full-space basis when the rep is already Q_p-irreducible;
    raises ApproxSplitNeeded when a constituent splits p-adically beyond
    the rational decomposition, and UncertifiedSplit when the Q_p status of
    a constituent is unknown (callers treat either as not decisive, never
    as a primitivity certificate).
    """
    precision = precision or DEFAULT_PRECISION
    if rep.ring != "Q":
        verdict = irreducible_over_Qp(rep, p, precision, seed)
        if verdict.status == IRREDUCIBLE:
            return [PadicMatrix.identity(rep.dimension, p, precision)]
        if verdict.status == REDUCIBLE:
            raise ApproxSplitNeeded("approx constituent splits over Q_p")
        raise UncertifiedSplit("approx constituent Q_p status unknown")
    pieces = decompose_over_Q(rep, seed)
    for rows in pieces:
        sub_rep, _ = _subspace_restriction(rep, rows)
        verdict = irreducible_over_Qp(sub_rep, p, precision, seed)
        if verdict.status == REDUCIBLE:
            raise ApproxSplitNeeded("rational constituent splits over Q_p")
        if verdict.status == UNKNOWN:
            raise UncertifiedSplit("constituent Q_p status unknown")
    return pieces
