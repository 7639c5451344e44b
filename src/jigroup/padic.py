"""p-adic decision layer: factor counting over Q_p, precision-tracked
linear algebra, idempotent lifting, and irreducibility over Q_p.

Elements carry an absolute precision; arithmetic propagates precision
pessimistically and any decision that would need more digits than are
available raises PrecisionExhausted (callers retry with doubled precision,
twice, before giving up).  Nothing here is floating point: every residue is
an exact integer mod p^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import ratmat as rm
from .hilbert import _valuation_and_unit, hilbert_symbol
from .rep import anticommuting, commutation_rows
from .verdicts import IRREDUCIBLE, REDUCIBLE, UNKNOWN, Verdict

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


class PadicApprox:
    """x = p^shift * u with u known mod p^k (u a unit or 0).

    Absolute precision is shift + k; the valuation is exactly `shift` when
    u != 0 and is only bounded below by shift + k when u == 0.
    """

    __slots__ = ("p", "shift", "unit", "k")

    def __init__(self, p, shift, unit, k):
        if k < 0:
            k = 0
        unit %= p**k if k else 1
        if unit:
            v = _vp(unit, p)
            if v:
                shift += v
                k -= v
                unit //= p**v
                unit %= p**k if k else 1
        self.p = p
        self.shift = shift
        self.unit = unit
        self.k = k

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_int(n, p, prec):
        return PadicApprox(p, 0, n % p**prec, prec)

    @staticmethod
    def from_rational(q, p, prec):
        q = Fraction(q)
        if q == 0:
            return PadicApprox(p, 0, 0, prec)
        vn = _vp(q.numerator, p) or 0
        vd = _vp(q.denominator, p) or 0
        num = q.numerator // p**vn
        den = q.denominator // p**vd
        unit = num * pow(den, -1, p**prec) % p**prec
        return PadicApprox(p, vn - vd, unit, prec)

    @staticmethod
    def zero(p, prec):
        return PadicApprox(p, 0, 0, prec)

    # -- structure ------------------------------------------------------------

    @property
    def abs_prec(self):
        return self.shift + self.k

    def val_lower_bound(self):
        return self.shift if self.unit else self.shift + self.k

    def valuation(self):
        """Exact valuation; raises if the element is indistinguishable from 0."""
        if self.unit == 0:
            raise PrecisionExhausted(
                f"valuation undecidable: element is 0 mod p^{self.abs_prec}"
            )
        return self.shift

    def provably_nonzero(self):
        return self.unit != 0

    def residue(self, k):
        """Integer residue of x mod p^k (requires shift >= 0 or exact shift)."""
        if self.shift < 0:
            raise PrecisionExhausted("negative valuation residue requested")
        if self.abs_prec < k:
            raise PrecisionExhausted(
                f"residue mod p^{k} needs precision {k}, have {self.abs_prec}"
            )
        return self.unit * self.p**self.shift % self.p**k

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.p}^{self.abs_prec})"
        return f"{self.unit}*{self.p}^{self.shift}+O({self.p}^{self.abs_prec})"

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicApprox):
            return other
        if isinstance(other, (int, Fraction)):
            return PadicApprox.from_rational(other, self.p, self.k + max(self.shift, 0) + 4)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        s = min(self.shift, other.shift)
        a_abs = self.abs_prec
        b_abs = other.abs_prec
        out_abs = min(a_abs, b_abs)
        k = out_abs - s
        if k <= 0:
            return PadicApprox(p, out_abs, 0, 0)
        val = (
            self.unit * p ** (self.shift - s) + other.unit * p ** (other.shift - s)
        ) % p**k
        return PadicApprox(p, s, val, k)

    __radd__ = __add__

    def __neg__(self):
        return PadicApprox(self.p, self.shift, -self.unit % self.p**self.k if self.k else 0, self.k)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        # relative precision of a product of units is min of relative precisions
        if self.unit == 0 or other.unit == 0:
            abs_out = min(
                self.abs_prec + other.val_lower_bound(),
                other.abs_prec + self.val_lower_bound(),
            )
            return PadicApprox(p, abs_out, 0, 0)
        k = min(self.k, other.k)
        return PadicApprox(
            p, self.shift + other.shift, self.unit * other.unit % p**k, k
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.unit == 0:
            raise PrecisionExhausted("cannot invert an element indistinguishable from 0")
        p = self.p
        return PadicApprox(p, -self.shift, pow(self.unit, -1, p**self.k), self.k)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def unit_class_mod(self, m):
        """The unit part mod m (for symbol formulas); requires nonzero."""
        if self.unit == 0:
            raise PrecisionExhausted("unit class of an apparent zero")
        if self.p**self.k < m:
            raise PrecisionExhausted("not enough digits for the unit class")
        return self.unit % m


def approx_mat(rows, p, prec):
    out = []
    for row in rows:
        out.append(
            tuple(
                x
                if isinstance(x, PadicApprox)
                else PadicApprox.from_rational(x, p, prec)
                for x in row
            )
        )
    return tuple(out)


def pmat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(_dot(row, col) for col in bt) for row in a
    )


def _dot(u, v):
    acc = None
    for x, y in zip(u, v):
        t = x * y
        acc = t if acc is None else acc + t
    return acc


def pmat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def pmat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def pmat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def pmat_identity(d, p, prec):
    one = PadicApprox.from_int(1, p, prec)
    zero = PadicApprox.zero(p, prec)
    return tuple(
        tuple(one if i == j else zero for j in range(d)) for i in range(d)
    )


def _is_zero_at(x, floor):
    """Treat as zero: uncertain entries, and (with a floor) tiny entries.

    The noise floor handles numerical-rank questions: approximations of
    exactly dependent rows leave residues of valuation close to the working
    precision, which must not count as pivots.
    """
    if not x.provably_nonzero():
        return True
    return floor is not None and x.shift >= floor


def prow_echelon(rows, min_certify=1, floor=None):
    """Row echelon with minimal-valuation pivoting over PadicApprox.

    Returns (echelon rows, pivot columns).  Without a floor, an uncertain
    pivot candidate with fewer than `min_certify` digits raises
    PrecisionExhausted; with a floor, small entries are zero by fiat and the
    caller is expected to verify the outcome independently.
    """
    work = [list(r) for r in rows]
    nr = len(work)
    if nr == 0:
        return (), []
    nc = len(work[0])
    pivots = []
    r = 0
    for c in range(nc):
        best = None
        for i in range(r, nr):
            e = work[i][c]
            if not _is_zero_at(e, floor):
                if best is None or e.shift < work[best][c].shift:
                    best = i
            elif floor is None and not e.provably_nonzero() and e.abs_prec < min_certify:
                raise PrecisionExhausted("pivot decision beyond precision")
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        piv = work[r][c]
        inv = piv.inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(nr):
            if i != r and not _is_zero_at(work[i][c], floor):
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    ech = [tuple(row) for row in work[:r]]
    return tuple(ech), pivots


def pnullspace(rows, floor=None):
    """Right-kernel basis {v : rows . v = 0} at working precision."""
    if not rows:
        return ()
    ech, pivots = prow_echelon(rows, floor=floor)
    nc = len(rows[0])
    p = rows[0][0].p
    prec = max(x.abs_prec for row in rows for x in row)
    free = [c for c in range(nc) if c not in pivots]
    out = []
    for f in free:
        v = [PadicApprox.zero(p, prec) for _ in range(nc)]
        v[f] = PadicApprox.from_int(1, p, prec)
        for i, c in enumerate(pivots):
            v[c] = -ech[i][f]
        out.append(tuple(v))
    return tuple(out)


def prank(rows, floor=None):
    return len(prow_echelon(rows, floor=floor)[0])


def psolve(a_rows, b_vec, floor=None):
    """Solve a x = b at precision; None if inconsistent at precision."""
    aug = [tuple(list(r) + [bv]) for r, bv in zip(a_rows, b_vec)]
    ech, pivots = prow_echelon(aug, floor=floor)
    nc = len(a_rows[0])
    p = b_vec[0].p
    prec = max(x.abs_prec for x in b_vec)
    if pivots and pivots[-1] == nc:
        return None  # pivot in the constant column: inconsistent
    x = [PadicApprox.zero(p, prec) for _ in range(nc)]
    for i, c in enumerate(pivots):
        x[c] = ech[i][-1]
    return tuple(x)


def psaturate(rows, p, floor=None):
    """Pure integral lattice basis of the row space, by full pivoting.

    Each step picks the minimal-valuation entry of the remaining matrix,
    normalizes its row (making the row integral with a unit pivot), and
    clears the column everywhere.  Rows below the noise floor are dropped.
    Rows come back sorted by pivot column.
    """
    work = [list(r) for r in rows]
    done = []  # (pivot column, row)
    used = set()
    while True:
        best = None
        for i, row in enumerate(work):
            for j, x in enumerate(row):
                if j in used or _is_zero_at(x, floor):
                    continue
                if best is None or x.shift < best[0]:
                    best = (x.shift, i, j)
        if best is None:
            break
        _, i, j = best
        row = work.pop(i)
        inv = row[j].inverse()
        row = [x * inv for x in row]
        for k in range(len(work)):
            if not _is_zero_at(work[k][j], floor):
                f = work[k][j]
                work[k] = [x - f * y for x, y in zip(work[k], row)]
        done = [
            (
                pc,
                [x - drow[j] * y for x, y in zip(drow, row)]
                if not _is_zero_at(drow[j], floor)
                else drow,
            )
            for pc, drow in done
        ]
        done.append((j, row))
        used.add(j)
    done.sort(key=lambda t: t[0])
    return tuple(tuple(row) for _, row in done)


# -- F_p[x] machinery (exact integers) ----------------------------------------


def _fp_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_mul(f, g, p):
    return _fp_trim(_int_poly_mul(f, g), p)


def _fp_gcd(f, g, p):
    f, g = _fp_trim(list(f), p), _fp_trim(list(g), p)
    while g:
        f, g = g, _int_poly_divmod_mod(f, g, p)[1]
    if f:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
    return f


def _fp_pow_mod(base, e, mod, p):
    out = [1]
    base = _int_poly_divmod_mod(base, mod, p)[1]
    while e:
        if e & 1:
            out = _int_poly_divmod_mod(_fp_mul(out, base, p), mod, p)[1]
        base = _int_poly_divmod_mod(_fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def _fp_deriv(f, p):
    return _fp_trim([i * c % p for i, c in enumerate(f)][1:], p)


def fp_is_squarefree(f, p):
    return len(_fp_gcd(f, _fp_deriv(f, p), p)) == 1


def _fp_factor_squarefree(f, p):
    """Factor a squarefree monic poly over F_p into irreducibles."""
    out = []
    # distinct-degree decomposition
    work = list(f)
    d = 1
    x = [0, 1]
    while len(work) - 1 >= 2 * d:
        h = _fp_pow_mod(x, p**d, work, p)
        h_minus_x = _fp_trim(
            [
                (h[i] if i < len(h) else 0) - (x[i] if i < len(x) else 0)
                for i in range(max(len(h), len(x)))
            ],
            p,
        )
        g = _fp_gcd(work, h_minus_x, p)
        if len(g) > 1:
            out.extend((fac, d) for fac in _fp_equal_degree(g, d, p))
            work = _int_poly_divmod_mod(work, g, p)[0]
        d += 1
    if len(work) > 1:
        out.append((work, len(work) - 1))
    return [ _fp_trim(fac, p) for fac, _ in out ]


def _fp_equal_degree(f, d, p):
    """Split a product of degree-d irreducibles (deterministic search)."""
    n = len(f) - 1
    if n == d:
        return [f]
    # try gcds with translates of the splitting polynomial
    if p == 2:
        # trace polynomial T(x) = x + x^2 + x^4 + ... over shifted arguments
        for c in range(2**6):
            base = _poly_from_int_bits(c)
            tr = [0]
            cur = base
            for _ in range(d):
                tr = _fp_trim(
                    [
                        (tr[i] if i < len(tr) else 0) + (cur[i] if i < len(cur) else 0)
                        for i in range(max(len(tr), len(cur)))
                    ],
                    p,
                )
                cur = _int_poly_divmod_mod(_fp_mul(cur, cur, p), f, p)[1]
            g = _fp_gcd(f, tr, p)
            if 1 < len(g) < len(f):
                return _fp_equal_degree(g, d, p) + _fp_equal_degree(
                    _int_poly_divmod_mod(f, g, p)[0], d, p
                )
        raise AssertionError("equal-degree splitting failed (p=2)")
    e = (p**d - 1) // 2
    for c in range(p * 4 + 1):
        base = [c % p, 1]
        h = _fp_pow_mod(base, e, f, p)
        h[0] = (h[0] - 1) % p
        g = _fp_gcd(f, _fp_trim(h, p), p)
        if 1 < len(g) < len(f):
            return _fp_equal_degree(g, d, p) + _fp_equal_degree(
                _int_poly_divmod_mod(f, g, p)[0], d, p
            )
    raise AssertionError("equal-degree splitting failed")


def _poly_from_int_bits(c):
    out = []
    while c:
        out.append(c & 1)
        c >>= 1
    return out or [0]


# -- Hensel lifting ------------------------------------------------------------


def hensel_lift_pair(f, g0, h0, p, target_k):
    """Lift f = g0 h0 (mod p), gcd(g0,h0)=1 mod p, to f = g h (mod p^target_k).

    f monic integer; g0, h0 monic mod p.  Classic quadratic Hensel with the
    quotient terms carried so degrees stay put and g stays monic.
    """
    u, v = _fp_bezout(g0, h0, p)  # u g0 + v h0 = 1 mod p
    g, h = [c % p for c in g0], [c % p for c in h0]
    k = 1
    while k < target_k:
        k2 = min(2 * k, target_k)
        mod = p**k2
        e = _int_poly_sub(f, _int_poly_mul(g, h), mod)
        # delta_g = (v e) rem g; delta_h = u e + (v e quot g) h
        q, dg = _int_poly_divmod_mod(_int_poly_mul(v, e), g, mod)
        dh = [
            c % mod
            for c in _int_poly_add(_int_poly_mul(u, e), _int_poly_mul(q, h))
        ]
        g = _int_trim([(a + b) % mod for a, b in _zip_pad(g, dg)])
        h = _int_trim([(a + b) % mod for a, b in _zip_pad(h, _int_trim(dh))])
        # repair Bezout: c = u g + v h - 1; u -= (u c rem h); v -= v c + q' g
        c_err = _int_poly_sub(
            _int_poly_add(_int_poly_mul(u, g), _int_poly_mul(v, h)), [1], mod
        )
        q2, du = _int_poly_divmod_mod(_int_poly_mul(u, c_err), h, mod)
        dv = [
            x % mod
            for x in _int_poly_add(_int_poly_mul(v, c_err), _int_poly_mul(q2, g))
        ]
        u = _int_trim([(a - b) % mod for a, b in _zip_pad(u, du)])
        v = _int_trim([(a - b) % mod for a, b in _zip_pad(v, _int_trim(dv))])
        k = k2
    mod = p**target_k
    assert _int_poly_sub(f, _int_poly_mul(g, h), mod) == []
    return [c % mod for c in g], [c % mod for c in h]


def _int_poly_divmod_mod(f, g, mod):
    """(quot, rem) of f by g over Z/mod; g must have a unit leading coeff."""
    f = _int_trim([c % mod for c in f])
    g = _int_trim([c % mod for c in g])
    lead_inv = pow(g[-1], -1, mod)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = f[-1] * lead_inv % mod
        k = len(f) - len(g)
        q[k] = c
        for j, b in enumerate(g):
            f[k + j] = (f[k + j] - c * b) % mod
        f = _int_trim(f)
    return _int_trim(q), f


def _fp_bezout(g, h, p):
    r0, r1 = _fp_trim(list(g), p), _fp_trim(list(h), p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _int_poly_divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_trim(
            [(a - b) % p for a, b in _zip_pad(s0, _fp_mul(q, s1, p))], p
        )
        t0, t1 = t1, _fp_trim(
            [(a - b) % p for a, b in _zip_pad(t0, _fp_mul(q, t1, p))], p
        )
    assert len(r0) == 1
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _int_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _int_poly_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _int_trim(out)


def _int_poly_add(f, g):
    return _int_trim([a + b for a, b in _zip_pad(list(f), list(g))])


def _int_poly_sub(f, g, mod=None):
    out = [a - b for a, b in _zip_pad(list(f), list(g))]
    if mod:
        out = [c % mod for c in out]
    return _int_trim(out)


def _poly_eval_mod(g, x, mod):
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % mod
    return acc


def zp_simple_roots(f, p, prec, dig_depth=8, branch_budget=512):
    """Roots of an integer polynomial in Z_p with Hensel margin, mod p^prec.

    Digs digit by digit until the margin v(f(x)) > 2 v(f'(x)) holds, then
    runs Newton; branches that never reach the margin within dig_depth are
    dropped (only roots that can be certified are returned).
    """
    f = _int_trim(list(f))
    fprime = _int_trim([i * c for i, c in enumerate(f)][1:])
    roots = []
    mod_full = p**prec
    stack = [(r, 1) for r in range(p) if _poly_eval_mod(f, r, p) == 0]
    budget = branch_budget
    while stack:
        budget -= 1
        if budget < 0:
            raise PrecisionExhausted("root digging budget exceeded")
        x, k = stack.pop()
        fx = _poly_eval_mod(f, x, mod_full)
        dfx = _poly_eval_mod(fprime, x, mod_full)
        vf = _vp(fx, p) if fx else prec
        vdf = _vp(dfx, p) if dfx else None
        if vdf is not None and vf > 2 * vdf:
            cur = x
            t = vdf
            for _ in range(prec.bit_length() + 6):
                fc = _poly_eval_mod(f, cur, mod_full)
                if fc == 0:
                    break
                dc = _poly_eval_mod(fprime, cur, mod_full)
                step = (
                    (fc // p**t)
                    * pow(dc // p**t, -1, p ** (prec - t))
                    % p ** (prec - t)
                )
                cur = (cur - step) % mod_full
            if _poly_eval_mod(f, cur, p ** (prec - t)) == 0:
                roots.append((cur % p ** (prec - t), prec - t))
            continue
        if k > dig_depth:
            continue
        for t in range(p):
            x2 = x + t * p**k
            if _poly_eval_mod(f, x2, p ** (k + 1)) == 0:
                stack.append((x2, k + 1))
    # deduplicate by the coarsest certified precision
    out = []
    for r, kk in sorted(roots):
        if not any((r - r2) % p ** min(kk, k2) == 0 for r2, k2 in out):
            out.append((r, kk))
    return out


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

    Methods, in order: squarefree reduction mod p (Hensel count); Eisenstein
    after a shift x -> x+c with |c| <= p; Newton polygon segment count as a
    lower bound with factor_count unknown.
    """
    f = tuple(int(c) for c in f)
    if not f or f[-1] == 0:
        raise ValueError("polynomial must have a nonzero leading coefficient")
    fr = rm.poly_trim(f)
    if not rm.poly_is_squarefree(fr):
        raise ValueError("polynomial is not squarefree over Q")
    if len(f) <= 2:
        return QpFactorReport(f, p, 1 if len(f) == 2 else 0, "trivial", {})
    if f[-1] % p == 0:
        # a unit leading coefficient is needed for the mod-p route; fall
        # through to shifts / polygon
        pass
    else:
        fbar = _fp_trim(list(f), p)
        if len(fbar) == len(f) and fp_is_squarefree(fbar, p):
            facs = fp_factor_squarefree_monic(fbar, p)
            return QpFactorReport(
                f, p, len(facs), "squarefree_hensel", {"factors": facs}
            )
    for c in range(-p, p + 1):
        shifted = _int_shift_poly(f, c)
        if _is_eisenstein(shifted, p):
            return QpFactorReport(f, p, 1, "eisenstein_shift", {"shift": c})
    slopes = newton_polygon_slopes(f, p)
    return QpFactorReport(
        f,
        p,
        None,
        "newton_polygon_bound",
        {"segment_count": len(slopes), "lower_bound": len(slopes)},
    )


def fp_factor_squarefree_monic(fbar, p):
    inv = pow(fbar[-1], p - 2, p)
    monic = [c * inv % p for c in fbar]
    return _fp_factor_squarefree(monic, p)


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
        assert lead == 1
        self.p = p
        self.B = int(b)
        self.C = int(c)
        self.W = work_digits
        self.mod = p**work_digits
        disc_poly = [self.C % p, self.B % p, 1]
        if fp_is_squarefree(disc_poly, p) and not any(
            _poly_eval_mod(disc_poly, r, p) == 0 for r in range(p)
        ):
            self.ramified = False
            self.e = 1
        elif self.B % p == 0 and self.C % p == 0 and self.C % (p * p) != 0:
            self.ramified = True
            self.e = 2
        else:
            raise PrecisionExhausted(
                "quadratic extension is neither unramified nor Eisenstein"
            )

    @classmethod
    def from_center_minpoly(cls, p, m, work_digits):
        """Build E from a monic integer quadratic irreducible over Q_p.

        Returns (ext, shift) where gamma = w - shift for the original root w.
        """
        m = tuple(int(c) for c in m)
        assert len(m) == 3 and m[2] == 1
        mbar = _fp_trim(list(m), p)
        if len(mbar) == 3 and fp_is_squarefree(mbar, p) and not any(
            _poly_eval_mod(mbar, r, p) == 0 for r in range(p)
        ):
            return cls(p, m, work_digits), 0
        for s in range(-p, p + 1):
            shifted = _int_shift_poly(m, s)
            if _is_eisenstein(shifted, p):
                return cls(p, shifted, work_digits), s
        raise PrecisionExhausted("no Eisenstein model for the quadratic center")

    # elements: pairs of ints mod self.mod
    def zero(self):
        return (0, 0)

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
            assert a0 % p == 0 and a1 % p == 0
            return (a0 // p % self.mod, a1 // p % self.mod)
        # pi * (y0 + y1 pi) = -C y1 + (y0 - B y1) pi = a0 + a1 pi
        assert a0 % p == 0
        cu = self.C // p
        y1 = (-(a0 // p) * pow(cu, -1, self.mod)) % self.mod
        y0 = (a1 + self.B * y1) % self.mod
        return (y0, y1)

    def mul_pi(self, x):
        if not self.ramified:
            return ((x[0] * self.p) % self.mod, (x[1] * self.p) % self.mod)
        return ((-self.C * x[1]) % self.mod, (x[0] - self.B * x[1]) % self.mod)

    def inv_unit(self, x):
        """Inverse of a v_E = 0 element (via the conjugate / norm)."""
        a0, a1 = x
        # conjugate: a0 + a1*gamma -> (a0 - B a1) - a1 gamma; N = x * conj(x)
        conj = ((a0 - self.B * a1) % self.mod, (-a1) % self.mod)
        n = self.mul(x, conj)
        assert n[1] % self.mod == 0, "norm not rational"
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
    assert va <= 1 and vb <= 1
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
    return _conic_newton(ext, a, b, found, K, target_pi_prec)


def _conic_newton(ext, a, b, sol, start_prec, target_pi_prec):
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


# -- exact quaternion structure over a quadratic center --------------------------


def quaternion_over_center(comm_basis, center_gen, center_minpoly):
    """Split an 8-dim rational algebra with center F = Q(w) as a quaternion.

    Returns (a_pair, b_pair, i_mat, j_mat) with i^2 = a0 + a1 w, j^2 = b0 +
    b1 w, ij = -ji; or ('zero_divisor', matrix) if one shows up on the way.
    All arithmetic is exact rational.
    """
    d = len(comm_basis[0])
    W = center_gen
    ident = rm.identity(d)

    def f_span_coords(x):
        # solve x = c0 I + c1 W
        rows = [
            tuple(q for row in m for q in row) for m in (ident, W)
        ]
        vec = tuple(q for row in x for q in row)
        return rm.solve(rm.mat_transpose(rows), vec)

    # pick x outside F = span(I, W)
    x = None
    for cand in comm_basis:
        rows = [tuple(q for row in m for q in row) for m in (ident, W, cand)]
        if rm.rank(rows) == 3:
            x = cand
            break
    assert x is not None, "algebra equals its center"
    # minimal polynomial of x over F: x^2 = alpha x + beta W x + gamma I + delta W
    x2 = rm.mat_mul(x, x)
    basis4 = (x, rm.mat_mul(W, x), ident, W)
    rows = [tuple(q for row in m for q in row) for m in basis4]
    vec = tuple(q for row in x2 for q in row)
    sol = rm.solve(rm.mat_transpose(rows), vec)
    assert sol is not None, "element is not quadratic over the center"
    alpha, beta, gamma, delta = sol
    # i = x - t/2 with t = alpha + beta w
    half_t = rm.mat_add(
        rm.mat_scale(ident, alpha / 2), rm.mat_scale(W, beta / 2)
    )
    i_mat = rm.mat_sub(x, half_t)
    i_sq = rm.mat_mul(i_mat, i_mat)
    a_pair = f_span_coords(i_sq)
    assert a_pair is not None, "i^2 is not central"
    if all(c == 0 for c in a_pair):
        return ("zero_divisor", i_mat)
    for j_mat in anticommuting(i_mat, comm_basis):
        j_sq = rm.mat_mul(j_mat, j_mat)
        b_pair = f_span_coords(j_sq)
        if b_pair is None:
            continue
        if all(c == 0 for c in b_pair):
            return ("zero_divisor", j_mat)
        span = [
            tuple(q for row in m for q in row)
            for m in (
                ident,
                W,
                i_mat,
                rm.mat_mul(W, i_mat),
                j_mat,
                rm.mat_mul(W, j_mat),
                rm.mat_mul(i_mat, j_mat),
                rm.mat_mul(W, rm.mat_mul(i_mat, j_mat)),
            )
        ]
        if rm.rank(span) == 8:
            return (a_pair, b_pair, i_mat, j_mat)
    raise AssertionError("no quaternion pair over the center")


# -- approx commutants and minimal polynomials -----------------------------------


def rep_gen_images_padic(rep, p, prec):
    """Generator images as PadicApprox matrices (exact rational reps embed)."""
    if rep.ring == "Q":
        return [approx_mat(g, p, prec) for g in rep.gen_images]
    return list(rep.gen_images)


def rep_element_map_padic(rep, p, prec):
    if rep.ring == "Q":
        return {e: approx_mat(g, p, prec) for e, g in rep.element_map.items()}
    return dict(rep.element_map)


def commutant_approx(gen_images_p, p, prec):
    """Approx basis of {X : X g = g X for the given approx matrices}."""
    d = len(gen_images_p[0])
    vecs = pnullspace(commutation_rows(gen_images_p, PadicApprox.zero(p, prec)))
    out = []
    for v in vecs:
        m = tuple(tuple(v[i * d + j] for j in range(d)) for i in range(d))
        out.append(_pmat_normalize_integral(m, p))
    return out


def _pmat_normalize_integral(m, p):
    """Scale an approx matrix by a power of p so min valuation is 0."""
    vals = [
        x.valuation() for row in m for x in row if x.provably_nonzero()
    ]
    if not vals:
        return m
    shift = -min(vals)
    if shift == 0:
        return m
    c = PadicApprox(p, shift, 1, max(x.k for row in m for x in row))
    return pmat_scale(m, c)


def pminimal_polynomial(m, p):
    """Approx monic minimal polynomial of an approx matrix."""
    d = len(m)
    prec = max(x.abs_prec for row in m for x in row)
    powers = [pmat_identity(d, p, prec)]
    for k in range(1, d + 2):
        rows = [tuple(x for row in mm for x in row) for mm in powers]
        ns = pnullspace(rm.mat_transpose(rows))
        if ns:
            v = list(ns[0])
            # make monic: the free column is the last power
            lead = v[-1]
            if not lead.provably_nonzero():
                raise PrecisionExhausted("minimal polynomial lead uncertain")
            inv = lead.inverse()
            return tuple(x * inv for x in v)
        powers.append(pmat_mul(powers[-1], m))
    raise PrecisionExhausted("no dependence found for minimal polynomial")


def _newton_idempotent(e, p, target_slack):
    """Refine e with e^2 - e = O(p) to an idempotent mod p^target_slack."""
    prec = max(x.abs_prec for row in e for x in row) + 4
    three = PadicApprox.from_int(3, p, prec)
    two = PadicApprox.from_int(2, p, prec)
    guard = 0
    while True:
        delta = pmat_sub(pmat_mul(e, e), e)
        worst = min(x.val_lower_bound() for row in delta for x in row)
        if worst >= target_slack:
            return e
        guard += 1
        if guard > 40:
            raise PrecisionExhausted("idempotent refinement stalled")
        e2 = pmat_mul(e, e)
        e = pmat_sub(pmat_scale(e2, three), pmat_scale(pmat_mul(e2, e), two))


# -- polynomial irreducibility certificates for approx coefficients ---------------


def qp_poly_status_approx(coeffs, p):
    """('irreducible', how) / ('factors_mod_p', fbar_factors) / ('unknown', why)
    for a monic approx polynomial over Z_p."""
    n = len(coeffs) - 1
    if n == 1:
        return ("irreducible", "linear")
    kmin = min(c.abs_prec for c in coeffs)
    if kmin < 2:
        raise PrecisionExhausted("not enough digits for reduction tests")
    if any(c.shift < 0 for c in coeffs):
        return ("unknown", "non-integral coefficients")
    fbar = _fp_trim([c.residue(1) for c in coeffs], p)
    if len(fbar) == n + 1 and fp_is_squarefree(fbar, p):
        facs = fp_factor_squarefree_monic(fbar, p)
        if len(facs) == 1:
            return ("irreducible", "irreducible mod p")
        return ("factors_mod_p", facs)
    # Eisenstein shifts on residues (valuations certified up to kmin digits)
    res = [c.residue(kmin) for c in coeffs]
    for s in range(-p, p + 1):
        shifted = _int_shift_poly(tuple(res), s)
        if all(c % p == 0 for c in shifted[:-1]) and shifted[-1] % p and shifted[
            0
        ] % (p * p):
            return ("irreducible", f"eisenstein shift {s}")
    # single-slope Newton polygon with full denominator
    v0 = _vp(res[0], p) if res[0] else kmin
    if res[0] and gcd(v0, n) == 1:
        ok = True
        for i in range(1, n):
            vi = _vp(res[i], p) if res[i] else kmin
            if Fraction(vi) < Fraction(v0) * (n - i) / n:
                ok = False
                break
        if ok:
            return ("irreducible", "single newton slope")
    return ("unknown", "no certificate applies")


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
    from math import lcm

    n = len(f) - 1
    c = 1
    for q in f:
        c = lcm(c, Fraction(q).denominator)
    g = tuple(int(Fraction(f[j]) * c ** (n - j)) for j in range(n + 1))
    return c, g


def _matrix_poly_approx(coeffs_int, mat_p, p, prec):
    """Evaluate an integer polynomial at an approx matrix."""
    d = len(mat_p)
    acc = pmat_scale(pmat_identity(d, p, prec), PadicApprox.from_int(0, p, prec))
    for c in reversed(coeffs_int):
        acc = pmat_mul(acc, mat_p)
        acc = pmat_add(acc, pmat_scale(pmat_identity(d, p, prec),
                                       PadicApprox.from_int(c, p, prec)))
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
        h0 = _fp_mul(h0, f, p)
    _, v0 = _fp_bezout(facs[0], h0, p)
    e0 = _matrix_poly_approx(_fp_mul(v0, h0, p), a_mat_p, p, prec)
    e = _newton_idempotent(e0, p, target_slack)
    nonzero = any(x.provably_nonzero() for row in e for x in row)
    diff = pmat_sub(e, pmat_identity(len(e), p, 4))
    if nonzero and any(x.provably_nonzero() for row in diff for x in row):
        return e
    return None


def _split_from_field_generator(a_mat_p, minpoly_rational, p, prec):
    """('irreducible', report) or ('idempotent', e) or ('unknown', report).

    a_mat_p: approx matrix with the given (exact rational, monic, squarefree)
    minimal polynomial; splits the etale algebra Q_p[a] when the report is
    constructive (mod-p squarefree factorization + idempotent Newton).
    """
    c, g = _int_model(minpoly_rational)
    report = qp_factor_count(g, p)
    if report.factor_count == 1:
        return ("irreducible", report)
    if report.method == "squarefree_hensel":
        ca = pmat_scale(a_mat_p, PadicApprox.from_int(c, p, prec))
        e = _lift_idempotent(report.detail["factors"], ca, p, prec, prec - 4)
        if e is None:
            raise PrecisionExhausted("field-split idempotent degenerated")
        return ("idempotent", e)
    return ("unknown", report)


def _pieces_from_projector(gen_images_p, q_mat, p):
    """Two invariant pieces from a commutant zero divisor / idempotent.

    The noise floor is half the worst entry precision of the projector:
    exact-rank decisions are replaced by rank-at-floor plus the downstream
    invariance/direct-sum verifications.
    """
    work_prec = min(x.abs_prec for row in q_mat for x in row)
    floor = max(work_prec // 2, 4)
    rows_img = psaturate([row for row in q_mat], p, floor)
    rows_ker = psaturate(pnullspace(rm.mat_transpose(q_mat), floor), p, floor)
    d = len(q_mat)
    if len(rows_img) + len(rows_ker) != d:
        raise PrecisionExhausted("projector pieces do not fill the space")
    stacked = list(rows_img) + list(rows_ker)
    if prank(stacked, floor) != d:
        raise PrecisionExhausted("projector pieces are not independent")
    for rows in (rows_img, rows_ker):
        for g in gen_images_p:
            _image_coords(rows, g, floor)
    return [rows_img, rows_ker]


def _image_coords(rows, g, floor):
    """Coordinates of v g in the basis rows, one tuple per row v.

    Raises PrecisionExhausted when an image is not in the span of rows at
    the floor, so a successful call also certifies invariance under g.
    """
    d = len(g)
    rt = rm.mat_transpose(rows)
    out = []
    for v in rows:
        img = tuple(_dot(v, tuple(g[k][j] for k in range(d))) for j in range(d))
        sol = psolve(rt, img, floor)
        if sol is None:
            raise PrecisionExhausted("image not in the span at precision")
        out.append(sol)
    return tuple(out)


def _qp_analyze(rep, p, prec, seed=0):
    """('irreducible', info) | ('split', {'pieces': [...]}) |
    ('split_exact', {'pieces': [...rational rows...]}) | ('unknown', why)."""
    from .rep import algebra_structure, commutant, decompose_over_Q, irreducible_over_Q

    if rep.ring == "Q":
        verdict = irreducible_over_Q(rep, seed)
        if verdict.status == REDUCIBLE:
            pieces = decompose_over_Q(rep, seed)
            return ("split_exact", {"pieces": pieces, "note": "reducible over Q"})
        comm = commutant(rep)
        st = algebra_structure(comm, seed)
        gens_p = rep_gen_images_padic(rep, p, prec)
        if st.kind == "scalars":
            return ("irreducible", {"certificate": "scalar commutant"})
        if st.kind == "field":
            a = st.data["generator"]
            a_p = approx_mat(a, p, prec)
            kind, payload = _split_from_field_generator(
                a_p, st.data["minpoly"], p, prec
            )
            if kind == "irreducible":
                return (
                    "irreducible",
                    {"certificate": "commutant field inert", "report": payload},
                )
            if kind == "idempotent":
                return ("split", {"pieces": _pieces_from_projector(gens_p, payload, p)})
            return ("unknown", f"field factor count not certified: {payload.method}")
        if st.kind == "quaternion_over_Q":
            a, b = st.data["a"], st.data["b"]
            if hilbert_symbol(a, b, p) == -1:
                return (
                    "irreducible",
                    {"certificate": "division quaternion", "symbol": -1,
                     "params": (a, b)},
                )
            q = _quaternion_zero_divisor_qp(st, p, prec)
            return ("split", {"pieces": _pieces_from_projector(gens_p, q, p)})
        if st.kind == "cyclic_algebra":
            return _qp_analyze_quadratic_center(rep, st, comm, p, prec)
        return ("unknown", f"global commutant kind {st.kind}")
    return _qp_analyze_approx(rep, p, prec, seed)


def _quaternion_zero_divisor_qp(st, p, prec):
    """Zero divisor of a Q_p-split quaternion commutant, as approx matrix."""
    a, b = Fraction(st.data["a"]), Fraction(st.data["b"])
    i_m, j_m = st.data["i"], st.data["j"]
    # normalize a, b to integers with v_p in {0, 1} by square scalings
    a_int, i_scale = _normalize_qp_square(a, p)
    b_int, j_scale = _normalize_qp_square(b, p)
    sol = conic_solve_qp(a_int, b_int, p, prec)
    assert sol is not None, "split symbol but insoluble conic"
    i_p = approx_mat(rm.mat_scale(i_m, i_scale), p, prec)
    j_p = approx_mat(rm.mat_scale(j_m, j_scale), p, prec)
    return _conic_zero_divisor(sol, i_p, j_p, p, prec)


def _conic_zero_divisor(sol, i_p, j_p, p, prec):
    """z + x*i + y*j for a conic point (x, y, z): a zero divisor when
    z^2 = a x^2 + b y^2 with i^2 = a, j^2 = b, ij = -ji."""
    x, y, z = sol
    return pmat_add(
        pmat_scale(pmat_identity(len(i_p), p, prec), PadicApprox.from_int(z, p, prec)),
        pmat_add(
            pmat_scale(i_p, PadicApprox.from_int(x, p, prec)),
            pmat_scale(j_p, PadicApprox.from_int(y, p, prec)),
        ),
    )


def _normalize_qp_square(q, p):
    """(integer with v_p in {0,1}, rational scale s) with q*s^2 = integer."""
    q = Fraction(q)
    v, unit = _valuation_and_unit(q, p)
    num, den = unit.numerator, unit.denominator
    half = v // 2  # floor toward -inf keeps v - 2*half in {0, 1}
    s = Fraction(den) * Fraction(p) ** (-half)
    t = p ** (v - 2 * half) * num * den
    assert q * s * s == t and _vp(t, p) in (0, 1)
    return t, s


def _qp_analyze_quadratic_center(rep, st, comm, p, prec):
    m = st.data["center_minpoly"]
    wmat = st.data["center_generator"]
    c, m_int = _int_model(m)
    gens_p = rep_gen_images_padic(rep, p, prec)
    report = qp_factor_count(m_int, p)
    if report.factor_count and report.factor_count >= 2:
        w_p = approx_mat(wmat, p, prec)
        kind, payload = _split_from_field_generator(w_p, m, p, prec)
        assert kind == "idempotent"
        return ("split", {"pieces": _pieces_from_projector(gens_p, payload, p)})
    if report.factor_count != 1:
        return ("unknown", "center factor count not certified")
    # center inert: exact quaternion structure over F = Q(w)
    quat = quaternion_over_center(comm, wmat, m)
    if quat[0] == "zero_divisor":
        q = approx_mat(quat[1], p, prec)
        return ("split", {"pieces": _pieces_from_projector(gens_p, q, p)})
    a_pair, b_pair, i_mat, j_mat = quat
    ext, shift = QuadExt.from_center_minpoly(p, m_int, prec + 24)
    gamma_mat = rm.mat_sub(rm.mat_scale(wmat, c),
                           rm.mat_scale(rm.identity(len(wmat)), shift))
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
    pi_mat = gamma_mat if ext.ramified else rm.mat_scale(rm.identity(d), p)
    i_use = _apply_gamma_scale(i_mat, pi_mat, i_adj, p, prec)
    j_use = _apply_gamma_scale(j_mat, pi_mat, j_adj, p, prec)
    q = pmat_add(
        _ext_coeff_matrix(z, gamma_mat, p, prec),
        pmat_add(
            pmat_mul(_ext_coeff_matrix(x, gamma_mat, p, prec), i_use),
            pmat_mul(_ext_coeff_matrix(y, gamma_mat, p, prec), j_use),
        ),
    )
    return ("split", {"pieces": _pieces_from_projector(gens_p, q, p)})


def _normalize_ext_square(ext, pair_fracs, p):
    """Normalize an F-element to v_E in {0,1} by even powers of pi.

    The uniformizer lies in F itself (the shifted generator gamma when
    ramified, the rational prime p when unramified), so the normalization
    a -> a * pi^(-2k) is exact rational arithmetic.  Returns (integral
    E-pair, k); the caller must scale the square root by pi^(-k).
    """
    q0, q1 = Fraction(pair_fracs[0]), Fraction(pair_fracs[1])

    def val_pair():
        v0 = _valuation_and_unit(q0, p)[0] if q0 else None
        v1 = _valuation_and_unit(q1, p)[0] if q1 else None
        if ext.ramified:
            c0 = 2 * v0 if v0 is not None else 10**9
            c1 = 2 * v1 + 1 if v1 is not None else 10**9
            return min(c0, c1)
        c0 = v0 if v0 is not None else 10**9
        c1 = v1 if v1 is not None else 10**9
        return min(c0, c1)

    def div_pi2():
        nonlocal q0, q1
        if ext.ramified:
            q0, q1 = _gamma_divide(ext, q0, q1)
            q0, q1 = _gamma_divide(ext, q0, q1)
        else:
            q0, q1 = q0 / (p * p), q1 / (p * p)

    def mul_pi2():
        nonlocal q0, q1
        if ext.ramified:
            q0, q1 = _gamma_multiply(ext, q0, q1)
            q0, q1 = _gamma_multiply(ext, q0, q1)
        else:
            q0, q1 = q0 * (p * p), q1 * (p * p)

    k = 0
    v = val_pair()
    assert v < 10**9, "zero center coefficient"
    while v >= 2:
        div_pi2()
        k += 1
        v = val_pair()
    while v < 0:
        mul_pi2()
        k -= 1
        v = val_pair()
    mod = ext.mod
    e_pair = (
        q0.numerator * pow(q0.denominator, -1, mod) % mod if q0 else 0,
        q1.numerator * pow(q1.denominator, -1, mod) % mod if q1 else 0,
    )
    return e_pair, k


def _gamma_divide(ext, q0, q1):
    """(q0 + q1 gamma)/gamma exactly over Q (gamma^2 = -B gamma - C)."""
    # (y0 + y1 gamma) gamma = -C y1 + (y0 - B y1) gamma
    y1 = -q0 / ext.C
    y0 = q1 + ext.B * y1
    return y0, y1


def _gamma_multiply(ext, q0, q1):
    return (-ext.C * q1, q0 - ext.B * q1)


def _ext_coeff_matrix(pair, gamma_mat, p, prec):
    """c0 + c1*gamma as an approx matrix (c_i integer residues)."""
    d = len(gamma_mat)
    c0 = pmat_scale(pmat_identity(d, p, prec), PadicApprox.from_int(pair[0], p, prec))
    g_p = approx_mat(gamma_mat, p, prec)
    c1 = pmat_scale(g_p, PadicApprox.from_int(pair[1], p, prec))
    return pmat_add(c0, c1)


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
    return approx_mat(out, p, prec)


def _spin_split(rep, p, prec, seed=0):
    """Invariant pieces by spinning vectors through the group action.

    Finds a proper submodule as the span of the translates of a vector,
    then turns it into a commutant projector by Maschke averaging so both
    pieces come out verified.  Returns pieces or None.
    """
    import random

    d = rep.dimension
    emap = rep_element_map_padic(rep, p, prec)
    gens_p = rep_gen_images_padic(rep, p, prec)
    order = rep.group.order
    floor = max(prec // 2, 4)
    rng = random.Random(seed + 17)
    ident = pmat_identity(d, p, prec)
    zero_row = (PadicApprox.zero(p, prec),) * d
    vectors = list(ident)
    for _ in range(6):
        vectors.append(
            tuple(
                PadicApprox.from_int(rng.randint(-3, 3), p, prec)
                for _ in range(d)
            )
        )
    from .perm import inv as perm_inv

    for v in vectors:
        rows = []
        for g in emap.values():
            rows.append(
                tuple(_dot(v, tuple(g[k][j] for k in range(d))) for j in range(d))
            )
        sat = psaturate(rows, p, floor)
        if not (0 < len(sat) < d):
            continue
        # projector onto span(sat) along the unit-vector complement
        pivots = []
        for r in sat:
            pivots.append(
                next(j for j, x in enumerate(r) if x.provably_nonzero() and x.shift == 0)
            )
        others = [j for j in range(d) if j not in pivots]
        m_rows = list(sat) + [ident[j] for j in others]
        minv = _pmat_inverse(m_rows, p, floor)
        if minv is None:
            continue
        sel = ident[: len(sat)] + (zero_row,) * (d - len(sat))
        proj0 = pmat_mul(pmat_mul(minv, sel), m_rows)
        inv_order = PadicApprox.from_rational(Fraction(1, order), p, prec)
        acc = None
        for perm, g in emap.items():
            ginv = emap[perm_inv(perm)]
            term = pmat_mul(pmat_mul(g, proj0), ginv)
            acc = term if acc is None else pmat_add(acc, term)
        proj = pmat_scale(acc, inv_order)
        delta = pmat_sub(pmat_mul(proj, proj), proj)
        worst = min(x.val_lower_bound() for row in delta for x in row)
        if worst < floor:
            continue
        try:
            return _pieces_from_projector(gens_p, proj, p)
        except PrecisionExhausted:
            continue
    return None


def _pmat_inverse(rows, p, floor=None):
    """Inverse of a square approx matrix via augmented elimination."""
    d = len(rows)
    prec = max(x.abs_prec for row in rows for x in row)
    ident = pmat_identity(d, p, prec)
    aug = [tuple(rows[i]) + ident[i] for i in range(d)]
    ech, pivots = prow_echelon(aug, floor=floor)
    if pivots != list(range(d)):
        return None
    return tuple(tuple(row[d:]) for row in ech)


def _qp_analyze_approx(rep, p, prec, seed=0):
    """Classification for reps whose entries are already PadicApprox."""
    import random

    gens_p = list(rep.gen_images)
    comm = commutant_approx(gens_p, p, prec)
    dim = len(comm)
    if dim == 1:
        return ("irreducible", {"certificate": "scalar commutant"})
    # sample elements: a constructive factorization of any minimal polynomial
    # splits; an inert minimal polynomial of full commutant degree certifies
    rng = random.Random(seed)
    cands = list(comm)
    for _ in range(16):
        acc = None
        for b in comm:
            c = PadicApprox.from_int(rng.randint(-3, 3), p, prec)
            term = pmat_scale(b, c)
            acc = term if acc is None else pmat_add(acc, term)
        cands.append(acc)
    for a in cands:
        try:
            mp = pminimal_polynomial(a, p)
            status = qp_poly_status_approx(mp, p)
        except PrecisionExhausted:
            continue
        if status[0] == "irreducible" and len(mp) - 1 == dim:
            return (
                "irreducible",
                {"certificate": "commutant field inert", "how": status[1]},
            )
        if status[0] == "factors_mod_p":
            try:
                e = _lift_idempotent(status[1], a, p, prec, prec - 6)
            except PrecisionExhausted:
                continue
            if e is None:
                continue
            return ("split", {"pieces": _pieces_from_projector(gens_p, e, p)})
    spun = _spin_split(rep, p, prec, seed)
    if spun is not None:
        return ("split", {"pieces": spun})
    if dim == 4:
        quat = _approx_quaternion(comm, p, prec)
        if quat is not None:
            a_val, a_cls, b_val, b_cls, i_p, j_p, a_appr, b_appr = quat
            if hilbert_symbol(p**a_val * a_cls, p**b_val * b_cls, p) == -1:
                return (
                    "irreducible",
                    {"certificate": "division quaternion", "symbol": -1},
                )
            a_int = a_appr.residue(min(prec, a_appr.abs_prec))
            b_int = b_appr.residue(min(prec, b_appr.abs_prec))
            sol = conic_solve_qp(a_int, b_int, p, min(prec, a_appr.abs_prec) - 2)
            assert sol is not None
            q = _conic_zero_divisor(sol, i_p, j_p, p, prec)
            return ("split", {"pieces": _pieces_from_projector(gens_p, q, p)})
    return ("unknown", f"approx commutant of dimension {dim} not classified")


def _approx_quaternion(comm, p, prec):
    """(v(a), a mod 8 class, v(b), ..., i, j, a, b) for an approx quaternion."""
    d = len(comm[0])
    for x in comm:
        mp = pminimal_polynomial(x, p)
        if len(mp) - 1 != 2:
            continue
        # i = x - t/2 with mp = x^2 - t x + n: mp[1] = -t
        t = mp[1]
        half = PadicApprox.from_rational(Fraction(-1, 2), p, prec) * t
        i_p = pmat_add(x, pmat_scale(pmat_identity(d, p, prec), half))
        sq = pmat_mul(i_p, i_p)
        a = sq[0][0]
        if not _pmat_is_scalar(sq, a):
            continue
        if not a.provably_nonzero():
            continue
        # normalize v(a) into {0,1}
        va = a.valuation()
        k = va // 2 if va >= 0 else -((-va + 1) // 2)
        scale = PadicApprox(p, -k, 1, prec)
        i_p = pmat_scale(i_p, scale)
        a = a * scale * scale
        rows = []
        for bb in comm:
            m = pmat_add(pmat_mul(i_p, bb), pmat_mul(bb, i_p))
            rows.append(tuple(q for row in m for q in row))
        coeffs = pnullspace(rm.mat_transpose(rows))
        for v in coeffs:
            j_p = None
            for cv, bb in zip(v, comm):
                term = pmat_scale(bb, cv)
                j_p = term if j_p is None else pmat_add(j_p, term)
            sqj = pmat_mul(j_p, j_p)
            b = sqj[0][0]
            if not _pmat_is_scalar(sqj, b) or not b.provably_nonzero():
                continue
            vb = b.valuation()
            k2 = vb // 2 if vb >= 0 else -((-vb + 1) // 2)
            scale2 = PadicApprox(p, -k2, 1, prec)
            j_p = pmat_scale(j_p, scale2)
            b = b * scale2 * scale2
            cls_mod = 8 if p == 2 else p
            return (
                a.valuation(),
                (a * PadicApprox(p, -a.valuation(), 1, prec)).unit_class_mod(cls_mod),
                b.valuation(),
                (b * PadicApprox(p, -b.valuation(), 1, prec)).unit_class_mod(cls_mod),
                i_p,
                j_p,
                a,
                b,
            )
    return None


def _pmat_is_scalar(m, diag_value):
    d = len(m)
    for i in range(d):
        for j in range(d):
            want_zero = (m[i][j] - (diag_value if i == j else 0))
            if want_zero.provably_nonzero():
                return False
    return True


# -- public API --------------------------------------------------------------------


def irreducible_over_Qp(rep, p, precision=None, seed=0):
    """Verdict for irreducibility of a representation over Q_p.

    Decision tree: rational reducibility first, then the commutant (field /
    quaternion / quadratic-center cases), with idempotent lifting for the
    constructive splits.  Precision is doubled twice on exhaustion; a final
    failure reports 'unknown' with a precision-exhaustion marker, distinct
    from a mathematical unknown.
    """
    precision = precision or DEFAULT_PRECISION
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

    Each constituent is verified: generator relations hold mod p^(N/2),
    entries are p-integral, and generator determinants are p-adic units.
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
    """Restriction of rep to an invariant subspace as a Z_p lattice rep."""
    from .rep import MatRep

    if rows and not isinstance(rows[0][0], PadicApprox):
        rows = [tuple(PadicApprox.from_rational(x, p, n) for x in r) for r in rows]
    work_prec = min(x.abs_prec for r in rows for x in r)
    floor = max(work_prec // 2, 4)
    sat = psaturate(rows, p, floor)
    k = len(sat)
    emap_p = rep_element_map_padic(rep, p, n)
    emap = {perm: _image_coords(sat, g, floor) for perm, g in emap_p.items()}
    # p-integrality and unit determinants
    for mat_c in emap.values():
        for row in mat_c:
            for x in row:
                if x.val_lower_bound() < 0:
                    raise PrecisionExhausted("constituent entry not p-integral")
    for perm in rep.group.generators:
        if _pdet_valuation(emap[perm], p) != 0:
            raise PrecisionExhausted("constituent determinant is not a unit")
    # homomorphism check mod p^(n/2)
    slack = max(n // 2, 4)
    for g in rep.group.generators:
        cg = emap[g]
        for perm, ch in emap.items():
            from .perm import mul as perm_mul

            prod = pmat_mul(ch, cg)
            target = emap[perm_mul(perm, g)]
            diff = pmat_sub(prod, target)
            worst = min(x.val_lower_bound() for row in diff for x in row)
            if worst < slack:
                raise PrecisionExhausted("constituent relations fail at N/2")
    gen_images = [emap[g] for g in rep.group.generators]
    ident = rep.group.identity()
    faithful = True
    idm = emap[ident]
    for perm, mat_c in emap.items():
        if perm == ident:
            continue
        diff = pmat_sub(mat_c, idm)
        if not any(x.provably_nonzero() for row in diff for x in row):
            faithful = False
    return MatRep(rep.group, gen_images, emap, faithful, ("Zp", p), k)


def _pdet_valuation(mat_c, p):
    """Valuation of the determinant via echelon pivots."""
    work = [list(r) for r in mat_c]
    d = len(work)
    total = 0
    for c in range(d):
        piv = None
        for i in range(c, d):
            if work[i][c].provably_nonzero():
                if piv is None or work[i][c].shift < work[piv][c].shift:
                    piv = i
        if piv is None:
            raise PrecisionExhausted("determinant valuation uncertain")
        work[c], work[piv] = work[piv], work[c]
        total += work[c][c].valuation()
        inv = work[c][c].inverse()
        for i in range(c + 1, d):
            if work[i][c].provably_nonzero():
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return total


def decompose_over_Qp(rep, p, precision=None, seed=0):
    """Irreducible-over-Q_p constituent subspaces of a representation.

    Returns exact rational row bases when the whole split is rational, and
    a single full-space basis when the rep is already Q_p-irreducible;
    raises ApproxSplitNeeded when a constituent splits p-adically beyond
    the rational decomposition (callers treat the analysis as not decisive,
    never as a primitivity certificate).
    """
    from .rep import decompose_over_Q, _subspace_restriction

    precision = precision or DEFAULT_PRECISION
    if rep.ring != "Q":
        verdict = irreducible_over_Qp(rep, p, precision, seed)
        if verdict.status == IRREDUCIBLE:
            d = rep.dimension
            return [
                tuple(
                    tuple(
                        PadicApprox.from_int(1 if i == j else 0, p, precision)
                        for j in range(d)
                    )
                    for i in range(d)
                )
            ]
        if verdict.status == REDUCIBLE:
            raise ApproxSplitNeeded("approx constituent splits over Q_p")
        raise PrecisionExhausted("approx constituent Q_p status unknown")
    pieces = decompose_over_Q(rep, seed)
    for rows in pieces:
        sub_rep, _ = _subspace_restriction(rep, rows)
        verdict = irreducible_over_Qp(sub_rep, p, precision, seed)
        if verdict.status == REDUCIBLE:
            raise ApproxSplitNeeded("rational constituent splits over Q_p")
        if verdict.status == UNKNOWN:
            raise PrecisionExhausted("constituent Q_p status unknown")
    return pieces
