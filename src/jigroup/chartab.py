"""Exact character tables of small groups via the Burnside-Dixon method.

Eigenvalue work runs over a prime field F_l with l = 1 mod exponent(G) and
l >= 2|G|+1, then lifts to exact cyclotomic values; the returned table is
verified against row orthogonality and the degree sum before it is handed
out, both checks exact.  A failed check raises CertificateError.
"""

from __future__ import annotations

import heapq
import operator

import numpy as np

from .cyclotomic import CycloContext
from .perm import LATTICE_GATE
from .smallgrp import small_table
from .verdicts import CertificateError
from .zpoly import isprime, primefactors


class CharacterTable:
    """Conjugacy classes, exact cyclotomic character values, degrees."""

    def __init__(self, group, classes, class_sizes, values, degrees, ctx):
        self.group = group
        self.classes = classes          # element-index lists, identity first
        self.class_sizes = class_sizes
        self.values = values            # values[i][j]: chi_i on class j
        self.degrees = degrees
        self.ctx = ctx

    @property
    def n_classes(self):
        return len(self.classes)

    def kernel_classes(self, i):
        """Classes on which chi_i takes its degree (the kernel of chi_i)."""
        deg = self.ctx.from_rational(self.degrees[i])
        return frozenset(
            j for j in range(self.n_classes) if self.values[i][j] == deg
        )

    def verify(self, order):
        """Check the degrees and X diag(|C|) conj(X)^T = |G| I exactly.

        Each degree must be the value at the identity class (column 0), and
        the squared degrees must sum to |G|.  X is the table of values in
        Z[zeta_e].  Each value is conjugated once.  For every pair of rows
        i >= j, sum_k |C_k| chi_i(k) conj(chi_j(k)) is accumulated as one
        unreduced integer polynomial in zeta of length 2 dim - 1, reduced
        mod Phi_e once and compared with |G| delta_ij.  Raises
        CertificateError on the first failure.
        """
        if len(self.degrees) != self.n_classes:
            raise CertificateError("one degree per class expected")
        ctx = self.ctx
        for i, (d, row) in enumerate(zip(self.degrees, self.values)):
            if row[0] != ctx.from_rational(d):
                raise CertificateError(f"degree {i} is not the value at the identity")
        if sum(d * d for d in self.degrees) != order:
            raise CertificateError("squared degrees do not sum to the group order")
        # coefficient columns: scaled[i][a][k] = |C_k| * (coefficient a of chi_i(k))
        scaled = [
            [tuple(size * v[a] for size, v in zip(self.class_sizes, row))
             for a in range(ctx.dim)]
            for row in self.values
        ]
        conjugated = [list(zip(*(ctx.conj(v) for v in row))) for row in self.values]
        for i in range(self.n_classes):
            for j in range(i + 1):
                total = [0] * (2 * ctx.dim - 1)
                for a, col in enumerate(scaled[i]):
                    for b, ccol in enumerate(conjugated[j]):
                        total[a + b] += sum(map(operator.mul, col, ccol))
                want = ctx.from_rational(order if i == j else 0)
                if ctx.from_root_multiplicities(total) != want:
                    raise CertificateError(f"orthogonality failed at rows {i},{j}")
        return True


def _smallest_modulus(order, exponent):
    l = 2 * order + 1
    while True:
        if l % exponent == 1 and isprime(l):
            return l
        l += 1


def _rref_mod(a, l):
    """Reduced row echelon form of a over F_l, and its pivot columns."""
    a = a % l
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if not len(nz):
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), l - 2, l)) % l
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % l
        pivots.append(c)
        r += 1
    return a, pivots


def _nullspace_mod(mat, l):
    """Basis of the right nullspace of mat over F_l (rows are vectors)."""
    a, pivots = _rref_mod(mat, l)
    cols = a.shape[1]
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-a[i, f]) % l
        basis.append(v)
    return basis


def character_table(group, gate=LATTICE_GATE):
    """Burnside-Dixon character table with exact cyclotomic values."""
    tbl = small_table(group, gate)
    order = tbl.n
    classes = tbl.conjugacy_classes()
    r = len(classes)
    sizes = [len(c) for c in classes]
    class_of = [0] * order
    for ci, cls in enumerate(classes):
        for x in cls:
            class_of[x] = ci
    reps = [cls[0] for cls in classes]
    exponent = tbl.exponent()
    l = _smallest_modulus(order, exponent)

    # class multiplication matrices M_i[j][k] = #{(x,y) in C_i x C_j : xy = rep_k}
    mats = []
    inv_class = [class_of[tbl.inverse[reps[c]]] for c in range(r)]
    for i in range(r):
        m = np.zeros((r, r), dtype=np.int64)
        for k in range(r):
            zk = reps[k]
            for x in classes[i]:
                y = tbl.table[tbl.inverse[x]][zk]
                m[class_of[y], k] += 1
        # m[j][k] = a_ijk; eigen-rows w satisfy w @ m = omega_i w
        mats.append(m)
    # Simultaneous eigenvectors over F_l via recursive splitting.
    blocks = [np.eye(r, dtype=np.int64)]  # each block: rows span a subspace

    def split(block, m):
        rows = block.shape[0]
        if rows == 1:
            return [block]
        # restriction of m to the subspace: solve block @ m = a @ block
        bm = (block @ m) % l
        a = _solve_left(block, bm, l)
        evs = _eigenvalues_mod(a, l)
        if len(evs) == 1:
            return [block]
        out = []
        for lam in evs:
            shifted = (a - lam * np.eye(rows, dtype=np.int64)) % l
            null = _nullspace_mod(shifted.T, l)
            if null:
                sub = (np.array(null, dtype=np.int64) @ block) % l
                out.append(sub)
        if sum(b.shape[0] for b in out) != rows:
            raise CertificateError("eigenspaces do not split the block")
        return out

    for m in mats:
        new_blocks = []
        for b in blocks:
            new_blocks.extend(split(b, m))
        blocks = new_blocks
        if all(b.shape[0] == 1 for b in blocks):
            break
    if any(b.shape[0] != 1 for b in blocks):
        raise CertificateError("class algebra failed to split")

    # each block is one character: eigenvalues w_i = |C_i| chi(g_i)/chi(1)
    chars_mod = []
    for b in blocks:
        v = b[0] % l
        omegas = []
        for m in mats:
            mv = (v @ m) % l
            k = int(np.nonzero(v)[0][0])
            lam = (int(mv[k]) * pow(int(v[k]), l - 2, l)) % l
            omegas.append(lam)
        # 1/d^2 = (1/|G|) sum_i w_i w_{i*} / |C_i|
        s = 0
        for i in range(r):
            s += omegas[i] * omegas[inv_class[i]] * pow(sizes[i], l - 2, l)
        s %= l
        d2 = (pow(int(s), l - 2, l) * order) % l
        d = _int_sqrt_exact(d2)
        values_mod = [
            (d * omegas[i] * pow(sizes[i], l - 2, l)) % l for i in range(r)
        ]
        chars_mod.append((d, values_mod))
    chars_mod.sort(key=lambda t: (t[0], t[1]))

    # lift to cyclotomics: chi(g) = sum_s m_s zeta^s with multiplicities m_s
    ctx = CycloContext(exponent)
    t_root = _element_of_order(l, exponent)
    # t_root has order exactly `exponent`, so its powers repeat with that period
    root_pows = [pow(t_root, k, l) for k in range(exponent)]
    power_class = [
        [class_of[tbl.power(reps[j], u)] for u in range(exponent)]
        for j in range(r)
    ]
    e_inv = pow(exponent, l - 2, l)
    values = []
    degrees = []
    for d, vmod in chars_mod:
        row = []
        for j in range(r):
            powers_mod = [vmod[c] for c in power_class[j]]
            mults = []
            for s in range(exponent):
                acc = 0
                for u, x in enumerate(powers_mod):
                    acc += x * root_pows[(-s * u) % exponent]
                m_s = (acc * e_inv) % l
                if m_s > d:
                    raise CertificateError("character multiplicity out of range")
                mults.append(m_s)
            if sum(mults) != d:
                raise CertificateError("eigenvalue multiplicities do not sum to degree")
            row.append(ctx.from_root_multiplicities(mults))
        values.append(row)
        degrees.append(d)

    table = CharacterTable(group, classes, sizes, values, degrees, ctx)
    table.verify(order)
    return table


def _solve_left(block, target, l):
    """Solve a @ block = target over F_l (block has full row rank)."""
    bt, tt = block.T % l, target.T % l
    n = bt.shape[1]
    aug, pivots = _rref_mod(np.concatenate([bt, tt], axis=1), l)
    x = np.zeros((n, tt.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        if c < n:
            x[c] = aug[i, n:]
    if not np.array_equal((bt @ x) % l, tt):
        raise CertificateError("inconsistent restriction solve")
    return x.T


def _eigenvalues_mod(a, l):
    """All eigenvalues of a over F_l by scanning roots of the char poly."""
    n = a.shape[0]
    cp = _charpoly_mod(a, l)
    out = []
    for lam in range(l):
        acc = 0
        for c in reversed(cp):
            acc = (acc * lam + c) % l
        if acc == 0:
            out.append(lam)
            if len(out) == n:
                break
    return out


def _charpoly_mod(a, l):
    """Characteristic polynomial mod l via Newton's identities, low degree first.

    Requires l > n so the 1/k divisions exist.  The powers of a run in int64:
    an entry of a product of two reduced n x n matrices is at most
    n (l-1)^2, which must stay below 2^63.
    """
    n = a.shape[0]
    if n * (l - 1) ** 2 >= 2**63:
        raise OverflowError(f"int64 powers mod {l} of a {n} x {n} matrix could overflow")
    am = (a % l).astype(np.int64)
    inv_cache = [pow(k, l - 2, l) for k in range(1, n + 1)]
    p = []  # power sums trace(A^k)
    mk = np.eye(n, dtype=np.int64)
    for _ in range(n):
        mk = (am @ mk) % l
        p.append(int(np.trace(mk)) % l)
    e = [1]  # elementary symmetric functions of the eigenvalues
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += ((-1) ** (i - 1)) * e[k - i] * p[i - 1]
        e.append((acc * inv_cache[k - 1]) % l)
    cp = [0] * (n + 1)
    for k in range(n + 1):
        cp[n - k] = ((-1) ** k * e[k]) % l
    return cp


def _int_sqrt_exact(d2):
    from math import isqrt

    d = isqrt(d2)
    if d * d != d2:
        raise CertificateError("degree recovery failed; modulus too small")
    return d


def _element_of_order(l, e):
    """A fixed element of multiplicative order e in F_l (l = 1 mod e)."""
    qs = primefactors(e)
    for g in range(2, l):
        x = pow(g, (l - 1) // e, l)
        if x != 1 and all(pow(x, e // q, l) != 1 for q in qs):
            return x
    raise CertificateError("no element of the required order")


def min_faithful_degree(group, gate=LATTICE_GATE, table=None):
    """Smallest degree of a faithful characteristic-0 representation.

    Minimum, over subsets of irreducible characters whose kernels intersect
    trivially, of the sum of their degrees (Dijkstra over distinct kernel
    intersections).
    """
    ct = table if table is not None else character_table(group, gate)
    kernels = [ct.kernel_classes(i) for i in range(ct.n_classes)]
    full = frozenset(range(ct.n_classes))
    target = frozenset([0])  # identity class only
    best = {full: 0}
    heap = [(0, 0, full)]
    counter = 1
    while heap:
        cost, _, state = heapq.heappop(heap)
        if state == target:
            return cost
        if cost > best.get(state, 10**9):
            continue
        for i, ker in enumerate(kernels):
            nstate = state & ker
            ncost = cost + ct.degrees[i]
            if ncost < best.get(nstate, 10**9):
                best[nstate] = ncost
                heapq.heappush(heap, (ncost, counter, nstate))
                counter += 1
    raise CertificateError("no faithful character collection found")
