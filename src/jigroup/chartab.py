"""Exact character tables of small groups via the Burnside-Dixon method.

The table reads permutations only: the element list of the group, its
conjugacy classes from the conjugation walk, the products of one class
with the class representatives, and the powers of the representatives.
Known characters come first (Schneider, J. Symbolic Comput. 9, 1990): the
linear ones are those of G/G', from a walk of the cosets of G' along the
generators, and Dixon's split runs only on the residual eigen-rows.  A
class-matrix column is built when first read.  Eigenvalue work runs on
Python ints over a prime field F_l with l = 1 mod exponent(G) and l >=
2|G|+1: common eigenspaces split as reduced echelon blocks, characteristic
polynomials from the Hessenberg form.  The values lift to exact cyclotomic
values; the returned table is verified against row orthogonality and the
degree sum before it is handed out, both checks exact.  A failed check
raises CertificateError.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from functools import cache
from math import isqrt, lcm

from .cyclotomic import CycloContext
from .perm import (LATTICE_GATE, OrderGateExceeded, _orbits_of, derived_subgroup,
                   identity_perm, inv, mul, perm_order)
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
        if l % exponent == 1 % exponent and isprime(l):
            return l
        l += 1


def _rref_mod(a, l):
    """Reduced row echelon form of a (a list of int rows) over F_l, and its pivots."""
    a = [[x % l for x in row] for row in a]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], l - 2, l)
        # rows r.. are 0 before column c, so only the columns from c on change
        prow = a[r][c:] = [x * inv % l for x in a[r][c:]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                a[i][c:] = [(x - f * y) % l for x, y in zip(a[i][c:], prow)]
        pivots.append(c)
        r += 1
    return a, pivots


def _nullspace_mod(mat, l):
    """Basis of the right nullspace of mat over F_l (rows are vectors)."""
    a, pivots = _rref_mod(mat, l)
    cols = len(a[0])
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = 1
        for row, c in zip(a, pivots):
            v[c] = -row[f] % l
        basis.append(v)
    return basis


def _mat_mul_mod(a, b, l):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % l for col in cols] for row in a]


def _times_class_matrix(rows, mat, l):
    """rows @ M mod l for a class matrix M stored as sparse columns."""
    return [[sum(v[j] * c for j, c in col) % l for col in mat] for v in rows]


def _restriction(block, pivots, target, l):
    """The a with a @ block = target, for a block in reduced echelon form.

    Coordinates in the row space are the entries at the pivot columns; a row
    of target outside the row space raises CertificateError.
    """
    a = [[row[c] for c in pivots] for row in target]
    if _mat_mul_mod(a, block, l) != target:
        raise CertificateError("inconsistent restriction solve")
    return a


def _classes(group, elements):
    """Conjugacy classes as sorted lists of indices into the sorted elements,
    by element order and then least index: the identity class comes first."""
    index = {e: i for i, e in enumerate(elements)}
    pairs = [(inv(g), g) for g in group.generators]  # conjugate x by g as g^-1 x g
    classes = [sorted(index[x] for x in orbit)
               for orbit in _orbits_of(elements, pairs, lambda x, p: mul(mul(p[0], x), p[1]))]
    classes.sort(key=lambda c: (perm_order(elements[c[0]]), c[0]))
    return classes


def _class_columns(members, class_of, inv_class):
    """column(i, k): column k of the class matrix M_i[j][k] = a_ijk = #{(x, y) in
    C_i x C_j : xy = z_k}, z_k the representative members[k][0], as the pairs
    (j, a_ijk) with a_ijk != 0.  As x runs over C_i, w = x^-1 runs over the class
    of inverses C_i*, so a_ijk = #{w in C_i* : w z_k in C_j} and no element is
    inverted.  Each column is built on first use and kept."""

    @cache
    def column(i, k):
        z = members[k][0]
        return tuple(Counter(class_of[mul(w, z)] for w in members[inv_class[i]]).items())

    return column


def _linear_characters(group, exponent, gate):
    """The linear characters of G, which are those of the abelian group G/G'.

    Returns (coset_of, lin): coset_of maps every element to its coset of G',
    and lambda_a(x) = zeta_e^lin[coset_of[x]][a].  The cosets are reached
    along the generators: s joins the subgroup A reached so far at the least
    m with s^m in A, and <A, s> is the cosets c s^u, c in A, u < m.  Each
    lambda on A extends in m ways, lambda(s) = (lambda(s^m) + t e)/m for t <
    m, with m | e (m = 1 changes nothing); no cyclic decomposition of G/G'
    is needed.
    """
    coset_of = dict.fromkeys(derived_subgroup(group).elements(gate), 0)
    lin = [[0]]
    for s in group.generators:
        m, sm = 1, s
        while sm not in coset_of:
            m, sm = m + 1, mul(sm, s)
        at_sm = lin[coset_of[sm]]
        if any(k % m for k in at_sm):
            raise CertificateError("a linear character has no extension to a generator")
        roots = [[k // m + t * (exponent // m) for t in range(m)] for k in at_sm]
        n, prev, su = len(lin), list(coset_of.items()), s
        for u in range(1, m):
            coset_of.update((mul(y, su), c + u * n) for y, c in prev)
            su = mul(su, s)
        lin = [[(k + u * x) % exponent for k, xs in zip(row, roots) for x in xs]
               for u in range(m) for row in lin]
    return coset_of, lin


def _check_linear_characters(coset_of, lin, generators, order, exponent):
    """Raise CertificateError unless the cosets of G' cover G, the coset of x s
    depends only on that of x for every element x and generator s, every
    lambda adds along each such edge (so it is a homomorphism of G/G'), and
    there are [G:G'] of them."""
    if len(coset_of) != order:
        raise CertificateError("the cosets of G' do not cover G")
    step = {}
    for x, c in coset_of.items():
        for g, s in enumerate(generators):
            d = coset_of[mul(x, s)]
            if step.setdefault((c, g), d) != d:
                raise CertificateError("G' is not normal: cosets do not multiply")
    for (c, g), d in step.items():
        at_s = lin[coset_of[generators[g]]]
        if [(a + b) % exponent for a, b in zip(lin[c], at_s)] != lin[d]:
            raise CertificateError("a linear character is not a homomorphism")
    derived_order = list(coset_of.values()).count(0)
    if any(len(row) != len(lin) for row in lin) or len(lin) * derived_order != order:
        raise CertificateError("the number of linear characters is not [G:G']")


def _power_classes(reps, class_of, exponent):
    """power_class[j][u]: the class of z_j^u for u < exponent."""
    out = []
    for z in reps:
        row, x = [], identity_perm(len(z))
        for _ in range(exponent):
            row.append(class_of[x])
            x = mul(x, z)
        out.append(row)
    return out


def character_table(group, gate=LATTICE_GATE):
    """Burnside-Dixon character table with exact cyclotomic values; its classes
    are lists of indices into `group.elements()`.  The [G:G'] linear
    characters are certified first; the eigen-split runs on the r - [G:G']
    dimensional residual space they leave, and not at all if that is a line."""
    if group.order > gate:  # the wording machine reports have always carried
        raise OrderGateExceeded("small-group table", group.order, gate)
    elements = group.elements(gate)
    order = len(elements)
    classes = _classes(group, elements)
    r = len(classes)
    sizes = [len(c) for c in classes]
    members = [[elements[x] for x in cls] for cls in classes]
    reps = [m[0] for m in members]
    class_of = {x: ci for ci, m in enumerate(members) for x in m}
    inv_class = [class_of[inv(z)] for z in reps]
    exponent = lcm(*map(perm_order, reps))
    l = _smallest_modulus(order, exponent)

    t_root = _element_of_order(l, exponent)
    # t_root has order exactly `exponent`, so its powers repeat with that period
    root_pows = [pow(t_root, k, l) for k in range(exponent)]

    # the linear characters are known from G/G'; chars_mod holds (degree,
    # values mod l on the classes)
    coset_of, lin = _linear_characters(group, exponent, gate)
    _check_linear_characters(coset_of, lin, group.generators, order, exponent)
    chars_mod = [(1, [root_pows[k] for k in row])
                 for row in zip(*(lin[coset_of[z]] for z in reps))]
    # eigen-rows w of the class matrices satisfy w @ M_i = omega_i w; those of
    # the other characters span the w with sum_k w_k |C_k| lambda(g_k) = 0
    null = _nullspace_mod([[c * v for c, v in zip(sizes, row)] for _, row in chars_mod], l)
    if len(null) != r - len(chars_mod):
        raise CertificateError("the residual space does not have dimension r - [G:G']")
    column = _class_columns(members, class_of, inv_class)
    size_inv = [pow(c, l - 2, l) for c in sizes]
    # Simultaneous eigenvectors over F_l via recursive splitting; a block is a
    # subspace in reduced echelon form, with its pivot columns.
    blocks = [_rref_mod(null, l)] if null else []

    def split(block, pivots, m):
        rows = len(block)
        if rows == 1:
            return [(block, pivots)]
        a = _restriction(block, pivots, _times_class_matrix(block, m, l), l)
        evs = _eigenvalues_mod(a, l)
        if len(evs) == 1:
            return [(block, pivots)]
        out = []
        for lam in evs:
            shifted_t = [[a[j][i] - (lam if i == j else 0) for j in range(rows)]
                         for i in range(rows)]
            null = _nullspace_mod(shifted_t, l)
            out.append(_rref_mod(_mat_mul_mod(null, block, l), l))
        if sum(len(b) for b, _ in out) != rows:
            raise CertificateError("eigenspaces do not split the block")
        return out

    for i in range(1, r):  # M_0 is the identity and splits nothing
        if all(len(b) == 1 for b, _ in blocks):
            break
        m = [column(i, k) for k in range(r)]
        blocks = [piece for b, piv in blocks for piece in split(b, piv, m)]
    if any(len(b) != 1 for b, _ in blocks):
        raise CertificateError("class algebra failed to split")

    # each block is one character: eigenvalues w_i = |C_i| chi(g_i)/chi(1); the
    # block row v is 1 at its pivot k, so w_i is entry k of v @ M_i
    for ([v], [k]) in blocks:
        omegas = [sum(v[j] * c for j, c in column(i, k)) % l for i in range(r)]
        # 1/d^2 = (1/|G|) sum_i w_i w_{i*} / |C_i|
        s = sum(w * omegas[inv_class[i]] * size_inv[i] for i, w in enumerate(omegas)) % l
        d = _int_sqrt_exact(pow(s, l - 2, l) * order % l)
        chars_mod.append((d, [d * w * size_inv[i] % l for i, w in enumerate(omegas)]))
    chars_mod.sort(key=lambda t: (t[0], t[1]))

    # lift to cyclotomics: chi(g) = sum_s m_s zeta^s with multiplicities m_s,
    # by an inverse DFT of the length o = ord(g) of the period of chi(g^u)
    ctx = CycloContext(exponent)
    power_class = _power_classes(reps, class_of, exponent)
    orders = [perm_order(z) for z in reps]
    # dfts[o][t][u] = (1/o) zeta_o^(-tu) mod l, with zeta_o = t_root^(exponent/o)
    dfts = {}
    for o in set(orders):
        step, o_inv = exponent // o, pow(o, l - 2, l)
        dfts[o] = [[o_inv * root_pows[-step * t * u % exponent] % l for u in range(o)]
                   for t in range(o)]
    values = []
    degrees = []
    for d, vmod in chars_mod:
        row = []
        for pc, o in zip(power_class, orders):
            mults = _multiplicities([vmod[c] for c in pc[:o]], d, exponent, dfts[o], l)
            row.append(ctx.from_root_multiplicities(mults))
        values.append(row)
        degrees.append(d)

    table = CharacterTable(group, classes, sizes, values, degrees, ctx)
    table.verify(order)
    return table


def _multiplicities(powers, d, exponent, dft, l):
    """The m_s, s < exponent, with chi(z) = sum_s m_s zeta^s, from powers[u] =
    chi(z^u) mod l for u < o = ord(z) and dft the rows of (1/o) zeta_o^(-tu).

    chi(z^u) has period o, so the inverse DFT of length exponent is 0 mod l
    at every s that exponent/o does not divide; at s = (exponent/o) t it is
    row t of dft applied to powers.  Raises CertificateError unless each
    m_s is at most d and they sum to d.
    """
    step = exponent // len(powers)
    mults = [0] * exponent
    for t, row in enumerate(dft):
        m = sum(map(operator.mul, powers, row)) % l
        if m > d:
            raise CertificateError("character multiplicity out of range")
        mults[step * t] = m
    if sum(mults) != d:
        raise CertificateError("eigenvalue multiplicities do not sum to degree")
    return mults


def _eigenvalues_mod(a, l):
    """All eigenvalues of a over F_l by scanning roots of the char poly."""
    n = len(a)
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
    """Characteristic polynomial of a over F_l, low degree first.

    a is brought to upper Hessenberg form h by similarity; the characteristic
    polynomials p_m of the leading m x m blocks of h then satisfy
    p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i
    (0-based indices; Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).  O(n^3) operations, for any l.
    """
    n = len(a)
    h = [[x % l for x in row] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], l - 2, l)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % l
            if u:  # row i -= u row m, then column m += u column i
                h[i] = [(x - u * y) % l for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % l
    polys = [[1]]
    for m in range(n):
        p = [0] + polys[m]
        for k, c in enumerate(polys[m]):
            p[k] -= h[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % l
            coef = t * h[i][m]
            for k, c in enumerate(polys[i]):
                p[k] -= coef * c
        polys.append([c % l for c in p])
    return polys[n]


def _int_sqrt_exact(d2):
    d = isqrt(d2)
    if d * d != d2:
        raise CertificateError("degree recovery failed; modulus too small")
    return d


def _element_of_order(l, e):
    """A fixed element of multiplicative order e in F_l (l = 1 mod e)."""
    qs = primefactors(e)
    for g in range(2, l):
        x = pow(g, (l - 1) // e, l)
        if all(pow(x, e // q, l) != 1 for q in qs):
            return x
    raise CertificateError("no element of the required order")


def min_faithful_degree(group, table=None):
    """Smallest degree of a faithful characteristic-0 representation.

    Minimum, over subsets of irreducible characters whose kernels intersect
    trivially, of the sum of their degrees: an A* search over distinct
    kernel intersections, each a bitmask of classes.  A class left in the
    intersection must still be cut by an irreducible of degree at least
    need[c], the least degree whose kernel misses c, so the largest such
    need bounds the remaining cost from below; the bound is consistent, so
    the first target popped is optimal.
    """
    ct = table if table is not None else character_table(group)
    kernels = [sum(1 << j for j in ct.kernel_classes(i)) for i in range(ct.n_classes)]
    full = (1 << ct.n_classes) - 1
    target = 1  # identity class only
    need = []
    for c in range(1, ct.n_classes):
        degs = [deg for ker, deg in zip(kernels, ct.degrees) if not ker >> c & 1]
        if not degs:
            raise CertificateError("no faithful character collection found")
        need.append((min(degs), 1 << c))
    need.sort(reverse=True)

    def h(state):
        return next((n for n, bit in need if state & bit), 0)

    best = {full: 0}
    heap = [(h(full), 0, full)]
    while heap:
        _, cost, state = heapq.heappop(heap)
        if state == target:
            return cost
        if cost > best[state]:
            continue
        for ker, deg in zip(kernels, ct.degrees):
            nstate = state & ker
            ncost = cost + deg
            if ncost < best.get(nstate, ncost + 1):
                best[nstate] = ncost
                heapq.heappush(heap, (ncost + h(nstate), ncost, nstate))
    raise CertificateError("no faithful character collection found")
