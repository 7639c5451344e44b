"""Slow, obviously correct oracles that only the tests call.

Each stands beside a fast path of `jigroup` that the tests check against
it, or gives the tests a way into a structure that the program itself never
needs.
"""

import heapq
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from jigroup import catalog, chartab
from jigroup import ratmat as rm
from jigroup.hilbert import _valuation_and_unit
from jigroup.padic import PadicMatrix, PrecisionExhausted
from jigroup.perm import (
    ELEMENT_GATE,
    LATTICE_GATE,
    OrderGateExceeded,
    PermGroup,
    _orbits_of,
    _walk,
    identity_perm,
    inv,
    mul,
    perm_from_cycles,
    perm_order,
)
from jigroup.profiles import subgroup_ji
from jigroup.rep import (
    SAMPLE_BUDGET,
    AlgebraStructure,
    MatRep,
    _flat,
    _idempotent_from_minpoly,
    _noncentral_scalar_part,
    _sample_element,
    _structure_from_pair,
    algebra_center,
    commutation_rows,
    quaternion_pair,
)
from jigroup.smallgrp import all_subgroups, small_table
from jigroup.verdicts import CertificateError

# -- permutation groups -------------------------------------------------------------


def closure_order_bruteforce(gens, gate=ELEMENT_GATE):
    """Exhaustive multiplicative closure; independent order oracle."""
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    els = {identity_perm(n)}
    frontier = list(els)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = mul(a, g)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
                    if len(els) > gate:
                        raise OrderGateExceeded("closure oracle", len(els), gate)
        frontier = nxt
    return len(els)


def point_stabilizer(G, point):
    """The stabilizer of a point, from the elements of G that fix it."""
    fixing = [g for g in G.elements() if g[point] == point]
    stab = PermGroup(fixing, G.degree)
    assert stab.order * len(G.orbit(point)) == G.order, "stabilizer order mismatch"
    return stab


def random_element(G, rng):
    """Uniform random element of G (independent transversal choices)."""
    g = identity_perm(G.degree)
    for lv in reversed(G._chain.levels):
        pts = sorted(lv.transversal)
        g = mul(g, lv.transversal[pts[rng.randrange(len(pts))]])
    return g


def all_block_systems(group, gate=LATTICE_GATE):
    """Every block system with >= 2 blocks of a transitive group, from the
    subgroup lattice: the blocks containing 0 are the orbits of 0 under the
    subgroups between its stabilizer and the group.  Sorted as
    PermGroup.block_systems sorts them."""
    if not group.is_transitive():
        raise ValueError("block systems require a transitive group")
    tbl = small_table(group, gate)
    stab0 = frozenset(i for i, e in enumerate(tbl.elements) if e[0] == 0)
    systems = set()
    for s, _ in tbl.all_subgroups():
        if not stab0 <= s:
            continue
        block = frozenset(tbl.elements[i][0] for i in s)
        if len(block) == group.degree:
            continue
        blocks = _walk(block, group.generators, lambda b, g: frozenset(g[p] for p in b))
        systems.add(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return sorted(systems, key=lambda system: (len(system[0]), system))


def extraspecial_128_on_cosets():
    """The former Example-3 builder: D8 x D8 x D8 on 12 points, modulo the
    subgroup N that identifies the three centres, acting on the 128 cosets
    of N.  The shipped extraspecial128_group.profile is this group."""
    deg = 12

    def embed(g, k):
        img = list(range(deg))
        for i in range(4):
            img[4 * k + i] = 4 * k + g[i]
        return tuple(img)

    gens3 = [embed(g, k) for k in range(3) for g in catalog.dihedral(4).generators]
    P = PermGroup(gens3)
    assert P.order == 512
    z = perm_from_cycles(4, (0, 2), (1, 3))  # the central rotation r^2 of D8
    n1 = mul(embed(z, 0), embed(z, 1))
    n2 = mul(embed(z, 0), embed(z, 2))
    ident = identity_perm(deg)
    n_els = {mul(a, b) for a in (ident, n1) for b in (ident, n2)}
    assert len(n_els) == 4
    coset_of = {}
    cosets = []
    for e in P.elements(gate=600):
        if e not in coset_of:
            cs = frozenset(mul(x, e) for x in n_els)
            for m in cs:
                coset_of[m] = len(cosets)
            cosets.append(cs)
    assert len(cosets) == 128

    def left_mult_perm(g):  # gN -> (xg)N does not depend on the representative
        return tuple(coset_of[mul(g, next(iter(cosets[c])))] for c in range(128))

    E = PermGroup([left_mult_perm(g) for g in gens3])
    assert E.order == 128
    return E


# -- the multiplication table -------------------------------------------------------
# The character table and the structure tags once read these from the table
# of the subgroup lattice; they now read permutations.


def table_conjugacy_classes(tbl):
    """Conjugacy classes as sorted element index lists; identity class first."""
    order_of = [perm_order(e) for e in tbl.elements]
    classes = [sorted(orbit) for orbit in _orbits_of(range(tbl.n), tbl.gens, tbl.conj)]
    classes.sort(key=lambda c: (c[0] != tbl.ident, order_of[c[0]], c[0]))
    return classes


def table_class_matrices(tbl, classes):
    """mats[i][k]: {j: a_ijk} with a_ijk = #{x in C_i : x^-1 rep_k in C_j} != 0."""
    class_of = {x: c for c, cls in enumerate(classes) for x in cls}
    return [
        [dict(Counter(class_of[tbl.table[tbl.inverse[x]][zk[0]]] for x in classes[i]))
         for zk in classes]
        for i in range(len(classes))
    ]


def table_power(tbl, i, k):
    out = tbl.ident
    for _ in range(k):
        out = tbl.table[out][i]
    return out


def table_power_classes(tbl, classes, exponent):
    """power_class[j][u]: the class of rep_j^u for u < exponent."""
    class_of = {x: c for c, cls in enumerate(classes) for x in cls}
    return [[class_of[table_power(tbl, cls[0], u)] for u in range(exponent)]
            for cls in classes]


def table_exponent(tbl):
    e = 1
    for x in tbl.elements:
        o = perm_order(x)
        e = e // gcd(e, o) * o
    return e


def table_center(tbl):
    table = tbl.table
    return frozenset(
        i for i in range(tbl.n) if all(table[i][g] == table[g][i] for g in tbl.gens)
    )


def table_derived_subgroup(tbl):
    """The closure of every commutator of two elements."""
    t, inverse = tbl.table, tbl.inverse
    comms = {t[t[inverse[i]][inverse[j]]][t[i][j]] for i in range(tbl.n) for j in range(tbl.n)}
    return tbl.closure(comms)


def table_recognize_special(group, gate=LATTICE_GATE):
    """The structural tags of smallgrp.recognize_special, from the table."""
    tbl = small_table(group, gate)
    n = tbl.n
    if n == 1:
        return {"none"}
    tags = set()
    orders = [perm_order(e) for e in tbl.elements]
    center = table_center(tbl)
    cyclic = max(orders) == n
    if cyclic:
        tags.add("cyclic")
    p = next(q for q in range(2, n + 1) if n % q == 0)
    m = n
    while m % p == 0:
        m //= p
    if m == 1:
        tags.add(("p_group", p))
        if len(center) == n and all(o in (1, p) for o in orders):
            tags.add("elementary_abelian")
        if (p == 2 and not cyclic and n >= 8 and orders.count(2) == 1
                and n // 2 in orders):
            tags.add(("generalized_quaternion", n))
        if (len(center) == p and table_derived_subgroup(tbl) == center
                and all(table_power(tbl, i, p) in center for i in range(n))):
            tags.add("extraspecial")
    return tags or {"none"}


# -- character tables -----------------------------------------------------------------


def lift_by_exponent_dft(d, vmod, power_class, exponent, l, t_root):
    """The root multiplicities chartab once lifted each value of one character
    from: an inverse DFT of length exponent for every class, whatever the
    order of its elements.  vmod[c] is the character mod l on class c and
    t_root an element of order exponent in F_l; one list per class."""
    root_pows = [pow(t_root, k, l) for k in range(exponent)]
    e_inv = pow(exponent, l - 2, l)
    out = []
    for row in power_class:
        powers_mod = [vmod[c] for c in row]
        mults = []
        for s in range(exponent):
            acc = sum(x * root_pows[-s * u % exponent] for u, x in enumerate(powers_mod))
            m_s = (acc * e_inv) % l
            if m_s > d:
                raise CertificateError("character multiplicity out of range")
            mults.append(m_s)
        if sum(mults) != d:
            raise CertificateError("eigenvalue multiplicities do not sum to degree")
        out.append(mults)
    return out


def dixon_split_full_space(group, gate=LATTICE_GATE):
    """The (degree, values mod l on the classes) of every irreducible, sorted, as
    chartab.character_table once found them: Dixon's eigen-split of the whole
    r-dimensional class space, by the full class matrices M_1, M_2, ... in
    turn, with no character known beforehand."""
    elements = group.elements(gate)
    order = len(elements)
    classes = chartab._classes(group, elements)
    r = len(classes)
    sizes = [len(c) for c in classes]
    members = [[elements[x] for x in cls] for cls in classes]
    reps = [m[0] for m in members]
    class_of = {x: ci for ci, m in enumerate(members) for x in m}
    inv_class = [class_of[inv(z)] for z in reps]
    exponent = lcm(*map(perm_order, reps))
    l = chartab._smallest_modulus(order, exponent)
    # mats[i][k]: the pairs (j, a_ijk), with a_ijk = #{w in C_i* : w z_k in C_j}
    mats = [[tuple(Counter(class_of[mul(w, cls[0])] for w in members[inv_class[i]]).items())
             for cls in members] for i in range(r)]
    size_inv = [pow(c, l - 2, l) for c in sizes]
    blocks = [([[int(i == j) for j in range(r)] for i in range(r)], list(range(r)))]

    def split(block, pivots, m):
        rows = len(block)
        if rows == 1:
            return [(block, pivots)]
        a = chartab._restriction(block, pivots, chartab._times_class_matrix(block, m, l), l)
        evs = chartab._eigenvalues_mod(a, l)
        if len(evs) == 1:
            return [(block, pivots)]
        out = []
        for lam in evs:
            shifted_t = [[a[j][i] - (lam if i == j else 0) for j in range(rows)]
                         for i in range(rows)]
            null = chartab._nullspace_mod(shifted_t, l)
            out.append(chartab._rref_mod(chartab._mat_mul_mod(null, block, l), l))
        if sum(len(b) for b, _ in out) != rows:
            raise CertificateError("eigenspaces do not split the block")
        return out

    for m in mats[1:]:
        if all(len(b) == 1 for b, _ in blocks):
            break
        blocks = [piece for b, piv in blocks for piece in split(b, piv, m)]
    if any(len(b) != 1 for b, _ in blocks):
        raise CertificateError("class algebra failed to split")
    chars_mod = []
    for ([v], [k]) in blocks:
        omegas = [sum(v[j] * c for j, c in m[k]) % l for m in mats]
        s = sum(w * omegas[inv_class[i]] * size_inv[i] for i, w in enumerate(omegas)) % l
        d = chartab._int_sqrt_exact(pow(s, l - 2, l) * order % l)
        chars_mod.append((d, [d * w * size_inv[i] % l for i, w in enumerate(omegas)]))
    chars_mod.sort(key=lambda t: (t[0], t[1]))
    return chars_mod


def min_faithful_degree_by_frozensets(ct):
    """chartab.min_faithful_degree on frozensets of classes: Dijkstra over
    the distinct kernel intersections, ties broken by a push counter."""
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


# -- cyclotomic values ----------------------------------------------------------------


# CycloContext keeps only what the character table needs; the tests build
# values with these.


def root_power(ctx, k):
    """zeta^k in Z[zeta_e], e = ctx.e."""
    return ctx.from_root_multiplicities([0] * (k % ctx.e) + [1])


def cyclo_one(ctx):
    return root_power(ctx, 0)


def cyclo_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def cyclo_mul(ctx, a, b):
    prod = [0] * (2 * ctx.dim - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return ctx.from_root_multiplicities(prod)


def mod_l_value(a, t_root, l):
    """The image in F_l of a value of Z[zeta_e] under zeta -> t_root."""
    return sum(x * pow(t_root, i, l) for i, x in enumerate(a)) % l


def is_rational(a):
    """Whether a cyclotomic element, in the power basis, is a rational number."""
    return all(x == 0 for x in a[1:])


def rational_value(ctx, a):
    """The rational number a cyclotomic element of CycloContext ctx equals."""
    if not is_rational(a):
        raise ValueError("value is not rational")
    return a[0]


# -- profiles -------------------------------------------------------------------------


def full_lattice_scan(profile, seed=0):
    """subgroup_ji over every subgroup class of Q (small Q only)."""
    return [
        {
            "order": handle.order,
            "index": profile.Q.order // handle.order,
            "verdict": subgroup_ji(profile, handle, seed),
        }
        for handle in all_subgroups(profile.Q)
    ]


# -- commutant algebras --------------------------------------------------------------


def algebra_structure_sampling_first(comm_basis, seed=0):
    """rep.algebra_structure without the division pre-check: every random
    trial runs before the quaternion structure is built.

    Classifies a multiplicatively closed matrix algebra (a commutant).

    Deterministic: the sampler runs on a fixed seed.  Kinds:
      scalars, field(minpoly), split(idempotent), split_nilpotent(nilpotent),
      quaternion_over_Q(a, b), cyclic_algebra(center_minpoly, a, b) for a
      quaternion algebra over a quadratic center (a, b as pairs over the
      center generator), unknown(trials) otherwise.
    """
    dim = len(comm_basis)
    d = len(comm_basis[0])
    if dim == 1:
        return AlgebraStructure("scalars", comm_basis, {})
    combine = rm.combiner(comm_basis)
    rng = random.Random(seed)
    nilpotent_witness = None
    for trial in range(SAMPLE_BUDGET):
        a = (
            comm_basis[trial]
            if trial < dim
            else _sample_element(combine, dim, rng)
        )
        mp = rm.minimal_polynomial(a)
        if rm.poly_deg(mp) < 1:
            continue
        facs = rm.poly_factor_q(mp)
        if len(facs) > 1:
            e = _idempotent_from_minpoly(a, facs)
            if e is not None and e != rm.identity(d) and any(
                any(x != 0 for x in row) for row in e
            ):
                return AlgebraStructure("split", comm_basis, {"idempotent": e})
        elif facs[0][1] > 1:
            # power of one irreducible: q(a) is a nonzero nilpotent
            q = facs[0][0]
            nil = rm.poly_eval_mat(q, a)
            if any(any(x != 0 for x in row) for row in nil):
                nilpotent_witness = nil
        elif rm.poly_deg(facs[0][0]) == dim:
            return AlgebraStructure(
                "field", comm_basis, {"minpoly": facs[0][0], "generator": a}
            )
    if nilpotent_witness is not None:
        return AlgebraStructure(
            "split_nilpotent", comm_basis, {"nilpotent": nilpotent_witness}
        )
    center = algebra_center(comm_basis)
    ident = rm.identity(d)
    if dim == 4 and len(center) == 1:
        rng = random.Random(seed + 1)
        for _ in range(SAMPLE_BUDGET):
            x = _sample_element(combine, dim, rng)
            pair = quaternion_pair(comm_basis, (ident,), x)
            if pair is not None:
                return _structure_from_pair(comm_basis, pair)
    if dim == 8 and len(center) == 2:
        zgen = _noncentral_scalar_part(center, d)
        mp = rm.minimal_polynomial(zgen)
        if rm.poly_deg(mp) == 2 and rm.poly_is_irreducible_q(mp):
            x = next(c for c in comm_basis
                     if rm.rank([_flat(m) for m in (ident, zgen, c)]) == 3)
            pair = quaternion_pair(comm_basis, (ident, zgen), x)
            if pair is None:
                raise CertificateError("no quaternion pair over the center")
            return _structure_from_pair(comm_basis, pair, center_minpoly=mp,
                                        center_generator=zgen)
    return AlgebraStructure("unknown", comm_basis, {"trials": SAMPLE_BUDGET})


# -- p-adic matrices ------------------------------------------------------------------


def minimal_polynomial_by_degree(m):
    """padic.pminimal_polynomial one degree at a time: a fresh nullspace of
    the flattened I, m, ..., m^(k-1) for k = 1, 2, ..., until one is found."""
    d = len(m)
    powers = [PadicMatrix.identity(d, m.p, m.cap)]
    for k in range(1, d + 2):
        ns = PadicMatrix.stack([q.flat() for q in powers]).transpose().nullspace()
        if ns.rows:
            # the free column is the last power, where the vector is 1
            if ns.rows[0][-1] != m.p**-ns.val:
                raise PrecisionExhausted("minimal polynomial lead uncertain")
            return PadicMatrix(m.p, ns.cap, ns.rows[:1], ns.val)
        powers.append(powers[-1] * m)
    raise PrecisionExhausted("no dependence found for minimal polynomial")


# -- exact linear algebra ----------------------------------------------------------


def fraction_solve(a_rows, b_vec):
    """One solution x of a x = b by plain Fraction Gauss-Jordan on [a | b],
    with the free coordinates 0; None if the system is inconsistent."""
    nc = len(a_rows[0]) if a_rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(a_rows, b_vec)]
    pivots = []
    for c in range(nc + 1):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if c == nc:
            return None
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    x = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return tuple(x)


def row_space_intersection(u_rows, v_rows):
    """Canonical basis of the meet of two row spaces: the Fraction
    accumulation over the nullspace coordinates that ratmat once shipped."""
    u_rows = [r for r in u_rows if any(x != 0 for x in r)]
    v_rows = [r for r in v_rows if any(x != 0 for x in r)]
    if not u_rows or not v_rows:
        return ()
    n = len(u_rows[0])
    rows = [tuple([u[i] for u in u_rows] + [-v[i] for v in v_rows]) for i in range(n)]
    out = []
    for w in rm.nullspace(rows):
        vec = [Fraction(0)] * n
        for a, u in zip(w[: len(u_rows)], u_rows):
            for i in range(n):
                vec[i] += a * u[i]
        out.append(tuple(vec))
    return rm.row_space_canonical(out)


def center_by_centralizer(basis):
    """rep.algebra_center the former way: the centralizer of the algebra in
    M_d, d^2 unknowns, met with the span of the algebra."""
    d = len(basis[0])
    ker = rm.nullspace(commutation_rows([rm.integer_multiple(b) for b in basis]))
    inter = row_space_intersection(ker, [_flat(b) for b in basis])
    return tuple(
        rm.mat([[v[i * d + j] for j in range(d)] for i in range(d)]) for v in inter
    )


def start_projector_by_inverse(canon):
    """The former Maschke start projector minv . sel . m: m stacks the RREF
    rows of W over the unit vectors off their pivots, and sel keeps the
    first len(canon) coordinates."""
    d = len(canon[0])
    pivots = rm.rref(list(canon))[1]
    m = rm.mat(list(canon) + [[int(k == j) for k in range(d)]
                              for j in range(d) if j not in pivots])
    sel = rm.mat([[int(i == j and i < len(canon)) for j in range(d)] for i in range(d)])
    return rm.mat_mul(rm.mat_mul(rm.mat_inv(m), sel), m)


# -- restrictions to invariant subspaces ----------------------------------------------


def subspace_restriction_by_elements(rep, rows):
    """rep._subspace_restriction element by element: one Fraction solve per
    row of the image of every group element.  Returns (MatRep, lift basis)."""
    rows = rm.row_space_canonical(rows)
    rt = rm.mat_transpose(rows)

    def restricted(g):
        coords = []
        for img in rm.mat_mul(rows, g):
            sol = fraction_solve(rt, img)
            if sol is None:
                raise ValueError("subspace not invariant in restriction")
            coords.append(sol)
        return rm.mat(coords)

    emap = {perm: restricted(g) for perm, g in rep.element_map.items()}
    gen_images = [emap[g] for g in rep.group.generators] or [rm.identity(len(rows))]
    ident = rm.identity(len(rows))
    kernel = frozenset(perm for perm, m in emap.items() if m == ident)
    return MatRep(rep.group, gen_images, emap, kernel, rep.ring, len(rows)), rows


def constituent_rep_by_elements(rep, rows, p, n):
    """padic._constituent_rep element by element: one coords echelon per
    group element, then every relation checked mod p^(n/2)."""
    if not isinstance(rows, PadicMatrix):
        rows = PadicMatrix.from_rational(rows, p, n)
    floor = max(rows.cap // 2, 4)
    sat = rows.saturate(floor)
    emap = {perm: g if rep.ring != "Q" else PadicMatrix.from_rational(g, p, n)
            for perm, g in rep.element_map.items()}
    emap = {perm: sat.coords(sat * g, floor) for perm, g in emap.items()}
    if any(mat_c.min_valuation() < 0 for mat_c in emap.values()):
        raise PrecisionExhausted("constituent entry not p-integral")
    for perm in rep.group.generators:
        if emap[perm].det_valuation() != 0:
            raise PrecisionExhausted("constituent determinant is not a unit")
    slack = max(n // 2, 4)
    for g in rep.group.generators:
        for perm, ch in emap.items():
            if (ch * emap[g] - emap[mul(perm, g)]).min_valuation() < slack:
                raise PrecisionExhausted("constituent relations fail at N/2")
    gen_images = [emap[g] for g in rep.group.generators]
    ident = emap[rep.group.identity()]
    kernel = frozenset(perm for perm, m in emap.items() if (m - ident).is_zero())
    return MatRep(rep.group, gen_images, emap, kernel, ("Zp", p), len(sat))


# -- local fields ---------------------------------------------------------------------


def solubility_oracle(a, b, p):
    """Brute-force mod-p^K decision of z^2 = a x^2 + b y^2 (Hensel-aware).

    Scales a, b by squares to integers with v_p in {0,1}; then searches all
    primitive triples mod p^K with K = 2 v_p(2) + 1 + 2 max(v_p(a), v_p(b)).
    Sound: a primitive root of the form mod p^K has a unit variable whose
    partial derivative 2*c*w has valuation at most (K-1)/2, which is the
    Hensel margin needed to lift.  Complete: a p-adic solution scales to a
    primitive integral one and reduces mod p^K.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("oracle requires nonzero arguments")
    av, au = _valuation_and_unit(a, p)
    bv, bu = _valuation_and_unit(b, p)
    # modulo squares: a ~ p^(v mod 2) * num * den with num/den prime to p
    av %= 2
    bv %= 2
    ai = au.numerator * au.denominator
    bi = bu.numerator * bu.denominator
    e = 1 if p == 2 else 0
    K = 2 * e + 1 + 2 * max(av, bv)
    mod = p**K
    aa = (p**av * ai) % mod
    bb = (p**bv * bi) % mod
    all_squares = {z * z % mod for z in range(mod)}
    unit_squares = {z * z % mod for z in range(mod) if z % p}
    for x in range(mod):
        ax2 = aa * x * x % mod
        for y in range(mod):
            rhs = (ax2 + bb * y * y) % mod
            if x % p or y % p:
                if rhs in all_squares:
                    return True
            elif rhs in unit_squares:
                return True
    return False


def mul_pi(ext, x):
    """x * pi in a QuadExt, pi its uniformizer (gamma if ramified, else p)."""
    if not ext.ramified:
        return ((x[0] * ext.p) % ext.mod, (x[1] * ext.p) % ext.mod)
    return ((-ext.C * x[1]) % ext.mod, (x[0] - ext.B * x[1]) % ext.mod)
