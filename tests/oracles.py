"""Slow, obviously correct oracles that only the tests call.

Each stands beside a fast path of `jigroup` that the tests check against
it, or gives the tests a way into a structure that the program itself never
needs.
"""

from fractions import Fraction

from jigroup import catalog
from jigroup.hilbert import _valuation_and_unit
from jigroup.perm import (
    ELEMENT_GATE,
    LATTICE_GATE,
    OrderGateExceeded,
    PermGroup,
    _walk,
    identity_perm,
    mul,
    perm_from_cycles,
)
from jigroup.profiles import subgroup_ji
from jigroup.smallgrp import all_subgroups, small_table

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


def rational_value(ctx, a):
    """The rational number a cyclotomic element of CycloContext ctx equals."""
    if not ctx.is_rational(a):
        raise ValueError("value is not rational")
    return a[0]
