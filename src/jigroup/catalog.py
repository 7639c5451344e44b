"""Constructions of the standard finite groups used throughout.

Everything is returned as a PermGroup.  The 2-generator metacyclic family
(dihedral, generalized quaternion, semidihedral) is built on its regular
representation from the normal form r^i s^j, which keeps generator order
stable for the matrix representations layered on top.
"""

from __future__ import annotations

from itertools import product

from .perm import PermGroup, perm_from_cycles, identity_perm


def cyclic(n, degree=None):
    """C_n in its natural action on n points (or padded to `degree`)."""
    d = degree or n
    return PermGroup([perm_from_cycles(d, tuple(range(n)))])


def klein_four():
    """Elementary abelian of order 4, regular on 4 points."""
    return PermGroup(
        [perm_from_cycles(4, (0, 1), (2, 3)), perm_from_cycles(4, (0, 2), (1, 3))]
    )


def elementary_abelian(p, k):
    """(C_p)^k acting regularly on p^k points (tuples over F_p)."""
    pts = list(product(range(p), repeat=k))
    idx = {v: i for i, v in enumerate(pts)}
    gens = []
    for axis in range(k):
        e = tuple(1 if i == axis else 0 for i in range(k))
        gens.append(
            tuple(
                idx[tuple((v[i] + e[i]) % p for i in range(k))] for v in pts
            )
        )
    return PermGroup(gens)


def symmetric(n):
    if n == 1:
        return PermGroup([identity_perm(1)], 1)
    gens = [perm_from_cycles(n, tuple(range(n)))]
    if n > 2:
        gens.append(perm_from_cycles(n, (0, 1)))
    return PermGroup(gens)


def alternating(n):
    if n <= 2:
        return PermGroup([identity_perm(max(n, 1))], max(n, 1))
    gens = [perm_from_cycles(n, (0, 1, 2))]
    if n > 3:
        if n % 2:
            gens.append(perm_from_cycles(n, tuple(range(n))))
        else:
            gens.append(perm_from_cycles(n, tuple(range(1, n))))
    return PermGroup(gens)


def dihedral(n, natural=True):
    """Dihedral of order 2n.  Natural action on n points by default."""
    if natural:
        rot = perm_from_cycles(n, tuple(range(n)))
        refl = tuple((n - i) % n for i in range(n))
        return PermGroup([rot, refl])
    return _metacyclic_regular(n, -1, 0)


def quaternion(order):
    """Generalized quaternion Q_{2^k} (order >= 8), regular representation.

    Generators come out as (r, s) with r of order `order`/2, s^2 = r^(order/4),
    s r s^-1 = r^-1.
    """
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion groups have order 2^k >= 8")
    n = order // 2
    return _metacyclic_regular(n, -1, n // 2)


def semidihedral16():
    """SD16: <r, s | r^8 = s^2 = 1, s r s = r^3>, regular representation."""
    return _metacyclic_regular(8, 3, 0)


def _metacyclic_regular(n, twist, s_sq):
    """Regular PermGroup of <r, s | r^n = 1, s^2 = r^s_sq, s r s^-1 = r^twist>.

    Elements are the 2n pairs (i, j) = r^i s^j with j in {0, 1}; the product
    rule folds s through r via the twist.  Requires twist^2 = 1 mod n.
    """
    twist %= n
    assert (twist * twist) % n == 1, "twist must be an involution mod n"

    def multiply(a, b):
        i1, j1 = a
        i2, j2 = b
        # (r^i1 s^j1)(r^i2 s^j2): move r^i2 left through s^j1
        i = (i1 + i2 * (twist if j1 else 1)) % n
        j = j1 + j2
        if j == 2:
            return ((i + s_sq) % n, 0)
        return (i, j)

    els = [(i, j) for j in (0, 1) for i in range(n)]
    idx = {e: k for k, e in enumerate(els)}

    def right_mult_perm(x):
        return tuple(idx[multiply(e, x)] for e in els)

    r = right_mult_perm((1, 0))
    s = right_mult_perm((0, 1))
    return PermGroup([r, s])


def quaternion16():
    return quaternion(16)


def psl27(degree=7):
    """PSL(2,7) of order 168, acting on 7 points (as GL(3,2) on F_2^3 \\ 0)
    or on the 8 points of the projective line over F_7."""
    if degree == 7:
        vecs = [v for v in product(range(2), repeat=3) if any(v)]
        idx = {v: i for i, v in enumerate(vecs)}

        def matperm(m):
            def apply(v):
                return tuple(
                    sum(m[i][j] * v[j] for j in range(3)) % 2 for i in range(3)
                )

            return tuple(idx[apply(v)] for v in vecs)

        a = matperm([[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # order 7 companion-ish
        b = matperm([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        G = PermGroup([a, b])
        assert G.order == 168
        return G
    if degree == 8:
        # points: 0..6 = F_7, 7 = infinity; x -> x+1 and x -> -1/x
        shift = tuple(list((i + 1) % 7 for i in range(7)) + [7])
        imgs = []
        for i in range(7):
            if i == 0:
                imgs.append(7)
            else:
                imgs.append((-pow(i, 5, 7)) % 7)  # -1/x with 1/x = x^5 mod 7
        imgs.append(0)
        neg_inv = tuple(imgs)
        G = PermGroup([shift, neg_inv])
        assert G.order == 168
        return G
    raise ValueError("psl27 is provided at degree 7 or 8")


def extraspecial_128():
    """The central product of three dihedral groups of order 8 (order 2^7).

    Built as (D8 x D8 x D8)/N with N identifying the three centers, acting
    faithfully on the 128 cosets of N.
    """
    d8 = dihedral(4)
    deg = 12
    gens3 = []
    for k in range(3):
        for g in d8.generators:
            img = list(range(deg))
            for i in range(4):
                img[4 * k + i] = 4 * k + g[i]
            gens3.append(tuple(img))
    P = PermGroup(gens3)
    assert P.order == 512
    z = perm_from_cycles(4, (0, 2), (1, 3))  # central rotation r^2 of D8

    def embed(g, k):
        img = list(range(deg))
        for i in range(4):
            img[4 * k + i] = 4 * k + g[i]
        return tuple(img)

    from .perm import mul

    n1 = mul(embed(z, 0), embed(z, 1))
    n2 = mul(embed(z, 0), embed(z, 2))
    n_els = set()
    for a in (identity_perm(deg), n1):
        for b in (identity_perm(deg), n2):
            n_els.add(mul(a, b))
    assert len(n_els) == 4

    p_els = P.elements(gate=600)
    coset_of = {}
    cosets = []
    for e in p_els:
        if e in coset_of:
            continue
        cs = frozenset(mul(x, e) for x in n_els)
        ci = len(cosets)
        cosets.append(cs)
        for m in cs:
            coset_of[m] = ci
    assert len(cosets) == 128

    def left_mult_perm(g):
        # gN acted by x: (x g)N; use representative-independence of cosets
        return tuple(coset_of[mul(g, next(iter(cosets[c])))] for c in range(128))

    E = PermGroup([left_mult_perm(g) for g in gens3])
    assert E.order == 128
    return E
