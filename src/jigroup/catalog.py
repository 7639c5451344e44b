"""Constructions of the standard finite groups used throughout.

Everything is returned as a PermGroup.  The 2-generator metacyclic family
(dihedral, generalized quaternion, semidihedral) is built on its regular
representation from the normal form r^i s^j, which keeps generator order
stable for the matrix representations layered on top.
"""

from __future__ import annotations

from itertools import product

from .perm import PermGroup, perm_from_cycles, identity_perm
from .verdicts import CertificateError


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
    if (twist * twist) % n != 1:
        raise ValueError("twist must be an involution mod n")

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
    elif degree == 8:
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
    else:
        raise ValueError("psl27 is provided at degree 7 or 8")
    if G.order != 168:
        raise CertificateError("PSL(2,7) has the wrong order")
    return G


def extraspecial_128():
    """The extraspecial group 2^(1+6)_+ of order 128, the central product
    D8 o D8 o D8, on the 16 signed basis vectors +-e_v, v in F_2^3.

    The i-th D8 is generated by the flip e_v -> e_(v + u_i) and the sign
    e_v -> (-1)^(v_i) e_v, which anticommute; the three copies share the
    centre {1, -1}.
    """
    vecs = list(product(range(2), repeat=3))
    points = [(s, v) for s in range(2) for v in vecs]  # (s, v) is (-1)^s e_v
    idx = {pt: k for k, pt in enumerate(points)}
    gens = []
    for i in range(3):
        gens.append(tuple(idx[s, v[:i] + (1 - v[i],) + v[i + 1:]] for s, v in points))
        gens.append(tuple(idx[s ^ v[i], v] for s, v in points))
    E = PermGroup(gens)
    if E.order != 128:
        raise CertificateError("the extraspecial group has the wrong order")
    return E
