"""Wreath-product shadow builders and their verdicts.

The shadow of K wr_Omega P (K just infinite, not virtually abelian) is
F wr_Omega P with F a nonabelian finite simple group at its minimal faithful
degree.  The designated basal family is the set of coordinate-factor
products over the blocks of every invariant partition of (P, Omega); the
base itself (one conjugate) is the coarsest member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import catalog
from .basal import BasalCertificate, ShadowModel, ShadowSubgroup, shadow_ji_verdict
from .perm import PermGroup, SubgroupHandle, conj, identity_perm, mul
from .smallgrp import maximal_subgroups_over
from .verdicts import CertificateError

SIMPLE_FIBERS = {
    "A5": lambda: catalog.alternating(5),
    "PSL27": lambda: catalog.psl27(7),
}
PRIMES = (2, 3)  # the primes build_wreath_shadow supports


def wreath_shadow(fiber_group, top_group, provenance=""):
    """F wr_Omega P on |Omega| * deg(F) points, with its basal family.

    fiber_group must be a nonabelian simple PermGroup (the modeling
    convention); top_group must act transitively and faithfully.
    """
    if not top_group.is_transitive():
        raise ValueError("the top group must be transitive")
    n_omega = top_group.degree
    deg_f = fiber_group.degree
    base_gens = [g for i in range(n_omega) for g in _fiber_gens(fiber_group, i, n_omega)]
    model = ShadowModel(
        group=None,  # generated below by the fiber-0 generators and the top lifts
        top=top_group,
        fibers=[tuple(range(i * deg_f, (i + 1) * deg_f)) for i in range(n_omega)],
        base_generators=base_gens,
        fiber_group_order=fiber_group.order,
        provenance=provenance or "wreath shadow",
    )
    lifts = [model.lift_top(a) for a in top_group.generators]
    gens = _fiber_gens(fiber_group, 0, n_omega) + lifts
    # |F wr P| bounds the order from above, the fibers and the top from below;
    # the chain is filled only when something asks for membership or elements
    _check_in_wreath(gens, fiber_group, top_group)
    _check_base_and_top(model, fiber_group, lifts)
    model.group = PermGroup(
        gens, _known_order=fiber_group.order**n_omega * top_group.order, _lazy=True)
    model.basal_family = _block_product_family(model, fiber_group)
    return model


def _check_in_wreath(gens, fiber_group, top_group):
    """Raise CertificateError unless every gen lies in F wr P: it maps each
    fiber onto a fiber by an element of F, and the fibers by an element of P.
    Those permutations form a group of order |F|^|Omega| * |P|."""
    deg_f = fiber_group.degree
    points = list(range(deg_f))
    for g in gens:
        top = []
        for i in range(top_group.degree):
            j = g[i * deg_f] // deg_f
            local = tuple(x - j * deg_f for x in g[i * deg_f:(i + 1) * deg_f])
            if sorted(local) != points or local not in fiber_group:
                raise CertificateError(f"generator maps fiber {i} outside F")
            top.append(j)
        if top not in top_group:
            raise CertificateError("generator permutes the fibers outside P")


def _check_base_and_top(model, fiber_group, lifts):
    """Raise CertificateError unless the fiber-0 generators and the top lifts
    generate at least |F|^|Omega| * |P| elements.

    Words in the lifts carry fiber 0 to every fiber i and conjugate the
    fiber-0 generators onto exactly those of F on fiber i.  These copies of
    F have disjoint supports, so they generate F^Omega, which lies in the
    kernel of the projection to the fibers; the lifts project onto the
    generators of P, so the image contains P.
    """
    n_omega, deg_f = model.top.degree, fiber_group.degree
    words = {0: identity_perm(n_omega * deg_f)}
    todo = [words[0]]
    for w in todo:  # todo grows while it is read
        for lift in lifts:
            v = mul(w, lift)
            if v[0] // deg_f not in words:
                words[v[0] // deg_f] = v
                todo.append(v)
    if len(words) != n_omega:
        raise CertificateError(
            f"the top lifts carry fiber 0 to {len(words)} of {n_omega} fibers")
    fiber0 = _fiber_gens(fiber_group, 0, n_omega)
    for i, w in words.items():
        if [conj(h, w) for h in fiber0] != _fiber_gens(fiber_group, i, n_omega):
            raise CertificateError(f"fiber 0 is not conjugated onto F on fiber {i}")
    for a, lift in zip(model.top.generators, lifts):
        if model.project_to_top(lift) != a:
            raise CertificateError("a top lift projects outside the top generators")


def _block_product_family(model, fiber_group):
    """Basal certificates for the block products, coarsest first."""
    systems = model.top.block_systems()
    # include the one-block partition (the base, a single conjugate)
    systems = [tuple([tuple(range(model.top.degree))])] + list(systems)
    n_omega = model.top.degree
    family = []
    for system in systems:
        blocks = [frozenset(b) for b in system]
        conjugates = [
            SubgroupHandle(
                model.group,
                [g for i in sorted(b) for g in _fiber_gens(fiber_group, i, n_omega)],
                check=False,
            )
            for b in blocks
        ]
        handle = next(h for h, b in zip(conjugates, blocks) if 0 in b)
        closure = SubgroupHandle(model.group, model.base_generators, check=False)
        proof = {
            "style": "disjoint-support product",
            "order_identity": True,
            "pairwise_commute": True,
            "trivial_intersections": True,
            "closure_order": model.base_order,
            "conjugate_orders": [
                model.fiber_group_order ** len(b) for b in blocks
            ],
        }
        cert = BasalCertificate(
            handle,
            conjugates,
            closure,
            proof,
            supports=blocks,
            label=f"block product over {len(blocks)} blocks",
        )
        family.append(cert)
    family.sort(key=lambda c: (c.n_conjugates, sorted(map(sorted, c.supports))))
    return family


def _fiber_gens(fiber_group, i, n_omega):
    """The generators of fiber_group acting on fiber i of n_omega, fixing the rest."""
    deg_f = fiber_group.degree
    out = []
    for g in fiber_group.generators:
        img = list(range(n_omega * deg_f))
        for t in range(deg_f):
            img[i * deg_f + t] = i * deg_f + g[t]
        out.append(tuple(img))
    return out


@dataclass
class WreathShadow:
    """Example-style shadow: F wr_V (V x| C_p) with the named subgroups."""

    model: ShadowModel
    fiber_tag: str
    p: int
    H: ShadowSubgroup  # base x| W, W a non-normal hyperplane of translations
    M: ShadowSubgroup  # base x| V, the unique maximal over H
    full: ShadowSubgroup  # the whole group as a handle


def build_wreath_shadow(fiber_tag, p):
    """Shadow of the affine wreath example at the prime p (p in {2, 3}).

    A = V x| C_p acts on V = F_p^p by translations and coordinate rotation;
    W is the non-normal index-p subgroup of translations fixing the first
    coordinate sum... concretely the hyperplane v_0 = 0, which the rotation
    moves.  H = base x| W has index p^2; its unique maximal overgroup is
    base x| V.
    """
    if p not in PRIMES:
        raise ValueError("supported primes: 2 and 3")
    if fiber_tag not in SIMPLE_FIBERS:
        raise ValueError(f"supported fibers: {sorted(SIMPLE_FIBERS)}")
    fiber = SIMPLE_FIBERS[fiber_tag]()
    pts = list(product(range(p), repeat=p))
    vidx = {v: i for i, v in enumerate(pts)}

    def translation(e):
        return tuple(
            vidx[tuple((v[j] + e[j]) % p for j in range(p))] for v in pts
        )

    rot = tuple(vidx[v[-1:] + v[:-1]] for v in pts)
    e_vecs = [
        tuple(1 if j == i else 0 for j in range(p)) for i in range(p)
    ]
    t_gens = [translation(e) for e in e_vecs]
    A = PermGroup([t_gens[0], rot])
    if A.order != p ** (p + 1):
        raise CertificateError("affine top group has the wrong order")
    model = wreath_shadow(fiber, A, provenance=f"{fiber_tag} wr (V x| C_{p})")

    # W: translations by vectors with first coordinate 0 (not rot-invariant)
    w_handle = SubgroupHandle(A, t_gens[1:], check=True)
    if w_handle.order != p ** (p - 1):
        raise CertificateError("W has the wrong order")
    if w_handle.is_normal_in_parent():
        raise CertificateError("W must not be normal in A")
    v_handle = SubgroupHandle(A, t_gens, check=True)
    if v_handle.order != p**p:
        raise CertificateError("V has the wrong order")

    H = ShadowSubgroup(model, w_handle, label="base x| W")
    M = ShadowSubgroup(model, v_handle, label="base x| V")
    full = ShadowSubgroup(model, SubgroupHandle.full(A), label="shadow group")
    over = maximal_subgroups_over(A, w_handle)
    if len(over) != 1 or not over[0].same_subgroup(v_handle):
        raise CertificateError("the maximal subgroup over W is not unique or is not V")
    return WreathShadow(model, fiber_tag, p, H, M, full)


def wreath_verdicts(shadow):
    """Verdicts for the named subgroups plus the uniqueness certificate."""
    model = shadow.model
    g_v = shadow_ji_verdict(model, shadow.full)
    h_v = shadow_ji_verdict(model, shadow.H)
    m_v = shadow_ji_verdict(model, shadow.M)
    over = maximal_subgroups_over(model.top, shadow.H.top_handle)
    return {
        "G": g_v,
        "H": h_v,
        "M": m_v,
        "M_unique_over_H": len(over) == 1,
        "H_index": model.top.order // shadow.H.top_handle.order,
    }
