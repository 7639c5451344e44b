"""Basal subgroups, shadow models, and the witness criterion.

A subgroup B is basal when its normal closure is the internal direct
product of its conjugates.  Shadow models are finite stand-ins built from
wreath products F wr P with F a nonabelian finite simple group; their
designated basal family consists of the products of coordinate factors over
the blocks of each invariant partition of the top action, which is exactly
what the witness criterion consumes.  A finite-index subgroup (containing
the base) fails to be just infinite in the shadow sense iff some family
member B has the subgroup acting intransitively on the conjugates of B
while the core acts trivially on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .perm import (
    ELEMENT_GATE,
    OrderGateExceeded,
    PermGroup,
    SubgroupHandle,
    _image,
    _orbits_of,
    center,
    conj,
    core,
    identity_perm,
    mul,
)
from .smallgrp import maximal_subgroups_over, normal_subgroups
from .verdicts import JI, NOT_JI, CertificateError, Verdict


@dataclass
class BasalCertificate:
    subgroup: SubgroupHandle
    conjugates: list  # list of SubgroupHandle, the set Omega_B
    closure: SubgroupHandle
    direct_product_proof: dict
    supports: Optional[list] = None  # point supports when disjointness proves it
    label: str = ""

    @property
    def n_conjugates(self):
        return len(self.conjugates)

    def to_report(self):
        return {
            "label": self.label,
            "conjugates": self.n_conjugates,
            "proof": self.direct_product_proof,
        }


@dataclass
class BasalCheck:
    basal: bool
    certificate: Optional[BasalCertificate]
    reason: Optional[str]


def _conjugate_orbit(G, B, gate=ELEMENT_GATE, max_conjugates=64):
    """Distinct conjugates of B under G, keyed by element sets (gated)."""
    start = B.element_set(gate)
    seen = {start: B}
    frontier = [B]
    while frontier:
        cur = frontier.pop()
        for g in G.generators:
            img = cur.conjugate_by(g)
            key = img.element_set(gate)
            if key not in seen:
                if len(seen) >= max_conjugates:
                    raise OrderGateExceeded("conjugate orbit", len(seen) + 1,
                                            max_conjugates)
                seen[key] = img
                frontier.append(img)
    items = sorted(seen.items(), key=lambda kv: sorted(kv[0]))
    return [h for _, h in items], [k for k, _ in items]


def is_basal(G, B, gate=ELEMENT_GATE):
    """BasalCheck for B <= G: certificate iff the normal closure is the
    internal direct product of the conjugates of B."""
    if B.is_trivial():
        raise ValueError("basal subgroups are nontrivial by definition")
    conjugates, keys = _conjugate_orbit(G, B, gate)
    closure_group = G.normal_closure(B.generators)
    closure = SubgroupHandle(G, closure_group.generators, check=False)
    prod = 1
    for h in conjugates:
        prod *= h.order
    order_ok = closure.order == prod
    commute_ok = True
    intersect_ok = True
    for i in range(len(conjugates)):
        for j in range(i + 1, len(conjugates)):
            if keys[i] & keys[j] != {identity_perm(G.degree)}:
                intersect_ok = False
            for a in conjugates[i].generators:
                for b in conjugates[j].generators:
                    if mul(a, b) != mul(b, a):
                        commute_ok = False
    proof = {
        "order_identity": order_ok,
        "pairwise_commute": commute_ok,
        "trivial_intersections": intersect_ok,
        "closure_order": closure.order,
        "conjugate_orders": [h.order for h in conjugates],
    }
    if order_ok and commute_ok and intersect_ok:
        cert = BasalCertificate(B, conjugates, closure, proof)
        return BasalCheck(True, cert, None)
    reasons = []
    if not commute_ok:
        reasons.append("conjugates fail to commute")
    if not intersect_ok:
        reasons.append("conjugates intersect nontrivially")
    if not order_ok:
        reasons.append(
            f"closure order {closure.order} != product {prod}"
        )
    return BasalCheck(False, None, "; ".join(reasons))


def basal_from_intersections(G, K, gate=ELEMENT_GATE):
    """A basal subgroup K_J from a maximal-size nontrivial intersection of
    conjugates of K (requires K normal in its normal closure).

    Returns (certificate, info).  The trivial-center hypothesis on the
    closure is recorded in info, not enforced: directly certified basality
    stands on its own.
    """
    if K.is_trivial():
        raise ValueError("K must be nontrivial")
    closure_group = G.normal_closure(K.generators)
    for g in closure_group.generators:
        for h in K.generators:
            if conj(h, g) not in K.group:
                raise ValueError("hypothesis fails: K is not normal in K^G")
    info = {}
    if closure_group.order <= gate:
        info["closure_center_trivial"] = len(center(closure_group, gate)) == 1
    else:
        info["closure_center_trivial"] = None  # beyond the gate; recorded only
    conjugates, keys = _conjugate_orbit(G, K, gate)
    n = len(conjugates)
    ident = identity_perm(G.degree)
    for size in range(n, 0, -1):
        hits = []
        for combo in itertools.combinations(range(n), size):
            inter = keys[combo[0]]
            for i in combo[1:]:
                inter = inter & keys[i]
            if len(inter) > 1:
                hits.append((combo, inter))
        if not hits:
            continue
        for combo, inter in hits:
            gens = [e for e in sorted(inter) if e != ident]
            kj = SubgroupHandle(G, gens, check=False)
            check = is_basal(G, kj, gate)
            if check.basal:
                info["J"] = combo
                info["contained_in_conjugate"] = True
                return check.certificate, info
        raise CertificateError(
            "model violation: no maximal-size intersection is basal"
        )
    raise CertificateError("all intersections trivial; K itself nontrivial?")


# -- shadow models -----------------------------------------------------------


class ShadowSubgroup(SubgroupHandle):
    """A subgroup of a shadow of the form base x| S, built structurally."""

    def __init__(self, model, top_handle, label=""):
        gens = list(model.base_generators)
        for g in top_handle.generators:
            gens.append(model.lift_top(g))
        super().__init__(model.group, gens, check=False)
        self.model = model
        self.top_handle = top_handle
        self.contains_base = True
        self.label = label

    @property
    def order(self):
        # |base| * |S|: structural, avoids a chain on the big degree
        return self.model.base_order * self.top_handle.order

    def __repr__(self):
        return f"ShadowSubgroup({self.label or 'base x| S'}, |S|={self.top_handle.order})"


@dataclass
class ShadowModel:
    group: PermGroup
    top: PermGroup                 # P acting on the fiber indices
    fibers: list                   # fibers[i] = tuple of shadow points
    base_generators: list          # generators of the full base F^Omega
    fiber_group_order: int         # |F|
    basal_family: list = field(default_factory=list)
    provenance: str = ""

    @property
    def base_order(self):
        return self.fiber_group_order ** len(self.fibers)

    def lift_top(self, alpha):
        """The shadow permutation acting as alpha on fibers, trivially inside."""
        k = len(self.fibers[0])
        img = list(range(len(self.fibers) * k))
        for i in range(len(self.fibers)):
            for t in range(k):
                img[self.fibers[i][t]] = self.fibers[alpha[i]][t]
        return tuple(img)

    def project_to_top(self, perm):
        """The induced permutation of the fiber indices."""
        point_fiber = {}
        for i, fib in enumerate(self.fibers):
            for pt in fib:
                point_fiber[pt] = i
        out = []
        for i, fib in enumerate(self.fibers):
            images = {point_fiber[perm[pt]] for pt in fib}
            if len(images) != 1:
                raise ValueError("permutation does not respect fibers")
            out.append(images.pop())
        return tuple(out)

    def top_image_handle(self, H):
        if isinstance(H, ShadowSubgroup):
            return H.top_handle
        gens = [self.project_to_top(g) for g in H.generators]
        return SubgroupHandle(self.top, gens, check=False)

    def handle_contains_base(self, H):
        if isinstance(H, ShadowSubgroup):
            return H.contains_base
        return all(g in H.group for g in self.base_generators)

    def normal_subgroups_structural(self):
        """All nontrivial normal subgroups: base x| N over N normal in top.

        For F nonabelian simple and the top transitive and faithful, every
        nontrivial normal subgroup of the shadow contains the base, so these
        are all of them; each is verified normal before being returned.
        """
        out = []
        for n_handle in normal_subgroups(self.top):
            sub = ShadowSubgroup(self, n_handle, label=f"base x| N (|N|={n_handle.order})")
            if not n_handle.is_normal_in_parent():
                raise CertificateError("structural normal subgroup is not normal")
            out.append(sub)
        return out


def permji_witness(model, H):
    """A basal family member witnessing that H is not shadow-ji, or None.

    The witness condition: H acts intransitively on the conjugates Omega_B
    and the core of H acts trivially on them.  H must contain the base
    (every fixture handle does; the base acts trivially on every family
    member, so the top image carries the whole computation).
    """
    if not model.handle_contains_base(H):
        raise ValueError(
            "permji_witness expects a subgroup containing the base"
        )
    w_handle = model.top_image_handle(H)
    # the core acts trivially on the blocks iff a generating set of it does, and
    # a normal subgroup (every maximal subgroup of the p-group tops) is its own core
    if w_handle.is_normal_in_parent():
        core_perms = w_handle.generators
    else:
        core_perms = core(model.top, w_handle.group.elements())
    for cert in model.basal_family:
        blocks = cert.supports  # list of frozensets of fiber indices
        if len(blocks) < 2:
            continue
        # orbits of the top image on the block set
        block_of = {}
        for bi, blk in enumerate(blocks):
            for idx in blk:
                block_of[idx] = bi
        gens_on_blocks = []
        for g in w_handle.generators:
            gens_on_blocks.append(
                tuple(block_of[g[next(iter(blocks[bi]))]] for bi in range(len(blocks)))
            )
        if len(_orbits_of(range(len(blocks)), gens_on_blocks, _image)) < 2:
            continue
        core_trivial = all(
            block_of[c[next(iter(blocks[bi]))]] == bi
            for c in core_perms
            for bi in range(len(blocks))
        )
        if core_trivial:
            return cert
    return None


def shadow_ji_verdict(model, H):
    """Shadow verdict: not-ji iff a designated family member witnesses it."""
    witness = permji_witness(model, H)
    if witness is not None:
        return Verdict(NOT_JI, witness, "basal-witness", shadow=True)
    return Verdict(
        JI,
        {"checked_family_members": len(model.basal_family)},
        "basal-witness",
        shadow=True,
    )


def maxcor_equivalence_check(model, H):
    """Measure both sides of the normal-subgroup equivalence.

    lhs: the shadow verdict of H.  rhs: every maximal subgroup over H is
    shadow-ji (computed through the top quotient; maximal subgroups over a
    base-containing subgroup are exactly the preimages of the top maximals
    over its image).  The report records agreement, it never asserts it.
    """
    if H.order == model.base_order * model.top.order:
        # H = G: no maximal subgroup contains it; both sides are ji
        lhs = shadow_ji_verdict(model, H)
        return {
            "lhs": lhs,
            "rhs_all_ji": True,
            "maximal_count": 0,
            "agree": (lhs.status == JI),
        }
    w_handle = model.top_image_handle(H)
    if not model.handle_contains_base(H):
        raise ValueError("equivalence check expects a base-containing subgroup")
    if not w_handle.is_normal_in_parent():
        raise ValueError("maxcor_equivalence_check expects a normal subgroup")
    if H.order == model.base_order and model.base_order == 1:
        raise ValueError("H must be nontrivial")
    lhs = shadow_ji_verdict(model, H)
    maxima = maximal_subgroups_over(model.top, w_handle)
    verdicts = []
    for m_handle in maxima:
        sub = ShadowSubgroup(model, m_handle, label=f"max over H (|M|={m_handle.order})")
        verdicts.append(shadow_ji_verdict(model, sub))
    rhs = all(v.status == JI for v in verdicts)
    return {
        "lhs": lhs,
        "rhs_all_ji": rhs,
        "maximal_count": len(maxima),
        "maximal_verdicts": verdicts,
        "agree": (lhs.status == JI) == rhs,
    }
