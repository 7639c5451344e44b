"""Exact rational matrix representations of finite groups.

The homomorphism property is verified by closing the generator images over
the whole group (order-gated), which also yields the element-to-matrix map
used for restrictions.  Irreducibility over Q is decided through the
commutant: reducible iff a nontrivial idempotent (or other zero divisor)
turns up; scalar, field, and quaternion commutants carry exact division
certificates, the 8-dimensional quadratic-center case carries a sampled
certificate with an explicit trial count.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat as rm
from .hilbert import quaternion_is_division
from .perm import LATTICE_GATE, OrderGateExceeded, identity_perm, mul
from .smallgrp import maximal_subgroups
from .verdicts import IRREDUCIBLE, REDUCIBLE, UNKNOWN, Verdict

SAMPLE_BUDGET = 64


class RelationViolation(ValueError):
    def __init__(self, word):
        super().__init__(f"generator images violate the relation at word {word}")
        self.word = word


class MatRep:
    """A homomorphism from a PermGroup into GL_d over Q (or a NumberRing)."""

    def __init__(self, group, gen_images, element_map, faithful, ring="Q",
                 dimension=None):
        self.group = group
        self.gen_images = gen_images
        if dimension is None:
            dimension = len(gen_images[0])
        self.dimension = dimension
        self.element_map = element_map  # perm tuple -> matrix
        self.faithful = faithful
        self.ring = ring

    def image(self, perm):
        return self.element_map[tuple(perm)]

    def restrict(self, handle):
        """Restriction to a subgroup handle (as a rep of its own PermGroup)."""
        sub = handle.group
        gens = sub.generators or (identity_perm(self.group.degree),)
        gen_images = [self.element_map[g] for g in gens]
        sub_map = {e: self.element_map[e] for e in sub.elements()}
        faithful = len(set(sub_map.values())) == len(sub_map)
        return MatRep(sub, gen_images, sub_map, faithful, self.ring,
                      self.dimension)

    def __repr__(self):
        return (
            f"MatRep(dim={self.dimension}, group_order={self.group.order}, "
            f"faithful={self.faithful}, ring={self.ring!r})"
        )


def rep_from_data(group, generator_matrices, gate=LATTICE_GATE):
    """Build and verify a MatRep from generator images."""
    mats = [rm.mat(m) for m in generator_matrices]
    d = None
    for m in mats:
        if d is None:
            d = len(m)
        if len(m) != d or any(len(row) != d for row in m):
            raise ValueError("generator matrices must be square, equal size")
        if rm.mat_det(m) == 0:
            raise ValueError("generator image is not invertible")
    if d is None:
        raise ValueError("rep_from_data needs at least one generator matrix")
    element_map = close_over_group(group, mats, rm.identity(d), rm.mat_mul,
                                   operator.eq, gate)
    faithful = len(set(element_map.values())) == len(element_map)
    return MatRep(group, mats, element_map, faithful)


def close_over_group(group, mats, identity, product, equal, gate):
    """Element-to-matrix map of the homomorphism given by generator images.

    Walks the whole group in parallel in the permutation and matrix worlds;
    `product` multiplies two images and `equal` says whether two images of
    one element agree.  A disagreement raises RelationViolation with the
    failing generator word.
    """
    if len(mats) != len(group.generators):
        raise ValueError("need exactly one matrix per group generator")
    if group.order > gate:
        raise OrderGateExceeded("representation closure", group.order, gate)
    ident = identity_perm(group.degree)
    element_map = {ident: identity}
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            mp = element_map[p]
            for k, (g, mg) in enumerate(zip(group.generators, mats)):
                q = mul(p, g)
                mq = product(mp, mg)
                if q in element_map:
                    if not equal(element_map[q], mq):
                        raise RelationViolation(words[p] + (k,))
                else:
                    element_map[q] = mq
                    words[q] = words[p] + (k,)
                    nxt.append(q)
        frontier = nxt
    assert len(element_map) == group.order
    return element_map


def commutant(rep):
    """Basis of {X : X rho(g) = rho(g) X for all g}; contains the identity.

    The basis is verified multiplicatively closed before it is returned.
    Cached on the rep (everything here is immutable).
    """
    cached = getattr(rep, "_commutant_cache", None)
    if cached is not None:
        return cached
    d = rep.dimension
    if not rep.gen_images:
        return tuple(
            rm.mat([[1 if (i, j) == (r, c) else 0 for j in range(d)] for i in range(d)])
            for r in range(d)
            for c in range(d)
        )
    rows = []
    for g in rep.gen_images:
        # X g - g X = 0: linear in the d^2 entries of X
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[i * d + k] += g[k][j]
                    row[k * d + j] -= g[i][k]
                rows.append(tuple(row))
    basis_vecs = rm.nullspace(rows)
    basis = tuple(
        rm.mat([[v[i * d + j] for j in range(d)] for i in range(d)])
        for v in basis_vecs
    )
    _verify_commutant(rep, basis)
    rep._commutant_cache = basis
    return basis


def _verify_commutant(rep, basis):
    d = rep.dimension
    span_rows = [tuple(x for row in b for x in row) for b in basis]
    canon = rm.row_space_canonical(span_rows)
    ident_vec = tuple(x for row in rm.identity(d) for x in row)
    assert _in_row_space(canon, ident_vec), "commutant missing the identity"
    for a in basis:
        for b in basis:
            prod = rm.mat_mul(a, b)
            vec = tuple(x for row in prod for x in row)
            assert _in_row_space(canon, vec), "commutant not closed under product"


def _in_row_space(canon_rows, vec):
    if not canon_rows:
        return all(x == 0 for x in vec)
    stacked = rm.row_space_canonical(list(canon_rows) + [vec])
    return stacked == canon_rows


@dataclass
class AlgebraStructure:
    kind: str  # scalars | field | quaternion_over_Q | cyclic_algebra | split | unknown
    basis: tuple
    data: dict

    def to_report(self):
        out = {"kind": self.kind, "dimension": len(self.basis)}
        for k, v in self.data.items():
            if k in ("minpoly", "a", "b", "center_minpoly", "trials"):
                out[k] = v
        return out


def _sample_element(basis, rng, spread=5):
    coeffs = [Fraction(rng.randint(-spread, spread)) for _ in basis]
    d = len(basis[0])
    acc = rm.zeros(d, d)
    for c, b in zip(coeffs, basis):
        if c:
            acc = rm.mat_add(acc, rm.mat_scale(b, c))
    return acc


def _idempotent_from_minpoly(a, facs):
    """CRT idempotent from a coprime factorization of the minimal polynomial.

    facs: list of (factor, mult).  Returns e = h(a) with e^2 = e, projecting
    onto the first primary component; None if only one distinct factor.
    """
    if len(facs) < 2:
        return None
    f1 = rm.poly_trim(facs[0][0])
    for _ in range(facs[0][1] - 1):
        f1 = rm.poly_mul(f1, facs[0][0])
    rest = (Fraction(1),)
    for fac, mult in facs[1:]:
        for _ in range(mult):
            rest = rm.poly_mul(rest, fac)
    g, u, v = rm.poly_xgcd(f1, rest)
    assert rm.poly_deg(g) == 0 and g[0] == 1, "factors are not coprime"
    # e = u*f1 evaluated at a satisfies e = 0 mod f1-part, 1 mod rest-part
    e_poly = rm.poly_mul(u, f1)
    e = rm.poly_eval_mat(e_poly, a)
    assert rm.mat_mul(e, e) == e, "CRT idempotent check failed"
    return e


def algebra_structure(comm_basis, seed=0):
    """Classify a multiplicatively closed matrix algebra (a commutant).

    Deterministic: the sampler runs on a fixed seed.  Kinds:
      scalars, field(minpoly), split(idempotent), quaternion_over_Q(a, b),
      cyclic_algebra(center_minpoly, ...) for dimension 8 over a quadratic
      center, unknown(trials) otherwise.
    """
    dim = len(comm_basis)
    d = len(comm_basis[0])
    if dim == 1:
        return AlgebraStructure("scalars", comm_basis, {})
    rng = random.Random(seed)
    nilpotent_witness = None
    for trial in range(SAMPLE_BUDGET):
        a = (
            comm_basis[trial]
            if trial < dim
            else _sample_element(comm_basis, rng)
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
    if dim == 4 and len(center) == 1:
        quat = _quaternion_structure(comm_basis, seed)
        if quat is not None:
            if isinstance(quat, AlgebraStructure):
                return quat
            a_param, b_param, i_m, j_m = quat
            return AlgebraStructure(
                "quaternion_over_Q",
                comm_basis,
                {"a": a_param, "b": b_param, "i": i_m, "j": j_m},
            )
    if len(center) == 2:
        zgen = _noncentral_scalar_part(center, d)
        mp = rm.minimal_polynomial(zgen)
        if rm.poly_deg(mp) == 2 and rm.poly_is_irreducible_q(mp):
            return AlgebraStructure(
                "cyclic_algebra",
                comm_basis,
                {
                    "center_minpoly": mp,
                    "center_generator": zgen,
                    "trials": SAMPLE_BUDGET,
                },
            )
    return AlgebraStructure("unknown", comm_basis, {"trials": SAMPLE_BUDGET})


def algebra_center(basis):
    """Basis of the center of a matrix algebra given by a basis."""
    d = len(basis[0])
    rows = []
    for b in basis:
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[i * d + k] += b[k][j]
                    row[k * d + j] -= b[i][k]
                rows.append(tuple(row))
    # centralizer of the algebra in M_d, then intersect with the algebra span
    alg_rows = [tuple(x for row in b for x in row) for b in basis]
    ker = rm.nullspace(rows)
    inter = rm.row_space_intersection(ker, alg_rows)
    return tuple(
        rm.mat([[v[i * d + j] for j in range(d)] for i in range(d)]) for v in inter
    )


def _noncentral_scalar_part(center_basis, d):
    """A center generator with zero trace (so its minpoly is clean)."""
    for c in center_basis:
        tr = rm.mat_trace(c)
        cand = rm.mat_sub(c, rm.mat_scale(rm.identity(d), tr / d))
        if any(any(x != 0 for x in row) for row in cand):
            return cand
    raise AssertionError("center is scalar only")


def _quaternion_structure(basis, seed):
    """Standard generators of a 4-dim central simple algebra over Q.

    Returns (a, b, i, j) with i^2 = a, j^2 = b, ij = -ji; or a split
    structure if a zero divisor appears; or None if generation fails.
    """
    d = len(basis[0])
    rng = random.Random(seed + 1)
    for _ in range(SAMPLE_BUDGET):
        x = _sample_element(basis, rng)
        mp = rm.minimal_polynomial(x)
        if rm.poly_deg(mp) != 2:
            continue
        # i = x - tr/2 (trace from minpoly x^2 - t x + n)
        t = -mp[1]
        i_m = rm.mat_sub(x, rm.mat_scale(rm.identity(d), t / 2))
        sq = rm.mat_mul(i_m, i_m)
        a_param = sq[0][0]
        if sq != rm.mat_scale(rm.identity(d), a_param) or a_param == 0:
            continue
        # anticommutant of i inside the algebra: kernel of y -> iy + yi
        anti_rows = []
        for bb in basis:
            m = rm.mat_add(rm.mat_mul(i_m, bb), rm.mat_mul(bb, i_m))
            anti_rows.append(tuple(x for row in m for x in row))
        coeffs = rm.nullspace(rm.mat_transpose(anti_rows))
        for v in coeffs:
            j_m = rm.zeros(d, d)
            for c, bb in zip(v, basis):
                if c:
                    j_m = rm.mat_add(j_m, rm.mat_scale(bb, c))
            if all(x == 0 for row in j_m for x in row):
                continue
            sqj = rm.mat_mul(j_m, j_m)
            b_param = sqj[0][0]
            if sqj != rm.mat_scale(rm.identity(d), b_param):
                continue
            if b_param == 0:
                return AlgebraStructure(
                    "split_nilpotent", basis, {"nilpotent": j_m}
                )
            span = [
                tuple(x for row in m for x in row)
                for m in (
                    rm.identity(d),
                    i_m,
                    j_m,
                    rm.mat_mul(i_m, j_m),
                )
            ]
            if rm.rank(span) == 4:
                return a_param, b_param, i_m, j_m
    return None


def invariant_subspace_from_zero_divisor(rep, z):
    """Row space of a commutant zero divisor: invariant under v -> v rho(g).

    (Row vectors acted on from the right throughout; rowspace(X).rho(g) =
    rowspace(X rho(g)) = rowspace(rho(g) X) <= rowspace(X).)
    """
    basis = rm.row_space_canonical(z)
    assert 0 < len(basis) < rep.dimension
    _verify_invariant(rep, basis)
    return basis


def _verify_invariant(rep, basis_rows):
    canon = rm.row_space_canonical(basis_rows)
    for g in rep.gen_images:
        for v in basis_rows:
            img = tuple(
                sum(v[k] * g[k][j] for k in range(len(v)))
                for j in range(len(v))
            )
            assert _in_row_space(canon, img), "subspace is not invariant"


def irreducible_over_Q(rep, seed=0):
    """Verdict: reducible (invariant subspace), irreducible (division
    certificate), or unknown.

    Exact for scalar, field, and quaternion commutants; the 8-dimensional
    quadratic-center commutant gets a sampled division certificate with the
    trial budget recorded (the certificate is probabilistic, everything else
    about the verdict is exact).
    """
    cache = getattr(rep, "_irr_q_cache", None)
    if cache is None:
        cache = rep._irr_q_cache = {}
    if seed not in cache:
        cache[seed] = _irreducible_over_Q_uncached(rep, seed)
    return cache[seed]


def _irreducible_over_Q_uncached(rep, seed):
    comm = commutant(rep)
    st = algebra_structure(comm, seed)
    if st.kind == "scalars":
        return Verdict(IRREDUCIBLE, {"certificate": st}, "schur-commutant")
    if st.kind == "field":
        return Verdict(IRREDUCIBLE, {"certificate": st}, "schur-commutant")
    if st.kind == "split":
        w = invariant_subspace_from_zero_divisor(rep, st.data["idempotent"])
        return Verdict(
            REDUCIBLE,
            {"subspace": w, "idempotent": st.data["idempotent"]},
            "commutant-idempotent",
        )
    if st.kind == "split_nilpotent":
        w = invariant_subspace_from_zero_divisor(rep, st.data["nilpotent"])
        return Verdict(REDUCIBLE, {"subspace": w}, "commutant-zero-divisor")
    if st.kind == "quaternion_over_Q":
        a, b = st.data["a"], st.data["b"]
        if quaternion_is_division(a, b, "Q"):
            return Verdict(
                IRREDUCIBLE,
                {"certificate": st, "division": True},
                "quaternion-hilbert",
            )
        zd = _quaternion_zero_divisor(st)
        if zd is not None:
            w = invariant_subspace_from_zero_divisor(rep, zd)
            return Verdict(REDUCIBLE, {"subspace": w}, "quaternion-split")
        return Verdict(UNKNOWN, {"certificate": st}, "quaternion-split-unwitnessed")
    if st.kind == "cyclic_algebra":
        return Verdict(
            IRREDUCIBLE,
            {
                "certificate": st,
                "division": "sampled",
                "trials": st.data["trials"],
            },
            "sampled-division",
        )
    return Verdict(UNKNOWN, {"certificate": st}, "sampled-inconclusive")


def _quaternion_zero_divisor(st, bound=40):
    """Search small (x, y, z) with z^2 = a x^2 + b y^2; build a zero divisor."""
    a, b = st.data["a"], st.data["b"]
    i_m, j_m = st.data["i"], st.data["j"]
    d = len(i_m)
    for z in range(0, bound):
        for x in range(-bound, bound):
            for y in range(0, bound):
                if (x, y, z) == (0, 0, 0):
                    continue
                if Fraction(z * z) == a * x * x + b * y * y:
                    q = rm.mat_scale(rm.identity(d), z)
                    q = rm.mat_sub(q, rm.mat_scale(i_m, x))
                    q = rm.mat_sub(q, rm.mat_scale(j_m, y))
                    if any(any(c != 0 for c in row) for row in q):
                        return q
    return None


# -- matrix imprimitivity ------------------------------------------------------


def decompose_over_Q(rep, seed=0, _depth=0):
    """Split a rational rep into irreducible invariant subspaces (row bases).

    Returns a list of canonical row bases whose direct sum is the space.
    """
    d = rep.dimension
    verdict = irreducible_over_Q(rep, seed)
    if verdict.status == IRREDUCIBLE:
        return [rm.row_space_canonical(rm.identity(d))]
    if verdict.status == UNKNOWN:
        raise RuntimeError("cannot certify constituent decomposition")
    w = verdict.witness["subspace"]
    comp = _invariant_complement(rep, w)
    out = []
    for sub in (w, comp):
        sub_rep, lift = _subspace_restriction(rep, sub)
        pieces = decompose_over_Q(sub_rep, seed, _depth + 1)
        for piece in pieces:
            rows = [
                tuple(
                    sum(v[k] * lift[k][j] for k in range(len(lift)))
                    for j in range(d)
                )
                for v in piece
            ]
            out.append(rm.row_space_canonical(rows))
    assert sum(len(q) for q in out) == d
    return out


def _invariant_complement(rep, w_rows):
    """G-invariant complement of an invariant subspace (Maschke averaging)."""
    d = rep.dimension
    # projection onto W along any complement, then average over the group
    basis = list(w_rows)
    canon = rm.row_space_canonical(basis)
    pivots = rm.rref(list(canon))[1]
    others = [j for j in range(d) if j not in pivots]
    full = list(canon) + [
        tuple(Fraction(1 if k == j else 0) for k in range(d)) for j in others
    ]
    m = rm.mat(full)
    minv = rm.mat_inv(m)
    proj0 = rm.mat_mul(
        rm.mat_mul(
            minv,
            rm.mat(
                [
                    [
                        Fraction(1 if (i == j and i < len(canon)) else 0)
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
            ),
        ),
        m,
    )
    acc = rm.zeros(d, d)
    for g in rep.element_map.values():
        acc = rm.mat_add(acc, rm.mat_mul(rm.mat_mul(g, proj0), rm.mat_inv(g)))
    proj = rm.mat_scale(acc, Fraction(1, rep.group.order))
    assert rm.mat_mul(proj, proj) == proj
    # complement = kernel of the averaged projection (row vectors v with v P = 0)
    comp = rm.nullspace(rm.mat_transpose(proj))
    comp = rm.row_space_canonical(comp)
    assert len(comp) + len(canon) == d
    return comp


def _subspace_restriction(rep, rows):
    """The action of the group on an invariant subspace, in its own basis.

    Returns (restricted MatRep, canonical lift basis).
    """
    d = rep.dimension
    rows = rm.row_space_canonical(rows)
    rt = rm.mat_transpose(rows)

    def restricted(g):
        coords = []
        for v in rows:
            img = tuple(sum(v[t] * g[t][j] for t in range(d)) for j in range(d))
            sol = rm.solve(rt, img)
            assert sol is not None, "subspace not invariant in restriction"
            coords.append(sol)
        return rm.mat(coords)

    emap = {perm: restricted(g) for perm, g in rep.element_map.items()}
    gen_images = [emap[g] for g in rep.group.generators] or [
        rm.identity(len(rows))
    ]
    faithful = len(set(emap.values())) == len(emap)
    new_rep = MatRep(rep.group, gen_images, emap, faithful, rep.ring, len(rows))
    return new_rep, rows


def matrix_block_system(rep, field="Q", seed=0, p=None, precision=None):
    """Decomposition into subspaces permuted by the group, or a primitivity
    certificate.

    Requires an irreducible rep (reducible input raises).  For each maximal
    subgroup class M of index m dividing the dimension, the restriction to M
    is split into constituents; sums of constituents of dimension dim/m are
    tested as block candidates by translating them around the group.
    """
    if field == "Q":
        verdict = irreducible_over_Q(rep, seed)
        if verdict.status == REDUCIBLE:
            raise ValueError("matrix_block_system requires an irreducible rep")
    else:
        from .padic import irreducible_over_Qp

        verdict = irreducible_over_Qp(rep, p, precision)
        if verdict.status == REDUCIBLE:
            raise ValueError("matrix_block_system requires an irreducible rep")
    d = rep.dimension
    certificate = []
    incomplete = False
    for M in maximal_subgroups(rep.group):
        m_index = rep.group.order // M.order
        if m_index < 2 or d % m_index:
            certificate.append(
                {"maximal_order": M.order, "reason": "index does not divide dimension"}
            )
            continue
        target = d // m_index
        res = rep.restrict(M)
        if field == "Q":
            try:
                pieces = decompose_over_Q(res, seed)
            except RuntimeError:
                certificate.append(
                    {"maximal_order": M.order, "reason": "restriction split unknown"}
                )
                incomplete = True
                continue
        else:
            from .padic import ApproxSplitNeeded, decompose_over_Qp

            try:
                pieces = decompose_over_Qp(res, p, precision)
            except ApproxSplitNeeded:
                certificate.append(
                    {
                        "maximal_order": M.order,
                        "reason": "restriction splits p-adically; not constructed",
                    }
                )
                incomplete = True
                continue
        if len(pieces) == 1:
            certificate.append(
                {"maximal_order": M.order, "reason": "restriction irreducible"}
            )
            continue
        system = _blocks_from_pieces(rep, pieces, target, field, p, precision)
        if system is not None:
            return Verdict(
                "imprimitive",
                {"blocks": system, "maximal_order": M.order},
                "block-system-scan",
            )
        certificate.append(
            {
                "maximal_order": M.order,
                "reason": "no translate decomposition",
                "constituent_dims": sorted(len(q) for q in pieces),
            }
        )
    if incomplete:
        return Verdict(
            UNKNOWN, {"per_maximal": certificate}, "block-system-scan"
        )
    return Verdict("primitive", {"per_maximal": certificate}, "block-system-scan")


def _blocks_from_pieces(rep, pieces, target, field, p=None, precision=None):
    from itertools import combinations

    dims = [len(q) for q in pieces]
    idxs = range(len(pieces))
    for r in range(1, len(pieces)):
        for combo in combinations(idxs, r):
            if sum(dims[i] for i in combo) != target:
                continue
            rows = [v for i in combo for v in pieces[i]]
            u = rm.row_space_canonical(rows)
            system = _translate_orbit(rep, u)
            if system is not None:
                return system
    return None


def _translate_orbit(rep, u_rows):
    """Orbit of a subspace under the group; a system iff the sum is direct."""
    d = rep.dimension
    seen = {u_rows: None}
    frontier = [u_rows]
    while frontier:
        cur = frontier.pop()
        for g in rep.gen_images:
            img = [
                tuple(sum(v[k] * g[k][j] for k in range(d)) for j in range(d))
                for v in cur
            ]
            canon = rm.row_space_canonical(img)
            if canon not in seen:
                if len(seen) > d:
                    return None
                seen[canon] = None
                frontier.append(canon)
    blocks = sorted(seen)
    total_rows = [v for b in blocks for v in b]
    if sum(len(b) for b in blocks) != d or rm.rank(total_rows) != d:
        return None
    # verify each generator permutes the set
    for g in rep.gen_images:
        for b in blocks:
            img = [
                tuple(sum(v[k] * g[k][j] for k in range(d)) for j in range(d))
                for v in b
            ]
            if rm.row_space_canonical(img) not in seen:
                return None
    return blocks
