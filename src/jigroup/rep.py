"""Matrix representations of finite groups, exact over Q and approx over Z_p.

Every rep gets its element map one way: close_over_group closes the
generator images over the whole group (order-gated) and checks each
relation on the way.  rep_from_data, invariant subspaces and the approx
builder of padic all go through it; a restriction to a subgroup reads the
map of its parent.  Irreducibility over Q is decided through the
commutant, analysed once per (rep, seed): reducible iff a nontrivial
idempotent (or other zero divisor) turns up; scalar, field, and quaternion
commutants carry exact division certificates, and a quaternion algebra
over a real quadratic center is division when it ramifies at a real place.
One step, `quaternion_pair`, builds the quaternion generators i, j (or a
zero divisor) over the center Q and over a quadratic center alike.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat as rm
from . import zpoly
from .hilbert import quaternion_is_division
from .perm import LATTICE_GATE, OrderGateExceeded, _walk, identity_perm, inv, mul
from .smallgrp import maximal_subgroups
from .verdicts import IRREDUCIBLE, REDUCIBLE, UNKNOWN, CertificateError, Verdict

SAMPLE_BUDGET = 64


class UncertifiedSplit(RuntimeError):
    """decompose_over_Q met a constituent it cannot certify either way."""


class RelationViolation(ValueError):
    def __init__(self, word):
        super().__init__(f"generator images violate the relation at word {word}")
        self.word = word


class MatRep:
    """A homomorphism from a PermGroup into GL_d over Q, or over Z_p for
    approx (PadicMatrix) images; `ring` is "Q" or ("Zp", p).

    The element map comes from close_over_group, or from the parent's map
    for a restriction.  `kernel` is the set of elements that map to the
    identity; the rep is faithful when it holds the identity alone.
    """

    def __init__(self, group, gen_images, element_map, kernel, ring="Q",
                 dimension=None):
        self.group = group
        self.gen_images = gen_images
        if dimension is None:
            dimension = len(gen_images[0])
        self.dimension = dimension
        self.element_map = element_map  # perm tuple -> matrix
        self.kernel = kernel
        self.ring = ring

    @property
    def faithful(self):
        return len(self.kernel) == 1

    def restrict(self, handle):
        """Restriction to a subgroup handle (as a rep of its own PermGroup);
        its kernel is the parent's kernel met with the subgroup.

        Cached on the rep by the handle's generator tuple, so handles with
        equal generators get one restricted rep, and with it one commutant
        analysis and one verdict per key.
        """
        sub = handle.group
        cache = self.__dict__.setdefault("_restrict_cache", {})
        key = tuple(sub.generators)
        if key not in cache:
            gens = sub.generators or (identity_perm(self.group.degree),)
            gen_images = [self.element_map[g] for g in gens]
            sub_map = {e: self.element_map[e] for e in sub.elements()}
            kernel = frozenset(e for e in self.kernel if e in sub_map)
            cache[key] = MatRep(sub, gen_images, sub_map, kernel, self.ring,
                                self.dimension)
        return cache[key]

    def __repr__(self):
        return (
            f"MatRep(dim={self.dimension}, group_order={self.group.order}, "
            f"faithful={self.faithful}, ring={self.ring!r})"
        )


def rep_from_data(group, generator_matrices):
    """Build and verify a MatRep from generator images."""
    mats = [rm.mat(m) for m in generator_matrices]
    if not mats:
        raise ValueError("rep_from_data needs at least one generator matrix")
    d = len(mats[0])
    for m in mats:
        if len(m) != d or any(len(row) != d for row in m):
            raise ValueError("generator matrices must be square, equal size")
        if rm.mat_det(m) == 0:
            raise ValueError("generator image is not invertible")
    return close_over_group(group, mats, rm.identity(d), rm.mat_mul, operator.eq, "Q")


def close_over_group(group, mats, identity, product, equal, ring):
    """The MatRep of the homomorphism given by generator images.

    Walks the whole group (at most LATTICE_GATE elements) in parallel in
    the permutation and matrix worlds; `product` multiplies two images and
    `equal` says whether two images of one element agree.  A disagreement
    raises RelationViolation with the failing generator word.  The kernel
    holds the elements that map to `identity`, which also stands in as the
    one generator image of a group without generators.
    """
    if len(mats) != len(group.generators):
        raise ValueError("need exactly one matrix per group generator")
    if group.order > LATTICE_GATE:
        raise OrderGateExceeded("representation closure", group.order, LATTICE_GATE)
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
    if len(element_map) != group.order:
        raise CertificateError("closure does not reach the group order")
    kernel = frozenset(e for e, m in element_map.items() if equal(m, identity))
    return MatRep(group, mats or [identity], element_map, kernel, ring, len(identity))


def commutant(rep):
    """Basis of {X : X rho(g) = rho(g) X for all g}; contains the identity.

    The basis is verified multiplicatively closed before it is returned.
    Cached on the rep (everything here is immutable).
    """
    cached = getattr(rep, "_commutant_cache", None)
    if cached is not None:
        return cached
    d = rep.dimension
    basis_vecs = rm.nullspace(
        commutation_rows([rm.integer_multiple(g) for g in rep.gen_images]))
    basis = tuple(
        rm.mat([[v[i * d + j] for j in range(d)] for i in range(d)])
        for v in basis_vecs
    )
    _verify_commutant(rep, basis)
    rep._commutant_cache = basis
    return basis


def commutation_rows(mats):
    """Rows of X g - g X = 0 for each g in mats, linear in the d^2 entries of X.

    The matrices have integer entries (integer multiples of rational ones
    have the same commutant), so the rows are integer rows.
    """
    d = len(mats[0])
    rows = []
    for g in mats:
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[i * d + k] += g[k][j]
                    row[k * d + j] -= g[i][k]
                rows.append(tuple(row))
    return rows


def _verify_commutant(rep, basis):
    canon = rm.row_space_canonical([_flat(b) for b in basis])
    if rm.row_space_canonical(list(canon) + [_flat(rm.identity(rep.dimension))]) != canon:
        raise CertificateError("commutant missing the identity")
    # products of integer multiples span the same space as the products
    ints = [rm.integer_multiple(b) for b in basis]
    products = [_flat(rm.mat_mul(a, b)) for a in ints for b in ints]
    if rm.row_space_canonical(list(canon) + products) != canon:
        raise CertificateError("commutant not closed under product")


@dataclass
class AlgebraStructure:
    kind: str  # scalars | field | quaternion_over_Q | cyclic_algebra | split[_nilpotent] | unknown
    basis: tuple
    data: dict

    def to_report(self):
        out = {"kind": self.kind, "dimension": len(self.basis)}
        for k, v in self.data.items():
            if k in ("minpoly", "a", "b", "center_minpoly", "trials"):
                out[k] = v
        return out


def _flat(m):
    """The entries of a matrix as one row, row by row."""
    return tuple(x for row in m for x in row)


def _sample_element(combine, dim, rng, spread=5):
    """A random combination of the dim matrices of a basis, through its rm.combiner."""
    return combine([rng.randint(-spread, spread) for _ in range(dim)])


def _idempotent_from_minpoly(a, facs):
    """CRT idempotent from a coprime factorization of the minimal polynomial.

    facs: list of (factor, mult).  Returns e = h(a) with e^2 = e, which is 0
    on the first primary component and 1 on the others, so it projects onto
    the sum of the others along the first; None if only one distinct factor.
    """
    if len(facs) < 2:
        return None
    f1 = [1]
    for _ in range(facs[0][1]):
        f1 = zpoly.mul(f1, facs[0][0])
    rest = [1]
    for fac, mult in facs[1:]:
        for _ in range(mult):
            rest = zpoly.mul(rest, fac)
    u, _ = zpoly.bezout(f1, rest)
    # e = u*f1 evaluated at a satisfies e = 0 mod f1-part, 1 mod rest-part
    e = rm.poly_eval_mat(zpoly.mul(u, f1), a)
    if rm.mat_mul(e, e) != e:
        raise CertificateError("CRT idempotent check failed")
    return e


def algebra_structure(comm_basis, seed=0):
    """Classify a multiplicatively closed matrix algebra (a commutant).

    Deterministic: the sampler runs on a fixed seed.  Kinds:
      scalars, field(minpoly), split(idempotent), split_nilpotent(nilpotent),
      quaternion_over_Q(a, b), cyclic_algebra(center_minpoly, a, b) for a
      quaternion algebra over a quadratic center (a, b as pairs over the
      center generator), unknown(trials) otherwise.

    The dim basis elements are tried first.  When dim is 4 or 8 and they
    show no nilpotent, the quaternion structure is built; if it is certified
    a division algebra (Hilbert symbol over Q, a ramified real place over a
    quadratic center) it is returned at once, since in a division algebra
    every minimal polynomial is irreducible of degree below dim and no
    random trial could split it.  Otherwise the random trials run and the
    same structure is the fallback.
    """
    dim = len(comm_basis)
    d = len(comm_basis[0])
    if dim == 1:
        return AlgebraStructure("scalars", comm_basis, {})
    combine = rm.combiner(comm_basis)
    rng = random.Random(seed)
    nilpotent_witness = None
    quaternion = None
    for trial in range(SAMPLE_BUDGET):
        if trial == dim and dim in (4, 8) and nilpotent_witness is None:
            try:
                quaternion = _quaternion_structure(comm_basis, combine, seed)
            except CertificateError:
                pass  # the fallback below builds it again and raises
            if quaternion is not None and _certified_division(quaternion):
                return quaternion
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
    quaternion = quaternion or _quaternion_structure(comm_basis, combine, seed)
    return quaternion or AlgebraStructure("unknown", comm_basis, {"trials": SAMPLE_BUDGET})


def _quaternion_structure(comm_basis, combine, seed):
    """The quaternion structure of a 4-dim algebra with center Q (pair from
    a seed+1 sampler) or of an 8-dim one over a quadratic field (pair from
    the first basis element outside the center); None for other algebras or
    when the sampler finds no pair."""
    dim = len(comm_basis)
    d = len(comm_basis[0])
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
    return None


def _certified_division(st):
    """Whether a quaternion structure carries an exact division certificate."""
    if st.kind == "quaternion_over_Q":
        return quaternion_is_division(st.data["a"], st.data["b"], "Q")
    if st.kind == "cyclic_algebra":
        return _ramified_at_a_real_place(st.data["center_minpoly"], st.data["a"],
                                         st.data["b"])
    return False


def algebra_center(basis):
    """Canonical basis of the center of a matrix algebra given by a basis.

    Solved in the algebra's coordinates: with B_k the integer multiples of
    the basis elements, the center is spanned by the sums of c_k B_k for the
    c with sum_k c_k [B_k, B_j] = 0 for every j, a system dim columns wide.
    The basis is the RREF of the flattened center, so it depends on the
    algebra alone.
    """
    d = len(basis[0])
    ints = [rm.integer_multiple(b) for b in basis]
    prods = [[_flat(rm._int_mul(a, b)) for b in ints] for a in ints]
    # row (j, entry): that entry of [B_k, B_j] in column k
    rows = [tuple(pk[j][e] - prods[j][k][e] for k, pk in enumerate(prods))
            for j in range(len(ints)) for e in range(d * d)]
    flats = [(_flat(b),) for b in ints]
    center = rm.row_space_canonical(
        [rm.mat_combination(c, flats)[0] for c in rm.nullspace(rows)])
    return tuple(tuple(v[i * d:(i + 1) * d] for i in range(d)) for v in center)


def _noncentral_scalar_part(center_basis, d):
    """A center generator with zero trace (so its minpoly is clean)."""
    for c in center_basis:
        tr = rm.mat_trace(c)
        cand = rm.mat_combination((1, -tr / d), (c, rm.identity(d)))
        if any(any(x != 0 for x in row) for row in cand):
            return cand
    raise CertificateError("center is scalar only")


def anticommuting(i_m, basis):
    """Nonzero j = sum c_b b with i j + j i = 0, one per vector of the
    nullspace of y -> iy + yi on the span of basis, in nullspace order."""
    rows = [_flat(rm.mat_combination((1, 1), (rm.mat_mul(i_m, bb), rm.mat_mul(bb, i_m))))
            for bb in basis]
    for v in rm.nullspace(rm.mat_transpose(rows)):
        j_m = rm.mat_combination(v, basis)
        if any(_flat(j_m)):
            yield j_m


def quaternion_pair(basis, center, x):
    """Standard generators i, j of a quaternion algebra over its center F.

    basis spans the algebra, center is (I,) for F = Q or (I, W) for F = Q(W),
    and x lies outside F.  i = x - t/2 with x^2 = t x + n over F; j is the
    first anticommuting element with j^2 in F for which the products
    c {1, i, j, ij} (c in center) span the algebra.  Returns (a, b, i, j)
    with i^2 = a and j^2 = b as coordinate tuples over center; (z,) for a
    zero divisor z met on the way (i^2 = 0 or j^2 = 0); None when x is in F
    or not quadratic over it, or no j fits.
    """
    def coords(m, over):
        x = rm.coords([_flat(c) for c in over], [_flat(m)])
        return None if x is None else x[0]

    over = [rm.mat_mul(c, x) for c in center] + list(center)
    t_n = coords(rm.mat_mul(x, x), over)
    if t_n is None or rm.rank([_flat(m) for m in over]) < len(over):
        return None
    i_m = rm.mat_combination([1] + [-c / 2 for c in t_n[: len(center)]], [x, *center])
    a = coords(rm.mat_mul(i_m, i_m), center)
    if a is None:
        return None
    if not any(a):
        return (i_m,)
    for j_m in anticommuting(i_m, basis):
        b = coords(rm.mat_mul(j_m, j_m), center)
        if b is None:
            continue
        if not any(b):
            return (j_m,)
        span = [_flat(rm.mat_mul(c, m))
                for m in (rm.identity(len(x)), i_m, j_m, rm.mat_mul(i_m, j_m)) for c in center]
        if rm.rank(span) == 4 * len(center):
            return a, b, i_m, j_m
    return None


def _structure_from_pair(basis, pair, **center):
    """The AlgebraStructure of a quaternion_pair result: split_nilpotent for
    a zero divisor, quaternion_over_Q (rational a, b) over the center Q, and
    cyclic_algebra (center data first) over a quadratic center."""
    if len(pair) == 1:
        return AlgebraStructure("split_nilpotent", basis, {"nilpotent": pair[0]})
    a, b, i_m, j_m = pair
    if len(a) == 1:
        return AlgebraStructure("quaternion_over_Q", basis,
                                {"a": a[0], "b": b[0], "i": i_m, "j": j_m})
    return AlgebraStructure("cyclic_algebra", basis,
                            {**center, "a": a, "b": b, "i": i_m, "j": j_m})


def invariant_subspace_from_zero_divisor(rep, z):
    """Row space of a commutant zero divisor: invariant under v -> v rho(g).

    (Row vectors acted on from the right throughout; rowspace(X).rho(g) =
    rowspace(X rho(g)) = rowspace(rho(g) X) <= rowspace(X).)
    """
    basis = rm.row_space_canonical(z)
    if not 0 < len(basis) < rep.dimension:
        raise CertificateError("zero divisor has full or zero rank")
    _verify_invariant(rep, basis)
    return basis


def _verify_invariant(rep, basis_rows):
    canon = rm.row_space_canonical(basis_rows)
    images = [v for g in rep.gen_images for v in rm.mat_mul(basis_rows, g)]
    if rm.row_space_canonical(list(canon) + images) != canon:
        raise CertificateError("subspace is not invariant")


def commutant_analysis(rep, seed=0):
    """(algebra structure of the commutant, verdict over Q), once per (rep, seed).

    Both the Q decider and the Q_p decider read this one analysis; it is
    cached on the rep (everything here is immutable).
    """
    cache = rep.__dict__.setdefault("_analysis_cache", {})
    if seed not in cache:
        st = algebra_structure(commutant(rep), seed)
        cache[seed] = (st, _verdict_over_Q(rep, st))
    return cache[seed]


def irreducible_over_Q(rep, seed=0):
    """Verdict: reducible (invariant subspace), irreducible (division
    certificate), or unknown.

    Exact throughout: scalar, field, and quaternion commutants over Q carry
    division certificates; a quaternion commutant over a quadratic center is
    irreducible when both its parameters are negative at a real place of the
    center, reducible when a zero divisor turns up, and unknown otherwise.
    """
    return commutant_analysis(rep, seed)[1]


def _verdict_over_Q(rep, st):
    if st.kind in ("scalars", "field"):
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
    if _certified_division(st):
        return Verdict(
            IRREDUCIBLE,
            {"certificate": st, "division": True},
            "quaternion-hilbert" if st.kind == "quaternion_over_Q" else "quaternion-real-place",
        )
    if st.kind == "quaternion_over_Q":
        zd = _quaternion_zero_divisor(st)
        if zd is not None:
            w = invariant_subspace_from_zero_divisor(rep, zd)
            return Verdict(REDUCIBLE, {"subspace": w}, "quaternion-split")
        return Verdict(UNKNOWN, {"certificate": st}, "quaternion-split-unwitnessed")
    if st.kind == "cyclic_algebra":
        return Verdict(UNKNOWN, {"certificate": st}, "quaternion-over-center-undecided")
    return Verdict(UNKNOWN, {"certificate": st}, "sampled-inconclusive")


def _ramified_at_a_real_place(center_minpoly, a_pair, b_pair):
    """Whether a = a0 + a1 w and b = b0 + b1 w are both negative at one real
    embedding of Q(w), w^2 + c1 w + c0 = 0; then (a, b) is a division algebra
    (Reiner, Maximal Orders, 1975, section 32).  Exact: at w = -c1/2 +- sqrt(D)/2
    the value u + v sqrt(D) is compared through u^2 and v^2 D.
    """
    c0, c1 = Fraction(center_minpoly[0]), Fraction(center_minpoly[1])
    disc = c1 * c1 - 4 * c0
    if disc <= 0:
        return False

    def sign(pair, root_sign):
        x0, x1 = map(Fraction, pair)
        u, v = x0 - x1 * c1 / 2, root_sign * x1 / 2
        if u * v >= 0:
            return (u > 0) - (u < 0) or (v > 0) - (v < 0)
        # opposite signs; disc is not a square, so u^2 != v^2 disc
        return (u > 0) - (u < 0) if u * u > v * v * disc else (v > 0) - (v < 0)

    return any(sign(a_pair, s) < 0 and sign(b_pair, s) < 0 for s in (1, -1))


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
                    q = rm.mat_combination((z, -x, -y), (rm.identity(d), i_m, j_m))
                    if any(any(c != 0 for c in row) for row in q):
                        return q
    return None


# -- matrix imprimitivity ------------------------------------------------------


def decompose_over_Q(rep, seed=0):
    """Split a rational rep into irreducible invariant subspaces (row bases).

    Returns a list of canonical row bases whose direct sum is the space.
    """
    d = rep.dimension
    verdict = irreducible_over_Q(rep, seed)
    if verdict.status == IRREDUCIBLE:
        return [rm.row_space_canonical(rm.identity(d))]
    if verdict.status == UNKNOWN:
        raise UncertifiedSplit("cannot certify constituent decomposition")
    w = verdict.witness["subspace"]
    comp = _invariant_complement(rep, w)
    out = []
    for sub in (w, comp):
        sub_rep, lift = _subspace_restriction(rep, sub)
        pieces = decompose_over_Q(sub_rep, seed)
        out.extend(rm.row_space_canonical(rm.mat_mul(piece, lift)) for piece in pieces)
    if sum(len(q) for q in out) != d:
        raise CertificateError("constituents do not fill the space")
    return out


def _invariant_complement(rep, w_rows):
    """G-invariant complement of an invariant subspace (Maschke averaging)."""
    d = rep.dimension
    # projection onto W along any complement, then average over the group
    canon = rm.row_space_canonical(w_rows)
    proj0 = _pivot_projector(canon)
    emap = rep.element_map
    conjugates = [rm.mat_mul(rm.mat_mul(g, proj0), emap[inv(perm)])
                  for perm, g in emap.items()]
    proj = rm.mat_combination([Fraction(1, rep.group.order)] * len(conjugates),
                              conjugates)
    if rm.mat_mul(proj, proj) != proj:
        raise CertificateError("averaged projector is not idempotent")
    # complement = kernel of the averaged projection (row vectors v with v P = 0)
    comp = rm.nullspace(rm.mat_transpose(proj))
    comp = rm.row_space_canonical(comp)
    if len(comp) + len(canon) != d:
        raise CertificateError("complement has the wrong dimension")
    return comp


def _pivot_projector(canon):
    """The projection onto the span of RREF rows along the unit vectors off
    their pivots: e_(pivot i) goes to row i, every other e_j to 0."""
    proj = list(rm.zeros(len(canon[0]), len(canon[0])))
    for row in canon:
        proj[next(j for j, x in enumerate(row) if x)] = row
    return tuple(proj)


def _subspace_restriction(rep, rows):
    """The action of the group on an invariant subspace, in its own basis.

    Only the generator images are solved for; close_over_group checks them
    against every relation.  Returns (restricted MatRep, canonical lift basis).
    """
    rows = rm.row_space_canonical(rows)

    def restricted(g):
        coords = rm.coords(rows, rm.mat_mul(rows, g))
        if coords is None:
            raise CertificateError("subspace not invariant in restriction")
        return coords

    images = [restricted(rep.element_map[g]) for g in rep.group.generators]
    return close_over_group(rep.group, images, rm.identity(len(rows)), rm.mat_mul,
                            operator.eq, rep.ring), rows


def matrix_block_system(rep, seed=0, p=None, precision=None):
    """Decomposition into subspaces permuted by the group, or a primitivity
    certificate, over Q, or over Q_p when the prime p is given.

    Requires an irreducible rep (reducible input raises).  For each maximal
    subgroup class M of index m dividing the dimension, the restriction to M
    is split into constituents; sums of constituents of dimension dim/m are
    tested as block candidates by translating them around the group.
    """
    from .padic import ApproxSplitNeeded, decompose_over_Qp, irreducible_over_Qp

    if p is None:
        verdict = irreducible_over_Q(rep, seed)
    else:
        verdict = irreducible_over_Qp(rep, p, precision, seed)
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
        try:
            if p is None:
                pieces = decompose_over_Q(res, seed)
            else:
                pieces = decompose_over_Qp(res, p, precision, seed)
        except UncertifiedSplit:
            certificate.append(
                {"maximal_order": M.order, "reason": "restriction split unknown"}
            )
            incomplete = True
            continue
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
        system = _blocks_from_pieces(rep, pieces, target)
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


def _blocks_from_pieces(rep, pieces, target):
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

    def image(rows, g):
        return rm.row_space_canonical(rm.mat_mul(rows, g))

    blocks = []
    for space in _walk(u_rows, rep.gen_images, image):
        if len(blocks) > d:
            return None
        blocks.append(space)
    blocks.sort()
    total_rows = [v for b in blocks for v in b]
    if sum(len(b) for b in blocks) != d or rm.rank(total_rows) != d:
        return None
    # verify each generator permutes the set
    seen = set(blocks)
    if any(image(b, g) not in seen for g in rep.gen_images for b in blocks):
        return None
    return blocks
