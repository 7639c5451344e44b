"""Exhaustive machinery for small groups: lattices, maximals, Frattini.

All operations here enumerate elements, so they are gated at 2**12 by
default (the worked fixtures are far below that).  They read a
multiplication table over the element list, built once per group and kept
here; subgroups are element index sets.  The maximal subgroups of a p-group
come from its Frattini quotient and the normal subgroups from the normal
closures of the classes.  The lattice, the closure of the cyclic subgroups
under pairwise join, serves `all_subgroups` and the maximal subgroups of
other groups.  `recognize_special` reads permutations instead: element
orders, the centre and the normal closure of the generator commutators.
"""

from __future__ import annotations

import operator
import weakref
from functools import reduce
from itertools import product

from .perm import (
    LATTICE_GATE,
    OrderGateExceeded,
    SubgroupHandle,
    _orbits_of,
    _walk,
    center,
    derived_subgroup,
    identity_perm,
    mul,
    perm_order,
)
from .verdicts import CertificateError
from .zpoly import primefactors

# The table of each group, for as long as the group lives.
_TABLES = weakref.WeakKeyDictionary()


class SmallGroupTable:
    """Element list + multiplication table for an order-gated PermGroup."""

    def __init__(self, group, gate=LATTICE_GATE):
        if group.order > gate:
            raise OrderGateExceeded("small-group table", group.order, gate)
        # _TABLES keeps the table, so a strong reference would keep the group
        self._group = weakref.ref(group)
        self.elements = group.elements(gate=gate)
        self.n = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.ident = self.index[identity_perm(group.degree)]
        self.table = [
            tuple(self.index[mul(a, b)] for b in self.elements) for a in self.elements
        ]
        self.inverse = [0] * self.n
        for i, row in enumerate(self.table):
            self.inverse[i] = row.index(self.ident)
        self.gens = tuple(self.index[g] for g in group.generators)
        self._all_subgroups = None
        self._maximal = None

    def conj(self, i, g):
        return self.table[self.table[self.inverse[g]][i]][g]

    def closure(self, gens):
        """Subgroup generated by element indices, as a frozenset of indices."""
        table = self.table
        return frozenset(_walk(self.ident, tuple(gens), lambda a, g: table[a][g]))

    def join(self, s, gens, c):
        """<s, c> for the subgroup s that gens generate, as a frozenset.

        The walk starts from the elements of s: s is closed under gens, so
        its elements need only c, and each element the walk adds needs
        every generator.
        """
        table = self.table
        out = set(s)
        todo = []
        for x in s:
            y = table[x][c]
            if y not in out:
                out.add(y)
                todo.append(y)
        gens = gens + (c,)
        for x in todo:  # todo grows while it is read
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in out:
                    out.add(y)
                    todo.append(y)
        return frozenset(out)

    def _conj_set(self, s, g):
        return frozenset(self.conj(i, g) for i in s)

    # -- subgroup lattice ----------------------------------------------------

    def cyclic_subgroups(self):
        out = {}
        for i in range(self.n):
            out.setdefault(self.closure((i,)), i)
        return out  # {subgroup: a generator index}

    def all_subgroups(self):
        """Every subgroup, as a sorted list of (element frozenset, gens tuple)."""
        if self._all_subgroups is not None:
            return self._all_subgroups
        cyc = self.cyclic_subgroups()
        subs = {frozenset([self.ident]): ()}
        for s, g in cyc.items():
            subs.setdefault(s, (g,))
        worklist = list(subs.items())
        while worklist:
            s, gens = worklist.pop()
            for c, cgen in cyc.items():
                if c <= s:
                    continue
                t = self.join(s, gens, cgen)
                if t not in subs:
                    tg = gens + (cgen,)
                    subs[t] = tg
                    worklist.append((t, tg))
        self._all_subgroups = sorted(
            subs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
        )
        return self._all_subgroups

    def maximal_subgroups(self):
        """All maximal subgroups as element frozensets, in lattice order:
        from Phi for a p-group, from the lattice otherwise."""
        if self._maximal is None:
            primes = primefactors(self.n)
            self._maximal = (self._frattini_maximal(primes[0]) if len(primes) == 1
                             else self._lattice_maximal())
        return self._maximal

    def _lattice_maximal(self):
        subs = [s for s, _ in self.all_subgroups() if len(s) < self.n]
        subs.sort(key=len, reverse=True)
        maximal = []
        for s in subs:
            if not any(s < m for m in maximal):
                maximal.append(s)
        return maximal

    def _frattini_maximal(self, p):
        """The maximal subgroups of a p-group: the preimages of the
        hyperplanes of P/Phi = F_p^r, Phi = P'P^p (Burnside's basis theorem;
        Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).

        The elements get coordinates on P/Phi from the generators that
        leave the span of those before them.
        """
        group = self._group()
        powers = [reduce(mul, (g,) * p) for g in group.generators]
        phi = self.closure(self.index[g] for g in (*derived_subgroup(group).generators, *powers))
        if not self.is_subgroup_normal(phi):
            raise CertificateError("P'P^p is not normal")
        coords, r = dict.fromkeys(phi, ()), 0
        for g in self.gens:
            if g in coords:
                continue
            layer, x = list(coords.items()), g
            for k in range(1, p):
                for y, v in layer:
                    coords[self.table[y][x]] = v + (0,) * (r - len(v)) + (k,)
                x = self.table[x][g]
            r += 1
        if len(coords) != self.n or p**r * len(phi) != self.n or r == 0:
            raise CertificateError("|P/Phi| is not p^r for some r > 0")
        # the kernels of the nonzero functionals; multiples share a kernel
        maximal = {frozenset(x for x, v in coords.items()
                             if sum(map(operator.mul, f, v)) % p == 0)
                   for f in product(range(p), repeat=r) if any(f)}
        if len(maximal) != (p**r - 1) // (p - 1):
            raise CertificateError(f"{len(maximal)} maximal subgroups, not (p^r - 1)/(p - 1)")
        if any(len(m) * p != self.n or not phi <= m for m in maximal):
            raise CertificateError("a maximal subgroup misses Phi or has index other than p")
        return sorted(maximal, key=sorted)

    def conjugacy_classes_of_subgroups(self, subgroups):
        """Group the given element-sets into conjugacy classes."""
        classes = [
            sorted(orbit, key=sorted)
            for orbit in _orbits_of(subgroups, self.gens, self._conj_set)
        ]
        classes.sort(key=lambda c: (len(c[0]), len(c), sorted(c[0])))
        return classes

    def is_subgroup_normal(self, s):
        return all(self._conj_set(s, g) == s for g in self.gens)

    def normal_subgroups(self):
        """Every normal subgroup, in lattice order: the products of the normal
        closures of the conjugacy classes (Hulpke, "Computing normal
        subgroups", ISSAC 1998)."""
        closures = {self.closure(c) for c in _orbits_of(range(self.n), self.gens, self.conj)}
        normals = sorted(_walk(frozenset([self.ident]), closures, self._product),
                         key=lambda s: (len(s), sorted(s)))
        if not all(map(self.is_subgroup_normal, normals)):
            raise CertificateError("a product of class closures is not normal")
        return normals

    def _product(self, s, c):
        """SC for a normal subgroup S: the union of the cosets Sb, b in C."""
        t = set(s)
        for b in c:
            if b not in t:
                t.update(self.table[a][b] for a in s)
        return frozenset(t)

    def handle(self, els):
        """Wrap a subgroup, as an element index set, as a SubgroupHandle of the parent.

        The generators are the elements of els, in index order, that lie
        outside the subgroup the earlier generators generate.
        """
        gens, sub = (), frozenset([self.ident])
        for i in sorted(els):
            if i not in sub:
                sub = self.join(sub, gens, i)
                gens += (i,)
        if sub != els:
            raise CertificateError("handle elements are not a subgroup")
        return SubgroupHandle(self._group(), [self.elements[i] for i in gens], check=False)


def small_table(group, gate=LATTICE_GATE):
    """The table of group, built once and kept while the group lives."""
    if group.order > gate:
        raise OrderGateExceeded("small-group table", group.order, gate)
    tbl = _TABLES.get(group)
    if tbl is None:
        tbl = _TABLES[group] = SmallGroupTable(group, gate)
    return tbl


def maximal_subgroups(group, gate=LATTICE_GATE):
    """Conjugacy-class representatives of maximal subgroups.

    Returns a list of SubgroupHandle, one per class, sorted by order then by
    class size.  Gated at 2**12 by default.
    """
    tbl = small_table(group, gate)
    if tbl.n == 1:
        return []
    maxim = tbl.maximal_subgroups()
    classes = tbl.conjugacy_classes_of_subgroups(maxim)
    return [tbl.handle(cls[0]) for cls in classes]


def all_subgroups(group, gate=LATTICE_GATE):
    tbl = small_table(group, gate)
    return [tbl.handle(s) for s, _ in tbl.all_subgroups()]


def normal_subgroups(group, gate=LATTICE_GATE):
    tbl = small_table(group, gate)
    return [tbl.handle(s) for s in tbl.normal_subgroups()]


def frattini(group, gate=LATTICE_GATE):
    """Intersection of all maximal subgroups, as a SubgroupHandle."""
    tbl = small_table(group, gate)
    if tbl.n == 1:
        return tbl.handle(frozenset([tbl.ident]))
    maxim = tbl.maximal_subgroups()
    inter = frozenset(range(tbl.n))
    for m in maxim:
        inter &= m
    return tbl.handle(inter)


def maximal_subgroups_over(group, handle, gate=LATTICE_GATE):
    """Maximal subgroups of `group` containing `handle` (all of them)."""
    tbl = small_table(group, gate)
    want = [tbl.index[g] for g in handle.generators]
    return [tbl.handle(s) for s in tbl.maximal_subgroups() if all(i in s for i in want)]


def recognize_special(group, gate=LATTICE_GATE):
    """Structural tags: cyclic, elementary_abelian, p_group(p),
    generalized_quaternion(2^n), extraspecial, or none.

    Generalized quaternion means: a noncyclic 2-group with a unique
    involution and a cyclic subgroup of index 2.
    """
    elements = group.elements(gate)
    n = len(elements)
    tags = set()
    if n == 1:
        return {"none"}
    orders = [perm_order(e) for e in elements]
    centre = center(group, gate)
    abelian = len(centre) == n
    cyclic = max(orders) == n
    if cyclic:
        tags.add("cyclic")
    primes = primefactors(n)
    if len(primes) == 1:
        p = primes[0]
        tags.add(("p_group", p))
        if abelian and all(o in (1, p) for o in orders):
            tags.add("elementary_abelian")
        if p == 2 and not cyclic and n >= 8:
            involutions = orders.count(2)
            has_cyclic_index2 = any(o == n // 2 for o in orders)
            if involutions == 1 and has_cyclic_index2:
                tags.add(("generalized_quaternion", n))
        if len(centre) == p:
            derived = derived_subgroup(group)
            # G/Z elementary abelian <=> every p-th power is central
            # (G/Z abelian already follows from [G,G] = Z)
            central = set(centre)
            if (derived.order == p and all(z in derived for z in centre)
                    and all(reduce(mul, (e,) * p) in central for e in elements)):
                tags.add("extraspecial")
    if not tags:
        tags.add("none")
    return tags
