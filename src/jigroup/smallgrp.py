"""Exhaustive machinery for small groups: lattices, maximals, Frattini.

All operations here enumerate elements, so they are gated at 2**12 by
default (the worked fixtures are far below that).  Subgroups are
element index sets over a cached multiplication table; the lattice is the
closure of the cyclic subgroups under pairwise join, which reaches every
subgroup of a finite group.
"""

from __future__ import annotations

from math import gcd

from .perm import (
    LATTICE_GATE,
    OrderGateExceeded,
    PermGroup,
    SubgroupHandle,
    identity_perm,
    mul,
    perm_order,
)


class SmallGroupTable:
    """Element list + multiplication table for an order-gated PermGroup."""

    def __init__(self, group, gate=LATTICE_GATE):
        if group.order > gate:
            raise OrderGateExceeded("small-group table", group.order, gate)
        self.group = group
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
        self.order_of = [perm_order(e) for e in self.elements]
        self._all_subgroups = None
        self._maximal = None

    def mult(self, i, j):
        return self.table[i][j]

    def conj(self, i, g):
        return self.table[self.table[self.inverse[g]][i]][g]

    def closure(self, gens):
        """Subgroup generated by element indices, as a frozenset of indices."""
        els = {self.ident}
        frontier = [self.ident]
        gens = tuple(set(gens))
        while frontier:
            nxt = []
            for a in frontier:
                row = self.table[a]
                for g in gens:
                    c = row[g]
                    if c not in els:
                        els.add(c)
                        nxt.append(c)
            frontier = nxt
        return frozenset(els)

    # -- subgroup lattice ----------------------------------------------------

    def cyclic_subgroups(self):
        out = {}
        for i in range(self.n):
            els = [self.ident]
            j = i
            while j != self.ident:
                els.append(j)
                j = self.table[j][i]
            key = frozenset(els)
            out.setdefault(key, i)
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
                t = self.closure(gens + (cgen,))
                if t not in subs:
                    tg = gens + (cgen,)
                    subs[t] = tg
                    worklist.append((t, tg))
        self._all_subgroups = sorted(
            subs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
        )
        return self._all_subgroups

    def maximal_subgroups(self):
        """All maximal subgroups as element frozensets."""
        if self._maximal is not None:
            return self._maximal
        subs = [s for s, _ in self.all_subgroups() if len(s) < self.n]
        subs.sort(key=len, reverse=True)
        maximal = []
        for s in subs:
            if not any(s < m for m in maximal):
                maximal.append(s)
        self._maximal = maximal
        return maximal

    def conjugacy_classes_of_subgroups(self, subgroups):
        """Group the given element-sets into conjugacy classes."""
        remaining = set(subgroups)
        classes = []
        while remaining:
            s = min(remaining, key=lambda x: (len(x), sorted(x)))
            orbit = {s}
            frontier = [s]
            while frontier:
                cur = frontier.pop()
                for g in range(self.n):
                    img = frozenset(self.conj(i, g) for i in cur)
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            classes.append(sorted(orbit, key=lambda x: sorted(x)))
            remaining -= orbit
        classes.sort(key=lambda c: (len(c[0]), len(c), sorted(c[0])))
        return classes

    def conjugacy_classes(self):
        """Conjugacy classes of elements; identity class first."""
        seen = [False] * self.n
        classes = []
        for i in range(self.n):
            if seen[i]:
                continue
            orbit = {i}
            frontier = [i]
            seen[i] = True
            while frontier:
                x = frontier.pop()
                for g in range(self.n):
                    y = self.conj(x, g)
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        frontier.append(y)
            classes.append(sorted(orbit))
        classes.sort(key=lambda c: (c[0] != self.ident, self.order_of[c[0]], c[0]))
        return classes

    def is_subgroup_normal(self, s):
        return all(
            frozenset(self.conj(i, g) for i in s) == s for g in range(self.n)
        )

    def normal_subgroups(self):
        return [s for s, _ in self.all_subgroups() if self.is_subgroup_normal(s)]

    def center(self):
        return frozenset(
            i
            for i in range(self.n)
            if all(self.table[i][j] == self.table[j][i] for j in range(self.n))
        )

    def derived_subgroup(self):
        comms = set()
        for i in range(self.n):
            for j in range(self.n):
                c = self.table[
                    self.table[self.inverse[i]][self.inverse[j]]
                ][self.table[i][j]]
                comms.add(c)
        return self.closure(comms)

    def handle(self, els):
        """Wrap an element index set as a SubgroupHandle of the parent."""
        gens = [self.elements[i] for i in sorted(els) if i != self.ident]
        return SubgroupHandle(self.group, gens, check=False)

    def exponent(self):
        e = 1
        for o in self.order_of:
            e = e // gcd(e, o) * o
        return e


_TABLE_CACHE = {}


def small_table(group, gate=LATTICE_GATE):
    key = (id(group), gate)
    tbl = _TABLE_CACHE.get(key)
    if tbl is None:
        tbl = SmallGroupTable(group, gate)
        _TABLE_CACHE[key] = tbl
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
    want = frozenset(tbl.index[e] for e in handle.group.elements(gate))
    return [tbl.handle(s) for s in tbl.maximal_subgroups() if want <= s]


def all_block_systems(group, gate=LATTICE_GATE):
    """Every invariant partition with >= 2 cells of a transitive group.

    Blocks are orbits of subgroups between a point stabilizer and the group,
    so this is exact and exhaustive.  Includes the singleton partition.
    """
    if not group.is_transitive():
        raise ValueError("block systems require a transitive group")
    tbl = small_table(group, gate)
    stab0 = frozenset(
        i for i, e in enumerate(tbl.elements) if e[0] == 0
    )
    systems = set()
    for s, _ in tbl.all_subgroups():
        if not stab0 <= s:
            continue
        block = frozenset(tbl.elements[i][0] for i in s)
        if len(block) == group.degree:
            continue
        blocks = {block}
        frontier = [block]
        while frontier:
            cur = frontier.pop()
            for g in group.generators:
                img = frozenset(g[p] for p in cur)
                if img not in blocks:
                    blocks.add(img)
                    frontier.append(img)
        system = tuple(sorted(tuple(sorted(b)) for b in blocks))
        systems.add(system)
    out = sorted(systems, key=lambda sys_: (len(sys_[0]), sys_))
    for system in out:
        assert group.invariant_partition(system)
        sizes = {len(b) for b in system}
        assert len(sizes) == 1
    return out


def recognize_special(group, gate=LATTICE_GATE):
    """Structural tags: cyclic, elementary_abelian, p_group(p),
    generalized_quaternion(2^n), extraspecial, or none.

    Generalized quaternion means: a noncyclic 2-group with a unique
    involution and a cyclic subgroup of index 2.
    """
    tbl = small_table(group, gate)
    n = tbl.n
    tags = set()
    if n == 1:
        return {"none"}
    orders = tbl.order_of
    abelian = all(
        tbl.table[i][j] == tbl.table[j][i] for i in range(n) for j in range(i)
    )
    cyclic = max(orders) == n
    if cyclic:
        tags.add("cyclic")
    # prime power?
    p = None
    m = n
    for q in range(2, n + 1):
        if m % q == 0:
            p = q
            while m % q == 0:
                m //= q
            break
    if p is not None and m == 1:
        tags.add(("p_group", p))
        if abelian and all(o in (1, p) for o in orders):
            tags.add("elementary_abelian")
        if p == 2 and not cyclic and n >= 8:
            involutions = [i for i in range(n) if orders[i] == 2]
            has_cyclic_index2 = any(o == n // 2 for o in orders)
            if len(involutions) == 1 and has_cyclic_index2:
                tags.add(("generalized_quaternion", n))
        center = tbl.center()
        if len(center) == p and tbl.derived_subgroup() == center:
            # G/Z elementary abelian <=> every p-th power is central
            # (G/Z abelian already follows from [G,G] = Z)
            if all(_power(tbl, i, p) in center for i in range(n)):
                tags.add("extraspecial")
    if not tags:
        tags.add("none")
    return tags


def _power(tbl, i, k):
    out = tbl.ident
    for _ in range(k):
        out = tbl.table[out][i]
    return out
