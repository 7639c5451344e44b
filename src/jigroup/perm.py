"""Exact finite permutation groups with stabilizer chains.

Permutations are tuples of images on the points 0..n-1, composed left to
right: (p * q)[i] = q[p[i]].  Groups carry a deterministic Schreier-Sims
stabilizer chain, so orders and membership tests are exact; no
randomization is involved anywhere.
"""

from __future__ import annotations

import sys
from math import gcd

sys.setrecursionlimit(20000)


class DegreeMismatch(ValueError):
    pass


class OrderGateExceeded(RuntimeError):
    """Raised when an exhaustive operation is asked to enumerate too much."""

    def __init__(self, what, order, gate):
        super().__init__(f"{what}: group order {order} exceeds gate {gate}")
        self.order = order
        self.gate = gate


# Exhaustive element enumeration is capped here unless a caller overrides it.
ELEMENT_GATE = 20000
# Subgroup-lattice work is capped at 2**12 by default.
LATTICE_GATE = 4096


def identity_perm(n):
    return tuple(range(n))


def check_perm(p):
    """Raise ValueError unless p is a bijection on 0..len(p)-1."""
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation: {p!r}")


def mul(p, q):
    """Compose left to right: apply p, then q."""
    return tuple(q[i] for i in p)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conj(p, g):
    """Conjugate p by g: g^-1 * p * g."""
    gi = inv(g)
    return tuple(g[p[gi[i]]] for i in range(len(p)))


def perm_power(p, k):
    n = len(p)
    if k < 0:
        return perm_power(inv(p), -k)
    out = identity_perm(n)
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def perm_order(p):
    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order // gcd(order, length) * length
    return order


def perm_from_cycles(n, *cycs):
    p = list(range(n))
    for cyc in cycs:
        for a, b in zip(cyc, cyc[1:]):
            p[a] = b
        if cyc:
            p[cyc[-1]] = cyc[0]
    q = tuple(p)
    check_perm(q)
    return q


def support(p):
    return frozenset(i for i, j in enumerate(p) if i != j)


class _Level:
    __slots__ = ("beta", "transversal", "gens", "processed")

    def __init__(self, beta, n):
        self.beta = beta
        self.transversal = {beta: identity_perm(n)}
        self.gens = []  # strong generators installed at this level
        self.processed = set()  # (orbit point, generator) pairs already sifted


class _Chain:
    """Mutable deterministic Schreier-Sims chain.

    The generating set of the i-th stabilizer is the union of the gens
    installed at levels >= i.  After add_generator returns, every Schreier
    generator of every level sifts to the identity through the levels below
    it, so the orbit sizes multiply to the exact group order.
    """

    def __init__(self, degree):
        self.degree = degree
        self.levels = []
        self._ident = identity_perm(degree)

    def order(self):
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def gens_at(self, idx):
        return [g for lv in self.levels[idx:] for g in lv.gens]

    def strip(self, g, start=0):
        """Sift g through levels >= start; return (residue, stop level)."""
        for idx in range(start, len(self.levels)):
            lv = self.levels[idx]
            img = g[lv.beta]
            if img == lv.beta:
                continue
            t = lv.transversal.get(img)
            if t is None:
                return g, idx
            g = mul(g, inv(t))
        return g, len(self.levels)

    def contains(self, g):
        r, _ = self.strip(g)
        return r == self._ident

    def add_generator(self, g):
        if g == self._ident:
            return
        r, idx = self.strip(g)
        if r == self._ident:
            return
        self._install(idx, r)
        # Downward/upward sweep: process a level completely; a new residue
        # below sends us down, a finished level sends us up.  Every level at
        # or above the installation point gains the new generator through
        # gens_at, so the sweep must reach level 0.
        i = idx
        while i >= 0:
            if i >= len(self.levels):
                i -= 1
                continue
            dropped = self._process_level(i)
            if dropped is None:
                i -= 1
            else:
                i = dropped

    def _install(self, idx, r):
        if idx == len(self.levels):
            beta = next(i for i, j in enumerate(r) if i != j)
            self.levels.append(_Level(beta, self.degree))
        self.levels[idx].gens.append(r)

    def _close_orbit(self, idx, gens):
        lv = self.levels[idx]
        frontier = list(lv.transversal)
        while frontier:
            nxt = []
            for pt in frontier:
                t = lv.transversal[pt]
                for s in gens:
                    img = s[pt]
                    if img not in lv.transversal:
                        lv.transversal[img] = mul(t, s)
                        nxt.append(img)
            frontier = nxt

    def _process_level(self, idx):
        """Sift unprocessed Schreier generators of level idx.

        Returns the level where a nontrivial residue was installed (caller
        jumps there), or None once the level is complete.
        """
        lv = self.levels[idx]
        gens = self.gens_at(idx)
        self._close_orbit(idx, gens)
        for pt in sorted(lv.transversal):
            t = lv.transversal[pt]
            for s in gens:
                key = (pt, s)
                if key in lv.processed:
                    continue
                lv.processed.add(key)
                ts = mul(t, s)
                sg = mul(ts, inv(lv.transversal[ts[lv.beta]]))
                if sg == self._ident:
                    continue
                rr, j = self.strip(sg, idx + 1)
                if rr != self._ident:
                    self._install(j, rr)
                    return j
        return None


class PermGroup:
    """A finite permutation group with exact order and membership.

    Immutable after construction.  `generators` is the user-supplied list;
    the stabilizer chain holds strong generators internally.
    """

    def __init__(self, generators, degree=None, _base_hint=None):
        gens = [tuple(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("need generators or an explicit degree")
            degree = len(gens[0])
        for g in gens:
            check_perm(g)
            if len(g) != degree:
                raise DegreeMismatch(
                    f"generator degree {len(g)} != group degree {degree}"
                )
        ident = identity_perm(degree)
        self.degree = degree
        self.generators = tuple(g for g in gens if g != ident)
        self._chain = _Chain(degree)
        if _base_hint:
            for beta in _base_hint:
                self._chain.levels.append(_Level(beta, degree))
        for g in self.generators:
            self._chain.add_generator(g)
        self._order = self._chain.order()
        self._elements_cache = None

    @property
    def order(self):
        return self._order

    def __contains__(self, p):
        p = tuple(p)
        if len(p) != self.degree:
            return False
        return self._chain.contains(p)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self._order})"

    def identity(self):
        return identity_perm(self.degree)

    def is_trivial(self):
        return self._order == 1

    def elements(self, gate=ELEMENT_GATE):
        """All elements in a deterministic (sorted) order.  Gated."""
        if self._order > gate:
            raise OrderGateExceeded("element enumeration", self._order, gate)
        if self._elements_cache is None:
            out = [identity_perm(self.degree)]
            for lv in reversed(self._chain.levels):
                reps = [lv.transversal[pt] for pt in sorted(lv.transversal)]
                out = [mul(e, t) for e in out for t in reps]
            out = sorted(set(out))
            assert len(out) == self._order, "chain order != enumerated order"
            self._elements_cache = out
        return list(self._elements_cache)

    def random_element(self, rng):
        """Uniform random element (independent transversal choices)."""
        g = identity_perm(self.degree)
        for lv in reversed(self._chain.levels):
            pts = sorted(lv.transversal)
            g = mul(g, lv.transversal[pts[rng.randrange(len(pts))]])
        return g

    # -- orbits and blocks ---------------------------------------------------

    def orbit(self, point):
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for pt in frontier:
                for g in self.generators:
                    img = g[pt]
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return sorted(seen)

    def orbits(self):
        """Orbit partition of the points, cells sorted by least element."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            start = min(remaining)
            orb = self.orbit(start)
            out.append(tuple(orb))
            remaining -= set(orb)
        return out

    def is_transitive(self):
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def minimal_block_systems(self):
        """Minimal nontrivial block systems, plus a primitivity flag.

        Returns (systems, primitive) where each system is a tuple of blocks
        (tuples of points).  Raises on intransitive input.
        """
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups only")
        n = self.degree
        if n == 1:
            return [], True
        candidates = {}
        for b in range(1, n):
            blocks = self._atkinson_blocks(0, b)
            size = len(_cell_containing(blocks, 0))
            if size == n or size == 1:
                continue
            key = tuple(sorted(tuple(sorted(bl)) for bl in blocks))
            candidates[key] = blocks
        systems = list(candidates)
        minimal = []
        for key_i in systems:
            blk_i = set(_cell_containing(key_i, 0))
            if not any(
                set(_cell_containing(key_j, 0)) < blk_i for key_j in systems
            ):
                minimal.append(key_i)
        return sorted(minimal), not minimal

    def _atkinson_blocks(self, a, b):
        """Finest G-invariant partition joining a and b (Atkinson's algorithm)."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx == ry:
                return None
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            return ry  # the representative merged away

        queue = []
        first = union(a, b)
        if first is not None:
            queue.append(first)
        while queue:
            q = queue.pop()
            leader = find(q)
            for g in self.generators:
                loser = union(find(g[q]), find(g[leader]))
                if loser is not None:
                    queue.append(loser)
        cells = {}
        for i in range(self.degree):
            cells.setdefault(find(i), []).append(i)
        return [tuple(c) for c in cells.values()]

    def invariant_partition(self, partition):
        """Check that a partition of the points is G-invariant."""
        cell_of = {}
        for idx, cell in enumerate(partition):
            for pt in cell:
                cell_of[pt] = idx
        if sorted(cell_of) != list(range(self.degree)):
            return False
        for g in self.generators:
            for cell in partition:
                images = {cell_of[g[pt]] for pt in cell}
                if len(images) != 1:
                    return False
        return True

    # -- derived groups ------------------------------------------------------

    def point_stabilizer(self, point):
        """The stabilizer of a point, as a PermGroup."""
        rebuilt = PermGroup(self.generators, self.degree, _base_hint=[point])
        levels = rebuilt._chain.levels
        gens = []
        for lv in levels[1:]:
            gens.extend(lv.gens)
        stab = PermGroup(gens or [identity_perm(self.degree)], self.degree)
        expected, rem = divmod(self._order, len(self.orbit(point)))
        assert rem == 0 and stab.order == expected, "stabilizer order mismatch"
        return stab

    def normal_closure(self, gens):
        """Normal closure of <gens> in this group, as a PermGroup."""
        chain = _Chain(self.degree)
        closure_gens = []
        queue = []
        for g in gens:
            g = tuple(g)
            if not chain.contains(g):
                chain.add_generator(g)
                closure_gens.append(g)
                queue.append(g)
        while queue:
            h = queue.pop()
            for g in self.generators:
                c = conj(h, g)
                if not chain.contains(c):
                    chain.add_generator(c)
                    closure_gens.append(c)
                    queue.append(c)
        return PermGroup(closure_gens or [identity_perm(self.degree)], self.degree)


def _cell_containing(blocks, pt):
    for bl in blocks:
        if pt in bl:
            return bl
    raise AssertionError


class SubgroupHandle:
    """A subgroup of a parent PermGroup, given by generators inside it."""

    def __init__(self, parent, generators, check=True):
        self.parent = parent
        self.generators = tuple(tuple(g) for g in generators)
        if check:
            for g in self.generators:
                if g not in parent:
                    raise ValueError("subgroup generator not in parent group")
        self._group = None

    @classmethod
    def trivial(cls, parent):
        return cls(parent, [], check=False)

    @classmethod
    def full(cls, parent):
        return cls(parent, parent.generators, check=False)

    @property
    def group(self):
        if self._group is None:
            gens = self.generators or (identity_perm(self.parent.degree),)
            self._group = PermGroup(gens, self.parent.degree)
        return self._group

    @property
    def order(self):
        return self.group.order

    def __contains__(self, p):
        return p in self.group

    def __repr__(self):
        return f"SubgroupHandle(order={self.order}, parent_order={self.parent.order})"

    def element_set(self, gate=ELEMENT_GATE):
        return frozenset(self.group.elements(gate))

    def is_trivial(self):
        return self.group.is_trivial()

    def is_normal_in_parent(self):
        return all(
            conj(h, g) in self.group
            for g in self.parent.generators
            for h in self.generators
        )

    def contains_subgroup(self, other):
        return all(g in self.group for g in other.generators)

    def same_subgroup(self, other):
        return self.order == other.order and self.contains_subgroup(other)

    def conjugate_by(self, g):
        return SubgroupHandle(
            self.parent, [conj(h, g) for h in self.generators], check=False
        )


def group_from_generators(gens):
    """Build a PermGroup from nonempty, degree-consistent generators."""
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    return PermGroup(gens)


def orbits(group):
    return group.orbits()


def minimal_blocks(group):
    return group.minimal_block_systems()


def closure_order_bruteforce(gens, gate=ELEMENT_GATE):
    """Exhaustive multiplicative closure; independent order oracle for tests."""
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


def relative_ops(G, H, gate=ELEMENT_GATE):
    """Normal closure, core, normalizer, centralizer of H <= G, and Z(G).

    The normal closure is chain-based and scales; the other four enumerate
    elements of G and are gated.
    """
    for g in H.generators:
        if g not in G:
            raise ValueError("H is not contained in G")
    ident = identity_perm(G.degree)
    ncl = G.normal_closure(H.generators)
    if G.order > gate:
        raise OrderGateExceeded("relative_ops", G.order, gate)
    g_els = G.elements(gate)
    h_els = set(H.group.elements(gate))

    core = set(h_els)
    changed = True
    while changed:
        changed = False
        for g in G.generators:
            keep = {x for x in core if conj(x, g) in core}
            if len(keep) != len(core):
                core = keep
                changed = True
    normalizer = [g for g in g_els if {conj(h, g) for h in h_els} == h_els]
    centralizer = [g for g in g_els if all(conj(h, g) == h for h in H.generators)]
    center = [g for g in g_els if all(mul(g, x) == mul(x, g) for x in G.generators)]

    def handle(els):
        gens = [e for e in els if e != ident]
        return SubgroupHandle(G, gens, check=False)

    result = {
        "normal_closure": SubgroupHandle(G, ncl.generators, check=False),
        "core": handle(sorted(core)),
        "normalizer": handle(sorted(normalizer)),
        "centralizer": handle(sorted(centralizer)),
        "center_of_G": handle(sorted(center)),
    }
    assert result["core"].is_normal_in_parent(), "core failed normality check"
    return result
