"""Exact finite permutation groups with stabilizer chains.

Permutations are tuples of images on the points 0..n-1, composed left to
right: (p * q)[i] = q[p[i]].  Groups carry a Schreier-Sims stabilizer
chain, so orders and membership tests are exact.  The chain is built
deterministically, except for a group whose order its caller knows and
proves from above (the wreath shadow, F wr P): its chain is filled from
random elements of a fixed seed until the orbit sizes multiply to that
order.  That product is a lower bound for the order at every step, so
reaching the known order proves the chain complete; the random elements
change only how fast it gets there (Seress, Permutation Group Algorithms,
2003, ch. 4).  A caller that also proves the order from below gives it as
the order, and the fill, kept as an oracle, waits for the first question
that needs the chain.
"""

from __future__ import annotations

import itertools
import random
import sys
from functools import cached_property
from math import gcd
from operator import itemgetter

from .verdicts import CertificateError

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

# The known-order fill: its fixed seed, its product-replacement slots and
# scramble steps, and the trivial sifts in a row after which it stops.
_FILL_SEED = 1
_SLOTS = 10
_SCRAMBLE = 50
_STALL = 40


def identity_perm(n):
    return tuple(range(n))


def check_perm(p):
    """Raise ValueError unless p is a bijection on 0..len(p)-1."""
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation: {p!r}")


def mul(p, q):
    """Compose left to right: apply p, then q."""
    if len(p) < 2:  # itemgetter takes at least one index, and one gives a bare item
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conj(p, g):
    """Conjugate p by g: g^-1 * p * g."""
    return mul(mul(inv(g), p), g)


def _image(point, g):
    return g[point]


def _walk(start, gens, act):
    """Yield start, then each new image act(x, g) once: the orbit of start
    under the group that gens generate, since the group is finite."""
    seen = {start}
    todo = [start]
    yield start
    for x in todo:  # breadth first: todo grows while it is read
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
                yield y


def _orbits_of(points, gens, act):
    """The orbits, as sets, that meet points, in order of their first point."""
    seen = set()
    out = []
    for x in points:
        if x not in seen:
            orb = set(_walk(x, gens, act))
            seen |= orb
            out.append(orb)
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


class _Level:
    __slots__ = ("beta", "transversal", "inverse", "strong", "processed", "closed")

    def __init__(self, beta, n):
        ident = identity_perm(n)
        self.beta = beta
        self.transversal = {beta: ident}  # orbit point -> element taking beta there
        self.inverse = {beta: ident}  # orbit point -> the inverse of that element
        self.strong = []  # (serial, generator, its inverse) installed at this level
        self.processed = set()  # (orbit point, serial) pairs already sifted
        self.closed = 0  # the orbit is closed under the gens of serial <= this


class _Chain:
    """Mutable Schreier-Sims chain.

    The generating set of the i-th stabilizer is the union of the gens
    installed at levels >= i, and the orbit sizes multiply to at most the
    order of the group.  After add_generator returns, every Schreier
    generator of every level sifts to the identity through the levels below
    it, so the product is the exact group order.  fill reaches the same
    product from a known order instead (see there).
    """

    def __init__(self, degree):
        self.degree = degree
        self.levels = []
        self._ident = identity_perm(degree)
        self._serial = 0

    def order(self):
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def strong_at(self, idx):
        return [s for lv in self.levels[idx:] for s in lv.strong]

    def strip(self, g, start=0):
        """Sift g through levels >= start; return (residue, stop level)."""
        for idx in range(start, len(self.levels)):
            lv = self.levels[idx]
            img = g[lv.beta]
            if img == lv.beta:
                continue
            t_inv = lv.inverse.get(img)
            if t_inv is None:
                return g, idx
            g = mul(g, t_inv)
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
        self._sweep(idx)

    def fill(self, gens, target):
        """Grow the chain from gens to the known order target of <gens>.

        Every generator, then a stream of product-replacement elements from
        a fixed seed, is sifted and its residue installed.  The orbit sizes
        multiply to a lower bound for |<gens>| at every step, so reaching
        target proves |<gens>| >= target; the caller proves the upper
        bound.  The stream stops after _STALL trivial sifts in a row, also
        once target is reached: an element of <gens> sifts through an
        incomplete chain with probability at most 1/2, so a target below
        the order is passed.  If the order is below target when the stream
        stops, the deterministic sweep completes the chain.  An order that
        passes target, or an exact order other than target, raises
        CertificateError; the stall and the sweep end on every input.
        """
        stream = _random_elements(gens, self._ident, random.Random(_FILL_SEED))
        trivial = 0
        for g in itertools.chain(gens, stream):
            if self._sift_in(g):
                trivial = 0
                if self.order() > target:
                    raise CertificateError(
                        f"chain order passed the known order {target}")
            else:
                trivial += 1
                if trivial == _STALL:
                    break
        if self.order() != target:
            self._sweep(len(self.levels) - 1)
            if self.order() != target:
                raise CertificateError(
                    f"group order {self.order()} != known order {target}")

    def _sift_in(self, g):
        """Install the residue of g, if any, and close the orbits it extends."""
        r, idx = self.strip(g)
        if r == self._ident:
            return False
        self._install(idx, r)
        new = self.levels[idx].strong[-1:]
        for i in range(idx + 1):  # every level closed before, so only new is new
            self._close_orbit(i, new)
        return True

    def _sweep(self, i):
        """Process levels from i up to 0: a new residue below sends the
        sweep down to its level, a finished level sends it up.  Every level
        at or above an installation gains the new generator, so the sweep
        must reach level 0."""
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
        lv = self.levels[idx]
        self._serial += 1
        lv.strong.append((self._serial, r, inv(r)))

    def _close_orbit(self, idx, step=None):
        """Close the orbit of level idx under the gens of levels >= idx.

        The points it was closed on before need only the gens installed
        since, step (the caller may know them); the points it gains need
        them all.
        """
        lv = self.levels[idx]
        if step is None:
            step = [s for s in self.strong_at(idx) if s[0] > lv.closed]
        strong = None
        frontier = list(lv.transversal)
        while frontier:
            nxt = []
            for pt in frontier:
                t = lv.transversal[pt]
                t_inv = lv.inverse[pt]
                for _, s, s_inv in step:
                    img = s[pt]
                    if img not in lv.transversal:
                        lv.transversal[img] = mul(t, s)
                        lv.inverse[img] = mul(s_inv, t_inv)
                        nxt.append(img)
            if nxt and strong is None:
                strong = step = self.strong_at(idx)
            frontier = nxt
        lv.closed = self._serial

    def _process_level(self, idx):
        """Sift unprocessed Schreier generators of level idx.

        Returns the level where a nontrivial residue was installed (caller
        jumps there), or None once the level is complete.
        """
        lv = self.levels[idx]
        self._close_orbit(idx)
        strong = self.strong_at(idx)
        for pt in sorted(lv.transversal):
            t = lv.transversal[pt]
            for serial, s, _ in strong:
                key = (pt, serial)
                if key in lv.processed:
                    continue
                lv.processed.add(key)
                ts = mul(t, s)
                sg = mul(ts, lv.inverse[ts[lv.beta]])
                if sg == self._ident:
                    continue
                rr, j = self.strip(sg, idx + 1)
                if rr != self._ident:
                    self._install(j, rr)
                    return j
        return None


def _random_elements(gens, ident, rng):
    """Endless product replacement with an accumulator: nearly uniform
    random elements of <gens> (Celler, Leedham-Green, Murray, Niemeyer and
    O'Brien 1995; Seress 2003, sec. 2.2)."""
    slots = list(gens) or [ident]
    while len(slots) < _SLOTS:
        slots += slots[: _SLOTS - len(slots)]
    acc = ident
    for step in itertools.count():
        i, j = rng.sample(range(len(slots)), 2)
        if rng.random() < 0.5:
            slots[i] = mul(slots[i], slots[j])
        else:
            slots[i] = mul(slots[j], slots[i])
        acc = mul(acc, slots[i])
        if step >= _SCRAMBLE:
            yield acc


class PermGroup:
    """A finite permutation group with exact order and membership.

    Immutable after construction.  `generators` is the user-supplied list;
    the stabilizer chain holds strong generators internally.
    """

    def __init__(self, generators, degree=None, _known_order=None, _lazy=False):
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
        self._known_order = _known_order
        # _lazy: the caller proves |<generators>| = _known_order from both sides
        self._order = _known_order if _lazy else self._chain.order()
        self._elements_cache = None

    @cached_property
    def _chain(self):
        chain = _Chain(self.degree)
        if self._known_order is None:
            for g in self.generators:
                chain.add_generator(g)
        else:  # the caller proves |<generators>| <= _known_order
            chain.fill(self.generators, self._known_order)
        return chain

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
            if len(out) != self._order:
                raise CertificateError("chain order != enumerated order")
            self._elements_cache = out
        return list(self._elements_cache)

    # -- orbits and blocks ---------------------------------------------------

    def orbit(self, point):
        return sorted(_walk(point, self.generators, _image))

    def orbits(self):
        """Orbit partition of the points, cells sorted by least element."""
        return [tuple(sorted(orb))
                for orb in _orbits_of(range(self.degree), self.generators, _image)]

    def is_transitive(self):
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def block_systems(self):
        """Every block system except the one-block one, singletons included,
        sorted by block size and then by system.

        A system is a tuple of blocks (tuples of points), the block of 0
        first.  A block containing 0 is the join of the blocks atk(0, b) of
        its points b, and the join of two blocks is the Atkinson closure of
        their union, so the systems are one walk from the singletons over
        the layer of systems atk(0, b) (Seress, Permutation Group
        Algorithms, 2003, sec. 5.5).  Raises on intransitive input.
        """
        def join(system, cell):
            if set(cell[0]) <= set(system[0]):
                return system  # the finer system adds nothing
            return self._atkinson_blocks(system[0] + cell[0])

        singletons = tuple((i,) for i in range(self.degree))
        out = sorted((s for s in _walk(singletons, self._layer(), join) if len(s) > 1),
                     key=lambda s: (len(s[0]), s))
        for system in out:
            if not self.invariant_partition(system):
                raise CertificateError("block system is not invariant")
            if len({len(b) for b in system}) != 1:
                raise CertificateError("blocks of unequal size")
        return out

    def _layer(self):
        """The distinct systems atk(0, b), b = 1..n-1: each is the finest
        with 0 and b in one block."""
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups only")
        return list(dict.fromkeys(self._atkinson_blocks((0, b))
                                  for b in range(1, self.degree)))

    def _atkinson_blocks(self, points):
        """Finest G-invariant partition with points in one cell (Atkinson's
        algorithm), as a tuple of sorted cells in order of their least point."""
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

        first, *rest = points
        queue = [q for q in (union(first, x) for x in rest) if q is not None]
        while queue:
            q = queue.pop()
            leader = find(q)
            for g in self.generators:
                loser = union(find(g[q]), find(g[leader]))
                if loser is not None:
                    queue.append(loser)
        cells = {}  # a root is the least point of its cell
        for i in range(self.degree):
            cells.setdefault(find(i), []).append(i)
        return tuple(map(tuple, cells.values()))

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


def _conj_set(s, g):
    g_inv = inv(g)
    return frozenset(mul(mul(g_inv, x), g) for x in s)


def core(G, elements):
    """The largest normal subgroup of G inside the subgroup with these
    elements, as a frozenset: the meet of its conjugates."""
    return frozenset.intersection(*_walk(frozenset(elements), G.generators, _conj_set))


def center(G, gate=ELEMENT_GATE):
    """Z(G): the elements of G that commute with its generators, in element order."""
    return [g for g in G.elements(gate) if all(mul(g, x) == mul(x, g) for x in G.generators)]


def derived_subgroup(G):
    """[G, G], the normal closure of the commutators of the generator pairs."""
    return G.normal_closure(mul(mul(inv(a), inv(b)), mul(a, b))
                            for a, b in itertools.combinations(G.generators, 2))


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
    h_els = frozenset(H.group.elements(gate))

    normalizer = [g for g in g_els if {conj(h, g) for h in h_els} == h_els]
    centralizer = [g for g in g_els if all(conj(h, g) == h for h in H.generators)]

    def handle(els):
        gens = [e for e in els if e != ident]
        return SubgroupHandle(G, gens, check=False)

    result = {
        "normal_closure": SubgroupHandle(G, ncl.generators, check=False),
        "core": handle(sorted(core(G, h_els))),
        "normalizer": handle(sorted(normalizer)),
        "centralizer": handle(sorted(centralizer)),
        "center_of_G": handle(center(G, gate)),
    }
    if not result["core"].is_normal_in_parent():
        raise CertificateError("core failed normality check")
    return result
