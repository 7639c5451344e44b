import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from jigroup import catalog
from jigroup.chartab import (
    CharacterTable,
    _charpoly_mod,
    _classes,
    _nullspace_mod,
    _restriction,
    _rref_mod,
    _times_class_matrix,
    character_table,
    min_faithful_degree,
)
from jigroup.cyclotomic import CycloContext, cyclotomic_poly
from jigroup.perm import perm_order
from jigroup.smallgrp import small_table
from jigroup.verdicts import CertificateError

from oracles import (
    cyclo_add,
    cyclo_mul,
    cyclo_one,
    is_rational,
    klein_four,
    rational_value,
    root_power,
    symmetric,
    table_conjugacy_classes,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_arithmetic():
    ctx = CycloContext(8)
    z = root_power(ctx, 1)
    z4 = cyclo_mul(ctx, cyclo_mul(ctx, z, z), cyclo_mul(ctx, z, z))
    assert z4 == ctx.from_rational(-1)
    # zeta * conj(zeta) = 1
    assert cyclo_mul(ctx, z, ctx.conj(z)) == cyclo_one(ctx)
    # zeta + zeta^-1 squares to 2
    s = cyclo_add(z, root_power(ctx, 7))
    assert cyclo_mul(ctx, s, s) == ctx.from_rational(2)


def test_chartab_c2():
    ct = character_table(catalog.cyclic(2))
    assert sorted(ct.degrees) == [1, 1]


def test_chartab_q8():
    ct = character_table(catalog.quaternion(8))
    assert sorted(ct.degrees) == [1, 1, 1, 1, 2]


def test_chartab_q16():
    ct = character_table(catalog.quaternion(16))
    assert sorted(ct.degrees) == [1, 1, 1, 1, 2, 2, 2]


def test_chartab_s3_rational():
    ct = character_table(symmetric(3))
    assert sorted(ct.degrees) == [1, 1, 2]
    # all S3 character values are rational integers
    for row in ct.values:
        for v in row:
            assert is_rational(v)
            assert rational_value(ct.ctx, v).denominator == 1


def test_chartab_c3_values():
    ct = character_table(catalog.cyclic(3))
    assert sorted(ct.degrees) == [1, 1, 1]
    ctx = ct.ctx
    vals = {tuple(row) for row in ct.values}
    # one row is trivial; the others take primitive cube roots of unity
    assert (cyclo_one(ctx),) * 3 in vals


def test_chartab_extraspecial_degrees():
    ct = character_table(catalog.extraspecial_128())
    assert sorted(ct.degrees) == [1] * 64 + [8]
    assert sum(d * d for d in ct.degrees) == 128


def test_min_faithful_degree_extraspecial():
    assert min_faithful_degree(catalog.extraspecial_128()) == 8


def test_min_faithful_search_on_the_extraspecial_group_pops_twice(monkeypatch):
    # the central involution lies in every linear kernel, so the bound is 8
    # from the start and the search goes straight to the faithful degree-8
    # irreducible; without the bound it settles all 2826 kernel meets
    import heapq

    from jigroup import chartab

    E = catalog.extraspecial_128()
    ct = character_table(E)
    pops = []
    monkeypatch.setattr(chartab.heapq, "heappop",
                        lambda heap, real=heapq.heappop: pops.append(1) or real(heap))
    assert min_faithful_degree(E, table=ct) == 8
    assert len(pops) == 2


def test_min_faithful_degree_cyclic_prime():
    assert min_faithful_degree(catalog.cyclic(5)) == 1
    assert min_faithful_degree(catalog.cyclic(7)) == 1


def test_min_faithful_degree_klein():
    # exhaustive kernel-intersection oracle: V4 needs two linear characters
    assert min_faithful_degree(klein_four()) == 2


def test_min_faithful_degree_q8():
    # Q8's only faithful irreducible has degree 2
    assert min_faithful_degree(catalog.quaternion(8)) == 2


def test_min_faithful_degree_one_iff_cyclic():
    for G, expected in [
        (catalog.cyclic(6), 1),
        (catalog.cyclic(4), 1),
        (klein_four(), 2),
        (symmetric(3), 2),
    ]:
        assert (min_faithful_degree(G) == 1) == (expected == 1)


def _bruteforce_min_faithful(G):
    """Exhaustive full-powerset search over irreducible kernels."""
    import itertools

    ct = character_table(G)
    assert ct.n_classes <= 14
    kers = [ct.kernel_classes(i) for i in range(ct.n_classes)]
    best = None
    idxs = range(ct.n_classes)
    for size in range(1, ct.n_classes + 1):
        for combo in itertools.combinations(idxs, size):
            inter = frozenset(range(ct.n_classes))
            for i in combo:
                inter &= kers[i]
            if inter == frozenset([0]):
                cost = sum(ct.degrees[i] for i in combo)
                best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize(
    "G",
    [klein_four(), catalog.quaternion(8), symmetric(3),
     catalog.dihedral(4), catalog.cyclic(12)],
)
def test_min_faithful_against_bruteforce(G):
    assert min_faithful_degree(G) == _bruteforce_min_faithful(G)


# -- differential oracles ------------------------------------------------------
#
# The slow references below are the Fraction arithmetic and the triple-loop
# orthogonality check that the integer Z[zeta_e] kernel replaced.  They are
# kept here so the fast path is checked against an obviously correct one.


class FractionCyclo:
    """Q(zeta_e) on Fraction coefficient vectors, reduced through zeta^k."""

    def __init__(self, e):
        self.e = e
        self.phi = cyclotomic_poly(e)
        self.dim = len(self.phi) - 1
        self._pow = []
        cur = [Fraction(0)] * self.dim
        cur[0] = Fraction(1)
        for _ in range(e):
            self._pow.append(tuple(cur))
            carry = cur[-1]
            cur = [Fraction(0)] + cur[:-1]
            for i in range(self.dim):
                cur[i] -= carry * self.phi[i]

    def zero(self):
        return (Fraction(0),) * self.dim

    def from_rational(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.dim - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, a, q):
        return tuple(x * Fraction(q) for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                vec = self._pow[(i + j) % self.e]
                for t in range(self.dim):
                    out[t] += ai * bj * vec[t]
        return tuple(out)

    def conj(self, a):
        out = [Fraction(0)] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            vec = self._pow[(self.e - i) % self.e]
            for t in range(self.dim):
                out[t] += ai * vec[t]
        return tuple(out)

    def from_root_multiplicities(self, mults):
        out = [Fraction(0)] * self.dim
        for s, m in enumerate(mults):
            if not m:
                continue
            vec = self._pow[s % self.e]
            for t in range(self.dim):
                out[t] += m * vec[t]
        return tuple(out)


def fraction_verify(table, order):
    """Triple-loop check of the degree sum and row orthogonality over Q."""
    if len(table.degrees) != table.n_classes:
        return False
    if sum(d * d for d in table.degrees) != order:
        return False
    ctx = FractionCyclo(table.ctx.e)
    for i in range(table.n_classes):
        for j in range(i + 1):
            total = ctx.zero()
            for k in range(table.n_classes):
                term = ctx.mul(table.values[i][k], ctx.conj(table.values[j][k]))
                total = ctx.add(total, ctx.scale(term, table.class_sizes[k]))
            if total != ctx.from_rational(order if i == j else 0):
                return False
    return True


def integer_verify(table, order):
    try:
        return table.verify(order)
    except CertificateError:
        return False


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 8, 12, 15, 30, 60])
def test_integer_cyclotomic_matches_fraction_oracle(e):
    rng = random.Random(e)
    ctx, ref = CycloContext(e), FractionCyclo(e)
    for _ in range(25):
        a = tuple(rng.randint(-40, 40) for _ in range(ctx.dim))
        b = tuple(rng.choice([0, rng.randint(-40, 40)]) for _ in range(ctx.dim))
        mults = [rng.randint(0, 9) for _ in range(rng.choice([e, 2 * e + 1]))]
        for got, want in [
            (cyclo_mul(ctx, a, b), ref.mul(a, b)),
            (ctx.conj(a), ref.conj(a)),
            (cyclo_add(a, b), ref.add(a, b)),
            (ctx.from_root_multiplicities(mults), ref.from_root_multiplicities(mults)),
        ]:
            assert got == want
            assert all(type(x) is int for x in got)


_TABLES = {}


def _table(name):
    if name not in _TABLES:
        group = {"q16": catalog.quaternion(16), "d30": catalog.dihedral(30),
                 "s6": symmetric(6)}[name]
        _TABLES[name] = (character_table(group), group.order)
    return _TABLES[name]


def test_chartab_s6_and_d30_degrees():
    assert sorted(_table("s6")[0].degrees) == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
    assert sorted(_table("d30")[0].degrees) == [1] * 4 + [2] * 14


def _corrupted(ct, how):
    values = [list(row) for row in ct.values]
    degrees = list(ct.degrees)
    sizes = list(ct.class_sizes)
    i = 1  # an early row, so the slow oracle also stops early
    if how == "value":
        v = values[i][1]
        values[i][1] = (v[0] + 1,) + tuple(v[1:])
    elif how == "swap":
        k = next(k for k, v in enumerate(values[i]) if v != values[i][0])
        values[i][0], values[i][k] = values[i][k], values[i][0]
    elif how == "double":  # still orthogonal to the other rows, but norm 4|G|
        values[i] = [tuple(2 * x for x in v) for v in values[i]]
    elif how == "zeta":
        values[i][1] = cyclo_mul(ct.ctx, values[i][1], root_power(ct.ctx, 1))
    elif how == "size":
        sizes[1] += 1
    elif how == "degree":
        degrees[i] += 1
    return CharacterTable(ct.group, ct.classes, sizes, values, degrees, ct.ctx)


@pytest.mark.parametrize("name", ["q16", "d30", "s6"])
def test_verify_agrees_with_fraction_oracle(name):
    ct, order = _table(name)
    assert integer_verify(ct, order) and fraction_verify(ct, order)
    for how in ("value", "swap", "double", "zeta", "size", "degree"):
        bad = _corrupted(ct, how)
        assert not integer_verify(bad, order), how
        assert not fraction_verify(bad, order), how


def test_verify_ties_degrees_to_identity_column():
    # orthogonality and the degree sum alone accept both corruptions
    ct, order = _table("q16")
    swapped = list(ct.degrees)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    negated = [list(row) for row in ct.values]
    negated[2] = [tuple(-x for x in v) for v in negated[2]]
    parts = (ct.group, ct.classes, ct.class_sizes)
    for bad in (CharacterTable(*parts, ct.values, swapped, ct.ctx),
                CharacterTable(*parts, negated, ct.degrees, ct.ctx)):
        assert fraction_verify(bad, order)
        with pytest.raises(CertificateError, match="not the value at the identity"):
            bad.verify(order)


def _classes_by_all_elements(tbl):
    """Conjugacy classes by conjugating with every element of the group."""
    seen = set()
    classes = []
    for i in range(tbl.n):
        if i in seen:
            continue
        orbit = {tbl.conj(i, g) for g in range(tbl.n)}
        seen |= orbit
        classes.append(sorted(orbit))
    classes.sort(key=lambda c: (c[0] != tbl.ident, perm_order(tbl.elements[c[0]]), c[0]))
    return classes


@pytest.mark.parametrize("group", [catalog.quaternion(16), catalog.dihedral(30),
                                   symmetric(6), catalog.cyclic(1)])
def test_conjugacy_classes_match_all_elements_walk(group):
    tbl = small_table(group)
    classes = _classes(group, group.elements())
    assert classes == _classes_by_all_elements(tbl) == table_conjugacy_classes(tbl)


def test_corrupted_table_raises_certificate_error_under_O():
    script = (
        "from jigroup import catalog\n"
        "from jigroup.chartab import character_table\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "ct = character_table(catalog.quaternion(16))\n"
        "v = ct.values[-1][1]\n"
        "ct.values[-1][1] = (v[0] + 1,) + tuple(v[1:])\n"
        "try:\n"
        "    ct.verify(16)\n"
        "except CertificateError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: orthogonality failed at rows")


def test_corrupted_character_value_is_out_of_range_in_the_lift(monkeypatch):
    # chi(z) + 1 on a generator z of C4 moves every multiplicity by
    # zeta_4^(-t)/4 mod l: their sum stays the degree, but none stays in range
    from jigroup import chartab

    def corrupt(powers, d, *args, real=chartab._multiplicities):
        if len(powers) == 4:
            powers = [powers[0], powers[1] + 1, *powers[2:]]
        return real(powers, d, *args)

    monkeypatch.setattr(chartab, "_multiplicities", corrupt)
    with pytest.raises(CertificateError, match="character multiplicity out of range"):
        character_table(catalog.cyclic(4))


# -- the known linear characters -------------------------------------------------


def _corrupt_linear(how, real):
    def patched(group, exponent, gate):
        coset_of, lin = real(group, exponent, gate)
        if how == "exponent":  # lambda_1 moved by zeta_e on one coset
            lin[1][1] = (lin[1][1] + 1) % exponent
        elif how == "coset":  # the identity relabelled into another coset
            ident = min(x for x, c in coset_of.items() if c == 0)
            coset_of[ident] = 1
        elif how == "cover":
            del coset_of[max(coset_of)]
        elif how == "count":  # the last character dropped
            lin = [row[:-1] for row in lin]
        elif how == "duplicate":  # the last character replaced by the trivial one
            lin = [row[:-1] + [row[0]] for row in lin]
        return coset_of, lin

    return patched


@pytest.mark.parametrize("how, message", [
    ("exponent", "a linear character is not a homomorphism"),
    ("coset", "cosets do not multiply"),
    ("cover", "the cosets of G' do not cover G"),
    ("count", r"the number of linear characters is not \[G:G'\]"),
    ("duplicate", "the residual space does not have dimension"),
])
def test_each_linear_character_certificate_raises(how, message, monkeypatch):
    # Q16: G' has order 4 and G/G' is C2 x C2, so every check has something to see
    from jigroup import chartab

    monkeypatch.setattr(chartab, "_linear_characters",
                        _corrupt_linear(how, chartab._linear_characters))
    with pytest.raises(CertificateError, match=message):
        character_table(catalog.quaternion(16))


def test_patched_linear_exponent_raises_certificate_error_under_O():
    script = (
        "from jigroup import catalog, chartab\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "real = chartab._linear_characters\n"
        "def patched(group, exponent, gate):\n"
        "    coset_of, lin = real(group, exponent, gate)\n"
        "    lin[1][1] = (lin[1][1] + 1) % exponent\n"
        "    return coset_of, lin\n"
        "chartab._linear_characters = patched\n"
        "try:\n"
        "    chartab.character_table(catalog.dihedral(30))\n"
        "except CertificateError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: a linear character is not a homomorphism\n"


@pytest.mark.parametrize("group, residual, columns", [
    (catalog.extraspecial_128(), 1, 65),  # 64 linear characters of 65
    (catalog.quaternion(16), 3, 7 * 7),
    (catalog.dihedral(30), 14, 18 * 18),
    (symmetric(6), 9, 11 * 11),
])
def test_split_runs_on_the_residual_space_only(group, residual, columns, monkeypatch):
    # the split starts from the rows of the characters that are not linear; a
    # line needs no eigenvalue scan, and a column is built only when read
    from jigroup import chartab

    seen, scans, nulls = {}, [], []
    monkeypatch.setattr(chartab, "_class_columns", lambda *args, real=chartab._class_columns:
                        seen.setdefault("column", real(*args)))
    monkeypatch.setattr(chartab, "_eigenvalues_mod", lambda a, l, real=chartab._eigenvalues_mod:
                        scans.append(len(a)) or real(a, l))
    monkeypatch.setattr(chartab, "_nullspace_mod", lambda mat, l, real=chartab._nullspace_mod:
                        nulls.append(real(mat, l)) or nulls[-1])
    ct = character_table(group)
    assert len(nulls[0]) == residual == ct.n_classes - ct.degrees.count(1)
    assert bool(scans) == (residual > 1) and all(n <= residual for n in scans)
    assert seen["column"].cache_info().currsize <= columns


# -- the mod-l elimination against the former loops ------------------------------


def oracle_rref_mod(mat, l):
    """Gauss-Jordan on lists of Python ints mod l."""
    a = [[int(x) % l for x in row] for row in mat]
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, l)
        a[r] = [x * inv % l for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % l for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def oracle_nullspace_mod(mat, l):
    """The former nullspace loop."""
    a = mat % l
    rows, cols = a.shape
    a = a.copy()
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c] % l:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), l - 2, l)
        a[r] = (a[r] * inv) % l
        for i in range(rows):
            if i != r and a[i, c] % l:
                a[i] = (a[i] - a[i, c] * a[r]) % l
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-a[i, f]) % l
        basis.append(v % l)
    return basis


def oracle_solve_left(block, target, l):
    """The former restriction solve: a @ block = target over F_l."""
    bt = block.T % l
    tt = target.T % l
    aug = np.concatenate([bt, tt], axis=1) % l
    m, n = bt.shape
    r = 0
    pivots = []
    for c in range(n):
        piv = None
        for i in range(r, m):
            if aug[i, c] % l:
                piv = i
                break
        if piv is None:
            continue
        aug[[r, piv]] = aug[[piv, r]]
        inv = pow(int(aug[r, c]), l - 2, l)
        aug[r] = (aug[r] * inv) % l
        for i in range(m):
            if i != r and aug[i, c] % l:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % l
        pivots.append(c)
        r += 1
    x = np.zeros((n, tt.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, n:]
    if not np.array_equal((bt @ x) % l, tt % l):
        raise CertificateError("inconsistent restriction solve")
    return x.T % l


def _random_mod(rng, rows, cols, l, rank=None):
    """A random rows x cols matrix mod l, of rank at most `rank` if given."""
    if rank is None:
        return np.array([[rng.randrange(l) for _ in range(cols)] for _ in range(rows)],
                        dtype=np.int64)
    return (_random_mod(rng, rows, rank, l) @ _random_mod(rng, rank, cols, l)) % l


def oracle_charpoly_mod(a, l):
    """The former Newton-identity loop: power sums trace(A^k), low degree first."""
    n = a.shape[0]
    am = a % l
    p = []
    mk = np.eye(n, dtype=np.int64)
    for _ in range(n):
        mk = (am @ mk) % l
        p.append(int(np.trace(mk)) % l)
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1))
        e.append(acc * pow(k, l - 2, l) % l)
    return [(-1) ** k * e[k] % l for k in range(n, -1, -1)]


def oracle_class_matrix(tbl, classes, i):
    """M_i[j][k] = #{(x, y) in C_i x C_j : xy = rep_k}, by every pair."""
    class_of = {x: c for c, cls in enumerate(classes) for x in cls}
    m = [[0] * len(classes) for _ in classes]
    for k, cls in enumerate(classes):
        for x in classes[i]:
            for y in range(tbl.n):
                if tbl.table[x][y] == cls[0]:
                    m[class_of[y]][k] += 1
    return m


def _sparse_columns(m):
    return [tuple((j, row[k]) for j, row in enumerate(m) if row[k]) for k in range(len(m))]


@pytest.mark.parametrize("l", [7, 97, 257, 7681])
def test_rref_and_nullspace_mod_match_former_loops(l):
    rng = random.Random(l)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_mod(rng, rows, cols, l, rng.choice([None, 1, 2, min(rows, cols)]))
        if rng.random() < 0.2:
            mat[rng.randrange(rows)] = 0
        assert _rref_mod(mat.tolist(), l) == oracle_rref_mod(mat, l)
        got, want = _nullspace_mod(mat.tolist(), l), oracle_nullspace_mod(mat, l)
        assert got == [v.tolist() for v in want]


@pytest.mark.parametrize("l", [7, 97, 257, 7681])
def test_charpoly_mod_matches_former_newton_loop(l):
    # Newton's identities divide by 1..n, so the oracle needs n < l
    rng = random.Random(3 * l)
    for _ in range(150):
        n = rng.randint(1, min(l - 1, 12))
        a = _random_mod(rng, n, n, l, rng.choice([None, None, 1, n // 2 or 1]))
        if rng.random() < 0.3:  # zero subdiagonal entries exercise the skipped pivots
            a = np.triu(a, -rng.randint(0, 1))
        if rng.random() < 0.03:
            a[:] = 0
        assert _charpoly_mod(a.tolist(), l) == oracle_charpoly_mod(a, l)


@pytest.mark.parametrize("l", [7, 97, 257, 7681])
def test_solve_left_matches_former_loop(l):
    # the left solve a @ block = target is now read off an echelon block's pivots
    rng = random.Random(-l)
    for _ in range(40):
        cols = rng.randint(1, 7)
        block, pivots = _rref_mod(_random_mod(rng, rng.randint(1, cols), cols, l).tolist(), l)
        if len(pivots) < len(block):
            continue  # a block is a basis: full row rank
        a = _random_mod(rng, len(block), len(block), l)
        target = (a @ np.array(block)) % l
        assert _restriction(block, pivots, target.tolist(), l) == a.tolist()
        assert oracle_solve_left(np.array(block), target, l).tolist() == a.tolist()
        if len(block) < cols:  # a target outside the row space
            bad = target.copy()
            bad[0] = (bad[0] + _random_mod(rng, 1, cols, l)[0]) % l
            if len(oracle_rref_mod(np.vstack([block, bad[:1]]), l)[1]) > len(block):
                with pytest.raises(CertificateError, match="inconsistent restriction"):
                    _restriction(block, pivots, bad.tolist(), l)
                with pytest.raises(CertificateError):
                    oracle_solve_left(np.array(block), bad, l)


@pytest.mark.parametrize("group", [symmetric(3), catalog.quaternion(8),
                                   catalog.dihedral(5)])
def test_block_that_a_class_matrix_moves_raises(group):
    # a class matrix preserves the span of its eigen-rows and no random line
    tbl = small_table(group)
    classes = _classes(group, group.elements())
    r, l, rng = len(classes), 97, random.Random(len(classes))
    for i in range(1, r):
        m = _sparse_columns(oracle_class_matrix(tbl, classes, i))
        whole = [[int(j == k) for k in range(r)] for j in range(r)]
        a = _restriction(whole, list(range(r)), _times_class_matrix(whole, m, l), l)
        assert a == [[x % l for x in row] for row in oracle_class_matrix(tbl, classes, i)]
        line, pivots = _rref_mod([[rng.randrange(1, l) for _ in range(r)]], l)
        with pytest.raises(CertificateError, match="inconsistent restriction"):
            _restriction(line, pivots, _times_class_matrix(line, m, l), l)
