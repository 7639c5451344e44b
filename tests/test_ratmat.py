"""The integer kernels of ratmat against slow, obviously correct oracles."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from jigroup import ratmat as rm


def oracle_rref(rows):
    """Plain Fraction Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), pivots


def oracle_mat_inv(a):
    """The former Fraction Gauss-Jordan inverse."""
    d = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(a)]
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[d:]) for row in aug)


def oracle_minimal_polynomial(m):
    """Least k with I, M, ..., M^k dependent; the dependency, made monic."""
    d = len(m)
    powers = [rm.identity(d)]
    while True:
        flat = [tuple(x for row in p for x in row) for p in powers]
        reduced, pivots = oracle_rref([tuple(col) for col in zip(*flat)])
        free = [c for c in range(len(powers)) if c not in pivots]
        if free:
            f = free[0]
            v = [Fraction(0)] * len(powers)
            v[f] = Fraction(1)
            for i, c in enumerate(pivots):
                v[c] = -reduced[i][f]
            return rm.poly_trim(x / v[f] for x in v)
        powers.append(rm.mat_mul(powers[-1], m))


def random_rational(rng, density=0.6):
    if rng.random() > density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7, 25)))


def random_rows(rng, r, c):
    return [tuple(random_rational(rng) for _ in range(c)) for _ in range(r)]


def random_square(rng, d, kind):
    if kind == "general":
        return random_rows(rng, d, d)
    if kind == "integer":
        return [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d)]
    if kind == "nilpotent":
        return [
            tuple(random_rational(rng) if j > i else 0 for j in range(d))
            for i in range(d)
        ]
    if kind == "scalar":
        s = Fraction(rng.randint(-5, 5), rng.choice((1, 3)))
        return [tuple(s if i == j else 0 for j in range(d)) for i in range(d)]
    if kind == "zero":
        return [(0,) * d for _ in range(d)]
    # rank-deficient: a sum of two rational outer products
    u, v = random_rows(rng, 2, d), random_rows(rng, 2, d)
    return [
        tuple(sum(u[t][i] * v[t][j] for t in range(2)) for j in range(d))
        for i in range(d)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_rref_matches_fraction_gauss_jordan(seed):
    rng = random.Random(seed)
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        rows = random_rows(rng, r, c)
        if r > 2 and rng.random() < 0.4:
            rows[-1] = tuple(a - 3 * b for a, b in zip(rows[0], rows[1]))
        if rng.random() < 0.3:
            rows[rng.randrange(r)] = (Fraction(0),) * c
        if rng.random() < 0.3:
            rows = [tuple(int(x) for x in row) for row in rows]
        reduced, pivots = rm.rref(rows)
        assert (reduced, pivots) == oracle_rref(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)


def test_rref_edge_shapes():
    assert rm.rref([]) == ((), [])
    assert rm.rref([(0, 0), (0, 0)]) == ((), [])
    assert rm.rref([(Fraction(2, 3), 0, 4)]) == (((1, 0, 6),), [0])


@pytest.mark.parametrize(
    "kind",
    ["general", "integer", "nilpotent", "scalar", "zero", "rank_deficient"],
)
def test_minimal_polynomial_matches_nullspace_of_powers(kind):
    rng = random.Random(kind)
    for _ in range(25):
        m = random_square(rng, rng.randint(1, 6), kind)
        mp = rm.minimal_polynomial(m)
        assert mp == oracle_minimal_polynomial(rm.mat(m))
        assert mp[-1] == 1
        assert rm.poly_eval_mat(mp, rm.mat(m)) == rm.zeros(len(m), len(m))


@pytest.mark.parametrize(
    "kind", ["general", "integer", "nilpotent", "scalar", "rank_deficient"]
)
def test_mat_inv_matches_fraction_gauss_jordan(kind):
    rng = random.Random("inv-" + kind)
    inverted = 0
    for _ in range(30):
        d = rng.randint(1, 6)
        m = rm.mat(random_square(rng, d, kind))
        try:
            want = oracle_mat_inv(m)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                rm.mat_inv(m)
            continue
        got = rm.mat_inv(m)
        assert got == want
        assert rm.mat_mul(m, got) == rm.identity(d)
        inverted += 1
    assert inverted or kind in ("nilpotent", "rank_deficient")


# -- sympy Matrix as the oracle, on matrices of every rank ----------------------

X = sympy.Symbol("x")


def _fractions(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows))


def matrix_of_rank(rng, r, c, k):
    """A random r x c rational matrix of rank at most k, as a product r x k by k x c."""
    u, v = random_rows(rng, r, k), random_rows(rng, k, c)
    return [tuple(sum(u[i][t] * v[t][j] for t in range(k)) for j in range(c))
            for i in range(r)]


def sympy_minimal_polynomial(rows):
    """The least annihilating product of the charpoly's irreducible factors."""
    m = sympy.Matrix(rows)
    _, factors = sympy.factor_list(m.charpoly(X).as_expr(), X)

    def annihilates(exps):
        poly = sympy.Poly(sympy.prod(f**e for (f, _), e in zip(factors, exps)), X)
        value = sympy.zeros(m.rows)
        for coeff in poly.all_coeffs():
            value = value * m + coeff * sympy.eye(m.rows)
        return value.is_zero_matrix

    exps = [e for _, e in factors]
    for i in range(len(exps)):
        while exps[i] > 1 and annihilates(exps[:i] + [exps[i] - 1] + exps[i + 1:]):
            exps[i] -= 1
    poly = sympy.Poly(sympy.prod(f**e for (f, _), e in zip(factors, exps)), X).monic()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


@pytest.mark.parametrize("seed", range(4))
def test_rref_nullspace_and_rank_match_sympy_at_every_rank(seed):
    rng = random.Random(f"sympy-{seed}")
    for _ in range(12):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        for k in range(min(r, c) + 1):
            rows = matrix_of_rank(rng, r, c, k)
            m = sympy.Matrix(rows)
            reduced, pivots = m.rref()
            assert rm.rref(rows) == (_fractions(reduced)[:len(pivots)], list(pivots))
            assert rm.rank(rows) == m.rank() <= k
            assert rm.nullspace(rows) == tuple(_fractions(v.T)[0] for v in m.nullspace())


@pytest.mark.parametrize("seed", range(3))
def test_minimal_polynomial_and_inverse_match_sympy_at_every_rank(seed):
    rng = random.Random(f"sympy-square-{seed}")
    for _ in range(8):
        d = rng.randint(1, 5)
        # every rank, then a nilpotent matrix for minimal polynomials with powers
        for k in range(d + 2):
            rows = matrix_of_rank(rng, d, d, k) if k <= d else random_square(rng, d, "nilpotent")
            if rng.random() < 0.5:  # a shift gives repeated and nonzero eigenvalues
                s = Fraction(rng.randint(-3, 3))
                rows = [tuple(x + (s if i == j else 0) for j, x in enumerate(row))
                        for i, row in enumerate(rows)]
            assert rm.minimal_polynomial(rows) == sympy_minimal_polynomial(rows)
            m = sympy.Matrix(rows)
            det = m.det()
            assert rm.mat_det(rows) == Fraction(int(det.p), int(det.q))
            if m.rank() < d:
                with pytest.raises(ZeroDivisionError):
                    rm.mat_inv(rm.mat(rows))
            else:
                assert rm.mat_inv(rm.mat(rows)) == _fractions(m.inv())


# -- products and linear combinations against the former Fraction loops -------


def oracle_mat_mul(a, b):
    """The former Fraction mat_mul: one Fraction product and sum per term."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def oracle_mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def oracle_mat_scale(a, c):
    return tuple(tuple(Fraction(c) * x for x in row) for row in a)


def oracle_combination(coeffs, mats):
    """The former add/scale chain (rep._combination), for any shape."""
    acc = rm.zeros(len(mats[0]), len(mats[0][0]) if mats[0] else 0)
    for c, m in zip(coeffs, mats):
        if c:
            acc = oracle_mat_add(acc, oracle_mat_scale(m, c))
    return acc


def oracle_poly_eval_mat(p, m):
    """The former Horner loop on Fraction matrices."""
    d = len(m)
    acc = rm.zeros(d, d)
    for c in reversed(p):
        acc = oracle_mat_mul(acc, m)
        acc = oracle_mat_add(acc, oracle_mat_scale(rm.identity(d), c))
    return acc


def oracle_mat_det(a):
    """The former Fraction Gaussian elimination."""
    d = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(d):
        piv = next((r for r in range(c, d) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, d):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


ENTRY_KINDS = ("int", "small", "wide")


def random_entry(rng, kind):
    """A Python int, a small rational, or one with a denominator up to 10^6;
    signs mixed, zero about a third of the time."""
    if rng.random() < 0.3:
        return 0 if kind == "int" else Fraction(0)
    if kind == "int":
        return rng.randint(-60, 60)
    if kind == "small":
        return random_rational(rng, density=1.0)
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def random_matrix(rng, r, c, kind):
    """An r x c matrix whose rows are sometimes zero, and which is sometimes
    the zero matrix."""
    if rng.random() < 0.1:
        return tuple((0,) * c for _ in range(r))
    return tuple(
        (0,) * c if rng.random() < 0.2 else tuple(random_entry(rng, kind) for _ in range(c))
        for _ in range(r)
    )


def _all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_mat_mul_matches_former_loop(kind):
    rng = random.Random("mul-" + kind)
    for _ in range(150):
        r, k, c = (rng.randint(0, 5) for _ in range(3))
        a, b = random_matrix(rng, r, k, kind), random_matrix(rng, k, c, kind)
        got = rm.mat_mul(a, b)
        assert got == oracle_mat_mul(a, b)
        # a matrix with no rows has no column count: then the rows are empty
        assert len(got) == r and all(len(row) == (c if k else 0) for row in got)
        assert _all_fractions(got)


def test_mat_mul_of_int_matrices_has_fraction_entries():
    got = rm.mat_mul(((1, 2), (0, -3)), ((4,), (5,)))
    assert got == ((14,), (-15,))
    assert _all_fractions(got)
    assert _all_fractions(rm.mat_mul(((0, 0),), ((0,), (0,))))


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_mat_combination_matches_former_chain(kind):
    rng = random.Random("comb-" + kind)
    for _ in range(150):
        r, c, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 5)
        mats = [random_matrix(rng, r, c, kind) for _ in range(n)]
        shape = rng.random()
        if shape < 0.15:
            coeffs = []
        elif shape < 0.3:
            coeffs = [0] * n
        else:
            coeffs = [random_entry(rng, rng.choice(ENTRY_KINDS)) for _ in range(n)]
        got = rm.mat_combination(coeffs, mats)
        assert got == oracle_combination(coeffs, mats)
        assert len(got) == r and all(len(row) == c for row in got)
        assert _all_fractions(got)


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_one_combiner_serves_many_combinations(kind):
    rng = random.Random("combiner-" + kind)
    for _ in range(20):
        r, c, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 5)
        mats = [random_matrix(rng, r, c, kind) for _ in range(n)]
        combine = rm.combiner(mats)
        for _ in range(8):
            coeffs = [random_entry(rng, rng.choice(ENTRY_KINDS)) for _ in range(n)]
            assert combine(coeffs) == oracle_combination(coeffs, mats)


def test_mat_combination_needs_a_matrix():
    with pytest.raises(ValueError):
        rm.mat_combination([], [])


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_poly_eval_mat_matches_former_horner(kind):
    rng = random.Random("eval-" + kind)
    for _ in range(80):
        d = rng.randint(0, 5)
        m = random_matrix(rng, d, d, kind)
        p = [random_entry(rng, rng.choice(ENTRY_KINDS)) for _ in range(rng.randint(0, 6))]
        got = rm.poly_eval_mat(p, m)
        assert got == oracle_poly_eval_mat(p, m)
        assert _all_fractions(got)


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_mat_det_matches_former_elimination(kind):
    rng = random.Random("det-" + kind)
    for _ in range(100):
        d = rng.randint(0, 6)
        m = random_matrix(rng, d, d, kind)
        if d > 1 and rng.random() < 0.2:  # a dependent last row
            m = m[:-1] + (tuple(x - 2 * y for x, y in zip(m[0], m[1])),)
        got = rm.mat_det(m)
        assert got == oracle_mat_det(m)
        assert type(got) is Fraction


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_integer_multiple_is_the_least_one(kind):
    rng = random.Random("int-" + kind)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), kind)
        ints = rm.integer_multiple(m)
        assert all(type(x) is int for row in ints for x in row)
        den = math.lcm(*(Fraction(x).denominator for row in m for x in row))
        assert ints == [[int(x * den) for x in row] for row in m]


def test_coords_sets_free_coordinates_to_zero_and_flags_images_off_the_span():
    assert rm.coords(rm.mat([(1, 2), (2, 4)]), rm.mat([(3, 6), (0, 0)])) == ((3, 0), (0, 0))
    assert rm.coords(rm.mat([(1, 2)]), rm.mat([(2, 4), (1, 3)])) is None
    assert rm.coords(rm.mat([(1, 0), (0, 1)]), ()) == ()
