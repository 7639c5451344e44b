import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import center_by_centralizer, fraction_solve, start_projector_by_inverse

from jigroup import catalog, ratmat as rm
from jigroup import rep as rep_module
from jigroup.rep import (
    SAMPLE_BUDGET,
    AlgebraStructure,
    RelationViolation,
    UncertifiedSplit,
    _noncentral_scalar_part,
    _quaternion_zero_divisor,
    _sample_element,
    algebra_center,
    algebra_structure,
    anticommuting,
    commutant,
    decompose_over_Q,
    irreducible_over_Q,
    matrix_block_system,
    quaternion_pair,
    rep_from_data,
)
from jigroup.smallgrp import maximal_subgroups
from jigroup.verdicts import IRREDUCIBLE, REDUCIBLE, CertificateError

SRC = Path(__file__).resolve().parent.parent / "src"


def c3_companion_rep():
    # generator of C3 -> companion matrix of x^2 + x + 1
    G = catalog.cyclic(3)
    return rep_from_data(G, [[[0, -1], [1, -1]]])


def c2_diag_rep():
    G = catalog.cyclic(2)
    return rep_from_data(G, [[[1, 0], [0, -1]]])


def q8_quaternion_rep():
    # left multiplication by i and j on the rational quaternions (basis 1,i,j,k)
    G = catalog.quaternion(8)
    i_m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j_m = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return rep_from_data(G, [i_m, j_m])


def d8_natural_rep():
    G = catalog.dihedral(4)
    r = [[0, -1], [1, 0]]
    s = [[1, 0], [0, -1]]
    return rep_from_data(G, [r, s])


def test_rep_from_data_c3():
    rep = c3_companion_rep()
    assert rep.faithful
    assert rep.dimension == 2
    assert len(rep.element_map) == 3


def test_rep_from_data_trivial_images():
    G = catalog.cyclic(3)
    rep = rep_from_data(G, [[[1]]])
    assert not rep.faithful


def test_rep_from_data_c4_rotation():
    G = catalog.cyclic(4)
    rep = rep_from_data(G, [[[0, -1], [1, 0]]])
    assert rep.faithful


@pytest.mark.parametrize("approx", [False, True])
def test_restriction_reads_faithfulness_off_the_parent_kernel(approx):
    # C4 acting by -1 has kernel C2; its restriction to that C2 maps both
    # elements to 1.  Approx images compare by value, not by identity.
    from jigroup.padic import PadicMatrix, rep_from_approx
    from jigroup.perm import SubgroupHandle, mul

    G = catalog.cyclic(4)
    g = G.generators[0]
    if approx:
        rep = rep_from_approx(G, [[[-1]]], PadicMatrix.from_rational([[1]], 2, 8))
    else:
        rep = rep_from_data(G, [[[-1]]])
    assert rep.kernel == frozenset([G.identity(), mul(g, g)]) and not rep.faithful
    restricted = rep.restrict(SubgroupHandle(G, [mul(g, g)]))
    assert len(restricted.element_map) == 2 and not restricted.faithful
    assert rep.restrict(SubgroupHandle.trivial(G)).faithful


def test_rep_from_data_relation_violation():
    G = catalog.cyclic(4)
    with pytest.raises(RelationViolation):
        rep_from_data(G, [[[0, -1], [1, -1]]])  # order 3 matrix on C4


def test_rep_from_data_singular_rejected():
    G = catalog.cyclic(2)
    with pytest.raises(ValueError):
        rep_from_data(G, [[[1, 0], [0, 0]]])


def test_commutant_dimensions():
    assert len(commutant(c3_companion_rep())) == 2
    assert len(commutant(c2_diag_rep())) == 2
    assert len(commutant(q8_quaternion_rep())) == 4
    assert len(commutant(d8_natural_rep())) == 1


def test_commutant_trivial_group_full_matrix_algebra():
    G = catalog.cyclic(2)
    rep = rep_from_data(G, [[[1, 0], [0, 1]]])
    assert len(commutant(rep)) == 4


def test_sampler_clears_the_basis_once_and_keeps_its_samples(monkeypatch):
    basis = commutant(q8_quaternion_rep())
    want = []
    rng = random.Random(0)
    for _ in range(64):
        want.append(rm.mat_combination([rng.randint(-5, 5) for _ in basis], basis))
    cleared = []
    real = rm._cleared
    monkeypatch.setattr(rm, "_cleared", lambda a: cleared.append(a) or real(a))
    combine = rm.combiner(basis)
    rng = random.Random(0)
    assert [_sample_element(combine, len(basis), rng) for _ in range(64)] == want
    assert cleared == list(basis)


def test_algebra_structure_scalars():
    st = algebra_structure(commutant(d8_natural_rep()))
    assert st.kind == "scalars"


def test_algebra_structure_field():
    st = algebra_structure(commutant(c3_companion_rep()))
    assert st.kind == "field"
    mp = st.data["minpoly"]
    assert len(mp) == 3 and mp[2] == 1
    # whatever generator was sampled, the field is Q(sqrt(-3))
    from math import isqrt

    disc = mp[1] * mp[1] - 4 * mp[0]
    q = Fraction(-disc, 3)
    assert disc < 0 and q.denominator == 1 and isqrt(q.numerator) ** 2 == q.numerator


def test_algebra_structure_split():
    st = algebra_structure(commutant(c2_diag_rep()))
    assert st.kind == "split"
    e = st.data["idempotent"]
    assert rm.mat_mul(e, e) == e


def test_algebra_structure_quaternion():
    st = algebra_structure(commutant(q8_quaternion_rep()))
    assert st.kind == "quaternion_over_Q"
    a, b = st.data["a"], st.data["b"]
    # (a, b) must be a division quaternion algebra over Q: equivalent to
    # (-1, -1) after the sampling; check the division property directly
    from jigroup.hilbert import quaternion_is_division

    assert quaternion_is_division(a, b, "Q")


def test_algebra_center():
    comm = commutant(q8_quaternion_rep())
    assert len(algebra_center(comm)) == 1
    comm2 = commutant(c3_companion_rep())
    assert len(algebra_center(comm2)) == 2


def _corpus_reps():
    """The rational reps of the suite and of every Z-ring and rational Z_p
    golden profile, each with its restrictions to the maximal subgroups."""
    from test_padic_ext import q8c3_rep

    from jigroup import fixtures
    from jigroup.profile_io import parse_profile

    golden = Path(__file__).resolve().parent / "golden"
    reps = [c3_companion_rep(), c2_diag_rep(), q8_quaternion_rep(), d8_natural_rep(),
            _s3_sum_zero_rep(), fixtures.q16_integral_rep(), q8c3_rep(),
            q8c3_rep(Fraction(1, 3))]
    reps += [parse_profile(f.read_text()).action for f in sorted(golden.glob("*.profile"))
             if "kind va" in f.read_text()]
    reps += [rep.restrict(M) for rep in reps for M in maximal_subgroups(rep.group)]
    return [rep for rep in reps if rep.ring == "Q"]


def test_algebra_center_matches_the_centralizer_oracle():
    """The centre solved in the algebra's coordinates is the centralizer met
    with the span, on every corpus commutant, and on each commutant basis
    rescaled by a different fraction per element, which has non-integral
    entries and integer multiples that are not the basis itself."""
    kinds = set()
    for rep in _corpus_reps():
        basis = commutant(rep)
        want = center_by_centralizer(basis)
        assert algebra_center(basis) == want
        rescaled = tuple(rm.mat_combination((Fraction(k + 2, 2 * k + 3),), (b,))
                         for k, b in enumerate(basis))
        assert any(x.denominator > 1 for b in rescaled for row in b for x in row)
        assert algebra_center(rescaled) == want
        kinds.add((len(basis), len(want)))
    # scalars, fields, M_2(Q), and quaternion algebras over Q and Q(sqrt -3)
    assert {(1, 1), (2, 2), (4, 1), (8, 2)} <= kinds


def test_algebra_center_solves_in_the_algebras_coordinates(monkeypatch):
    """One nullspace, dim columns wide; the d^2-unknown commutation rows of
    the centralizer are never built."""
    from jigroup.fixtures import q16_integral_rep

    basis = commutant(q16_integral_rep())
    widths = []
    real_nullspace = rm.nullspace

    def spy(rows):
        widths.append(len(rows[0]))
        return real_nullspace(rows)

    def forbidden(mats):
        raise AssertionError("algebra_center built commutation rows")

    monkeypatch.setattr(rm, "nullspace", spy)
    monkeypatch.setattr(rep_module, "commutation_rows", forbidden)
    assert len(algebra_center(basis)) == 2
    assert widths == [len(basis)] == [8]


def test_invariant_complement_reads_the_projector_off_the_rref(monkeypatch):
    """_invariant_complement calls neither rm.rref nor rm.mat_inv itself, and
    its start projector is the former minv . sel . m product on every
    invariant subspace the corpus splits off."""
    callers = []

    def spied(fn):
        def call(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return fn(*args)
        return call

    spaces = []
    real_complement = rep_module._invariant_complement

    def complement(rep, w_rows):
        spaces.append(rm.row_space_canonical(w_rows))
        return real_complement(rep, w_rows)

    monkeypatch.setattr(rm, "rref", spied(rm.rref))
    monkeypatch.setattr(rm, "mat_inv", spied(rm.mat_inv))
    monkeypatch.setattr(rep_module, "_invariant_complement", complement)
    for rep in _corpus_reps():
        if irreducible_over_Q(rep).status == REDUCIBLE:
            decompose_over_Q(rep)
    assert len(spaces) > 10 and callers
    assert "_invariant_complement" not in callers
    monkeypatch.undo()
    rng = random.Random("projector")
    for _ in range(40):
        d = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                 for _ in range(d)] for _ in range(rng.randint(1, d))]
        canon = rm.row_space_canonical(rows)
        if canon:
            spaces.append(canon)
    for canon in spaces:
        assert rep_module._pivot_projector(canon) == start_projector_by_inverse(canon)


def test_irreducible_over_Q_verdicts():
    assert irreducible_over_Q(c3_companion_rep()).status == IRREDUCIBLE
    v = irreducible_over_Q(c2_diag_rep())
    assert v.status == REDUCIBLE
    assert len(v.witness["subspace"]) == 1
    assert irreducible_over_Q(q8_quaternion_rep()).status == IRREDUCIBLE
    assert irreducible_over_Q(d8_natural_rep()).status == IRREDUCIBLE


def test_reducible_witness_is_invariant():
    v = irreducible_over_Q(c2_diag_rep())
    (w,) = v.witness["subspace"]
    rep = c2_diag_rep()
    for g in rep.gen_images:
        img = tuple(sum(w[k] * g[k][j] for k in range(2)) for j in range(2))
        # image must be a multiple of w
        assert img[0] * w[1] == img[1] * w[0]


def test_decompose_c2_diag():
    pieces = decompose_over_Q(c2_diag_rep())
    assert sorted(len(p) for p in pieces) == [1, 1]


def test_decompose_regular_rep_s3():
    # permutation rep of S3 on 3 points: trivial + standard
    G = catalog.symmetric(3)
    mats = []
    for g in G.generators:
        mats.append([[1 if g[j] == i else 0 for j in range(3)] for i in range(3)])
    rep = rep_from_data(G, mats)
    pieces = decompose_over_Q(rep)
    assert sorted(len(p) for p in pieces) == [1, 2]


def test_block_system_q8():
    v = matrix_block_system(q8_quaternion_rep())
    assert v.status == "imprimitive"
    blocks = v.witness["blocks"]
    assert len(blocks) == 2
    assert all(len(b) == 2 for b in blocks)


def test_block_system_c3_primitive():
    v = matrix_block_system(c3_companion_rep())
    assert v.status == "primitive"
    reasons = {row["reason"] for row in v.witness["per_maximal"]}
    assert "index does not divide dimension" in reasons


def test_block_system_d8_imprimitive():
    v = matrix_block_system(d8_natural_rep())
    assert v.status == "imprimitive"
    assert all(len(b) == 1 for b in v.witness["blocks"])


def test_block_system_rejects_reducible():
    with pytest.raises(ValueError):
        matrix_block_system(c2_diag_rep())


def test_block_system_scans_over_Qp_with_the_seed_exactly_when_p_is_given(monkeypatch):
    from jigroup import padic

    seen = []
    for name in ("irreducible_over_Qp", "decompose_over_Qp"):
        def spy(rep, p, precision=None, seed=0, name=name, real=getattr(padic, name)):
            seen.append((name, p, seed))
            return real(rep, p, precision, seed)

        monkeypatch.setattr(padic, name, spy)
    rep = q8_quaternion_rep()
    assert matrix_block_system(rep, seed=5).status == "imprimitive"
    assert seen == []
    assert matrix_block_system(rep, seed=5, p=2).status == "imprimitive"
    assert {name for name, _, _ in seen} == {"irreducible_over_Qp", "decompose_over_Qp"}
    assert {(p, seed) for _, p, seed in seen} == {(2, 5)}
    # Q8 splits over Q_3, where (-1, -1) splits
    with pytest.raises(ValueError, match="requires an irreducible rep"):
        matrix_block_system(rep, p=3)
    # the field is no longer a separate argument, so it cannot contradict p
    for field in ("Qp", "R", "Q"):
        with pytest.raises(TypeError, match="field"):
            matrix_block_system(rep, field=field, p=2)


def test_restrict():
    rep = q8_quaternion_rep()
    M = maximal_subgroups(rep.group)[0]
    res = rep.restrict(M)
    assert res.dimension == 4
    assert len(res.element_map) == 4


def test_one_algebra_structure_per_rep_and_seed(monkeypatch):
    # the Q decider and the Q_p decider share one commutant analysis
    from jigroup.fixtures import q16_integral_rep
    from jigroup.padic import padic_split

    calls = []

    def counted(comm_basis, seed=0):
        calls.append(seed)
        return algebra_structure(comm_basis, seed)

    monkeypatch.setattr(rep_module, "algebra_structure", counted)
    rep8 = q16_integral_rep()
    assert irreducible_over_Q(rep8).status == IRREDUCIBLE
    assert sorted(s.dimension for s in padic_split(rep8, 2)) == [4, 4]
    assert irreducible_over_Q(rep8).status == IRREDUCIBLE
    assert calls == [0]
    irreducible_over_Q(rep8, seed=1)
    assert calls == [0, 1]


@pytest.fixture(scope="module")
def analysed_commutants():
    """Every commutant that verify-paper 2 and leethm classify, those of the
    reps of tests/corpora.py, and those of Q8 by rho_H and Q8 x C3."""
    import io

    from test_padic_ext import q8c3_rep

    import corpora
    from jigroup.cli import run_command

    seen = {}
    real = rep_module.algebra_structure

    def spy(comm_basis, seed=0):
        seen.setdefault(comm_basis, None)
        return real(comm_basis, seed)

    rep_module.algebra_structure = spy
    try:
        for target in ("2", "leethm"):
            status, _ = run_command(["--report", "machine", "verify-paper", target],
                                    io.StringIO())
            assert status == 0
    finally:
        rep_module.algebra_structure = real
    reps = [corpora.pro2_dihedral_profile().action, corpora.c3_rank2_profile().action,
            corpora.c3_rank2_profile_over_Z().action, q8_quaternion_rep(), q8c3_rep()]
    for r in reps:
        seen.setdefault(commutant(r), None)
    return list(seen)


@pytest.mark.parametrize("seed", range(4))
def test_division_precheck_gives_the_sampling_first_structure(analysed_commutants, seed):
    from oracles import algebra_structure_sampling_first

    kinds = set()
    for basis in analysed_commutants:
        st = algebra_structure(basis, seed)
        want = algebra_structure_sampling_first(basis, seed)
        assert (st.kind, st.data) == (want.kind, want.data)
        kinds.add(st.kind)
    assert {"quaternion_over_Q", "cyclic_algebra", "split", "field"} <= kinds


def test_division_commutant_skips_the_random_trials(monkeypatch):
    # Example 2's 8-dim commutant is (-1, -1) over Q(sqrt 2), ramified at
    # both real places: the 8 basis trials and the center's minimal
    # polynomial, none of the 56 random trials
    from jigroup.fixtures import q16_integral_rep
    from jigroup.rep import commutant_analysis

    rep8 = q16_integral_rep()
    commutant(rep8)
    calls = []
    monkeypatch.setattr(rm, "minimal_polynomial",
                        lambda m, real=rm.minimal_polynomial: calls.append(1) or real(m))
    st, verdict = commutant_analysis(rep8)
    assert st.kind == "cyclic_algebra" and verdict.status == IRREDUCIBLE
    assert len(calls) <= 9


def test_quaternion_zero_divisor_split_algebra():
    # (1, 1) is M_2(Q): i = diag(1, -1), j = swap, ij = -ji
    i_m = rm.mat([[1, 0], [0, -1]])
    j_m = rm.mat([[0, 1], [1, 0]])
    assert rm.mat_mul(i_m, j_m) == rm.mat_combination((-1,), (rm.mat_mul(j_m, i_m),))
    st = AlgebraStructure("quaternion_over_Q", (), {"a": Fraction(1), "b": Fraction(1),
                                                   "i": i_m, "j": j_m})
    zd = _quaternion_zero_divisor(st)
    assert zd is not None
    assert any(x != 0 for row in zd for x in row)
    assert rm.mat_det(zd) == 0


def test_block_system_reports_only_uncertified_splits(monkeypatch):
    def uncertified(res, seed=0):
        raise UncertifiedSplit("cannot certify constituent decomposition")

    monkeypatch.setattr(rep_module, "decompose_over_Q", uncertified)
    v = matrix_block_system(q8_quaternion_rep())
    assert v.status == "unknown"
    assert {row["reason"] for row in v.witness["per_maximal"]} == {
        "restriction split unknown"
    }

    def failed_certificate(res, seed=0):
        raise CertificateError("averaged projector is not idempotent")

    monkeypatch.setattr(rep_module, "decompose_over_Q", failed_certificate)
    with pytest.raises(CertificateError):
        matrix_block_system(q8_quaternion_rep())


def test_non_invariant_subspace_rejected_under_O():
    script = (
        "from jigroup import catalog\n"
        "from jigroup.rep import _verify_invariant, rep_from_data\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "rep = rep_from_data(catalog.cyclic(2), [[[1, 0], [0, -1]]])\n"
        "try:\n"
        "    _verify_invariant(rep, [(1, 1)])\n"
        "except CertificateError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: subspace is not invariant\n"


def _flat(m):
    return tuple(x for row in m for x in row)


def _oracle_pair_over_Q(basis, seed):
    """The quaternion builder for the center Q before the fold (slow oracle):
    sampled x with a quadratic minimal polynomial, i = x - t/2, then the
    first anticommuting j with scalar square whose span is 4-dimensional.
    A zero divisor j comes back as (j,); a sample with i^2 = 0 is skipped."""
    d = len(basis[0])
    rng = random.Random(seed + 1)
    for _ in range(SAMPLE_BUDGET):
        x = _sample_element(rm.combiner(basis), len(basis), rng)
        mp = rm.minimal_polynomial(x)
        if rm.poly_deg(mp) != 2:
            continue
        i_m = rm.mat_combination((1, mp[1] / 2), (x, rm.identity(d)))
        sq = rm.mat_mul(i_m, i_m)
        if sq != rm.mat_combination((sq[0][0],), (rm.identity(d),)) or sq[0][0] == 0:
            continue
        for j_m in anticommuting(i_m, basis):
            sqj = rm.mat_mul(j_m, j_m)
            if sqj != rm.mat_combination((sqj[0][0],), (rm.identity(d),)):
                continue
            if sqj[0][0] == 0:
                return (j_m,)
            span = [_flat(m) for m in (rm.identity(d), i_m, j_m, rm.mat_mul(i_m, j_m))]
            if rm.rank(span) == 4:
                return sq[0][0], sqj[0][0], i_m, j_m
    return None


def _oracle_pair_over_center(basis, w):
    """The quaternion builder for a quadratic center Q(w) before the fold
    (slow oracle): x the first basis element outside span(I, w)."""
    ident = rm.identity(len(w))

    def coords(m, over):
        return fraction_solve(rm.mat_transpose([_flat(c) for c in over]), _flat(m))

    x = next(c for c in basis if rm.rank([_flat(m) for m in (ident, w, c)]) == 3)
    alpha, beta, _, _ = coords(rm.mat_mul(x, x), (x, rm.mat_mul(w, x), ident, w))
    i_m = rm.mat_combination((1, -alpha / 2, -beta / 2), (x, ident, w))
    a_pair = coords(rm.mat_mul(i_m, i_m), (ident, w))
    if not any(a_pair):
        return (i_m,)
    for j_m in anticommuting(i_m, basis):
        b_pair = coords(rm.mat_mul(j_m, j_m), (ident, w))
        if b_pair is None:
            continue
        if not any(b_pair):
            return (j_m,)
        ij = rm.mat_mul(i_m, j_m)
        span = [_flat(m) for m in (ident, w, i_m, rm.mat_mul(w, i_m), j_m,
                                   rm.mat_mul(w, j_m), ij, rm.mat_mul(w, ij))]
        if rm.rank(span) == 8:
            return a_pair, b_pair, i_m, j_m
    return None


def _pair_of(st):
    return tuple(st.data[k] for k in ("a", "b", "i", "j"))


def test_quaternion_pair_matches_the_builders_it_replaced():
    from test_padic_ext import q8c3_rep

    from jigroup.fixtures import q16_integral_rep

    q8 = commutant(q8_quaternion_rep())
    q16 = commutant(q16_integral_rep())
    q16_pair = _oracle_pair_over_center(q16, _noncentral_scalar_part(algebra_center(q16), 8))
    for seed in range(8):
        st = algebra_structure(q8, seed)
        assert st.kind == "quaternion_over_Q"
        assert _pair_of(st) == _oracle_pair_over_Q(q8, seed)
        st = algebra_structure(q16, seed)
        assert st.kind == "cyclic_algebra"
        assert _pair_of(st) == q16_pair
    # Q8 x C3: the pair does not depend on the seed, and only seed 0 reaches
    # it (the other seeds sample an idempotent of M_2(Q(sqrt -3)) first)
    q8c3 = commutant(q8c3_rep())
    st = algebra_structure(q8c3, 0)
    assert st.kind == "cyclic_algebra"
    assert _pair_of(st) == _oracle_pair_over_center(
        q8c3, _noncentral_scalar_part(algebra_center(q8c3), 8))


def test_quaternion_pair_on_the_matrix_units():
    units = tuple(rm.mat([[int((r, c) == (i, j)) for j in range(2)] for i in range(2)])
                  for r in range(2) for c in range(2))
    ident = rm.identity(2)
    e12 = units[1]
    assert quaternion_pair(units, (ident,), e12) == (e12,)  # i^2 = 0
    # i = diag(1, -1), i^2 = 1; the first anticommuting j is E12, j^2 = 0
    assert quaternion_pair(units, (ident,), rm.mat([[1, 0], [0, -1]])) == (e12,)
    assert quaternion_pair(units, (ident,), ident) is None  # x in the center


def test_subspace_restriction_matches_the_element_by_element_oracle(monkeypatch):
    """The generator images closed over the group give the element map that
    one solve per row of every element's image gives, on every restriction
    that decompose_over_Q makes of Example 2's 8-dim rep and of Q8 by rho_H
    (their maximal subgroups), and of C2 on its trivial subgroup."""
    from jigroup import padic
    from jigroup.fixtures import q16_integral_rep
    from oracles import subspace_restriction_by_elements

    calls = []
    real = rep_module._subspace_restriction

    def compared(rep, rows):
        new, lift = real(rep, rows)
        old, old_lift = subspace_restriction_by_elements(rep, rows)
        assert lift == old_lift
        assert new.element_map == old.element_map
        assert (new.gen_images, new.faithful, new.dimension) == (
            old.gen_images, old.faithful, old.dimension)
        calls.append(rep.group.order)
        return new, lift

    monkeypatch.setattr(rep_module, "_subspace_restriction", compared)
    monkeypatch.setattr(padic, "_subspace_restriction", compared)
    for rep in (q16_integral_rep(), q8_quaternion_rep()):
        for M in maximal_subgroups(rep.group):
            decompose_over_Q(rep.restrict(M))
        matrix_block_system(rep)
    assert matrix_block_system(q8_quaternion_rep(), p=2).status == "imprimitive"
    trivial = maximal_subgroups(catalog.cyclic(2))[0]
    assert sorted(map(len, decompose_over_Q(c2_diag_rep().restrict(trivial)))) == [1, 1]
    assert sorted(set(calls)) == [1, 4, 8]


def _s3_sum_zero_rep():
    """S3 on the sum-zero lattice, basis e0 - e2, e1 - e2, conjugated by
    diag(1, 2); its C3 restriction is the companion rep of x^2 + x + 1
    conjugated the same way."""
    G = catalog.symmetric(3)

    def image(g):
        rows = []
        for k in range(2):
            v = [0, 0, 0]
            v[g[k]] += 1
            v[g[2]] -= 1
            rows.append(v[:2])
        return [[Fraction(rows[i][j] * (i + 1), j + 1) for j in range(2)] for i in range(2)]

    return rep_from_data(G, [image(g) for g in G.generators])


def test_block_system_with_an_undecided_constituent_is_unknown():
    # the C3 restriction is undecided over Q_2 (its minimal polynomial has
    # the integer model x^2 - 2x + 4), so the scan cannot certify primitivity
    rep = _s3_sum_zero_rep()
    assert matrix_block_system(rep).status == "primitive"
    v = matrix_block_system(rep, p=2)
    assert v.status == "unknown"
    reasons = {row["maximal_order"]: row["reason"] for row in v.witness["per_maximal"]}
    assert reasons[3] == "restriction split unknown"
