from fractions import Fraction
from itertools import product

import pytest

from jigroup.hilbert import (
    REAL_PLACE,
    hilbert_symbol,
    quaternion_is_division,
)

from oracles import solubility_oracle


def test_trivial_cases():
    assert hilbert_symbol(1, 7, 5) == 1
    assert hilbert_symbol(1, -3, 2) == 1
    assert hilbert_symbol(1, 5, REAL_PLACE) == 1
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1


def test_zero_inputs_rejected():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)
    with pytest.raises(ValueError):
        quaternion_is_division(1, 0, "Q")


@pytest.mark.parametrize("place", [4, 1, 0, -3, 9, "5", 2.0])
def test_non_places_rejected(place):
    with pytest.raises(ValueError, match="not a place"):
        hilbert_symbol(3, 2, place)


def test_symmetry_small_grid():
    vals = [Fraction(v) for v in (-5, -2, -1, 1, 2, 3, 5, Fraction(1, 2))]
    for p in (2, 3, 5, 7):
        for a in vals:
            for b in vals:
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


def test_bimultiplicative():
    vals = [-2, -1, 2, 3, 5]
    for p in (2, 3, 5, 7):
        for a1, a2, b in product(vals, vals, vals):
            lhs = hilbert_symbol(a1 * a2, b, p)
            rhs = hilbert_symbol(a1, b, p) * hilbert_symbol(a2, b, p)
            assert lhs == rhs, (a1, a2, b, p)


def test_square_invariance():
    for p in (2, 3, 5):
        for a in (-5, -1, 2, 3):
            for b in (-2, -1, 5, 7):
                assert hilbert_symbol(a, b, p) == hilbert_symbol(a * 9, b * 4, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_formula_matches_solubility_oracle(p):
    # acceptance pairs: all of {+-1, +-2, +-5, +-p} x same
    base = {1, -1, 2, -2, 5, -5, p, -p}
    for a in sorted(base):
        for b in sorted(base):
            formula = hilbert_symbol(a, b, p)
            oracle = solubility_oracle(a, b, p)
            assert (formula == 1) == oracle, (a, b, p)


def test_real_place_rule():
    for a in (-7, -1, 1, 3):
        for b in (-5, -2, 2, 11):
            assert hilbert_symbol(a, b, REAL_PLACE) == (
                -1 if a < 0 and b < 0 else 1
            )


def test_product_formula():
    # over all places, the symbols multiply to +1
    pairs = [(-1, -1), (2, 3), (-2, 5), (3, 3), (-5, -7), (6, 10)]
    for a, b in pairs:
        places = [REAL_PLACE, 2, 3, 5, 7, 11, 13]
        prod_val = 1
        for pl in places:
            prod_val *= hilbert_symbol(a, b, pl)
        assert prod_val == 1, (a, b)


def test_quaternion_division():
    assert quaternion_is_division(-1, -1, ("Qp", 2))
    assert not quaternion_is_division(1, 1, "Q")
    assert not quaternion_is_division(1, 1, ("Qp", 2))
    assert quaternion_is_division(-1, -1, "Q")
    assert quaternion_is_division(-1, -1, "R")
    assert not quaternion_is_division(2, 3, ("Qp", 7))
    # (p, u) with u a nonresidue is division at p
    assert quaternion_is_division(3, 5, ("Qp", 3)) == (
        hilbert_symbol(3, 5, 3) == -1
    )


def test_rational_arguments():
    assert hilbert_symbol(Fraction(-1, 4), Fraction(-9), 2) == hilbert_symbol(
        -1, -1, 2
    )
