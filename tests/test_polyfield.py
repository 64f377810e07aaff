"""Poly, the ring Z[x]: derive.Poly and its subclass in oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exsquares import derive
from exsquares.exactmath import DomainError
from oracles import Poly, X

coeff = st.integers(min_value=-50, max_value=50)
polys = st.lists(coeff, min_size=1, max_size=6).map(Poly)


def test_construction_trims_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0]).degree == -1
    assert not Poly([0])
    assert Poly([3, 0, 1]).degree == 2
    assert Poly([3, 0, 1]).lead == 1


def test_evaluation_and_arithmetic():
    p = (X + Poly([1])) * (X - Poly([2]))
    assert p(5) == 6 * 3
    assert p(Fraction(1, 2)) == Fraction(3, 2) * Fraction(-3, 2)
    assert p == X * X - X - Poly([2])


@given(polys, polys, polys)
@settings(max_examples=120)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Poly([0])


def _int_coeffs(p):
    return all(type(c) is int for c in p.coeffs)


@given(polys, polys, st.integers(min_value=0, max_value=4), coeff)
@settings(max_examples=60)
def test_int_coefficients_stay_int(a, b, k, x):
    for p in (a + b, a - b, a * b, -a, a ** k, 3 * a, a + 1, 1 - a):
        assert _int_coeffs(p)
    assert type(a.lead) is int
    assert type(a(x)) is int


def test_zero_polynomial_has_int_lead_and_value():
    assert type(Poly().lead) is int and Poly().lead == 0
    assert type(Poly()(7)) is int and Poly()(7) == 0


def test_fraction_coefficients_are_rejected():
    # Poly is Z[x]: a Fraction coefficient, even an integral one, raises
    half = Fraction(1, 2)
    for coeffs in ([1, half], [Fraction(2)]):
        with pytest.raises(DomainError, match="non-integer polynomial "
                                              "coefficient"):
            Poly(coeffs)
    # evaluation at a Fraction point still gives a Fraction
    p = X + Poly([1])
    assert type(p(half)) is Fraction and p(half) == Fraction(3, 2)


def test_float_coefficients_are_rejected():
    with pytest.raises(DomainError, match="inexact polynomial coefficient"):
        Poly([1, 0.5])
    with pytest.raises(DomainError):
        Poly([2.0])


def test_results_keep_the_class_of_their_operands():
    # derive builds in its own class, the tests in the oracle subclass
    base = derive.Poly([0, 1])
    for p in (base + 1, 1 + base, base - 1, -base, base * base, 2 * base):
        assert type(p) is derive.Poly
    for p in (X + 1, 1 + X, X - 1, 1 - X, -X, X * X, 2 * X, X ** 3):
        assert type(p) is Poly
