from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exsquares.polyfield import Poly, X

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
