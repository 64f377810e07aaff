from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exsquares.polyfield import HomogPoly, Poly, X, homog_eval

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


def test_homog_text_parse_round_trip():
    h = HomogPoly.parse(" (1, -2, 0,7) ")
    assert h == HomogPoly((1, -2, 0, 7))
    assert str(h.coeffs) == "(1, -2, 0, 7)"
    assert HomogPoly.parse(str(h.coeffs)) == h


@given(st.lists(coeff, min_size=1, max_size=7),
       st.integers(min_value=-9, max_value=9).filter(bool),
       st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20))
@settings(max_examples=150)
def test_homog_eval_is_homogeneous(cs, lam, u, v):
    h = HomogPoly(tuple(cs))
    d = len(cs) - 1
    assert homog_eval(h, lam * u, lam * v) == lam ** d * homog_eval(h, u, v)


def test_homog_round_trips_with_poly():
    # at v = 1 the form is the Poly in u with the tuple reversed
    h = HomogPoly((2, 0, -3, 5))
    p = Poly(reversed(h.coeffs))
    assert p == Poly([5, -3, 0, 2])
    assert HomogPoly(reversed(p.coeffs)) == h
    for t in range(-4, 5):
        assert homog_eval(h, t, 1) == p(t)
