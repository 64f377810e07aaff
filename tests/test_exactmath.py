from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exsquares.exactmath import (DomainError, is_perfect_square, isqrt,
                                 rational_sqrt, vec_gcd)

BIG = 10 ** 90 + 12345  # ~600 bits once squared


def test_isqrt_exact_on_squares():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(144) == 12
    assert isqrt(BIG * BIG) == BIG


def test_isqrt_floors():
    assert isqrt(2) == 1
    assert isqrt(143) == 11
    assert isqrt(BIG * BIG - 1) == BIG - 1
    assert isqrt(BIG * BIG + 1) == BIG


def test_isqrt_rejects_negative():
    with pytest.raises(DomainError):
        isqrt(-4)


@given(st.integers(min_value=0, max_value=10 ** 40))
def test_isqrt_bracket(v):
    r = isqrt(v)
    assert r * r <= v < (r + 1) * (r + 1)


def test_is_perfect_square():
    assert is_perfect_square(0)
    assert is_perfect_square(BIG * BIG)
    assert not is_perfect_square(2)
    assert not is_perfect_square(BIG * BIG - 1)
    assert not is_perfect_square(-9)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2, 3)) is None
    assert rational_sqrt(Fraction(-9, 4)) is None
    assert rational_sqrt(Fraction(BIG * BIG, 49)) == Fraction(BIG, 7)


def test_vec_gcd():
    assert vec_gcd([5, 10, 15]) == 5
    assert vec_gcd([-4, 6]) == 2
    assert vec_gcd([0, 0, 7]) == 7
    assert vec_gcd([1, 99]) == 1


def test_vec_gcd_all_zero():
    with pytest.raises(DomainError):
        vec_gcd([0, 0, 0])


@given(st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
                min_size=1, max_size=8).filter(lambda vs: any(vs)))
def test_vec_gcd_divides_and_is_maximal(vs):
    g = vec_gcd(vs)
    assert g > 0
    assert all(v % g == 0 for v in vs)
    # dividing out g leaves nothing common
    assert vec_gcd([v // g for v in vs]) == 1
