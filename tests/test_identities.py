from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import Poly, X, chain4_norm, chain8_norm
from exsquares.identities import (CHAIN4_FLIPS, CHAIN8_FLIPS, chain4,
                                  chain8, pair_norm, phi, psi)

ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
pairs = st.tuples(ints, ints)


@given(pairs, pairs, pairs)
@settings(max_examples=250)
def test_phi_norm(f, g, h):
    assert pair_norm(phi(*f, *g, *h)) == \
        pair_norm(f) * pair_norm(g) * pair_norm(h)


@given(pairs, pairs, pairs, pairs)
@settings(max_examples=250)
def test_psi_norm(e, f, g, h):
    assert pair_norm(psi(*e, *f, *g, *h)) == \
        pair_norm(e) * pair_norm(f) * pair_norm(g) * pair_norm(h)


@given(pairs, pairs, pairs)
@settings(max_examples=250)
def test_chain4_members_share_the_product_norm(p, q, r):
    members = chain4(p, q, r)
    assert len(members) == 4
    want = chain4_norm(p, q, r)
    for a, b in members:
        assert a * a + b * b == want


@given(pairs, pairs, pairs, pairs)
@settings(max_examples=250)
def test_chain8_members_share_the_product_norm(p, q, r, s):
    members = chain8(p, q, r, s)
    assert len(members) == 8
    want = chain8_norm(p, q, r, s)
    for a, b in members:
        assert a * a + b * b == want


def test_flip_tables_are_fixed():
    assert CHAIN4_FLIPS == ((), (0,), (1,), (2,))
    assert CHAIN8_FLIPS == ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2),
                            (0, 3))


def test_chain4_distinct_members_generically():
    members = chain4((1, 2), (3, 4), (5, 6))
    assert len({(a, b) for a, b in members}) == 4


def test_generic_scalars():
    # Fractions
    f = (Fraction(1, 2), Fraction(1, 3))
    g = (Fraction(2), Fraction(5, 7))
    h = (Fraction(-3, 4), Fraction(1))
    assert pair_norm(phi(*f, *g, *h)) == \
        pair_norm(f) * pair_norm(g) * pair_norm(h)
    # polynomials
    p = (X, Poly([1, 1]))
    q = (Poly([2]), X * X)
    r = (Poly([0, 0, 3]), Poly([1]))
    want = chain4_norm(p, q, r)
    for a, b in chain4(p, q, r):
        assert a * a + b * b == want
