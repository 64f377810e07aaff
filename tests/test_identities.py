from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import Poly, X, chain4_norm, chain8_norm, phi, psi
from exsquares import derive
from exsquares.identities import (CHAIN4_FLIPS, CHAIN8_FLIPS, chain4,
                                  chain8, pair_norm)

ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
pairs = st.tuples(ints, ints)
# 0, signs, and values past 2^200, where the products are big integers
wide_ints = st.one_of(st.sampled_from([0, 1, -1]), ints,
                      st.integers(min_value=-2 ** 260, max_value=2 ** 260))
wide_pairs = st.tuples(wide_ints, wide_ints)


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


def _flipped(params, mask):
    """The parameter pairs as components, those in mask conjugated."""
    return [c for k, (u1, u2) in enumerate(params)
            for c in ((u1, -u2) if k in mask else (u1, u2))]


def chain4_reference(p, q, r):
    return [phi(*_flipped((p, q, r), mask)) for mask in CHAIN4_FLIPS]


def chain8_reference(p, q, r, s):
    return [psi(*_flipped((p, q, r, s), mask)) for mask in CHAIN8_FLIPS]


@given(wide_pairs, wide_pairs, wide_pairs)
@settings(max_examples=300)
def test_chain4_equals_its_per_member_reference(p, q, r):
    assert chain4(p, q, r) == chain4_reference(p, q, r)


@given(wide_pairs, wide_pairs, wide_pairs, wide_pairs)
@settings(max_examples=300)
def test_chain8_equals_its_per_member_reference(p, q, r, s):
    assert chain8(p, q, r, s) == chain8_reference(p, q, r, s)


@pytest.mark.parametrize("chain, reference, count", [
    (chain4, chain4_reference, 3), (chain8, chain8_reference, 4)])
@given(data=st.data())
@settings(max_examples=40)
def test_chains_over_the_symbolic_pair(chain, reference, count, data):
    # derive.Poly itself, not the oracle subclass: it has no __rsub__,
    # so an int minus a polynomial in a chain would raise here.  The
    # pair (w : 1) goes in each argument position, as derive_n5 and
    # derive_n6 put it in some of them.
    ints_params = data.draw(st.lists(wide_pairs, min_size=count,
                                     max_size=count))
    for k in range(count):
        params = list(ints_params)
        params[k] = derive._symbolic_pair()
        got = chain(*params)
        assert all(type(c) is derive.Poly for member in got
                   for c in member)
        assert got == reference(*params)


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
