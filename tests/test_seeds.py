import pytest

from oracles import Poly, X, lemma3_special
from exsquares.exactmath import DomainError
from exsquares.seeds import (ChainSolution, DegenerateParameterError,
                             lemma3_general, seed_n5_simple, seed_n6)
from exsquares.verify import validate_chain

TS = range(2, 22)  # 20 non-degenerate parameter values


def general_exclusions(n, t):
    """Closed forms for s - x_i^2 of the three entry shapes."""
    t2 = t * t
    rep = (n - 2) ** 2 * (t2 + 1) ** 6
    tail1 = 4 * t2 * ((n + 2) * t2 * t2 + (2 * n - 12) * t2 + (n + 2)) ** 2
    tail2 = (t2 - 1) ** 2 * ((n - 2) * t2 * t2 + (2 * n + 12) * t2
                             + (n - 2)) ** 2
    return rep, tail1, tail2


def test_general_family_validates_and_matches_closed_forms():
    for n in range(3, 13):
        for t in TS:
            sol = lemma3_general(n, t)
            assert sol.n == n
            assert validate_chain(sol).ok
            s = sum(x * x for x in sol.xs)
            assert s == sol.s
            rep, tail1, tail2 = general_exclusions(n, t)
            for x in sol.xs[: n - 2]:
                assert s - x * x == rep
            assert s - sol.xs[n - 2] ** 2 == tail1
            assert s - sol.xs[n - 1] ** 2 == tail2


def test_special_family_validates_and_matches_closed_forms():
    for m in (2, 3):
        n = m * m + 1
        for t in TS:
            sol = lemma3_special(m, t)
            assert sol.n == n
            assert validate_chain(sol).ok
            s = sum(x * x for x in sol.xs)
            for x in sol.xs[: n - 1]:
                assert s - x * x == ((n - 2) * t * t + 1) ** 2
            assert s - sol.xs[n - 1] ** 2 == 4 * m * m * t * t


def test_general_family_small_point():
    sol = lemma3_general(5, 2)
    assert sol.xs == (240, 240, 240, 33, 156)
    assert sol.ys == (375, 375, 375, 444, 417)
    assert sol.s == 198225
    # excluding one repeated entry leaves a square
    assert sol.s - 240 ** 2 == 140625 == 375 ** 2


def test_special_family_small_point():
    sol = lemma3_special(2, 3)
    assert sol.pairs == ((6, 28),) * 4 + ((26, 12),)
    assert sol.s == 820


def test_seed_n5_simple_structure():
    sol = seed_n5_simple(2)
    assert sol.pairs == ((4, 13), (4, 13), (-4, 13), (-4, 13), (11, 8))
    assert sol.s == 185
    assert validate_chain(sol).ok


def test_seed_n6_structure():
    sol = seed_n6(2)
    assert sol.n == len(sol.pairs) == 6
    assert sol.pairs[0] == (240, 500)
    assert sol.pairs[1] == (240, 500)
    assert sol.pairs[2] == (-240, 500)
    assert sol.pairs[3] == (-240, 500)
    assert sol.pairs[4] == (108, 544)
    assert sol.pairs[5] == (256, 492)
    assert validate_chain(sol).ok


def test_seeds_accept_polynomial_parameters():
    for build in (lambda: lemma3_general(7, X),
                  lambda: lemma3_special(2, X),
                  lambda: seed_n5_simple(X),
                  lambda: seed_n6(X)):
        sol = build()
        assert validate_chain(sol).ok
        assert isinstance(sol.s, Poly)


def test_degenerate_parameters_raise():
    with pytest.raises(DegenerateParameterError):
        seed_n5_simple(0)
    with pytest.raises(DegenerateParameterError):
        seed_n6(1)  # x_1 = 8t(t^4-1) vanishes
    with pytest.raises(DegenerateParameterError):
        lemma3_general(5, 1)
    with pytest.raises(DegenerateParameterError):
        lemma3_general(4, 0)
    with pytest.raises(DegenerateParameterError):
        lemma3_special(3, 0)


def test_size_bounds():
    with pytest.raises(DomainError):
        lemma3_general(2, 5)
    with pytest.raises(DomainError):
        lemma3_special(1, 5)


def test_from_pairs_records_first_pair_sum():
    # the shared sum comes from the first pair; consistency checking is
    # the validator's job, construction just records the data
    sol = ChainSolution.from_pairs(((3, 4), (5, 0)))
    assert sol.s == 25
    report = validate_chain(sol)
    assert not report.ok
    assert any(v.kind == "square-sum" for v in report.violations)
