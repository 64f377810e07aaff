import hashlib
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from goldens import M1_N5_T2, M1_N6_T2
from oracles import (NotAnImageError, Poly, X, inverse_transform,
                     lemma3_special)
from exsquares import evolve
from exsquares.exactmath import DomainError
from exsquares.seeds import (ChainSolution, DegenerateParameterError,
                             SquareSystem, lemma3_general, seed_n5_simple,
                             seed_n6)
from exsquares.evolve import (DistinctifyError, TransformCoefficients,
                              coefficients, distinctify, finalize_system,
                              flip, generate_method1, method1_seed,
                              reduce_chain, transform)
from exsquares.verify import validate_chain, validate_system


def _builders(t):
    out = [lambda n=n: lemma3_general(n, t) for n in range(3, 10)]
    out += [lambda: lemma3_special(2, t), lambda: lemma3_special(3, t),
            lambda: seed_n5_simple(t), lambda: seed_n6(t)]
    return out


@given(st.data())
@settings(max_examples=220)
def test_transform_preserves_validity_and_round_trips(data):
    """Random (family, parameter, flip pattern) instances.

    The transform must keep the chain equations true, the pair identity
    must hold on both sides, and the inverse must recover the input.
    """
    t = data.draw(st.integers(min_value=2, max_value=40))
    build = data.draw(st.sampled_from(_builders(t)))
    sol = build()
    pattern = data.draw(st.sets(st.integers(0, sol.n - 1)))
    flipped = flip(sol, pattern)
    assert validate_chain(flipped).ok

    out = transform(flipped)
    assert validate_chain(out).ok
    for a, b in out.pairs:  # pair identity downstream
        assert a * a + b * b == out.s

    back = inverse_transform(out, coefficients(flipped))
    assert back == flipped
    for a, b in back.pairs:  # and back upstream
        assert a * a + b * b == flipped.s


@given(st.data())
@settings(max_examples=120)
def test_from_pairs_reduces_and_canonicalizes(data):
    """A scaled, sign-scrambled chain reduces to the original's system."""
    t = data.draw(st.integers(min_value=2, max_value=40))
    sol = data.draw(st.sampled_from(_builders(t)))()
    k = data.draw(st.integers(min_value=2, max_value=10 ** 6))
    signs = st.sampled_from((1, -1))
    scaled = [(data.draw(signs) * k * x, data.draw(signs) * k * y)
              for x, y in sol.pairs]
    system = SquareSystem.from_pairs(scaled)
    assert system == SquareSystem.from_pairs(sol.pairs)
    entries = system.roots + system.certificates
    assert min(entries) >= 0
    assert gcd(*entries) == 1
    assert validate_system(system, require_distinct=False).ok


def _per_pair_transform(sol):
    """Reference: P, S and every image computed pair by pair."""
    p = sum(x * y for x, y in sol.pairs)
    s = sum(x * x for x, _ in sol.pairs)
    a, b = (sol.n - 2) * s, 2 * p
    return (TransformCoefficients(P=p, S=s), ChainSolution.from_pairs(
        (a * x - b * y, b * x + a * y) for x, y in sol.pairs))


@given(st.data())
@settings(max_examples=200)
def test_shared_products_equal_the_per_pair_reference(data):
    """transform and coefficients multiply out each (+-x, y) class once;
    on chains with repeated classes, random flips and zero entries they
    must give what the per-pair formulas give."""
    if data.draw(st.booleans()):
        t = data.draw(st.integers(min_value=2, max_value=40))
        sol = data.draw(st.sampled_from(_builders(t)))()
        pairs = sol.pairs
    else:  # arbitrary pairs, not chains: the transform is defined anyway
        ints = st.integers(min_value=-10 ** 30, max_value=10 ** 30)
        pool = data.draw(st.lists(st.tuples(ints | st.just(0), ints),
                                  min_size=1, max_size=4))
        pairs = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=12))
    signs = data.draw(st.lists(st.sampled_from((1, -1)),
                               min_size=len(pairs), max_size=len(pairs)))
    sol = ChainSolution.from_pairs((e * x, y)
                                   for e, (x, y) in zip(signs, pairs))
    co, image = _per_pair_transform(sol)
    assert coefficients(sol) == co
    assert transform(sol) == image


# sha256 of the hex roots, certificates and s of generate_method1(n, 2),
# computed before the transform shared its products between pairs.
M1_T2_DIGESTS = {
    64: "57b887e4430cca75dd215c04a6c32b4118c957374a423c07bb0f84d3c840f6ff",
    96: "e2440e9233ea69a4b36950e2f55178b4a59d21c20b61101edc48614bc230a1a7",
    128: "f5f70410f03ea74805a6fcd841b2cf5adce53166101bbeab5a353de2c5a804ea",
}


@pytest.mark.parametrize("n", sorted(M1_T2_DIGESTS))
def test_generate_method1_large_n_is_pinned(n):
    system = generate_method1(n, 2)
    text = " ".join(hex(v) for v in (*system.roots, *system.certificates,
                                     system.s))
    assert hashlib.sha256(text.encode()).hexdigest() == M1_T2_DIGESTS[n]


def _method1_line(n, t):
    """n, t and generate_method1(n, t) in hex, or the error it raises."""
    try:
        system = generate_method1(n, t)
    except DomainError as exc:
        return f"{n} {t} {type(exc).__name__}: {exc}\n"
    return f"{n} {t} " + " ".join(hex(v) for v in (
        *system.roots, *system.certificates, system.s)) + "\n"


def test_generate_method1_panel_is_pinned():
    """Every output and error text at n = 3..32, t = -8..8, and at
    n = 40, 64, 72, t = 2, as computed when each round still ended in a
    gcd reduction."""
    points = [(n, t) for n in range(3, 33) for t in range(-8, 9)]
    points += [(40, 2), (64, 2), (72, 2)]
    text = "".join(_method1_line(n, t) for n, t in points)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "156ce7f7b224d5ccbfa0e8c0a0cd578a9f65e00b1d66bece34c1710e277f767a"


def test_coefficients_are_the_two_weighted_sums():
    sol = seed_n5_simple(2)
    co = coefficients(sol)
    assert co == TransformCoefficients(P=88, S=185)
    assert co.P == sum(x * y for x, y in sol.pairs)
    assert co.S == sum(x * x for x, y in sol.pairs)


def test_inverse_rejects_non_image():
    sol = seed_n5_simple(2)
    with pytest.raises(NotAnImageError):
        inverse_transform(sol, coefficients(sol))


def test_flip_negates_roots_only():
    sol = seed_n5_simple(3)
    flipped = flip(sol, (0, 4))
    assert flipped.pairs[0] == (-sol.pairs[0][0], sol.pairs[0][1])
    assert flipped.pairs[4] == (-sol.pairs[4][0], sol.pairs[4][1])
    assert flipped.pairs[1:4] == sol.pairs[1:4]
    assert flip(flipped, (0, 4)) == sol
    with pytest.raises(DomainError):
        flip(sol, (5,))


def test_reduce_chain_strips_joint_content():
    sol = seed_n5_simple(2)
    scaled = type(sol)(sol.n, tuple((6 * x, 6 * y) for x, y in sol.pairs),
                       36 * sol.s)
    assert reduce_chain(scaled) == sol


def _canon(p):
    return p if p.coeffs[-1] > 0 else -p


def _content_reduce(sol):
    """Divide polynomial pairs by the gcd of all their integer coefficients."""
    g = 0
    for x, y in sol.pairs:
        for c in x.coeffs + y.coeffs:
            assert c.denominator == 1
            g = gcd(g, c.numerator)
    return ChainSolution.from_pairs(
        (Poly(c // g for c in x.coeffs), Poly(c // g for c in y.coeffs))
        for x, y in sol.pairs)


def _polynomial_rounds(n):
    """Oracle: the halving rounds of method 1 run over polynomials in t.

    Each round negates the entries with a negative leading coefficient,
    then the back half of every block of identical pairs, transforms and
    strips the integer content.  Returns the distinct family and, per
    round, the index set negated in total.
    """
    sol = method1_seed(n, X)
    flips = []
    while len({_canon(x) for x in sol.xs}) < n:
        negative = {i for i, x in enumerate(sol.xs) if x.lead < 0}
        blocks = {}
        for i, (x, y) in enumerate(sol.pairs):
            blocks.setdefault((_canon(x), y), []).append(i)
        back = {i for members in blocks.values()
                for i in members[len(members) - len(members) // 2:]}
        flips.append(frozenset(negative ^ back))
        sol = _content_reduce(transform(flip(sol, flips[-1])))
    return sol, tuple(flips)


def _family_at(n, family, t):
    """What evaluating the polynomial family at t gives, or the error."""
    try:
        method1_seed(n, t)
        pairs = [(int(x(t)), int(y(t))) for x, y in family.pairs]
        return finalize_system(pairs, f"t={t}")
    except DomainError as exc:
        return type(exc), str(exc)


def test_schedules_are_the_polynomial_rounds():
    for n, schedule in evolve._SCHEDULES.items():
        assert _polynomial_rounds(n)[1] == tuple(map(frozenset, schedule))


@pytest.mark.parametrize("n", [5, 6])
def test_generate_method1_equals_polynomial_family(n):
    family, _ = _polynomial_rounds(n)
    for t in range(-60, 61):
        want = _family_at(n, family, t)
        try:
            got = generate_method1(n, t)
        except DomainError as exc:
            got = type(exc), str(exc)
        assert got == want, t


def test_one_transform_round_matches_printed_intermediate():
    one = Poly([1])
    x1 = -2 * X * (9 * X ** 4 - 30 * X * X - 7 * one)
    x3 = 2 * X * (63 * X ** 4 + 30 * X * X - one)
    x5 = (3 * X * X - one) * (27 * X ** 4 - 2 * X * X + 3 * one)
    y1 = 81 * X ** 6 + 165 * X ** 4 + 23 * X * X + 3 * one
    y3 = 81 * X ** 6 + 69 * X ** 4 + 55 * X * X + 3 * one
    y5 = 4 * X * (45 * X ** 4 + 18 * X * X + 5 * one)

    out = _content_reduce(transform(seed_n5_simple(X)))
    want = ((x1, y1), (x1, y1), (x3, y3), (x3, y3), (x5, y5))
    for (gx, gy), (wx, wy) in zip(out.pairs, want):
        # each entry's sign is a free choice; compare positive-lead forms
        assert _canon(gx) == _canon(wx)
        assert _canon(gy) == _canon(wy)


def test_degree_growth_at_most_threefold():
    for seed in (seed_n5_simple(X), seed_n6(X), lemma3_general(7, X)):
        d = max(max(x.degree, y.degree) for x, y in seed.pairs)
        out = transform(seed)
        assert max(max(x.degree, y.degree) for x, y in out.pairs) <= 3 * d


def test_distinctify_auto_reaches_published_family_values():
    system = distinctify(seed_n5_simple(2))
    assert system.distinct
    assert sorted(system.roots) == M1_N5_T2


def test_distinctify_reports_surviving_multiplicities(monkeypatch):
    monkeypatch.setattr(evolve, "MAX_ROUNDS", 0)
    with pytest.raises(DistinctifyError) as err:
        distinctify(seed_n5_simple(2))
    assert err.value.multiplicities == [1, 4]
    monkeypatch.setattr(evolve, "MAX_ROUNDS", 1)
    with pytest.raises(DistinctifyError) as err:
        distinctify(seed_n5_simple(2))
    assert err.value.multiplicities == [1, 2, 2]


def test_method1_family_is_polynomial_and_distinct():
    family, _ = _polynomial_rounds(5)
    assert all(isinstance(p, Poly) for p in family.xs)
    assert len({_canon(p) for p in family.xs}) == 5
    degs = sorted(p.degree for p in family.xs)
    assert degs == [17, 17, 17, 17, 18]


def test_generate_method1_published_values():
    assert sorted(generate_method1(5, 2).roots) == M1_N5_T2
    assert sorted(generate_method1(6, 2).roots) == M1_N6_T2


def test_generate_method1_other_sizes_validate():
    for n in (3, 4, 7, 8, 11):
        system = generate_method1(n, 3)
        assert system.distinct
        report = validate_system(system)
        assert report.ok, str(report)


def test_generate_method1_degenerate_parameter():
    with pytest.raises(DegenerateParameterError):
        generate_method1(5, 0)
    with pytest.raises(DegenerateParameterError):
        generate_method1(6, 1)
    with pytest.raises(DomainError):
        generate_method1(2, 5)
