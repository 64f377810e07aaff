import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldens import M2_N5_12, M2_N6_12, M2_N7_21, M2_N8_21
from oracles import Poly, X, chain4_norm, fermat_square_fraction
from exsquares import derive
from exsquares.exactmath import DomainError, is_perfect_square, vec_gcd
from exsquares.identities import chain4
from exsquares.seeds import ChainSolution, DegenerateParameterError
from exsquares.derive import (ASSIGN_N5, ASSIGN_N6, ASSIGN_N7, ASSIGN_N8,
                              PIPELINES, ChainAssignment, DegenerateFormError,
                              IdenticallySquareError, NoFermatRootError,
                              NoRationalRootError, QuadraticForm,
                              UnsupportedQuarticError, assignment_pairs,
                              derive_n5, derive_n6, derive_n7, derive_n8,
                              discriminant, fermat_square,
                              n5_p_values, n5_r_values, n6_q_values,
                              n6_r_values, n6_s_values, n7_q_values,
                              n7_r_values, n7_s_values, n8_q_values,
                              n8_r_values, n8_s_values,
                              normalize_projective, pipeline, pipeline_n5,
                              pipeline_n6, pipeline_n7, pipeline_n8, residual,
                              solve_quadratic, vieta_second_root,
                              _HOLE, _symbolic_pair)
from exsquares.verify import validate_system

# coprime, distinct, both coordinates 1..8: 42 evaluation points
GRID = [(a, b) for a in range(1, 9) for b in range(1, 9)
        if a != b and math.gcd(a, b) == 1]


def proportional(got, want):
    return got[0] * want[1] == got[1] * want[0]


# --- assignments -----------------------------------------------------------

def test_assignment_tables_are_fixed():
    assert ASSIGN_N5.slots == ((1, "+ab"), (2, "+ab"), (3, "+ab"),
                               (1, "-ab"), (2, "-ab"))
    assert ASSIGN_N6.slots == ((1, "+ab"), (3, "+ba"), (4, "+ab"),
                               (5, "+ab"), (6, "+ab"), (7, "+ab"))
    assert ASSIGN_N7.slots == ((5, "+ab"), (5, "-ab"), (1, "+ab"),
                               (2, "+ab"), (4, "+ab"), (6, "+ab"),
                               (7, "+ba"))
    assert ASSIGN_N8.slots == ((1, "+ab"), (1, "-ab"), (5, "+ab"),
                               (5, "-ab"), (2, "+ab"), (4, "+ab"),
                               (6, "+ab"), (7, "+ba"))
    assert (ASSIGN_N5.n, ASSIGN_N6.n, ASSIGN_N7.n, ASSIGN_N8.n) == \
        (5, 6, 7, 8)


def test_assignment_slot_orientations():
    params = ((3, 1), (2, 5), (1, 4))
    members = chain4(*params)
    pairs = assignment_pairs(ASSIGN_N5, params)
    a1, b1 = members[0]  # slot sources are numbered from 1
    assert pairs[0] == (a1, b1)      # +ab
    assert pairs[3] == (-a1, b1)     # -ab
    swapped = assignment_pairs(
        ChainAssignment(4, ((1, "+ba"), (2, "+ab"), (3, "+ab"),
                            (1, "-ba"), (2, "-ab"))), params)
    assert swapped[0] == (b1, a1)
    assert swapped[3] == (-b1, a1)


def test_assignment_rejects_bad_slots():
    with pytest.raises(DomainError):
        ChainAssignment(4, ((5, "+ab"), (1, "+ab")))  # member out of range
    with pytest.raises(DomainError):
        ChainAssignment(4, ((1, "ab"), (2, "+ab")))
    with pytest.raises(DomainError):
        ChainAssignment(5, ((1, "+ab"),))  # only 4- and 8-chains exist


# --- argument guards --------------------------------------------------------

GUARDS = [
    pytest.param(lambda: assignment_pairs(ASSIGN_N5, ((1, 2),) * 4),
                 DomainError, "parameter count does not match chain size",
                 id="assignment_pairs-chain4"),
    pytest.param(lambda: assignment_pairs(ASSIGN_N6, ((1, 2),) * 3),
                 DomainError, "parameter count does not match chain size",
                 id="assignment_pairs-chain8"),
    pytest.param(lambda: residual(ASSIGN_N5, ((1, 2),) * 3, unknown=5),
                 DomainError, "unknown-pair index out of range",
                 id="residual-unknown"),
    pytest.param(lambda: normalize_projective(0, 0), DomainError,
                 "projective pair cannot be (0, 0)", id="normalize_projective"),
    pytest.param(lambda: solve_quadratic(QuadraticForm(0, 0, 0)),
                 DegenerateFormError, "form is identically zero",
                 id="solve_quadratic"),
    pytest.param(lambda: fermat_square(Poly([1, 0, 0, 0, 0, 1])), DomainError,
                 "fermat_square expects degree <= 4", id="fermat_square"),
    pytest.param(lambda: ChainSolution.from_pairs(()), DomainError,
                 "empty chain", id="ChainSolution.from_pairs"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_domain_error(call, error, message):
    with pytest.raises(DomainError) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)


# --- residual forms --------------------------------------------------------

def test_residual_is_the_actual_square_deficit():
    rng = random.Random(7)
    for _ in range(25):
        params = [(rng.randint(-6, 6), rng.randint(-6, 6))
                  for _ in range(3)]
        if any(p == (0, 0) for p in params):
            continue
        unknown = rng.randrange(3)
        form = residual(ASSIGN_N5, tuple(params), unknown)
        for u, v in ((1, 2), (-3, 5), (7, 4)):
            probe = list(params)
            probe[unknown] = (u, v)
            pairs = assignment_pairs(ASSIGN_N5, tuple(probe))
            direct = sum(x * x for x, _ in pairs) - chain4_norm(*probe)
            assert form(u, v) == direct


def test_residual_vanishes_on_solved_configuration():
    n5 = PIPELINES[5]
    for q1, q2 in ((1, 2), (2, 3), (1, 4)):
        params = [build(q1, q2) for build in n5.builders]
        assert params == [n5_p_values(q1, q2), (q1, q2), n5_r_values(q1, q2)]
        for unknown in range(3):
            form = residual(n5.assignment, params, unknown)
            assert form(*params[unknown]) == 0


def test_residual_rejects_identically_zero_form():
    # p = (0, 0) kills every chain member, so the form has no content
    with pytest.raises(DegenerateFormError):
        residual(ASSIGN_N5, ((0, 0), (1, 2), (1, 0)), unknown=2)


def test_discriminant():
    assert discriminant(QuadraticForm(1, -5, 6)) == 1
    with pytest.raises(DegenerateFormError):
        discriminant(QuadraticForm(0, 3, 1))


# --- quadratic solving -----------------------------------------------------

def test_solve_quadratic_integer_roots():
    assert solve_quadratic(QuadraticForm(1, -5, 6)) == ((3, 1), (2, 1))
    assert solve_quadratic(QuadraticForm(2, -7, 3)) == ((3, 1), (1, 2))


def test_solve_quadratic_linear_case_includes_point_at_infinity():
    assert solve_quadratic(QuadraticForm(0, 3, -6)) == ((2, 1), (1, 0))
    assert solve_quadratic(QuadraticForm(0, 0, 5)) == ((1, 0), (1, 0))


def test_solve_quadratic_irrational():
    with pytest.raises(NoRationalRootError):
        solve_quadratic(QuadraticForm(1, 1, 1))
    with pytest.raises(NoRationalRootError):
        solve_quadratic(QuadraticForm(1, 0, -2))


def test_solve_quadratic_polynomial_coefficients():
    # the solvers work over int only; a polynomial discriminant has no
    # square root there
    one = Poly([1])
    form = QuadraticForm(one, -(2 * X + one), X * (X + one))
    with pytest.raises(DomainError):
        solve_quadratic(form)


def test_solve_quadratic_rejects_a_fraction_form():
    with pytest.raises(DomainError,
                       match="no square root defined for Fraction"):
        solve_quadratic(QuadraticForm(Fraction(1), 0, -1))


def test_vieta_second_root():
    form = QuadraticForm(21, -29, 10)  # roots 2/3 and 5/7
    assert vieta_second_root(form, (2, 3)) == (5, 7)
    assert vieta_second_root(form, (5, 7)) == (2, 3)
    with pytest.raises(DomainError):
        vieta_second_root(form, (1, 1))


def test_normalize_projective():
    assert normalize_projective(36, 63) == (4, 7)
    assert normalize_projective(-4, -6) == (2, 3)
    assert normalize_projective(0, -5) == (0, 1)
    with pytest.raises(DomainError, match=r"\(Fraction, Fraction\)"):
        normalize_projective(Fraction(3, 4), Fraction(-5, 6))
    with pytest.raises(DomainError):
        normalize_projective(4 * X, 2 * X * X)
    with pytest.raises(DomainError):
        normalize_projective(2, X)


# --- Fermat square matching ------------------------------------------------

def _homogenized(quartic, u, v):
    """v^4 * quartic(u / v), over the integers."""
    return sum(c * u ** k * v ** (4 - k) for k, c in enumerate(quartic.coeffs))


def test_fermat_known_roots():
    # (3x+1)^2 + x^3 (x-5): matching from the constant end finds x = 5
    const = X ** 4 - 5 * X ** 3 + 9 * X * X + 6 * X + Poly([1])
    assert fermat_square(const) == (5, 1)
    assert const(5) == 256
    # (x^2-2x+2)^2 + x^3 (3x-1) = 4x^4 - 5x^3 + 8x^2 - 8x + 4: x = 1/3
    other = Poly([4, -8, 8, -5, 4])
    assert fermat_square(other) == (1, 3)
    assert _homogenized(other, 1, 3) == 13 ** 2


def test_fermat_result_is_always_a_square_value():
    # the integer matching agrees with the Fraction oracle: the same
    # root, normalized, or the same error
    rng = random.Random(23)
    found = 0
    for _ in range(300):
        g = rng.randint(1, 5)
        cs = [g * g] + [rng.randint(-9, 9) for _ in range(4)]
        quartic = Poly(cs)
        try:
            want = fermat_square_fraction(quartic)
        except (IdenticallySquareError, NoFermatRootError) as exc:
            with pytest.raises(type(exc)):
                fermat_square(quartic)
            continue
        r = fermat_square(quartic)
        assert r == normalize_projective(want.numerator, want.denominator)
        assert is_perfect_square(_homogenized(quartic, *r))
        found += 1
    assert found > 100


def test_discriminant_quartics_have_int_coefficients():
    # the residual in a symbolic pair needs only ring operations, so the
    # quartic Fermat matching starts from is over the integers
    for assignment, params, unknown in (
            (ASSIGN_N5, (_symbolic_pair(), (1, 2), _HOLE), 2),
            (ASSIGN_N6, ((1, 2), (1, 2), _symbolic_pair(), _HOLE), 3)):
        quartic = discriminant(residual(assignment, params, unknown))
        assert quartic.degree == 4
        assert all(type(c) is int for c in quartic.coeffs)


def test_fermat_rejects_non_square_anchor():
    with pytest.raises(UnsupportedQuarticError,
                       match="const coefficient 3 is not a nonzero"):
        fermat_square(X ** 4 + X + Poly([3]))
    with pytest.raises(UnsupportedQuarticError):
        fermat_square(X ** 4 + X)  # zero constant term


def test_fermat_degenerate_cases():
    square = (X * X + 3 * X + Poly([2])) ** 2
    with pytest.raises(IdenticallySquareError):
        fermat_square(square)
    with pytest.raises(NoFermatRootError):
        fermat_square(Poly([1, 2, 5, 0, 4]))


# --- closed-form re-derivation over the grid -------------------------------

def test_rederive_n5_substitutions_on_grid():
    for q1, q2 in GRID:
        got = derive_n5(q1, q2)
        assert proportional(got["p"], n5_p_values(q1, q2))
        assert any(proportional(r, n5_r_values(q1, q2)) for r in got["r"])


def _rederive_digest(*derives):
    """sha256 of every result's repr, or error type and text, on
    [-12, 12]^2: pins the re-derivations whatever their scalar types."""
    lines = []
    for derive in derives:
        for a in range(-12, 13):
            for b in range(-12, 13):
                try:
                    out = repr(derive(a, b))
                except DomainError as exc:
                    out = f"{type(exc).__name__}: {exc}"
                lines.append(f"{derive.__name__}({a}, {b}) = {out}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_rederive_n5_n6_are_pinned_on_a_square():
    assert _rederive_digest(derive_n5, derive_n6) == \
        "66ff7c874a173af2877d3fb9a15c468ec94152d1a9f5feb5b9908e6c3b521f74"


def test_rederive_n7_n8_are_pinned_on_a_square():
    # 1,250 calls: 1,152 results and 98 errors, degenerate pairs included
    assert _rederive_digest(derive_n7, derive_n8) == \
        "8f9d599289a18feab1ee2cc2df85ab7adad249ee58b0800f959e56e294d12993"


def test_rederive_n6_substitutions_on_grid():
    for p1, p2 in GRID:
        got = derive_n6(p1, p2)
        assert proportional(got["r"], n6_r_values(p1, p2))
        assert proportional(got["s"], n6_s_values(p1, p2))
        assert proportional(got["q"], n6_q_values(p1, p2))
        assert got["s"] in got["s_roots"]


def test_rederive_n7_substitutions_on_grid():
    for p1, p2 in GRID:
        got = derive_n7(p1, p2)
        assert proportional(got["r"], n7_r_values(p1, p2))
        assert proportional(got["s"], n7_s_values(p1, p2))
        assert proportional(got["q"], n7_q_values(p1, p2))


def test_rederive_n8_substitutions_on_grid():
    for p1, p2 in GRID:
        got = derive_n8(p1, p2)
        assert proportional(got["r"], n8_r_values(p1, p2))
        assert proportional(got["s"], n8_s_values(p1, p2))
        assert proportional(got["q"], n8_q_values(p1, p2))


@pytest.mark.parametrize("q_values, odd", [
    (n6_q_values, derive._N6_ODD), (n7_q_values, derive._N7_ODD),
    (n8_q_values, derive._N8_ODD)])
def test_q_tables_equal_their_term_by_term_sums_as_polynomials(q_values,
                                                                odd):
    # the Horner pass against the sum of the 13 monomials, at (X, 1) and
    # (1, X): each pins the degree-25 binary form, so the two agree at
    # every pair
    def term_sum(p1, p2):
        return (p1 * sum(c * p1 ** (24 - 2 * j) * p2 ** (2 * j)
                         for j, c in enumerate(odd)),
                p2 * sum(c * p1 ** (24 - 2 * j) * p2 ** (2 * j)
                         for j, c in enumerate(reversed(odd))))

    for point in ((X, 1), (1, X)):
        assert q_values(*point) == term_sum(*point)


# --- full pipelines ---------------------------------------------------------

def _check(system, want):
    assert sorted(system.roots) == want
    assert system.distinct
    assert validate_system(system).ok
    assert vec_gcd(list(system.roots) + list(system.certificates)) == 1


def test_pipeline_published_values():
    _check(pipeline_n5(1, 2), M2_N5_12)
    _check(pipeline_n6(1, 2), M2_N6_12)
    _check(pipeline_n7(2, 1), M2_N7_21)
    _check(pipeline_n8(2, 1), M2_N8_21)


def test_pipelines_normalize_parameter_content():
    assert pipeline_n5(2, 4) == pipeline_n5(1, 2)
    assert pipeline_n7(-2, -1) == pipeline_n7(2, 1)


def test_pipeline_degenerate_parameters():
    with pytest.raises(DegenerateParameterError):
        pipeline_n5(0, 0)
    with pytest.raises(DegenerateParameterError):
        pipeline_n6(1, 1)


def test_pipeline_table_and_wrappers_agree():
    wrappers = {5: pipeline_n5, 6: pipeline_n6, 7: pipeline_n7, 8: pipeline_n8}
    assert list(PIPELINES) == list(wrappers)
    for n, entry in PIPELINES.items():
        assert entry.assignment.n == n
        assert len(entry.builders) == (3 if entry.assignment.chain_size == 4
                                       else 4)
        assert wrappers[n](3, 5) == pipeline(n, 3, 5)


def test_pipeline_outside_the_table():
    for n in (4, 9):
        with pytest.raises(DomainError, match=r"^method 2 has built-in "
                           r"pipelines for n in \[5, 6, 7, 8\]$"):
            pipeline(n, 1, 2)


@given(st.sampled_from(GRID))
@settings(max_examples=42)
def test_pipelines_validate_across_grid(point):
    p1, p2 = point
    for n in PIPELINES:
        try:
            system = pipeline(n, p1, p2)
        except DegenerateParameterError:
            continue
        assert validate_system(system).ok


def _outcome(n, a, b):
    """The system at (a, b), or the type of the DomainError it raises."""
    try:
        return pipeline(n, a, b)
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("n", list(PIPELINES),
                         ids=[f"pipeline_n{n}" for n in PIPELINES])
def test_pipelines_are_symmetric_in_the_pair(n):
    # the method-2 sweep prints the line of (p1, p2) again for (p2, p1),
    # and builds the mirror of a degenerate point itself to log it
    bound = range(-30, 31)
    degenerate = 0
    for a in bound:
        for b in bound:
            if a <= b:
                got = _outcome(n, a, b)
                assert _outcome(n, b, a) == got, (a, b)
                degenerate += isinstance(got, type)
    assert 0 < degenerate < len(bound) ** 2 // 4  # both outcomes seen
