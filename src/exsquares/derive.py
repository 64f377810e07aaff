"""Quadratic-solving construction of exclusion square systems.

Route: pick one representation per slot from an equal-norm chain (a
ChainAssignment).  The pair-sum condition x_i^2 + y_i^2 = s then holds
by construction, and the square-sum condition becomes a single residual

    sum(x_j^2) - s

which, viewed in any one parameter pair, is a homogeneous quadratic.
Making that quadratic vanish is done three ways, matching how each
pipeline was found:

* fermat_square: choose a parameter ratio making a quartic (the
  residual's discriminant) a perfect square, by matching it against the
  square of a quadratic from the constant end;
* solve_quadratic: take a root directly when the discriminant is an
  exact square (or the leading coefficient vanishes, leaving a linear
  equation);
* vieta_second_root: given the obvious root, jump to the second one via
  the product of roots.

The closed-form substitutions the pipelines use (*_values functions)
are fixed data; the derive_n* functions re-derive them from the solver
machinery so tests can confirm the tables against the engine.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .exactmath import DomainError, is_perfect_square, isqrt, rational_sqrt
from .identities import chain4, chain8, pair_norm
from .polyfield import Poly, X
from .seeds import ChainSolution, DegenerateParameterError, SquareSystem
from .evolve import finalize_system, transform


class DegenerateFormError(DomainError):
    """Residual is not a usable quadratic in the chosen pair."""


class NoRationalRootError(DomainError):
    """Quadratic has no root in the ground field."""


class UnsupportedQuarticError(DomainError):
    """Fermat matching needs the constant term to be a nonzero square."""


class IdenticallySquareError(DomainError):
    """The quartic is already the square of a quadratic; any value works."""


class NoFermatRootError(DomainError):
    """The matching left a degenerate linear equation with no root."""


# ---------------------------------------------------------------------------
# chain assignments
# ---------------------------------------------------------------------------

ORIENTATIONS = ("+ab", "-ab", "+ba", "-ba")


class ChainAssignment(namedtuple("ChainAssignment", "chain_size slots")):
    """Per-slot choice of chain member and orientation.

    slots are (source index, orientation): source indexes the 4- or
    8-member chain 1-based; orientation picks (+a,b), (-a,b), (+b,a) or
    (-b,a) from that member.
    """

    __slots__ = ()

    def __new__(cls, chain_size, slots):
        if chain_size not in (4, 8):
            raise DomainError("chain size must be 4 or 8")
        for src, orient in slots:
            if not 1 <= src <= chain_size:
                raise DomainError(f"slot source {src} outside chain")
            if orient not in ORIENTATIONS:
                raise DomainError(f"unknown orientation {orient!r}")
        return super().__new__(cls, chain_size, slots)

    @property
    def n(self):
        return len(self.slots)

    def apply(self, chain):
        out = []
        for src, orient in self.slots:
            a, b = chain[src - 1]
            if orient == "+ab":
                out.append((a, b))
            elif orient == "-ab":
                out.append((-a, b))
            elif orient == "+ba":
                out.append((b, a))
            else:
                out.append((-b, a))
        return out


ASSIGN_N5 = ChainAssignment(4, ((1, "+ab"), (2, "+ab"), (3, "+ab"),
                                (1, "-ab"), (2, "-ab")))
ASSIGN_N6 = ChainAssignment(8, ((1, "+ab"), (3, "+ba"), (4, "+ab"),
                                (5, "+ab"), (6, "+ab"), (7, "+ab")))
ASSIGN_N7 = ChainAssignment(8, ((5, "+ab"), (5, "-ab"), (1, "+ab"),
                                (2, "+ab"), (4, "+ab"), (6, "+ab"),
                                (7, "+ba")))
ASSIGN_N8 = ChainAssignment(8, ((1, "+ab"), (1, "-ab"), (5, "+ab"),
                                (5, "-ab"), (2, "+ab"), (4, "+ab"),
                                (6, "+ab"), (7, "+ba")))


def _build_chain(assignment, params):
    if len(params) != (3 if assignment.chain_size == 4 else 4):
        raise DomainError("parameter count does not match chain size")
    if assignment.chain_size == 4:
        return chain4(*params)
    return chain8(*params)


def assignment_pairs(assignment: ChainAssignment, params):
    """The (x_j, y_j) list the assignment selects from the chain."""
    return assignment.apply(_build_chain(assignment, params))


def _residual_value(assignment, params):
    pairs = assignment_pairs(assignment, params)
    s = params[0][0] * 0 + 1  # one in the scalar ring of the parameters
    for pr in params:
        s = s * pair_norm(pr)
    acc = s * 0
    for x, _ in pairs:
        acc = acc + x * x
    return acc - s


# ---------------------------------------------------------------------------
# the residual as a quadratic form
# ---------------------------------------------------------------------------

class QuadraticForm(namedtuple("QuadraticForm", "A B C")):
    """A*u^2 + B*u*v + C*v^2 over whatever scalars built it."""

    __slots__ = ()

    def __call__(self, u, v):
        return self.A * u * u + self.B * u * v + self.C * v * v


def residual(assignment: ChainAssignment, params, unknown: int) -> QuadraticForm:
    """sum(x_j^2) - s as a quadratic form in the pair at index ``unknown``.

    params supplies all parameter pairs; the entry at ``unknown`` is
    ignored.  Every chain entry is linear in each parameter pair, so
    three evaluations pin the form exactly.
    """
    params = list(params)
    if not 0 <= unknown < len(params):
        raise DomainError("unknown-pair index out of range")

    def at(u, v):
        params[unknown] = (u, v)
        return _residual_value(assignment, params)

    a = at(1, 0)
    c = at(0, 1)
    b = at(1, 1) - a - c
    if a == 0 and b == 0 and c == 0:
        raise DegenerateFormError("residual vanishes identically in this pair")
    return QuadraticForm(a, b, c)


def discriminant(form: QuadraticForm):
    """B^2 - 4AC; demands a genuine quadratic (A != 0)."""
    if form.A == 0:
        raise DegenerateFormError(
            "leading coefficient is zero; solve the linear form instead")
    return form.B * form.B - 4 * form.A * form.C


# ---------------------------------------------------------------------------
# scalar square roots and projective normalization
# ---------------------------------------------------------------------------

def _scalar_sqrt(v):
    if isinstance(v, int):
        if v < 0 or not is_perfect_square(v):
            return None
        return isqrt(v)
    if isinstance(v, Fraction):
        return rational_sqrt(v)
    raise DomainError(f"no square root defined for {type(v).__name__}")


def normalize_projective(u, v):
    """Canonical representative of (u : v) for integer or Fraction
    entries: cleared to coprime integers, first nonzero entry positive.

    Any other scalar type raises DomainError.
    """
    if not (isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction))):
        raise DomainError(
            f"no projective normal form for ({type(u).__name__}, "
            f"{type(v).__name__})")
    fu, fv = Fraction(u), Fraction(v)
    if fu == 0 and fv == 0:
        raise DomainError("projective pair cannot be (0, 0)")
    den = lcm(fu.denominator, fv.denominator)
    a, b = int(fu * den), int(fv * den)
    g = gcd(a, b)
    a, b = a // g, b // g
    if (a if a else b) < 0:
        a, b = -a, -b
    return a, b


def _proportional(pair1, pair2):
    return pair1[0] * pair2[1] == pair1[1] * pair2[0]


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def solve_quadratic(form: QuadraticForm):
    """Both projective roots of an integer or Fraction form, normalized.

    Linear case (A == 0): the finite root (-C : B) first, then the root
    at infinity (1, 0).  Quadratic case: needs the discriminant to be
    an exact rational square, else NoRationalRootError.
    """
    if form.A == 0:
        if form.B == 0:
            if form.C == 0:
                raise DegenerateFormError("form is identically zero")
            return ((1, 0), (1, 0))
        return (normalize_projective(-form.C, form.B), (1, 0))
    disc = form.B * form.B - 4 * form.A * form.C
    root = _scalar_sqrt(disc)
    if root is None:
        raise NoRationalRootError("discriminant is not an exact square")
    return (normalize_projective(-form.B + root, 2 * form.A),
            normalize_projective(-form.B - root, 2 * form.A))


def vieta_second_root(form: QuadraticForm, known):
    """The other root, from the product of roots: (C*v0 : A*u0)."""
    u0, v0 = known
    if form(u0, v0) != 0:
        raise DomainError("supplied pair is not a root of the form")
    u1, v1 = form.C * v0, form.A * u0
    if u1 == 0 and v1 == 0:
        raise DegenerateFormError("second root is indeterminate")
    return normalize_projective(u1, v1)


def fermat_square(quartic: Poly) -> Fraction:
    """A rational point where the quartic's value is a perfect square.

    Matches the quartic against (q(x))^2 for a quadratic q fixed from
    the constant end: its x^0, x^1 and x^2 coefficients (the constant
    term must be a nonzero rational square).  What is left over is x^3
    times a linear form; its root is returned.  The quartic is a Poly in
    x, as discriminant returns for a residual in a symbolic pair (x : 1).
    """
    if quartic.degree > 4 or quartic.degree < 0:
        raise DomainError("fermat_square expects degree <= 4")
    c = list(quartic.coeffs) + [Fraction(0)] * (5 - len(quartic.coeffs))
    c0, c1, c2, c3, c4 = c
    g = rational_sqrt(c0)
    if g is None or g == 0:
        raise UnsupportedQuarticError(
            f"const coefficient {c0} is not a nonzero rational square")
    b = c1 / (2 * g)
    h = (c2 - b * b) / (2 * g)
    den = c4 - h * h
    num = 2 * h * b - c3
    if den == 0:
        if num == 0:
            raise IdenticallySquareError("quartic is already a square")
        raise NoFermatRootError("matching leaves no linear equation to solve")
    root = num / den
    value = quartic(root)
    if rational_sqrt(value) is None:
        raise NoFermatRootError("matched value failed the square check")
    return root


# ---------------------------------------------------------------------------
# fixed substitutions used by the pipelines
# ---------------------------------------------------------------------------

def n5_p_values(q1, q2):
    return (4 * q1 * q2 * (q1 - q2) * (q1 + q2), 3 * (q1 ** 4 + q2 ** 4))


def n5_r_values(q1, q2):
    return (6 * q1 ** 5 - 17 * q1 ** 4 * q2 + 24 * q1 ** 3 * q2 ** 2
            - 12 * q1 ** 2 * q2 ** 3 - 2 * q1 * q2 ** 4 + 3 * q2 ** 5,
            3 * q1 ** 5 - 2 * q1 ** 4 * q2 - 12 * q1 ** 3 * q2 ** 2
            + 24 * q1 ** 2 * q2 ** 3 - 17 * q1 * q2 ** 4 + 6 * q2 ** 5)


def n6_r_values(p1, p2):
    return (-2 * p1 * p2 * (p1 ** 2 - p2 ** 2)
            * (p1 ** 2 + 2 * p1 * p2 - p2 ** 2)
            * (p1 ** 2 - 2 * p1 * p2 - p2 ** 2),
            p1 ** 8 + 8 * p1 ** 6 * p2 ** 2 - 2 * p1 ** 4 * p2 ** 4
            + 8 * p1 ** 2 * p2 ** 6 + p2 ** 8)


def n6_s_values(p1, p2):
    return (2 * p1 * p2 * (p1 - p2) * (p1 + p2), (p1 ** 2 + p2 ** 2) ** 2)


def _odd_even_pair(p1, p2, odd, even):
    """p1*(odd coeffs on p1^24..p2^24) and p2*(even coeffs likewise)."""
    acc1 = 0
    acc2 = 0
    for j, (co, ce) in enumerate(zip(odd, even)):
        mono = p1 ** (24 - 2 * j) * p2 ** (2 * j)
        acc1 = acc1 + co * mono
        acc2 = acc2 + ce * mono
    return p1 * acc1, p2 * acc2


_N6_Q = ((1, 26, 184, 126, 2105, -2972, 7288, -5284, 2435, -94, 272, 6, 3),
         (3, 6, 272, -94, 2435, -5284, 7288, -2972, 2105, 126, 184, 26, 1))

_N7_Q = ((78125, 1399500, 8937610, 23564092, 78166867, 3600152, 182941900,
          -64814760, 51621283, 17916188, 14166858, 2174060, 248125),
         (248125, 2174060, 14166858, 17916188, 51621283, -64814760, 182941900,
          3600152, 78166867, 23564092, 8937610, 1399500, 78125))

_N8_Q = ((729, 11916, 68162, 165308, 512615, 324248, 968668, 148568, 481719,
          168924, 114434, 18668, 2025),
         (2025, 18668, 114434, 168924, 481719, 148568, 968668, 324248, 512615,
          165308, 68162, 11916, 729))


def n6_q_values(p1, p2):
    return _odd_even_pair(p1, p2, *_N6_Q)


def n7_q_values(p1, p2):
    return _odd_even_pair(p1, p2, *_N7_Q)


def n8_q_values(p1, p2):
    return _odd_even_pair(p1, p2, *_N8_Q)


def n7_r_values(p1, p2):
    return (5 * (p1 ** 2 + p2 ** 2) ** 2,
            8 * p1 * p2 * (p1 - p2) * (p1 + p2))


def n7_s_values(p1, p2):
    return (25 * p1 ** 8 + 164 * p1 ** 6 * p2 ** 2 + 22 * p1 ** 4 * p2 ** 4
            + 164 * p1 ** 2 * p2 ** 6 + 25 * p2 ** 8,
            16 * p1 * p2 * (p1 - p2) * (p1 + p2)
            * (p1 ** 2 - 4 * p1 * p2 + p2 ** 2)
            * (p1 ** 2 + 4 * p1 * p2 + p2 ** 2))


def n8_r_values(p1, p2):
    return (6 * (p1 ** 2 + p2 ** 2) ** 2,
            8 * p1 * p2 * (p1 - p2) * (p1 + p2))


def n8_s_values(p1, p2):
    return (9 * p1 ** 8 + 52 * p1 ** 6 * p2 ** 2 + 22 * p1 ** 4 * p2 ** 4
            + 52 * p1 ** 2 * p2 ** 6 + 9 * p2 ** 8,
            8 * p1 * p2 * (p1 - p2) * (p1 + p2)
            * (p1 ** 2 + 2 * p1 * p2 - p2 ** 2)
            * (p1 ** 2 - 2 * p1 * p2 - p2 ** 2))


# ---------------------------------------------------------------------------
# re-derivations of the fixed substitutions
# ---------------------------------------------------------------------------

_W = (X, Poly([1]))  # symbolic projective pair (w : 1)
_HOLE = (1, 0)  # placeholder for the unknown slot


def derive_n5(q1: int, q2: int):
    """Re-derive the n=5 substitutions at a fixed (q1, q2).

    Returns {"p": pair, "r": (root, root)}: p from Fermat matching on
    the discriminant quartic, r as the roots of the residual there.
    """
    form_p = residual(ASSIGN_N5, (_W, (q1, q2), _HOLE), unknown=2)
    quartic = discriminant(form_p)
    w = fermat_square(quartic)
    p = normalize_projective(w.numerator, w.denominator)
    form_r = residual(ASSIGN_N5, (p, (q1, q2), _HOLE), unknown=2)
    return {"p": p, "r": solve_quadratic(form_r)}


def derive_n6(p1: int, p2: int):
    """Re-derive the n=6 substitutions at a fixed (p1, p2).

    r from Fermat matching, s from the quadratic roots, q as the Vieta
    second root off the known root (q1, q2) = (p1, p2).
    """
    p = (p1, p2)
    form_r = residual(ASSIGN_N6, (p, p, _W, _HOLE), unknown=3)
    quartic = discriminant(form_r)
    w = fermat_square(quartic)
    r = normalize_projective(w.numerator, w.denominator)
    form_s = residual(ASSIGN_N6, (p, p, r, _HOLE), unknown=3)
    s_roots = solve_quadratic(form_s)
    s = s_roots[0] if _proportional(s_roots[0], n6_s_values(p1, p2)) \
        else s_roots[1]
    form_q = residual(ASSIGN_N6, (p, _HOLE, r, s), unknown=1)
    q = vieta_second_root(form_q, p)
    return {"r": r, "s_roots": s_roots, "s": s, "q": q}


def _derive_tail(assignment, p1, p2):
    """Shared n=7/n=8 derivation: kill the s-leading coefficient with r,
    solve the leftover linear equation for s, Vieta for q."""
    p = (p1, p2)

    def s_lead(r):
        return residual(assignment, (p, p, r, _HOLE), unknown=3).A

    a = s_lead((1, 0))
    c = s_lead((0, 1))
    b = s_lead((1, 1)) - a - c
    if a != 0:
        raise DegenerateFormError(
            "expected the r1^2 part of the s-leading coefficient to vanish")
    r = normalize_projective(-c, b)
    form_s = residual(assignment, (p, p, r, _HOLE), unknown=3)
    if form_s.A != 0:
        raise DegenerateFormError("s-quadratic did not collapse to linear")
    s = solve_quadratic(form_s)[0]
    form_q = residual(assignment, (p, _HOLE, r, s), unknown=1)
    q = vieta_second_root(form_q, p)
    return {"r": r, "s": s, "q": q}


def derive_n7(p1: int, p2: int):
    return _derive_tail(ASSIGN_N7, p1, p2)


def derive_n8(p1: int, p2: int):
    return _derive_tail(ASSIGN_N8, p1, p2)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _prepare(u, v, name):
    if (u, v) == (0, 0):
        raise DegenerateParameterError(f"{name} must not be (0, 0)")
    g = gcd(u, v)
    return u // g, v // g


def _run(assignment, params, transform_once, label):
    sol = ChainSolution.from_pairs(assignment_pairs(assignment, params))
    if transform_once:
        sol = transform(sol)
    return finalize_system(sol.pairs, assignment.n, label)


def pipeline_n5(q1: int, q2: int) -> SquareSystem:
    """Five squares from the 4-member chain route."""
    q1, q2 = _prepare(q1, q2, "(q1, q2)")
    params = (n5_p_values(q1, q2), (q1, q2), n5_r_values(q1, q2))
    return _run(ASSIGN_N5, params, True, f"(q1, q2)=({q1}, {q2})")


def pipeline_n6(p1: int, p2: int) -> SquareSystem:
    """Six squares from the 8-member chain route (no transform step)."""
    p1, p2 = _prepare(p1, p2, "(p1, p2)")
    params = ((p1, p2), n6_q_values(p1, p2), n6_r_values(p1, p2),
              n6_s_values(p1, p2))
    return _run(ASSIGN_N6, params, False, f"(p1, p2)=({p1}, {p2})")


def pipeline_n7(p1: int, p2: int) -> SquareSystem:
    """Seven squares from the 8-member chain route."""
    p1, p2 = _prepare(p1, p2, "(p1, p2)")
    params = ((p1, p2), n7_q_values(p1, p2), n7_r_values(p1, p2),
              n7_s_values(p1, p2))
    return _run(ASSIGN_N7, params, True, f"(p1, p2)=({p1}, {p2})")


def pipeline_n8(p1: int, p2: int) -> SquareSystem:
    """Eight squares from the 8-member chain route."""
    p1, p2 = _prepare(p1, p2, "(p1, p2)")
    params = ((p1, p2), n8_q_values(p1, p2), n8_r_values(p1, p2),
              n8_s_values(p1, p2))
    return _run(ASSIGN_N8, params, True, f"(p1, p2)=({p1}, {p2})")
