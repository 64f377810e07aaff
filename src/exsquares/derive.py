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

Every pipeline is symmetric, pipeline(n, p1, p2) == pipeline(n, p2, p1):
the swap reverses or conjugates each parameter pair the pipeline
derives (the odd and even q tables are each other's reverse, one
component of each of p, r and s is even and the other odd under the
swap, and n5_r_values' two forms are reverses), and the reduced system
of the chain is the same.  The method-2 sweep builds each unordered
pair once on that account; test_derive pins the symmetry.

The derivations never leave the integers: every form they build has
int entries, or in derive_n5/derive_n6's symbolic pair (w : 1) entries
in Poly, the ring Z[w]; the projective solvers take ints only, and
fermat_square matches on scaled integers and returns an int pair.

PIPELINES is the one table of method-2 constructions: for each n, the
chain assignment, one builder per chain parameter (each a function of
the pair, generic over its scalars), whether the chain takes one
transform, and the pair's name in messages.  pipeline_pairs(n, u, v)
is the one step from a pair to an entry's slot pairs; pipeline(n, u, v)
runs a whole entry, and pipeline_n5..pipeline_n8 are its fixed-n
wrappers.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .exactmath import DomainError, is_perfect_square, isqrt
from .identities import chain4, chain8, pair_norm
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


def assignment_pairs(assignment: ChainAssignment, params):
    """The (x_j, y_j) list the assignment selects from the chain that
    the parameter pairs (three for chain4, four for chain8) build."""
    chain, count = (chain4, 3) if assignment.chain_size == 4 else (chain8, 4)
    if len(params) != count:
        raise DomainError("parameter count does not match chain size")
    return assignment.apply(chain(*params))


def _residual_value(assignment, params):
    s = 1
    for pr in params:
        s = s * pair_norm(pr)
    acc = 0
    for x, _ in assignment_pairs(assignment, params):
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

    form = _interpolate(at)
    if form.A == 0 and form.B == 0 and form.C == 0:
        raise DegenerateFormError("residual vanishes identically in this pair")
    return form


def _interpolate(at):
    """The binary quadratic A*u^2 + B*u*v + C*v^2 that ``at(u, v)``
    evaluates, pinned by its values at (1, 0), (0, 1) and (1, 1)."""
    a = at(1, 0)
    c = at(0, 1)
    return QuadraticForm(a, at(1, 1) - a - c, c)


def discriminant(form: QuadraticForm):
    """B^2 - 4AC; demands a genuine quadratic (A != 0)."""
    if form.A == 0:
        raise DegenerateFormError(
            "leading coefficient is zero; solve the linear form instead")
    return form.B * form.B - 4 * form.A * form.C


# ---------------------------------------------------------------------------
# projective normalization
# ---------------------------------------------------------------------------

def normalize_projective(u, v):
    """Canonical representative of (u : v) for integer entries: divided
    by their gcd, first nonzero entry positive.

    Any other scalar type, Fraction included, raises DomainError, and
    so does (0, 0).
    """
    if not (isinstance(u, int) and isinstance(v, int)):
        raise DomainError(
            f"no projective normal form for ({type(u).__name__}, "
            f"{type(v).__name__})")
    if u == 0 and v == 0:
        raise DomainError("projective pair cannot be (0, 0)")
    g = gcd(u, v)
    if (u if u else v) < 0:
        g = -g
    return u // g, v // g


def _proportional(pair1, pair2):
    return pair1[0] * pair2[1] == pair1[1] * pair2[0]


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def solve_quadratic(form: QuadraticForm):
    """Both projective roots of an integer form, normalized.

    Linear case (A == 0): the finite root (-C : B) first, then the root
    at infinity (1, 0).  Quadratic case: needs the discriminant to be
    an exact square, else NoRationalRootError; a discriminant that is
    not an int (a Fraction or Poly form) raises DomainError.
    """
    if form.A == 0:
        if form.B == 0:
            if form.C == 0:
                raise DegenerateFormError("form is identically zero")
            return ((1, 0), (1, 0))
        return (normalize_projective(-form.C, form.B), (1, 0))
    disc = discriminant(form)
    if not isinstance(disc, int):
        raise DomainError(f"no square root defined for {type(disc).__name__}")
    if not is_perfect_square(disc):
        raise NoRationalRootError("discriminant is not an exact square")
    root = isqrt(disc)
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


def fermat_square(quartic):
    """A point (u : v) where the quartic's value is a perfect square.

    Matches the quartic against (q(x))^2 for a quadratic q fixed from
    the constant end: its x^0, x^1 and x^2 coefficients (the constant
    term c0 must be a nonzero square).  What is left over is x^3 times
    a linear form, and its root is returned as a normalized int pair.
    The quartic is an int Poly in x, as discriminant returns for a
    residual in a symbolic pair (x : 1).  Scaled by 64*c0^3, the
    matching needs no division: with H = 4*c0*c2 - c1^2 the root is
    (8*c0*c1*H - 64*c0^3*c3 : 64*c0^3*c4 - H^2).
    """
    if quartic.degree > 4 or quartic.degree < 0:
        raise DomainError("fermat_square expects degree <= 4")
    c = list(quartic.coeffs) + [0] * (5 - len(quartic.coeffs))
    c0, c1, c2, c3, c4 = c
    if c0 == 0 or not is_perfect_square(c0):
        raise UnsupportedQuarticError(
            f"const coefficient {c0} is not a nonzero rational square")
    h = 4 * c0 * c2 - c1 * c1
    cube = 64 * c0 ** 3
    num = 8 * c0 * c1 * h - cube * c3
    den = cube * c4 - h * h
    if den == 0:
        if num == 0:
            raise IdenticallySquareError("quartic is already a square")
        raise NoFermatRootError("matching leaves no linear equation to solve")
    u, v = normalize_projective(num, den)
    if not is_perfect_square(c0 * v ** 4 + c1 * u * v ** 3 + c2 * u * u * v * v
                             + c3 * u ** 3 * v + c4 * u ** 4):
        raise NoFermatRootError("matched value failed the square check")
    return u, v


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


def _odd_even_pair(p1, p2, odd):
    """p1*(odd coeffs on p1^24..p2^24) and p2*(the same coeffs read
    backwards): each q table's even coefficients are its odd ones
    reversed, so one literal holds both."""
    acc1 = 0
    acc2 = 0
    for j, (co, ce) in enumerate(zip(odd, reversed(odd))):
        mono = p1 ** (24 - 2 * j) * p2 ** (2 * j)
        acc1 = acc1 + co * mono
        acc2 = acc2 + ce * mono
    return p1 * acc1, p2 * acc2


_N6_ODD = (1, 26, 184, 126, 2105, -2972, 7288, -5284, 2435, -94, 272, 6, 3)
_N7_ODD = (78125, 1399500, 8937610, 23564092, 78166867, 3600152, 182941900,
           -64814760, 51621283, 17916188, 14166858, 2174060, 248125)
_N8_ODD = (729, 11916, 68162, 165308, 512615, 324248, 968668, 148568, 481719,
           168924, 114434, 18668, 2025)


def n6_q_values(p1, p2):
    return _odd_even_pair(p1, p2, _N6_ODD)


def n7_q_values(p1, p2):
    return _odd_even_pair(p1, p2, _N7_ODD)


def n8_q_values(p1, p2):
    return _odd_even_pair(p1, p2, _N8_ODD)


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

_HOLE = (1, 0)  # placeholder for the unknown slot


def _coerce(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, int):
        return Poly([v])
    return NotImplemented


class Poly:
    """Z[w]: int coefficients, low-degree-first, no trailing zeros.

    Only the ring operations the residual and its discriminant take,
    with ints as constants; a coefficient that is not an int raises
    DomainError, a float as an inexact one.  Results take the class of
    self, and __init__ sets coeffs past __setattr__, so a subclass can
    keep its type and forbid assignment."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                kind = "inexact" if isinstance(c, float) else "non-integer"
                raise DomainError(f"{kind} polynomial coefficient {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return type(self)(out)

    __rmul__ = __mul__


def _symbolic_pair():
    """The projective pair (w : 1) in the polynomial ring Z[w]: the
    residual's forms and their discriminant keep int coefficients."""
    return Poly([0, 1]), Poly([1])


def derive_n5(q1: int, q2: int):
    """Re-derive the n=5 substitutions at a fixed (q1, q2).

    Returns {"p": pair, "r": (root, root)}: p from Fermat matching on
    the discriminant quartic, r as the roots of the residual there.
    """
    form_p = residual(ASSIGN_N5, (_symbolic_pair(), (q1, q2), _HOLE),
                      unknown=2)
    quartic = discriminant(form_p)
    p = fermat_square(quartic)
    form_r = residual(ASSIGN_N5, (p, (q1, q2), _HOLE), unknown=2)
    return {"p": p, "r": solve_quadratic(form_r)}


def derive_n6(p1: int, p2: int):
    """Re-derive the n=6 substitutions at a fixed (p1, p2).

    r from Fermat matching, s from the quadratic roots, q as the Vieta
    second root off the known root (q1, q2) = (p1, p2).
    """
    p = (p1, p2)
    form_r = residual(ASSIGN_N6, (p, p, _symbolic_pair(), _HOLE), unknown=3)
    quartic = discriminant(form_r)
    r = fermat_square(quartic)
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

    def s_lead(r1, r2):
        return residual(assignment, (p, p, (r1, r2), _HOLE), unknown=3).A

    lead = _interpolate(s_lead)
    if lead.A != 0:
        raise DegenerateFormError(
            "expected the r1^2 part of the s-leading coefficient to vanish")
    r = normalize_projective(-lead.C, lead.B)
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

def _pair(u, v):
    return u, v


Pipeline = namedtuple("Pipeline", "assignment builders transform_once name")

PIPELINES = {
    5: Pipeline(ASSIGN_N5, (n5_p_values, _pair, n5_r_values), True,
                "(q1, q2)"),
    6: Pipeline(ASSIGN_N6, (_pair, n6_q_values, n6_r_values, n6_s_values),
                False, "(p1, p2)"),
    7: Pipeline(ASSIGN_N7, (_pair, n7_q_values, n7_r_values, n7_s_values),
                True, "(p1, p2)"),
    8: Pipeline(ASSIGN_N8, (_pair, n8_q_values, n8_r_values, n8_s_values),
                True, "(p1, p2)"),
}


def pipeline_entry(n) -> Pipeline:
    """PIPELINES[n]; DomainError for an n without a pipeline."""
    try:
        return PIPELINES[n]
    except KeyError:
        raise DomainError(f"method 2 has built-in pipelines for n in "
                          f"{list(PIPELINES)}") from None


def pipeline_pairs(n: int, u, v):
    """The slot pairs of PIPELINES[n] at the pair (u, v), not reduced:
    each builder gives one chain parameter and the assignment picks the
    slots."""
    assignment, builders, _, _ = pipeline_entry(n)
    return assignment_pairs(assignment, [build(u, v) for build in builders])


def pipeline(n: int, u: int, v: int) -> SquareSystem:
    """n squares from PIPELINES[n] at the pair (u, v), taken in lowest
    terms: the slot pairs, then one transform if the entry says so."""
    _, _, transform_once, name = pipeline_entry(n)
    if (u, v) == (0, 0):
        raise DegenerateParameterError(f"{name} must not be (0, 0)")
    g = gcd(u, v)
    u, v = u // g, v // g
    sol = ChainSolution.from_pairs(pipeline_pairs(n, u, v))
    if transform_once:
        sol = transform(sol)
    return finalize_system(sol.pairs, f"{name}=({u}, {v})")


def pipeline_n5(q1: int, q2: int) -> SquareSystem:
    """Five squares from the 4-member chain route."""
    return pipeline(5, q1, q2)


def pipeline_n6(p1: int, p2: int) -> SquareSystem:
    """Six squares from the 8-member chain route (no transform step)."""
    return pipeline(6, p1, p2)


def pipeline_n7(p1: int, p2: int) -> SquareSystem:
    """Seven squares from the 8-member chain route."""
    return pipeline(7, p1, p2)


def pipeline_n8(p1: int, p2: int) -> SquareSystem:
    """Eight squares from the 8-member chain route."""
    return pipeline(8, p1, p2)
