"""Reference implementations that only the tests use.

None of these runs in a command.  They check the package from outside:
inverse_transform undoes evolve.transform, lemma3_special is the
paper's n = m^2 + 1 family, chain4_norm and chain8_norm give the common
norm of identities.chain4 and chain8, validate_system_3n is the
validator as it was before it squared each root once, and
fermat_square_fraction is Fermat matching as it was before it ran on
scaled integers: over Fraction, with rational_sqrt.  Poly extends
derive.Poly, the ring the derivations run on, with what the tests and
the polynomial method-1 families need: powers, evaluation, hashing and
immutability; X is its variable.

tests/test_acceptance.py imports the first four from the package
modules they used to live in; conftest.py binds them there.
"""

import math
from fractions import Fraction

from exsquares import derive
from exsquares.derive import (IdenticallySquareError, NoFermatRootError,
                              UnsupportedQuarticError)
from exsquares.exactmath import DomainError, is_perfect_square
from exsquares.identities import pair_norm
from exsquares.seeds import ChainSolution, _require_nonzero
from exsquares.verify import Violation, _report, _show


class NotAnImageError(DomainError):
    """Inverse transform applied to something that is not an image."""


def _exact_div(v, d):
    q, r = divmod(v, d)
    if r != 0:
        raise NotAnImageError("division not exact; not a transform image")
    return q


def inverse_transform(sol, coeffs):
    """Undo evolve.transform, given the pre-image's own (P, S)."""
    a = (sol.n - 2) * coeffs.S
    b = 2 * coeffs.P
    d = a * a + b * b
    if d == 0:
        raise NotAnImageError("degenerate coefficients: 4P^2+(n-2)^2S^2 = 0")
    return ChainSolution.from_pairs(
        (_exact_div(a * x + b * y, d), _exact_div(a * y - b * x, d))
        for x, y in sol.pairs)


def lemma3_special(m, t):
    """Family with n = m^2 + 1 entries, the first n-1 all equal to 2t.

    Excluding the last entry leaves (2mt)^2; excluding any other leaves
    ((n-2)t^2 + 1)^2.
    """
    if m < 2:
        raise DomainError("need m >= 2")
    n = m * m + 1
    head = (2 * t, (n - 2) * t * t + 1)
    tail = ((n - 2) * t * t - 1, 2 * m * t)
    pairs = (head,) * (n - 1) + (tail,)
    _require_nonzero(pairs, f"lemma3_special(m={m})")
    return ChainSolution.from_pairs(pairs)


def chain4_norm(p, q, r):
    """Common value of a^2 + b^2 over identities.chain4(p, q, r)."""
    return pair_norm(p) * pair_norm(q) * pair_norm(r)


def chain8_norm(p, q, r, s):
    """Common value of a^2 + b^2 over identities.chain8(p, q, r, s)."""
    return pair_norm(p) * pair_norm(q) * pair_norm(r) * pair_norm(s)


def validate_system_3n(sys, require_distinct=True):
    """verify.validate_system with 3n squarings: each root is squared
    for the total and again for its own exclusion sum."""
    out = []
    if len(sys.roots) != sys.n or len(sys.certificates) != sys.n:
        out.append(Violation(None, "shape",
                             f"n = {sys.n} but {len(sys.roots)} roots, "
                             f"{len(sys.certificates)} certificates"))
        return _report(out)
    total = sum(r * r for r in sys.roots)
    if total != sys.s:
        out.append(Violation(None, "sum",
                             f"sum of roots^2 = {_show(total)}, "
                             f"declared s = {_show(sys.s)}"))
    for i, (r, c) in enumerate(zip(sys.roots, sys.certificates), start=1):
        if r == 0:
            out.append(Violation(i, "zero-root", "root is zero"))
        excl = total - r * r
        cc = c * c
        if cc == excl:
            continue
        if not is_perfect_square(excl):
            out.append(Violation(i, "exclusion-not-square",
                                 f"excluding root {_show(r)} leaves "
                                 f"{_show(excl)}"))
        else:
            out.append(Violation(i, "certificate",
                                 f"certificate {_show(c)} squares to "
                                 f"{_show(cc)}, exclusion sum is "
                                 f"{_show(excl)}"))
    if require_distinct:
        seen = {}
        for i, r in enumerate(sys.roots, start=1):
            key = abs(r)
            if key in seen:
                out.append(Violation(i, "repeat",
                                     f"|root| {_show(key)} repeats entry "
                                     f"{seen[key]}"))
            else:
                seen[key] = i
    return _report(out)


def rational_sqrt(x):
    """Exact square root of a rational, or None if it is not a square.

    Fraction keeps num/den coprime, so both parts must be squares.
    """
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def fermat_square_fraction(quartic):
    """derive.fermat_square over Fraction: the root as a Fraction, with
    the same errors.  The quadratic matched from the constant end has
    coefficients g = sqrt(c0), b and h."""
    if quartic.degree > 4 or quartic.degree < 0:
        raise DomainError("fermat_square expects degree <= 4")
    c = list(quartic.coeffs) + [0] * (5 - len(quartic.coeffs))
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
    if rational_sqrt(quartic(root)) is None:
        raise NoFermatRootError("matched value failed the square check")
    return root


class Poly(derive.Poly):
    """derive.Poly, immutable and hashable (so (x, y) polynomial pairs
    can key dicts), with powers and evaluation."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def lead(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative polynomial power")
        out = type(self)([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


X = Poly([0, 1])
