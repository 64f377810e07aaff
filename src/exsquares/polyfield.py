"""Exact univariate polynomial arithmetic over the integers, no larger
than its users need.

``Poly`` is Z[x]: a dense, low-degree-first tuple of int coefficients
with ring operations, powers and evaluation.  A coefficient that is not
an int raises DomainError, so nothing rational or inexact enters.  The
method-2 derivations run the residual over ``Poly`` in one
dehomogenized parameter (second variable set to 1) to get the
discriminant quartic that Fermat matching works on; it reads the five
coefficients and never evaluates a ``Poly`` at a ``Fraction``.  Seeds
evaluated at ``X`` give the method-1 family as polynomials in t.  The
catalog's coefficient tuples are plain ints, parsed and evaluated in
:mod:`exsquares.catalog`.
"""

from __future__ import annotations

from .exactmath import DomainError


def _coerce(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, int):
        return Poly([v])
    return NotImplemented


class Poly:
    """Univariate polynomial with int coefficients, low-degree-first.

    Only ints are coefficients: any other value raises DomainError,
    a float as an inexact one.  Evaluation works at any scalar, so a
    Fraction point gives a Fraction.  Canonical form: no trailing zero
    coefficients; the zero polynomial has an empty coefficient tuple.
    Instances are immutable and hashable, so (x, y) polynomial pairs
    can key dicts.
    """

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

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------

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
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative polynomial power")
        out = Poly([1])
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
