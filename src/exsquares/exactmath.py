"""Exact integer and rational primitives used throughout the package.

Everything here is arbitrary precision and never rounds: Python ints carry
the arithmetic.  The package's one rational is the root that Fermat
matching (``derive.fermat_square``) builds through ``rational_sqrt``, the
only code here that makes a ``fractions.Fraction``.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument outside an operation's mathematical domain."""


def isqrt(v: int) -> int:
    """Floor of the square root of a nonnegative integer.

    The result r satisfies r*r <= v < (r+1)*(r+1).
    """
    if v < 0:
        raise DomainError(f"isqrt of negative value {v}")
    return math.isqrt(v)


def is_perfect_square(v: int) -> bool:
    """True iff v is the square of an integer."""
    if v < 0:
        return False
    r = math.isqrt(v)
    return r * r == v


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square.

    Fraction keeps num/den coprime, so both parts must be squares.
    """
    from fractions import Fraction  # only the derivations need it
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def vec_gcd(values) -> int:
    """Positive gcd of the absolute values; DomainError if all are zero."""
    g = 0
    for v in values:
        g = math.gcd(g, v)
    if g == 0:
        raise DomainError("gcd of all-zero vector")
    return g
