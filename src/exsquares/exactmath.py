"""Exact integer primitives used throughout the package.

Everything here is arbitrary precision and never rounds: Python ints carry
the arithmetic.  The package makes no rational: Fermat matching
(``derive.fermat_square``) scales its quartic to integers and checks its
root with ``is_perfect_square``.
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


def vec_gcd(values) -> int:
    """Positive gcd of the absolute values; DomainError if all are zero."""
    g = 0
    for v in values:
        g = math.gcd(g, v)
    if g == 0:
        raise DomainError("gcd of all-zero vector")
    return g
