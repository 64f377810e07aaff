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
    g = math.gcd(*values)
    if g == 0:
        raise DomainError("gcd of all-zero vector")
    return g


def eval_form(coeffs, u, v):
    """sum(c_j * u**(n-j) * v**j), Horner in u with running powers of v;
    generic over the scalars."""
    acc = coeffs[0]
    vp = 1
    for c in coeffs[1:]:
        vp = vp * v
        acc = acc * u + c * vp
    return acc
