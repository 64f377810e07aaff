"""Starting chain solutions with repeated entries.

A chain solution is a list of pairs (x_i, y_i) sharing one sum

    s = x_i^2 + y_i^2   for every i,      s = x_1^2 + ... + x_n^2.

Removing x_i^2 from the right-hand sum leaves y_i^2, so the x_i are a
set of squares any one of which can be excluded, and the y_i are the
certificates.  The families here have most x_i equal; the evolve module
turns them into solutions with all entries distinct.

Constructors are generic in the parameter type: an integer t gives a
numeric solution, a polynomial t gives the parametric family itself.

The value types here, like every record of the package, are named
tuples: immutable, compared and hashed by value as plain tuples.
"""

from __future__ import annotations

from collections import namedtuple

from .exactmath import DomainError, vec_gcd


class DegenerateParameterError(DomainError):
    """A parameter choice makes some entry vanish (or collapse)."""


class ChainSolution(namedtuple("ChainSolution", "n pairs s")):
    """Pairs (x_i, y_i) with common sum s; signs are significant."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs):
        pairs = tuple((x, y) for x, y in pairs)
        if not pairs:
            raise DomainError("empty chain")
        x0, y0 = pairs[0]
        return cls(len(pairs), pairs, x0 * x0 + y0 * y0)

    @property
    def xs(self):
        return tuple(x for x, _ in self.pairs)

    @property
    def ys(self):
        return tuple(y for _, y in self.pairs)


class SquareSystem(namedtuple("SquareSystem", "n roots certificates s")):
    """n roots whose squares sum to s, with per-index certificates.

    certificates[i]^2 == s - roots[i]^2 for every i.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs):
        """The reduced system of integer chain pairs (x_i, y_i).

        Divides by the joint gcd and takes roots |x_i| and certificates
        |y_i|; s is the sum of the first reduced pair's squares.
        """
        pairs = tuple(pairs)
        g = vec_gcd([v for pair in pairs for v in pair])
        roots = tuple(abs(x) // g for x, _ in pairs)
        certs = tuple(abs(y) // g for _, y in pairs)
        return cls(len(pairs), roots, certs,
                   roots[0] * roots[0] + certs[0] * certs[0])

    @property
    def distinct(self) -> bool:
        """|roots| are pairwise distinct and nonzero."""
        mags = {abs(r) for r in self.roots}
        return len(mags) == len(self.roots) and 0 not in mags


def _require_nonzero(pairs, what):
    for i, (x, _) in enumerate(pairs):
        if x == 0:
            raise DegenerateParameterError(
                f"{what}: x_{i + 1} vanishes at this parameter")


def lemma3_general(n: int, t) -> ChainSolution:
    """Family with x_1 = ... = x_{n-2} and two tail entries, any n >= 3.

    Excluding any of the repeated entries leaves (n-2)^2 (t^2+1)^6.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    t2 = t * t
    rep = (8 * t * (t2 + 1) * (t2 - 1), (n - 2) * (t2 + 1) ** 3)
    tail1 = ((t2 - 1) * ((n - 2) * t2 * t2 + (2 * n - 20) * t2 + (n - 2)),
             2 * t * ((n + 2) * t2 * t2 + (2 * n - 12) * t2 + (n + 2)))
    tail2 = (2 * t * ((n - 6) * t2 * t2 + (2 * n + 4) * t2 + (n - 6)),
             (t2 - 1) * ((n - 2) * t2 * t2 + (2 * n + 12) * t2 + (n - 2)))
    pairs = (rep,) * (n - 2) + (tail1, tail2)
    _require_nonzero(pairs, f"lemma3_general(n={n})")
    return ChainSolution.from_pairs(pairs)


def lemma3_special(m: int, t) -> ChainSolution:
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


def seed_n5_simple(t) -> ChainSolution:
    """Five-entry seed: the m=2 special family with x_3, x_4 negated.

    The sign split (two +2t, two -2t) is what lets a single transform
    round separate the repeated block.
    """
    a = 2 * t
    b = 3 * t * t + 1
    pairs = ((a, b), (a, b), (-a, b), (-a, b), (3 * t * t - 1, 4 * t))
    _require_nonzero(pairs, "seed_n5_simple")
    return ChainSolution.from_pairs(pairs)


def seed_n6(t) -> ChainSolution:
    """Six-entry seed with a block of four equal |x| values.

    Printed sign convention: x_2 = x_1, x_3 = x_4 = -x_1.
    """
    t2 = t * t
    x1 = 8 * t * (t2 * t2 - 1)
    y1 = 4 * (t2 + 1) ** 3
    pairs = ((x1, y1), (x1, y1), (-x1, y1), (-x1, y1),
             (4 * (t2 - 1) ** 3, 16 * t * (t2 * t2 + 1)),
             (32 * t ** 3, 4 * (t2 - 1) * (t2 * t2 + 6 * t2 + 1)))
    _require_nonzero(pairs, "seed_n6")
    return ChainSolution.from_pairs(pairs)
