"""Chain-to-chain transform and the drivers that separate repeated entries.

The transform sends a chain solution (x_i, y_i) with

    P = sum(x_i * y_i),   S = sum(x_i ** 2)

to X_i = (n-2)*S*x_i - 2*P*y_i, Y_i = 2*P*x_i + (n-2)*S*y_i, which is
again a chain solution, and maps identical pairs to identical pairs and
distinct pairs to distinct pairs.  Negating any subset of the x_i also
preserves the chain conditions but changes P, so flipping half of each
identical block before transforming splits the block.  Repeating the
round halves every block until all entries differ.

Pairs that agree up to the sign of x form one (+-x, y) class, and a
halving round leaves whole blocks of such pairs, so transform and
coefficients compute each class's products once (_classes) and give
every pair of the class its image or its share of P and S.

transform and flip are generic over the scalar type; distinctify and
generate_method1 run the rounds on integers and return
SquareSystem.from_pairs of the last chain.  Each round starts with
reduce_chain (which keeps the signs), so the chain it transforms is
reduced, and from_pairs makes the one reduction of the last round's
output: the transform is homogeneous of degree 3, and flips and
equality tests ignore positive scaling, so leaving a round's output
unreduced changes nothing but its size.  Run over the n = 5, 6 seeds
as polynomials in t, the halving rounds negate index sets that cannot
depend on t, so they are kept as fixed schedules (_SCHEDULES) and
applied at the integer t.  That gives the polynomial family's value at
every t: evaluation commutes with flip and transform, each reduction
divides by a positive scalar and the transform is homogeneous of odd
degree, so the two chains are positive multiples of each other, and the
final gcd reduction makes them equal.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .exactmath import DomainError, vec_gcd
from .seeds import (ChainSolution, DegenerateParameterError, SquareSystem,
                    lemma3_general, seed_n5_simple, seed_n6)


class DistinctifyError(DomainError):
    """Halving rounds exhausted with entries still coinciding."""

    def __init__(self, multiplicities):
        self.multiplicities = multiplicities
        super().__init__(f"entries still repeat: multiplicities {multiplicities}")


class TransformCoefficients(namedtuple("TransformCoefficients", "P S")):
    __slots__ = ()


def _classes(pairs) -> dict:
    """Each distinct (+-x, y) class, keyed by its first pair (x, y), with
    the number of pairs equal to (x, y) and to (-x, y).

    Pairs of one class share the products a*|x|, b*|x|, a*y, b*y of the
    transform, and x*x and x*y up to sign, so each class is multiplied
    out once.  No sign is compared, so the scalars may be polynomials.
    """
    classes = {}
    for x, y in pairs:
        counts = classes.get((x, y))
        if counts is not None:
            counts[0] += 1
            continue
        counts = classes.get((-x, y))
        if counts is not None:
            counts[1] += 1
        else:
            classes[(x, y)] = [1, 0]
    return classes


def _coefficients(classes: dict) -> TransformCoefficients:
    p = s = 0
    for (x, y), (same, mirrored) in classes.items():
        if same != mirrored:
            p = p + (same - mirrored) * (x * y)
        s = s + (same + mirrored) * (x * x)
    return TransformCoefficients(P=p, S=s)


def coefficients(sol: ChainSolution) -> TransformCoefficients:
    """P = sum(x_i * y_i) and S = sum(x_i ** 2), summed per class."""
    return _coefficients(_classes(sol.pairs))


def transform(sol: ChainSolution) -> ChainSolution:
    classes = _classes(sol.pairs)
    co = _coefficients(classes)
    a = (sol.n - 2) * co.S
    b = 2 * co.P
    images = {}
    for (x, y), (_, mirrored) in classes.items():
        ax, bx, ay, by = a * x, b * x, a * y, b * y
        images[(x, y)] = (ax - by, bx + ay)
        if mirrored:
            images[(-x, y)] = (-ax - by, ay - bx)
    return ChainSolution.from_pairs(images[pair] for pair in sol.pairs)


def flip(sol: ChainSolution, indices) -> ChainSolution:
    idx = frozenset(indices)
    for i in idx:
        if not 0 <= i < sol.n:
            raise DomainError(f"flip index {i} out of range")
    return ChainSolution(sol.n,
                         tuple((-x, y) if i in idx else (x, y)
                               for i, (x, y) in enumerate(sol.pairs)),
                         sol.s)


def reduce_chain(sol: ChainSolution) -> ChainSolution:
    """Divide all entries by their joint gcd."""
    g = vec_gcd([v for x, y in sol.pairs for v in (x, y)])
    if g == 1:
        return sol
    return ChainSolution.from_pairs((x // g, y // g) for x, y in sol.pairs)


def _halving_flips(sol: ChainSolution) -> frozenset:
    """Indices to negate so that every x is nonnegative except the back
    half of each block of identical (|x|, y) pairs."""
    negative = {i for i, x in enumerate(sol.xs) if x < 0}
    blocks = {}
    for i, (x, y) in enumerate(sol.pairs):
        blocks.setdefault((abs(x), y), []).append(i)
    back = set()
    for members in blocks.values():
        back.update(members[len(members) - len(members) // 2:])
    return frozenset(negative ^ back)


def _round(sol: ChainSolution, indices) -> ChainSolution:
    return transform(flip(reduce_chain(sol), indices))


MAX_ROUNDS = 16


def distinctify(sol: ChainSolution) -> SquareSystem:
    """Run the halving rounds until all |x_i| are pairwise distinct and
    nonzero, and return the reduced system.

    Raises DistinctifyError (with the surviving multiplicity structure)
    if MAX_ROUNDS rounds leave entries coinciding.
    """
    rounds = 0
    # test the unreduced chain: its joint gcd changes no multiplicity
    while not SquareSystem(sol.n, sol.xs, sol.ys, sol.s).distinct:
        if rounds == MAX_ROUNDS:
            raise DistinctifyError(
                sorted(Counter(abs(x) for x in sol.xs).values()))
        sol = _round(sol, _halving_flips(sol))
        rounds += 1
    return SquareSystem.from_pairs(sol.pairs)


_SEEDS = {5: seed_n5_simple, 6: seed_n6}

# The halving rounds over the polynomial seeds, read off as index sets.
_SCHEDULES = {5: ((), (0, 2)), 6: ((), (1, 2, 5))}


def method1_seed(n: int, t):
    """Seed used by the method-1 driver for a given n."""
    if n in _SEEDS:
        return _SEEDS[n](t)
    return lemma3_general(n, t)


def finalize_system(pairs, label: str) -> SquareSystem:
    """The reduced system of integer pairs, gated on distinct roots."""
    system = SquareSystem.from_pairs(pairs)
    if not system.distinct:
        raise DegenerateParameterError(
            f"{label} collapses the family to repeated or zero roots")
    return system


def generate_method1(n: int, t: int) -> SquareSystem:
    """Method-1 run at integer t: evolve the seed until distinct, reduce.

    For n = 5 and 6 (the cases with published reference values) the
    rounds follow the fixed flip schedule of the polynomial family, so
    every t gives that family's value, and finalize_system rejects a t
    at which two roots coincide.  Other n return distinctify at t.  A t
    at which the seed vanishes raises DegenerateParameterError.
    """
    if not (type(n) is type(t) is int):
        raise DomainError("method 1 takes an int n and an int t")
    sol = method1_seed(n, t)
    if n not in _SCHEDULES:
        return distinctify(sol)
    for indices in _SCHEDULES[n]:
        sol = _round(sol, indices)
    return finalize_system(sol.pairs, f"t={t}")
