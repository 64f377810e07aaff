"""Independent validation oracle.

Everything here recomputes the claimed properties from raw values using
only integer squaring and exact integer square roots, so it shares no
machinery with the construction modules it is used to check.

validate_system tests each certificate first: c^2 equal to the
exclusion sum already proves that sum a square, so isqrt runs only on a
mismatch, to tell a non-square sum from a wrong certificate.

Reports are structured: each violated condition is listed with the
entry index (1-based) and the recomputed values, so a failure pinpoints
the exact digit-level discrepancy instead of a bare boolean.  A value
past the int->str digit limit is written as its bit length instead.
"""

from __future__ import annotations

from collections import namedtuple

from .exactmath import is_perfect_square
from .seeds import ChainSolution, SquareSystem


class Violation(namedtuple("Violation", "index kind detail")):
    """index is the 1-based entry index, None for global conditions."""

    __slots__ = ()

    def __str__(self):
        where = f"entry {self.index}" if self.index is not None else "global"
        return f"[{self.kind}] {where}: {self.detail}"


class Report(namedtuple("Report", "ok violations")):
    __slots__ = ()

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def _show(v) -> str:
    """str(v), or a compact form for an int past the int->str digit limit."""
    try:
        return str(v)
    except ValueError:
        return f"{'-' if v < 0 else ''}<{v.bit_length()}-bit integer>"


def _report(violations) -> Report:
    violations = tuple(violations)
    return Report(not violations, violations)


def validate_chain(sol: ChainSolution) -> Report:
    """Check x_i^2 + y_i^2 = s for every i, and sum(x_i^2) = s.

    Works over any exact scalar type (equality-based, no square roots).
    """
    out = []
    total = None
    for i, (x, y) in enumerate(sol.pairs, start=1):
        v = x * x + y * y
        if v != sol.s:
            out.append(Violation(i, "pair-sum",
                                 f"x^2+y^2 = {_show(v)}, "
                                 f"expected s = {_show(sol.s)}"))
        sq = x * x
        total = sq if total is None else total + sq
    if total != sol.s:
        out.append(Violation(None, "square-sum",
                             f"sum of x^2 = {_show(total)}, "
                             f"expected s = {_show(sol.s)}"))
    return _report(out)


def validate_system(sys: SquareSystem, require_distinct: bool = True) -> Report:
    """Recompute every exclusion sum from the roots alone and test it.

    Checks: declared s, each exclusion sum a perfect square, each
    certificate squaring to its exclusion sum, nonzero roots, and
    (optionally) pairwise-distinct |roots|.
    """
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
        if cc == excl:  # a square, with its certificate: nothing to report
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

