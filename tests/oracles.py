"""Reference implementations that only the tests use.

None of these runs in a command.  They check the package from outside:
inverse_transform undoes evolve.transform, lemma3_special is the
paper's n = m^2 + 1 family, chain4_norm and chain8_norm give the common
norm of identities.chain4 and chain8, and validate_system_3n is the
validator as it was before it squared each root once.

tests/test_acceptance.py imports the first four from the package
modules they used to live in; conftest.py binds them there.
"""

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
