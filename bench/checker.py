"""Output checks that use only the standard library.

Nothing here calls into exsquares.  Every system is checked against the
properties an exclusion square system must have, recomputed with
``math.isqrt`` and ``math.gcd``.  Three kinds of reference point are
checked on top of that:

* the published systems in ``tests/goldens.py`` (method 1 at t = 2 for
  n = 5, 6; method 2 at (1, 2) for n = 5, 6 and at (2, 1) for n = 7, 8),
  wherever a workload produces one of them;
* the closed-form substitutions printed in the paper, copied below as
  fixed data, which every ``derive_n*`` result must match projectively;
* the line count of a CLI sweep, which must equal the number of
  non-degenerate points of the sweep.
"""

from __future__ import annotations

import json
import math
import os
import runpy


class CheckError(Exception):
    """An output that does not have a property it must have."""


def check_system(n, roots, certs, s, distinct=True) -> int:
    """Check one system; return the bit length of its largest root.

    ``distinct=False`` accepts repeated |roots|, as ``verify
    --allow-repeats`` does, for families that repeat them by design.
    """
    if len(roots) != n or len(certs) != n:
        raise CheckError(f"n = {n} but {len(roots)} roots, "
                         f"{len(certs)} certificates")
    mags = [abs(r) for r in roots]
    if 0 in mags:
        raise CheckError("a root is zero")
    if distinct and len(set(mags)) != n:
        raise CheckError("|roots| are not pairwise distinct")
    g = 0
    for v in (*roots, *certs):
        g = math.gcd(g, v)
    if g != 1:
        raise CheckError(f"roots and certificates share the factor {g}")
    if sum(r * r for r in roots) != s:
        raise CheckError("sum of squared roots differs from s")
    for i, (r, c) in enumerate(zip(roots, certs), start=1):
        excl = s - r * r
        q = math.isqrt(excl)
        if q * q != excl:
            raise CheckError(f"exclusion sum {i} is not a perfect square")
        if c * c != excl:
            raise CheckError(f"certificate {i} does not square to its "
                             f"exclusion sum")
    return max(mags).bit_length()


def parse_system(text):
    """(n, roots, certificates, s) from one JSON system object, as the
    CLI prints it: big integers as decimal strings."""
    obj = json.loads(text)
    return (int(obj["n"]), tuple(int(r) for r in obj["roots"]),
            tuple(int(c) for c in obj["certificates"]), int(obj["s"]))


def system_json(roots):
    """The CLI's JSON form of the system with these roots; certificates
    are recovered from the exclusion sums."""
    s = sum(r * r for r in roots)
    certs = [math.isqrt(s - r * r) for r in roots]
    return json.dumps({"n": len(roots), "roots": [str(r) for r in roots],
                       "certificates": [str(c) for c in certs],
                       "s": str(s), "reduced": True})


def load_goldens(root):
    """Published root multisets keyed by how a workload produces them:
    ("m1", n, t), ("m2", n, (p1, p2)) or ("eval", family id, params)."""
    g = runpy.run_path(os.path.join(root, "tests", "goldens.py"))
    table = {
        ("m1", 5, 2): g["M1_N5_T2"],
        ("m1", 6, 2): g["M1_N6_T2"],
        ("m2", 5, (1, 2)): g["M2_N5_12"],
        ("m2", 6, (1, 2)): g["M2_N6_12"],
        ("m2", 7, (2, 1)): g["M2_N7_21"],
        ("m2", 8, (2, 1)): g["M2_N8_21"],
    }
    # the catalog stores the same families, so its evaluations must
    # agree with the constructions at these points
    table[("eval", "n5-method1-deg17", 2)] = g["M1_N5_T2"]
    table[("eval", "n5-method2-deg30", (1, 2))] = g["M2_N5_12"]
    table[("eval", "n6-method2-deg38", (1, 2))] = g["M2_N6_12"]
    return {k: sorted(v) for k, v in table.items()}


def check_reference(goldens, key, roots):
    want = goldens.get(key)
    if want is not None and sorted(abs(r) for r in roots) != want:
        raise CheckError(f"{key} differs from the published roots")


# ---------------------------------------------------------------------------
# closed-form substitutions of the method-2 pipelines (fixed paper data)
# ---------------------------------------------------------------------------

def _n5_p(q1, q2):
    return (4 * q1 * q2 * (q1 - q2) * (q1 + q2), 3 * (q1 ** 4 + q2 ** 4))


def _n5_r(q1, q2):
    return (6 * q1 ** 5 - 17 * q1 ** 4 * q2 + 24 * q1 ** 3 * q2 ** 2
            - 12 * q1 ** 2 * q2 ** 3 - 2 * q1 * q2 ** 4 + 3 * q2 ** 5,
            3 * q1 ** 5 - 2 * q1 ** 4 * q2 - 12 * q1 ** 3 * q2 ** 2
            + 24 * q1 ** 2 * q2 ** 3 - 17 * q1 * q2 ** 4 + 6 * q2 ** 5)


def _n6_r(p1, p2):
    return (-2 * p1 * p2 * (p1 ** 2 - p2 ** 2)
            * (p1 ** 2 + 2 * p1 * p2 - p2 ** 2)
            * (p1 ** 2 - 2 * p1 * p2 - p2 ** 2),
            p1 ** 8 + 8 * p1 ** 6 * p2 ** 2 - 2 * p1 ** 4 * p2 ** 4
            + 8 * p1 ** 2 * p2 ** 6 + p2 ** 8)


def _n6_s(p1, p2):
    return (2 * p1 * p2 * (p1 - p2) * (p1 + p2), (p1 ** 2 + p2 ** 2) ** 2)


def _n7_r(p1, p2):
    return (5 * (p1 ** 2 + p2 ** 2) ** 2, 8 * p1 * p2 * (p1 - p2) * (p1 + p2))


def _n7_s(p1, p2):
    return (25 * p1 ** 8 + 164 * p1 ** 6 * p2 ** 2 + 22 * p1 ** 4 * p2 ** 4
            + 164 * p1 ** 2 * p2 ** 6 + 25 * p2 ** 8,
            16 * p1 * p2 * (p1 - p2) * (p1 + p2)
            * (p1 ** 2 - 4 * p1 * p2 + p2 ** 2)
            * (p1 ** 2 + 4 * p1 * p2 + p2 ** 2))


def _n8_r(p1, p2):
    return (6 * (p1 ** 2 + p2 ** 2) ** 2, 8 * p1 * p2 * (p1 - p2) * (p1 + p2))


def _n8_s(p1, p2):
    return (9 * p1 ** 8 + 52 * p1 ** 6 * p2 ** 2 + 22 * p1 ** 4 * p2 ** 4
            + 52 * p1 ** 2 * p2 ** 6 + 9 * p2 ** 8,
            8 * p1 * p2 * (p1 - p2) * (p1 + p2)
            * (p1 ** 2 + 2 * p1 * p2 - p2 ** 2)
            * (p1 ** 2 - 2 * p1 * p2 - p2 ** 2))


# q = (p1 * sum odd_j m_j, p2 * sum even_j m_j), m_j = p1^(24-2j) p2^(2j)
_Q = {
    6: ((1, 26, 184, 126, 2105, -2972, 7288, -5284, 2435, -94, 272, 6, 3),
        (3, 6, 272, -94, 2435, -5284, 7288, -2972, 2105, 126, 184, 26, 1)),
    7: ((78125, 1399500, 8937610, 23564092, 78166867, 3600152, 182941900,
         -64814760, 51621283, 17916188, 14166858, 2174060, 248125),
        (248125, 2174060, 14166858, 17916188, 51621283, -64814760,
         182941900, 3600152, 78166867, 23564092, 8937610, 1399500, 78125)),
    8: ((729, 11916, 68162, 165308, 512615, 324248, 968668, 148568, 481719,
         168924, 114434, 18668, 2025),
        (2025, 18668, 114434, 168924, 481719, 148568, 968668, 324248,
         512615, 165308, 68162, 11916, 729)),
}


def _q(n, p1, p2):
    odd, even = _Q[n]
    monos = [p1 ** (24 - 2 * j) * p2 ** (2 * j) for j in range(13)]
    return (p1 * sum(c * m for c, m in zip(odd, monos)),
            p2 * sum(c * m for c, m in zip(even, monos)))


_CLOSED = {
    6: {"r": _n6_r, "s": _n6_s},
    7: {"r": _n7_r, "s": _n7_s},
    8: {"r": _n8_r, "s": _n8_s},
}


def _proportional(a, b):
    if a[0] == 0 and a[1] == 0:
        return False
    return a[0] * b[1] == a[1] * b[0]


def check_derive(n, pair, got):
    """A derive_n* result against the closed forms at the same pair."""
    p1, p2 = pair
    if n == 5:
        if not _proportional(got["p"], _n5_p(p1, p2)):
            raise CheckError(f"derive_n5{pair}: p differs from the closed form")
        if not any(_proportional(r, _n5_r(p1, p2)) for r in got["r"]):
            raise CheckError(f"derive_n5{pair}: no r root matches the "
                             f"closed form")
        return
    for name, form in _CLOSED[n].items():
        if not _proportional(got[name], form(p1, p2)):
            raise CheckError(f"derive_n{n}{pair}: {name} differs from the "
                             f"closed form")
    if not _proportional(got["q"], _q(n, p1, p2)):
        raise CheckError(f"derive_n{n}{pair}: q differs from the closed form")
