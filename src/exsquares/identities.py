"""Two-square composition and the equal-norm representation chains.

Read a pair (u1, u2) as the Gaussian integer u1 + i*u2, whose norm is
u1^2 + u2^2.  Norms multiply (the Brahmagupta-Fibonacci identity), so
the members of ``chain4`` and ``chain8``, products of the parameter
pairs with selected factors conjugated, share one norm.  The functions
are generic in their scalar type: ints, or the polynomials of
:class:`exsquares.derive.Poly`, work alike, since only ring operations
are used (and no int minus a polynomial).
"""

from __future__ import annotations


# Which second components get negated to produce chain member i.  The
# patterns are fixed data: tests depend on reproducing them exactly.
CHAIN4_FLIPS = ((), (0,), (1,), (2,))
CHAIN8_FLIPS = ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))


def _conjugates(u, v):
    """u'*conj(v') for u' in (u, conj(u)) and v' in (v, conj(v)), at
    index 2*(u' is conj(u)) + (v' is conj(v)): u*conj(v), u*v and their
    conjugates, from the same four products.  So every chain member is
    one product of two Gaussian integers."""
    w, x, y, z = u[0] * v[0], u[1] * v[1], u[1] * v[0], u[0] * v[1]
    a, b, c, d = w + x, y - z, w - x, y + z
    return (a, b), (c, d), (c, -d), (a, -b)


def chain4(p, q, r):
    """Four pairs (a, b): member i is p'*conj(q')*r', with the factors
    of CHAIN4_FLIPS[i] conjugated, so a^2 + b^2 is the product of the
    pair_norm of p, q and r."""
    pq = _conjugates(p, q)
    rr = (r, (r[0], -r[1]))  # r and conj(r)
    out = []
    for mask in CHAIN4_FLIPS:
        a, b = pq[2 * (0 in mask) + (1 in mask)]
        c, d = rr[2 in mask]
        out.append((a * c - b * d, a * d + b * c))
    return out


def chain8(p, q, r, s):
    """Eight pairs (a, b): member i is i*p'*conj(q')*r'*conj(s'), with
    the factors of CHAIN8_FLIPS[i] conjugated, so a^2 + b^2 is the
    product of the pair_norm of p, q, r and s."""
    pq, rs = _conjugates(p, q), _conjugates(r, s)
    out = []
    for mask in CHAIN8_FLIPS:
        a, b = pq[2 * (0 in mask) + (1 in mask)]
        c, d = rs[2 * (2 in mask) + (3 in mask)]
        out.append((-(a * d + b * c), a * c - b * d))  # i*(a+ib)*(c+id)
    return out


def pair_norm(u):
    return u[0] * u[0] + u[1] * u[1]
