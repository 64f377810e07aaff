"""Two-square composition and the equal-norm representation chains.

Read a pair (u1, u2) as the Gaussian integer u1 + i*u2, whose norm is
u1^2 + u2^2.  Norms multiply (the Brahmagupta-Fibonacci identity), so a
product of Gaussian integers, with any factors conjugated, has the
product of the factor norms as its norm.  ``phi`` is f*conj(g)*h and
``psi`` is i*e*conj(f)*g*conj(h).  Conjugating selected factors
(negating their second components) yields four (``chain4``) or eight
(``chain8``) representations (a_i, b_i) that all share one norm: the
product of the parameter-pair norms.

All functions are generic in their scalar type: ints, Fractions, or the
polynomials of :class:`exsquares.derive.Poly` work alike, since only
ring operations are used.
"""

from __future__ import annotations


def phi(f1, f2, g1, g2, h1, h2):
    """Three-factor generator pair (phi1, phi2) = f * conj(g) * h.

    phi1^2 + phi2^2 = (f1^2+f2^2)(g1^2+g2^2)(h1^2+h2^2).
    """
    a = f1 * g1 + f2 * g2  # f * conj(g)
    b = f2 * g1 - f1 * g2
    return (a * h1 - b * h2, b * h1 + a * h2)


def psi(e1, e2, f1, f2, g1, g2, h1, h2):
    """Four-factor generator pair (psi1, psi2) = i * e * conj(f) * g * conj(h).

    psi1^2 + psi2^2 = (e1^2+e2^2)(f1^2+f2^2)(g1^2+g2^2)(h1^2+h2^2).
    """
    a = e1 * f1 + e2 * f2  # e * conj(f)
    b = e2 * f1 - e1 * f2
    c = a * g1 - b * g2  # ... * g
    d = a * g2 + b * g1
    return (c * h2 - d * h1, c * h1 + d * h2)  # i * ... * conj(h)


# Which second components get negated to produce chain member i.  The
# patterns are fixed data: tests depend on reproducing them exactly.
CHAIN4_FLIPS = ((), (0,), (1,), (2,))
CHAIN8_FLIPS = ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))


def chain4(p, q, r):
    """Four equal-norm pairs built from three parameter pairs.

    Every returned (a, b) has a^2 + b^2 equal to the product of the
    pair_norm of p, q and r.
    """
    # each parameter pair and its conjugate, indexed by "k in mask"
    cp, cq, cr = [(u, (u[0], -u[1])) for u in (p, q, r)]
    out = []
    for mask in CHAIN4_FLIPS:
        (f1, f2), (g1, g2), (h1, h2) = (
            cp[0 in mask], cq[1 in mask], cr[2 in mask])
        out.append(phi(f1, f2, g1, g2, h1, h2))
    return out


def chain8(p, q, r, s):
    """Eight equal-norm pairs built from four parameter pairs.

    Every returned (a, b) has a^2 + b^2 equal to the product of the
    pair_norm of p, q, r and s.
    """
    cp, cq, cr, cs = [(u, (u[0], -u[1])) for u in (p, q, r, s)]
    out = []
    for mask in CHAIN8_FLIPS:
        (e1, e2), (f1, f2), (g1, g2), (h1, h2) = (
            cp[0 in mask], cq[1 in mask], cr[2 in mask], cs[3 in mask])
        out.append(psi(e1, e2, f1, f2, g1, g2, h1, h2))
    return out


def pair_norm(u):
    return u[0] * u[0] + u[1] * u[1]
