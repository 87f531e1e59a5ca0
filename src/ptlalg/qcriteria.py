"""Quantum integers, the Jones polynomial recursion, and semisimplicity tests.

[n]_q = 1 + q + ... + q^(n-1); the balanced form is <n>_q = q^-(n-1) [n]_{q^2}.
The Jones polynomials satisfy P_0 = P_1 = 1, P_{n+1}(x) = P_n(x) - x P_{n-1}(x)
and P_n(1/(q + q^-1 + 2)) = [n+1]_q / (1+q)^n.  A Temperley-Lieb algebra on k
strands at loop parameter +-(q + q^-1) is semisimple whenever <k>!_q is
nonzero; the partial Temperley-Lieb algebra at 1 +- (q + q^-1) inherits the
criterion through its blocks, whose entries are Temperley-Lieb algebras on
n <= k strands at parameter +-(q + q^-1).  The condition for n = k contains
those for every smaller n, so :func:`tl_semisimple` on k strands is the
test for PTL_k as well.
Root-of-unity behaviour is tested symbolically, by exact divisibility by
cyclotomic polynomials.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalar import LaurentPoly, XPoly


def q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return LaurentPoly({i: 1 for i in range(n)})


def balanced_q_int(n):
    """<n>_q = q^-(n-1) [n]_{q^2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return LaurentPoly({-(n - 1) + 2 * i: 1 for i in range(n)})


@functools.lru_cache(maxsize=None)
def jones_p(n):
    """P_n(x): P_0 = P_1 = 1, P_{n+1} = P_n - x P_{n-1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return XPoly.one()
    return jones_p(n - 1) - XPoly.gen() * jones_p(n - 2)


def jones_identity_check(n, q0):
    """Exact check of (1+q)^n P_n(1/beta) = [n+1]_q at beta = q + q^-1 + 2."""
    q0 = Fraction(q0)
    if q0 == 0 or q0 == -1:
        raise ValueError("q must avoid 0 and -1, not %s" % (q0,))
    beta = q0 + 1 / q0 + 2    # (1 + q0)^2 / q0, nonzero here
    lhs = jones_p(n).evaluate(1 / beta) * (1 + q0) ** n
    rhs = q_int(n + 1).evaluate(q0)
    return lhs == rhs


def jones_identity_symbolic(n):
    """(1+q)^n P_n(q/(1+q)^2) as a polynomial; equals [n+1]_q when the
    identity holds.  1/beta = q/(1+q)^2 clears all denominators because
    deg P_n <= n/2."""
    one_plus_q = LaurentPoly({0: 1, 1: 1})
    total = LaurentPoly.zero()
    for e, c in jones_p(n).coeffs.items():
        if n - 2 * e < 0:
            raise AssertionError("Jones polynomial degree exceeded n/2")
        total = total + c * LaurentPoly.monomial(e) * one_plus_q ** (n - 2 * e)
    return total


def tl_semisimple(k, q0):
    """True iff <k>!_q is nonzero at the rational point q0, each <n>_q for
    n <= k evaluated exactly.  No rational q0 makes one vanish, as
    q^(n-1) <n>_q = 1 + q^2 + ... + q^(2n-2) is positive on the reals."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("q must be nonzero, not %s" % (q0,))
    return all(balanced_q_int(n).evaluate(q0) != 0 for n in range(1, k + 1))


# -- symbolic root-of-unity tests ------------------------------------------------

@functools.lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficient list (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    # q^n - 1 divided by the cyclotomic polynomials of the proper divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _polydivmod(poly, cyclotomic(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


def _polydivmod(num, den):
    """(quotient, remainder) of ascending coefficient lists; ``den`` is monic."""
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        coef = quot[i] = rem[i + len(den) - 1]
        for j, dc in enumerate(den):
            rem[i + j] -= coef * dc
    return quot, rem[: len(den) - 1]


def vanishes_at_primitive_root(p, ell):
    """Does the Laurent polynomial vanish at a primitive ell-th root of unity?

    Tested by exact divisibility by the cyclotomic polynomial, after
    clearing the q-powers; no algebraic numbers are ever constructed.
    """
    if p.is_zero():
        return True
    shift = -p.min_exponent()
    coeffs = [0] * (p.max_exponent() + shift + 1)
    for e, c in p.coeffs.items():
        coeffs[e + shift] = c
    _, rem = _polydivmod(coeffs, cyclotomic(ell))
    return not any(rem)


def tl_semisimple_at_root_of_unity(k, ell):
    """Symbolic semisimplicity verdict with q a primitive ell-th root of unity.

    Nonvanishing of <n>_q for all n <= k is sufficient, not necessary.  At
    ell = 4 the loop parameter q + q^-1 is 0 and <2>_q vanishes, yet TL_k(0)
    is semisimple for odd k (Ridout--Saint-Aubin, 2014): every odd-k cell
    form stays nondegenerate at delta = 0 (W(3, 1) has Gram determinant
    delta^2 - 1).
    """
    if ell == 4 and k % 2:
        return True
    for n in range(1, k + 1):
        if vanishes_at_primitive_root(balanced_q_int(n), ell):
            return False
    return True
