"""The partial Temperley-Lieb algebra: basis strata, block decomposition,
the matrix-algebra isomorphism, and dimension bookkeeping.

The bar basis is indexed by balanced Motzkin diagrams and splits by edge
count into pairwise orthogonal two-sided ideals X(n); each X(n) is the
algebra of binom(k,n) x binom(k,n) matrices over TL_n(delta - 1), with
rows and columns labelled by the n-subsets of {1..k} in colexicographic
order and matrix entries transported through the triple bijection
d <-> (A, t, B).
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import AlgebraSpec, Element, change_basis
from .diagram import check_k, count_diagrams, n_subsets, triple_of
from .linalg import Echelon, SparseMatrix


def ptl_dimension(k):
    """sum_n binom(k,n)^2 Catalan(n) = number of balanced Motzkin k-diagrams."""
    return sum(strata_dims(k))


def strata_dims(k):
    """dim X(n) = binom(k,n)^2 Catalan(n), the size of stratum n, for n = 0..k."""
    check_k(k)
    return [count_diagrams("balanced_motzkin_n", k, n) for n in range(k + 1)]


@functools.lru_cache(maxsize=None, typed=True)
def _stratum(k, delta, n):
    """The colex n-subsets of {1..k}, their positions and the entry algebra
    TL_n(delta - 1) of X(n), formed once per (k, delta, n).  Keyed by the
    spec's fields, not the spec, so the cache keeps no spec, nor the
    products its table holds, alive."""
    subsets = n_subsets(k, n)
    tspec = AlgebraSpec("tl", n, delta - 1)
    return subsets, {A: i for i, A in enumerate(subsets)}, tspec


def to_block(x, n=None):
    """Transport a bar-coordinate element supported on one stratum to its block.

    The block is a binom(k,n)-square :class:`SparseMatrix` with
    TL_n(delta - 1) :class:`Element` entries; row and column i are the i-th
    n-subset of {1..k} in colexicographic order.  With ``n`` given (an int
    in 0..k), the zero element maps to the empty block.

    Each entry is built by closure through ``Element._of``, unchecked: t
    is a TL n-diagram by the triple's construction, and c a nonzero
    coefficient of the valid element x, so a scalar of the entry algebra's
    ring, as delta - 1 has the type of delta.
    """
    if x.basis != "bar":
        raise ValueError("to_block expects bar coordinates")
    k = x.spec.k
    if n is not None and (type(n) is not int or not 0 <= n <= k):
        raise ValueError("stratum n must be an integer in 0..k = %d, not %r" % (k, n))
    strata = {d.n_edges() for d in x.terms}
    if n is None:
        if len(strata) != 1:
            raise ValueError("element is not supported on a single stratum")
        n = strata.pop()
    elif strata - {n}:
        raise ValueError("support crosses stratum %d" % (n,))
    subsets, idx, tspec = _stratum(k, x.spec.delta, n)
    block = SparseMatrix(len(subsets), len(subsets))
    for d, c in x.terms.items():
        A, t, B = triple_of(d)
        block.add_at(idx[A], idx[B], Element._of(tspec, {t: c}, "diagram"))
    return block


# -- generated subalgebra dimension ---------------------------------------------

def generated_dimension(gens):
    """Dimension of the unital subalgebra generated by ``gens``.

    Coefficients are specialized at the generic rational delta = 7/3 (any
    specialization can only drop the rank, so hitting the target dimension
    at one rational point certifies the generic statement).

    The subalgebra is the span of the words in the generators, which is the
    smallest subspace that holds 1 and is closed under right multiplication
    by every generator.  Starting from 1, each newly independent element is
    multiplied on the right by each generator, so every element of the
    spanning set is tried against every generator exactly once.

    The rank does not depend on the basis, so the words are multiplied in
    the one where the generators have the fewest terms (diagram on a tie,
    and for generators the tilde vectors of their algebra do not span):
    tilde for PTL's r_i, l_i and tilde(e_i), whose products are one term or a few.
    """
    if not gens:
        raise ValueError("need at least one generator")
    moved = [[change_basis(g, "diagram") for g in gens]]
    try:
        moved.append([change_basis(g, "tilde") for g in gens])
    except ValueError:
        pass
    gens = min(moved, key=lambda m: sum(len(g.terms) for g in m))
    gens = [g.specialize(Fraction(7, 3)) for g in gens]
    one = change_basis(Element.unit(gens[0].spec), gens[0].basis)

    ech = Echelon()
    ech.add(one.terms)
    frontier = [one]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                prod = a * g
                if prod and ech.add(prod.terms):
                    fresh.append(prod)
        frontier = fresh
    return ech.rank
