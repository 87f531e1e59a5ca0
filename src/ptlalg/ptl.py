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

from fractions import Fraction
from math import comb

from .algebra import AlgebraSpec, Element, change_basis
from .diagram import (balanced_motzkin_stratum, diagram_of, n_subsets, triple_of)
from .linalg import Echelon, SparseMatrix
from .scalar import DeltaPoly, evaluate_delta


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def ptl_dimension(k):
    """sum_n binom(k,n)^2 Catalan(n) = number of balanced Motzkin k-diagrams."""
    return sum(strata_dims(k))


def strata_dims(k):
    return [comb(k, n) ** 2 * catalan(n) for n in range(k + 1)]


class PTLBasis:
    """The balanced Motzkin diagrams of size k, grouped by edge count."""

    def __init__(self, k):
        self.k = k
        self.strata = [balanced_motzkin_stratum(n, k) for n in range(k + 1)]
        self.index = {}
        pos = 0
        for n, stratum in enumerate(self.strata):
            for d in stratum:
                self.index[d] = pos
                pos += 1

    def diagrams(self):
        for stratum in self.strata:
            yield from stratum

    def __len__(self):
        return len(self.index)


def decompose_x(x):
    """Split a bar-coordinate element into its X(n) components."""
    if x.basis != "bar":
        raise ValueError("decompose_x expects bar coordinates")
    parts = {}
    for d, c in x.terms.items():
        if not d.is_balanced():
            raise ValueError("support must consist of balanced diagrams")
        parts.setdefault(d.n_edges(), {})[d] = c
    return {n: Element(x.spec, terms, "bar") for n, terms in sorted(parts.items())}


def tl_entry_spec(spec, n):
    """TL_n(delta - 1), the entry algebra of the n-th block."""
    return AlgebraSpec("tl", n, spec.delta - 1)


def to_block(x, n=None):
    """Transport a bar-coordinate element supported on one stratum to its block.

    The block is a binom(k,n)-square :class:`SparseMatrix` with
    TL_n(delta - 1) :class:`Element` entries; row and column i are the i-th
    n-subset of {1..k} in colexicographic order.  With ``n`` given, the
    zero element maps to the empty block.
    """
    if x.basis != "bar":
        raise ValueError("to_block expects bar coordinates")
    strata = {d.n_edges() for d in x.terms}
    if n is None:
        if len(strata) != 1:
            raise ValueError("element is not supported on a single stratum")
        n = strata.pop()
    elif strata - {n}:
        raise ValueError("support crosses stratum %d" % (n,))
    subsets = n_subsets(x.spec.k, n)
    idx = {A: i for i, A in enumerate(subsets)}
    tspec = tl_entry_spec(x.spec, n)
    block = SparseMatrix(len(subsets), len(subsets))
    for d, c in x.terms.items():
        A, t, B = triple_of(d)
        block.add_at(idx[A], idx[B], Element.of(tspec, t, c))
    return block


def from_block(spec, n, block):
    """Inverse of :func:`to_block` for the stratum X(n) of ``spec``."""
    subsets = n_subsets(spec.k, n)
    terms = {}
    for (i, j), el in block.entries.items():
        for t, c in el.terms.items():
            d = diagram_of(subsets[i], t, subsets[j], spec.k)
            terms[d] = terms.get(d, 0) + c
    return Element(spec, terms, "bar")


# -- generated subalgebra dimension ---------------------------------------------

def _specialize(x, delta0, delta_prime0=None):
    """Evaluate an element's delta-polynomial coefficients at a rational point."""
    spec = x.spec
    d0 = Fraction(delta0)
    dp = spec.delta_prime
    if isinstance(dp, DeltaPoly):
        dp = evaluate_delta(dp, d0)
    if delta_prime0 is not None:
        dp = Fraction(delta_prime0)
    delta = spec.delta
    if isinstance(delta, DeltaPoly):
        delta = d0
    nspec = AlgebraSpec(spec.flavor, spec.k, delta, dp)
    terms = {}
    for d, c in x.terms.items():
        terms[d] = evaluate_delta(c, d0) if isinstance(c, DeltaPoly) else Fraction(c)
    return Element(nspec, terms, x.basis)


def generated_dimension(gens, delta0=Fraction(7, 3)):
    """Dimension of the unital subalgebra generated by ``gens``.

    Coefficients are specialized at a generic rational delta (any
    specialization can only drop the rank, so hitting the target dimension
    at one rational point certifies the generic statement).
    """
    if not gens:
        raise ValueError("need at least one generator")
    gens = [change_basis(g, "diagram") if g.basis != "diagram" else g for g in gens]
    gens = [_specialize(g, delta0) for g in gens]
    spec = gens[0].spec
    seed = [Element.unit(spec)] + gens

    ech = Echelon()
    basis = []
    for el in seed:
        if ech.add(dict(el.terms)):
            basis.append(el)
    frontier = list(basis)
    while frontier:
        fresh = []
        for a in basis:
            for b in frontier:
                for prod in (a * b, b * a):
                    if prod and ech.add(dict(prod.terms)):
                        fresh.append(prod)
        basis.extend(fresh)
        frontier = fresh
    return ech.rank
