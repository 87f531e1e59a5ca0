"""Cell modules for the Temperley-Lieb, Motzkin and partial Temperley-Lieb towers.

Carriers are paths: a Temperley-Lieb path is a +-1 sequence with
nonnegative partial sums, a Motzkin path additionally allows zeros.  Paths
are identified with 1-factors (partial planar involutions): each +1 pairs
with the nearest later index closing its partial sum, leftover +1 entries
are fixed points ("lines to infinity"), zeros are isolated vertices.  One
rule, partial sums never below zero, both checks a path
(:func:`is_motzkin_path`) and lists the paths of a length: they are the
words over -1, 0, 1 that pass it, in lexicographic order.  Each cell
module's basis is listed once per (kind, k, lambda) and kept as a tuple.

A path is the top half of a diagram (:func:`path_diagram`): its pairs are
cups, each fixed point c is the through edge c -- c', its zeros stay
isolated.  Diagrams act on paths through :func:`~ptlalg.diagram.compose`
with that half-diagram, each closed loop contributing one factor of the
loop parameter, and the composite's top row is the image path.  Bar paths
are the bar expansions of half-diagrams, recollecting into them is a basis
change in the Motzkin algebra, and bar-basis diagrams act on them by the
algebra's bar rule on the same half-diagrams.  The rank filtration of the
Motzkin path space gives the Motzkin cell modules, its zero-free part the
Temperley-Lieb ones, and the alternating bar-path basis, filtered by
dominance of path types, the partial Temperley-Lieb ones.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .algebra import AlgebraSpec, Element, bar_multiply, bar_of, change_basis, motzkin_spec
from .diagram import Diagram, check_k, compose
from .linalg import SparseMatrix
from .repn import word_weight


def is_motzkin_path(a):
    total = 0
    for x in a:
        if x not in (-1, 0, 1):
            return False
        total += x
        if total < 0:
            return False
    return True


def rank_of(a):
    return sum(a)


def motzkin_paths(k):
    """All Motzkin paths of length k, lexicographically ordered."""
    check_k(k)
    return [a for a in itertools.product((-1, 0, 1), repeat=k) if is_motzkin_path(a)]


def path_pairing(a):
    """Pairs (i, j) and unpaired indices of a path, 1-based.

    Each index i with a_i = 1 pairs with the smallest j > i making the sum
    a_i + ... + a_j vanish; the leftover ones are the fixed points.
    """
    if not is_motzkin_path(a):
        raise ValueError("not a Motzkin path: %r" % (a,))
    pairs, unclosed = [], []
    for j, x in enumerate(a, 1):
        if x == 1:
            unclosed.append(j)
        elif x == -1:
            pairs.append((unclosed.pop(), j))
    return sorted(pairs), unclosed


def join_tl(a, b):
    """Join two paths with equally many fixed points into a diagram:
    ``a`` on top, ``b`` reflected on the bottom, fixed points joined in order."""
    if len(a) != len(b):
        raise ValueError("paths must have equal length")
    pa, fa = path_pairing(a)
    pb, fb = path_pairing(b)
    if len(fa) != len(fb):
        raise ValueError("fixed point counts differ (%d vs %d)" % (len(fa), len(fb)))
    k = len(a)
    edges = [(i - 1, j - 1) for (i, j) in pa]
    edges += [(k + i - 1, k + j - 1) for (i, j) in pb]
    edges += [(i - 1, k + j - 1) for i, j in zip(fa, fb)]
    return Diagram.from_edges(k, edges)


def path_diagram(a):
    """The path ``a`` as the top half of a diagram.

    Pairs become cups, each fixed point c the through edge c -- c', zeros
    and the other bottom vertices stay isolated.
    """
    return _path_diagram(tuple(a))


@functools.lru_cache(maxsize=None)
def _path_diagram(a):
    pairs, fixed = path_pairing(a)
    k = len(a)
    edges = [(i - 1, j - 1) for (i, j) in pairs]
    edges += [(c - 1, k + c - 1) for c in fixed]
    return Diagram.from_edges(k, edges)


def path_of(d):
    """The top row of a partial Brauer diagram read as a path: a cup (i, j)
    gives +1 at i and -1 at j, a through edge +1, an isolated vertex 0."""
    k = d.k
    b = [0] * k
    for blk in d.blocks:
        if len(blk) == 2 and blk[0] < k:
            b[blk[0]] = 1
            if blk[1] < k:
                b[blk[1]] = -1
    return tuple(b)


def act_on_path(d, a):
    """Graphical stacking of a diagram on a path: d a = delta^N b.

    Returns (N, b), where N counts the closed loops of d o path_diagram(a)
    and b is the top row of that composite.
    """
    if not d.is_partial_brauer():
        raise ValueError("act_on_path needs a partial Brauer diagram")
    comp = compose(d, path_diagram(a))
    return comp.loops, path_of(comp.diagram)


# -- typed paths and the alternating path basis ---------------------------------

def valid_types(k):
    """All two-part partition types of Motzkin paths of length k."""
    check_k(k)
    return [(l1, l2) for n in range(k + 1)
            for l2 in range(n // 2 + 1) for l1 in (n - l2,) if l1 >= l2]


def bar_path(a):
    """Signed sum over erasures of edges and lines of the 1-factor of ``a``."""
    bar = bar_of(motzkin_spec(len(a)), path_diagram(a))
    return {path_of(d): c for d, c in bar.terms.items()}


def collect_bar_paths(combo):
    """Rewrite a plain-path combination in bar-path coordinates."""
    if not combo:
        return {}
    spec = motzkin_spec(len(next(iter(combo))))
    x = Element(spec, {path_diagram(a): c for a, c in combo.items()})
    return {path_of(d): c for d, c in change_basis(x, "bar").terms.items()}


@functools.lru_cache(maxsize=None, typed=True)
def _partial_brauer(k, delta):
    """The partial Brauer algebra ``bar_act`` multiplies in, formed once per
    (k, delta), so its product table serves every later call."""
    return AlgebraSpec("partial_brauer", k, delta)


def bar_act(spec, d, a):
    """Action of a balanced bar-basis diagram on a bar path: the bar rule on
    d and the half-diagram of ``a`` (partial Brauer, loop parameter of
    ``spec``) gives (delta-1)^N bar(b), read back as (coefficient, b), or
    ``None`` for zero or a dropped rank.  The rank-preservation condition is
    forced by the expand-act-recollect computation in the path module
    (rank-dropping images cancel out of the alternating sums); inside the
    cell-module quotients it is invisible, since dominated types are killed
    there anyway.
    """
    if not d.is_balanced():
        raise ValueError("bar_act needs a balanced diagram")
    prod = bar_multiply(_partial_brauer(d.k, spec.delta), d, path_diagram(a))
    if not prod:
        return None
    (image, coeff), = prod.terms.items()
    b = path_of(image)
    if rank_of(b) != rank_of(a):
        return None
    return coeff, b


# -- cell modules ----------------------------------------------------------------

def cell_basis(kind, k, lam):
    """The paths spanning the cell module of ``kind`` at (k, lam), in
    lexicographic order, as a tuple listed once per (kind, k, lam).  A TL or
    Motzkin lam is an int rank, a PTL lam a pair of ints; a bool is neither."""
    check_k(k)
    if kind == "ptl":
        if not (isinstance(lam, (tuple, list)) and len(lam) == 2
                and all(type(v) is int for v in lam)):
            raise ValueError("a ptl lambda is a pair of integers, not %r" % (lam,))
        lam = tuple(lam)
    elif kind not in ("tl", "motzkin"):
        raise ValueError("unknown cell module kind %r" % (kind,))
    elif type(lam) is not int:
        raise ValueError("a %s lambda is an integer, not %r" % (kind, lam))
    return _cell_basis(kind, k, lam)


@functools.lru_cache(maxsize=None)
def _cell_basis(kind, k, lam):
    if kind == "ptl":
        if lam not in valid_types(k):
            raise ValueError("invalid type %r" % (lam,))
        keep = lambda a: word_weight(a) == lam
    elif not 0 <= lam <= k:
        raise ValueError("rank out of range")
    elif kind == "motzkin":
        keep = lambda a: rank_of(a) == lam
    elif (k - lam) % 2:
        raise ValueError("k - lambda must be even for TL cell modules")
    else:
        keep = lambda a: 0 not in a and rank_of(a) == lam
    return tuple(a for a in motzkin_paths(k) if keep(a))


def cell_action(kind, lam, x):
    """Matrix of an algebra element on the cell module, columns = input paths.

    TL and Motzkin modules take diagram-basis elements acting through
    :func:`act_on_path` and the quotient kills rank-dropping images; the
    partial Temperley-Lieb modules take bar-coordinate elements acting
    through :func:`bar_act`, with images of strictly dominated type killed.
    """
    spec = x.spec
    basis = cell_basis(kind, spec.k, lam)
    coords = "bar" if kind == "ptl" else "diagram"
    if x.basis != coords:
        raise ValueError("cell_action over %s expects %s coordinates" % (kind, coords))
    index = {a: i for i, a in enumerate(basis)}
    m = SparseMatrix(len(basis), len(basis))
    for d, c in x.terms.items():
        for a, col in index.items():
            if kind == "ptl":
                hit = bar_act(spec, d, a)
            else:
                n, b = act_on_path(d, a)
                hit = (spec.delta ** n if n else 1, b)
            if hit is None:
                continue
            coeff, b = hit
            row = index.get(b)
            if row is not None:
                m.add_at(row, col, c * coeff)
    return m


def tl_cell_dim(n, m):
    """Number of TL paths of length n and rank m (a ballot number)."""
    if m < 0 or (n - m) % 2 or m > n:
        return 0
    half = (n - m) // 2
    return comb(n, half) - (comb(n, half - 1) if half else 0)


def cell_dims(kind, k):
    """lambda -> dimension table for the cell modules of the given tower."""
    check_k(k)
    if kind == "tl":
        return {m: tl_cell_dim(k, m) for m in range(k % 2, k + 1, 2)}
    if kind == "motzkin":
        return {m: sum(comb(k, n) * tl_cell_dim(n, m) for n in range(m, k + 1))
                for m in range(k + 1)}
    if kind == "ptl":
        return {lam: comb(k, sum(lam)) * tl_cell_dim(sum(lam), lam[0] - lam[1])
                for lam in valid_types(k)}
    raise ValueError("unknown cell module kind %r" % (kind,))
