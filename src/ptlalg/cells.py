"""Cell modules for the Temperley-Lieb, Motzkin and partial Temperley-Lieb towers.

Carriers are paths: a Temperley-Lieb path is a +-1 sequence with
nonnegative partial sums, a Motzkin path additionally allows zeros.  Paths
are identified with 1-factors (partial planar involutions): each +1 pairs
with the nearest later index closing its partial sum, leftover +1 entries
are fixed points ("lines to infinity"), zeros are isolated vertices.

Diagrams act by graphical stacking; each closed loop formed in the bottom
row contributes one factor of the loop parameter.  The rank filtration of
the Motzkin path space gives the Motzkin cell modules, its zero-free part
the Temperley-Lieb ones, and the alternating bar-path basis, filtered by
dominance of path types, the partial Temperley-Lieb ones.
"""

from __future__ import annotations

import itertools
from math import comb

from .linalg import SparseMatrix


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
    out = []

    def extend(prefix, height):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for step in (-1, 0, 1):
            if height + step >= 0:
                extend(prefix + [step], height + step)

    extend([], 0)
    return sorted(out)


def tl_paths(k):
    return [a for a in motzkin_paths(k) if 0 not in a]


def paths_of_rank(k, m):
    return [a for a in motzkin_paths(k) if rank_of(a) == m]


def paths_of_type(k, lam):
    return [a for a in motzkin_paths(k) if type_of(a) == tuple(lam)]


def path_pairing(a):
    """Pairs (i, j) and unpaired indices of a path, 1-based.

    Each index i with a_i = 1 pairs with the smallest j > i making the sum
    a_i + ... + a_j vanish; the leftover ones are the fixed points.
    """
    if not is_motzkin_path(a):
        raise ValueError("not a Motzkin path: %r" % (a,))
    pairs = []
    unpaired = []
    stack = []
    for j, x in enumerate(a):
        if x == 1:
            stack.append(j)
        elif x == -1:
            i = stack.pop()
            pairs.append((i + 1, j + 1))
    unpaired = sorted(set(j + 1 for j, x in enumerate(a) if x == 1)
                      - {i for i, _ in pairs})
    return sorted(pairs), unpaired


def one_factor_of(a):
    """(pairs, fixed, zeros) of the 1-factor of a path, 1-based."""
    pairs, fixed = path_pairing(a)
    zeros = [j + 1 for j, x in enumerate(a) if x == 0]
    return pairs, fixed, zeros


def path_of_one_factor(k, pairs, fixed):
    """Inverse of :func:`one_factor_of`."""
    a = [0] * k
    for (i, j) in pairs:
        a[i - 1] = 1
        a[j - 1] = -1
    for i in fixed:
        a[i - 1] = 1
    a = tuple(a)
    if not is_motzkin_path(a):
        raise ValueError("pairs/fixed do not form a 1-factor")
    return a


def join_tl(a, b):
    """Join two paths with equally many fixed points into a diagram:
    ``a`` on top, ``b`` reflected on the bottom, fixed points joined in order."""
    from .diagram import Diagram
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


def act_on_path(d, a):
    """Graphical stacking of a diagram on a path: d a = delta^N b.

    Returns (N, b) where N counts the closed loops formed in the bottom
    row of the stacked picture and b is the resulting path along the top.
    """
    k = d.k
    if len(a) != k:
        raise ValueError("length mismatch")
    pairs, fixed, _zeros = one_factor_of(a)
    # nodes: tops 0..k-1, mids k..2k-1 (the path's vertices), and one
    # terminal 2k+c per fixed point c (the line to infinity)
    adj = {}

    def link(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for (u, v) in d.edges():
        link(u, v)
    for (i, j) in pairs:
        link(k + i - 1, k + j - 1)
    for c in fixed:
        link(k + c - 1, 2 * k + c - 1)

    seen = set()
    b = [0] * k
    loops = 0
    for start in list(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        tops = sorted(u for u in comp if u < k)
        infs = [u for u in comp if u >= 2 * k]
        n_edges = sum(len(adj[u]) for u in comp) // 2
        if not tops and not infs and n_edges == len(comp):
            loops += 1
        elif len(tops) == 2 and not infs:
            b[tops[0]] = 1
            b[tops[1]] = -1
        elif len(tops) == 1 and len(infs) == 1:
            b[tops[0]] = 1
        # everything else dangles and vanishes without a factor
    b = tuple(b)
    if not is_motzkin_path(b):
        raise ValueError("action left the path space; is the diagram planar?")
    return loops, b


# -- typed paths and the alternating path basis ---------------------------------

def type_of(a):
    """(number of +1 entries, number of -1 entries)."""
    return (sum(1 for x in a if x == 1), sum(1 for x in a if x == -1))


def dominance_leq(lam, mu):
    """True iff mu dominates lam: equal sizes and mu - lam = m(1,-1), m >= 0."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        return False
    diff = (mu[0] - mu[1]) - (lam[0] - lam[1])
    return diff >= 0 and diff % 2 == 0


def valid_types(k):
    """All two-part partition types of Motzkin paths of length k."""
    return [(l1, l2) for n in range(k + 1)
            for l2 in range(n // 2 + 1) for l1 in (n - l2,) if l1 >= l2]


def bar_path(a):
    """Signed sum over erasures of edges and lines of the 1-factor of ``a``."""
    pairs, fixed, _ = one_factor_of(a)
    units = [(i, j) for (i, j) in pairs] + [(i,) for i in fixed]
    out = {}
    for r in range(len(units) + 1):
        for erased in itertools.combinations(units, r):
            bl = list(a)
            for unit in erased:
                for i in unit:
                    bl[i - 1] = 0
            key = tuple(bl)
            out[key] = out.get(key, 0) + (-1) ** r
    return {p: c for p, c in out.items() if c}


def collect_bar_paths(combo):
    """Rewrite a plain-path combination in bar-path coordinates (triangular)."""
    work = dict(combo)
    out = {}
    while work:
        a = max(work, key=lambda p: (sum(1 for x in p if x), p))
        c = work.pop(a)
        if not c:
            continue
        out[a] = c
        for p, sign in bar_path(a).items():
            if p == a:
                continue
            work[p] = work.get(p, 0) - c * sign
    return {p: c for p, c in out.items() if c}


def bar_act(spec, d, a):
    """Action of a balanced bar-basis diagram on a bar path.

    (delta-1)^N bar(b) when the bottom frame of d matches the support of
    ``a`` and the rank survives, zero otherwise; N and b come from
    :func:`act_on_path`.  The rank-preservation condition is forced by the
    expand-act-recollect computation in the path module (rank-dropping
    images cancel out of the alternating sums); inside the cell-module
    quotients it is invisible, since dominated types are killed there
    anyway.
    """
    if not d.is_balanced():
        raise ValueError("bar_act needs a balanced diagram")
    support = frozenset(j + 1 for j, x in enumerate(a) if x)
    if frozenset(d.frames().bot) != support:
        return None
    n, b = act_on_path(d, a)
    if rank_of(b) != rank_of(a):
        return None
    return ((spec.delta - 1) ** n if n else 1, b)


# -- cell modules ----------------------------------------------------------------

def cell_basis(kind, k, lam):
    if kind == "tl":
        if (k - lam) % 2:
            raise ValueError("k - lambda must be even for TL cell modules")
        return [a for a in tl_paths(k) if rank_of(a) == lam]
    if kind == "motzkin":
        if not 0 <= lam <= k:
            raise ValueError("rank out of range")
        return paths_of_rank(k, lam)
    if kind == "ptl":
        lam = tuple(lam)
        if lam not in set(valid_types(k)):
            raise ValueError("invalid type %r" % (lam,))
        return paths_of_type(k, lam)
    raise ValueError("unknown cell module kind %r" % (kind,))


def cell_action(kind, lam, x):
    """Matrix of an algebra element on the cell module, columns = input paths.

    TL and Motzkin modules take diagram-basis elements and the quotient
    kills rank-dropping images; the partial Temperley-Lieb modules take
    bar-coordinate elements acting through :func:`bar_act`, with images of
    strictly dominated type killed.
    """
    spec = x.spec
    basis = cell_basis(kind, spec.k, lam)
    index = {a: i for i, a in enumerate(basis)}
    m = SparseMatrix(len(basis), len(basis))
    if kind in ("tl", "motzkin"):
        if x.basis != "diagram":
            raise ValueError("cell_action over %s expects diagram coordinates" % kind)
        for d, c in x.terms.items():
            for a, col in index.items():
                n, b = act_on_path(d, a)
                row = index.get(b)
                if row is not None:
                    m.add_at(row, col, c * (spec.delta ** n if n else 1))
        return m
    if kind == "ptl":
        if x.basis != "bar":
            raise ValueError("cell_action over ptl expects bar coordinates")
        for d, c in x.terms.items():
            for a, col in index.items():
                hit = bar_act(spec, d, a)
                if hit is None:
                    continue
                coeff, b = hit
                row = index.get(b)
                if row is not None:
                    m.add_at(row, col, c * coeff)
        return m
    raise ValueError("unknown cell module kind %r" % (kind,))


def tl_cell_dim(n, m):
    """Number of TL paths of length n and rank m (a ballot number)."""
    if m < 0 or (n - m) % 2 or m > n:
        return 0
    half = (n - m) // 2
    return comb(n, half) - (comb(n, half - 1) if half else 0)


def cell_dims(kind, k):
    """lambda -> dimension table for the cell modules of the given tower."""
    if kind == "tl":
        return {m: tl_cell_dim(k, m) for m in range(k % 2, k + 1, 2)}
    if kind == "motzkin":
        return {m: len(paths_of_rank(k, m)) for m in range(k + 1)}
    if kind == "ptl":
        return {lam: comb(k, sum(lam)) * tl_cell_dim(sum(lam), lam[0] - lam[1])
                for lam in valid_types(k)}
    raise ValueError("unknown cell module kind %r" % (kind,))
