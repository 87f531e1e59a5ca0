"""Partition diagrams and their partial Brauer / Motzkin / Temperley-Lieb refinements.

A k-diagram is a set partition of 2k vertices arranged in two rows of k.
Internally vertices are encoded as ``0..k-1`` for the top row (printed
``1..k``) and ``k..2k-1`` for the bottom row (printed ``1'..k'``); blocks
are stored as a sorted tuple of sorted tuples, so equality and hashing are
structural.  All *column* indices in the public API (generator positions,
frames, the subsets A, B of a triple) are 1-based, matching the usual
subscripts e_1, ..., e_{k-1}.

Composition stacks the left factor above the right one and counts the
discarded interior blocks; for partial Brauer diagrams these split into
closed loops and open paths, the exponents of the two parameters of the
twisted product.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import NamedTuple


class Diagram:
    __slots__ = ("k", "blocks", "_hash", "_partner")

    def __init__(self, k, blocks):
        seen = set()
        canon = []
        for b in blocks:
            tb = tuple(sorted(b))
            if not tb:
                raise ValueError("empty block")
            for v in tb:
                if not 0 <= v < 2 * k:
                    raise ValueError("vertex %r out of range for k=%d" % (v, k))
                if v in seen:
                    raise ValueError("vertex %r in two blocks" % (v,))
                seen.add(v)
            canon.append(tb)
        if len(seen) != 2 * k:
            raise ValueError("blocks must cover all %d vertices" % (2 * k,))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "blocks", tuple(sorted(canon)))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_partner", None)

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    @classmethod
    def from_edges(cls, k, edges):
        """Partial Brauer diagram from its edge list; unlisted vertices are isolated."""
        used = set()
        blocks = []
        for (u, v) in edges:
            blocks.append((u, v))
            used.update((u, v))
        blocks.extend((v,) for v in range(2 * k) if v not in used)
        return cls(k, blocks)

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.k == other.k and self.blocks == other.blocks

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.k, self.blocks))
            object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other):
        return (self.k, self.blocks) < (other.k, other.blocks)

    def __repr__(self):
        return "Diagram(k=%d, %s)" % (self.k, list(self.blocks))

    # -- block structure -----------------------------------------------------

    def is_partial_brauer(self):
        return all(len(b) <= 2 for b in self.blocks)

    def edges(self):
        """The size-2 blocks, in canonical order."""
        return [b for b in self.blocks if len(b) == 2]

    def n_edges(self):
        return sum(1 for b in self.blocks if len(b) == 2)

    def isolated(self):
        return [b[0] for b in self.blocks if len(b) == 1]

    @property
    def partner(self):
        """Vertex -> partner map over the edges (partial Brauer only)."""
        p = self._partner
        if p is None:
            if not self.is_partial_brauer():
                raise ValueError("partner map requires blocks of size <= 2")
            p = {}
            for b in self.blocks:
                if len(b) == 2:
                    p[b[0]] = b[1]
                    p[b[1]] = b[0]
            object.__setattr__(self, "_partner", p)
        return p

    def cups(self):
        """Horizontal edges in the top row, as 0-based column pairs."""
        k = self.k
        return [b for b in self.edges() if b[1] < k]

    def caps(self):
        """Horizontal edges in the bottom row, as 0-based column pairs."""
        k = self.k
        return [(b[0] - k, b[1] - k) for b in self.edges() if b[0] >= k]

    def verticals(self):
        """Through edges as (top column, bottom column), 0-based."""
        k = self.k
        return [(b[0], b[1] - k) for b in self.edges() if b[0] < k <= b[1]]

    def is_balanced(self):
        return len(self.cups()) == len(self.caps())

    def is_planar(self):
        """Can the diagram be drawn in the rectangle without crossings?

        Vertices sit on a circle in boundary order 1..k, k'..1'; the blocks
        must form a non-crossing partition of the circle.  Two blocks cross
        iff one of them meets at least two of the circular gaps cut out by
        the other.
        """
        k = self.k
        pos = lambda v: v if v < k else 3 * k - 1 - v
        placed = [sorted(pos(v) for v in b) for b in self.blocks if len(b) > 1]
        for i, b1 in enumerate(placed):
            for b2 in placed[i + 1:]:
                gaps = {bisect.bisect_left(b1, x) % len(b1) for x in b2}
                if len(gaps) > 1:
                    return False
        return True

    def is_motzkin(self):
        return self.is_partial_brauer() and self.is_planar()

    def is_tl(self):
        return self.is_motzkin() and not self.isolated()

    # -- frames ----------------------------------------------------------------

    def frames(self):
        """Index sets of the non-isolated vertices, split horizontal/vertical."""
        if not self.is_partial_brauer():
            raise ValueError("frames require a partial Brauer diagram")
        k = self.k
        top_h, bot_h, top_v, bot_v = set(), set(), set(), set()
        for (a, b) in self.cups():
            top_h.update((a + 1, b + 1))
        for (a, b) in self.caps():
            bot_h.update((a + 1, b + 1))
        for (t, b) in self.verticals():
            top_v.add(t + 1)
            bot_v.add(b + 1)
        return Frame(frozenset(top_h | top_v), frozenset(bot_h | bot_v),
                     frozenset(top_h), frozenset(bot_h),
                     frozenset(top_v), frozenset(bot_v))

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        k = self.k
        name = lambda v: ("t%d" % (v + 1)) if v < k else ("b%d" % (v - k + 1))
        if self.is_partial_brauer():
            return {"k": k, "edges": [[name(u), name(v)] for (u, v) in self.edges()]}
        return {"k": k,
                "blocks": [[name(v) for v in b] for b in self.blocks if len(b) > 1]}

    @classmethod
    def from_json(cls, obj):
        k = obj["k"]

        def vertex(s):
            row, col = s[0], int(s[1:])
            if row not in "tb" or not 1 <= col <= k:
                raise ValueError("bad vertex label %r" % (s,))
            return col - 1 if row == "t" else k + col - 1

        if "blocks" in obj:
            listed = [tuple(vertex(s) for s in b) for b in obj["blocks"]]
            used = {v for b in listed for v in b}
            listed.extend((v,) for v in range(2 * k) if v not in used)
            return cls(k, listed)
        return cls.from_edges(k, [(vertex(a), vertex(b)) for a, b in obj.get("edges", [])])


@dataclass(frozen=True)
class Frame:
    top: frozenset
    bot: frozenset
    top_h: frozenset
    bot_h: frozenset
    top_v: frozenset
    bot_v: frozenset


class Composition(NamedTuple):
    diagram: Diagram
    blocks: int          # discarded interior blocks
    loops: int | None    # closed interior loops (partial Brauer inputs)
    paths: int | None    # open interior paths, single vertices included


def compose(d1, d2):
    """Stack ``d1`` above ``d2`` and discard the middle row.

    Returns the composite diagram together with the number of discarded
    interior blocks; when both inputs are partial Brauer these split into
    ``loops + paths``.
    """
    if d1.k != d2.k:
        raise ValueError("cannot compose diagrams with k=%d and k=%d" % (d1.k, d2.k))
    k = d1.k
    # nodes: 0..k-1 top, k..2k-1 middle, 2k..3k-1 bottom
    parent = list(range(3 * k))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for b in d1.blocks:
        for v in b[1:]:
            union(b[0], v)
    for b in d2.blocks:
        shifted = [v + k for v in b]
        for v in shifted[1:]:
            union(shifted[0], v)

    members = {}
    for v in range(3 * k):
        members.setdefault(find(v), []).append(v)

    pb = d1.is_partial_brauer() and d2.is_partial_brauer()
    interior_edges = {}
    if pb:
        for (u, v) in d1.edges():
            if u >= k:  # a cap of d1: both endpoints middle
                r = find(u)
                interior_edges[r] = interior_edges.get(r, 0) + 1
        for (u, v) in d2.edges():
            if v < k:  # a cup of d2: both endpoints middle
                r = find(u + k)
                interior_edges[r] = interior_edges.get(r, 0) + 1

    new_blocks = []
    n_blocks = n_loops = n_paths = 0
    for root, verts in members.items():
        outer = [v for v in verts if v < k or v >= 2 * k]
        if outer:
            new_blocks.append(tuple(v if v < k else v - k for v in outer))
        else:
            n_blocks += 1
            if pb:
                if interior_edges.get(root, 0) == len(verts):
                    n_loops += 1
                else:
                    n_paths += 1
    d3 = Diagram(k, new_blocks)
    if pb:
        assert n_blocks == n_loops + n_paths
        return Composition(d3, n_blocks, n_loops, n_paths)
    return Composition(d3, n_blocks, None, None)


def tensor(d1, d2):
    """Place ``d1`` to the left of ``d2``."""
    k1, k2, k = d1.k, d2.k, d1.k + d2.k
    blocks = []
    for b in d1.blocks:
        blocks.append(tuple(v if v < k1 else v + k2 for v in b))
    for b in d2.blocks:
        blocks.append(tuple(v + k1 if v < k2 else v + 2 * k1 for v in b))
    return Diagram(k, blocks)


# -- the edge-removal partial order -------------------------------------------

def leq(d1, d2):
    """True iff every block of ``d1`` is contained in some block of ``d2``.

    For partial Brauer diagrams this says every edge of d1 is an edge of d2.
    """
    if d1.k != d2.k:
        raise ValueError("diagrams must have equal k")
    owner = {}
    for i, b in enumerate(d2.blocks):
        for v in b:
            owner[v] = i
    return all(len({owner[v] for v in b}) == 1 for b in d1.blocks)


def subdiagrams(d):
    """All diagrams obtained from a partial Brauer ``d`` by excising edges."""
    if not d.is_partial_brauer():
        raise ValueError("subdiagrams require a partial Brauer diagram")
    return [sub for sub, _ in removals(d, d.edges())]


def removals(d, edge_pool):
    """(diagram, #removed) for every way of excising a subset of ``edge_pool``."""
    all_edges = d.edges()
    pool = list(edge_pool)
    fixed = [e for e in all_edges if e not in pool]
    out = []
    for r in range(len(pool) + 1):
        for removed in itertools.combinations(pool, r):
            keep = fixed + [e for e in pool if e not in removed]
            out.append((Diagram.from_edges(d.k, keep), r))
    return out


# -- generators ---------------------------------------------------------------

def identity(k):
    return Diagram(k, [(i, k + i) for i in range(k)])


def omega(k):
    """The diagram with all 2k vertices isolated."""
    return Diagram(k, [(v,) for v in range(2 * k)])


def _two_column(k, i, blocks2):
    """Insert a 2-column pattern at columns i, i+1 (i is 1-based)."""
    if not 1 <= i <= k - 1:
        raise ValueError("index %d out of range for k=%d" % (i, k))
    shift = {0: i - 1, 1: i, 2: k + i - 1, 3: k + i}
    blocks = [tuple(shift[v] for v in b) for b in blocks2]
    blocks.extend((c, k + c) for c in range(k) if c not in (i - 1, i))
    return Diagram(k, blocks)


def gen_p(j, k):
    """Column j isolated, identity elsewhere."""
    if not 1 <= j <= k:
        raise ValueError("index %d out of range for k=%d" % (j, k))
    blocks = [(j - 1,), (k + j - 1,)]
    blocks.extend((c, k + c) for c in range(k) if c != j - 1)
    return Diagram(k, blocks)


def gen_s(i, k):
    """The transposition swapping columns i, i+1."""
    return _two_column(k, i, [(0, 3), (1, 2)])


def gen_b(i, k):
    """The single-block-of-four partition diagram at columns i, i+1."""
    return _two_column(k, i, [(0, 1, 2, 3)])


def gen_e(i, k):
    """Cup at the top, cap at the bottom of columns i, i+1."""
    return _two_column(k, i, [(0, 1), (2, 3)])


def gen_r(i, k):
    """p_i s_i: edge from bottom column i up to top column i+1."""
    return _two_column(k, i, [(1, 2), (0,), (3,)])


def gen_l(i, k):
    """s_i p_i: edge from top column i down to bottom column i+1."""
    return _two_column(k, i, [(0, 3), (1,), (2,)])


_GENERATORS = {"one": lambda i, k: identity(k), "omega": lambda i, k: omega(k),
               "p": gen_p, "s": gen_s, "b": gen_b, "e": gen_e, "r": gen_r, "l": gen_l}


def generator(name, i, k):
    if name not in _GENERATORS:
        raise ValueError("unknown generator %r" % (name,))
    return _GENERATORS[name](i, k)


def r_of_subset(A, k):
    """Vertical edges from bottom columns 1..n up to the top columns in A, in order."""
    A = sorted(A)
    if any(not 1 <= a <= k for a in A):
        raise ValueError("subset out of range")
    return Diagram.from_edges(k, [(a - 1, k + j) for j, a in enumerate(A)])


def l_of_subset(B, k):
    """Vertical edges from top columns 1..n down to the bottom columns in B, in order."""
    B = sorted(B)
    if any(not 1 <= b <= k for b in B):
        raise ValueError("subset out of range")
    return Diagram.from_edges(k, [(j, k + b - 1) for j, b in enumerate(B)])


# -- the triple bijection ------------------------------------------------------

class Triple(NamedTuple):
    A: tuple  # 1-based top columns, sorted
    t: Diagram
    B: tuple  # 1-based bottom columns, sorted


def triple_of(d):
    """Balanced Motzkin diagram -> (A, t, B) with t the TL diagram on its frame."""
    if not (d.is_motzkin() and d.is_balanced()):
        raise ValueError("triple_of requires a balanced Motzkin diagram")
    k = d.k
    fr = d.frames()
    A = sorted(fr.top)
    B = sorted(fr.bot)
    n = len(A)
    top_index = {a - 1: j for j, a in enumerate(A)}
    bot_index = {b - 1: j for j, b in enumerate(B)}
    edges = []
    for (a, b) in d.cups():
        edges.append((top_index[a], top_index[b]))
    for (a, b) in d.caps():
        edges.append((n + bot_index[a], n + bot_index[b]))
    for (t, b) in d.verticals():
        edges.append((top_index[t], n + bot_index[b]))
    return Triple(tuple(A), Diagram.from_edges(n, edges), tuple(B))


def diagram_of(A, t, B, k):
    """Inverse of :func:`triple_of`."""
    A = sorted(A)
    B = sorted(B)
    n = t.k
    if len(A) != n or len(B) != n:
        raise ValueError("|A| and |B| must equal the number of columns of t")
    if not t.is_tl():
        raise ValueError("t must be a Temperley-Lieb diagram")
    edges = []
    for (u, v) in t.edges():
        mu = A[u] - 1 if u < n else k + B[u - n] - 1
        mv = A[v] - 1 if v < n else k + B[v - n] - 1
        edges.append((mu, mv))
    return Diagram.from_edges(k, edges)


# -- enumeration ---------------------------------------------------------------

def _partial_matchings(vertices):
    """All partial matchings of a list of vertices, as edge lists."""
    if not vertices:
        yield []
        return
    a, rest = vertices[0], vertices[1:]
    for m in _partial_matchings(rest):
        yield m
    for i, b in enumerate(rest):
        for m in _partial_matchings(rest[:i] + rest[i + 1:]):
            yield [(a, b)] + m


def _noncrossing_matchings(positions, allow_isolated):
    """Non-crossing (partial) matchings of circle positions, as edge lists."""
    if not positions:
        yield []
        return
    a, rest = positions[0], positions[1:]
    if allow_isolated:
        for m in _noncrossing_matchings(rest, True):
            yield m
    for i in range(len(rest)):
        if not allow_isolated and i % 2 == 1:
            continue
        inside, outside = rest[:i], rest[i + 1:]
        for m1 in _noncrossing_matchings(inside, allow_isolated):
            for m2 in _noncrossing_matchings(outside, allow_isolated):
                yield [(a, rest[i])] + m1 + m2


def _unpos(p, k):
    return p if p < k else 3 * k - 1 - p


def partial_brauer_diagrams(k):
    """All partial Brauer k-diagrams, in canonical order."""
    out = [Diagram.from_edges(k, m) for m in _partial_matchings(list(range(2 * k)))]
    return sorted(out)


def motzkin_diagrams(k):
    """All Motzkin k-diagrams (planar partial Brauer), in canonical order."""
    positions = list(range(2 * k))
    out = []
    for m in _noncrossing_matchings(positions, True):
        out.append(Diagram.from_edges(k, [(_unpos(a, k), _unpos(b, k)) for a, b in m]))
    return sorted(out)


def tl_diagrams(k):
    """All Temperley-Lieb k-diagrams (Catalan many), in canonical order."""
    positions = list(range(2 * k))
    out = []
    for m in _noncrossing_matchings(positions, False):
        out.append(Diagram.from_edges(k, [(_unpos(a, k), _unpos(b, k)) for a, b in m]))
    return sorted(out)


def _colex_key(subset):
    return tuple(sorted(subset, reverse=True))


def n_subsets(k, n):
    """The n-subsets of {1..k} in colexicographic order."""
    return sorted(itertools.combinations(range(1, k + 1), n), key=_colex_key)


def balanced_motzkin_stratum(n, k):
    """The balanced Motzkin k-diagrams with exactly n edges, via triples."""
    ts = tl_diagrams(n)
    out = []
    for A in n_subsets(k, n):
        for B in n_subsets(k, n):
            for t in ts:
                out.append(diagram_of(A, t, B, k))
    return out


def balanced_motzkin_diagrams(k):
    """All balanced Motzkin k-diagrams, grouped by edge count."""
    out = []
    for n in range(k + 1):
        out.extend(balanced_motzkin_stratum(n, k))
    return out


_ENUMERATORS = {
    "partial_brauer": partial_brauer_diagrams,
    "motzkin": motzkin_diagrams,
    "tl": tl_diagrams,
    "balanced_motzkin": balanced_motzkin_diagrams,
}


def enumerate_diagrams(kind, k, n=None):
    if kind == "balanced_motzkin_n":
        if n is None:
            raise ValueError("stratum enumeration needs n")
        return balanced_motzkin_stratum(n, k)
    if kind not in _ENUMERATORS:
        raise ValueError("unknown diagram family %r" % (kind,))
    return _ENUMERATORS[kind](k)
