"""Partition diagrams and their partial Brauer / Motzkin / Temperley-Lieb refinements.

A k-diagram is a set partition of 2k vertices arranged in two rows of k.
Internally vertices are encoded as ``0..k-1`` for the top row (printed
``1..k``) and ``k..2k-1`` for the bottom row (printed ``1'..k'``); blocks
are stored as a sorted tuple of sorted tuples.  There is one instance per
distinct diagram, so identity is equality: planarity, frames, partner maps
and the middle-row ports that composition reads are computed once per
diagram however often products rebuild it.  Public input
(``Diagram(...)``, ``from_edges``, ``from_json``) is canonicalized and
validated; ``compose``, ``removals`` and the enumerators build canonical
block tuples from valid diagrams or matchings and intern them unchecked.
All *column* indices in the public API (generator positions, frames, the
subsets A, B of a triple) are 1-based, matching the usual subscripts
e_1, ..., e_{k-1}.

The diagram families are enumerated by one recursion that places the least
free vertex, first isolated, then joined to each later free vertex in
turn, so the block tuples come canonical and in canonical order: all of
them for partial Brauer, those whose edges do not cross on the circle
1..k, k'..1' for Motzkin, and those of these with no isolated vertex for
Temperley-Lieb.  The balanced Motzkin diagrams are carried from the TL
ones through the triples, stratum by stratum.  The recursion passes each
tuple to a sink: the enumerators intern them, while
:func:`enumerate_keys` hands them on unbuilt, and :func:`count_diagrams`
gives each family's size by closed form.

Composition stacks the left factor above the right one and counts the
discarded interior blocks; for partial Brauer diagrams these split into
closed loops, which the twisted product weighs by delta, and open paths,
which it weighs by 1.  It finds the components of the stack by walking from
block to block through the shared middle row, alternating between the
two factors, so it touches each block once and no vertex set is merged.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import re
from dataclasses import dataclass
from math import comb, factorial
from typing import NamedTuple


# canonical block tuple -> its one Diagram instance (see Diagram)
_INTERNED = {}


class Diagram:
    """A k-diagram; ``Diagram(k, blocks)`` returns the one instance of it.

    The blocks are put in canonical form (each block sorted, then the tuple
    of blocks sorted) and looked up in a process-wide table.  A block tuple
    met for the first time is validated and stored by :meth:`_of`, so the
    checks run once per distinct ``(k, blocks)``, and the derived data
    computed on first use (kept in the underscored slots: planarity, frames,
    the partner map and the middle-row ports that :func:`compose` reads;
    each slot is unset until its accessor first fills it) serves every
    later construction.  ``compose``, ``removals`` and the
    enumerators call :meth:`_of` directly with tuples that are canonical by
    construction.  Nothing else makes one (``copy`` and ``pickle`` cannot),
    so equality and hashing are the object's own; only the order, by
    ``(k, blocks)``, is defined here.  The table is unbounded, like the
    expansion cache it feeds: it holds every distinct diagram for the life
    of the process.
    """

    __slots__ = ("k", "blocks", "_partner", "_pb", "_planar", "_frame", "_ports")

    def __new__(cls, k, blocks):
        check_k(k)
        canon = [tuple(sorted(b)) for b in blocks]
        key = tuple(sorted(canon))
        self = _INTERNED.get(key)
        if self is not None and self.k == k:
            return self
        seen = set()
        for tb in canon:
            if not tb:
                raise ValueError("empty block")
            for v in tb:
                if not 0 <= v < 2 * k:
                    raise ValueError("vertex %r out of range for k=%d" % (v, k))
                if v in seen:
                    raise ValueError("vertex %r in two blocks" % (v,))
                seen.add(v)
        if len(seen) != 2 * k:
            raise ValueError("blocks must cover all %d vertices" % (2 * k,))
        return cls._of(k, key)

    @classmethod
    def _of(cls, k, key):
        """The one instance of ``key``, a canonical block tuple of a valid
        k-diagram (each block sorted, blocks ordered by least vertex), made
        and stored on first sight.  It checks nothing: a valid block tuple
        covers exactly 0..2k-1, so it also fixes k.  Only ``k`` and
        ``blocks`` are set here; the cached accessors fill the other slots."""
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "blocks", key)
            _INTERNED[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    @classmethod
    def from_edges(cls, k, edges):
        """Diagram from its listed blocks, for a partial Brauer diagram its
        edges; unlisted vertices are isolated."""
        check_k(k)
        blocks = list(edges)
        used = {v for b in blocks for v in b}
        blocks += [(v,) for v in range(2 * k) if v not in used]
        return cls(k, blocks)

    def __lt__(self, other):
        return (self.k, self.blocks) < (other.k, other.blocks)

    def __repr__(self):
        return "Diagram(k=%d, %s)" % (self.k, list(self.blocks))

    # -- block structure -----------------------------------------------------

    def is_partial_brauer(self):
        try:
            return self._pb
        except AttributeError:
            pass
        pb = all(len(b) <= 2 for b in self.blocks)
        object.__setattr__(self, "_pb", pb)
        return pb

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
        try:
            return self._partner
        except AttributeError:
            pass
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
        """As many cups as caps (partial Brauer only)."""
        fr = self.frames()
        return len(fr.top_h) == len(fr.bot_h)

    def is_planar(self):
        """Can the diagram be drawn in the rectangle without crossings?

        Vertices sit on a circle in boundary order 1..k, k'..1'; the blocks
        must form a non-crossing partition of the circle.  Two blocks cross
        iff one of them meets at least two of the circular gaps cut out by
        the other.
        """
        try:
            return self._planar
        except AttributeError:
            pass
        k = self.k
        pos = lambda v: v if v < k else 3 * k - 1 - v
        placed = [sorted(pos(v) for v in b) for b in self.blocks if len(b) > 1]
        planar = not any(
            len({bisect.bisect_left(b1, x) % len(b1) for x in b2}) > 1
            for i, b1 in enumerate(placed) for b2 in placed[i + 1:])
        object.__setattr__(self, "_planar", planar)
        return planar

    def _middle_ports(self):
        """What :func:`compose` reads of either factor: the block index at
        each top-row and at each bottom-row column; per block its top-row
        vertices, bottom-row vertices, their columns and whether it is an
        edge; ``is_partial_brauer()``; the blocks that meet the bottom row
        (as indices), those inside the top row and those inside the bottom."""
        try:
            return self._ports
        except AttributeError:
            pass
        k = self.k
        top_of, bot_of, tops, bots = [0] * k, [0] * k, [], []
        for i, b in enumerate(self.blocks):
            cut = bisect.bisect_left(b, k)
            tops.append(b[:cut])
            bots.append(b[cut:])
            for v in b[:cut]:
                top_of[v] = i
            for v in b[cut:]:
                bot_of[v - k] = i
        ports = (tuple(top_of), tuple(bot_of), tuple(tops), tuple(bots),
                 tuple(tuple(v - k for v in u) for u in bots),
                 tuple(len(b) == 2 for b in self.blocks), self.is_partial_brauer(),
                 tuple(i for i, u in enumerate(bots) if u),
                 tuple(b for b, u in zip(self.blocks, bots) if not u),
                 tuple(b for b, t in zip(self.blocks, tops) if not t))
        object.__setattr__(self, "_ports", ports)
        return ports

    def is_motzkin(self):
        return self.is_partial_brauer() and self.is_planar()

    def is_tl(self):
        return self.is_motzkin() and not self.isolated()

    # -- frames ----------------------------------------------------------------

    def frames(self):
        """Index sets of the non-isolated vertices, split horizontal/vertical."""
        try:
            return self._frame
        except AttributeError:
            pass
        if not self.is_partial_brauer():
            raise ValueError("frames require a partial Brauer diagram")
        top_h, bot_h, top_v, bot_v = set(), set(), set(), set()
        for (a, b) in self.cups():
            top_h.update((a + 1, b + 1))
        for (a, b) in self.caps():
            bot_h.update((a + 1, b + 1))
        for (t, b) in self.verticals():
            top_v.add(t + 1)
            bot_v.add(b + 1)
        fr = Frame(frozenset(top_h | top_v), frozenset(bot_h | bot_v),
                   frozenset(top_h), frozenset(bot_h),
                   frozenset(top_v), frozenset(bot_v))
        object.__setattr__(self, "_frame", fr)
        return fr

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        return _json_of(self.k, self.blocks, self.is_partial_brauer())

    @classmethod
    def from_json(cls, obj):
        """The diagram of ``{"k": k, "edges": [...]}`` or ``{"k": k, "blocks": [...]}``."""
        if not isinstance(obj, dict):
            raise ValueError("a diagram is a JSON object, not %r" % (obj,))
        k = obj["k"]
        check_k(k)

        def vertex(s):
            col = int(s[1:]) if type(s) is str and re.fullmatch("[tb][1-9][0-9]*", s) else 0
            if not 1 <= col <= k:
                raise ValueError("bad vertex label %r" % (s,))
            return col - 1 if s[0] == "t" else k + col - 1

        if "blocks" in obj and "edges" in obj:
            raise ValueError('a diagram has "edges" or "blocks", not both')
        key = "blocks" if "blocks" in obj else "edges"
        parts = obj.get(key, [])
        if not isinstance(parts, (list, tuple)):
            raise ValueError("bad %s %r" % (key, parts))
        for p in parts:  # an edge is a pair, a block any list
            if not isinstance(p, (list, tuple)) or (key == "edges" and len(p) != 2):
                raise ValueError("bad %s %r" % (key[:-1], p))
        return cls.from_edges(k, [[vertex(s) for s in p] for p in parts])


def check_k(k):
    """Refuse a k that is not a nonnegative int; a bool is not one."""
    if type(k) is not int or k < 0:
        raise ValueError("k must be a nonnegative integer, not %r" % (k,))


def _json_of(k, blocks, pb=True):
    """The JSON object of the k-diagram with canonical ``blocks``: its edges
    when ``pb`` (no block has more than two vertices), else its blocks of
    two or more vertices."""
    name = _vertex_names(k)
    if pb:
        return {"k": k, "edges": [[name[b[0]], name[b[1]]] for b in blocks if len(b) == 2]}
    return {"k": k, "blocks": [[name[v] for v in b] for b in blocks if len(b) > 1]}


@functools.lru_cache(maxsize=None)
def _vertex_names(k):
    """JSON labels of the 2k vertices: t1..tk, then b1..bk."""
    return (tuple("t%d" % (c + 1) for c in range(k))
            + tuple("b%d" % (c + 1) for c in range(k)))


@functools.lru_cache(maxsize=None)
def _edge_json(k):
    """The JSON text of a k-diagram's edge object as a table: the head up to
    its open edge list, and each edge (u, v), u < v, as its list.  The text
    of canonical ``blocks`` with no block of three or more vertices,
    ``json.dumps(_json_of(k, blocks))``, is then ``head + ", ".join(edge[b]
    for b in blocks if len(b) == 2) + "]}"``."""
    name = _vertex_names(k)
    head = json.dumps({"k": k, "edges": []})[:-2]
    return head, {(u, v): json.dumps([name[u], name[v]])
                  for u, v in itertools.combinations(range(2 * k), 2)}


@dataclass(frozen=True, slots=True)
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

    The middle row is column c of d1's bottom row glued to column c of
    d2's top row.  Each connected component is found by walking from a
    block of d1 to the blocks of d2 that share one of its middle columns,
    and from those back to blocks of d1, until no new block is reached.
    The outer vertices a component meets (d1's top row, d2's bottom row)
    form one block of the composite.  A component with no outer vertex is
    discarded; for partial Brauer inputs it is a closed loop when every
    block on it is an edge, and an open path otherwise.  A block of d2
    with no middle vertex is reached from no block of d1 and passes
    through unchanged, as does a block of d1 with no middle vertex.  The
    column-to-block maps and each block's rows come from the factors'
    ports (``Diagram._middle_ports``, computed once per diagram), so the
    walk itself only follows indices.  The composite's blocks are sorted
    once and interned unchecked: they partition the outer rows because the
    factors' blocks partition theirs.
    """
    if d1.k != d2.k:
        raise ValueError("cannot compose diagrams with k=%d and k=%d" % (d1.k, d2.k))
    # below[c]: d1's block at middle column c; above[c]: d2's block there.
    # d1's outer vertices are its top row, d2's its bottom row.
    _, below, outer1, _, mids1, edge1, pb1, starts1, upper1, _ = d1._middle_ports()
    above, _, tops2, outer2, _, edge2, pb2, _, _, lower2 = d2._middle_ports()
    seen1 = [False] * len(outer1)
    seen2 = [False] * len(outer2)
    new_blocks = list(upper1)
    new_blocks += lower2
    n_blocks = n_loops = 0
    for i in starts1:
        if seen1[i]:
            continue
        seen1[i] = True
        todo = [i]
        outer = []
        edges_only = True
        while todo:
            i1 = todo.pop()
            outer += outer1[i1]
            if not edge1[i1]:
                edges_only = False
            for c in mids1[i1]:
                j = above[c]
                if seen2[j]:
                    continue
                seen2[j] = True
                outer += outer2[j]
                if not edge2[j]:
                    edges_only = False
                for c2 in tops2[j]:
                    i2 = below[c2]
                    if not seen1[i2]:
                        seen1[i2] = True
                        todo.append(i2)
        if outer:
            outer.sort()
            new_blocks.append(tuple(outer))
        else:
            n_blocks += 1
            if edges_only:
                n_loops += 1
    new_blocks.sort()
    d3 = Diagram._of(d1.k, tuple(new_blocks))
    if pb1 and pb2:
        return Composition(d3, n_blocks, n_loops, n_blocks - n_loops)
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


def removals(d, edge_pool):
    """(diagram, #removed) for every way of excising a subset of ``edge_pool``,
    distinct edges of ``d`` (``ValueError`` otherwise).

    The empty subset comes first as ``(d, 0)``, ``d`` itself.  Every other
    term is ``d``'s blocks less the removed edges, plus each removed
    endpoint as a singleton, sorted once and interned unchecked.
    """
    out = [(d, 0)]
    pool = list(edge_pool)
    if pool:
        fixed = [b for b in d.blocks if b not in pool]
        if len(fixed) + len(pool) != len(d.blocks) or any(len(e) != 2 for e in pool):
            raise ValueError("%r is not a list of distinct edges of %r" % (pool, d))
        for r in range(1, len(pool) + 1):
            for removed in itertools.combinations(pool, r):
                blocks = fixed + [e for e in pool if e not in removed]
                for u, v in removed:
                    blocks += ((u,), (v,))
                blocks.sort()
                out.append((Diagram._of(d.k, tuple(blocks)), r))
    return out


# -- generators ---------------------------------------------------------------

def identity(k):
    return Diagram(k, [(i, k + i) for i in range(k)])


@functools.lru_cache(maxsize=None, typed=True)
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


# -- the triple bijection ------------------------------------------------------

class Triple(NamedTuple):
    A: tuple  # 1-based top columns, sorted
    t: Diagram
    B: tuple  # 1-based bottom columns, sorted


@functools.lru_cache(maxsize=None)
def triple_of(d):
    """Balanced Motzkin diagram -> (A, t, B) with t the TL diagram on its frame.

    The frame vertices, the top ones (columns A) before the bottom ones
    (columns B), are mapped onto 0..2n-1 in increasing order.  That map keeps
    each edge's ends and the edges' order, so the relabeled edges are t's
    canonical block tuple.  Cached per diagram: block transport asks for it
    once per term it moves.
    """
    if not (d.is_motzkin() and d.is_balanced()):
        raise ValueError("triple_of requires a balanced Motzkin diagram")
    k = d.k
    edges = d.edges()
    frame = sorted(v for e in edges for v in e)
    n = len(frame) // 2
    to = {v: j for j, v in enumerate(frame)}
    t = Diagram._of(n, tuple((to[u], to[v]) for u, v in edges))
    return Triple(tuple(v + 1 for v in frame[:n]), t, tuple(v - k + 1 for v in frame[n:]))


def diagram_of(A, t, B, k):
    """Inverse of :func:`triple_of`, for n-subsets A, B of 1..k and a TL n-diagram t."""
    check_k(k)
    n = t.k
    A, B = sorted(A), sorted(B)
    for S in (A, B):
        if len(S) != n or len(set(S)) != n or not all(
                type(c) is int and 1 <= c <= k for c in S):
            raise ValueError("A and B must be %d-subsets of 1..%d, not %r" % (n, k, S))
    if not t.is_tl():
        raise ValueError("t must be a Temperley-Lieb diagram")
    return Diagram._of(k, _triple_keys(A, B, k)(t.blocks))


def _triple_keys(A, B, k):
    """t's block tuple -> that of ``diagram_of(A, t, B, k)``, unchecked: t's vertex j
    goes to column A[j], then B[j - n], an increasing map that keeps edges canonical."""
    to = [a - 1 for a in A] + [k + b - 1 for b in B]
    singletons = list(omega(k).blocks)  # shared by every key, as each key is kept

    def key(t):
        at = singletons[:]
        for u, v in t:
            at[to[u]] = (to[u], to[v])
            at[to[v]] = None
        return tuple(b for b in at if b is not None)

    return key


# -- enumeration ---------------------------------------------------------------

def _place(k, sink, planar, isolated):
    """Pass ``sink`` the canonical block tuple of each partial Brauer
    k-diagram, in canonical order; with ``planar`` only the non-crossing
    ones, and without ``isolated`` only those with no isolated vertex.

    The least free vertex a is left isolated, then joined to each later
    free vertex b in turn, and the rest completed alike, so each tuple is
    built canonical and the tuples come in increasing order.

    For the planar families the vertices sit on the circle 1..k, k'..1',
    vertex v at v on the top row and at 3k-1-v on the bottom.  The vertices
    before a fill an arc of the circle next to a, so an earlier chord
    crosses (a, b) exactly when its other end, no longer free, lies on the
    circle between a and b.  The partners of a are thus the free run after
    a: on the top row up to the first taken vertex, and on to the bottom
    vertices after the last taken one when it reaches the end of the row;
    on the bottom row up to the first taken vertex.  Every vertex between
    a and b is then free, and without isolated vertices b must leave an
    even number of them, an odd distance around the circle, or they could
    not all be joined.  No choice leads to a dead end.
    """
    n = 2 * k
    free = [True] * n
    blocks = []
    circle = list(range(k)) + list(range(2 * k - 1, k - 1, -1))

    def partners(a):
        if not planar:
            return [b for b in range(a + 1, n) if free[b]]
        end = k if a < k else n
        b = a + 1
        while b < end and free[b]:
            b += 1
        run = list(range(a + 1, b))
        if b == k:
            last = n - 1
            while last >= k and free[last]:
                last -= 1
            run += range(last + 1, n)
        if not isolated:
            run = [b for b in run if (circle[b] - circle[a]) % 2]
        return run

    def place(a):
        while a < n and not free[a]:
            a += 1
        if a == n:
            sink(tuple(blocks))
            return
        free[a] = False
        if isolated:
            blocks.append((a,))
            place(a + 1)
            blocks.pop()
        for b in partners(a):
            free[b] = False
            blocks.append((a, b))
            place(a + 1)
            blocks.pop()
            free[b] = True
        free[a] = True

    place(0)


def n_subsets(k, n):
    """The n-subsets of {1..k} in colexicographic order."""
    return sorted(itertools.combinations(range(1, k + 1), n), key=lambda s: s[::-1])


def _stratum_keys(n, k, sink):
    """Pass ``sink`` the block tuples of the balanced Motzkin k-diagrams with
    n edges in stratum order: for each A, each B (colex n-subsets) and each
    TL n-diagram t in canonical order, that of ``diagram_of(A, t, B, k)``;
    an empty stratum (n > k) makes no TL diagram."""
    subsets = n_subsets(k, n)
    if not subsets:
        return
    ts = []
    _place(n, ts.append, True, False)
    for A in subsets:
        for B in subsets:
            key = _triple_keys(A, B, k)
            for t in ts:
                sink(key(t))


_KINDS = ("partial_brauer", "motzkin", "tl", "balanced_motzkin", "balanced_motzkin_n")


def _check_family(kind, k, n):
    """Refuse what no family of :func:`enumerate_diagrams` is: a bad k, an
    unknown kind, kind balanced_motzkin_n without n (a nonnegative int)
    or n with another kind."""
    check_k(k)
    if kind == "balanced_motzkin_n":
        if n is None:
            raise ValueError("kind balanced_motzkin_n needs n")
        if type(n) is not int or n < 0:
            raise ValueError("n must be a nonnegative integer, not %r" % (n,))
    elif kind not in _KINDS:
        raise ValueError("unknown diagram family %r" % (kind,))
    elif n is not None:
        raise ValueError("n applies only to kind balanced_motzkin_n")


def _keys(kind, k, n, sink):
    """The enumeration behind :func:`enumerate_keys`, of a checked family."""
    if kind == "balanced_motzkin_n":
        _stratum_keys(n, k, sink)
    elif kind == "balanced_motzkin":
        for j in range(k + 1):
            _stratum_keys(j, k, sink)
    else:
        _place(k, sink, kind != "partial_brauer", kind != "tl")


def enumerate_keys(kind, k, sink, n=None):
    """Pass ``sink`` the block tuple of each diagram of
    ``enumerate_diagrams(kind, k, n)``, in the same order, as it is made:
    no Diagram is built and no list of the family is held."""
    _check_family(kind, k, n)
    _keys(kind, k, n, sink)


def enumerate_diagrams(kind, k, n=None):
    """The k-diagrams of family ``kind``, interned; the stratum ``n`` (edge
    count) belongs to kind ``balanced_motzkin_n`` alone."""
    _check_family(kind, k, n)
    keys = []
    _keys(kind, k, n, keys.append)
    of = Diagram._of
    return [of(k, key) for key in keys]


def catalan(n):
    """The n-th Catalan number: the TL n-diagrams, and the non-crossing
    matchings of 2n points on a circle."""
    return comb(2 * n, n) // (n + 1)


def count_diagrams(kind, k, n=None):
    """``len(enumerate_diagrams(kind, k, n))`` by closed form, refusing what
    it refuses.  A diagram with j edges is the choice of their 2j ends
    among the 2k vertices and a matching of those: any of the (2j-1)!! for
    partial Brauer, a non-crossing one of the Catalan(j) for Motzkin.  A
    balanced Motzkin diagram with n edges is a triple (A, t, B)."""
    _check_family(kind, k, n)
    stratum = lambda j: comb(k, j) ** 2 * catalan(j)
    if kind == "partial_brauer":
        return sum(comb(2 * k, 2 * j) * factorial(2 * j) // (2 ** j * factorial(j))
                   for j in range(k + 1))
    if kind == "motzkin":
        return sum(comb(2 * k, 2 * j) * catalan(j) for j in range(k + 1))
    if kind == "tl":
        return catalan(k)
    if kind == "balanced_motzkin":
        return sum(map(stratum, range(k + 1)))
    return stratum(n)


def partial_brauer_diagrams(k):
    """All partial Brauer k-diagrams, in canonical order."""
    return enumerate_diagrams("partial_brauer", k)


def motzkin_diagrams(k):
    """All Motzkin k-diagrams (planar partial Brauer), in canonical order."""
    return enumerate_diagrams("motzkin", k)


def tl_diagrams(k):
    """All Temperley-Lieb k-diagrams (Catalan many), in canonical order."""
    return enumerate_diagrams("tl", k)


def balanced_motzkin_stratum(n, k):
    """The balanced Motzkin k-diagrams with exactly n edges, via triples."""
    return enumerate_diagrams("balanced_motzkin_n", k, n)


def balanced_motzkin_diagrams(k):
    """All balanced Motzkin k-diagrams, grouped by edge count."""
    return enumerate_diagrams("balanced_motzkin", k)
