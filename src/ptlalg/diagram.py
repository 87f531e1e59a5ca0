"""Partition diagrams and their partial Brauer / Motzkin / Temperley-Lieb refinements.

A k-diagram is a set partition of 2k vertices arranged in two rows of k.
Internally vertices are encoded as ``0..k-1`` for the top row (printed
``1..k``) and ``k..2k-1`` for the bottom row (printed ``1'..k'``); blocks
are stored as a sorted tuple of sorted tuples.  There is one instance per
distinct diagram, so identity is equality: planarity, frames and the
half-diagram signatures that composition reads are computed once per
diagram however often products rebuild it.  Public input
(``Diagram(...)``, ``from_edges``, ``from_json``) is canonicalized and
validated; ``compose``, ``removals`` and the enumerators build canonical
block tuples from valid diagrams or matchings and intern them unchecked.
All *column* indices in the public API (generator positions, frames, the
subsets A, B of a triple) are 1-based, matching the usual subscripts
e_1, ..., e_{k-1}.  An edge is a cup (both ends in the top row), a cap
(both in the bottom row) or a through edge; ``Diagram.frames`` sorts them
once per diagram for the products, while the pictures, the tensor-space
entries, the tilde expansion and ``cells.path_of`` each read an edge's rows
from its two ends.

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
which it weighs by 1.  How the middle row glues the factors' blocks depends
only on the partition that the left factor's blocks cut its bottom row
into, and the right factor's its top row, with which blocks reach the
outer rows: the two half-diagram signatures.  So the gluing is worked out
once per pair of signatures, a plan kept in a table keyed by their
numbers, and each product only looks its plan up and joins the outer-row
pieces of its blocks that the plan names.  The plan also names the
through paths that snake, meeting the middle row more than once, whose
edges the tilde product weighs by (1 - p_t).
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
# half-diagram signature (see Diagram._halves) -> its number
_SIGNATURES = {}
# bottom signature number -> {top signature number: plan} (see compose)
_PLANS = []
# plan -> itself, so that equal plans are one object
_PLAN_POOL = {}


class Diagram:
    """A k-diagram; ``Diagram(k, blocks)`` returns the one instance of it.

    The blocks are put in canonical form (each block sorted, then the tuple
    of blocks sorted) and looked up in a process-wide table.  A block tuple
    met for the first time is validated and stored by :meth:`_of`, so the
    checks run once per distinct ``(k, blocks)``, and the derived data
    computed on first use (kept in the underscored slots: planarity, frames
    and the two half-diagram signatures with the pieces that
    :func:`compose` reads; each slot is unset until its accessor first
    fills it) serves every later construction.  ``compose``, ``removals`` and the
    enumerators call :meth:`_of` directly with tuples that are canonical by
    construction.  ``copy``, ``deepcopy`` and ``pickle`` go through the
    table too, so equality and hashing are the object's own; only the order, by
    ``(k, blocks)``, is defined here.  The table is unbounded, like the
    expansion cache it feeds: it holds every distinct diagram for the life
    of the process.
    """

    __slots__ = ("k", "blocks", "_pb", "_planar", "_frame", "_half")

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

    def __reduce__(self):
        return Diagram, (self.k, self.blocks)

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

    def _halves(self):
        """What :func:`compose` reads of either factor: for the top row and
        then for the bottom row, the row's signature number, the pieces of
        its labelled blocks and the blocks that miss the row; last
        ``is_partial_brauer()``.

        The blocks that meet a row are labelled 0, 1, ... in the order of
        their first column on it.  The row's signature is the tuple of the
        labels of its k columns together with, per label, whether that block
        reaches the other row; :func:`_signature` numbers it.  A label's
        piece is its block's vertices on the other row, empty when the block
        does not reach it."""
        try:
            return self._half
        except AttributeError:
            pass
        k, blocks = self.k, self.blocks
        block_at = {v: b for b in blocks for v in b}
        half = ()
        for row in (range(k), range(k, 2 * k)):
            label, pieces = {}, []
            for v in row:
                b = block_at[v]
                if b not in label:
                    label[b] = len(label)
                    pieces.append(tuple(u for u in b if u not in row))
            labels = tuple(label[block_at[v]] for v in row)
            half += (_signature((labels, tuple(map(bool, pieces)))), tuple(pieces),
                     tuple(b for b in blocks if b not in label))
        half += (self.is_partial_brauer(),)
        object.__setattr__(self, "_half", half)
        return half

    def is_motzkin(self):
        return self.is_partial_brauer() and self.is_planar()

    def is_tl(self):
        return self.is_motzkin() and not self.isolated()

    # -- frames ----------------------------------------------------------------

    def frames(self):
        """The :class:`Frame` of a partial Brauer diagram, from one walk that
        splits its edges into cups, caps and through edges."""
        try:
            return self._frame
        except AttributeError:
            pass
        if not self.is_partial_brauer():
            raise ValueError("frames require a partial Brauer diagram")
        k = self.k
        top, bot, top_h, bot_h = [], [], [], []
        for u, v in self.edges():
            if v < k:
                top_h += (u + 1, v + 1)
            elif u >= k:
                bot_h += (u - k + 1, v - k + 1)
            else:
                top.append(u + 1)
                bot.append(v - k + 1)
        fr = Frame(frozenset(top + top_h), frozenset(bot + bot_h),
                   frozenset(top_h), frozenset(bot_h))
        object.__setattr__(self, "_frame", fr)
        return fr

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        """The JSON object of the diagram: its edges when it is partial
        Brauer (no block has more than two vertices), else its blocks of
        two or more vertices."""
        name = _vertex_names(self.k)
        if self.is_partial_brauer():
            return {"k": self.k,
                    "edges": [[name[b[0]], name[b[1]]] for b in self.blocks if len(b) == 2]}
        return {"k": self.k, "blocks": [[name[v] for v in b] for b in self.blocks if len(b) > 1]}

    @classmethod
    def from_json(cls, obj):
        """The diagram of ``{"k": k, "edges": [...]}``, or "blocks" for "edges"; no other key."""
        check_keys(obj, "a diagram", ("k",), ("edges", "blocks"))
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


def check_keys(obj, what, required, optional=()):
    """The one shape rule of a JSON object: refuse ``obj``, named ``what``,
    unless it is an object with every ``required`` key and no key but those
    and the ``optional`` ones."""
    if not isinstance(obj, dict):
        raise ValueError("%s is a JSON object, not %r" % (what, obj))
    for key in required:
        if key not in obj:
            raise ValueError("missing key %r in %s" % (key, what))
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError("unknown key %r in %s" % (key, what))


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
    ``json.dumps(Diagram._of(k, blocks).to_json())``, is then
    ``head + ", ".join(edge[b] for b in blocks if len(b) == 2) + "]}"``."""
    name = _vertex_names(k)
    head = json.dumps({"k": k, "edges": []})[:-2]
    return head, {(u, v): json.dumps([name[u], name[v]])
                  for u, v in itertools.combinations(range(2 * k), 2)}


@dataclass(frozen=True, slots=True)
class Frame:
    """A partial Brauer diagram's frames, as sets of 1-based columns: ``top``
    and ``bot`` are the non-isolated columns of the top and bottom rows, and
    ``top_h`` and ``bot_h`` the cup and cap ends among them."""

    top: frozenset
    bot: frozenset
    top_h: frozenset
    bot_h: frozenset


class Composition(NamedTuple):
    diagram: Diagram
    blocks: int           # discarded interior blocks
    loops: int | None     # closed interior loops (partial Brauer inputs)
    snakes: tuple | None  # through edges that snake (partial Brauer inputs)


_tuple_new = tuple.__new__


def compose(d1, d2):
    """Stack ``d1`` above ``d2`` and discard the middle row.

    Returns the composite diagram together with the number of discarded
    interior blocks and, when both inputs are partial Brauer, the number
    ``loops`` of them that are closed loops (the other ``blocks - loops``
    are open paths, single vertices included) and the sorted tuple
    ``snakes`` of the composite's through edges that snake: their path
    meets the middle row more than once, so it runs through at least one
    interior cup and cap.

    The middle row is column c of d1's bottom row glued to column c of
    d2's top row.  How its components run depends only on d1's bottom
    signature and d2's top one (``Diagram._halves``, computed once per
    diagram), so it is looked up: ``_PLANS[bottom][top]`` is the plan that
    :func:`_plan` builds on first sight of the pair.  It lists the outer
    blocks as the pieces they join (d1's top-row vertices, d2's bottom-row
    vertices), names the pairs that snake and counts the discarded blocks
    and loops.  A block of d1 with no middle vertex passes through
    unchanged, as does one of d2.
    The composite's blocks are sorted once and interned unchecked: they
    partition the outer rows because the factors' blocks partition theirs.
    """
    if d1.k != d2.k:
        raise ValueError("cannot compose diagrams with k=%d and k=%d" % (d1.k, d2.k))
    try:  # the filled slots read directly, without two accessor calls
        half1, half2 = d1._half, d2._half
    except AttributeError:
        half1, half2 = d1._halves(), d2._halves()
    _, _, _, bottom, pieces1, upper, pb1 = half1
    top, pieces2, lower, _, _, _, pb2 = half2
    plan = _PLANS[bottom].get(top)
    if plan is None:
        plan = _plan(bottom, top)
    pairs, merged, n_blocks, n_loops, snaking = plan
    piece = pieces1 + pieces2
    blocks = list(upper)
    blocks += lower
    for i, j in pairs:
        blocks.append(piece[i] + piece[j])
    for join in merged:
        blocks.append(tuple(sorted(v for i in join for v in piece[i])))
    blocks.sort()
    key = tuple(blocks)
    d3 = _INTERNED.get(key)
    if d3 is None:
        d3 = Diagram._of(d1.k, key)
    # what Composition(...) makes, without the call through its __new__
    if not (pb1 and pb2):
        return _tuple_new(Composition, (d3, n_blocks, None, None))
    snakes = tuple(sorted([piece[i] + piece[j] for i, j in snaking])) if snaking else ()
    return _tuple_new(Composition, (d3, n_blocks, n_loops, snakes))


def _signature(key):
    """The number of the half-diagram signature ``key``, given on first
    sight; it is also the signature's row of ``_PLANS``."""
    n = _SIGNATURES.setdefault(key, len(_SIGNATURES))
    if n == len(_PLANS):
        _PLANS.append({})
    return n


def _plan(bottom, top):
    """Build and store the plan of :func:`compose` for a left factor of
    bottom signature ``bottom`` over a right factor of top signature ``top``.

    The nodes are the left factor's labels 0..m-1, then the right factor's
    labels shifted by m, so node i's piece is ``(pieces1 + pieces2)[i]``;
    column c joins node below[c] to node m + above[c].  Every label holds a
    column, so every component holds nodes of both factors.  One with no
    node that reaches an outer row is a discarded block; it is a closed
    loop when each node holds two middle columns, for its blocks are then
    edges.  Any other is one outer block: a pair (i, j) of a left node i
    and a right node j when at most one node per side reaches out (a side
    that has none gives a node whose piece is empty), since top-row
    vertices come before bottom-row ones; else the tuple of its reaching
    nodes, whose pieces are merged and sorted.  A pair snakes when both of
    its nodes reach out and the component holds more: for partial Brauer
    factors that is a through path that meets the middle row more than
    once.  Equal plans are stored as one object.
    """
    keys = list(_SIGNATURES)
    (below, reach1), (above, reach2) = keys[bottom], keys[top]
    m = len(reach1)
    reach = reach1 + reach2
    ends = below + tuple(m + j for j in above)  # the node at each middle vertex
    comp = list(range(len(reach)))
    for i, j in zip(below, above):
        a, b = comp[i], comp[m + j]
        if a != b:
            comp = [a if c == b else c for c in comp]
    components = {}
    for node, c in enumerate(comp):
        components.setdefault(c, []).append(node)
    pairs, merged, n_blocks, n_loops, snaking = [], [], 0, 0, []
    for nodes in components.values():
        left = [i for i in nodes if i < m and reach[i]]
        right = [j for j in nodes if j >= m and reach[j]]
        if not left and not right:
            n_blocks += 1
            n_loops += all(ends.count(i) == 2 for i in nodes)
        elif len(left) <= 1 and len(right) <= 1:
            pairs.append(((left or nodes)[0], (right or nodes)[-1]))
            if left and right and len(nodes) > 2:
                snaking.append(pairs[-1])
        else:
            merged.append(tuple(left + right))
    plan = (tuple(pairs), tuple(merged), n_blocks, n_loops, tuple(snaking))
    plan = _PLANS[bottom][top] = _PLAN_POOL.setdefault(plan, plan)
    return plan


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


def enumerate_keys(kind, k, sink, n=None):
    """Pass ``sink`` the block tuple of each diagram of
    ``enumerate_diagrams(kind, k, n)``, in the same order, as it is made:
    no Diagram is built and no list of the family is held."""
    _check_family(kind, k, n)
    if kind == "balanced_motzkin_n":
        _stratum_keys(n, k, sink)
    elif kind == "balanced_motzkin":
        for j in range(k + 1):
            _stratum_keys(j, k, sink)
    else:
        _place(k, sink, kind != "partial_brauer", kind != "tl")


def enumerate_diagrams(kind, k, n=None):
    """The k-diagrams of family ``kind``, interned; the stratum ``n`` (edge
    count) belongs to kind ``balanced_motzkin_n`` alone."""
    keys = []
    enumerate_keys(kind, k, keys.append, n)
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
