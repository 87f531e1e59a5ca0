"""Diagram combinatorics: composition, planarity, frames, triples, counts."""

import bisect
import copy
import dataclasses
import functools
import itertools
import json
import pickle
import random
import re
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ptlalg import diagram
from ptlalg.algebra import bar_multiply, motzkin_spec, tilde_multiply
from ptlalg.diagram import (Composition, Diagram, Frame,
                            balanced_motzkin_diagrams, balanced_motzkin_stratum,
                            catalan as library_catalan, compose, count_diagrams, diagram_of,
                            enumerate_diagrams, enumerate_keys, gen_b, gen_e, gen_l, gen_p,
                            gen_r, gen_s, identity, motzkin_diagrams, omega,
                            partial_brauer_diagrams, removals, tensor, tl_diagrams,
                            triple_of)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_library_catalan():
    assert [library_catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_compose_counts():
    e = gen_e(1, 2)
    c = compose(e, e)
    assert c.diagram == e and c.loops == 1 and c.blocks - c.loops == 0
    p = gen_p(1, 1)
    cp = compose(p, p)
    assert cp.diagram == p and cp.loops == 0 and cp.blocks - cp.loops == 1
    for d in motzkin_diagrams(2):
        c = compose(identity(2), d)
        assert c.diagram == d and c.blocks == 0


def test_generator_compositions():
    # r = p1 s = s p2, l = s p1 = p2 s
    r, l = gen_r(1, 2), gen_l(1, 2)
    assert compose(gen_p(1, 2), gen_s(1, 2)).diagram == r
    assert compose(gen_s(1, 2), gen_p(2, 2)).diagram == r
    assert compose(gen_s(1, 2), gen_p(1, 2)).diagram == l
    assert compose(gen_p(2, 2), gen_s(1, 2)).diagram == l
    # e_i = b_i p_i p_{i+1} b_i with no discarded blocks along the chain
    for k in (2, 3, 4):
        for i in range(1, k):
            x = compose(gen_b(i, k), gen_p(i, k))
            y = compose(x.diagram, gen_p(i + 1, k))
            z = compose(y.diagram, gen_b(i, k))
            assert z.diagram == gen_e(i, k)
            assert x.blocks + y.blocks + z.blocks == 0
    # r_i l_i = p_i, l_{i-1} r_{i-1} = p_i (with one interior path each)
    for k in (2, 3, 4):
        for i in range(1, k):
            assert compose(gen_r(i, k), gen_l(i, k)).diagram == gen_p(i, k)
            assert compose(gen_l(i, k), gen_r(i, k)).diagram == gen_p(i + 1, k)


def test_tensor():
    assert tensor(identity(1), identity(1)) == identity(2)
    for k in (3, 4):
        for i in range(2, k):
            left = identity(i - 1)
            built = tensor(left, gen_e(1, 2))
            built = tensor(built, identity(k - 1 - i))
            assert built == gen_e(i, k)
    t = tl_diagrams(2)[0]
    ext = tensor(t, omega(2))
    assert ext.k == 4 and ext.is_balanced() and ext.is_motzkin()


def test_planarity():
    assert not gen_s(1, 2).is_planar()
    for g in (gen_e(1, 2), gen_r(1, 2), gen_l(1, 2), gen_p(1, 2), gen_b(1, 2)):
        assert g.is_planar()
    assert not gen_s(2, 4).is_planar()
    assert gen_b(2, 4).is_planar()
    assert len([d for d in partial_brauer_diagrams(2) if d.is_planar()]) == 9
    # nested vs crossing chords
    assert Diagram.from_edges(4, [(0, 3), (1, 2)]).is_planar()
    assert not Diagram.from_edges(4, [(0, 2), (1, 3)]).is_planar()


def test_planarity_closed_under_product_and_tensor():
    m2 = motzkin_diagrams(2)
    for d1 in m2:
        for d2 in m2:
            assert compose(d1, d2).diagram.is_planar()
            assert tensor(d1, d2).is_planar()


def test_balanced():
    assert gen_e(1, 2).is_balanced()
    assert gen_r(1, 2).is_balanced()  # no horizontal edges at all
    assert not Diagram.from_edges(2, [(0, 1)]).is_balanced()


def edge_kinds(d):
    """A partial Brauer diagram's cups, caps and through edges, read from its
    blocks: a cup or a cap as the 0-based columns of its two ends, a through
    edge as (top column, bottom column), each list in block order."""
    cups, caps, through = [], [], []
    for b in d.blocks:
        if len(b) == 2:
            (r1, c1), (r2, c2) = divmod(b[0], d.k), divmod(b[1], d.k)
            (through if r1 != r2 else caps if r1 else cups).append((c1, c2))
    return cups, caps, through


def test_frames():
    fr = gen_e(1, 2).frames()
    assert fr.top == fr.top_h == frozenset({1, 2})
    assert fr.bot == fr.bot_h == frozenset({1, 2})
    frr = gen_r(1, 2).frames()
    assert frr.top == frozenset({2}) and frr.bot == frozenset({1})
    assert not frr.top_h and not frr.bot_h
    fid = identity(3).frames()
    assert fid.top == fid.bot == frozenset({1, 2, 3})
    assert not fid.top_h and not fid.bot_h
    assert [f.name for f in dataclasses.fields(Frame)] == ["top", "bot", "top_h", "bot_h"]


def test_frames_match_the_vertex_reference_on_every_partial_brauer_diagram():
    for k in range(5):
        pool = partial_brauer_diagrams(k)
        assert len(pool) == (1, 2, 10, 76, 764)[k]
        for d in pool:
            fr = d.frames()
            assert (fr.top, fr.bot, fr.top_h, fr.bot_h) == reference_frames(d), d


def test_frames_read_their_cache_before_any_check(monkeypatch):
    d = gen_e(1, 3)
    fr = d.frames()

    def refuse(self):
        raise AssertionError("frames re-checked a cached diagram")

    monkeypatch.setattr(Diagram, "is_partial_brauer", refuse)
    assert d.frames() is fr


def test_frames_refuse_a_partition_diagram_every_time():
    d = Diagram(2, [(0, 1, 2), (3,)])
    for _ in range(3):
        with pytest.raises(ValueError, match="^frames require a partial Brauer diagram$"):
            d.frames()


def derived(d):
    return d.frames(), d.is_planar(), d.is_partial_brauer(), d.is_balanced()


def test_cached_properties_match_a_fresh_diagram():
    for d in partial_brauer_diagrams(3) + motzkin_diagrams(4):
        h = hash(d)
        first = derived(d)
        fresh = Diagram(d.k, d.blocks)
        assert derived(fresh) == first
        assert derived(d) == first  # now answered from the caches
        assert fresh is d and hash(d) == h
        for name in ("k", "blocks", "_pb", "_planar", "_frame"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        assert derived(d) == first


def test_frames_of_non_partial_brauer_raise_every_time():
    three = Diagram(3, [(0, 1, 3), (2,), (4, 5)])
    for d in (gen_b(1, 3), three):
        for _ in range(3):
            assert not d.is_partial_brauer()
            with pytest.raises(ValueError):
                d.frames()
            with pytest.raises(ValueError):
                d.is_balanced()


def test_triple_bijection():
    # the worked 6-column diagram
    d6 = Diagram.from_edges(6, [(0, 3), (4, 6 + 1), (6 + 3, 6 + 5)])
    A, t, B = triple_of(d6)
    assert A == (1, 4, 5) and B == (2, 4, 6)
    assert t == compose(gen_e(1, 3), gen_e(2, 3)).diagram
    assert diagram_of(A, t, B, 6) == d6
    # initial-segment embedding
    for t in tl_diagrams(2):
        ext = tensor(t, omega(2))
        A2, t2, B2 = triple_of(ext)
        assert A2 == B2 == (1, 2) and t2 == t
    # exhaustive round trip over D(3)
    for d in balanced_motzkin_diagrams(3):
        A, t, B = triple_of(d)
        assert diagram_of(A, t, B, 3) == d


def test_triple_round_trip_gives_back_the_instance():
    for k in range(6):
        for d in balanced_motzkin_diagrams(k):
            A, t, B = triple_of(d)
            assert diagram_of(A, t, B, d.k) is d
            assert triple_of(d) is triple_of(d)
            # t is the instance from_edges makes of the frame's relabeled edges
            to = {a - 1: j for j, a in enumerate(A)}
            to.update({k + b - 1: len(A) + j for j, b in enumerate(B)})
            assert t is Diagram.from_edges(len(A), [(to[u], to[v]) for u, v in d.edges()])


def test_diagram_of_refuses_what_is_not_a_triple():
    t = gen_e(1, 2)
    assert diagram_of((1, 3), t, (2, 3), 3) is Diagram.from_edges(3, [(0, 2), (4, 5)])
    subsets = "A and B must be 2-subsets of 1..3"
    for A, t, B, message in (((1, 4), t, (2, 3), subsets),     # a column past k
                             ((1, 2), t, (0, 3), subsets),     # a column before 1
                             ((1, 1), t, (2, 3), subsets),     # a repeated column
                             ((1, 1, 2), t, (2, 3), subsets),  # repeated among n + 1
                             ((1, 2, 3), t, (2, 3), subsets),  # more columns than t has
                             ((1, 2), t, (True, 2), subsets),  # a column that is no int
                             ((1, 2), omega(2), (1, 2), "Temperley-Lieb")):
        with pytest.raises(ValueError, match=message):
            diagram_of(A, t, B, 3)


def test_rtl_factorization():
    # d(A, t, B) composes as r_A (t x omega) l_B with no discarded blocks
    for d in balanced_motzkin_diagrams(3):
        A, t, B = triple_of(d)
        n = t.k
        mid = tensor(t, omega(3 - n)) if n < 3 else t
        # r_A joins bottom columns 1..n to the top columns A, l_B top 1..n to bottom B
        r_A = Diagram.from_edges(3, [(a - 1, 3 + j) for j, a in enumerate(A)])
        l_B = Diagram.from_edges(3, [(j, 3 + b - 1) for j, b in enumerate(B)])
        c1 = compose(r_A, mid)
        c2 = compose(c1.diagram, l_B)
        assert c2.diagram == d
        assert c1.loops + c2.loops == 0


def test_enumeration_counts():
    assert [len(tl_diagrams(k)) for k in range(7)] == [catalan(k) for k in range(7)]
    assert [len(motzkin_diagrams(k)) for k in range(5)] == [1, 2, 9, 51, 323]
    assert len(partial_brauer_diagrams(2)) == 10
    assert [len(balanced_motzkin_diagrams(k)) for k in range(5)] == [1, 2, 7, 33, 183]
    for k in range(5):
        filtered = sorted(d for d in motzkin_diagrams(k) if d.is_balanced())
        assert sorted(balanced_motzkin_diagrams(k)) == filtered
    for k in range(6):
        for n in range(k + 1):
            stratum = balanced_motzkin_stratum(n, k)
            assert len(stratum) == comb(k, n) ** 2 * catalan(n)
            assert len(set(stratum)) == len(stratum)


def test_composition_associative_with_counts():
    rng = random.Random(23)
    for k in (2, 3, 4):
        pool = partial_brauer_diagrams(k) if k <= 3 else motzkin_diagrams(4)
        for _ in range(60):
            d1, d2, d3 = (rng.choice(pool) for _ in range(3))
            left1 = compose(d1, d2)
            left2 = compose(left1.diagram, d3)
            right1 = compose(d2, d3)
            right2 = compose(d1, right1.diagram)
            assert left2.diagram == right2.diagram
            assert left1.loops + left2.loops == right1.loops + right2.loops
            assert (left1.blocks - left1.loops + left2.blocks - left2.loops
                    == right1.blocks - right1.loops + right2.blocks - right2.loops)
            assert left1.blocks + left2.blocks == right1.blocks + right2.blocks


def test_loops_plus_paths_equals_blocks():
    pool = partial_brauer_diagrams(2)
    for d1 in pool:
        for d2 in pool:
            c = compose(d1, d2)
            # the open paths, blocks - loops, are never negative
            assert 0 <= c.loops <= c.blocks


def test_json_round_trip():
    for d in motzkin_diagrams(2) + [gen_b(1, 3), gen_s(1, 3)]:
        assert Diagram.from_json(json.loads(json.dumps(d.to_json()))) == d
    obj = {"k": 3, "edges": [["t1", "t2"], ["b1", "b3"], ["t3", "b2"]]}
    d = Diagram.from_json(obj)
    assert edge_kinds(d) == ([(0, 1)], [(0, 2)], [(2, 1)])


# -- compose against a union-find reference -------------------------------------

def union_find_compose(d1, d2):
    """Reference composition: union-find over the 3k vertices of the stack.
    For partial Brauer factors a through edge snakes when its component
    also holds an interior edge, a cap of d1 or a cup of d2."""
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

    new_blocks, snakes = [], []
    n_blocks = n_loops = 0
    for root, verts in members.items():
        outer = [v for v in verts if v < k or v >= 2 * k]
        if outer:
            block = tuple(v if v < k else v - k for v in outer)
            new_blocks.append(block)
            if (pb and len(outer) == 2 and outer[0] < k and outer[1] >= 2 * k
                    and interior_edges.get(root, 0) > 0):
                snakes.append(block)
        else:
            n_blocks += 1
            if pb and interior_edges.get(root, 0) == len(verts):
                n_loops += 1
    if not pb:
        return Composition(Diagram(k, new_blocks), n_blocks, None, None)
    return Composition(Diagram(k, new_blocks), n_blocks, n_loops, tuple(sorted(snakes)))


def assert_same_composition(d1, d2):
    got = compose(d1, d2)
    assert got == union_find_compose(d1, d2)
    return got


def test_compose_matches_reference_on_all_partial_brauer_3_pairs():
    pool = partial_brauer_diagrams(3)
    assert len(pool) == 76
    loops = paths = snaking = 0
    for d1 in pool:
        for d2 in pool:
            c = assert_same_composition(d1, d2)
            loops += c.loops
            paths += c.blocks - c.loops
            snaking += bool(c.snakes)
    assert loops > 0 and paths > 0 and snaking > 0


def partition_words_3(product):
    """The identity at k = 3 closed under right multiplication by the
    generators s_i, p_j and b_i, each product taken by ``product``."""
    k = 3
    gens = ([gen_s(i, k) for i in (1, 2)] + [gen_p(j, k) for j in (1, 2, 3)]
            + [gen_b(i, k) for i in (1, 2)])
    reached = {identity(k)}
    frontier = [identity(k)]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                d = product(x, g)
                if d not in reached:
                    reached.add(d)
                    fresh.append(d)
        frontier = fresh
    return reached


def test_compose_matches_reference_on_partition_words():
    # every product on the way is checked against the reference
    reached = partition_words_3(lambda x, g: assert_same_composition(x, g).diagram)
    assert len(reached) == 203  # Bell(6): the whole partition monoid
    big = sorted(d for d in reached if max(map(len, d.blocks)) >= 3)
    assert big
    for d1 in big[::3]:
        for d2 in sorted(reached):
            c = assert_same_composition(d1, d2)
            assert c.loops is None
            c = assert_same_composition(d2, d1)
            assert c.loops is None


def test_compose_matches_reference_on_partition_words_k4():
    k = 4
    gens = ([gen_s(i, k) for i in (1, 2, 3)] + [gen_p(j, k) for j in (1, 2, 3, 4)]
            + [gen_b(i, k) for i in (1, 2, 3)] + [gen_e(i, k) for i in (1, 2, 3)])
    rng = random.Random(4)
    words = []
    for _ in range(300):
        d = identity(k)
        for _ in range(rng.randint(1, 6)):
            d = assert_same_composition(d, rng.choice(gens)).diagram
        words.append(d)
    big = sorted({d for d in words if max(map(len, d.blocks)) >= 3})
    assert len(big) >= 50
    assert all(d._halves() == reference_halves(d) for d in big)
    discarded = 0
    for _ in range(600):
        d1, d2 = rng.choice(words), rng.choice(big)
        for c in (assert_same_composition(d1, d2), assert_same_composition(d2, d1)):
            assert c.loops is None
            discarded += c.blocks
    assert discarded > 0


def random_set_partition(rng, k):
    """A k-diagram whose blocks are a random set partition of its 2k vertices."""
    vertices = list(range(2 * k))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, 2 * k), rng.randint(0, 2 * k - 1)))
    return Diagram(k, [vertices[i:j] for i, j in zip([0] + cuts, cuts + [2 * k])])


@pytest.mark.parametrize("k", [4, 5])
def test_compose_matches_reference_on_random_set_partitions(k):
    rng = random.Random(k)
    pool = [random_set_partition(rng, k) for _ in range(400)]
    assert sum(max(map(len, d.blocks)) >= 3 for d in pool) > 200  # mostly not partial Brauer
    discarded = merged = 0
    for _ in range(1500):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        for left, right in ((d1, d2), (d2, d1)):
            discarded += assert_same_composition(left, right).blocks
            plan = diagram._PLANS[left._halves()[3]][right._halves()[0]]
            merged += len(plan[1]) > 0
    assert discarded > 0 and merged > 0  # some outer block takes two pieces of one factor


def clear_plan_tables():
    """Empty the plan and component tables: both are caches, rebuilt as
    they are next needed."""
    for plans in diagram._PLANS:
        plans.clear()
    diagram._COMPONENTS.clear()


def test_each_signature_pair_plan_is_built_once(monkeypatch):
    pool = balanced_motzkin_diagrams(4)
    clear_plan_tables()
    built, build = [], diagram._plan
    monkeypatch.setattr(diagram, "_plan", lambda bottom, top: (
        built.append((bottom, top)), build(bottom, top))[1])
    for d1 in pool:
        for d2 in pool:
            compose(d1, d2)
    bottoms = {reference_halves(d)[3] for d in pool}
    tops = {reference_halves(d)[0] for d in pool}
    assert sorted(built) == sorted(itertools.product(bottoms, tops))
    assert len(built) == len(bottoms) * len(tops) < len(pool) ** 2 // 25
    built.clear()
    for d1 in pool:
        for d2 in pool:
            compose(d1, d2)
    assert built == []


def reference_plan(bottom_key, top_key):
    """The plan of ``compose`` for a bottom signature over a top one, from
    its definition: a plain union-find over the middle row, whose nodes are
    the left factor's labels 0..m-1 and then the right factor's shifted by
    m.  A component that reaches no outer row is a discarded block, a loop
    when each node holds two middle columns; one with at most one reaching
    node per side is a pair (its left reaching node or least left node, its
    right reaching node or greatest right node), snaking when both nodes
    reach out and it holds more; any other merges its reaching nodes.
    Components are taken in the order of their least node."""
    (below, reach1), (above, reach2) = bottom_key, top_key
    m = len(reach1)
    reach = reach1 + reach2
    parent = list(range(len(reach)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in zip(below, above):
        parent[find(m + j)] = find(i)
    members = {}
    for node in range(len(reach)):
        members.setdefault(find(node), []).append(node)
    columns = lambda v: below.count(v) if v < m else above.count(v - m)
    pairs, merged, snaking = [], [], []
    n_blocks = n_loops = 0
    for nodes in members.values():
        left = [v for v in nodes if v < m and reach[v]]
        right = [v for v in nodes if v >= m and reach[v]]
        if not left and not right:
            n_blocks += 1
            n_loops += all(columns(v) == 2 for v in nodes)
        elif len(left) <= 1 and len(right) <= 1:
            pair = (left[0] if left else min(v for v in nodes if v < m),
                    right[0] if right else max(v for v in nodes if v >= m))
            pairs.append(pair)
            if left and right and len(nodes) > 2:
                snaking.append(pair)
        else:
            merged.append(tuple(left + right))
    return tuple(pairs), tuple(merged), n_blocks, n_loops, tuple(snaking)


def test_middle_row_components_are_built_once_per_pair_of_label_tuples(monkeypatch):
    pool = balanced_motzkin_diagrams(4)
    clear_plan_tables()
    built, build = [], diagram._components
    monkeypatch.setattr(diagram, "_components", lambda below, above: (
        built.append((below, above)), build(below, above))[1])
    for d1 in pool:
        for d2 in pool:
            compose(d1, d2)
    key = {n: signature for signature, n in diagram._SIGNATURES.items()}
    bottoms = {key[reference_halves(d)[3]] for d in pool}
    tops = {key[reference_halves(d)[0]] for d in pool}
    labels = {(below, above) for (below, _), (above, _) in itertools.product(bottoms, tops)}
    assert sorted(built) == sorted(labels)
    # components per pair of label tuples, plans per pair of signatures
    assert len(built) == 81 < len(bottoms) * len(tops) // 10
    # and on factors of other kinds, every plan stored is the reference one
    rng = random.Random(44)
    for others in (partial_brauer_diagrams(3),
                   [random_set_partition(rng, 4) for _ in range(150)],
                   [random_set_partition(rng, 5) for _ in range(150)]):
        for d1 in others:
            for d2 in rng.sample(others, 40):
                compose(d1, d2)
    assert len(built) == len(set(built)) > 81
    key = {n: signature for signature, n in diagram._SIGNATURES.items()}
    stored = [(bottom, top, plan) for bottom, plans in enumerate(diagram._PLANS)
              for top, plan in plans.items()]
    assert len(stored) > 5000
    for bottom, top, plan in stored:
        assert plan == reference_plan(key[bottom], key[top])


@functools.lru_cache(maxsize=None)
def motzkin_5():
    return motzkin_diagrams(5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_compose_associative_with_counts_on_motzkin_5(data):
    d1, d2, d3 = (data.draw(st.sampled_from(motzkin_5())) for _ in range(3))
    left1 = assert_same_composition(d1, d2)
    left2 = assert_same_composition(left1.diagram, d3)
    right1 = assert_same_composition(d2, d3)
    right2 = assert_same_composition(d1, right1.diagram)
    assert left2.diagram == right2.diagram
    assert left1.loops + left2.loops == right1.loops + right2.loops
    assert (left1.blocks - left1.loops + left2.blocks - left2.loops
            == right1.blocks - right1.loops + right2.blocks - right2.loops)


# -- Diagram validation ----------------------------------------------------------

MALFORMED_BLOCKS = [
    (2, [(0, 2), (), (1,), (3,)], "empty block"),
    (2, [(0, 2), (1, 4), (3,)], "out of range"),
    (2, [(0, 2), (1, -1), (3,)], "out of range"),
    (2, [(0, 2), (1, 2), (3,)], "in two blocks"),
    (2, [(0, 2), (1, 3), (1,)], "in two blocks"),
    (2, [(0, 2), (1,)], "must cover all 4"),
    (0, [(0,)], "out of range"),
]


@pytest.mark.parametrize("k, blocks, message", MALFORMED_BLOCKS)
def test_diagram_constructor_rejects_malformed_blocks(k, blocks, message):
    with pytest.raises(ValueError, match=message):
        Diagram(k, blocks)


@pytest.mark.parametrize("k", [True, False, -1, 1.0, "1", None])
def test_k_must_be_a_nonnegative_int(k):
    one = Diagram(1, [(0, 1)])
    for build in (lambda: Diagram(k, [(0, 1)]), lambda: Diagram.from_edges(k, [(0, 1)]),
                  lambda: Diagram.from_json({"k": k, "edges": [["t1", "b1"]]})):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            build()
    assert Diagram(1, [(0, 1)]) is one
    assert type(one.k) is int and one.to_json() == {"k": 1, "edges": [["t1", "b1"]]}


@pytest.mark.parametrize("kind", ["partial_brauer", "motzkin", "tl", "balanced_motzkin"])
def test_enumerate_diagrams_refuses_an_n_it_would_ignore(kind):
    assert enumerate_diagrams(kind, 2) == enumerate_diagrams(kind, 2, None)
    for n in (0, 1):
        with pytest.raises(ValueError, match="n applies only to kind balanced_motzkin_n"):
            enumerate_diagrams(kind, 2, n)


def test_enumerate_diagrams_stratum_needs_n():
    assert enumerate_diagrams("balanced_motzkin_n", 2, 1) == balanced_motzkin_stratum(1, 2)
    with pytest.raises(ValueError, match="kind balanced_motzkin_n needs n"):
        enumerate_diagrams("balanced_motzkin_n", 2)


# -- from_edges with any listed blocks, and the blocks JSON -----------------------

def padded_from_json_blocks(obj):
    """Reference "blocks" loader: pads the unlisted vertices itself."""
    k = obj["k"]

    def vertex(s):
        return int(s[1:]) - 1 if s[0] == "t" else k + int(s[1:]) - 1

    listed = [tuple(vertex(s) for s in b) for b in obj["blocks"]]
    used = {v for b in listed for v in b}
    listed.extend((v,) for v in range(2 * k) if v not in used)
    return Diagram(k, listed)


def test_from_edges_accepts_any_listed_blocks():
    assert Diagram.from_edges(2, []) == omega(2)
    assert Diagram.from_edges(2, [(0, 1, 2, 3)]) == gen_b(1, 2)
    assert Diagram.from_edges(3, [[4, 0, 3], (2,), (5, 1)]) == Diagram(
        3, [(0, 3, 4), (1, 5), (2,)])
    assert Diagram.from_edges(2, iter([(0, 2), (1, 3)])) == identity(2)
    with pytest.raises(ValueError, match="in two blocks"):
        Diagram.from_edges(2, [(0, 1, 2), (2, 3)])
    with pytest.raises(ValueError, match="empty block"):
        Diagram.from_edges(2, [(0, 1), ()])


def test_blocks_json_matches_padding_reference():
    rng = random.Random(7)
    objs = [gen_b(1, 3).to_json(), gen_b(2, 4).to_json(), {"k": 0, "blocks": []},
            {"k": 2, "blocks": [["t1", "b2"]]}]
    for _ in range(200):
        k = rng.randint(1, 4)
        labels = ["t%d" % c for c in range(1, k + 1)] + ["b%d" % c for c in range(1, k + 1)]
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, 2 * k), rng.randint(0, 2 * k - 1)))
        parts = [labels[i:j] for i, j in zip([0] + cuts, cuts + [2 * k])]
        objs.append({"k": k, "blocks": [p for p in parts if rng.random() < 0.7]})
    for obj in objs:
        d = Diagram.from_json(obj)
        assert d == padded_from_json_blocks(obj)
        assert Diagram.from_json(json.loads(json.dumps(d.to_json()))) == d
    for blocks, message in (([["t1", "b1"], ["b1"]], "in two blocks"),
                            ([[]], "empty block"), ([["t3"]], "bad vertex label")):
        with pytest.raises(ValueError, match=message):
            Diagram.from_json({"k": 2, "blocks": blocks})
    # "edges" entries are still pairs
    for edge in (["t1", "t2", "b1"], ["t1"]):
        with pytest.raises(ValueError):
            Diagram.from_json({"k": 2, "edges": [edge]})


def test_json_vertex_labels_are_a_row_and_a_plain_column():
    assert Diagram.from_json({"k": 10, "edges": [["t10", "b1"]]}) == Diagram.from_edges(
        10, [(9, 10)])
    for label in ("t1_0", "t 1", " t1", "t1 ", "b01", "t+1", "t-1", "t0", "T1", "t",
                  "t1\n", "t\u0661", 1, None, ["t1"]):
        for obj in ({"k": 10, "edges": [[label, "b2"]]}, {"k": 10, "blocks": [[label]]}):
            with pytest.raises(ValueError, match="bad vertex label"):
                Diagram.from_json(obj)
    with pytest.raises(ValueError, match='"edges" or "blocks", not both'):
        Diagram.from_json({"k": 2, "blocks": [["t1"]], "edges": [["t1", "t2"]]})


# malformed shapes, each refused by name rather than by Python's unpacking
MALFORMED_JSON = {
    "edge-of-three": ({"k": 2, "edges": [["t1", "t2", "b1"]]}, "bad edge ['t1', 't2', 'b1']"),
    "edge-of-one": ({"k": 2, "edges": [["t1"]]}, "bad edge ['t1']"),
    "edges-string": ({"k": 2, "edges": "t1"}, "bad edges 't1'"),
    "edge-int": ({"k": 2, "edges": [5]}, "bad edge 5"),
    "edges-null": ({"k": 2, "edges": None}, "bad edges None"),
    "block-int": ({"k": 2, "blocks": [5]}, "bad block 5"),
    "blocks-int": ({"k": 2, "blocks": 5}, "bad blocks 5"),
    "list": ([1], "a diagram is a JSON object, not [1]"),
    "string": ("t1", "a diagram is a JSON object, not 't1'"),
}


@pytest.mark.parametrize("obj,message", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_from_json_names_a_malformed_entry(obj, message):
    with pytest.raises(ValueError) as exc:
        Diagram.from_json(obj)
    assert str(exc.value) == message


def test_from_json_reads_edges_and_blocks_alike():
    want = Diagram.from_edges(2, [(0, 3), (1, 2)])
    for edges in ([["t1", "b2"], ["t2", "b1"]], [("t1", "b2"), ("t2", "b1")]):
        assert Diagram.from_json({"k": 2, "edges": edges}) == want
        assert Diagram.from_json({"k": 2, "blocks": edges}) == want
    assert Diagram.from_json({"k": 2}) == Diagram.from_json({"k": 2, "blocks": []})


def test_planar_families_share_the_matching_enumeration():
    for k in range(5):
        ms = motzkin_diagrams(k)
        assert ms == sorted(ms) and len(set(ms)) == len(ms)
        assert tl_diagrams(k) == [d for d in ms if d.is_tl()]
        if k <= 3:
            assert ms == [d for d in partial_brauer_diagrams(k) if d.is_planar()]


# -- one instance per distinct diagram ----------------------------------------------

def test_equal_blocks_in_any_order_give_the_same_instance():
    rng = random.Random(3)
    for d in partial_brauer_diagrams(3) + [gen_b(1, 3), gen_b(2, 4), omega(0)]:
        for _ in range(3):
            blocks = [list(b) for b in d.blocks]
            for b in blocks:
                rng.shuffle(b)
            rng.shuffle(blocks)
            assert Diagram(d.k, blocks) is d
            assert Diagram.from_edges(d.k, [b for b in blocks if len(b) > 1]) is d
    assert Diagram(3, [[5, 1], (3, 0, 4), [2]]) is Diagram(3, ((0, 3, 4), (1, 5), (2,)))


def test_equal_products_at_k4_are_one_object():
    spec = motzkin_spec(4)
    pool = balanced_motzkin_diagrams(4)
    results = []
    for d1 in pool:
        for d2 in pool:
            for rule in (bar_multiply, tilde_multiply):
                results.extend(rule(spec, d1, d2).terms)
    assert len(pool) ** 2 == 33489
    assert len({id(d) for d in results}) == len({d.blocks for d in results})


def test_equality_is_identity_and_equal_blocks():
    words = partition_words_3(lambda x, g: compose(x, g).diagram)
    validated = [Diagram(3, p) for p in set_partitions(list(range(6)))]
    assert len(words) == len(validated) == 203
    pool = partial_brauer_diagrams(3) + motzkin_diagrams(4) + sorted(words) + validated
    for a in pool:
        for b in pool:
            assert (a == b) is (a is b) is (a.blocks == b.blocks) is (not a != b)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
    ids=["copy", "deepcopy", "pickle"])
def test_a_copy_of_a_diagram_is_the_diagram(duplicate):
    for d in (omega(0), identity(3), gen_b(1, 3), motzkin_diagrams(4)[17]):
        assert duplicate(d) is d


@pytest.mark.parametrize("k, blocks, message", MALFORMED_BLOCKS + [
    (2, [(0, 2), (1, 3), (0, 2)], "in two blocks"),
    # the block tuples of valid k = 2 and k = 0 diagrams, passed with another k
    (3, [(0, 2), (1, 3)], "must cover all 6"),
    (3, [(0,), (1,), (2,), (3,)], "must cover all 6"),
    (1, [(0, 2), (1, 3)], "out of range"),
    (1, [], "must cover all 2"),
])
def test_malformed_blocks_raise_when_valid_diagrams_are_interned(k, blocks, message):
    valid = [omega(0), gen_b(1, 2)] + partial_brauer_diagrams(1) + partial_brauer_diagrams(2)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            Diagram(k, blocks)
    # a failed construction stores nothing and leaves the valid instances alone
    for d in valid:
        assert Diagram(d.k, d.blocks) is d


def reference_is_planar(d):
    """The parent's planarity formula, computed afresh on every call."""
    k = d.k
    pos = lambda v: v if v < k else 3 * k - 1 - v
    placed = [sorted(pos(v) for v in b) for b in d.blocks if len(b) > 1]
    return not any(
        len({bisect.bisect_left(b1, x) % len(b1) for x in b2}) > 1
        for i, b1 in enumerate(placed) for b2 in placed[i + 1:])


def reference_frames(d):
    """``(top, bot, top_h, bot_h)`` of a partial Brauer diagram from its
    blocks, vertex by vertex: a vertex's 1-based column is in its row's
    frame when its block holds another vertex, and among the row's
    horizontal-edge ends when every other vertex of the block is in the
    same row."""
    k = d.k
    frame, ends = (set(), set()), (set(), set())
    for b in d.blocks:
        for v in b:
            others = [u for u in b if u != v]
            if others:
                frame[v // k].add(v % k + 1)
                if all(u // k == v // k for u in others):
                    ends[v // k].add(v % k + 1)
    return frame + ends


def reference_halves(d):
    """``Diagram._halves`` from its definition, computed afresh: for the top
    row, then the bottom row, the number of the row's signature (the labels
    of its columns, the blocks meeting it numbered by their first column on
    it, and per label whether the block reaches the other row), each
    label's vertices on the other row and the blocks that miss the row;
    last whether every block has at most two vertices."""
    k = d.k
    record = ()
    for row in (range(k), range(k, 2 * k)):
        meeting = sorted((b for b in d.blocks if any(v in row for v in b)),
                         key=lambda b: min(v for v in b if v in row))
        labels = tuple(next(i for i, b in enumerate(meeting) if v in b) for v in row)
        pieces = tuple(tuple(v for v in b if v not in row) for b in meeting)
        signature = (labels, tuple(len(p) > 0 for p in pieces))
        record += (diagram._SIGNATURES[signature], pieces,
                   tuple(b for b in d.blocks if b not in meeting))
    return record + (all(len(b) <= 2 for b in d.blocks),)


def test_derived_data_of_fresh_and_interned_diagrams_match_the_formulas():
    rng = random.Random(11)
    m5, m2 = motzkin_diagrams(5), motzkin_diagrams(2)
    sample = [tensor(rng.choice(m5), rng.choice(m2)) for _ in range(150)]
    for _ in range(150):
        k = rng.randint(5, 7)
        vertices = list(range(2 * k))
        rng.shuffle(vertices)
        n = rng.randint(0, k)
        sample.append(Diagram.from_edges(k, zip(vertices[0:2 * n:2], vertices[1:2 * n:2])))
    sample += motzkin_diagrams(3)
    cold = 0
    for n, d in enumerate(sample):
        # a slot is unset until its accessor first fills it
        cold += not any(hasattr(d, s) for s in ("_planar", "_frame", "_half"))
        if n % 2:
            # halves first filled with d as the right factor, then read as the left
            assert_same_composition(identity(d.k), d)
            assert_same_composition(d, identity(d.k))
        fr = d.frames()
        first = (d.is_planar(), (fr.top, fr.bot, fr.top_h, fr.bot_h),
                 d._halves())
        blocks = [b[::-1] for b in d.blocks]
        rng.shuffle(blocks)
        again = Diagram(d.k, blocks)
        assert again is d
        fr = again.frames()
        assert (again.is_planar(), (fr.top, fr.bot, fr.top_h, fr.bot_h),
                again._halves()) == first
        assert first == (reference_is_planar(d), reference_frames(d), reference_halves(d))
    assert cold >= 250  # most of the sample was met here first, with empty caches
    assert all(d.is_planar() for d in sample[:150])
    assert not all(d.is_planar() for d in sample[150:300])


# -- the trusted route: library constructions are canonical by construction ------

def assert_validated_alike(d):
    """``d``'s block tuple is canonical and a valid k-diagram, and the
    validating constructor returns ``d`` itself for it in any order."""
    k = d.k
    assert d.blocks == tuple(sorted(tuple(sorted(b)) for b in d.blocks))
    assert all(d.blocks)
    assert sorted(v for b in d.blocks for v in b) == list(range(2 * k))
    assert Diagram(k, d.blocks) is d
    assert Diagram(k, [b[::-1] for b in reversed(d.blocks)]) is d


def set_partitions(items):
    """All set partitions of a list, as lists of tuples."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [(first,)] + p
        for i, b in enumerate(p):
            yield p[:i] + [(first,) + b] + p[i + 1:]


def reference_to_json(d):
    """The vertex labels formed per vertex, as to_json did before its table."""
    k = d.k
    name = lambda v: ("t%d" % (v + 1)) if v < k else ("b%d" % (v - k + 1))
    if d.is_partial_brauer():
        return {"k": k, "edges": [[name(u), name(v)] for (u, v) in d.edges()]}
    return {"k": k, "blocks": [[name(v) for v in b] for b in d.blocks if len(b) > 1]}


def test_compose_results_are_the_validated_instances():
    partitions_2 = [Diagram(2, p) for p in set_partitions(list(range(4)))]
    assert len(set(partitions_2)) == 15  # Bell(4)
    pools = [motzkin_diagrams(k) for k in range(4)] + [partitions_2]
    for pool in pools:
        for d1 in pool:
            for d2 in pool:
                d = compose(d1, d2).diagram
                assert_validated_alike(d)
                assert d.to_json() == reference_to_json(d)
    assert any(max(map(len, compose(d1, d2).diagram.blocks)) >= 3
               for d1 in partitions_2 for d2 in partitions_2)


def reference_removals(d, edge_pool):
    """The removals terms rebuilt from their kept edges by from_edges."""
    out = [(d, 0)]
    pool = list(edge_pool)
    fixed = [e for e in d.edges() if e not in pool]
    for r in range(1, len(pool) + 1):
        for removed in itertools.combinations(pool, r):
            keep = fixed + [e for e in pool if e not in removed]
            out.append((Diagram.from_edges(d.k, keep), r))
    return out


def test_removals_terms_are_the_validated_instances():
    for d in partial_brauer_diagrams(3) + motzkin_diagrams(4):
        k = d.k
        throughs = [e for e in d.edges() if e[0] < k <= e[1]]
        for pool in (d.edges(), d.edges()[::-1], throughs, d.edges()[1:]):
            got = removals(d, pool)
            want = reference_removals(d, pool)
            assert len(got) == len(want) == 2 ** len(pool)
            for (sub, r), (ref, r_ref) in zip(got, want):
                assert sub is ref and r == r_ref
                assert_validated_alike(sub)
                assert sub.n_edges() == d.n_edges() - r
                assert set(sub.edges()) <= set(d.edges())


@pytest.mark.parametrize("pool", [
    [(0, 1)],                # not an edge of d
    [(0, 3), (0, 3)],        # an edge twice
    [(1,)],                  # a block, but not an edge
    [[0, 3]],                # an edge, but not as its block tuple
])
def test_removals_refuse_a_pool_that_is_not_distinct_edges(pool):
    d = Diagram(2, [(0, 3), (1,), (2,)])
    with pytest.raises(ValueError, match="not a list of distinct edges"):
        removals(d, pool)
    assert removals(d, []) == [(d, 0)]


def reference_noncrossing_matchings(positions, allow_isolated):
    """Non-crossing (partial) matchings of circle positions, as edge lists,
    by recursion on the partner of the first position."""
    if not positions:
        yield []
        return
    a, rest = positions[0], positions[1:]
    if allow_isolated:
        for m in reference_noncrossing_matchings(rest, True):
            yield m
    for i in range(len(rest)):
        if not allow_isolated and i % 2 == 1:
            continue
        inside, outside = rest[:i], rest[i + 1:]
        for m1 in reference_noncrossing_matchings(inside, allow_isolated):
            for m2 in reference_noncrossing_matchings(outside, allow_isolated):
                yield [(a, rest[i])] + m1 + m2


@functools.lru_cache(maxsize=None)
def reference_perfect_matchings(m):
    """The perfect matchings of 0..m-1, as tuples of edges (a, b) with a < b:
    0 joined to each j in turn, the other vertices matched alike."""
    if m == 0:
        return [()]
    out = []
    for j in range(1, m):
        rest = [v for v in range(1, m) if v != j]
        out += [((0, j),) + tuple((rest[a], rest[b]) for a, b in pm)
                for pm in reference_perfect_matchings(m - 2)]
    return out


def reference_colex_subsets(k, n):
    """The n-subsets of {1..k} in colexicographic order: by the binary
    number whose bit a is set for each a in the subset."""
    return sorted(itertools.combinations(range(1, k + 1), n),
                  key=lambda s: sum(1 << a for a in s))


def reference_unpos(p, k):
    """The vertex at circle position p of the order 1..k, k'..1'."""
    return p if p < k else 3 * k - 1 - p


def reference_key(k, edges):
    """The canonical block tuple of the partial Brauer k-diagram with these
    edges, built with no Diagram: each edge sorted, every vertex on no edge
    a singleton, the blocks sorted."""
    used = {v for e in edges for v in e}
    return tuple(sorted([tuple(sorted(e)) for e in edges]
                        + [(v,) for v in range(2 * k) if v not in used]))


def reference_partial_brauer_keys(k):
    """Every partial matching of the 2k vertices: an even subset S of them
    perfectly matched, the others singletons; sorted."""
    n = 2 * k
    keys = []
    for r in range(k + 1):
        for S in itertools.combinations(range(n), 2 * r):
            singles = [(v,) for v in range(n) if v not in S]
            keys += [tuple(sorted(singles + [(S[a], S[b]) for a, b in pm]))
                     for pm in reference_perfect_matchings(2 * r)]
    return sorted(keys)


def reference_planar_keys(k, allow_isolated):
    return sorted(
        reference_key(k, [(reference_unpos(a, k), reference_unpos(b, k)) for a, b in m])
        for m in reference_noncrossing_matchings(list(range(2 * k)), allow_isolated))


def reference_balanced_motzkin_keys(k):
    """Grouped by edge count, each stratum in the order of its triples
    (A, t, B): the top vertex u of the TL diagram t goes to column A[u], its
    bottom vertex u' to column B[u]'."""
    out = []
    for n in range(k + 1):
        ts = reference_planar_keys(n, False)
        for A in reference_colex_subsets(k, n):
            for B in reference_colex_subsets(k, n):
                place = [a - 1 for a in A] + [k + b - 1 for b in B]
                out += [reference_key(k, [(place[u], place[v]) for u, v in t]) for t in ts]
    return out


def reference_is_balanced(k, key):
    """As many cups (both ends on top) as caps (both ends on the bottom)."""
    cups = sum(1 for b in key if len(b) == 2 and b[1] < k)
    caps = sum(1 for b in key if len(b) == 2 and b[0] >= k)
    return cups == caps


def test_enumerators_match_the_from_edges_enumerators():
    for k in range(7):
        motzkin = reference_planar_keys(k, True)
        balanced = reference_balanced_motzkin_keys(k)
        assert sorted(balanced) == [key for key in motzkin if reference_is_balanced(k, key)]
        for got, want in ((partial_brauer_diagrams(k), reference_partial_brauer_keys(k)),
                          (motzkin_diagrams(k), motzkin),
                          (tl_diagrams(k), reference_planar_keys(k, False)),
                          (balanced_motzkin_diagrams(k), balanced)):
            assert [d.blocks for d in got] == want
            # each is the one instance of its block tuple
            assert all(d.k == k and Diagram._of(k, d.blocks) is d for d in got)
            for d in got[::7 if k < 6 else 49]:
                assert Diagram.from_edges(k, d.edges()) is d
                assert_validated_alike(d)
                assert d.to_json() == reference_to_json(d)
    assert len(partial_brauer_diagrams(5)) == 9496
    # the parity rule of TL one size further (the k = 7 Motzkin reference
    # would add about 2 s; its count and order are checked below)
    assert [d.blocks for d in tl_diagrams(8)] == reference_planar_keys(8, False)


COUNT_RANGES = (("partial_brauer", 6), ("motzkin", 7), ("tl", 8), ("balanced_motzkin", 6))


def test_closed_form_counts_match_the_enumerations():
    for kind, kmax in COUNT_RANGES:
        for k in range(kmax + 1):
            ds = enumerate_diagrams(kind, k)
            assert count_diagrams(kind, k) == len(ds)
            if kind != "balanced_motzkin":
                # strictly increasing: distinct and in canonical order
                assert all(a.blocks < b.blocks for a, b in zip(ds, ds[1:]))
    for k in range(7):
        for n in range(k + 2):
            assert (count_diagrams("balanced_motzkin_n", k, n)
                    == len(enumerate_diagrams("balanced_motzkin_n", k, n))
                    == (comb(k, n) ** 2 * catalan(n) if n <= k else 0))
    # the counts on their own, against the known sequences
    assert [count_diagrams("partial_brauer", k) for k in range(7)] == [
        1, 2, 10, 76, 764, 9496, 140152]
    assert [count_diagrams("motzkin", k) for k in range(8)] == [
        1, 2, 9, 51, 323, 2188, 15511, 113634]
    assert [count_diagrams("tl", k) for k in range(9)] == [catalan(k) for k in range(9)]
    assert [count_diagrams("balanced_motzkin", k) for k in range(7)] == [
        1, 2, 7, 33, 183, 1118, 7281]


@pytest.mark.parametrize("kind,n", [("partial_brauer", None), ("motzkin", None), ("tl", None),
                                    ("balanced_motzkin", None), ("balanced_motzkin_n", 0),
                                    ("balanced_motzkin_n", 2), ("balanced_motzkin_n", 5)])
def test_enumerate_keys_streams_the_enumerator_order(kind, n):
    for k in range(5):
        keys = []
        assert enumerate_keys(kind, k, keys.append, n) is None
        assert keys == [d.blocks for d in enumerate_diagrams(kind, k, n)]


@pytest.mark.parametrize("args,message", [
    (("brauer", 2, None), "unknown diagram family 'brauer'"),
    (("motzkin", -1, None), "k must be a nonnegative integer"),
    (("tl", True, None), "k must be a nonnegative integer"),
    (("balanced_motzkin_n", 2, None), "kind balanced_motzkin_n needs n"),
    (("balanced_motzkin_n", 2, -1), "n must be a nonnegative integer"),
    (("balanced_motzkin_n", 2, 1.0), "n must be a nonnegative integer"),
    (("motzkin", 2, 1), "n applies only to kind balanced_motzkin_n"),
])
def test_every_family_entry_refuses_alike(args, message):
    kind, k, n = args
    sink = []
    for call in (lambda: enumerate_diagrams(kind, k, n),
                 lambda: enumerate_keys(kind, k, sink.append, n),
                 lambda: count_diagrams(kind, k, n)):
        with pytest.raises(ValueError, match=message):
            call()
    assert sink == []


@pytest.mark.parametrize("call, message", [
    (lambda: gen_e(3, 3), "index 3 out of range for k=3"),
    (lambda: gen_e(0, 3), "index 0 out of range for k=3"),
    (lambda: gen_p(4, 3), "index 4 out of range for k=3"),
    (lambda: gen_p(0, 3), "index 0 out of range for k=3"),
    (lambda: triple_of(Diagram.from_edges(2, [(0, 1)])),
     "triple_of requires a balanced Motzkin diagram"),
], ids=["e-high", "e-low", "p-high", "p-low", "triple-unbalanced"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
