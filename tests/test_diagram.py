"""Diagram combinatorics: composition, planarity, frames, triples, counts."""

import json
import random
from math import comb

import pytest

from ptlalg.diagram import (Diagram, balanced_motzkin_diagrams,
                            balanced_motzkin_stratum, compose, diagram_of,
                            gen_b, gen_e, gen_l, gen_p, gen_r, gen_s,
                            identity, l_of_subset, leq, motzkin_diagrams,
                            omega, partial_brauer_diagrams, r_of_subset,
                            subdiagrams, tensor, tl_diagrams, triple_of)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_compose_counts():
    e = gen_e(1, 2)
    c = compose(e, e)
    assert c.diagram == e and c.loops == 1 and c.paths == 0
    p = gen_p(1, 1)
    cp = compose(p, p)
    assert cp.diagram == p and cp.loops == 0 and cp.paths == 1
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


def test_frames():
    fr = gen_e(1, 2).frames()
    assert fr.top == fr.top_h == frozenset({1, 2})
    assert fr.bot == fr.bot_h == frozenset({1, 2})
    assert not fr.top_v and not fr.bot_v
    frr = gen_r(1, 2).frames()
    assert frr.top == frozenset({2}) and frr.bot == frozenset({1})
    assert not frr.top_h and not frr.bot_h
    fid = identity(3).frames()
    assert fid.top == fid.top_v == frozenset({1, 2, 3})


def derived(d):
    return d.frames(), d.is_planar(), d.is_partial_brauer(), d.is_balanced()


def test_cached_properties_match_a_fresh_diagram():
    for d in partial_brauer_diagrams(3) + motzkin_diagrams(4):
        h = hash(d)
        first = derived(d)
        fresh = Diagram(d.k, d.blocks)
        assert derived(fresh) == first
        assert derived(d) == first  # now answered from the caches
        assert hash(d) == h == hash(fresh) and d == fresh
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


def test_order_and_subdiagrams():
    assert len(subdiagrams(gen_e(1, 2))) == 4
    assert len(subdiagrams(identity(3))) == 8
    pool = motzkin_diagrams(2)
    for a in pool:
        assert leq(a, a)
        for b in pool:
            if leq(a, b) and leq(b, a):
                assert a == b
            for c in pool:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)
    for d in pool:
        for sub in subdiagrams(d):
            assert leq(sub, d)


def test_rA_lB():
    assert r_of_subset([1, 2], 4) == tensor(identity(2), omega(2))
    d = r_of_subset([2, 4], 4)
    assert d.verticals() == [(1, 0), (3, 1)]
    d2 = l_of_subset([1, 3], 3)
    assert d2.verticals() == [(0, 0), (1, 2)]


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


def test_rtl_factorization():
    # d(A, t, B) composes as r_A (t x omega) l_B with no discarded blocks
    for d in balanced_motzkin_diagrams(3):
        A, t, B = triple_of(d)
        n = t.k
        mid = tensor(t, omega(3 - n)) if n < 3 else t
        c1 = compose(r_of_subset(A, 3), mid)
        c2 = compose(c1.diagram, l_of_subset(B, 3))
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
            assert left1.paths + left2.paths == right1.paths + right2.paths
            assert left1.blocks + left2.blocks == right1.blocks + right2.blocks


def test_loops_plus_paths_equals_blocks():
    pool = partial_brauer_diagrams(2)
    for d1 in pool:
        for d2 in pool:
            c = compose(d1, d2)
            assert c.blocks == c.loops + c.paths


def test_json_round_trip():
    for d in motzkin_diagrams(2) + [gen_b(1, 3), gen_s(1, 3)]:
        assert Diagram.from_json(json.loads(json.dumps(d.to_json()))) == d
    obj = {"k": 3, "edges": [["t1", "t2"], ["b1", "b3"], ["t3", "b2"]]}
    d = Diagram.from_json(obj)
    assert d.cups() == [(0, 1)] and d.caps() == [(0, 2)] and d.verticals() == [(2, 1)]
