"""Paths, 1-factors, the stacking action, and the cell modules."""

import itertools
import re
from fractions import Fraction
from math import comb

import pytest

from ptlalg import cells
from ptlalg.algebra import (AlgebraSpec, Element, bar_multiply, bar_of, motzkin_spec,
                            tl_spec)
from ptlalg.cells import (act_on_path, bar_act, bar_path, cell_action,
                          cell_basis, cell_dims, collect_bar_paths,
                          is_motzkin_path, join_tl, motzkin_paths,
                          path_diagram, path_of, path_pairing, rank_of,
                          tl_cell_dim, valid_types)
from ptlalg.diagram import (Diagram, balanced_motzkin_diagrams, gen_b, gen_e,
                            identity, motzkin_diagrams,
                            partial_brauer_diagrams, tl_diagrams)
from ptlalg.linalg import SparseMatrix
from ptlalg.repn import pieri_dims, word_weight
from ptlalg.scalar import DeltaPoly
from test_diagram import edge_kinds

delta = DeltaPoly.gen()


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


def dominance_leq(lam, mu):
    """True iff mu dominates lam: equal sizes and mu - lam = m(1,-1), m >= 0."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        return False
    diff = (mu[0] - mu[1]) - (lam[0] - lam[1])
    return diff >= 0 and diff % 2 == 0


def test_path_counts():
    assert ([len(motzkin_paths(k)) for k in range(9)]
            == [1, 2, 5, 13, 35, 96, 267, 750, 2123])
    assert [len([a for a in motzkin_paths(k) if 0 not in a])
            for k in range(5)] == [1, 1, 2, 3, 6]


def reference_motzkin_paths(k):
    """Motzkin paths of length k by recursion on the prefix, sorted."""
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


def test_motzkin_paths_match_the_prefix_recursion():
    for k in range(9):
        assert motzkin_paths(k) == reference_motzkin_paths(k)


def test_worked_pairing():
    a = (1, 1, 1, -1, 0, -1, 1, 1, 0, -1)
    pairs, unpaired = path_pairing(a)
    assert pairs == [(2, 6), (3, 4), (8, 10)]
    assert unpaired == [1, 7]
    assert rank_of(a) == 2
    assert word_weight(a) == (5, 3)


def test_all_unpaired():
    a = (1, 1, 1, 1)
    pairs, unpaired = path_pairing(a)
    assert pairs == [] and unpaired == [1, 2, 3, 4] and rank_of(a) == 4


def test_one_factor_round_trip():
    for k in range(7):
        for a in motzkin_paths(k):
            pairs, fixed, zeros = one_factor_of(a)
            assert path_of_one_factor(k, pairs, fixed) == a


def test_worked_join():
    a = (1, 1, 1, -1, -1, 1, 1)
    b = (1, -1, 1, 1, 1, -1, 1)
    d = join_tl(a, b)
    want = Diagram.from_edges(7, [(2, 3), (1, 4), (7, 8), (11, 12),
                                  (0, 7 + 2), (5, 7 + 3), (6, 7 + 6)])
    assert d == want
    with pytest.raises(ValueError):
        join_tl((1, 1), (1, -1))


def test_join_section_of_triple():
    # joining TL paths of equal rank gives every TL diagram exactly once
    k = 4
    seen = set()
    paths = [a for a in motzkin_paths(k) if 0 not in a]
    for a in paths:
        for b in paths:
            if rank_of(a) == rank_of(b):
                seen.add(join_tl(a, b))
    assert seen == set(tl_diagrams(k))


def test_worked_action_k14():
    d = Diagram.from_edges(14, [(0, 3), (1, 2), (5, 6), (12, 13),
                                (4, 14 + 3), (7, 14 + 8), (8, 14 + 9),
                                (9, 14 + 10), (10, 14 + 11),
                                (14 + 0, 14 + 1), (14 + 4, 14 + 5),
                                (14 + 6, 14 + 7), (14 + 12, 14 + 13)])
    a = path_of_one_factor(14, [(5, 8), (6, 7), (2, 3), (12, 13), (9, 11)],
                           [1, 4, 14])
    n, b = act_on_path(d, a)
    assert n == 1
    assert b == path_of_one_factor(14, [(1, 4), (2, 3), (6, 7), (8, 10), (13, 14)],
                                   [5, 11])


def test_action_examples():
    assert act_on_path(gen_e(1, 3), (1, 1, 1)) == (0, (1, -1, 1))
    for k in (2, 3, 4):
        for a in motzkin_paths(k):
            assert act_on_path(identity(k), a) == (0, a)


def test_action_is_associative():
    for k in (2, 3):
        pool = motzkin_diagrams(k)
        for d1 in pool:
            for d2 in pool:
                from ptlalg.diagram import compose
                comp = compose(d1, d2)
                for a in motzkin_paths(k):
                    n2, b2 = act_on_path(d2, a)
                    n1, b1 = act_on_path(d1, b2)
                    nc, bc = act_on_path(comp.diagram, a)
                    assert (n1 + n2, b1) == (nc + comp.loops, bc)


def test_rank_inequality():
    for k in (2, 3):
        for d in motzkin_diagrams(k):
            d_rank = len(edge_kinds(d)[2])
            for a in motzkin_paths(k):
                _, b = act_on_path(d, a)
                assert rank_of(b) <= min(d_rank, rank_of(a))


def test_bar_path_example():
    assert bar_path((1, -1, 1)) == {(1, -1, 1): 1, (0, 0, 1): -1,
                                    (1, -1, 0): -1, (0, 0, 0): 1}


def test_types_and_dominance():
    assert word_weight((1, 1, 1, -1, 0, -1, 1, 1, 0, -1)) == (5, 3)
    assert dominance_leq((1, 1), (2, 0))
    assert not dominance_leq((2, 0), (1, 1))
    assert not dominance_leq((1, 0), (2, 0))
    assert dominance_leq((2, 1), (2, 1))


def test_bar_path_action_matches_brute_force():
    # exhaustive at k = 3: expand everything, act, recollect
    for k in (2, 3):
        spec = motzkin_spec(k)
        for d in balanced_motzkin_diagrams(k):
            expansion = bar_of(spec, d)
            for a in motzkin_paths(k):
                acc = {}
                for dt, cd in expansion.terms.items():
                    for p, cp in bar_path(a).items():
                        n, b = act_on_path(dt, p)
                        acc[b] = acc.get(b, 0) + cd * cp * (delta ** n if n else 1)
                brute = collect_bar_paths(acc)
                hit = bar_act(spec, d, a)
                want = {} if hit is None else {hit[1]: hit[0]}
                assert brute == want


@pytest.mark.parametrize("i, j, plant", [
    (10, 5, lambda hit: None),                    # delta - 1 times bar(b) made zero
    (10, 5, lambda hit: (hit[0] + 1, hit[1])),    # its coefficient made delta
    (20, 5, lambda hit: (1, (1, -1, 0))),         # a zero image made nonzero
], ids=["image-dropped", "coefficient-shifted", "image-planted"])
def test_bar_path_action_check_names_the_failing_pair(i, j, plant, monkeypatch):
    from ptlalg import cells, verify
    real = cells.bar_act
    spec = motzkin_spec(3)
    d, a = balanced_motzkin_diagrams(3)[i], motzkin_paths(3)[j]
    assert (real(spec, d, a) is None) == (i == 20)
    wrong = plant(real(spec, d, a))
    monkeypatch.setattr(cells, "bar_act", lambda spec, d1, a1:
                        wrong if (d1, a1) == (d, a) else real(spec, d1, a1))
    assert verify.check_bar_path_action(3) == (
        False, "bar action mismatch at %r, %r" % (d, a))
    monkeypatch.setattr(cells, "bar_act", real)
    assert verify.check_bar_path_action(3) == (
        True, "bar-path action matches brute force at k=3")


def test_type_size_preserved_and_even_rank_steps():
    spec = motzkin_spec(3)
    for d in balanced_motzkin_diagrams(3):
        for a in motzkin_paths(3):
            support = frozenset(j + 1 for j, x in enumerate(a) if x)
            if frozenset(d.frames().bot) != support:
                continue
            n, b = act_on_path(d, a)
            lam, mu = word_weight(a), word_weight(b)
            assert sum(lam) == sum(mu)
            assert (rank_of(a) - rank_of(b)) % 2 == 0


def test_cell_dimension_tables():
    assert cell_dims("ptl", 2) == {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 1}
    table4 = {(0, 0): 1, (1, 0): 4, (2, 0): 6, (1, 1): 6, (3, 0): 4,
              (2, 1): 8, (4, 0): 1, (3, 1): 3, (2, 2): 2}
    assert cell_dims("ptl", 4) == table4
    assert sum(v * v for v in table4.values()) == 183
    assert tl_cell_dim(7, 3) == 14
    assert tl_cell_dim(7, 3) == len([a for a in motzkin_paths(7)
                                     if 0 not in a and rank_of(a) == 3])


def test_cell_dims_formula_vs_enumeration_and_branching():
    from ptlalg.ptl import ptl_dimension
    for k in range(6):
        dims = cell_dims("ptl", k)
        for lam in valid_types(k):
            assert dims[lam] == len([a for a in motzkin_paths(k) if word_weight(a) == lam])
            assert dims[lam] == comb(k, sum(lam)) * tl_cell_dim(sum(lam), lam[0] - lam[1])
        assert dims == pieri_dims(k)
        assert sum(v * v for v in dims.values()) == ptl_dimension(k)


def test_cell_basis_is_one_table_per_module(monkeypatch):
    for k in range(6):
        modules = [("tl", m) for m in range(k % 2, k + 1, 2)]
        modules += [("motzkin", m) for m in range(k + 1)]
        modules += [("ptl", lam) for lam in valid_types(k)]
        for kind, lam in modules:
            basis = cell_basis(kind, k, lam)
            assert type(basis) is tuple and cell_basis(kind, k, lam) is basis
            if kind == "ptl":
                assert cell_basis(kind, k, list(lam)) is basis
                keep = lambda a: word_weight(a) == lam
            else:
                keep = lambda a: rank_of(a) == lam and (kind == "motzkin" or 0 not in a)
            assert basis == tuple(a for a in motzkin_paths(k) if keep(a))
    assert len(cell_basis("ptl", 4, [1, 0])) == 4
    # a sweep of actions lists each basis once
    calls = []
    listed = cells.motzkin_paths
    monkeypatch.setattr(cells, "motzkin_paths", lambda k: calls.append(k) or listed(k))
    cells._cell_basis.cache_clear()
    modules = set()
    for k in range(4):
        mspec, tspec = motzkin_spec(k), tl_spec(k)
        cases = [("motzkin", m, Element.of(mspec, d)) for m in range(k + 1)
                 for d in motzkin_diagrams(k)]
        cases += [("tl", m, Element.of(tspec, d)) for m in range(k % 2, k + 1, 2)
                  for d in tl_diagrams(k)]
        cases += [("ptl", lam, Element.of(mspec, d, 1, "bar")) for lam in valid_types(k)
                  for d in balanced_motzkin_diagrams(k)]
        for kind, lam, x in cases:
            cell_action(kind, lam, x)
            modules.add((kind, k, lam))
    assert len(calls) == len(modules)


def test_cells_refuse_out_of_range_input():
    x = Element.of(tl_spec(2), identity(2))
    for call in (lambda: cell_basis("tl", 2, 4),
                 lambda: cell_basis("tl", 2, -2),
                 lambda: cell_basis("motzkin", 2, 3),
                 lambda: cell_action("tl", 4, x),
                 lambda: cell_basis("tl", -1, 1),
                 lambda: cell_basis("ptl", True, (1, 0)),
                 lambda: cell_dims("ptl", -1),
                 lambda: cell_dims("tl", 1.0),
                 lambda: valid_types(-1),
                 lambda: motzkin_paths(-1),
                 lambda: motzkin_paths(True)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("kind, lam, want", [
    ("ptl", 1, "a ptl lambda is a pair of integers, not 1"),
    ("ptl", (1,), "a ptl lambda is a pair of integers"),
    ("ptl", (1, 0, 0), "a ptl lambda is a pair of integers"),
    ("ptl", (True, 0), "a ptl lambda is a pair of integers"),
    ("ptl", (1.0, 0), "a ptl lambda is a pair of integers"),
    ("ptl", "10", "a ptl lambda is a pair of integers"),
    ("tl", (1,), "a tl lambda is an integer, not \\(1,\\)"),
    ("tl", [1], "a tl lambda is an integer"),
    ("tl", True, "a tl lambda is an integer"),
    ("motzkin", "x", "a motzkin lambda is an integer, not 'x'"),
    ("motzkin", 1.0, "a motzkin lambda is an integer"),
    ("brauer", [1], "unknown cell module kind 'brauer'"),
    ("ptl", (5, 0), "^invalid type \\(5, 0\\)$"),
    ("tl", 2, "^k - lambda must be even for TL cell modules$"),
])
def test_cells_refuse_a_badly_typed_lambda(kind, lam, want):
    spec = tl_spec(3) if kind == "tl" else motzkin_spec(3)
    x = Element.of(spec, identity(3), 1, "bar" if kind == "ptl" else "diagram")
    for call in (lambda: cell_basis(kind, 3, lam), lambda: cell_action(kind, lam, x)):
        with pytest.raises(ValueError, match=want) as err:
            call()
        assert "\n" not in str(err.value)


def test_ptl_cell_action_kills_mismatched_columns():
    spec = motzkin_spec(2)
    e_bar = Element.of(spec, gen_e(1, 2), 1, "bar")
    m = cell_action("ptl", (1, 0), e_bar)
    assert m.is_zero()  # bottom frame {1,2} never matches a single-entry support
    m2 = cell_action("ptl", (1, 1), e_bar)
    assert m2[(0, 0)] == delta - 1


def test_tl_cell_action_quotient():
    # e_i lowers the fixed-point count, so the top stratum maps to zero
    tspec = tl_spec(3)
    m = cell_action("tl", 3, Element.of(tspec, gen_e(1, 3)))
    assert m.is_zero()


def test_zero_free_restriction_matches_tl():
    for k in (2, 3, 4):
        mspec, tspec = motzkin_spec(k), tl_spec(k)
        for lam in range(k % 2, k + 1, 2):
            basis_m = cell_basis("motzkin", k, lam)
            sel = [basis_m.index(a) for a in cell_basis("tl", k, lam)]
            for i in range(1, k):
                mm = cell_action("motzkin", lam, Element.of(mspec, gen_e(i, k)))
                mt = cell_action("tl", lam, Element.of(tspec, gen_e(i, k)))
                for r, rm in enumerate(sel):
                    for c, cm in enumerate(sel):
                        assert mm[(rm, cm)] == mt[(r, c)]


def test_motzkin_cell_action_is_representation():
    spec = motzkin_spec(3)
    pool = motzkin_diagrams(3)[:12]
    for lam in (0, 1, 2, 3):
        mats = {d: cell_action("motzkin", lam, Element.of(spec, d)) for d in pool}
        for d1 in pool[:6]:
            for d2 in pool[:6]:
                x = Element.of(spec, d1) * Element.of(spec, d2)
                acc = None
                for d, c in x.terms.items():
                    term = cell_action("motzkin", lam, Element.of(spec, d)).scale(c)
                    acc = term if acc is None else acc + term
                if acc is None:
                    from ptlalg.linalg import SparseMatrix
                    acc = SparseMatrix(mats[d1].nrows, mats[d1].ncols)
                assert mats[d1] * mats[d2] == acc


# -- the stacking action against the graph-walk reference -----------------------

def walk_act_on_path(d, a):
    """Reference action: a graph walk over the stacked vertices."""
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


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


def test_path_diagram_is_the_top_half():
    for k in range(7):
        for a in motzkin_paths(k):
            d = path_diagram(a)
            assert path_diagram(list(a)) is d
            assert path_of(d) == a
            assert d.is_motzkin()
            pairs, fixed, zeros = one_factor_of(a)
            cups, caps, through = edge_kinds(d)
            assert sorted(cups) == [(i - 1, j - 1) for (i, j) in pairs]
            assert through == [(c - 1, c - 1) for c in fixed]
            assert not caps
    with pytest.raises(ValueError):
        path_diagram((1, -1, -1))


def test_action_matches_walk_on_motzkin_4_pairs():
    n = 0
    for k in range(5):
        for d in motzkin_diagrams(k):
            for a in motzkin_paths(k):
                assert act_on_path(d, a) == walk_act_on_path(d, a)
                n += 1
    assert n == 12018


def test_action_matches_walk_on_partial_brauer_3_pairs():
    n = raised = 0
    for k in range(4):
        words = list(itertools.product((-1, 0, 1, 2), repeat=k))
        for d in partial_brauer_diagrams(k):
            for a in words:
                got = outcome(act_on_path, d, a)
                assert got == outcome(walk_act_on_path, d, a)
                n += is_motzkin_path(a)
                raised += got is ValueError
    assert n == 1043
    # every word that is not a Motzkin path raises, in both
    assert raised == 2 * (4 - 2) + 10 * (16 - 5) + 76 * (64 - 13)


def test_action_rejects_diagrams_that_are_not_partial_brauer():
    for d, a in ((gen_b(1, 2), (1, -1)), (gen_b(1, 2), (0, 0)),
                 (gen_b(2, 3), (1, 1, 1)),
                 (Diagram(2, [(0, 1, 2), (3,)]), [1, 0])):
        with pytest.raises(ValueError):
            act_on_path(d, a)
    with pytest.raises(ValueError):
        act_on_path(identity(3), (1, -1))


# -- bar paths against the tuple references -------------------------------------

def tuple_bar_path(a):
    """Reference bar path: inclusion-exclusion over tuples."""
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


def triangular_collect_bar_paths(combo):
    """Reference recollection: a triangular solve over tuples."""
    work = dict(combo)
    out = {}
    while work:
        a = max(work, key=lambda p: (sum(1 for x in p if x), p))
        c = work.pop(a)
        if not c:
            continue
        out[a] = c
        for p, sign in tuple_bar_path(a).items():
            if p == a:
                continue
            work[p] = work.get(p, 0) - c * sign
    return {p: c for p, c in out.items() if c}


def test_bar_paths_match_tuple_references():
    assert collect_bar_paths({}) == {}
    for k in range(7):
        paths = motzkin_paths(k)
        for a in paths:
            assert bar_path(a) == tuple_bar_path(a)
            assert bar_path(list(a)) == tuple_bar_path(a)
            assert collect_bar_paths(tuple_bar_path(a)) == {a: 1}
            assert collect_bar_paths({a: 3}) == triangular_collect_bar_paths({a: 3})
        combo = {a: (i % 5 - 2) + (i % 3) * delta for i, a in enumerate(paths)}
        assert collect_bar_paths(combo) == triangular_collect_bar_paths(combo)


def test_motzkin_cell_dims_match_enumeration():
    for k in range(11):
        paths = motzkin_paths(k)
        assert cell_dims("motzkin", k) == {
            m: len([a for a in paths if rank_of(a) == m]) for m in range(k + 1)}


# -- bar_act and cell_action against the frame-test references ------------------

def frame_bar_act(spec, d, a):
    """Reference bar action: the frame test and (delta-1)^N written out."""
    if not d.is_balanced():
        raise ValueError("bar_act needs a balanced diagram")
    support = frozenset(j + 1 for j, x in enumerate(a) if x)
    if frozenset(d.frames().bot) != support:
        return None
    n, b = act_on_path(d, a)
    if rank_of(b) != rank_of(a):
        return None
    return ((spec.delta - 1) ** n if n else 1, b)


def two_loop_cell_action(kind, lam, x):
    """Reference cell action: one loop per kind of module."""
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
    if x.basis != "bar":
        raise ValueError("cell_action over ptl expects bar coordinates")
    for d, c in x.terms.items():
        for a, col in index.items():
            hit = frame_bar_act(spec, d, a)
            if hit is None:
                continue
            coeff, b = hit
            row = index.get(b)
            if row is not None:
                m.add_at(row, col, c * coeff)
    return m


def test_bar_act_matches_frame_reference():
    n = hits = 0
    for k in range(5):
        for delta_value in (delta, 3, Fraction(-1, 2)):
            spec = motzkin_spec(k, delta_value)
            for d in balanced_motzkin_diagrams(k):
                for a in motzkin_paths(k):
                    got = bar_act(spec, d, a)
                    assert got == frame_bar_act(spec, d, a)
                    n += 1
                    hits += got is not None
    assert n == 3 * sum(len(balanced_motzkin_diagrams(k)) * len(motzkin_paths(k))
                        for k in range(5))
    assert hits


def test_bar_act_keeps_non_planar_balanced_diagrams():
    spec = motzkin_spec(3)
    for d in partial_brauer_diagrams(3):
        if not d.is_balanced():
            with pytest.raises(ValueError):
                bar_act(spec, d, (0, 0, 0))
            continue
        for a in motzkin_paths(3):
            assert bar_act(spec, d, a) == frame_bar_act(spec, d, a)


def test_bar_act_at_delta_one_drops_zero_images():
    # (delta-1)^N is the zero scalar: the image vanishes instead of (0, b)
    spec = motzkin_spec(2, 1)
    e = gen_e(1, 2)
    assert frame_bar_act(spec, e, (1, -1)) == (0, (1, -1))
    assert bar_act(spec, e, (1, -1)) is None
    assert bar_act(spec, identity(2), (1, -1)) == (1, (1, -1))


def fresh_spec_bar_act(spec, d, a):
    """``bar_act`` through a partial Brauer spec formed for this call alone."""
    prod = bar_multiply(AlgebraSpec("partial_brauer", d.k, spec.delta), d, path_diagram(a))
    if not prod:
        return None
    (image, coeff), = prod.terms.items()
    b = path_of(image)
    return None if rank_of(b) != rank_of(a) else (coeff, b)


def test_bar_act_matches_the_fresh_spec_route():
    for k in range(4):
        for delta_value in (delta, 3, Fraction(-1, 2), 1):
            spec = motzkin_spec(k, delta_value)
            for d in balanced_motzkin_diagrams(k):
                for a in motzkin_paths(k):
                    assert bar_act(spec, d, a) == fresh_spec_bar_act(spec, d, a)


def test_a_repeated_bar_act_builds_no_second_checked_element(monkeypatch):
    pairs = [(d, a) for d in balanced_motzkin_diagrams(3) for a in motzkin_paths(3)]
    first = [bar_act(motzkin_spec(3, Fraction(5, 2)), d, a) for d, a in pairs]
    assert any(first)
    checked = []
    init = Element.__init__

    def checking(self, *args, **kwargs):
        checked.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", checking)
    assert [bar_act(motzkin_spec(3, Fraction(5, 2)), d, a) for d, a in pairs] == first
    assert not checked


def test_cell_action_matches_two_loop_reference():
    for k in range(5):
        mspec, tspec = motzkin_spec(k), tl_spec(k)
        cases = [("motzkin", m, [Element.of(mspec, d) for d in motzkin_diagrams(k)])
                 for m in range(k + 1)]
        cases += [("tl", m, [Element.of(tspec, d) for d in tl_diagrams(k)])
                  for m in range(k % 2, k + 1, 2)]
        bars = [Element.of(mspec, d, 1, "bar") for d in balanced_motzkin_diagrams(k)]
        cases += [("ptl", lam, bars) for lam in valid_types(k)]
        for kind, lam, xs in cases:
            mixed = Element.zero(xs[0].spec, xs[0].basis)
            for i, x in enumerate(xs):
                assert cell_action(kind, lam, x) == two_loop_cell_action(kind, lam, x)
                mixed = mixed + x.scale(i % 3 - 1 + delta * (i % 2))
            assert (cell_action(kind, lam, mixed)
                    == two_loop_cell_action(kind, lam, mixed))


def test_cell_action_rejects_the_wrong_coordinates():
    spec = motzkin_spec(2)
    # bar(e_1) leaves TL, so TL's bar coordinates hold only the zero at k = 2
    with pytest.raises(ValueError, match="not admitted"):
        Element.of(tl_spec(2), gen_e(1, 2), 1, "bar")
    for kind, lam, x, want in (
            ("tl", 0, Element.zero(tl_spec(2), "bar"),
             "cell_action over tl expects diagram coordinates"),
            ("motzkin", 0, Element.of(spec, gen_e(1, 2), 1, "tilde"),
             "cell_action over motzkin expects diagram coordinates"),
            ("ptl", (0, 0), Element.of(spec, gen_e(1, 2)),
             "cell_action over ptl expects bar coordinates")):
        with pytest.raises(ValueError, match=want):
            cell_action(kind, lam, x)
        with pytest.raises(ValueError, match=want):
            two_loop_cell_action(kind, lam, x)
    with pytest.raises(ValueError, match="unknown cell module kind"):
        cell_action("brauer", 0, Element.of(spec, gen_e(1, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: join_tl((1, -1), (1, -1, 0)), "paths must have equal length"),
    (lambda: cell_dims("brauer", 3), "unknown cell module kind 'brauer'"),
], ids=["join-lengths", "cell-dims-kind"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
