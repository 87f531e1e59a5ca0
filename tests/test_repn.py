"""Tensor-space matrices, quantum generators, commutants, branching counts."""

import functools
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from ptlalg import linalg, repn
from ptlalg.algebra import (FLAVORS, AlgebraSpec, Element, bar_multiply, bar_of,
                            change_basis, motzkin_spec, ptl_spec, tilde_of, tl_spec)
from ptlalg.diagram import (Diagram, balanced_motzkin_diagrams, compose, gen_e,
                            gen_l, gen_r, identity, motzkin_diagrams,
                            partial_brauer_diagrams, triple_of)
from ptlalg.linalg import SparseMatrix, nullity, rank_of_rows
from ptlalg.ptl import ptl_dimension
from ptlalg.repn import (SL2_GENERATORS, RepConfig, _commutant_blocks, b_matrix,
                         commutant_dim, diagram_matrix, element_matrix,
                         modified_weight_matrix, pieri_dims,
                         qgen_matrix, representation_rank, word_index,
                         word_weight, words)
from ptlalg.scalar import DeltaPoly, LaurentPoly
from test_diagram import edge_kinds
from test_scalar import reference_substitute_delta

q = LaurentPoly.gen()
qi = LaurentPoly.monomial(-1)
one = LaurentPoly.one()
cfg = RepConfig()


# -- references: the word filter, the expansion route, the local blocks ----------

def reference_forms(cfg):
    """The cup and cap forms <v_i, v_j>, nonzero entries only, as Laurent
    polynomials: a cup weighs -alpha q and alpha, a cap 1/alpha and
    -q^-1/alpha, and <v_0, v_0> = 1 on both."""
    a = Fraction(cfg.alpha)
    return ({(1, -1): LaurentPoly({1: -a}), (0, 0): one, (-1, 1): LaurentPoly({0: a})},
            {(1, -1): LaurentPoly({0: 1 / a}), (0, 0): one, (-1, 1): LaurentPoly({-1: -1 / a})})


def reference_diagram_matrix(d, cfg, correction=None):
    """The word filter: walk every input word, reject those a cap, an
    isolated bottom vertex or a barred vertical edge kills, and add up the
    cup choices of the rest entry by entry."""
    if not d.is_motzkin():
        raise ValueError("diagram_matrix needs a planar partial Brauer diagram")
    if correction not in (None, "bar", "tilde"):
        raise ValueError("correction must be None, 'bar' or 'tilde'")
    k = d.k
    cups, caps, verts = edge_kinds(d)
    iso_bot = [v - k for v in d.isolated() if v >= k]
    tform, bform = reference_forms(cfg)
    if correction is not None:
        tform.pop((0, 0))
        bform.pop((0, 0))
    n = 3 ** k
    m = SparseMatrix(n, n)
    for w in words(k):
        if any(w[c] for c in iso_bot):
            continue
        if correction == "bar" and any(w[b] == 0 for _, b in verts):
            continue  # the bar correction kills 0 -> 0 verticals
        if any((w[x], w[y]) not in bform for x, y in caps):
            continue
        coeff = LaurentPoly.one()
        for (x, y) in caps:
            coeff = coeff * bform[(w[x], w[y])]
        col = word_index(w)
        base = [0] * k
        for (t, b) in verts:
            base[t] = w[b]
        for choice in itertools.product(tform.items(), repeat=len(cups)):
            out = list(base)
            c2 = coeff
            for ((i, j), f), (x, y) in zip(choice, cups):
                out[x] = i
                out[y] = j
                c2 = c2 * f
            m.add_at(word_index(tuple(out)), col, c2)
    return m


@functools.lru_cache(maxsize=None)
def _plain_diagram_matrix(d, cfg):
    return reference_diagram_matrix(d, cfg)


def reference_element_matrix(x, cfg):
    """The expansion route: rewrite x in the diagram basis, then add up the
    (uncorrected) diagram matrices of its terms."""
    x = change_basis(x, "diagram")
    k = x.spec.k
    m = SparseMatrix(3 ** k, 3 ** k)
    for d, c in x.terms.items():
        if isinstance(c, DeltaPoly):
            c = reference_substitute_delta(c)
        for (r, col), v in _plain_diagram_matrix(d, cfg).entries.items():
            m.add_at(r, col, c * v)
    return m


def reference_rank_rows(elements, cfg):
    """The Laurent route to the rank: each element's matrix over
    Q[q, q^-1], flattened to one row; ``reference_rank`` evaluates it."""
    return [element_matrix(x, cfg).entries for x in elements]


def reference_rank(rows, q0):
    """The rank of Laurent rows with every distinct entry evaluated at q0."""
    values = {}
    return rank_of_rows({rc: values[v] if v in values else values.setdefault(v, v.evaluate(q0))
                         for rc, v in row.items()} for row in rows)


def epsilon_matrix(i, k):
    """The scaled projection at sites (i, i+1) from its own 4-entry local
    table: v_{1,-1}, v_{-1,1} survive."""
    if not 1 <= i <= k - 1:
        raise ValueError("index out of range")
    n = 3 ** k
    m = SparseMatrix(n, n)
    local = {
        ((1, -1), (1, -1)): LaurentPoly({1: -1}),
        ((-1, 1), (1, -1)): LaurentPoly({0: 1}),
        ((1, -1), (-1, 1)): LaurentPoly({0: 1}),
        ((-1, 1), (-1, 1)): LaurentPoly({-1: -1}),
    }
    for w in words(k):
        pair = (w[i - 1], w[i])
        if pair not in ((1, -1), (-1, 1)):
            continue
        col = word_index(w)
        for (out_pair, in_pair), val in local.items():
            if in_pair != pair:
                continue
            out = w[:i - 1] + out_pair + w[i + 1:]
            m.add_at(word_index(out), col, val)
    return m


def form_product_b_matrix(cfg):
    """e on the 0-weight words v_{1,-1}, v_{0,0}, v_{-1,1} as the product of
    the cup and cap forms."""
    t, b = reference_forms(cfg)
    order = [(1, -1), (0, 0), (-1, 1)]
    m = SparseMatrix(3, 3)
    for r, out in enumerate(order):
        for c, inp in enumerate(order):
            m.set(r, c, t[out] * b[inp])
    return m


def test_r_and_l_action():
    R = diagram_matrix(gen_r(1, 2), cfg)
    L = diagram_matrix(gen_l(1, 2), cfg)
    for w in words(2):
        col = word_index(w)
        r_out = {rc[0]: v for rc, v in R.entries.items() if rc[1] == col}
        l_out = {rc[0]: v for rc, v in L.entries.items() if rc[1] == col}
        if w[1] == 0:
            assert r_out == {word_index((0, w[0])): one}
        else:
            assert not r_out
        if w[0] == 0:
            assert l_out == {word_index((w[1], 0)): one}
        else:
            assert not l_out


def unit_matrix(n):
    return SparseMatrix(n, n, {(i, i): one for i in range(n)})


def test_identity_matrix():
    assert diagram_matrix(identity(2), cfg) == unit_matrix(9)


def test_b_matrix_at_alpha_one():
    B = b_matrix(RepConfig(Fraction(1)))
    want = [[-q, -q, one], [one, one, -qi], [one, one, -qi]]
    for r in range(3):
        for c in range(3):
            assert B[(r, c)] == want[r][c]
    # the 0-weight block of e agrees
    E = diagram_matrix(gen_e(1, 2), cfg)
    zero_weight = [(1, -1), (0, 0), (-1, 1)]
    for r, wo in enumerate(zero_weight):
        for c, wi in enumerate(zero_weight):
            assert E[(word_index(wo), word_index(wi))] == B[(r, c)]
    assert E.nnz() == 9


def test_b_matrix_projection_relation():
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        c = RepConfig(alpha)
        B = b_matrix(c)
        assert B * B == B.scale(c.delta_value())


def test_quantum_generator_relations():
    for k in (1, 2, 3):
        E, F, K = qgen_matrix("E", k), qgen_matrix("F", k), qgen_matrix("K", k)
        K1, K2 = qgen_matrix("K1", k), qgen_matrix("K2", k)
        # (EF - FE)(q - q^-1) = K - K^-1, multiplied through by K
        assert K * (E * F - F * E).scale(q - qi) == K * K - unit_matrix(3 ** k)
        assert K1 * K2 == K2 * K1
        assert K1 * K2 * K == K1 * K1
        assert K * E == (E * K).scale(q * q)
        assert K1 * E == (E * K1).scale(q)
        assert K2 * E == (E * K2).scale(qi)
        assert K1 * F == (F * K1).scale(qi)
        assert K2 * F == (F * K2).scale(q)


def test_k1_single_site():
    K1 = qgen_matrix("K1", 1)
    assert K1.entries == {(0, 0): q, (1, 1): one, (2, 2): one}


def test_trivial_word_component():
    for k in (1, 2, 3):
        v0 = word_index((0,) * k)
        for g in ("E", "F"):
            assert not any(rc[1] == v0 for rc in qgen_matrix(g, k).entries)
        for g in ("K1", "K2", "K"):
            assert qgen_matrix(g, k)[(v0, v0)] == 1


def test_epsilon():
    eps = epsilon_matrix(1, 2)
    assert eps * eps == eps.scale(-(q + qi))
    # only v_{1,-1} and v_{-1,1} survive
    cols = {rc[1] for rc in eps.entries}
    assert cols == {word_index((1, -1)), word_index((-1, 1))}
    # matches the signed sum over the tilde expansion, independently of alpha
    M2 = motzkin_spec(2)
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        c = RepConfig(alpha)
        acc = SparseMatrix(9, 9)
        for d, coeff in tilde_of(M2, gen_e(1, 2)).terms.items():
            acc = acc + diagram_matrix(d, c).scale(coeff)
        assert acc == epsilon_matrix(1, 2)


def test_homomorphism_exhaustive_k2():
    pool = motzkin_diagrams(2)
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        c = RepConfig(alpha)
        mats = {d: diagram_matrix(d, c) for d in pool}
        for d1 in pool:
            for d2 in pool:
                comp = compose(d1, d2)
                coeff = (DeltaPoly.gen() ** comp.loops).evaluate(c.delta_value())
                assert mats[d1] * mats[d2] == mats[comp.diagram].scale(coeff)


def test_homomorphism_exhaustive_k3():
    # k = 3 is the first k with a snake, e1 e2 e1 = e1 and the like: it
    # straightens to the identity on every letter only because the forms
    # make delta act as 1 - (q + q^-1)
    pool = motzkin_diagrams(3)
    for c in CONFIGS:
        mats = {d: diagram_matrix(d, c) for d in pool}
        for d1 in pool:
            for d2 in pool:
                comp = compose(d1, d2)
                coeff = (DeltaPoly.gen() ** comp.loops).evaluate(c.delta_value())
                assert mats[d1] * mats[d2] == mats[comp.diagram].scale(coeff), (c, d1, d2)


def test_bar_products_are_matrix_products_k3():
    spec = ptl_spec(3)
    pool = balanced_motzkin_diagrams(3)
    assert len(pool) ** 2 == 1089
    for c in CONFIGS:
        mats = {d: element_matrix(Element.of(spec, d, 1, "bar"), c) for d in pool}
        for d1 in pool:
            for d2 in pool:
                product = element_matrix(bar_multiply(spec, d1, d2), c)
                assert product == mats[d1] * mats[d2], (c, d1, d2)


def test_commutation_symbolic():
    for k in (2, 3):
        sl2 = [qgen_matrix(u, k) for u in SL2_GENERATORS]
        gl2 = sl2 + [qgen_matrix("K1", k), qgen_matrix("K2", k)]
        for i in range(1, k):
            trio = [diagram_matrix(g, cfg)
                    for g in (gen_e(i, k), gen_r(i, k), gen_l(i, k))]
            for gm in trio:
                for u in sl2:
                    assert gm.commutator(u).is_zero()
            for gm in (epsilon_matrix(i, k), trio[1], trio[2]):
                for u in gl2:
                    assert gm.commutator(u).is_zero()
    # e does NOT commute with K1 alone (the gl2/sl2 dichotomy)
    e = diagram_matrix(gen_e(1, 2), cfg)
    assert not e.commutator(qgen_matrix("K1", 2)).is_zero()


def test_modified_weights_match_expansions():
    M2 = motzkin_spec(2)
    for d in balanced_motzkin_diagrams(2):
        for variant, expander in (("tilde", tilde_of), ("bar", bar_of)):
            acc = SparseMatrix(9, 9)
            for dd, c in expander(M2, d).terms.items():
                acc = acc + diagram_matrix(dd, cfg).scale(c)
            assert acc == modified_weight_matrix(d, variant, cfg)
    assert modified_weight_matrix(identity(2), "tilde", cfg) == unit_matrix(9)
    assert modified_weight_matrix(gen_e(1, 2), "tilde", cfg) == epsilon_matrix(1, 2)


def test_bar_images_respect_summands():
    # bar(d(A,t,B)) maps the V[B] summand into V[A] and kills V[B'], B' != B
    for d in balanced_motzkin_diagrams(2):
        A, _, B = triple_of(d)
        m = modified_weight_matrix(d, "bar", cfg)
        for (r, c), v in m.entries.items():
            w_in = _word_of_index(c, 2)
            w_out = _word_of_index(r, 2)
            assert frozenset(i + 1 for i, x in enumerate(w_in) if x) == frozenset(B)
            assert frozenset(i + 1 for i, x in enumerate(w_out) if x) == frozenset(A)


def _word_of_index(idx, k):
    letters = (1, 0, -1)
    out = []
    for _ in range(k):
        out.append(letters[idx % 3])
        idx //= 3
    return tuple(reversed(out))


def test_commutant_dimensions():
    for k in range(4):
        assert commutant_dim(k, 2, "gl2") == ptl_dimension(k)
        assert commutant_dim(k, 2, "sl2") == len(motzkin_diagrams(k))
    # a second generic rational point gives the same dimensions
    assert commutant_dim(2, Fraction(5, 3), "gl2") == 7
    assert commutant_dim(2, Fraction(5, 3), "sl2") == 9
    # negative and fractional q0 clear denominators and signs in elimination
    for q0 in (-2, Fraction(-3, 2), Fraction(1, 3)):
        assert commutant_dim(3, q0, "gl2") == ptl_dimension(3) == 33
        assert commutant_dim(3, q0, "sl2") == len(motzkin_diagrams(3)) == 51
    for q0, text in ((0, "0"), (1, "1"), (-1, "-1")):
        with pytest.raises(ValueError, match=r"^q must avoid 0 and \+-1, not %s$" % text):
            commutant_dim(2, q0, "gl2")
    with pytest.raises(ValueError, match="k must be a nonnegative integer, not -1"):
        commutant_dim(-1, 2, "gl2")


def test_commutant_and_rank_k4_opt_in():
    assert commutant_dim(4, 2, "gl2") == ptl_dimension(4) == 183
    assert commutant_dim(4, 2, "sl2") == len(motzkin_diagrams(4)) == 323
    spec = motzkin_spec(4)
    basis = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(4)]
    assert representation_rank(basis, 2, cfg) == 183


def test_commutant_k5_at_a_fractional_q():
    assert commutant_dim(5, Fraction(3, 2), "gl2") == ptl_dimension(5) == 1118


def test_commutant_sl2_k5():
    for q0 in (2, Fraction(3, 2)):
        assert commutant_dim(5, q0, "sl2") == len(motzkin_diagrams(5)) == 2188


def test_commutant_gl2_k6():
    assert commutant_dim(6, Fraction(3, 2), "gl2") == ptl_dimension(6) == 7281


def test_commutant_integer_scaling_signs_and_denominators():
    # a negative numerator and a non-unit denominator in (n*d)^k
    for q0 in (Fraction(-5, 3), Fraction(7, 4)):
        for k in range(5):
            assert commutant_dim(k, q0, "gl2") == ptl_dimension(k)
            assert commutant_dim(k, q0, "sl2") == len(motzkin_diagrams(k))


def reference_commutant_rows(k, q0, group, gens=("E", "F")):
    """The commutation equations XG = GX of the generators ``gens`` scattered
    unknown by unknown: with G evaluated at q0 and scaled by (n*d)^k, the
    unknown x[u, v] adds G[v, c] to equation (u, c) for each c of G's row v,
    and -G[r, u] to equation (r, v) for each r of G's column u.  Returns the
    rows, keyed by the unknowns (u, v), and the number of unknowns."""
    q0 = Fraction(q0)
    classes = {}
    for i, w in enumerate(words(k)):
        plus, minus = word_weight(w)
        classes.setdefault((plus, minus) if group == "gl2" else plus - minus, []).append(i)
    unknowns = [(r, c) for members in classes.values() for r in members for c in members]
    scale = (q0.numerator * q0.denominator) ** k

    def scaled(v):
        x = v.evaluate(q0) * scale
        assert x.denominator == 1
        return x.numerator

    rows = {}
    for g in gens:
        by_row, by_col = {}, {}
        for (r, c), v in qgen_matrix(g, k).entries.items():
            v = scaled(v)
            by_row.setdefault(r, []).append((c, v))
            by_col.setdefault(c, []).append((r, v))
        for u, v in unknowns:
            for c, val in by_row.get(v, ()):
                eq = rows.setdefault((g, u, c), {})
                eq[u, v] = eq.get((u, v), 0) + val
            for r, val in by_col.get(u, ()):
                eq = rows.setdefault((g, r, v), {})
                eq[u, v] = eq.get((u, v), 0) - val
    return list(rows.values()), len(unknowns)


def zero_patterns(k):
    """The zero pattern of each word, in word order: which sites hold v_0."""
    return [tuple(x == 0 for x in w) for w in words(k)]


def reference_block_unknowns(k, group):
    """The unknowns (u, v) of each block of ``commutant_dim``, in the order
    the blocks come and numbered as they are: one block per pair of zero
    patterns (in word order) that share a weight class, its unknowns sorted
    by class (in word order), then u, then v from the last."""
    ws, zs = words(k), zero_patterns(k)
    cls = [(w.count(1), w.count(-1)) if group == "gl2" else w.count(1) - w.count(-1)
           for w in ws]
    rank = {}
    for c in cls:
        rank.setdefault(c, len(rank))
    blocks = {}
    for u, v in itertools.product(range(len(ws)), repeat=2):
        if cls[u] == cls[v]:
            blocks.setdefault((zs[u], zs[v]), []).append((u, v))
    patterns = list(dict.fromkeys(zs))
    return [(a, b, sorted(blocks[a, b], key=lambda uv: (rank[cls[uv[0]]], uv[0], -uv[1])))
            for a in patterns for b in patterns if (a, b) in blocks]


def commutant_blocks_by_word(k, q0, group):
    """``_commutant_blocks`` with each block's unknowns read back as (u, v)
    through ``reference_block_unknowns``: (A, B, unknowns, rows)."""
    out = []
    for (rows, n_unknowns), (a, b, unknowns) in zip(
            _commutant_blocks(k, Fraction(q0), group), reference_block_unknowns(k, group),
            strict=True):
        assert n_unknowns == len(unknowns)
        out.append((a, b, unknowns, [{unknowns[i]: v for i, v in row.items()} for row in rows]))
    return out


@pytest.mark.parametrize("q0", [2, Fraction(3, 2), Fraction(5, 3), Fraction(-3, 7)],
                         ids=str)
@pytest.mark.parametrize("group", ["gl2", "sl2"])
def test_commutant_rows_match_the_scatter_reference(group, q0):
    for k in range(5):
        blocks = commutant_blocks_by_word(k, q0, group)
        want, want_unknowns = reference_commutant_rows(k, q0, group, ("E",))
        assert sum(len(unknowns) for _, _, unknowns, _ in blocks) == want_unknowns
        rows = [row for _, _, _, block_rows in blocks for row in block_rows]
        assert (sorted(sorted(row.items()) for row in rows)
                == sorted(sorted(row.items()) for row in want))


@pytest.mark.parametrize("q0", [2, Fraction(3, 2), Fraction(5, 3), Fraction(-3, 7)],
                         ids=str)
@pytest.mark.parametrize("group", ["gl2", "sl2"])
def test_the_e_equations_force_the_f_equations(group, q0):
    # away from the roots of unity E and K already force the commutant: the
    # F equations of the whole E + F system add nothing to the E equations
    for k in range(5):
        e_only = sum(nullity(rows, n) for rows, n in _commutant_blocks(k, Fraction(q0), group))
        rows, n_unknowns = reference_commutant_rows(k, q0, group)
        assert e_only == nullity(rows, n_unknowns)


def test_commutant_rows_count_at_k5():
    # 4,653 unknowns, the sum of the squared gl2 class sizes; the 3,535 E
    # equations are independent, the 3,535 F equations would add nothing
    blocks = list(_commutant_blocks(5, Fraction(3, 2), "gl2"))
    assert (sum(len(rows) for rows, _ in blocks), sum(n for _, n in blocks)) == (3535, 4653)
    assert sum(n for _, n in blocks) - 3535 == commutant_dim(5, Fraction(3, 2)) == 1118


@pytest.mark.parametrize("group", ["gl2", "sl2"])
def test_commutant_blocks_split_by_zero_pattern(group):
    for k in range(5):
        blocks, zs = commutant_blocks_by_word(k, 2, group), zero_patterns(k)
        seen = []
        for a, b, unknowns, rows in blocks:
            for u, v in unknowns:
                assert (zs[u], zs[v]) == (a, b)
            assert all(row.keys() <= set(unknowns) for row in rows)
            seen += unknowns
        classes = {}
        for w in words(k):
            key = word_weight(w) if group == "gl2" else w.count(1) - w.count(-1)
            classes[key] = classes.get(key, 0) + 1
        assert len(seen) == len(set(seen)) == sum(n * n for n in classes.values())
        if group == "gl2":
            assert len(blocks) == sum(math.comb(k, n) ** 2 for n in range(k + 1))
    assert len(list(_commutant_blocks(5, 2, "gl2"))) == 252


@pytest.mark.parametrize("group,built,yielded", [("gl2", 6, 252), ("sl2", 18, 512)])
def test_commutant_blocks_are_built_once_per_pair_of_zero_counts(group, built, yielded):
    # E and the weights do not see a v_0 site, so a block depends only on how
    # many v_0 sites its row and column words hold
    blocks = list(_commutant_blocks(5, Fraction(3, 2), group))
    assert len(blocks) == yielded
    assert len({id(rows) for rows, _ in blocks}) == built


def test_commutant_dim_holds_one_block_at_a_time(monkeypatch):
    # built whole, the k = 5 gl2 E and F system peaked at 4.66 MiB; block by
    # block, 0.64 MiB, and the E equations alone 0.46 MiB
    adds = [0]
    add = linalg.Echelon.add

    def counted(self, row):
        adds[0] += 1
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert commutant_dim(5, Fraction(3, 2)) == ptl_dimension(5) == 1118
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2 ** 20
    assert adds[0] == 3535


def test_b_matrix_randomized_alpha():
    rng = random.Random(41)
    for _ in range(20):
        alpha = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        c = RepConfig(alpha)
        B = b_matrix(c)
        assert B * B == B.scale(c.delta_value())


def test_representation_rank():
    for k in (2, 3):
        spec = motzkin_spec(k)
        tilde_basis = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(k)]
        assert representation_rank(tilde_basis, 2, cfg) == ptl_dimension(k)
        diagram_basis = [Element.of(spec, d) for d in motzkin_diagrams(k)]
        assert representation_rank(diagram_basis, 2, cfg) == len(diagram_basis)
    # delta = 1 - (q + q^-1) = -3/2 at q = 2 kills (delta + 3/2) e_1, and
    # not (delta - 7/2) e_1, which 1 + (q + q^-1) = 7/2 would kill
    for root, rank in ((Fraction(-3, 2), 0), (Fraction(7, 2), 1)):
        x = Element.of(motzkin_spec(2), gen_e(1, 2), DeltaPoly.gen() - root)
        assert representation_rank([x], 2, cfg) == rank


def test_pieri_dims_refuses_a_negative_k():
    with pytest.raises(ValueError, match="k must be a nonnegative integer, not -1"):
        pieri_dims(-1)


@pytest.mark.parametrize("alpha", [0.5, True, "1", None], ids=repr)
def test_rep_config_refuses_an_alpha_that_is_not_rational(alpha):
    with pytest.raises(ValueError, match="alpha must be an int or a Fraction"):
        RepConfig(alpha)


def test_rep_config_takes_int_and_fraction_alpha():
    assert RepConfig(2) == RepConfig(Fraction(2))
    assert type(RepConfig(2).alpha) is Fraction
    # e's 0-weight block reads the cup weight -alpha q and the cap weight
    # 1/alpha against <v_0, v_0> = 1, and the cap weight -q^-1/alpha
    B = b_matrix(RepConfig(2))
    assert (B[(0, 1)], B[(1, 0)]) == (LaurentPoly({1: -2}), LaurentPoly({0: Fraction(1, 2)}))
    assert b_matrix(RepConfig(Fraction(-3, 7)))[(1, 2)] == LaurentPoly({-1: Fraction(7, 3)})


@pytest.mark.parametrize("alpha", [1, 2, -1, -3])
def test_an_int_alpha_acts_as_its_fraction(alpha):
    # RepConfig(2) == RepConfig(Fraction(2)), so the cache answers one for the
    # other: empty it, and ask with the int config first
    repn._forms.cache_clear()
    c, f = RepConfig(alpha), RepConfig(Fraction(alpha))
    spec, delta = motzkin_spec(3), DeltaPoly.gen()
    pool = motzkin_diagrams(3)
    x = Element(spec, {d: delta - i for i, d in enumerate(balanced_motzkin_diagrams(3))},
                "tilde")
    basis = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(3)]
    got = ([diagram_matrix(d, c) for d in pool], b_matrix(c), element_matrix(x, c),
           representation_rank(basis, 2, c))
    want = ([diagram_matrix(d, f) for d in pool], b_matrix(f), element_matrix(x, f),
            representation_rank(basis, 2, f))
    assert got == want
    assert want[-1] == ptl_dimension(3)
    # integral weights are ints, which Echelon takes without a Fraction: every
    # entry at alpha = +-1, and every entry of a diagram with no cap (no 1/alpha)
    for d in pool:
        if abs(alpha) == 1 or not edge_kinds(d)[1]:
            for corr in CORRECTIONS:
                assert all(type(w) is int for _, _, w in repn._entries(d, c, corr)), (d, corr)


@pytest.mark.parametrize("alpha", [2, Fraction(2, 3), -3], ids=str)
def test_integral_entries_are_ints(alpha):
    # a cup's alpha against a cap's 1/alpha multiplies to an integral
    # Fraction, which must reach Echelon as an int: at alpha = 2 that was 84
    # of the 220 tilde entries of the balanced k = 3 diagrams
    c = RepConfig(alpha)
    for d in motzkin_diagrams(3):
        for corr in CORRECTIONS:
            for _, _, w in repn._entries(d, c, corr):
                assert type(w) is int or w.denominator != 1, (d, corr, w)
    balanced = [w for d in balanced_motzkin_diagrams(3) for _, _, w in repn._entries(d, c, "tilde")]
    assert len(balanced) == 220 and all(type(w) is int for w in balanced)


def test_pieri_dims():
    assert pieri_dims(1) == {(0, 0): 1, (1, 0): 1}
    assert pieri_dims(4) == {(0, 0): 1, (1, 0): 4, (2, 0): 6, (1, 1): 6,
                             (3, 0): 4, (2, 1): 8, (4, 0): 1, (3, 1): 3,
                             (2, 2): 2}
    assert sum(v * v for v in pieri_dims(3).values()) == 33
    for k in range(9):
        assert sum(v * v for v in pieri_dims(k).values()) == ptl_dimension(k)


def test_element_matrix_specializes_delta():
    M2 = motzkin_spec(2)
    x = Element.of(M2, gen_e(1, 2), DeltaPoly.gen())
    m = element_matrix(x, cfg)
    assert m == diagram_matrix(gen_e(1, 2), cfg).scale(cfg.delta_value())


def test_element_matrix_reads_the_specialized_element():
    delta = DeltaPoly.gen()
    M2 = motzkin_spec(2)
    for c in (RepConfig(), RepConfig(Fraction(2, 3))):
        for basis in ("diagram", "bar", "tilde"):
            x = Element(M2, {gen_e(1, 2): delta * delta - 1, identity(2): 3}, basis)
            y = x.specialize(c.delta_value())
            assert type(y.terms[gen_e(1, 2)]) is LaurentPoly
            assert element_matrix(x, c) == element_matrix(y, c)
    # a numeric delta leaves nothing to specialize
    half = Fraction(1, 2)
    x = Element.of(motzkin_spec(2, 3), gen_e(1, 2), half)
    assert element_matrix(x, cfg) == diagram_matrix(gen_e(1, 2), cfg).scale(half)


def test_q_coefficients_never_reach_element_matrix():
    with pytest.raises(ValueError, match="not a scalar"):
        element_matrix(Element.of(motzkin_spec(2), gen_e(1, 2), q), cfg)
    with pytest.raises(ValueError, match="not a scalar"):
        element_matrix(Element.of(motzkin_spec(2), gen_e(1, 2)).scale(q), cfg)


# -- quantum generators and weight classes against the mirrored references ------

def mirrored_qgen_matrix(g, k):
    """Reference generator action: E and F as mirrored branches, weights counted."""
    n = 3 ** k
    m = SparseMatrix(n, n)
    if g in ("K1", "K2", "K"):
        for w in words(k):
            if g == "K1":
                e = sum(1 for x in w if x == 1)
            elif g == "K2":
                e = sum(1 for x in w if x == -1)
            else:
                e = sum(w)
            i = word_index(w)
            m.set(i, i, LaurentPoly.monomial(e))
        return m
    if g == "E":
        for w in words(k):
            col = word_index(w)
            for i, x in enumerate(w):
                if x == -1:
                    out = w[:i] + (1,) + w[i + 1:]
                    m.add_at(word_index(out), col, LaurentPoly.monomial(sum(w[i + 1:])))
        return m
    if g == "F":
        for w in words(k):
            col = word_index(w)
            for i, x in enumerate(w):
                if x == 1:
                    out = w[:i] + (-1,) + w[i + 1:]
                    m.add_at(word_index(out), col, LaurentPoly.monomial(-sum(w[:i])))
        return m
    raise ValueError("unknown generator %r" % (g,))


GENERATOR_NAMES = ("E", "F", "K", "K1", "K2")


def test_qgen_matrix_matches_mirrored_reference():
    for k in range(5):
        for g in GENERATOR_NAMES:
            got = qgen_matrix(g, k)
            assert got == mirrored_qgen_matrix(g, k)
            assert list(got.entries) == list(mirrored_qgen_matrix(g, k).entries)
    for g in ("X", "Einv", "inv", "K3", "k1", "F ", "Kinv", "K1inv", "K2inv"):
        with pytest.raises(ValueError, match="unknown generator"):
            qgen_matrix(g, 2)
        with pytest.raises(ValueError, match="unknown generator"):
            mirrored_qgen_matrix(g, 2)


def weight_classes(k, key):
    classes = {}
    for i, w in enumerate(words(k)):
        classes.setdefault(key(w), []).append(i)
    return list(classes.values())


def test_weight_classes_match_counted_references():
    gl2 = lambda w: (sum(1 for x in w if x == 1), sum(1 for x in w if x == -1))
    for k in range(7):
        assert weight_classes(k, word_weight) == weight_classes(k, gl2)
        assert (weight_classes(k, lambda w: word_weight(w)[0] - word_weight(w)[1])
                == weight_classes(k, sum))
        assert all(sum(word_weight(w)) + w.count(0) == k for w in words(k))


# -- element matrices through corrected weights, against the expansion route -----

CONFIGS = [RepConfig(Fraction(alpha)) for alpha in (1, 2, Fraction(1, 3), Fraction(2, 3))]
CORRECTIONS = (None, "bar", "tilde")


def corrected_matrix(d, cfg, correction):
    """The matrix of d, or of bar(d) or tilde(d) for a d of any shape: the
    latter through ``element_matrix`` of a Motzkin element."""
    if correction is None:
        return diagram_matrix(d, cfg)
    return element_matrix(Element.of(motzkin_spec(d.k), d, 1, correction), cfg)


def test_diagram_matrix_matches_the_word_filter_up_to_k4():
    pool = [d for k in range(5) for d in motzkin_diagrams(k)]
    assert len(pool) == 1 + 2 + 9 + 51 + 323
    for d in pool:
        for c in CONFIGS:
            for correction in CORRECTIONS:
                want = reference_diagram_matrix(d, c, correction)
                assert corrected_matrix(d, c, correction) == want, (d, c, correction)


def test_diagram_matrix_walks_no_words(monkeypatch):
    def refuse(*args):
        raise AssertionError("diagram_matrix walked the word basis")

    pool = motzkin_diagrams(3)
    want = {(d, corr): reference_diagram_matrix(d, cfg, corr)
            for d in pool for corr in CORRECTIONS}
    monkeypatch.setattr("ptlalg.repn.words", refuse)
    monkeypatch.setattr("ptlalg.repn.word_index", refuse)
    monkeypatch.setattr(SparseMatrix, "add_at", refuse)
    for (d, corr), m in want.items():
        assert corrected_matrix(d, cfg, corr) == m


def test_diagram_matrix_matches_the_word_filter_on_a_k5_sample():
    rng = random.Random(5)
    for d in rng.sample(motzkin_diagrams(5), 200):
        c = rng.choice(CONFIGS)
        for correction in CORRECTIONS:
            want = reference_diagram_matrix(d, c, correction)
            assert corrected_matrix(d, c, correction) == want, (d, c, correction)


def test_element_matrix_matches_the_expansion_route():
    cases = [(motzkin_spec(k), d, basis) for k in range(4) for d in motzkin_diagrams(k)
             for basis in ("diagram", "bar", "tilde")]
    cases += [(motzkin_spec(4), d, basis) for d in balanced_motzkin_diagrams(4)
              for basis in ("bar", "tilde")]
    assert len(cases) == 3 * (1 + 2 + 9 + 51) + 2 * 183
    delta = DeltaPoly.gen()
    for spec, d, basis in cases:
        for c in CONFIGS:
            x = Element.of(spec, d, 1, basis)
            want = reference_element_matrix(x, c)
            assert element_matrix(x, c) == want, (d, basis, c)
            # a delta coefficient specializes to 1 - (q + q^-1)
            x = Element.of(spec, d, delta, basis)
            assert element_matrix(x, c) == want.scale(c.delta_value()), (d, basis, c)


def test_mixed_elements_match_the_expansion_route():
    delta = DeltaPoly.gen()
    coeffs = (1, -2, Fraction(1, 3), delta, delta ** 2 - delta + 2)
    spec = motzkin_spec(3)
    for basis in ("diagram", "bar", "tilde"):
        x = Element(spec, {d: coeffs[i % len(coeffs)]
                           for i, d in enumerate(motzkin_diagrams(3))}, basis)
        assert len(x.terms) == 51
        for c in CONFIGS:
            assert element_matrix(x, c) == reference_element_matrix(x, c), basis


def test_admission_matches_the_expansion_route():
    # every flavor, every diagram an alternating basis admits at k <= 2: the
    # direct route refuses exactly what the expansion refuses, else agrees
    pool = {d for k in range(3) for d in partial_brauer_diagrams(k)}
    pool.add(Diagram(2, [(0, 1, 2), (3,)]))
    refused = 0
    for flavor in FLAVORS:
        for d in sorted(pool):
            spec = AlgebraSpec(flavor, d.k)
            for basis in ("diagram", "bar", "tilde"):
                if not spec.admits(d, basis):
                    continue
                x = Element.of(spec, d, 3, basis)
                try:
                    want = reference_element_matrix(x, cfg)
                except ValueError:
                    with pytest.raises(ValueError):
                        element_matrix(x, cfg)
                    refused += 1
                    continue
                assert element_matrix(x, cfg) == want, (flavor, d, basis)
    assert refused > 0


def test_tl_refuses_alternating_vectors_that_leave_tl():
    # TL admits a bar or tilde vector only when its expansion stays in TL
    for basis in ("bar", "tilde"):
        with pytest.raises(ValueError, match="not admitted"):
            Element.of(tl_spec(2), gen_e(1, 2), 1, basis)
    # tilde of a diagram with no horizontal edge is the diagram itself
    x = Element.of(tl_spec(2), identity(2), 1, "tilde")
    assert element_matrix(x, cfg) == diagram_matrix(identity(2), cfg)


def test_element_matrix_does_not_expand(monkeypatch):
    import ptlalg.algebra

    def refuse(x, to):
        raise AssertionError("element_matrix expanded into the diagram basis")

    monkeypatch.setattr(ptlalg.algebra, "change_basis", refuse)
    spec = motzkin_spec(3)
    for d in balanced_motzkin_diagrams(3):
        for basis in ("bar", "tilde"):
            x = Element.of(spec, d, 1, basis)
            assert element_matrix(x, cfg) == modified_weight_matrix(d, basis, cfg)


def test_element_matrix_of_a_scaled_vector_is_the_scaled_matrix():
    spec = motzkin_spec(3)
    delta = DeltaPoly.gen()
    for d in balanced_motzkin_diagrams(3):
        for basis in ("bar", "tilde"):
            want = modified_weight_matrix(d, basis, cfg)
            # delta - 1 acts as its image under delta = 1 - (q + q^-1)
            for c, at_q in ((1, 1), (3, 3), (delta - 1, cfg.delta_value() - 1)):
                assert element_matrix(Element.of(spec, d, c, basis), cfg) == want.scale(at_q)


def test_a_laurent_coefficient_shifts_the_exponents():
    # over a spec whose delta is already a Laurent polynomial, and not one
    # symmetric under q -> q^-1 as the images of delta are
    spec = AlgebraSpec("motzkin", 3, q * q + 1)
    for d in balanced_motzkin_diagrams(3):
        for basis in ("diagram", "bar", "tilde"):
            for coeff in (q * q - 3 * qi, Fraction(2, 3) * q - 1):
                want = (diagram_matrix(d, cfg) if basis == "diagram"
                        else modified_weight_matrix(d, basis, cfg))
                x = Element.of(spec, d, coeff, basis)
                assert element_matrix(x, cfg) == want.scale(coeff)
    # q - q0 vanishes at q0 alone, not at 1 / q0
    for q0 in RANK_POINTS:
        x = Element.of(spec, identity(3), q - q0)
        assert (representation_rank([x], q0, cfg), representation_rank([x], 1 / q0, cfg)) == (0, 1)


def test_representation_rank_evaluates_no_entry_at_q0(monkeypatch):
    import ptlalg.scalar

    evaluate = ptlalg.scalar.IntPoly.evaluate
    calls = []

    def counting(self, x0):
        if not isinstance(x0, LaurentPoly) and x0 == 2:  # at q0, not specializing delta
            calls.append(self)
        return evaluate(self, x0)

    for k in range(5):
        spec = motzkin_spec(k)
        bases = [([tilde_of(spec, d) for d in balanced_motzkin_diagrams(k)], ptl_dimension(k))]
        if k <= 3:
            diagram_basis = [Element.of(spec, d) for d in motzkin_diagrams(k)]
            bases.append((diagram_basis, len(diagram_basis)))
        for basis, rank in bases:
            assert reference_rank(reference_rank_rows(basis, cfg), 2) == rank
            with monkeypatch.context() as patch:
                patch.setattr(ptlalg.scalar.IntPoly, "evaluate", counting)
                assert representation_rank(basis, 2, cfg) == rank
            # the one evaluation at q0 is that of delta's image
            assert calls == [cfg.delta_value()]
            calls.clear()


def test_epsilon_route_matches_the_local_table():
    for k in range(2, 6):
        for i in range(1, k):
            for c in CONFIGS:
                got = modified_weight_matrix(gen_e(i, k), "tilde", c)
                assert got == epsilon_matrix(i, k), (k, i, c)


def test_b_matrix_matches_the_form_product():
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
        c = RepConfig(alpha)
        assert b_matrix(c) == form_product_b_matrix(c)


# -- the faithfulness rank against the Laurent route -----------------------------

RANK_CONFIGS = [RepConfig(Fraction(alpha)) for alpha in (1, 2, Fraction(1, 3), Fraction(-5, 7))]
RANK_POINTS = (Fraction(2), Fraction(3, 2), Fraction(-3), Fraction(1, 5))


def rank_samples(k, c):
    """Element lists at k: each basis's vectors; delta-polynomial
    combinations of them, also read over Z[q, q^-1] through ``c``; and the
    vectors of a spec with a numeric delta."""
    spec = motzkin_spec(k)
    delta = DeltaPoly.gen()
    samples = []
    for basis in ("diagram", "bar", "tilde"):
        pool = motzkin_diagrams(k) if basis == "diagram" else balanced_motzkin_diagrams(k)
        vectors = [Element.of(spec, d, 1, basis) for d in pool]
        unit = Element.of(spec, identity(k), 1, basis)
        mixed = [(delta ** 2 - 1) * x + 3 * unit for x in vectors[::3]]
        mixed += [x.scale(delta * Fraction(-2, 7) + 1) - y
                  for x, y in zip(vectors[::3], vectors[1::3])]
        samples += [vectors, mixed, [x.specialize(c.delta_value()) for x in mixed]]
    numeric = AlgebraSpec("motzkin", k, Fraction(5, 2))
    samples.append([Element.of(numeric, d, coeff) for d, coeff in
                    zip(motzkin_diagrams(k), itertools.cycle((1, -2, Fraction(1, 3))))])
    return samples


# the ids end in "-", the sign in delta = 1 - (q + q^-1)
@pytest.mark.parametrize("c", RANK_CONFIGS,
                         ids=lambda c: ("%s-" % c.alpha).replace("/", "_"))
def test_representation_rank_matches_the_laurent_route(c):
    for k in range(4):
        for elements in rank_samples(k, c):
            rows = reference_rank_rows(elements, c)
            for q0 in RANK_POINTS:
                assert representation_rank(elements, q0, c) == reference_rank(rows, q0), (k, q0)
        spec = motzkin_spec(k)
        for q0 in RANK_POINTS:
            # delta - delta0 vanishes at q0: the route specializes delta there
            delta0 = 1 - (q0 + 1 / q0)
            dying = [Element.of(spec, d, DeltaPoly.gen() - delta0)
                     for d in motzkin_diagrams(k)[:3]]
            dying += [x.specialize(c.delta_value()) for x in dying]
            assert representation_rank(dying, q0, c) == 0
            assert reference_rank(reference_rank_rows(dying, c), q0) == 0


def test_representation_rank_of_the_k4_tilde_vectors_matches_the_laurent_route():
    spec = motzkin_spec(4)
    tilde_vectors = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(4)]
    rows = reference_rank_rows(tilde_vectors, cfg)
    for q0 in RANK_POINTS:
        assert representation_rank(tilde_vectors, q0, cfg) == reference_rank(rows, q0)
        assert reference_rank(rows, q0) == ptl_dimension(4)


def test_representation_rank_builds_no_element_and_no_spec(monkeypatch):
    # each coefficient is evaluated in place: no specialized copy per element
    spec = motzkin_spec(4)
    tilde_vectors = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(4)]
    mixed = [x.scale(DeltaPoly.gen() - 2) for x in tilde_vectors[::5]]
    built = []
    init, post_init, trusted = Element.__init__, AlgebraSpec.__post_init__, Element._of.__func__

    def counting_init(self, *args):
        built.append(Element)
        init(self, *args)

    def counting_post_init(self):
        built.append(AlgebraSpec)
        post_init(self)

    def counting_of(cls, *args):
        built.append(Element)
        return trusted(cls, *args)

    monkeypatch.setattr(Element, "__init__", counting_init)
    monkeypatch.setattr(Element, "_of", classmethod(counting_of))
    monkeypatch.setattr(AlgebraSpec, "__post_init__", counting_post_init)
    tilde_vectors[0].specialize(Fraction(-3, 2))  # the counters see a specialization
    assert built == [AlgebraSpec, Element]
    built.clear()
    assert representation_rank(tilde_vectors, 2, cfg) == 183
    assert representation_rank(mixed, Fraction(3, 2), cfg) == len(mixed)
    assert built == []


def test_representation_rank_generates_each_diagram_once(monkeypatch):
    # the 183 k = 4 tilde_of expansions hold 570 terms over 297 distinct diagrams
    import ptlalg.repn

    real, generated = ptlalg.repn._entries, []

    def counting(d, c, basis):
        generated.append((d, basis))
        return real(d, c, basis)

    spec = motzkin_spec(4)
    basis = balanced_motzkin_diagrams(4)
    expansions = [tilde_of(spec, d) for d in basis]
    monkeypatch.setattr(ptlalg.repn, "_entries", counting)
    assert representation_rank(expansions, 2, cfg) == 183
    assert sum(len(x.terms) for x in expansions) == 570
    assert len(generated) == len(set(generated)) == 297
    # a diagram read as a tilde vector and as itself is generated once each way
    generated.clear()
    both = [Element.of(spec, d, 1, "tilde") for d in basis] + [Element.of(spec, d) for d in basis]
    representation_rank(both + both, 2, cfg)
    assert sorted(generated, key=repr) == sorted(
        [(d, "tilde") for d in basis] + [(d, "diagram") for d in basis], key=repr)


def test_rank_and_commutant_rows_hold_no_zero(monkeypatch):
    # rank_of_rows orders a row by its least key, the least column of its
    # support only when no entry is zero.  Kept, the sums that cancel would
    # leave 1,805 zeros in 113 of the 183 rows of the k = 4 tilde_of
    # expansions at q0 = 2.
    handed = []

    def recording(rows):
        handed.extend(rows)
        return rank_of_rows(handed)

    monkeypatch.setattr(repn, "rank_of_rows", recording)
    spec = motzkin_spec(4)
    expansions = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(4)]
    assert representation_rank(expansions, 2, RepConfig()) == 183
    assert len(handed) == 183 and all(all(row.values()) for row in handed)
    for group in ("gl2", "sl2"):
        for q0 in (Fraction(2), Fraction(-3, 7)):
            for rows, _ in _commutant_blocks(4, q0, group):
                assert all(row and all(row.values()) for row in rows)


@pytest.mark.parametrize("call, message", [
    (lambda: modified_weight_matrix(gen_e(1, 2), "hat", RepConfig()),
     "variant must be 'bar' or 'tilde'"),
    (lambda: modified_weight_matrix(Diagram.from_edges(2, [(0, 1)]), "bar", RepConfig()),
     "modified weights apply to balanced Motzkin diagrams"),
    (lambda: commutant_dim(2, 2, "gl3"), "group must be 'gl2' or 'sl2'"),
], ids=["variant", "unbalanced", "group"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
