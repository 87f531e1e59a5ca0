"""Tensor-space matrices, quantum generators, commutants, branching counts."""

from fractions import Fraction

import pytest

from ptlalg.algebra import Element, bar_of, motzkin_spec, tilde_of
from ptlalg.diagram import (balanced_motzkin_diagrams, compose, gen_e, gen_l,
                            gen_r, identity, motzkin_diagrams, triple_of)
from ptlalg.linalg import SparseMatrix
from ptlalg.ptl import ptl_dimension
from ptlalg.repn import (SL2_GENERATORS, RepConfig, b_matrix,
                         commutant_dim, diagram_matrix, element_matrix,
                         epsilon_matrix, modified_weight_matrix, pieri_dims,
                         qgen_matrix, representation_rank, word_index, words)
from ptlalg.scalar import DeltaPoly, LaurentPoly, substitute_delta

q = LaurentPoly.gen()
qi = LaurentPoly.monomial(-1)
one = LaurentPoly.one()
cfg = RepConfig()


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


def test_identity_matrix():
    assert diagram_matrix(identity(2), cfg) == SparseMatrix.identity(9).map_values(
        lambda v: one)


def test_b_matrix_at_alpha_one():
    B = b_matrix(RepConfig(Fraction(1), "-"))
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
        for sign in ("+", "-"):
            c = RepConfig(alpha, sign)
            B = b_matrix(c)
            assert B * B == B.scale(c.delta_value())


def test_quantum_generator_relations():
    for k in (1, 2, 3):
        E, F = qgen_matrix("E", k), qgen_matrix("F", k)
        K, Ki = qgen_matrix("K", k), qgen_matrix("Kinv", k)
        K1, K2 = qgen_matrix("K1", k), qgen_matrix("K2", k)
        assert (E * F - F * E).scale(q - qi) == K - Ki
        assert K1 * K2 == K2 * K1
        assert qgen_matrix("K1inv", k) * K1 == SparseMatrix.identity(3 ** k)
        assert K1 * E * qgen_matrix("K1inv", k) == E.scale(q)
        assert K2 * E * qgen_matrix("K2inv", k) == E.scale(qi)
        assert K1 * F * qgen_matrix("K1inv", k) == F.scale(qi)
        assert K2 * F * qgen_matrix("K2inv", k) == F.scale(q)


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
    for sign, s in (("+", 1), ("-", -1)):
        eps = epsilon_matrix(1, 2, sign)
        assert eps * eps == eps.scale((q + qi) * s)
        # only v_{1,-1} and v_{-1,1} survive
        cols = {rc[1] for rc in eps.entries}
        assert cols == {word_index((1, -1)), word_index((-1, 1))}
    # matches the signed sum over the tilde expansion, independently of alpha
    M2 = motzkin_spec(2)
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        c = RepConfig(alpha, "-")
        acc = SparseMatrix(9, 9)
        for d, coeff in tilde_of(M2, gen_e(1, 2)).terms.items():
            acc = acc + diagram_matrix(d, c).scale(coeff)
        assert acc == epsilon_matrix(1, 2, "-")


def test_homomorphism_exhaustive_k2():
    pool = motzkin_diagrams(2)
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        for sign in ("+", "-"):
            c = RepConfig(alpha, sign)
            mats = {d: diagram_matrix(d, c) for d in pool}
            for d1 in pool:
                for d2 in pool:
                    comp = compose(d1, d2)
                    coeff = substitute_delta(DeltaPoly.gen() ** comp.loops, sign)
                    assert mats[d1] * mats[d2] == mats[comp.diagram].scale(coeff)


def test_homomorphism_exhaustive_k3():
    pool = motzkin_diagrams(3)
    mats = {d: diagram_matrix(d, cfg) for d in pool}
    for d1 in pool:
        for d2 in pool:
            comp = compose(d1, d2)
            coeff = substitute_delta(DeltaPoly.gen() ** comp.loops, cfg.sign)
            assert mats[d1] * mats[d2] == mats[comp.diagram].scale(coeff)


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
    assert modified_weight_matrix(identity(2), "tilde", cfg) == \
        SparseMatrix.identity(9).map_values(lambda v: one)
    assert modified_weight_matrix(gen_e(1, 2), "tilde", cfg) == epsilon_matrix(1, 2, "-")


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
    with pytest.raises(ValueError):
        commutant_dim(2, 1, "gl2")


def test_commutant_and_rank_k4_opt_in():
    assert commutant_dim(4, 2, "gl2") == ptl_dimension(4) == 183
    assert commutant_dim(4, 2, "sl2") == len(motzkin_diagrams(4)) == 323
    spec = motzkin_spec(4)
    basis = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(4)]
    assert representation_rank(basis, 2, cfg) == 183


def test_b_matrix_randomized_alpha():
    import random
    rng = random.Random(41)
    for _ in range(20):
        alpha = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        sign = rng.choice("+-")
        c = RepConfig(alpha, sign)
        B = b_matrix(c)
        assert B * B == B.scale(c.delta_value())


def test_representation_rank():
    for k in (2, 3):
        spec = motzkin_spec(k)
        tilde_basis = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(k)]
        assert representation_rank(tilde_basis, 2, cfg) == ptl_dimension(k)
        diagram_basis = [Element.of(spec, d) for d in motzkin_diagrams(k)]
        assert representation_rank(diagram_basis, 2, cfg) == len(diagram_basis)
    # delta = 1 - (q + q^-1) = -3/2 at q = 2 kills (delta + 3/2) e_1;
    # delta = 1 + (q + q^-1) = 7/2 does not
    x = Element.of(motzkin_spec(2), gen_e(1, 2), DeltaPoly.gen() + Fraction(3, 2))
    assert representation_rank([x], 2, RepConfig(sign="-")) == 0
    assert representation_rank([x], 2, RepConfig(sign="+")) == 1


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
