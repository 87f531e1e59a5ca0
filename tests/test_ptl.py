"""Strata, block transport, orthogonal ideals, and the generators theorem."""

from fractions import Fraction
from math import comb

import pytest

from ptlalg.algebra import AlgebraSpec, Element, bar_multiply, change_basis, epsilon
from ptlalg.diagram import (balanced_motzkin_diagrams, balanced_motzkin_stratum,
                            gen_e, gen_l, gen_r, motzkin_diagrams, triple_of)
from ptlalg.ptl import (PTLBasis, decompose_x, from_block,
                        generated_dimension, ptl_dimension, strata_dims,
                        to_block)
from ptlalg.scalar import DeltaPoly


def test_dimension_formula():
    assert [ptl_dimension(k) for k in range(5)] == [1, 2, 7, 33, 183]
    assert strata_dims(3) == [1, 9, 18, 5]
    assert ptl_dimension(5) == 1 + 25 + 200 + 500 + 350 + 42 == 1118


def test_basis_strata():
    basis = PTLBasis(3)
    assert len(basis) == 33
    assert [len(s) for s in basis.strata] == [1, 9, 18, 5]


def test_decompose_identity():
    spec = AlgebraSpec("ptl", 2)
    one_bar = change_basis(Element.unit(spec), "bar")
    parts = decompose_x(one_bar)
    assert sorted(parts) == [0, 1, 2]
    total = Element.zero(spec, "bar")
    for x in parts.values():
        total = total + x
    assert total == one_bar
    for n1, x1 in parts.items():
        for n2, x2 in parts.items():
            if n1 != n2:
                assert (x1 * x2).is_zero()


def test_cross_stratum_products_vanish():
    spec = AlgebraSpec("ptl", 3)
    basis = balanced_motzkin_diagrams(3)
    for d1 in basis:
        for d2 in basis:
            if d1.n_edges() != d2.n_edges():
                assert bar_multiply(spec, d1, d2).is_zero()


def test_block_transport_all_pairs():
    for k in (2, 3):
        spec = AlgebraSpec("ptl", k)
        basis = balanced_motzkin_diagrams(k)
        blocks = {d: to_block(Element.of(spec, d, 1, "bar")) for d in basis}
        for d1 in basis:
            for d2 in basis:
                if d1.n_edges() != d2.n_edges():
                    continue
                n = d1.n_edges()
                prod = bar_multiply(spec, d1, d2)
                lhs = blocks[d1] * blocks[d2]
                rhs = to_block(prod, n)
                assert lhs == rhs


def test_block_round_trip():
    spec = AlgebraSpec("ptl", 3)
    for d in balanced_motzkin_diagrams(3):
        x = Element.of(spec, d, 1, "bar")
        assert from_block(spec, d.n_edges(), to_block(x)) == x
    # k = 4, n = 2: four terms with delta-polynomial coefficients, two of
    # them (the two TL_2 diagrams) in one block entry
    spec4 = AlgebraSpec("ptl", 4)
    delta = DeltaPoly.gen()
    by_entry = {}
    for d in balanced_motzkin_stratum(2, 4):
        A, _, B = triple_of(d)
        by_entry.setdefault((A, B), []).append(d)
    entries = list(by_entry.values())
    support = entries[0] + [entries[7][0], entries[-1][1]]
    coeffs = [delta, 2 * delta * delta - 1, Fraction(3, 2), delta - 3]
    x = Element(spec4, dict(zip(support, coeffs)), "bar")
    block = to_block(x)
    assert (block.nrows, block.ncols, block.nnz()) == (comb(4, 2), comb(4, 2), 3)
    assert from_block(spec4, 2, block) == x


def test_zero_element_is_the_empty_block():
    spec = AlgebraSpec("ptl", 4)
    zero = Element.zero(spec, "bar")
    for n in range(5):
        block = to_block(zero, n)
        assert block.is_zero()
        assert (block.nrows, block.ncols) == (comb(4, n), comb(4, n))


def test_to_block_rejects_mixed_strata():
    spec = AlgebraSpec("ptl", 2)
    one_bar = change_basis(Element.unit(spec), "bar")
    with pytest.raises(ValueError):
        to_block(one_bar)


def test_generated_dimensions():
    spec2 = AlgebraSpec("ptl", 2)
    gens2 = [Element.of(spec2, gen_r(1, 2)), Element.of(spec2, gen_l(1, 2)),
             epsilon(spec2, 1)]
    assert generated_dimension(gens2) == 7

    from ptlalg.algebra import tl_spec
    T3 = tl_spec(3)
    assert generated_dimension([Element.of(T3, gen_e(1, 3)),
                                Element.of(T3, gen_e(2, 3))]) == 5

    spec3 = AlgebraSpec("ptl", 3)
    gens3 = []
    for i in (1, 2):
        gens3 += [Element.of(spec3, gen_r(i, 3)), Element.of(spec3, gen_l(i, 3)),
                  epsilon(spec3, i)]
    assert generated_dimension(gens3) == 33
    # a different generic point gives the same dimension
    assert generated_dimension(gens2, delta0=Fraction(11, 5)) == 7


def test_motzkin_generated_by_e_r_l():
    from ptlalg.algebra import motzkin_spec
    M2 = motzkin_spec(2)
    gens = [Element.of(M2, g) for g in (gen_e(1, 2), gen_r(1, 2), gen_l(1, 2))]
    assert generated_dimension(gens) == 9
