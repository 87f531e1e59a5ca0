"""Strata, block transport, orthogonal ideals, and the generators theorem."""

import gc
import re
import weakref
from fractions import Fraction
from math import comb

import pytest

from ptlalg.algebra import (AlgebraSpec, Element, bar_multiply, change_basis, epsilon,
                            ptl_spec)
from ptlalg.diagram import (Diagram, balanced_motzkin_diagrams, balanced_motzkin_stratum,
                            compose, diagram_of, gen_e, gen_l, gen_r, motzkin_diagrams, n_subsets,
                            triple_of)
from ptlalg.linalg import Echelon
from ptlalg.ptl import generated_dimension, ptl_dimension, strata_dims, to_block
from ptlalg.scalar import DeltaPoly


def reference_specialize(x, delta0):
    """delta -> delta0 in delta and the coefficients, with every rational
    scalar made a Fraction."""
    def at(c):
        return c.evaluate(delta0) if isinstance(c, DeltaPoly) else Fraction(c)

    spec = x.spec
    nspec = AlgebraSpec(spec.flavor, spec.k, at(spec.delta))
    return Element(nspec, {d: at(c) for d, c in x.terms.items()}, x.basis)


def ptl_generators(spec):
    k = spec.k
    return [g for i in range(1, k) for g in (Element.of(spec, gen_r(i, k)),
                                             Element.of(spec, gen_l(i, k)),
                                             epsilon(spec, i))]


def test_specialize_matches_the_fraction_reference():
    delta0 = Fraction(7, 3)
    for k in range(2, 5):
        gens = ptl_generators(ptl_spec(k))
        # products of two generators carry delta-polynomial coefficients
        elements = gens + [g * h for g in gens[:6] for h in gens[:6]]
        assert any(isinstance(c, DeltaPoly) for x in elements for c in x.terms.values())
        for x in elements:
            y = x.specialize(delta0)
            assert y == reference_specialize(x, delta0)
            assert y.spec.delta == delta0
            for d, c in x.terms.items():
                if type(c) is int:
                    assert type(y.terms[d]) is int


def test_generated_dimension_keeps_int_coefficients(monkeypatch):
    from ptlalg import ptl
    seen = []
    real = Element.__mul__

    def spy(a, b):
        seen.extend(type(c) for c in b.terms.values())
        return real(a, b)

    monkeypatch.setattr(Element, "__mul__", spy)
    spec = ptl_spec(2)
    assert ptl.generated_dimension(ptl_generators(spec)) == 7
    assert seen and set(seen) == {int}


def test_dimension_formula():
    assert [ptl_dimension(k) for k in range(5)] == [1, 2, 7, 33, 183]
    assert strata_dims(3) == [1, 9, 18, 5]
    assert ptl_dimension(5) == 1 + 25 + 200 + 500 + 350 + 42 == 1118


@pytest.mark.parametrize("count", [ptl_dimension, strata_dims], ids=lambda f: f.__name__)
def test_dimensions_refuse_a_negative_k(count):
    with pytest.raises(ValueError, match="k must be a nonnegative integer, not -1"):
        count(-1)


def test_basis_strata():
    strata = [balanced_motzkin_stratum(n, 3) for n in range(4)]
    assert len({d for s in strata for d in s}) == 33
    assert [len(s) for s in strata] == [1, 9, 18, 5]


def test_decompose_identity():
    spec = AlgebraSpec("ptl", 2)
    one_bar = change_basis(Element.unit(spec), "bar")
    by_stratum = {}
    for d, c in one_bar.terms.items():
        by_stratum.setdefault(d.n_edges(), {})[d] = c
    parts = {n: Element(spec, terms, "bar") for n, terms in by_stratum.items()}
    assert sorted(parts) == [0, 1, 2]
    total = Element.zero(spec, "bar")
    for x in parts.values():
        total = total + x
    assert total == one_bar
    for n1, x1 in parts.items():
        for n2, x2 in parts.items():
            if n1 != n2:
                assert (x1 * x2).is_zero()


def test_block_isomorphism_check_needs_the_triple_inverse(monkeypatch):
    from ptlalg import verify
    assert verify.check_block_isomorphism(3) == (True, "block transport verified for k <= 3")
    real = verify.diagram_of
    # an inverse that swaps A and B fails on the first diagram with A != B
    monkeypatch.setattr(verify, "diagram_of", lambda A, t, B, k: real(B, t, A, k))
    assert verify.check_block_isomorphism(3) == (
        False, "triple bijection does not invert at k=2")


def _k3_pairs():
    """The k = 3 triples and the first same-stratum pairs, in the check's
    order, with a loop and with B1 != A2."""
    basis = balanced_motzkin_diagrams(3)
    tr = {d: triple_of(d) for d in basis}
    same = [(d1, d2) for d1 in basis for d2 in basis if d1.n_edges() == d2.n_edges()]
    looped = next((d1, d2) for d1, d2 in same
                  if tr[d1][2] == tr[d2][0] and compose(d1, d2).loops)
    mismatched = next((d1, d2) for d1, d2 in same if tr[d1][2] != tr[d2][0])
    return basis, tr, looped, mismatched


def test_block_isomorphism_check_catches_a_transposed_block(monkeypatch):
    # to_block placing bar(d) at (B, A) at k = 3 fails on the first basis
    # block with A != B
    from ptlalg import ptl, verify
    basis, tr, _, _ = _k3_pairs()
    real = ptl.triple_of
    monkeypatch.setattr(ptl, "triple_of", lambda d: real(d)[::-1] if d.k == 3 else real(d))
    assert verify.check_block_isomorphism(2) == (True, "block transport verified for k <= 2")
    first = next(d for d in basis if tr[d][0] != tr[d][2])
    assert verify.check_block_isomorphism(3) == (False, "block transport fails at %r" % (first,))


@pytest.mark.parametrize("fault", ["loop factor dropped", "nonzero for B1 != A2",
                                   "cross-stratum nonzero"])
def test_block_isomorphism_check_catches_a_faulty_product(monkeypatch, fault):
    # a bar_multiply fault planted at k = 3 fails with the detail of the
    # first pair it reaches
    from ptlalg import verify
    _, _, looped, mismatched = _k3_pairs()
    real = verify.bar_multiply

    def planted(spec, d1, d2):
        prod = real(spec, d1, d2)
        if spec.k != 3:
            return prod
        if fault == "loop factor dropped":
            return Element(spec, dict.fromkeys(prod.terms, 1), "bar")
        same = d1.n_edges() == d2.n_edges()
        if prod.is_zero() and same == (fault == "nonzero for B1 != A2"):
            return Element(spec, {d1: 1}, "bar")
        return prod

    want = {"loop factor dropped": "block transport fails at %r, %r" % looped,
            "nonzero for B1 != A2": "block transport fails at %r, %r" % mismatched,
            "cross-stratum nonzero": "cross-stratum product nonzero"}
    monkeypatch.setattr(verify, "bar_multiply", planted)
    assert verify.check_block_isomorphism(2) == (True, "block transport verified for k <= 2")
    assert verify.check_block_isomorphism(3) == (False, want[fault])


def test_block_isomorphism_check_forms_each_product_once(monkeypatch):
    # every basis block is one matrix unit, so the check needs one TL product
    # per distinct (t1, t2), one to_block per basis vector and per pair of a
    # stratum with B1 = A2, and no block product
    from ptlalg import linalg, ptl, verify
    rounds, blocks, matmuls = [], [], []
    real_spec, real_mul, real_to_block = verify.ptl_spec, Element.__mul__, ptl.to_block

    def counting_spec(k):
        rounds.append([])
        return real_spec(k)

    def counting_mul(x, y):
        rounds[-1].append((x.spec, tuple(x.terms), tuple(y.terms)))
        return real_mul(x, y)

    def counting_to_block(x, n=None):
        blocks.append(n)
        return real_to_block(x, n)

    def counting_matmul(a, b):
        matmuls.append(1)
        return NotImplemented

    monkeypatch.setattr(verify, "ptl_spec", counting_spec)
    monkeypatch.setattr(Element, "__mul__", counting_mul)
    monkeypatch.setattr(ptl, "to_block", counting_to_block)
    monkeypatch.setattr(linalg.SparseMatrix, "__mul__", counting_matmul)
    assert verify.check_block_isomorphism(4) == (True, "block transport verified for k <= 4")
    # one table per k: Catalan(n)^2 products for each stratum n <= k
    catalan = [1, 1, 2, 5, 14]
    assert [len(set(r)) for r in rounds] == [len(r) for r in rounds] == [
        sum(catalan[n] ** 2 for n in range(k + 1)) for k in (2, 3, 4)] == [6, 31, 227]
    assert all(spec.flavor == "tl" for r in rounds for spec, _, _ in r)
    want = 0
    for k in (2, 3, 4):
        basis = balanced_motzkin_diagrams(k)
        tr = {d: triple_of(d) for d in basis}
        want += len(basis) + sum(1 for d1 in basis for d2 in basis
                                 if d1.n_edges() == d2.n_edges() and tr[d1][2] == tr[d2][0])
    assert len(blocks) == want == 3122
    assert matmuls == []


def test_to_block_refuses_a_bad_stratum():
    zero = Element.zero(ptl_spec(2), "bar")
    for n in (3, -1, True, 1.0, "1"):
        with pytest.raises(ValueError) as info:
            to_block(zero, n)
        assert str(info.value) == "stratum n must be an integer in 0..k = 2, not %r" % (n,)
    assert [to_block(zero, n).nrows for n in (0, 1, 2)] == [1, 2, 1]


def test_to_block_keeps_no_spec_alive():
    """The stratum cache is keyed by (k, delta, n), so a spec and the bar
    products its table holds are freed once its elements are."""
    spec = ptl_spec(3, Fraction(5, 2))
    basis = balanced_motzkin_stratum(2, 3)
    x = bar_multiply(spec, basis[0], basis[0])
    assert x and spec._products and to_block(x, 2).nrows == 3
    ref = weakref.ref(spec)
    del spec, x
    gc.collect()
    assert ref() is None
    again = ptl_spec(3, Fraction(5, 2))
    assert to_block(Element.of(again, basis[0], 1, "bar"), 2).nrows == 3


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


def from_block(spec, n, block):
    """The inverse of to_block on the stratum X(n) of ``spec``: entry (i, j)
    holding t goes back to diagram_of(A_i, t, A_j) for the colex n-subsets."""
    subsets = n_subsets(spec.k, n)
    terms = {}
    for (i, j), el in block.entries.items():
        for t, c in el.terms.items():
            d = diagram_of(subsets[i], t, subsets[j], spec.k)
            terms[d] = terms.get(d, 0) + c
    return Element(spec, terms, "bar")


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


@pytest.mark.parametrize("delta", [None, 3, Fraction(5, 2), DeltaPoly.gen() + 1],
                         ids=["generic", "int", "fraction", "polynomial"])
def test_block_entries_are_what_the_checked_constructor_builds(delta):
    # to_block builds each entry by closure: at every kind of delta it must
    # equal the checked Element of TL_n(delta - 1), coefficient type included
    spec = AlgebraSpec("ptl", 3, delta)
    coeffs = [Fraction(-1, 2), 3, spec.delta, Fraction(4, 1)]
    for i, d in enumerate(balanced_motzkin_diagrams(3)):
        c = coeffs[i % len(coeffs)]
        A, t, B = triple_of(d)
        (at, entry), = to_block(Element.of(spec, d, c, "bar")).entries.items()
        subsets = n_subsets(3, t.k)
        assert at == (subsets.index(A), subsets.index(B))
        want = Element.of(AlgebraSpec("tl", t.k, spec.delta - 1), t, c)
        assert entry == want
        assert type(entry.terms[t]) is type(c)


def test_repeated_block_transport_constructs_no_diagram(monkeypatch):
    spec = AlgebraSpec("ptl", 4)
    basis = [Element.of(spec, d, 1, "bar") for d in balanced_motzkin_diagrams(4)]
    first = [to_block(x) for x in basis]
    built = []
    new, of = Diagram.__new__, Diagram._of.__func__

    def counted_new(cls, k, parts):
        built.append(parts)
        return new(cls, k, parts)

    def counted_of(cls, k, key):
        built.append(key)
        return of(cls, k, key)

    monkeypatch.setattr(Diagram, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(Diagram, "_of", classmethod(counted_of))
    # both routes are counted
    assert Diagram(1, [(0, 1)]) is Diagram._of(1, ((0, 1),)) and len(built) == 2
    built.clear()
    assert [to_block(x) for x in basis] == first
    assert built == []


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


def test_generated_dimension_k4(monkeypatch):
    """PTL_4's words, multiplied in tilde coordinates, stay sparse: the
    eliminations read about 1,200 stored-row entries, where the diagram
    basis read over 25,000."""
    from ptlalg import linalg
    read = []
    eliminate = linalg._eliminate

    def counting(row, a, prow, b):
        read.append(len(prow))
        return eliminate(row, a, prow, b)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    spec4 = AlgebraSpec("ptl", 4)
    gens4 = []
    for i in (1, 2, 3):
        gens4 += [Element.of(spec4, gen_r(i, 4)), Element.of(spec4, gen_l(i, 4)),
                  epsilon(spec4, i)]
    assert generated_dimension(gens4) == ptl_dimension(4) == 183
    assert 0 < sum(read) <= 1300


def reference_generated_dimension(gens, basis):
    """The rank of the words in ``gens`` at delta = 7/3, closed under right
    multiplication from 1 with every product taken in ``basis``."""
    gens = [change_basis(g, basis).specialize(Fraction(7, 3)) for g in gens]
    words = [change_basis(Element.unit(gens[0].spec), basis)]
    span = Echelon()
    span.add(dict(words[0].terms))
    for a in words:  # grows while it is walked
        for g in gens:
            prod = a * g
            if span.add(dict(prod.terms)):
                words.append(prod)
    return span.rank


@pytest.mark.parametrize("flavor", ["ptl", "motzkin", "partial_brauer"])
def test_generated_dimension_is_the_same_in_both_bases(flavor):
    for k in range(2, 5):
        spec = AlgebraSpec(flavor, k)
        gens = []
        for i in range(1, k):
            e = epsilon(spec, i) if flavor == "ptl" else Element.of(spec, gen_e(i, k))
            gens += [Element.of(spec, gen_r(i, k)), Element.of(spec, gen_l(i, k)), e]
        dim = generated_dimension(gens)
        assert dim == reference_generated_dimension(gens, "diagram")
        assert dim == reference_generated_dimension(gens, "tilde")
        if flavor == "ptl":
            assert dim == ptl_dimension(k)


def test_generated_dimension_outside_the_tilde_span():
    """e_1 and e_2 lie in the Motzkin algebra that PTL's diagram basis
    spans but not in PTL: they generate TL_3 there as in TL itself."""
    for spec in (ptl_spec(3), AlgebraSpec("tl", 3)):
        gens = [Element.of(spec, gen_e(i, 3)) for i in (1, 2)]
        with pytest.raises(ValueError):
            change_basis(gens[0], "tilde")
        assert generated_dimension(gens) == reference_generated_dimension(gens, "diagram") == 5


def test_motzkin_generated_by_e_r_l():
    from ptlalg.algebra import motzkin_spec
    M2 = motzkin_spec(2)
    gens = [Element.of(M2, g) for g in (gen_e(1, 2), gen_r(1, 2), gen_l(1, 2))]
    assert generated_dimension(gens) == 9


@pytest.mark.parametrize("call, message", [
    (lambda: to_block(Element.of(ptl_spec(2), gen_r(1, 2), 1, "tilde")),
     "to_block expects bar coordinates"),
    (lambda: to_block(Element.of(ptl_spec(2), gen_r(1, 2), 1, "bar"), 0),
     "support crosses stratum 0"),
    (lambda: to_block(change_basis(Element.unit(ptl_spec(2)), "bar")),
     "element is not supported on a single stratum"),
    (lambda: generated_dimension([]), "need at least one generator"),
], ids=["tilde", "crosses-stratum", "mixed-strata", "no-generators"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
