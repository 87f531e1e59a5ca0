"""Element arithmetic, alternating bases, and the structured product rules."""

import dataclasses
import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptlalg.algebra import (FLAVORS, AlgebraSpec, Element, _expansion, bar_multiply,
                            bar_of, change_basis, motzkin_spec, ptl_spec,
                            tilde_multiply, tilde_of, tl_spec)
from ptlalg.diagram import (Diagram, balanced_motzkin_diagrams, compose,
                            gen_e, gen_p, gen_r, gen_l, identity,
                            motzkin_diagrams, omega, partial_brauer_diagrams,
                            removals)
from ptlalg.repn import RepConfig
from ptlalg.scalar import DeltaPoly, IntPoly, LaurentPoly
from test_diagram import edge_kinds

delta = DeltaPoly.gen()


def hat_of(spec, d):
    """Inclusion-exclusion removal of the vertical edges of ``d``."""
    throughs = [e for e in d.edges() if e[0] < d.k <= e[1]]
    return Element(spec, {sub: (-1) ** r for sub, r in removals(d, throughs)})


def oracle(spec, d1, d2, which):
    expander = bar_of if which == "bar" else tilde_of
    return change_basis(expander(spec, d1) * expander(spec, d2), which)


def test_diagram_multiplication():
    T3 = tl_spec(3)
    e1 = Element.of(T3, gen_e(1, 3))
    e2 = Element.of(T3, gen_e(2, 3))
    assert e1 * e2 * e1 == e1
    assert e1 * e1 == delta * e1
    one = Element.unit(T3)
    assert one * e1 == e1 and e1 * one == e1
    M2 = motzkin_spec(2)
    p1 = Element.of(M2, gen_p(1, 2))
    assert p1 * p1 == p1  # an open path weighs 1


def test_one_parameter_rule():
    # delta is the one parameter: a closed loop weighs delta and an open
    # path 1, in every flavor whose twist counts loops
    assert [f.name for f in dataclasses.fields(AlgebraSpec)] == ["flavor", "k", "delta"]
    for flavor in ("partial_brauer", "motzkin", "ptl"):
        spec = AlgebraSpec(flavor, 2)
        p1 = Element.of(spec, gen_p(1, 2))
        assert p1 * p1 == p1
        e = Element.of(spec, gen_e(1, 2))
        assert e * e == delta * e


def test_none_is_the_generic_delta():
    for flavor, make in (("ptl", ptl_spec), ("motzkin", motzkin_spec), ("tl", tl_spec)):
        assert AlgebraSpec(flavor, 3) == AlgebraSpec(flavor, 3, None) == make(3)
        assert make(3).delta == delta and type(make(3).delta) is DeltaPoly
        assert make(3, 5) == AlgebraSpec(flavor, 3, 5) != make(3)


def test_coefficients_outside_the_ring_are_refused():
    e1 = gen_e(1, 2)
    M2 = motzkin_spec(2)
    q = LaurentPoly.gen()
    refused = [
        lambda: Element.of(M2, e1, q),
        lambda: Element.of(M2, e1).scale(q),
        lambda: Element.zero(M2).scale(q),
        lambda: q * Element.of(M2, e1),
        lambda: Element.of(M2, e1, IntPoly.gen()),
        lambda: Element.of(motzkin_spec(2, 3), e1, delta),
        lambda: Element.of(motzkin_spec(2, Fraction(1, 2)), e1).scale(delta + 1),
        lambda: Element.from_json(M2, {"terms": [{"coeff": "q^2",
                                                   "diagram": e1.to_json()}]}),
    ]
    for build in refused:
        with pytest.raises(ValueError, match="not a scalar"):
            build()


def test_coefficients_inside_the_ring_are_kept():
    e1, p1 = gen_e(1, 2), gen_p(1, 2)
    for spec in (motzkin_spec(2), motzkin_spec(2, 3), motzkin_spec(2, Fraction(3, 2))):
        for c in (2, -1, Fraction(-1, 3)):
            x = Element.of(spec, e1, c)
            assert x.terms == {e1: c} and type(x.terms[e1]) is type(c)
    assert Element.of(motzkin_spec(2), e1, delta - 2).terms == {e1: delta - 2}
    # a numeric delta: products stay rational
    spec = AlgebraSpec("partial_brauer", 2, Fraction(-3, 7))
    p, e = Element.of(spec, p1), Element.of(spec, e1)
    assert p * p == p and e * e == Element.of(spec, e1, Fraction(-3, 7))
    # a delta of another polynomial ring brings its type into the ring
    q = LaurentPoly.gen()
    spec = AlgebraSpec("partial_brauer", 2, q)
    assert (Element.of(spec, e1, q) * Element.of(spec, e1)).terms == {e1: q * q}


def test_specialize_maps_delta_everywhere():
    M2 = motzkin_spec(2)
    e1 = gen_e(1, 2)
    x = Element(M2, {e1: delta * delta - 1, identity(2): 3, gen_p(1, 2): Fraction(1, 2)})
    y = x.specialize(Fraction(7, 3))
    assert y.spec == motzkin_spec(2, Fraction(7, 3)) and y.basis == "diagram"
    assert y.terms == {e1: Fraction(40, 9), identity(2): 3, gen_p(1, 2): Fraction(1, 2)}
    assert type(y.terms[identity(2)]) is int
    # delta -> 1 - q - q^-1: the coefficients move into Z[q, q^-1]
    value = LaurentPoly({0: 1, 1: -1, -1: -1})
    z = Element.of(M2, e1, delta, "bar").specialize(value)
    assert z.spec.delta == value and z.basis == "bar" and z.terms == {e1: value}
    # the specialized product is the product of the specializations
    a, b = Element.of(M2, e1, delta + 2), Element.of(M2, e1, 2 * delta)
    x0 = Fraction(7, 3)
    assert (a * b).specialize(x0) == a.specialize(x0) * b.specialize(x0)


def test_partition_flavor_uses_total_blocks():
    spec = AlgebraSpec("partition", 2)
    p1 = Element.of(spec, gen_p(1, 2))
    assert p1 * p1 == delta * p1


def test_spec_refuses_an_inexact_delta():
    for delta0 in (0.5, 2.0, True, "2", 1j):
        for flavor in FLAVORS:
            with pytest.raises(ValueError, match="is not an int, Fraction or IntPoly"):
                AlgebraSpec(flavor, 2, delta0)
    for delta0 in (0, -3, Fraction(1, 2), delta - 1, LaurentPoly.gen(), IntPoly.gen()):
        assert AlgebraSpec("motzkin", 2, delta0).delta == delta0
    # e1 e1 at delta = 1/2 stays exact
    spec = motzkin_spec(2, Fraction(1, 2))
    x = Element.of(spec, gen_e(1, 2), Fraction(1, 4))
    assert (x * x).terms == {gen_e(1, 2): Fraction(1, 32)}


def test_mismatched_specs_rejected():
    with pytest.raises(ValueError):
        Element.of(motzkin_spec(2), gen_e(1, 2)) * Element.of(motzkin_spec(3), gen_e(1, 3))


def test_tilde_expansions():
    M2 = motzkin_spec(2)
    e = gen_e(1, 2)
    cup = Diagram.from_edges(2, [(0, 1)])
    cap = Diagram.from_edges(2, [(2, 3)])
    assert tilde_of(M2, e).terms == {e: 1, cup: -1, cap: -1, omega(2): 1}
    for g in (gen_r(1, 2), gen_l(1, 2), gen_p(1, 2)):
        assert tilde_of(M2, g).terms == {g: 1}
    # leading coefficient is +1 for every expansion
    for d in motzkin_diagrams(2):
        for expander in (bar_of, tilde_of, hat_of):
            assert expander(M2, d).terms[d] == 1


def test_bar_equals_hat_tilde_composites():
    M3 = motzkin_spec(3)
    for d in motzkin_diagrams(3):
        via_tilde = Element.zero(M3)
        for dd, c in tilde_of(M3, d).terms.items():
            via_tilde = via_tilde + hat_of(M3, dd).scale(c)
        via_hat = Element.zero(M3)
        for dd, c in hat_of(M3, d).terms.items():
            via_hat = via_hat + tilde_of(M3, dd).scale(c)
        assert via_tilde == bar_of(M3, d) == via_hat


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_change_basis_round_trips_between_bar_and_tilde(data):
    k = data.draw(st.integers(0, 4))
    coeffs = st.sampled_from((1, -3, Fraction(2, 5), Fraction(-7, 3), delta,
                              2 * delta ** 2 - 3))
    terms = data.draw(st.dictionaries(st.sampled_from(motzkin_diagrams(k)), coeffs,
                                      max_size=6))
    spec = motzkin_spec(k)
    for source, target in (("bar", "tilde"), ("tilde", "bar")):
        x = Element(spec, terms, source)
        y = change_basis(x, target)
        assert change_basis(y, source) == x
        assert y == change_basis(change_basis(x, "diagram"), target)


def test_change_basis_round_trips():
    M2 = motzkin_spec(2)
    rng = random.Random(5)
    pool = motzkin_diagrams(2)
    for _ in range(40):
        terms = {rng.choice(pool): rng.randrange(-3, 4) for _ in range(3)}
        x = Element(M2, terms)
        for b in ("bar", "tilde"):
            y = change_basis(x, b)
            assert change_basis(y, "diagram") == x
    # bar <-> tilde directly
    x = Element.of(M2, gen_e(1, 2), 1, "bar")
    assert change_basis(change_basis(x, "tilde"), "bar") == x


def test_identity_in_bar_basis():
    M1 = motzkin_spec(1)
    one = change_basis(Element.unit(M1), "bar")
    assert one.terms == {identity(1): 1, omega(1): 1}


def test_e_in_tilde_coordinates():
    M2 = motzkin_spec(2)
    e = gen_e(1, 2)
    x = change_basis(Element.of(M2, e), "tilde")
    cup = Diagram.from_edges(2, [(0, 1)])
    cap = Diagram.from_edges(2, [(2, 3)])
    assert x.terms == {e: 1, cup: 1, cap: 1, omega(2): 1}


def test_bar_multiply_examples():
    M2 = motzkin_spec(2)
    e = gen_e(1, 2)
    prod = bar_multiply(M2, e, e)
    assert prod == Element.of(M2, e, delta - 1, "bar")
    # mismatched frames vanish
    assert bar_multiply(M2, e, gen_r(1, 2)).is_zero()


def test_bar_oracle_exhaustive_partial_brauer_k2():
    spec = AlgebraSpec("partial_brauer", 2)
    pool = partial_brauer_diagrams(2)
    for d1 in pool:
        for d2 in pool:
            assert bar_multiply(spec, d1, d2) == oracle(spec, d1, d2, "bar")


def test_tilde_oracle_exhaustive_motzkin_k2():
    M2 = motzkin_spec(2)
    pool = motzkin_diagrams(2)
    for d1 in pool:
        for d2 in pool:
            assert tilde_multiply(M2, d1, d2) == oracle(M2, d1, d2, "tilde")


def test_structured_oracles_exhaustive_motzkin_k3():
    # every flavor's bar and tilde vectors, through the public rules and
    # through Element products: each admitted pair at k <= 2, each Motzkin
    # pair at k = 3 and a seeded sample of partial Brauer pairs at k = 3
    def all_pairs(pool):
        return [(d1, d2) for d1 in pool for d2 in pool]

    pb3 = admitted_pool("partial_brauer", 3, "bar")
    rng = random.Random(25)
    pb3_pairs = [(rng.choice(pb3), rng.choice(pb3)) for _ in range(300)]
    cases = [(flavor, k, which, all_pairs(admitted_pool(flavor, k, which)))
             for flavor in FLAVORS for k in range(3) for which in STRUCTURED]
    for which in STRUCTURED:
        cases.append(("motzkin", 3, which, all_pairs(motzkin_diagrams(3))))
        cases.append(("partial_brauer", 3, which, pb3_pairs))
    for flavor, k, which, pairs in cases:
        spec = AlgebraSpec(flavor, k)
        for d1, d2 in pairs:
            want = oracle(spec, d1, d2, which)
            assert STRUCTURED[which](spec, d1, d2) == want, (flavor, which, d1, d2)
            x, y = Element.of(spec, d1, 1, which), Element.of(spec, d2, 1, which)
            assert x * y == want, (flavor, which, d1, d2)
    # the partition twist weighs every discarded block, and the rules only
    # loops: that algebra has no bar or tilde vector
    assert not any(admitted_pool("partition", k, which)
                   for k in range(4) for which in STRUCTURED)


def test_structured_oracles_sampled_k4():
    rng = random.Random(404)
    M4 = motzkin_spec(4)
    pool = balanced_motzkin_diagrams(4)
    for _ in range(40):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        assert bar_multiply(M4, d1, d2) == oracle(M4, d1, d2, "bar")
        assert tilde_multiply(M4, d1, d2) == oracle(M4, d1, d2, "tilde")


@functools.lru_cache(maxsize=None)
def balanced_motzkin_5():
    return balanced_motzkin_diagrams(5)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_structured_oracles_sampled_k5(data):
    M5 = motzkin_spec(5)
    d1, d2 = (data.draw(st.sampled_from(balanced_motzkin_5())) for _ in range(2))
    assert bar_multiply(M5, d1, d2) == oracle(M5, d1, d2, "bar")
    assert tilde_multiply(M5, d1, d2) == oracle(M5, d1, d2, "tilde")


def test_tilde_corollary_rl_action():
    # x tilde(d) = tilde(xd) when the horizontal top frame of d lands on
    # non-isolated bottom vertices of x, else 0 (x without horizontal edges)
    M3 = motzkin_spec(3)
    xs = [gen_r(i, 3) for i in (1, 2)] + [gen_l(i, 3) for i in (1, 2)] + [gen_p(j, 3) for j in (1, 2, 3)]
    for x in xs:
        xel = Element.of(M3, x)
        for d in motzkin_diagrams(3):
            lhs = xel * tilde_of(M3, d)
            fr_d = d.frames()
            if fr_d.top_h <= x.frames().bot:
                want = tilde_of(M3, compose(x, d).diagram)
            else:
                want = Element.zero(M3)
            assert lhs == want, (x, d)


def test_eight_term_identity():
    M3 = motzkin_spec(3)
    lhs = tilde_of(M3, gen_e(1, 3)) * tilde_of(M3, gen_e(2, 3))
    d3 = compose(gen_e(1, 3), gen_e(2, 3)).diagram
    rhs = (Element.unit(M3) - Element.of(M3, gen_p(3, 3))) * tilde_of(M3, d3)
    assert lhs == rhs
    assert len(lhs.terms) == 8
    assert sorted(lhs.terms.values()) == [-1, -1, -1, -1, 1, 1, 1, 1]
    # structured product produces the same thing in tilde coordinates
    st = tilde_multiply(M3, gen_e(1, 3), gen_e(2, 3))
    assert set(st.terms.values()) == {1, -1} and len(st.terms) == 2
    assert change_basis(st, "diagram") == lhs


def test_multiplication_associative_random():
    rng = random.Random(29)
    for k in (2, 3):
        spec = motzkin_spec(k)
        pool = motzkin_diagrams(k)
        for _ in range(40):
            x, y, z = (Element.of(spec, rng.choice(pool), rng.randrange(1, 4))
                       for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_no_horizontal_edges_tilde_is_identity():
    M3 = motzkin_spec(3)
    for d in motzkin_diagrams(3):
        cups, caps, _ = edge_kinds(d)
        if not cups and not caps:
            assert tilde_of(M3, d).terms == {d: 1}


def test_ptl_closure_under_tilde_products():
    M3 = motzkin_spec(3)
    for d1 in balanced_motzkin_diagrams(3):
        for d2 in balanced_motzkin_diagrams(3):
            prod = tilde_multiply(M3, d1, d2)
            assert all(d.is_balanced() for d in prod.terms)


def test_element_json_round_trip():
    M3 = motzkin_spec(3)
    x = tilde_of(M3, gen_e(1, 3)).scale(delta - 2)
    as_json = x.to_json()
    assert Element.from_json(M3, as_json) == x
    assert Element.from_json(M3, {"terms": []}) == Element.zero(M3, "diagram")
    for terms, message in (({}, "bad terms {}"), ([5], "a term is a JSON object, not 5")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            Element.from_json(M3, {"terms": terms})


def test_element_from_json_refuses_another_k():
    M4 = motzkin_spec(4)
    assert Element.from_json(M4, {"k": 4, "terms": []}) == Element.zero(M4, "diagram")
    for obj, message in (({"k": 3, "terms": []}, "element k 3 is not the algebra's 4"),
                         ({"k": True, "terms": []}, "k must be a nonnegative integer, not True"),
                         ({"k": 4.0, "terms": []}, "k must be a nonnegative integer, not 4.0")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            Element.from_json(M4, obj)


def test_json_terms_reads_the_element_k_once():
    e1_k2 = {"coeff": "1", "diagram": gen_e(1, 2).to_json()}
    e1_k3 = {"coeff": "1", "diagram": gen_e(1, 3).to_json()}
    assert Element.json_terms({"terms": []}) == (None, "diagram", {})
    assert Element.json_terms({"k": 4, "basis": "bar", "terms": []}) == (4, "bar", {})
    assert Element.json_terms({"terms": [e1_k2, e1_k2]}) == (2, "diagram", {gen_e(1, 2): 2})
    for obj in ({"terms": [e1_k2, e1_k3]}, {"k": 2, "terms": [e1_k3]}):
        with pytest.raises(ValueError, match="^an element has one k, not 2 and 3$"):
            Element.json_terms(obj)
    # a term of k 2 without "k" is an element of k 2, not one of the spec's k
    with pytest.raises(ValueError, match="^element k 2 is not the algebra's 3$"):
        Element.from_json(motzkin_spec(3), {"terms": [e1_k2]})


# JSON values over the keys of the diagram, element and term shapes; an int
# is small, so that a k loads a small diagram
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
    | st.sampled_from(["t1", "t2", "b1", "b3", "1", "-1/2", "delta", "q", "x", "bar"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["k", "edges", "blocks", "terms", "basis", "coeff", "diagram"]),
        inner, max_size=4),
    max_leaves=16)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_every_json_value_loads_or_raises_value_error(value):
    for load in (Diagram.from_json, Element.json_terms):
        try:
            load(value)
        except ValueError:
            pass


# -- Element.__mul__ in the bar and tilde bases ----------------------------------

STRUCTURED = {"bar": bar_multiply, "tilde": tilde_multiply}
COEFFS = (1, -1, 2, -3, delta, -delta, delta - 1, 2 * delta ** 2 - 3)


def expand_multiply_recollect(x, y):
    prod = change_basis(x, "diagram") * change_basis(y, "diagram")
    return change_basis(prod, x.basis)


@functools.lru_cache(maxsize=None)
def cancelling_triples(k, basis):
    """(d1, b1, d1p, b1p, d2): the pair products d1*d2 and d1p*d2 share a term,
    with coefficients b1 and b1p there, so b1p*d1 - b1*d1p times d2 cancels it."""
    spec = motzkin_spec(k)
    pool = motzkin_diagrams(k)
    out = []
    for d2 in pool[::7]:
        seen = {}
        for d1 in pool:
            for d, c in STRUCTURED[basis](spec, d1, d2).terms.items():
                if d in seen and seen[d][0] != d1:
                    out.append((seen[d][0], seen[d][1], d1, c, d2))
                seen.setdefault(d, (d1, c))
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_element_product_matches_oracle(data):
    k = data.draw(st.sampled_from((3, 4)))
    basis = data.draw(st.sampled_from(("bar", "tilde")))
    spec, pool = motzkin_spec(k), motzkin_diagrams(k)
    support = st.dictionaries(st.sampled_from(pool), st.sampled_from(COEFFS), max_size=4)
    xs, ys = data.draw(support), data.draw(support)
    if data.draw(st.booleans()):
        # a pair of x-terms whose products with one y-term cancel
        d1, b1, d1p, b1p, d2 = data.draw(st.sampled_from(cancelling_triples(k, basis)))
        if data.draw(st.booleans()):
            xs, ys = {}, {}
        xs.update({d1: b1p, d1p: -b1})
        ys[d2] = data.draw(st.sampled_from(COEFFS))
    x, y = Element(spec, xs, basis), Element(spec, ys, basis)
    assert x * y == expand_multiply_recollect(x, y)


def test_cancelling_pair_products_leave_no_zero_terms():
    for basis in ("bar", "tilde"):
        d1, b1, d1p, b1p, d2 = cancelling_triples(3, basis)[0]
        spec = motzkin_spec(3)
        x = Element(spec, {d1: b1p, d1p: -b1}, basis)
        prod = x * Element.of(spec, d2, 1, basis)
        assert all(prod.terms.values())
        assert prod == expand_multiply_recollect(x, Element.of(spec, d2, 1, basis))
        if basis == "bar":
            assert prod.is_zero()


def test_element_product_admits_each_term_once(monkeypatch):
    """A 60 x 60 product checks admission for the terms of the pair products
    and of the result, not again for every partial sum."""
    spec = motzkin_spec(4)
    pool = balanced_motzkin_diagrams(4)
    rng = random.Random(60)
    calls = []
    admits = AlgebraSpec.admits

    def counting(self, d, basis="diagram"):
        calls.append(d)
        return admits(self, d, basis)

    for basis, rule in STRUCTURED.items():
        x = Element(spec, {d: rng.choice(COEFFS) for d in pool[0::3][:60]}, basis)
        y = Element(spec, {d: rng.choice(COEFFS) for d in pool[1::3][:60]}, basis)
        pair_terms = sum(len(rule(spec, d1, d2).terms) for d1 in x.terms for d2 in y.terms)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(AlgebraSpec, "admits", counting)
            prod = x * y
        assert len(x.terms) == len(y.terms) == 60 and prod
        assert len(calls) <= pair_terms + len(prod.terms), basis


def test_zero_products_are_the_one_zero_of_their_algebra(monkeypatch):
    """Over all k = 4 pairs a zero bar or tilde product is the shared zero of
    the spec and basis, and a nonzero product builds an Element only for the
    first pair of its key, through the checks of ``Element(...)``; every
    other pair with that key gets the same instance."""
    spec = motzkin_spec(4)
    pool = balanced_motzkin_diagrams(4)
    assert len(pool) ** 2 == 33489
    zeros = {basis: Element.zero(spec, basis) for basis in STRUCTURED}
    built, checked = [], []
    trusted, init = Element._of.__func__, Element.__init__

    def counting(cls, *args):
        built.append(1)
        return trusted(cls, *args)

    def checking(self, *args, **kwargs):
        checked.append(1)
        init(self, *args, **kwargs)

    distinct = set()
    nonzero = n_zero = 0
    with monkeypatch.context() as m:
        m.setattr(Element, "_of", classmethod(counting))
        m.setattr(Element, "__init__", checking)
        for basis, rule in STRUCTURED.items():
            for d1 in pool:
                for d2 in pool:
                    prod = rule(spec, d1, d2)
                    if prod.terms:
                        nonzero += 1
                        distinct.add(id(prod))
                    else:
                        assert prod is zeros[basis] and prod.basis == basis
                        n_zero += 1
    assert n_zero == 52830 and nonzero == 66978 - n_zero == 14148
    assert len(checked) == len(distinct) == len(spec._products) == 682
    assert not built
    # 300 bar results, 300 one-term tilde results and 82 snake expansions
    kinds = {}
    for (basis, _, _, snakes), r in spec._products.items():
        assert r.basis == basis and len(r.terms) == 2 ** len(snakes)
        kind = (basis, len(r.terms) > 1)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {("bar", False): 300, ("tilde", False): 300, ("tilde", True): 82}
    assert zeros["bar"].spec is spec and not zeros["bar"].terms


def test_each_spec_has_its_own_zeros():
    specs = [motzkin_spec(4), motzkin_spec(4, 2), tl_spec(4)]
    for spec in specs:
        for basis in ("diagram", "bar", "tilde"):
            z = Element.zero(spec, basis)
            assert z is Element.zero(spec, basis) and z.spec is spec
            assert z.basis == basis and not z.terms
    assert Element.zero(specs[0]) is not Element.zero(specs[1])
    assert Element.zero(specs[0]) != Element.zero(specs[2])
    # an equal spec built again is a different object with zeros of its own
    again = motzkin_spec(4)
    assert again == specs[0] and Element.zero(again).spec is again
    assert Element.zero(again) == Element.zero(specs[0])
    fresh = motzkin_spec(3)
    with pytest.raises(ValueError, match="unknown basis"):
        Element.zero(fresh, "nope")
    with pytest.raises(ValueError, match="unknown basis"):
        Element.zero(fresh, "nope")
    assert Element.zero(fresh) == Element(fresh, {}) and not Element.zero(fresh).terms
    assert set(fresh._zeros) == {"diagram"}


def test_structured_products_are_shared_per_spec():
    """The same pair twice gives the identical result, tied to the spec
    object that made it; an equal spec builds results of its own, and the
    table changes neither the spec's equality, hash nor repr."""
    spec, again = motzkin_spec(3), motzkin_spec(3)
    before = (hash(spec), repr(spec))
    pool = balanced_motzkin_diagrams(3)
    pairs = [(d1, d2) for d1 in pool[::5] for d2 in pool[::3]]
    for rule in STRUCTURED.values():
        for d1, d2 in pairs:
            r = rule(spec, d1, d2)
            assert rule(spec, d1, d2) is r and r.spec is spec
            r2 = rule(again, d1, d2)
            assert r2 == r and r2.spec is again
            if r:
                assert r2 is not r
    assert spec._products and spec == again == motzkin_spec(3)
    assert (hash(spec), repr(spec)) == before == (hash(again), repr(again))
    assert len({spec, again, motzkin_spec(3)}) == 1


def test_structured_products_refuse_results_outside_the_algebra():
    """A result the spec does not admit in the rule's basis raises one
    ValueError and leaves nothing in the spec's table."""
    e1, p1 = gen_e(1, 2), gen_p(1, 2)
    cases = [(bar_multiply, tl_spec(2), e1, "tl/bar"),
             (tilde_multiply, tl_spec(2), e1, "tl/tilde"),
             (bar_multiply, AlgebraSpec("partition", 2), p1, "partition/bar")]
    for rule, spec, d, where in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match="not admitted by " + where) as err:
                rule(spec, d, d)
            assert "\n" not in str(err.value)
            assert not spec._products


def test_zero_products_at_delta_one_are_the_one_zero():
    """(delta0 - 1)^N vanishes at delta0 = 1, so a product that closes a loop
    is the shared zero of the spec and basis, like every other zero product."""
    spec = AlgebraSpec("motzkin", 2, 1)
    e1 = gen_e(1, 2)
    for basis, rule in STRUCTURED.items():
        zero = Element.zero(spec, basis)
        assert rule(spec, e1, e1) is zero
        x = Element.of(spec, e1, 3, basis)
        assert x * x is zero
        assert rule(spec, e1, identity(2)).terms == {e1: 1}
    x = Element.of(AlgebraSpec("motzkin", 2, 0), e1)
    assert x * x is Element.zero(x.spec)


def per_term_product(x, y):
    """The diagram-basis product pair by pair: each composite weighed in
    place by delta ** n, n its closed loops (its discarded blocks for the
    partition algebra)."""
    spec, out = x.spec, {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            comp = compose(d1, d2)
            n = comp.blocks if spec.flavor == "partition" else comp.loops
            out[comp.diagram] = out.get(comp.diagram, 0) + c1 * c2 * spec.delta ** n
    return Element(spec, out)


@functools.lru_cache(maxsize=None)
def weight_collisions(flavor, k):
    """(d1, d1p, d2, n, np): d1 d2 and d1p d2 are one composite, weighed
    delta^n and delta^np with n != np."""
    pool = admitted_pool(flavor, k, "diagram")
    out = []
    for d2 in pool:
        seen = {}
        for d1 in pool:
            comp = compose(d1, d2)
            n = comp.blocks if flavor == "partition" else comp.loops
            first = seen.setdefault(comp.diagram, (d1, n))
            if first[1] != n:
                out.append((first[0], d1, d2, first[1], n))
    return tuple(out)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_diagram_product_matches_the_per_term_reference(data):
    flavor = data.draw(st.sampled_from(("motzkin", "tl", "ptl", "partition")))
    k = data.draw(st.integers(2, 3))
    delta0 = data.draw(st.sampled_from((None, 0, 1, Fraction(-2, 3))))
    spec = AlgebraSpec(flavor, k, delta0)
    scalars = (1, -3, Fraction(2, 5), Fraction(-7, 3))
    if delta0 is None:
        scalars += (delta, Fraction(1, 2) * delta - 1, 2 * delta ** 2 - 3)
    coeffs = st.sampled_from(scalars)
    diagrams = st.sampled_from(admitted_pool(flavor, k, "diagram"))
    if flavor == "partition":
        diagrams = st.one_of(diagrams, partition_diagrams(k))
    xs = data.draw(st.dictionaries(diagrams, coeffs, max_size=5))
    ys = data.draw(st.dictionaries(diagrams, coeffs, max_size=5))
    forced = data.draw(st.booleans())
    if forced:
        # one composite reached with two weights, the two terms scaled so
        # that they cancel only once each is weighed
        d1, d1p, d2, n, np = data.draw(st.sampled_from(weight_collisions(flavor, k)))
        c = data.draw(coeffs)
        xs = {d1: c * spec.delta ** np, d1p: -c * spec.delta ** n}
        ys = {d2: data.draw(coeffs)}
    x, y = Element(spec, xs), Element(spec, ys)
    prod = x * y
    assert prod == per_term_product(x, y)
    assert all(prod.terms.values())
    if forced:
        assert prod is Element.zero(spec)


def test_structured_rules_on_cold_frame_slots(monkeypatch):
    """Both rules on freshly built k = 5 diagrams, whose frame slots are
    still empty (both factors, or the right one alone), give the products
    of the same diagrams once warm; a diagram with a block of three
    vertices has no frames, and both rules refuse it."""
    from ptlalg import diagram

    warm = balanced_motzkin_5()[::37]
    spec, fresh = motzkin_spec(5), motzkin_spec(5)
    for which, rule in STRUCTURED.items():
        for i, (a, b) in enumerate(itertools.product(warm, warm)):
            with monkeypatch.context() as m:
                m.setattr(diagram, "_INTERNED", {})
                d1, d2 = Diagram(5, a.blocks), Diagram(5, b.blocks)
                if i % 2:
                    d1.frames()
                else:
                    assert not hasattr(d1, "_frame")
                assert not hasattr(d2, "_frame")
                got = rule(fresh, d1, d2)
            want = rule(spec, a, b)
            assert got.basis == want.basis == which
            assert ({d.blocks: c for d, c in got.terms.items()}
                    == {d.blocks: c for d, c in want.terms.items()}), (which, a, b)
    three = Diagram(2, [(0, 1, 2), (3,)])
    e1 = gen_e(1, 2)
    for rule in STRUCTURED.values():
        for d1, d2 in ((three, e1), (e1, three), (three, three)):
            with pytest.raises(ValueError, match="frames require a partial Brauer diagram"):
                rule(motzkin_spec(2), d1, d2)


# -- results built by closure against the validating constructor -----------------

@functools.lru_cache(maxsize=None)
def admitted_pool(flavor, k, basis):
    """The partial Brauer k-diagrams that ``flavor`` admits in ``basis``."""
    spec = AlgebraSpec(flavor, k)
    return tuple(d for d in partial_brauer_diagrams(k) if spec.admits(d, basis))


@functools.lru_cache(maxsize=None)
def snaking_pairs(flavor, k):
    """The unobstructed pairs of tilde vectors with an edge that snakes."""
    pool = admitted_pool(flavor, k, "tilde")
    return tuple((d1, d2) for d1 in pool for d2 in pool
                 if reference_snake_set(d1, d2) and not reference_omega_obstruction(d1, d2))


@st.composite
def partition_diagrams(draw, k):
    """Any k-diagram: each vertex draws the label of its block."""
    labels = draw(st.lists(st.integers(0, 2 * k - 1), min_size=2 * k, max_size=2 * k))
    blocks = {}
    for v, label in enumerate(labels):
        blocks.setdefault(label, []).append(v)
    return Diagram(k, blocks.values())


@st.composite
def closure_case(draw):
    """Two elements of one spec and basis, some of whose terms cancel in
    x + y or x - y, and one diagram pair for each structured rule (for the
    tilde rule often one whose product has more than one term)."""
    flavor = draw(st.sampled_from(("motzkin", "ptl", "partial_brauer", "partition", "tl")))
    k = draw(st.integers(0, 3))
    basis = draw(st.sampled_from(("diagram", "bar", "tilde")))
    delta0 = draw(st.sampled_from((None, 1, 2, Fraction(-1, 2))))
    spec = AlgebraSpec(flavor, k, delta0)
    coeffs = st.sampled_from(COEFFS if delta0 is None
                             else (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
    pool = admitted_pool(flavor, k, basis)
    terms = st.just({})  # TL's bar basis is empty at k > 0, partition's alternating ones always
    if pool:
        diagrams = st.sampled_from(pool)
        if flavor == "partition" and basis == "diagram" and k:
            diagrams = st.one_of(diagrams, partition_diagrams(k))
        terms = st.dictionaries(diagrams, coeffs, max_size=4)
    xs, ys = draw(terms), draw(terms)
    sign = draw(st.sampled_from((1, -1)))
    if xs:
        ys.update({d: sign * xs[d] for d in draw(st.sets(st.sampled_from(sorted(xs))))})
    pairs = {}
    for which in STRUCTURED:
        rule_pool = admitted_pool(flavor, k, which)
        if rule_pool:
            pair = st.tuples(st.sampled_from(rule_pool), st.sampled_from(rule_pool))
            if which == "tilde" and snaking_pairs(flavor, k):
                pair = st.one_of(pair, st.sampled_from(snaking_pairs(flavor, k)))
            pairs[which] = draw(pair)
    return Element(spec, xs, basis), Element(spec, ys, basis), pairs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(closure_case())
def test_results_built_by_closure_pass_the_validating_constructor(case):
    x, y, pairs = case
    spec = x.spec
    results = [x + y, x - y, -x, x * y]
    results += [STRUCTURED[which](spec, d1, d2) for which, (d1, d2) in pairs.items()]
    for r in results:
        assert Element(r.spec, r.terms, r.basis) == r
        assert all(r.terms.values()), "a zero coefficient is stored"
        assert all(spec.admits(d, r.basis) for d in r.terms)
        if not r.terms:
            assert r is Element.zero(spec, r.basis)


def test_tilde_multiply_rebuilds_only_the_dropped_composites(monkeypatch):
    """``removals`` runs once per distinct (composite, loops, snakes), on
    the key's first product.  The composite itself is the empty-subset term;
    only the 2^|S| - 1 terms that drop through edges are built again, each
    interned through ``Diagram._of`` while ``removals`` runs."""
    from ptlalg import algebra

    spec = motzkin_spec(3)
    pool = balanced_motzkin_diagrams(3)
    built = []
    runs = []
    in_removals = []
    of = Diagram._of.__func__

    def counting(cls, k, key):
        if in_removals:
            built.append(k)
        return of(cls, k, key)

    def watched_removals(d, edge_pool):
        runs.append(d)
        in_removals.append(d)
        try:
            return removals(d, edge_pool)
        finally:
            in_removals.pop()

    keys = {}
    with monkeypatch.context() as m:
        m.setattr(Diagram, "_of", classmethod(counting))
        m.setattr(algebra, "removals", watched_removals)
        for d1 in pool:
            for d2 in pool:
                if tilde_multiply(spec, d1, d2):
                    comp = compose(d1, d2)
                    snakes = frozenset(reference_snake_set(d1, d2))
                    keys[(comp.diagram, comp.loops, snakes)] = len(snakes)
    assert len(runs) == len(keys) == len(spec._products)
    expected = sum(2 ** n - 1 for n in keys.values())
    assert 0 < expected == len(built)


# -- references: the snake walk and the triangular basis change ------------------

def reference_snake_set(d1, d2):
    """Top columns (1-based) of the through edges of d1 o d2 whose path
    traverses at least one interior cup or cap, found by walking the stack
    through both partner maps."""
    k = d1.k
    p1, p2 = reference_partner(d1), reference_partner(d2)
    out = []
    for t in range(k):
        mate = p1.get(t)
        if mate is None or mate < k:
            continue  # isolated top vertex, or a cup of d1
        m = mate - k
        horiz = 0
        end = None
        while True:
            nxt = p2.get(m)
            if nxt is None:
                break  # dangling: the edge dies in the middle
            if nxt >= k:
                end = nxt - k
                break  # reached the bottom row: a through edge
            horiz += 1  # a cup of d2
            nxt1 = p1.get(k + nxt)
            if nxt1 is None or nxt1 < k:
                break  # dangling, or emerged as a cup of the composite
            horiz += 1  # a cap of d1
            m = nxt1 - k
        if end is not None and horiz > 0:
            out.append(t + 1)
    return frozenset(out)


def reference_partner(d):
    """Vertex -> the other end of its edge, for the vertices on an edge."""
    p = {}
    for b in d.blocks:
        if len(b) == 2:
            p[b[0]], p[b[1]] = b[1], b[0]
    return p


def test_compose_names_the_walked_snakes():
    """``compose(d1, d2).snakes`` holds the through edges that the walk finds,
    on every pair of partial Brauer 3-diagrams and of balanced Motzkin
    4-diagrams, obstructed pairs included."""
    counts = []
    for pool in (partial_brauer_diagrams(3), balanced_motzkin_diagrams(4)):
        unobstructed = snaking = 0
        for d1 in pool:
            for d2 in pool:
                snakes = compose(d1, d2).snakes
                assert snakes == tuple(sorted(snakes))
                assert {t + 1 for t, _ in snakes} == reference_snake_set(d1, d2), (d1, d2)
                if not reference_omega_obstruction(d1, d2):
                    unobstructed += 1
                    snaking += bool(snakes)
        counts.append((unobstructed, snaking))
    assert counts == [(3352, 216), (11423, 836)]


def reference_tilde_multiply(spec, d1, d2):
    """The tilde rule with the walked snake set, every subset rebuilt."""
    full = frozenset(range(1, d1.k + 1))
    f1, f2 = d1.frames(), d2.frames()
    if ((full - f1.bot) & f2.top_h) | ((full - f2.top) & f1.bot_h):
        return Element.zero(spec, "tilde")
    comp = compose(d1, d2)
    k = d1.k
    lead = (spec.delta - 1) ** comp.loops if comp.loops else 1
    snakes = sorted(reference_snake_set(d1, d2))
    terms = {}
    for r in range(len(snakes) + 1):
        for sub in itertools.combinations(snakes, r):
            keep = [e for e in comp.diagram.edges()
                    if not (e[0] < k <= e[1] and e[0] + 1 in sub)]
            dd = Diagram.from_edges(k, keep)
            terms[dd] = terms.get(dd, 0) + (-1) ** r * lead
    return Element(spec, terms, "tilde")


def reference_change_basis(x, to):
    """Diagram basis -> bar / tilde by a unitriangular solve: peel off the
    term with the most edges and subtract the rest of its expansion."""
    assert x.basis == "diagram" and to in ("bar", "tilde")
    work = dict(x.terms)
    out = {}
    while work:
        d = max(work, key=lambda dd: (dd.n_edges(), dd.blocks))
        c = work.pop(d)
        if not c:
            continue
        out[d] = c
        for dd, sign in _expansion(d, to).items():
            if dd == d:
                continue
            work[dd] = work.get(dd, 0) - c * sign
    return Element(x.spec, out, to)


def horizontal_edges(d):
    return [e for e in d.edges() if e[1] < d.k or e[0] >= d.k]


def test_tilde_rule_matches_walked_snake_reference():
    for k in (1, 2, 3):
        spec, pool = motzkin_spec(k), motzkin_diagrams(k)
        for d1 in pool:
            for d2 in pool:
                assert tilde_multiply(spec, d1, d2) == reference_tilde_multiply(spec, d1, d2)
    spec, pool = motzkin_spec(4), balanced_motzkin_diagrams(4)
    pairs = 0
    for d1 in pool:
        for d2 in pool:
            assert tilde_multiply(spec, d1, d2) == reference_tilde_multiply(spec, d1, d2)
            pairs += 1
    assert pairs == 33489


def reference_omega_obstruction(d1, d2):
    """Middle-row columns where one factor is isolated and the other has a
    horizontal-edge end, through the complements of the frames in {1..k}."""
    full = frozenset(range(1, d1.k + 1))
    f1, f2 = d1.frames(), d2.frames()
    return ((full - f1.bot) & f2.top_h) | ((full - f2.top) & f1.bot_h)


def test_omega_obstruction_matches_the_complement_reference():
    """At generic delta a tilde product vanishes exactly on the obstructed pairs."""
    pools = [motzkin_diagrams(k) for k in range(4)] + [balanced_motzkin_diagrams(4)]
    pairs = obstructed = 0
    for pool in pools:
        spec = motzkin_spec(pool[0].k)
        for d1 in pool:
            for d2 in pool:
                got = tilde_multiply(spec, d1, d2).is_zero()
                assert got == bool(reference_omega_obstruction(d1, d2)), (d1, d2)
                pairs += 1
                obstructed += got
    assert pairs == 36176
    assert 0 < obstructed < pairs


def test_change_basis_is_the_moebius_sum():
    """d = sum of bar(s) over its subdiagrams s, and likewise of tilde(s)
    over the removals of its horizontal edges, every coefficient +1."""
    seen = 0
    for k in range(5):
        spec = motzkin_spec(k)
        for d in motzkin_diagrams(k):
            x = Element.of(spec, d)
            assert change_basis(x, "bar").terms == {s: 1 for s, _ in removals(d, d.edges())}
            assert change_basis(x, "tilde").terms == {
                s: 1 for s, _ in removals(d, horizontal_edges(d))}
            seen += 1
    assert seen == 386


def test_removals_lead_with_the_diagram_itself():
    for d in motzkin_diagrams(3):
        for pool in ([], d.edges(), horizontal_edges(d)):
            subs = removals(d, pool)
            assert subs[0][0] is d and subs[0][1] == 0
            assert len(subs) == 2 ** len(pool)
            assert len({s for s, _ in subs}) == len(subs)


PTL_COEFFS = COEFFS + (5, delta ** 3 - delta)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_change_basis_matches_triangular_reference(data):
    k = data.draw(st.sampled_from((2, 3, 4)))
    to = data.draw(st.sampled_from(("bar", "tilde")))
    coeffs = st.sampled_from(PTL_COEFFS)
    if data.draw(st.booleans()):
        spec = motzkin_spec(k)
        x = Element(spec, data.draw(st.dictionaries(
            st.sampled_from(motzkin_diagrams(k)), coeffs, max_size=6)))
    else:
        # a PTL element given in the diagram basis: its alternating-basis
        # support is balanced, but the subdiagrams met on the way are not
        spec = ptl_spec(k)
        source = data.draw(st.sampled_from(("bar", "tilde")))
        y = Element(spec, data.draw(st.dictionaries(
            st.sampled_from(balanced_motzkin_diagrams(k)), coeffs, max_size=4)), source)
        x = change_basis(y, "diagram")
        if data.draw(st.booleans()):
            # a stray diagram with a cup or a cap: PTL cannot hold the result
            stray = [d for d in motzkin_diagrams(k) if any(edge_kinds(d)[:2])]
            x = x + Element.of(spec, data.draw(st.sampled_from(stray)))
        elif source == to:
            assert change_basis(x, to) == y
    try:
        want = reference_change_basis(x, to)
    except ValueError:
        with pytest.raises(ValueError, match="not admitted"):
            change_basis(x, to)
    else:
        assert change_basis(x, to) == want


# -- negation, subtraction, partition diagrams and the loop factor ---------------

def test_negation_and_subtraction():
    M2 = motzkin_spec(2)
    x = Element.of(M2, gen_e(1, 2), 2) + Element.of(M2, gen_p(1, 2), delta)
    y = Element.of(M2, gen_e(1, 2), 3) + Element.of(M2, identity(2), -1)
    assert (-x).terms == {gen_e(1, 2): -2, gen_p(1, 2): -delta}
    assert -(-x) == x and (-x).basis == x.basis
    assert -Element.zero(M2, "bar") == Element.zero(M2, "bar")
    assert x - y == Element(M2, {gen_e(1, 2): -1, gen_p(1, 2): delta, identity(2): 1})
    assert x - x == Element.zero(M2) and not (x - x).terms
    assert x - y == -(y - x) == x + -y
    with pytest.raises(ValueError, match="different bases"):
        x - Element.of(M2, gen_e(1, 2), 1, "bar")
    with pytest.raises(ValueError, match="different algebras"):
        x - Element.of(motzkin_spec(3), gen_e(1, 3))


PARTITION_BLOCK = Diagram(3, [(0, 1, 3), (2, 5), (4,)])


@pytest.mark.parametrize("k", [True, False, -1, -3, 1.0, "2", None])
def test_spec_refuses_a_k_that_is_not_a_nonnegative_int(k):
    for flavor in ("motzkin", "tl"):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            AlgebraSpec(flavor, k)
    assert AlgebraSpec("motzkin", 0).k == 0


def flavor_holds(flavor, d):
    """What a flavor asks of an alternating vector's own diagram; the
    partition algebra has none, as its twist weighs every discarded block
    where the bar and tilde rules weigh loops alone."""
    return {"partition": False,
            "partial_brauer": d.is_partial_brauer(),
            "motzkin": d.is_motzkin(),
            "tl": d.is_tl(),
            "ptl": d.is_motzkin() and d.is_balanced()}[flavor]


def expansion_admitted(spec, d, basis):
    """Does every diagram of the expansion of bar(d) / tilde(d) lie in ``spec``?"""
    try:
        terms = _expansion(d, basis)
    except ValueError:
        return False
    return all(spec.admits(s) for s in terms)


def test_admits_is_expansion_membership():
    pool = {d for k in range(4) for d in partial_brauer_diagrams(k)}
    pool |= {Diagram(2, [(0, 1, 2), (3,)]), PARTITION_BLOCK}
    admitted = {}
    for flavor in FLAVORS:
        for d in sorted(pool):
            spec = AlgebraSpec(flavor, d.k)
            for basis in ("bar", "tilde"):
                want = flavor_holds(flavor, d) and expansion_admitted(spec, d, basis)
                assert spec.admits(d, basis) == want, (flavor, d, basis)
                admitted[flavor, basis] = admitted.get((flavor, basis), 0) + want
    # TL keeps only the empty diagram in bar and the identities in tilde
    assert admitted["tl", "bar"] == 1
    assert admitted["tl", "tilde"] == 4
    assert admitted["partition", "bar"] == admitted["partition", "tilde"] == 0
    assert all(admitted[f, b] > 4 for f in FLAVORS if f not in ("tl", "partition")
               for b in ("bar", "tilde"))
    # a diagram of another k is admitted by no flavor in no basis
    assert not any(AlgebraSpec(f, 3).admits(identity(2), b)
                   for f in FLAVORS for b in ("diagram", "bar", "tilde"))


def test_partition_diagrams_stay_in_the_diagram_basis():
    spec = AlgebraSpec("partition", 3)
    assert spec.admits(PARTITION_BLOCK)
    assert spec.admits(PARTITION_BLOCK, "diagram")
    for basis in ("bar", "tilde"):
        assert not spec.admits(PARTITION_BLOCK, basis)
        assert not spec.admits(gen_e(1, 3), basis)
        for d in (PARTITION_BLOCK, gen_e(1, 3)):
            with pytest.raises(ValueError, match="not admitted"):
                Element.of(spec, d, 1, basis)
    x = Element.of(spec, PARTITION_BLOCK)
    for which in ("bar", "tilde"):
        with pytest.raises(ValueError, match="not admitted"):
            _expansion(PARTITION_BLOCK, which)
    for to in ("bar", "tilde"):
        with pytest.raises(ValueError, match="not admitted"):
            change_basis(x, to)
    # nor do its partial Brauer diagrams, though their expansions exist
    e = Element.of(spec, gen_e(1, 3))
    for to in ("bar", "tilde"):
        with pytest.raises(ValueError, match="not admitted by partition/%s" % to):
            change_basis(e, to)


class CountingDelta(DeltaPoly):
    """A loop parameter that counts how often delta - 1 is formed."""

    subtractions = 0

    def __sub__(self, other):
        CountingDelta.subtractions += 1
        return 5


def test_loop_factor_is_formed_only_for_loops():
    d = CountingDelta({1: 1})
    spec = AlgebraSpec("motzkin", 2, d)
    e, one = gen_e(1, 2), identity(2)
    CountingDelta.subtractions = 0
    assert bar_multiply(spec, e, one).terms == {e: 1}
    assert tilde_multiply(spec, one, e).terms == {e: 1}
    assert CountingDelta.subtractions == 0
    assert bar_multiply(spec, e, e).terms == {e: 5}
    assert tilde_multiply(spec, e, e).terms == {e: 5}
    assert CountingDelta.subtractions == 1
    for _ in range(10):
        assert bar_multiply(spec, e, e).terms == {e: 5}
        assert tilde_multiply(spec, e, e).terms == {e: 5}
    assert CountingDelta.subtractions == 1


def test_structured_products_check_names_the_failing_pair(monkeypatch):
    from ptlalg import verify
    real = verify.tilde_multiply
    for kcap, k in ((2, 2), (3, 3), (4, 4)):
        monkeypatch.setattr(verify, "tilde_multiply", lambda spec, d1, d2, k=k:
                            Element.zero(spec, "tilde") if spec.k == k
                            else real(spec, d1, d2))
        ok, detail = verify.check_structured_products(kcap)
        assert not ok
        assert detail.startswith("tilde rule fails at Diagram(k=%d" % k)
    monkeypatch.setattr(verify, "tilde_multiply", real)
    assert verify.check_structured_products(3) == (
        True, "structured products match the oracle (exhaustive k <= 3)")


def test_tabled_oracle_matches_the_untabled_one(monkeypatch):
    # verify's reference forms each product of two expansion terms once per
    # spec; over every Motzkin pair at k <= 3 and the k = 4 sample of the
    # structured-products check it must equal the untabled expand-multiply-
    # recollect oracle, never call a structured rule, and compose each
    # distinct pair of terms exactly once
    from ptlalg import algebra, verify

    def refused(spec, d1, d2):
        raise AssertionError("the oracle called a structured rule")

    rng = random.Random(20240404)
    pool4 = balanced_motzkin_diagrams(4)
    cases = [(motzkin_spec(k), [(d1, d2) for d1 in motzkin_diagrams(k)
                                for d2 in motzkin_diagrams(k)]) for k in range(4)]
    cases.append((motzkin_spec(4), [(rng.choice(pool4), rng.choice(pool4))
                                    for _ in range(150)]))
    for spec, pairs in cases:
        composed = []
        real_compose = verify.compose

        def counting_compose(d1, d2):
            composed.append((d1, d2))
            return real_compose(d1, d2)

        with monkeypatch.context() as m:
            m.setattr(verify, "compose", counting_compose)
            for mod in (algebra, verify):
                m.setattr(mod, "bar_multiply", refused)
                m.setattr(mod, "tilde_multiply", refused)
            tabled = verify._oracle(spec)
            got = [tabled(d1, d2, which) for d1, d2 in pairs for which in ("bar", "tilde")]
        assert got == [oracle(spec, d1, d2, which)
                       for d1, d2 in pairs for which in ("bar", "tilde")]
        assert len(composed) == len(set(composed))
        assert composed  # the count saw the oracle's compositions


@pytest.mark.parametrize("call, message", [
    (lambda: AlgebraSpec("brauer", 2), "unknown flavor 'brauer'"),
    (lambda: change_basis(Element.of(motzkin_spec(2), gen_e(1, 2)), "hat"),
     "unknown basis 'hat'"),
    (lambda: Element(motzkin_spec(3), {gen_e(1, 2): 1}),
     "diagram %r not admitted by motzkin/diagram" % (gen_e(1, 2),)),
], ids=["flavor", "change-basis", "diagram-of-another-k"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


M2, E1 = motzkin_spec(2), gen_e(1, 2)
NOT_SCALAR = "coefficient %s is not a scalar of motzkin at delta = delta"


@pytest.mark.parametrize("call, exc, message", [
    (lambda: IntPoly({0: True}), TypeError, "coefficients must be int or Fraction, got True"),
    (lambda: DeltaPoly({True: 1}), TypeError, "exponents must be ints, got True"),
    (lambda: Element(M2, {E1: True}), ValueError, NOT_SCALAR % True),
    (lambda: Element(M2, {E1: False}), ValueError, NOT_SCALAR % False),
    (lambda: Element.of(M2, E1, True), ValueError, NOT_SCALAR % True),
    (lambda: Element.of(M2, E1).scale(True), ValueError, NOT_SCALAR % True),
    (lambda: True * Element.of(M2, E1), ValueError, NOT_SCALAR % True),
    (lambda: AlgebraSpec("ptl", 2, True), ValueError,
     "delta True is not an int, Fraction or IntPoly"),
    (lambda: RepConfig(True), ValueError, "alpha must be an int or a Fraction, not True"),
], ids=["intpoly-coeff", "deltapoly-exponent", "element-true", "element-false", "element-of",
        "scale", "rmul", "spec-delta", "rep-alpha"])
def test_a_bool_is_not_a_number(call, exc, message):
    # a bool is an int to isinstance, but no boundary takes it for a number:
    # accepted, Element(M2, {E1: True}) would write "coeff": "True", which
    # from_json refuses, and {E1: False} would be the zero element
    with pytest.raises(exc, match="^%s$" % re.escape(message)):
        call()
