"""Exact ring arithmetic and the specialization maps."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptlalg.algebra import Element, motzkin_spec
from ptlalg.diagram import identity
from ptlalg.repn import RepConfig, representation_rank
from ptlalg.scalar import DeltaPoly, IntPoly, LaurentPoly, parse_scalar

d = DeltaPoly.gen()
q = LaurentPoly.gen()
qi = LaurentPoly.monomial(-1)


# -- references: the earlier specialization maps ---------------------------------

# delta's image 1 - (q + q^-1) in the tensor-space representation, and one
# more Laurent point at which to specialize delta
DELTA_IMAGE = 1 - q - qi
POINTS = (DELTA_IMAGE, 1 + q + qi)


def reference_substitute_delta(p, base=DELTA_IMAGE):
    """delta -> base by Horner's rule, highest exponent first."""
    result = LaurentPoly.zero()
    for e in range(p.max_exponent(), -1, -1):
        result = result * base + p.coeffs.get(e, 0)
    return result


def reference_evaluate(p, x0):
    """The power sum at a rational point, term by term in Fractions."""
    return sum((Fraction(c) * Fraction(x0) ** e for e, c in p.coeffs.items()),
               Fraction(0))


def test_basic_products():
    assert (q + qi) * (q + qi) == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert (d * 0).is_zero()
    assert (d - 1) ** 2 == d * d - 2 * d + 1


def test_substitute_delta():
    minus = RepConfig().delta_value()
    assert d.evaluate(minus) == 1 - q - qi
    assert (d - 1).evaluate(1 + q + qi) == q + qi
    assert (d ** 2).evaluate(minus) == q ** 2 + qi ** 2 - 2 * q - 2 * qi + 3


def test_evaluate_q():
    assert (q + qi).evaluate(2) == Fraction(5, 2)
    assert LaurentPoly.one().evaluate(7) == 1
    balanced3 = LaurentPoly({-2: 1, 0: 1, 2: 1})
    assert balanced3.evaluate(2) == Fraction(21, 4)
    with pytest.raises(ValueError):
        (q + qi).evaluate(0)


def test_substitution_matches_horner_reference():
    rng = random.Random(19)
    assert RepConfig().delta_value() == DELTA_IMAGE
    for base in POINTS:
        for _ in range(150):
            p = DeltaPoly({e: rng.randrange(-6, 7) for e in range(rng.randrange(8))})
            got = p.evaluate(base)
            assert type(got) is LaurentPoly
            assert got == reference_substitute_delta(p, base)


def test_rational_evaluation_matches_power_sum():
    rng = random.Random(23)
    for _ in range(150):
        p = _random_poly(rng, LaurentPoly, True)
        q0 = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 9))
        got = p.evaluate(q0)
        assert type(got) is Fraction
        assert got == reference_evaluate(p, q0)
    assert type(LaurentPoly.zero().evaluate(3)) is Fraction
    assert type(DeltaPoly({0: 5}).evaluate(0)) is Fraction


def test_negative_power_refused_at_zero_and_at_a_polynomial_point():
    with pytest.raises(ValueError):
        qi.evaluate(0)
    with pytest.raises(ValueError):
        (q + 1 + qi).evaluate(Fraction(0))
    with pytest.raises(ValueError):
        qi.evaluate(IntPoly.gen())
    with pytest.raises(ValueError):
        qi.evaluate(LaurentPoly.zero())
    assert (q + 1).evaluate(0) == 1


def test_representation_rank_refuses_q_zero():
    x = Element.of(motzkin_spec(2), identity(2))
    for q0 in (0, Fraction(0), "0"):
        with pytest.raises(ValueError, match="^q must be nonzero, not 0$"):
            representation_rank([x], q0, RepConfig())
    assert representation_rank([x], 2, RepConfig()) == 1


def test_mixed_rings_rejected():
    with pytest.raises(TypeError):
        d + q
    with pytest.raises(TypeError):
        d * IntPoly.gen()


def _random_poly(rng, cls, neg):
    coeffs = {}
    for _ in range(rng.randrange(4)):
        e = rng.randrange(-3, 4) if neg else rng.randrange(4)
        coeffs[e] = coeffs.get(e, 0) + rng.randrange(-5, 6)
    return cls(coeffs)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for cls, neg in ((DeltaPoly, False), (LaurentPoly, True)):
        for _ in range(200):
            a = _random_poly(rng, cls, neg)
            b = _random_poly(rng, cls, neg)
            c = _random_poly(rng, cls, neg)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == cls.zero()


def test_substitution_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_poly(rng, DeltaPoly, False)
        b = _random_poly(rng, DeltaPoly, False)
        for base in POINTS:
            f = lambda p: p.evaluate(base)
            assert f(a * b) == f(a) * f(b)
            assert f(a + b) == f(a) + f(b)


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(13)
    for q0 in (Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
        for _ in range(60):
            a = _random_poly(rng, LaurentPoly, True)
            b = _random_poly(rng, LaurentPoly, True)
            assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
            assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


def test_text_round_trips():
    rng = random.Random(17)
    for _ in range(100):
        p = _random_poly(rng, LaurentPoly, True)
        assert LaurentPoly.parse(str(p)) == p
        r = _random_poly(rng, DeltaPoly, False)
        assert DeltaPoly.parse(str(r)) == r
    assert LaurentPoly.parse("1 - q - q^-1") == 1 - q - qi
    assert parse_scalar("7/3") == Fraction(7, 3)
    assert parse_scalar("-4") == -4
    assert parse_scalar("delta^2 - 2*delta + 1") == (d - 1) ** 2
    # signed terms need no spaces
    assert parse_scalar("delta+2") == d + 2
    assert parse_scalar("-q^-1+1/2*q") == Fraction(1, 2) * q - qi


_COEFFS = st.one_of(st.integers(-20, 20), st.fractions(max_denominator=9))


@pytest.mark.parametrize("cls", [DeltaPoly, LaurentPoly, IntPoly])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), _COEFFS, max_size=5))
def test_parse_scalar_inverts_str(cls, coeffs):
    p = cls({e if cls.ALLOW_NEG else abs(e): c for e, c in coeffs.items()})
    assert parse_scalar(str(p)) == p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.fractions())
def test_parse_scalar_inverts_str_of_a_fraction(x):
    assert parse_scalar(str(x)) == x


@pytest.mark.parametrize("text", [
    "1/0", "-5/0", "2/0*delta", "delta - 1/0", "q^2 + 3/0*q",
    "delta 2", "2delta3", "0x10", "q 1", "delta^2 delta",
    # plain rationals follow the polynomial rules
    "1_000", "1_000*delta", "", "   ", " - 3 / 0 ", "2 3", "0.5", "3/-4",
])
def test_parse_scalar_refuses_zero_denominators_and_unsigned_terms(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


@pytest.mark.parametrize("value", [1, None, 1.5, True, ["1"]], ids=repr)
def test_parse_scalar_names_a_value_that_is_not_a_string(value):
    with pytest.raises(ValueError, match="^a scalar is a string, not %s$" % re.escape(repr(value))):
        parse_scalar(value)


@pytest.mark.parametrize("text, want", [
    ("3 / 4", Fraction(3, 4)), ("3 / 4*delta", Fraction(3, 4) * d),
    (" - 2 ", -2), ("- 2*delta", -2 * d),
    ("-3/7", Fraction(-3, 7)), ("+5", 5), ("4/2", 2), ("-6 / 3*delta", -2 * d),
])
def test_plain_rationals_follow_the_polynomial_term_rules(text, want):
    got = parse_scalar(text)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("cls", [DeltaPoly, LaurentPoly])
@pytest.mark.parametrize("coeffs", [st.integers(-20, 20),
                                    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))],
                         ids=["int", "Fraction"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(cls, coeffs, data):
    exps = st.integers(-4, 4) if cls.ALLOW_NEG else st.integers(0, 4)
    a, b, c = (cls(data.draw(st.dictionaries(exps, coeffs, max_size=4))) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + 0 == a and a * 1 == a and a * 0 == 0
    assert a + (-a) == a - a == 0


def test_constant_poly_equals_number():
    assert DeltaPoly({0: 5}) == 5
    assert hash(DeltaPoly({0: 5})) == hash(5)
    assert LaurentPoly.zero() == 0
    assert (d - 1).evaluate(Fraction(7, 3)) == Fraction(4, 3)


# -- trusted arithmetic against the validating constructor -----------------------

def reference_sum(cls, a, b, sign=1):
    """a + sign * b from coefficient dicts, rebuilt through the checks."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return cls(out)


def reference_product(cls, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return cls(out)


def assert_stored_form(p, cls):
    assert type(p) is cls
    assert all(p.coeffs.values()), "a zero coefficient is stored"
    assert not any(isinstance(c, Fraction) and c.denominator == 1
                   for c in p.coeffs.values()), "an integral Fraction is stored"
    assert cls(p.coeffs).coeffs == p.coeffs


_RINGS = st.sampled_from([DeltaPoly, LaurentPoly, IntPoly])


@st.composite
def _poly_and_operand(draw):
    cls = draw(_RINGS)
    exps = st.integers(-4, 4) if cls.ALLOW_NEG else st.integers(0, 4)
    p = cls(draw(st.dictionaries(exps, _COEFFS, max_size=4)))
    other = draw(st.one_of(
        st.dictionaries(exps, _COEFFS, max_size=4).map(cls),
        st.integers(-6, 6), st.fractions(max_denominator=6)))
    return cls, p, other


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_poly_and_operand())
def test_trusted_arithmetic_matches_the_validating_constructor(case):
    cls, p, other = case
    oc = other.coeffs if isinstance(other, cls) else {0: other}
    for got, want in ((p + other, reference_sum(cls, p.coeffs, oc)),
                      (other + p, reference_sum(cls, p.coeffs, oc)),
                      (p - other, reference_sum(cls, p.coeffs, oc, -1)),
                      (other - p, reference_sum(cls, oc, p.coeffs, -1)),
                      (-p, reference_sum(cls, {}, p.coeffs, -1)),
                      (p * other, reference_product(cls, p.coeffs, oc)),
                      (other * p, reference_product(cls, oc, p.coeffs))):
        assert_stored_form(got, cls)
        assert got == want and got.coeffs == want.coeffs
    want = cls({0: 1})
    for n in range(4):
        got = p ** n
        assert_stored_form(got, cls)
        assert got == want
        want = reference_product(cls, want.coeffs, p.coeffs)


def test_integral_coefficients_are_stored_as_ints():
    c = LaurentPoly({0: Fraction(3, 1)}).coeffs[0]
    assert c == 3 and type(c) is int
    half = Fraction(1, 2)
    for p in (LaurentPoly({1: half}) * 2, LaurentPoly({1: half}) + half * q,
              (half * d) ** 2 * 4, 3 * LaurentPoly({-1: Fraction(1, 3)})):
        assert all(type(c) is int for c in p.coeffs.values()), p
    assert str(LaurentPoly({0: Fraction(3, 1), 1: Fraction(-2, 1)})) == "-2*q + 3"
    assert hash(DeltaPoly({0: Fraction(4, 2)})) == hash(2) == hash(Fraction(2))


def test_public_constructor_keeps_its_checks():
    with pytest.raises(TypeError, match="coefficients"):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError, match="exponents"):
        DeltaPoly({1.0: 1})
    with pytest.raises(TypeError, match="exponents"):
        LaurentPoly({Fraction(1): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        DeltaPoly({-1: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        IntPoly({-2: 3})


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b,
    lambda a, b: b - a, lambda a, b: a * b, lambda a, b: b * a,
], ids=["add", "radd", "sub", "rsub", "mul", "rmul"])
def test_mixed_rings_and_floats_raise_type_error(op):
    for a, b in ((d, q), (q, IntPoly.gen()), (d + 1, IntPoly.gen()), (q, 0.5), (d, 2.0),
                 (q, "1")):
        with pytest.raises(TypeError):
            op(a, b)
