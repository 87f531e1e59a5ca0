"""Quantum integers, the Jones recursion, and semisimplicity verdicts."""

from fractions import Fraction
from math import factorial, gcd

from ptlalg.qcriteria import (balanced_q_factorial, balanced_q_int, cyclotomic,
                              jones_identity_check, jones_identity_symbolic,
                              jones_p, ptl_semisimple, q_factorial, q_int,
                              tl_semisimple, tl_semisimple_at_root_of_unity,
                              tl_semisimple_witness, vanishes_at_primitive_root)
from ptlalg.scalar import LaurentPoly, XPoly, evaluate_q

q = LaurentPoly.gen()
qi = LaurentPoly.monomial(-1)


def test_quantum_integers():
    assert balanced_q_int(1) == 1
    assert balanced_q_int(2) == q + qi
    assert balanced_q_int(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert balanced_q_factorial(2) == balanced_q_int(2)
    # <n>_q = q^-(n-1) [n]_{q^2}
    for n in range(8):
        lifted = LaurentPoly({2 * e - (n - 1): c for e, c in q_int(n).coeffs.items()})
        assert balanced_q_int(n) == lifted


def test_jones_polynomials():
    x = XPoly.gen()
    assert jones_p(0) == XPoly.one() and jones_p(1) == XPoly.one()
    assert jones_p(2) == XPoly.one() - x
    assert jones_p(3) == XPoly.one() - 2 * x
    for n in range(12):
        assert jones_p(n).evaluate(0) == 1


def test_jones_identity():
    for n in range(11):
        assert jones_identity_symbolic(n) == q_int(n + 1)
        assert jones_identity_check(n, 2)
        assert jones_identity_check(n, Fraction(3, 5))


def test_semisimplicity_generic():
    for k in range(1, 9):
        assert tl_semisimple(k, 2)
        assert ptl_semisimple(k, 2)
    # q0 = 1 reduces to k! != 0
    for k in range(1, 9):
        assert evaluate_q(balanced_q_factorial(k), 1) == factorial(k)
        assert tl_semisimple(k, 1)


def test_semisimplicity_witness():
    # q0 = golden-ratio-free rational that kills nothing
    ok, bad = tl_semisimple_witness(5, Fraction(7, 2))
    assert ok and bad is None


def test_root_of_unity_symbolic():
    assert vanishes_at_primitive_root(balanced_q_int(2), 4)
    assert not tl_semisimple_at_root_of_unity(2, 4)
    assert tl_semisimple_at_root_of_unity(1, 4)
    # nonzero and shorter than Phi_ell, so never divisible by it
    assert not vanishes_at_primitive_root(q + 1, 3)
    assert not vanishes_at_primitive_root(LaurentPoly.one(), 5)
    assert not vanishes_at_primitive_root(qi + q * q, 12)
    # scan: <n>_q vanishes at a primitive ell-th root iff (q^2 has order m > 1
    # dividing n), for all n <= 10
    for n in range(1, 11):
        for ell in range(1, 25):
            m = ell // gcd(ell, 2)
            want = m != 1 and n % m == 0
            assert vanishes_at_primitive_root(balanced_q_int(n), ell) == want


def test_semisimple_matches_representation_theory():
    # when the criterion holds, the squared cell dimensions fill the algebra
    from ptlalg.cells import cell_dims
    from ptlalg.ptl import ptl_dimension
    for k in range(5):
        assert ptl_semisimple(k, 2)
        dims = cell_dims("ptl", k)
        assert sum(v * v for v in dims.values()) == ptl_dimension(k)


def test_cyclotomics():
    assert list(cyclotomic(1)) == [-1, 1]
    assert list(cyclotomic(2)) == [1, 1]
    assert list(cyclotomic(4)) == [1, 0, 1]
    assert list(cyclotomic(6)) == [1, -1, 1]
    assert list(cyclotomic(12)) == [1, 0, -1, 0, 1]
    # prod_{d | n} Phi_d = q^n - 1
    for n in range(1, 31):
        prod = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * LaurentPoly(dict(enumerate(cyclotomic(d))))
        assert prod == LaurentPoly({n: 1, 0: -1})
