"""Quantum integers, the Jones recursion, and semisimplicity verdicts."""

from fractions import Fraction
from math import factorial, gcd

import pytest

from ptlalg.cells import act_on_path, cell_basis, join_tl, rank_of
from ptlalg.linalg import rank_of_rows
from ptlalg.qcriteria import (balanced_q_int, cyclotomic,
                              jones_identity_check, jones_identity_symbolic,
                              jones_p, q_int,
                              tl_semisimple, tl_semisimple_at_root_of_unity,
                              vanishes_at_primitive_root)
from ptlalg.scalar import IntPoly, LaurentPoly

q = LaurentPoly.gen()
qi = LaurentPoly.monomial(-1)


def q_factorial(n):
    out = LaurentPoly.one()
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def balanced_q_factorial(n):
    out = LaurentPoly.one()
    for i in range(1, n + 1):
        out = out * balanced_q_int(i)
    return out


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
    x = IntPoly.gen()
    assert jones_p(0) == IntPoly.one() and jones_p(1) == IntPoly.one()
    assert jones_p(2) == IntPoly.one() - x
    assert jones_p(3) == IntPoly.one() - 2 * x
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
    # q0 = 1 reduces to k! != 0
    for k in range(1, 9):
        assert balanced_q_factorial(k).evaluate(1) == factorial(k)
        assert tl_semisimple(k, 1)


def test_semisimplicity_witness():
    # q0 = golden-ratio-free rational that kills nothing
    assert tl_semisimple(5, Fraction(7, 2)) is True


def test_refusals_name_q_and_its_value():
    for q0, text in ((0, "0"), (-1, "-1")):
        with pytest.raises(ValueError, match="^q must avoid 0 and -1, not %s$" % text):
            jones_identity_check(3, q0)
    with pytest.raises(ValueError, match="^q must be nonzero, not 0$"):
        tl_semisimple(3, Fraction(0))


@pytest.mark.parametrize("call, message", [
    (lambda: q_int(-1), "n must be nonnegative"),
    (lambda: balanced_q_int(-1), "n must be nonnegative"),
    (lambda: jones_p(-1), "n must be nonnegative"),
    (lambda: cyclotomic(0), "n must be positive"),
], ids=["q-int", "balanced-q-int", "jones-p", "cyclotomic"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


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


def _tl_cell_forms_nondegenerate(n, delta):
    """Graham--Lehrer: TL_n(delta) is semisimple iff every cell form has full
    rank.  <c, b> = delta^N when join(c, c) b = delta^N c, and 0 when the
    product drops rank."""
    for m in range(n % 2, n + 1, 2):
        basis = cell_basis("tl", n, m)
        rows = []
        for c in basis:
            row = {}
            for j, b in enumerate(basis):
                loops, image = act_on_path(join_tl(c, c), b)
                if rank_of(image) == m:
                    assert image == c
                    row[j] = delta ** loops
            rows.append(row)
        if rank_of_rows(rows) < len(basis):
            return False
    return True


def test_root_of_unity_verdict_matches_cell_forms():
    # at these ell, q + q^-1 is an integer, so the forms are exact over Q
    loop = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}
    for ell, delta in loop.items():
        for n in range(1, 9):
            assert (tl_semisimple_at_root_of_unity(n, ell)
                    == _tl_cell_forms_nondegenerate(n, delta)), (n, ell)
    # TL_n(0) is semisimple exactly for odd n
    assert [tl_semisimple_at_root_of_unity(n, 4) for n in range(1, 9)] == [
        True, False, True, False, True, False, True, False]


def test_semisimple_matches_representation_theory():
    # when the criterion holds, the squared cell dimensions fill the algebra
    from ptlalg.cells import cell_dims
    from ptlalg.ptl import ptl_dimension
    for k in range(5):
        assert tl_semisimple(k, 2)
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
