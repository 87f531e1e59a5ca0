"""Integer echelon form against a dense Fraction Gauss-Jordan reference."""

import copy
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ptlalg import linalg
from ptlalg.diagram import motzkin_diagrams
from ptlalg.linalg import Echelon, SparseMatrix, nullity, rank_of_rows
from ptlalg.repn import commutant_dim


def reference_rref(rows):
    """Pivot column -> RREF row (pivot entry 1) of the span of sparse rows,
    by dense Gauss-Jordan elimination over Fraction in sorted column order."""
    cols = sorted({c for row in rows for c, v in row.items() if v})
    mat = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    out = []
    for j in range(len(cols)):
        r = next((i for i in range(len(out), len(mat)) if mat[i][j]), None)
        if r is None:
            continue
        i = len(out)
        mat[i], mat[r] = mat[r], mat[i]
        inv = 1 / mat[i][j]
        mat[i] = [v * inv for v in mat[i]]
        for t in range(len(mat)):
            if t != i and mat[t][j]:
                f = mat[t][j]
                mat[t] = [a - f * b for a, b in zip(mat[t], mat[i])]
        out.append(j)
    return {cols[j]: {cols[c]: v for c, v in enumerate(mat[i]) if v}
            for i, j in enumerate(out)}


def reference_rank(rows):
    return len(reference_rref(rows))


def random_rows(rng, cols, n):
    """Sparse rows over ``cols`` mixing ints, Fractions with mixed
    denominators and signs, explicit zeros, zero rows, duplicates, scalar
    multiples and combinations that cancel against earlier rows."""
    rows = []
    for _ in range(n):
        pick = rng.random()
        if rows and pick < 0.1:
            rows.append(dict(rng.choice(rows)))
        elif rows and pick < 0.2:
            s = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
            rows.append({c: s * v for c, v in rng.choice(rows).items()})
        elif len(rows) > 1 and pick < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            comb = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in comb.items() if v})
        elif pick < 0.4:
            rows.append({} if pick < 0.38 else {rng.choice(cols): 0})
        else:
            row = {}
            for c in rng.sample(cols, rng.randint(1, min(4, len(cols)))):
                if rng.random() < 0.5:
                    row[c] = rng.randint(-9, 9)
                else:
                    row[c] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9)))
            rows.append(row)
    return rows


def in_span(row, rref):
    """Whether ``row`` lies in the span of the reduced rows ``rref``: then it
    is the sum of its entry at each pivot times that pivot's row."""
    comb = {}
    for piv, prow in rref.items():
        if row.get(piv):
            for c, v in prow.items():
                comb[c] = comb.get(c, 0) + row[piv] * v
    return {c: v for c, v in comb.items() if v} == {c: v for c, v in row.items() if v}


def check_against_reference(rows):
    """What a row echelon form guarantees: ``add`` tells whether the rank
    grew, the pivots are those of the reduced form, each stored row is a
    primitive int row with a positive entry at its pivot, its least column,
    and every stored row lies in the span of the rows."""
    ech = Echelon()
    for i, row in enumerate(rows):
        grew = ech.add(row)
        assert grew == (reference_rank(rows[:i + 1]) > reference_rank(rows[:i]))
    ref = reference_rref(rows)
    assert ech.rank == len(ref)
    assert set(ech.pivots) == set(ref)
    for piv, prow in ech.pivots.items():
        assert all(type(v) is int for v in prow.values())
        assert min(prow) == piv and prow[piv] > 0
        g = 0
        for v in prow.values():
            g = gcd(g, v)
        assert g == 1
        assert in_span(prow, ref)
    return ech


def test_random_sparse_rows_match_reference():
    rng = random.Random(20221)
    cols = list(range(12))
    for _ in range(60):
        rows = random_rows(rng, cols, rng.randint(1, 16))
        ech = check_against_reference(rows)
        # a member adds nothing; a non-member is tried on a copy
        for row in rows:
            assert ech.add(row) is False
        for row in random_rows(rng, cols, 8):
            assert copy.deepcopy(ech).add(row) == (reference_rank(rows + [row]) > ech.rank)


def test_diagram_column_labels():
    rng = random.Random(7)
    cols = motzkin_diagrams(2)
    for _ in range(20):
        rows = random_rows(rng, cols, rng.randint(1, 12))
        ech = check_against_reference(rows)
        outside = {cols[0]: 1, cols[-1]: Fraction(-2, 3)}
        assert copy.deepcopy(ech).add(outside) == (reference_rank(rows + [outside]) > ech.rank)


def test_edge_rows():
    ech = Echelon()
    assert ech.add({}) is False
    assert ech.add({0: 0, 1: Fraction(0)}) is False
    assert ech.add({3: 0}) is False
    assert ech.add({0: Fraction(1, 2), 1: Fraction(-1, 3)}) is True
    assert ech.pivots == {0: {0: 3, 1: -2}}
    assert ech.add({0: -3, 1: 2}) is False           # a multiple
    assert ech.add({0: Fraction(1, 2), 1: Fraction(-1, 3)}) is False  # a duplicate
    assert ech.add({1: -4, 2: 6}) is True
    # stored as it came, made primitive; the row of pivot 0 keeps its column 1
    assert ech.pivots == {0: {0: 3, 1: -2}, 1: {1: 2, 2: -3}}
    assert ech.add({0: 1, 1: 2, 2: -4}) is False
    assert copy.deepcopy(ech).add({2: 1}) is True
    assert ech.rank == 2
    assert rank_of_rows([{0: 1}, {0: 2}, {1: 1}]) == 2
    assert nullity([{0: 1}, {0: 2}, {1: 1}], 5) == 3


def test_add_leaves_its_row_unchanged():
    # a clean int row is copied; a row with a zero, a Fraction or a bool is
    # rebuilt; both are eliminated against the stored row of pivot 0
    for row in ({0: 4, 1: -6, 3: 10}, {0: 3, 1: 0, 2: Fraction(1, 2), 3: True}):
        ech = Echelon()
        assert ech.add({0: 1, 1: 1, 2: 1}) is True
        before = dict(row)
        assert ech.add(row) is True
        assert row == before and all(type(row[c]) is type(before[c]) for c in row)
        assert all(type(v) is int for prow in ech.pivots.values() for v in prow.values())


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=7)))
def test_rank_matches_reference(matrix):
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix]
    assert rank_of_rows(rows) == reference_rank(rows)


def least_column(row):
    return min((c for c, v in row.items() if v), default=None)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=8)
    .flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(len(m)))))))
def test_rank_is_independent_of_row_order(case):
    matrix, perm = case
    # explicit zeros kept; integral entries as ints, so all-int rows occur
    rows = [{j: v.numerator if v.denominator == 1 else v for j, v in enumerate(r)}
            for r in matrix]
    want = reference_rank(rows)
    nonzero = [r for r in rows if least_column(r) is not None]
    descending = (sorted(nonzero, key=least_column, reverse=True)
                  + [r for r in rows if least_column(r) is None])
    for order in ([rows[i] for i in perm], rows[::-1], descending):
        assert rank_of_rows(order) == want
        check_against_reference(order)


def test_commutant_system_elimination_count(monkeypatch):
    # Each block numbers its columns from the last word of a class.  Added
    # in equation order these rows take 1,000 eliminations that read 6,992
    # pivot-row entries; bottom-up (descending least column) 986 that read
    # 5,188.  With the columns numbered from the first word: 1,111 and 9,150
    # in equation order, 1,179 and 6,027 bottom-up.
    calls, read = [], []
    eliminate = linalg._eliminate

    def counted(row, a, prow, b):
        calls.append(1)
        read.append(len(prow))
        return eliminate(row, a, prow, b)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert commutant_dim(4, 2, "sl2") == len(motzkin_diagrams(4)) == 323
    assert len(calls) <= 986
    assert sum(read) <= 5188


@pytest.mark.parametrize("call, message", [
    (lambda: SparseMatrix(2, 2, {(2, 0): 1}), "entry (2, 0) out of range"),
    (lambda: SparseMatrix(2, 2, {(0, 1): 1}) + SparseMatrix(2, 3), "shape mismatch"),
    (lambda: SparseMatrix(2, 3) * SparseMatrix(2, 3), "inner dimensions mismatch"),
], ids=["entry", "shape", "inner"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
