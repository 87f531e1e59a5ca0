"""Integer echelon form against a dense Fraction Gauss-Jordan reference."""

import copy
import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from ptlalg import linalg
from ptlalg.diagram import motzkin_diagrams
from ptlalg.linalg import Echelon, nullity, rank_of_rows
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


def check_against_reference(rows):
    ech = Echelon()
    for i, row in enumerate(rows):
        grew = ech.add(row)
        assert grew == (reference_rank(rows[:i + 1]) > reference_rank(rows[:i]))
    ref = reference_rref(rows)
    assert ech.rank == len(ref)
    assert set(ech.pivots) == set(ref)
    for piv, prow in ech.pivots.items():
        # primitive integer rows with a positive pivot, the least column
        assert all(type(v) is int for v in prow.values())
        assert min(prow) == piv and prow[piv] > 0
        g = 0
        for v in prow.values():
            g = gcd(g, v)
        assert g == 1
        assert prow == {c: prow[piv] * v for c, v in ref[piv].items()}
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
        # the copy shares the column labels: a Diagram has no copy of its own
        trial = copy.deepcopy(ech, {id(d): d for d in cols})
        assert trial.add(outside) == (reference_rank(rows + [outside]) > ech.rank)


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
    assert ech.pivots == {0: {0: 1, 2: -1}, 1: {1: 2, 2: -3}}
    assert ech.add({0: 1, 1: 2, 2: -4}) is False
    assert copy.deepcopy(ech).add({2: 1}) is True
    assert ech.rank == 2
    assert rank_of_rows([{0: 1}, {0: 2}, {1: 1}]) == 2
    assert nullity([{0: 1}, {0: 2}, {1: 1}], 5) == 3


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
    # Added in equation order these rows take 6,500 eliminations; bottom-up
    # (descending least column) about 3,400.
    calls = []
    eliminate = linalg._eliminate

    def counted(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert commutant_dim(4, 2, "sl2") == len(motzkin_diagrams(4)) == 323
    assert len(calls) <= 3500
