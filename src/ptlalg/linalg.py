"""Exact sparse matrices and fraction-free Gaussian elimination.

Matrices carry entries from any exact ring: the scalars of
:mod:`ptlalg.scalar`, or algebra elements (the blocks of :mod:`ptlalg.ptl`).
No zero entries are stored, and no entry is ever added to the int 0.  Rank
and nullity computations take sparse rows of ints and Fractions, clear their
denominators once, and eliminate over the integers (Bareiss-style
cross-multiplication, each row divided by its content, one ``gcd`` of all its
entries), which keeps the arithmetic exact and the fill-in tolerable at the
sizes this package needs (a few thousand unknowns at most).  A clean row, all
of whose entries are nonzero ints (every row of a commutant system, and
every rank row of integral elements), is recognized in one pass over its
values and copied as it is; any other row has its zeros dropped and is
scaled to integers.

A stored row's pivot is the least column of its support, and no two stored
rows share a pivot: the stored rows are in row echelon form, not reduced.  An
incoming row is eliminated only at its least column, again and again, until
that column holds no pivot.  That tells whether the rank grew, which is all
any caller asks; no stored row is ever revisited.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SparseMatrix:
    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise ValueError("entry (%d, %d) out of range" % (r, c))
                    self.entries[(r, c)] = v

    def __getitem__(self, rc):
        return self.entries.get(rc, 0)

    def set(self, r, c, v):
        """In-place write; use only while building a matrix."""
        if v:
            self.entries[(r, c)] = v
        else:
            self.entries.pop((r, c), None)

    def add_at(self, r, c, v):
        rc = (r, c)
        self.set(r, c, self.entries[rc] + v if rc in self.entries else v)

    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def _check_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.entries)
        for rc, v in other.entries.items():
            out[rc] = out[rc] + v if rc in out else v
        return SparseMatrix(self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return SparseMatrix(self.nrows, self.ncols,
                            {rc: -v for rc, v in self.entries.items()})

    def scale(self, s):
        return SparseMatrix(self.nrows, self.ncols,
                            {rc: s * v for rc, v in self.entries.items()})

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions mismatch")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, m), v in self.entries.items():
            for (c, w) in by_row.get(m, ()):
                key = (r, c)
                p = v * w
                out[key] = out[key] + p if key in out else p
        return SparseMatrix(self.nrows, other.ncols, out)

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.entries == other.entries)

    def to_coord_text(self):
        """One ``row col value`` line per stored entry, sorted."""
        lines = ["%d %d %s" % (r, c, self.entries[(r, c)])
                 for (r, c) in sorted(self.entries)]
        return "\n".join(lines)

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d entries)" % (self.nrows, self.ncols, self.nnz())


def _eliminate(row, a, prow, b):
    """``row <- (b/g)*row - (a/g)*prow`` in place, with ``g = gcd(a, b)``.

    ``a`` and ``b`` are the entries of ``row`` and ``prow`` in one column,
    which the update clears; ``b`` must be positive.
    """
    g = gcd(a, b)
    s, t = b // g, a // g
    if s != 1:
        for c in row:
            row[c] *= s
    for c, v in prow.items():
        nv = row.get(c, 0) - t * v
        if nv:
            row[c] = nv
        else:
            del row[c]


class Echelon:
    """Incremental row echelon form over the integers.

    Rows are sparse dicts keyed by an arbitrary orderable column label, with
    int or Fraction values.  Each incoming row is scaled to integers once;
    stored pivot rows are primitive (content 1) with a positive entry in
    their pivot column, the least column of their support.  An incoming row
    is reduced against the stored row of its least column until that column
    has none; what is left, if anything, is stored as it is.  Stored rows are
    never reduced against one another.
    """

    def __init__(self):
        self.pivots = {}  # pivot column label -> primitive integer row (dict)

    def add(self, row):
        """Reduce ``row`` against the span; returns True if the rank grew.
        ``row`` itself is left unchanged: a clean row (nonzero ints only, no
        bool) is copied, and any other is rebuilt without its zeros."""
        vals = row.values()
        if all(vals) and set(map(type, vals)) == {int}:
            row = dict(row)
        else:
            row = {c: v for c, v in row.items() if v}
            if not all(type(v) is int for v in row.values()):
                row = {c: Fraction(v) for c, v in row.items()}
                den = lcm(*(v.denominator for v in row.values()))
                row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        pivots = self.pivots
        while row:
            piv = min(row)
            prow = pivots.get(piv)
            if prow is None:
                break
            _eliminate(row, row[piv], prow, prow[piv])
        else:
            return False
        g = gcd(*row.values())
        if row[piv] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        pivots[piv] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)


def rank_of_rows(rows):
    """Rank of an iterable of sparse int/Fraction rows.

    An empty row adds nothing to the rank, so it is dropped.  The others are
    added bottom-up, in descending order of their least key (ties keep their
    input order), so that most rows arrive with a least column that holds no
    pivot yet and are stored without an elimination.  The library's callers
    pass rows with no zero entry, whose least key is their least column; a
    row with zeros may be ordered by a zero's key, which changes the order
    but not the rank.
    """
    ech = Echelon()
    for row in sorted(filter(None, rows), key=min, reverse=True):
        ech.add(row)
    return ech.rank


def nullity(rows, n_unknowns):
    """Dimension of the solution space of the homogeneous system."""
    return n_unknowns - rank_of_rows(rows)
