"""Exact sparse matrices and fraction-free Gaussian elimination.

Matrices carry entries from any exact ring: the scalars of
:mod:`ptlalg.scalar`, or algebra elements (the blocks of :mod:`ptlalg.ptl`).
No zero entries are stored, and no entry is ever added to the int 0.  Rank
and nullity computations take sparse rows of ints and Fractions, clear their
denominators once (int rows are taken as they are), and eliminate over the
integers (Bareiss-style cross-multiplication, each row divided by its
content), which keeps the arithmetic exact and the fill-in tolerable at the
sizes this package needs (a few thousand unknowns at most).

A stored row's pivot is the least column of its support, so a new pivot can
only occur in rows whose pivots come before it: back-substitution scans just
those, found by bisection in the sorted pivot labels.  :func:`rank_of_rows`
feeds its rows bottom-up, in descending order of their least column, so that
almost every new pivot comes before all stored ones and back-substitution
has next to nothing to do.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _content(row):
    """The gcd of a nonempty integer row's entries (always positive)."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


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
    """Incremental reduced row echelon form over the integers.

    Rows are sparse dicts keyed by an arbitrary orderable column label, with
    int or Fraction values.  Each incoming row is scaled to integers once;
    stored pivot rows are primitive (content 1) with a positive entry in
    their pivot column, the least column of their support.  Pivot rows are
    kept fully reduced against one another, so reducing an incoming row is a
    single pass in any column order.  A new pivot is cleared from the stored
    rows whose pivots precede it, the only ones that can hold it; the pivot
    labels are kept sorted to find them.
    """

    def __init__(self):
        self.pivots = {}  # pivot column label -> primitive integer row (dict)
        self._order = []  # the pivot labels, ascending

    def _reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        if not all(type(v) is int for v in row.values()):
            row = {c: Fraction(v) for c, v in row.items()}
            den = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        for col in list(row):
            a = row.get(col)
            if a and col in self.pivots:
                prow = self.pivots[col]
                _eliminate(row, a, prow, prow[col])
        return row

    def add(self, row):
        """Reduce ``row`` against the span; returns True if the rank grew."""
        row = self._reduce(row)
        if not row:
            return False
        piv = min(row)
        g = _content(row)
        if row[piv] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        b = row[piv]
        order = self._order
        at = bisect_left(order, piv)
        for p in order[:at]:
            prow = self.pivots[p]
            a = prow.get(piv)
            if a:
                _eliminate(prow, a, row, b)
                g = _content(prow)
                if g != 1:
                    for c in prow:
                        prow[c] //= g
        order.insert(at, piv)
        self.pivots[piv] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)


def rank_of_rows(rows):
    """Rank of an iterable of sparse int/Fraction rows.

    The rows are added bottom-up: zero rows first, then the others in
    descending order of their least nonzero column (ties keep their input
    order), so that new pivots rarely lie behind stored ones.
    """
    zero, keyed = [], []
    for row in rows:
        least = min((c for c, v in row.items() if v), default=None)
        if least is None:
            zero.append(row)
        else:
            keyed.append((least, row))
    keyed.sort(key=lambda t: t[0], reverse=True)
    ech = Echelon()
    for row in zero:
        ech.add(row)
    for _, row in keyed:
        ech.add(row)
    return ech.rank


def nullity(rows, n_unknowns):
    """Dimension of the solution space of the homogeneous system."""
    return n_unknowns - rank_of_rows(rows)
