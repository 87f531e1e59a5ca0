"""Exact sparse matrices and fraction-based Gaussian elimination.

Matrices carry entries from any exact ring: the scalars of
:mod:`ptlalg.scalar`, or algebra elements (the blocks of :mod:`ptlalg.ptl`).
No zero entries are stored, and no entry is ever added to the int 0.  Rank
and nullity computations reduce sparse rows over ``Fraction`` with partial
support-driven pivoting, which keeps the arithmetic exact and the fill-in
tolerable at the sizes this package needs (a few thousand unknowns at most).
"""

from __future__ import annotations

from fractions import Fraction


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

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

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

    def transpose(self):
        return SparseMatrix(self.ncols, self.nrows,
                            {(c, r): v for (r, c), v in self.entries.items()})

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.entries == other.entries)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def map_values(self, f):
        return SparseMatrix(self.nrows, self.ncols,
                            {rc: f(v) for rc, v in self.entries.items()})

    def to_coord_text(self):
        """One ``row col value`` line per stored entry, sorted."""
        lines = ["%d %d %s" % (r, c, self.entries[(r, c)])
                 for (r, c) in sorted(self.entries)]
        return "\n".join(lines)

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d entries)" % (self.nrows, self.ncols, self.nnz())


class Echelon:
    """Incremental reduced row echelon form over Fraction.

    Rows are sparse dicts keyed by an arbitrary orderable column label.
    Pivot rows are kept fully reduced against one another, so reducing an
    incoming row is a single pass in any column order.
    """

    def __init__(self):
        self.pivots = {}  # pivot column label -> reduced row (dict)

    def _reduce(self, row):
        row = {c: Fraction(v) for c, v in row.items() if v}
        for col in list(row):
            coef = row.get(col)
            if not coef or col not in self.pivots:
                continue
            for c, v in self.pivots[col].items():
                nv = row.get(c, Fraction(0)) - coef * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return row

    def add(self, row):
        """Reduce ``row`` against the span; returns True if the rank grew."""
        row = self._reduce(row)
        if not row:
            return False
        piv = min(row)
        inv = 1 / row[piv]
        row = {c: v * inv for c, v in row.items()}
        for prow in self.pivots.values():
            coef = prow.get(piv)
            if coef:
                for c, v in row.items():
                    nv = prow.get(c, Fraction(0)) - coef * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        self.pivots[piv] = row
        return True

    def contains(self, row):
        return not self._reduce(row)

    @property
    def rank(self):
        return len(self.pivots)


def rank_of_rows(rows):
    """Rank of a list of sparse Fraction rows."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def nullity(rows, n_unknowns):
    """Dimension of the solution space of the homogeneous system."""
    return n_unknowns - rank_of_rows(rows)
