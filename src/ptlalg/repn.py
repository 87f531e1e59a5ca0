"""The tensor-space representation on V^(x)k, V = V(0) + V(1).

The word basis of V^(x)k is indexed by sequences over {1, 0, -1} (site
basis v_1, v_0, v_-1 in that order, lexicographic word order).  Motzkin
diagrams act through bilinear-form weights attached to their blocks;
quantum-group generators act through the coproduct

    E -> sum_i 1 x ... x E x K x ... x K,
    F -> sum_i K^-1 x ... x F x 1 x ... x 1,
    K_i -> K_i x ... x K_i,

with single-site matrices E: v_-1 -> v_1, F: v_1 -> v_-1, K_1 =
diag(q,1,1), K_2 = diag(1,1,q).  Everything is exact: matrices carry
integer (or rational, for non-integer alpha) Laurent polynomials in q, and
commutant dimensions are computed by exact elimination at a rational q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import SparseMatrix, nullity, rank_of_rows
from .scalar import DeltaPoly, LaurentPoly, evaluate_q

LETTERS = (1, 0, -1)  # site basis order: v_1, v_0, v_-1


def words(k):
    return list(itertools.product(LETTERS, repeat=k))


def word_index(w):
    idx = 0
    for x in w:
        idx = idx * 3 + LETTERS.index(x)
    return idx


@dataclass(frozen=True)
class RepConfig:
    """Form parameter alpha (nonzero rational) and the sign in delta = 1 +- (q + q^-1)."""

    alpha: Fraction = Fraction(1)
    sign: str = "-"

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if not self.alpha:
            raise ValueError("alpha must be nonzero")

    @property
    def s(self):
        return 1 if self.sign == "+" else -1

    def delta_value(self):
        """1 +- (q + q^-1) as a Laurent polynomial."""
        return LaurentPoly({0: 1, 1: self.s, -1: self.s})

    def top_form(self):
        """Cup weights <v_i, v_j>_t, nonzero entries only."""
        a = self.alpha
        return {(1, -1): LaurentPoly({1: -a}),
                (0, 0): LaurentPoly.one(),
                (-1, 1): LaurentPoly({0: a})}

    def bottom_form(self):
        """Cap weights <v_i, v_j>_b, nonzero entries only."""
        ainv = 1 / self.alpha
        s = self.s
        return {(1, -1): LaurentPoly({0: -s * ainv}),
                (0, 0): LaurentPoly.one(),
                (-1, 1): LaurentPoly({-1: s * ainv})}


def _blocks_of(d):
    """Classified blocks with 0-based columns."""
    return (d.cups(), d.caps(), d.verticals(),
            [v for v in d.isolated() if v < d.k],
            [v - d.k for v in d.isolated() if v >= d.k])


def diagram_matrix(d, cfg, correction=None):
    """Action of a Motzkin diagram on the word basis, columns = input words.

    The entry on (output word, input word) is the product of the block
    weights: delta_{i,0} for isolated vertices, delta_{i,j} for vertical
    edges, form values for cups and caps.  ``correction`` subtracts
    delta_{i,0} delta_{j,0} from the weight of every edge ("bar") or of the
    horizontal edges only ("tilde"), realizing the alternating elements
    directly.
    """
    if not d.is_motzkin():
        raise ValueError("diagram_matrix needs a planar partial Brauer diagram")
    if correction not in (None, "bar", "tilde"):
        raise ValueError("correction must be None, 'bar' or 'tilde'")
    k = d.k
    cups, caps, verts, iso_top, iso_bot = _blocks_of(d)
    tform = dict(cfg.top_form())
    bform = dict(cfg.bottom_form())
    if correction is not None:
        tform.pop((0, 0))
        bform.pop((0, 0))
    vert_zero_ok = correction != "bar"  # bar correction kills 0 -> 0 verticals
    n = 3 ** k
    m = SparseMatrix(n, n)
    for w in words(k):
        coeff = LaurentPoly.one()
        ok = True
        for c in iso_bot:
            if w[c] != 0:
                ok = False
                break
        if not ok:
            continue
        for (x, y) in caps:
            f = bform.get((w[x], w[y]))
            if f is None:
                ok = False
                break
            coeff = coeff * f
        if not ok:
            continue
        for (t, b) in verts:
            if w[b] == 0 and not vert_zero_ok:
                ok = False
                break
        if not ok:
            continue
        col = word_index(w)
        base = [0] * k
        for (t, b) in verts:
            base[t] = w[b]
        for choice in itertools.product(tform.items(), repeat=len(cups)):
            out = list(base)
            c2 = coeff
            for ((i, j), f), (x, y) in zip(choice, cups):
                out[x] = i
                out[y] = j
                c2 = c2 * f
            m.add_at(word_index(tuple(out)), col, c2)
    return m


def modified_weight_matrix(d, variant, cfg):
    """Matrix of bar(d) or tilde(d) via corrected block weights."""
    if variant not in ("bar", "tilde"):
        raise ValueError("variant must be 'bar' or 'tilde'")
    if not (d.is_motzkin() and d.is_balanced()):
        raise ValueError("modified weights apply to balanced Motzkin diagrams")
    return diagram_matrix(d, cfg, correction=variant)


def element_matrix(x, cfg):
    """Matrix of an algebra element (any basis) on the word basis.

    Coefficients polynomial in delta are specialized through
    delta = 1 +- (q + q^-1), matching the configured sign.
    """
    from .algebra import change_basis
    from .scalar import substitute_delta
    x = change_basis(x, "diagram")
    k = x.spec.k
    m = SparseMatrix(3 ** k, 3 ** k)
    for d, c in x.terms.items():
        if isinstance(c, DeltaPoly):
            c = substitute_delta(c, cfg.sign)
        for (r, col), v in diagram_matrix(d, cfg).entries.items():
            m.add_at(r, col, c * v)
    return m


def qgen_matrix(g, k):
    """Action of a quantum-group generator on the word basis (exact in q)."""
    n = 3 ** k
    m = SparseMatrix(n, n)
    if g in ("K1", "K2", "K", "K1inv", "K2inv", "Kinv"):
        for w in words(k):
            if g.startswith("K1"):
                e = sum(1 for x in w if x == 1)
            elif g.startswith("K2"):
                e = sum(1 for x in w if x == -1)
            else:
                e = sum(w)
            if g.endswith("inv"):
                e = -e
            i = word_index(w)
            m.set(i, i, LaurentPoly.monomial(e))
        return m
    if g == "E":
        for w in words(k):
            col = word_index(w)
            for i, x in enumerate(w):
                if x == -1:
                    out = w[:i] + (1,) + w[i + 1:]
                    e = sum(w[i + 1:])  # K eigenvalues right of the site
                    m.add_at(word_index(out), col, LaurentPoly.monomial(e))
        return m
    if g == "F":
        for w in words(k):
            col = word_index(w)
            for i, x in enumerate(w):
                if x == 1:
                    out = w[:i] + (-1,) + w[i + 1:]
                    e = -sum(w[:i])  # K^-1 eigenvalues left of the site
                    m.add_at(word_index(out), col, LaurentPoly.monomial(e))
        return m
    raise ValueError("unknown generator %r" % (g,))


def epsilon_matrix(i, k, sign="-"):
    """The scaled projection at sites (i, i+1): v_{1,-1}, v_{-1,1} survive."""
    if not 1 <= i <= k - 1:
        raise ValueError("index out of range")
    s = 1 if sign == "+" else -1
    n = 3 ** k
    m = SparseMatrix(n, n)
    local = {
        ((1, -1), (1, -1)): LaurentPoly({1: s}),
        ((-1, 1), (1, -1)): LaurentPoly({0: -s}),
        ((1, -1), (-1, 1)): LaurentPoly({0: -s}),
        ((-1, 1), (-1, 1)): LaurentPoly({-1: s}),
    }
    for w in words(k):
        pair = (w[i - 1], w[i])
        if pair not in ((1, -1), (-1, 1)):
            continue
        col = word_index(w)
        for (out_pair, in_pair), val in local.items():
            if in_pair != pair:
                continue
            out = w[:i - 1] + out_pair + w[i + 1:]
            m.add_at(word_index(out), col, val)
    return m


def b_matrix(cfg):
    """Action of e on the 0-weight words v_{1,-1}, v_{0,0}, v_{-1,1} (3x3)."""
    t = cfg.top_form()
    b = cfg.bottom_form()
    order = [(1, -1), (0, 0), (-1, 1)]
    m = SparseMatrix(3, 3)
    for r, out in enumerate(order):
        for c, inp in enumerate(order):
            m.set(r, c, t[out] * b[inp])
    return m


# -- exact commutant computation ---------------------------------------------

GL2_GENERATORS = ("E", "F", "K1", "K2")
SL2_GENERATORS = ("E", "F", "K")


def commutant_dim(k, q0, group="gl2"):
    """dim of the space of matrices commuting with the generator action.

    The diagonal generators force a block structure on the unknown matrix
    (rational q0 not in {0, 1, -1} has injective power map, so joint
    eigenspaces are exactly the weight classes); the E and F commutation
    conditions are then solved by exact elimination.
    """
    q0 = Fraction(q0)
    if q0 in (0, 1, -1):
        raise ValueError("q0 must avoid 0 and +-1")
    if group not in ("gl2", "sl2"):
        raise ValueError("group must be 'gl2' or 'sl2'")
    ws = words(k)
    if group == "gl2":
        cls = lambda w: (sum(1 for x in w if x == 1), sum(1 for x in w if x == -1))
    else:
        cls = lambda w: sum(w)
    classes = {}
    for i, w in enumerate(ws):
        classes.setdefault(cls(w), []).append(i)

    unknowns = {}
    for members in classes.values():
        for r in members:
            for c in members:
                unknowns[(r, c)] = len(unknowns)
    if k == 0:
        return 1

    rows = {}

    def equation(key):
        return rows.setdefault(key, {})

    for g in ("E", "F"):
        gm = qgen_matrix(g, k).map_values(lambda v: evaluate_q(v, q0))
        by_row = {}
        by_col = {}
        for (r, c), v in gm.entries.items():
            by_row.setdefault(r, []).append((c, v))
            by_col.setdefault(c, []).append((r, v))
        for (u, v), idx in unknowns.items():
            # (XG)_{u,c} picks up x_{u,v} G_{v,c}
            for (c, val) in by_row.get(v, ()):
                eq = equation((g, u, c))
                eq[idx] = eq.get(idx, 0) + val
            # -(GX)_{r,v} picks up -G_{r,u} x_{u,v}
            for (r, val) in by_col.get(u, ()):
                eq = equation((g, r, v))
                eq[idx] = eq.get(idx, 0) - val

    return nullity(rows.values(), len(unknowns))


def representation_rank(elements, q0, cfg):
    """Rank of the span of the flattened matrices of the given elements."""
    q0 = Fraction(q0)
    rows = (element_matrix(x, cfg).map_values(lambda v: evaluate_q(v, q0)).entries
            for x in elements)
    return rank_of_rows(rows)


# -- branching combinatorics ----------------------------------------------------

def pieri_dims(k):
    """Bratteli path counts: each level keeps the partition or adds one box."""
    counts = {(0, 0): 1}
    for _ in range(k):
        nxt = {}
        for (l1, l2), c in counts.items():
            for mu in ((l1, l2), (l1 + 1, l2), (l1, l2 + 1)):
                if mu[0] >= mu[1]:
                    nxt[mu] = nxt.get(mu, 0) + c
        counts = nxt
    return counts
