"""The tensor-space representation on V^(x)k, V = V(0) + V(1).

The word basis of V^(x)k is indexed by sequences over {1, 0, -1} (site
basis v_1, v_0, v_-1 in that order, lexicographic word order).  Motzkin
diagrams act through the cup and cap bilinear forms, whose nonzero weights
are monomials in alpha, stated once in ``_forms``: a cup weighs
<v_1, v_-1> = -alpha q and <v_-1, v_1> = alpha, a cap 1/alpha and
-q^-1/alpha, and <v_0, v_0> = 1 on both.  The blocks act independently: a
diagram's matrix is built as the product over its blocks of each block's
letter choices, entry by nonzero entry, never by scanning the 3^k words.
The bar and tilde vectors act through the same weights, corrected: bar(d)
is the signed sum of d with each subset of its edges removed, the matrix is
multilinear in the edge weights, so subtracting delta_{i,0} delta_{j,0} from
the weight of every removable edge gives the matrix of the whole sum without
expanding it.  ``diagram_matrix`` acts by a plain diagram,
``modified_weight_matrix`` by bar(d) or tilde(d) of a balanced one, and
``element_matrix`` by any element in its own basis.  The quantum-group
generators E, F, K_1, K_2 and K = K_1 K_2^-1 act through the coproduct

    E -> sum_i 1 x ... x E x K x ... x K,
    F -> sum_i K^-1 x ... x F x 1 x ... x 1,
    K_i -> K_i x ... x K_i,

with single-site matrices E: v_-1 -> v_1, F: v_1 -> v_-1, K_1 =
diag(q,1,1), K_2 = diag(1,1,q).  One word weight, (#v_1, #v_-1), gives the
K exponents and the gl2/sl2 weight classes.  Everything is exact: a diagram's
entries are monomials c * q^e, carried as (e, c), and one Laurent polynomial
is built per entry of a finished matrix; commutant dimensions and the rank
are found by exact elimination at a rational q, on ints from one power table.
Away from the roots of unity the K and E equations alone cut out the
commutant.  E never moves a v_0 letter, so the commutant system splits by
the v_0 sites (the zero patterns) of the row and column words into
independent blocks, solved one at a time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .diagram import check_k, gen_e
from .linalg import SparseMatrix, nullity, rank_of_rows
from .scalar import DeltaPoly, LaurentPoly, _tidy

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
    """Form parameter alpha (a nonzero int or Fraction, kept as a Fraction);
    delta acts as 1 - (q + q^-1)."""

    alpha: Fraction = Fraction(1)

    def __post_init__(self):
        if type(self.alpha) is bool or not isinstance(self.alpha, (int, Fraction)):
            raise ValueError("alpha must be an int or a Fraction, not %r" % (self.alpha,))
        if not self.alpha:
            raise ValueError("alpha must be nonzero")
        object.__setattr__(self, "alpha", Fraction(self.alpha))

    def delta_value(self):
        """The image 1 - (q + q^-1) of delta; ``x.specialize(cfg.delta_value())``
        specializes an element ``x``."""
        return LaurentPoly({0: 1, 1: -1, -1: -1})


@functools.lru_cache(maxsize=None)
def _forms(cfg, corrected):
    """The cup and cap weights <v_i, v_j>, nonzero entries only, as
    ((i, j), e, c) for c * q^e: a cup weighs <v_1, v_-1> = -alpha q and
    <v_-1, v_1> = alpha, a cap 1/alpha and -q^-1/alpha, and <v_0, v_0> = 1
    on both unless ``corrected``.  Integral weights are ints."""
    a, ainv = _tidy({1: cfg.alpha, -1: 1 / cfg.alpha}).values()
    zero = () if corrected else (((0, 0), 0, 1),)
    return ((((1, -1), 1, -a), *zero, ((-1, 1), 0, a)),
            (((1, -1), 0, ainv), *zero, ((-1, 1), -1, -ainv)))


def _entries(d, cfg, correction):
    """Yield (row * 3^k + column, e, c) for each nonzero entry c * q^e of d.

    Each block of ``d`` contributes its own list of choices, each with its
    offset to the flat index and its weight: a cup the cup weights of
    ``_forms``, a cap its cap weights, a vertical edge one letter at both ends,
    an isolated vertex the letter 0.  The product over the blocks yields
    every nonzero entry once; exponents add and coefficients multiply.
    ``correction`` subtracts delta_{i,0} delta_{j,0} from the weight of every
    edge ("bar") or of the horizontal edges only ("tilde"), realizing the
    alternating elements directly: the forms lose their (0, 0) weight, and
    under "bar" a vertical edge carries only +-1.  Integral products, a cup's
    alpha against a cap's 1/alpha among them, are yielded as ints.  Callers
    pass a valid ``correction``.
    """
    if not d.is_motzkin():
        raise ValueError("diagram_matrix needs a planar partial Brauer diagram")
    k = d.k
    # letter x at vertex v adds LETTERS.index(x) = 1 - x times 3^(2k-1-v) to the
    # flat index row * 3^k + column: the top row spells the row's word
    place = [3 ** (2 * k - 1 - v) for v in range(2 * k)]
    tform, bform = _forms(cfg, correction is not None)
    through = (1, -1) if correction == "bar" else LETTERS
    blocks = [[(place[v], 0, 1)] for v in d.isolated()]
    for x, y in d.edges():
        if x < k <= y:  # a vertical edge: one letter at both ends
            blocks.append([((1 - i) * (place[x] + place[y]), 0, 1) for i in through])
        else:
            blocks.append([((1 - i) * place[x] + (1 - j) * place[y], e, f)
                           for (i, j), e, f in (tform if y < k else bform)])
    for choice in itertools.product(*blocks):
        at, e, w = 0, 0, 1
        for da, de, f in choice:
            at += da
            e += de
            w *= f
        yield at, e, w.numerator if w.denominator == 1 else w


def _laurent_matrix(k, terms, cfg, correction):
    """The matrix of the sum of c * d over the (d, c) of ``terms``: one
    LaurentPoly per entry, a Laurent c shifting the exponents."""
    acc, m = {}, SparseMatrix(3 ** k, 3 ** k)
    for d, c in terms:
        shifts = c.coeffs.items() if isinstance(c, LaurentPoly) else ((0, c),)
        for at, e, w in _entries(d, cfg, correction):
            for s, a in shifts:
                acc[at, e + s] = acc.get((at, e + s), 0) + a * w
    for (at, e), v in acc.items():
        if v:
            m.entries.setdefault(divmod(at, m.ncols), {})[e] = v
    for rc, p in m.entries.items():
        m.entries[rc] = LaurentPoly._of(_tidy(p))
    return m


def diagram_matrix(d, cfg):
    """Action of a Motzkin diagram on the word basis, columns = input words."""
    return _laurent_matrix(d.k, ((d, 1),), cfg, None)


def modified_weight_matrix(d, variant, cfg):
    """Matrix of bar(d) or tilde(d) via corrected block weights."""
    if variant not in ("bar", "tilde"):
        raise ValueError("variant must be 'bar' or 'tilde'")
    if not (d.is_motzkin() and d.is_balanced()):
        raise ValueError("modified weights apply to balanced Motzkin diagrams")
    return _laurent_matrix(d.k, ((d, 1),), cfg, variant)


def element_matrix(x, cfg):
    """Matrix of an algebra element on the word basis, read in its own basis.

    Each bar or tilde vector acts through the corrected block weights of
    ``_entries``, not through its diagram-basis expansion; the
    element's algebra admitted it only if that expansion lies in the
    algebra.  The element is specialized through delta = 1 - (q + q^-1).
    """
    x = x.specialize(cfg.delta_value())
    correction = None if x.basis == "diagram" else x.basis
    return _laurent_matrix(x.spec.k, x.terms.items(), cfg, correction)


def word_weight(w):
    """gl2 weight of a word: (#v_1, #v_-1); its sl2 weight is the difference."""
    return (w.count(1), w.count(-1))


def _ladder(g, k):
    """Yield (output word, input word, exponent of q) for each nonzero entry
    of E or F, the words as indices, input by input and site by site.

    E turns one v_-1 into v_1 and carries K on the sites right of it, F
    turns one v_1 into v_-1 and carries K^-1 on the sites left of it.
    Changing site i moves the word's index by 2 * 3^(k-1-i).
    """
    for col, w in enumerate(words(k)):
        for i, x in enumerate(w):
            if g == "E" and x == -1:
                yield col - 2 * 3 ** (k - 1 - i), col, sum(w[i + 1:])
            elif g == "F" and x == 1:
                yield col + 2 * 3 ** (k - 1 - i), col, -sum(w[:i])


def qgen_matrix(g, k):
    """Action of a quantum-group generator on the word basis (exact in q)."""
    n = 3 ** k
    m = SparseMatrix(n, n)
    if g in ("K1", "K2", "K"):
        for w in words(k):
            plus, minus = word_weight(w)
            e = {"K1": plus, "K2": minus, "K": plus - minus}[g]
            i = word_index(w)
            m.set(i, i, LaurentPoly.monomial(e))
        return m
    if g not in ("E", "F"):
        raise ValueError("unknown generator %r" % (g,))
    for r, c, e in _ladder(g, k):
        m.add_at(r, c, LaurentPoly.monomial(e))
    return m


def b_matrix(cfg):
    """Action of e on the 0-weight words v_{1,-1}, v_{0,0}, v_{-1,1} (3x3)."""
    e = diagram_matrix(gen_e(1, 2), cfg)
    block = [word_index(w) for w in ((1, -1), (0, 0), (-1, 1))]
    return SparseMatrix(3, 3, {(r, c): e[(out, inp)] for r, out in enumerate(block)
                               for c, inp in enumerate(block)})


# -- exact commutant computation ---------------------------------------------

SL2_GENERATORS = ("E", "F", "K")


def commutant_dim(k, q0, group="gl2"):
    """dim of the space of matrices commuting with the generator action.

    The diagonal generators force a block structure on the unknown matrix
    (rational q0 not in {0, 1, -1} has injective power map, so joint
    eigenspaces are exactly the weight classes); the E commutation
    conditions are then solved by exact elimination.  The F conditions are
    not needed: a rational q0 not in {0, 1, -1} is no root of unity, so
    V^(x)k is a direct sum of simple modules, each spanned by the E-powers
    of its lowest-weight vector.  A weight-preserving X that commutes with E
    sends that vector to a vector of the same weight that the same power of
    E kills, so into the isotypic part of the same simple module, and X is
    a module map there: E and K already force the commutant.  E never
    moves a v_0 letter, so the system splits further by the zero patterns
    of the row and column words into independent blocks; the dimension is
    the sum of the blocks' nullities, and only one block's equations are
    held at a time.  Each equation (XE - EX)[u, c] = 0 is gathered straight
    from E's column c and row u, whose entries come from the same ladder as
    ``qgen_matrix``'s.  Every entry of E is q^e with |e| < k, read scaled
    from ``_q_powers``, so the elimination starts from exact ints instead of
    Fractions.
    """
    check_k(k)
    q0 = Fraction(q0)
    if q0 in (0, 1, -1):
        raise ValueError("q must avoid 0 and +-1, not %s" % (q0,))
    if group not in ("gl2", "sl2"):
        raise ValueError("group must be 'gl2' or 'sl2'")
    return sum(nullity(rows, n_unknowns)
               for rows, n_unknowns in _commutant_blocks(k, q0, group))


def _commutant_blocks(k, q0, group):
    """Yield ``commutant_dim``'s equations one block at a time: the block's
    nonzero rows, as dicts from unknown to int coefficient, and its number
    of unknowns.

    The unknowns are the entries x[u, v] of X with u and v in one weight
    class.  The zero pattern of a word is the set of its v_0 sites, which E
    keeps, so the unknowns split by the zero patterns (A, B) of u and v into
    blocks, one per pair that shares a class, in pattern order.  Deleting the
    v_0 sites keeps the words' order, classes and E's entries, so a block
    depends only on how many v_0 sites A and B hold and is built once per pair
    of counts; its copies share rows that callers must not change (k = 5: 6 of
    252 for gl2, 18 of 512 for sl2).  A block numbers its unknowns class by
    class (in word order) and row by row: x[u, v] is ``off[u] + pos[v]``,
    where pos[v] is the place of v among the words of its class and pattern
    counted from the last: ``rank_of_rows`` adds rows by descending least
    column, and with the later words on the lower columns it eliminates about
    a quarter less (k = 5, gl2: 8,629 ``_eliminate`` calls against 11,663).
    E maps each class into one other class, so an equation (u, c) is nonzero
    only for c in a class that E moves and u in the class it moves it to;
    there it reads E[v, c] on x[u, v] for each v of column c, and -E[u, r]
    on x[r, c] for each r of row u.  Both lie in the block of (Z_u, Z_c),
    which therefore holds every equation of its unknowns.  E has no
    diagonal, so the two parts never meet on one unknown.
    """
    cls, patterns = [], {}
    for i, w in enumerate(words(k)):
        plus, minus = word_weight(w)
        cls.append((plus, minus) if group == "gl2" else plus - minus)
        patterns.setdefault(tuple(x == 0 for x in w), {}).setdefault(cls[i], []).append(i)
    classes = dict.fromkeys(cls)  # in word order
    pos = {u: j for classes in patterns.values() for members in classes.values()
           for j, u in enumerate(reversed(members))}
    power = _q_powers(q0, k)
    col, row, image = {}, {}, {}
    for r, c, e in _ladder("E", k):
        col.setdefault(c, []).append((pos[r], power[e]))
        row.setdefault(r, []).append((c, -power[e]))
        image[cls[c]] = cls[r]
    built = {}  # (v_0 sites of A, of B) -> (rows, n_unknowns)
    for a, left in patterns.items():
        for b, right in patterns.items():
            key = (sum(a), sum(b))
            if key not in built:
                off, n_unknowns = {}, 0
                for c in classes:
                    if c in left and c in right:
                        width = len(right[c])
                        for j, u in enumerate(left[c]):
                            off[u] = n_unknowns + j * width
                        n_unknowns += len(left[c]) * width
                rows = []
                for source, target in image.items():
                    for c in right.get(source, ()):
                        down, at = col.get(c, ()), pos[c]
                        for u in left.get(target, ()):
                            eq = {off[u] + p: v for p, v in down}
                            for r, v in row.get(u, ()):
                                eq[off[r] + at] = v
                            if eq:
                                rows.append(eq)
                built[key] = rows, n_unknowns
            if built[key][1]:
                yield built[key]


def _q_powers(q0, k):
    """e -> q0^e * (n*d)^k = n^(k+e) * d^(k-e), an int, for q0 = n/d, |e| <= k."""
    num, den = q0.numerator, q0.denominator
    return {e: num ** (k + e) * den ** (k - e) for e in range(-k, k + 1)}


def representation_rank(elements, q0, cfg):
    """Rank of the span of the flattened matrices of the given elements.

    Each coefficient is evaluated in place, as ``Element.specialize`` would
    evaluate it: a polynomial in delta at the number delta0 = 1 - (q0 + q0^-1),
    one in q (of a spec whose delta is already in q) at q0.  This is exact
    because delta -> delta0 and q -> q0 are ring maps, and it builds no spec
    and no element.  Each row is scaled by (n*d)^k for q0 = n/d: an entry
    c * q^e (|e| <= k/2) reads c * n^(k+e) * d^(k-e).  A diagram's entries
    are generated once per call, however many of the elements hold it.  A
    sum that cancels is dropped where it forms, so no row holds a zero."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("q must be nonzero, not %s" % (q0,))
    delta0 = cfg.delta_value().evaluate(q0)
    rows, entries = [], {}
    for x in elements:
        correction = None if x.basis == "diagram" else x.basis
        power, row = _q_powers(q0, x.spec.k), {}
        for d, c in x.terms.items():
            if isinstance(c, DeltaPoly):
                c = c.evaluate(delta0)
            elif isinstance(c, LaurentPoly):
                c = c.evaluate(q0)
            if not c:
                continue
            key = (d, correction)
            if key not in entries:
                entries[key] = list(_entries(d, cfg, correction))
            for at, e, w in entries[key]:
                v = row.get(at, 0) + c * w * power[e]
                if v:
                    row[at] = v
                else:
                    del row[at]
        rows.append(row)
    return rank_of_rows(rows)


# -- branching combinatorics ----------------------------------------------------

def pieri_dims(k):
    """Bratteli path counts: each level keeps the partition or adds one box."""
    check_k(k)
    counts = {(0, 0): 1}
    for _ in range(k):
        nxt = {}
        for (l1, l2), c in counts.items():
            for mu in ((l1, l2), (l1 + 1, l2), (l1, l2 + 1)):
                if mu[0] >= mu[1]:
                    nxt[mu] = nxt.get(mu, 0) + c
        counts = nxt
    return counts
