"""Linear combinations of diagrams and the structured multiplication rules.

An :class:`Element` is a sparse combination of diagrams over an exact
scalar ring, tagged with the basis its coordinates refer to:

* ``diagram`` -- the diagram basis, multiplied by the twisted product
  d1 d2 = delta^N (d1 o d2), N the closed loops of the stack, an open path
  weighing 1 (for the partition algebra N counts every discarded block);
* ``bar`` -- the alternating basis obtained by inclusion-exclusion removal
  of all edges, where products collapse to a single term
  (delta-1)^{N1} bar(d1 o d2), or vanish when the frames mismatch;
* ``tilde`` -- horizontal-edge removal only, where products acquire an
  extra (1 - p_i) factor for every through edge that snakes through
  interior cups and caps.

Every alternating-basis computation is a sum over edge subsets
(``diagram.removals``).  Writing d - S for d with the edges S removed,
bar(d) = sum_S (-1)^|S| (d - S) over the subsets S of the edges of d
inverts, by Moebius inversion on the subset lattice, to
d = sum_S bar(d - S) with every coefficient +1; tilde does the same over the
horizontal edges.  So a basis change walks one expansion both ways: into
the diagram basis it keeps the signs, out of it it drops them.

Elements follow the rule the scalars (``IntPoly._of``) and the diagrams
(``Diagram._of``) follow: input is validated at the boundary, and a result
computed from valid operands is built by closure, unchecked.  So
``Element(...)``, ``Element.of``, ``from_json``, ``specialize`` and the
scalar of ``scale`` check what they are given, while sums, negatives and
products of elements go through the trusted ``Element._of``.
``change_basis`` is the exception: a diagram-basis element of an algebra
need not lie in the span of the bar or tilde vectors that algebra admits (a
TL diagram's bar expansion leaves TL, a PTL diagram's may be unbalanced),
so its result is checked.

The structured rules ``bar_multiply`` and ``tilde_multiply`` return shared,
immutable results, as ``Element.zero`` does for the zero.  A nonzero
product is fixed by (basis, composite d1 o d2, its closed loops, the edges
that snake), and only a few hundred such keys occur among the 33,489 pairs
of balanced Motzkin 4-diagrams; each spec object keeps one ``Element`` per
key, built on the key's first product through the checked ``Element(...)``,
so a result outside the algebra is refused rather than stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .diagram import Diagram, check_k, check_keys, compose, gen_e, identity, removals
from .scalar import _NUM, DeltaPoly, IntPoly, parse_scalar

FLAVORS = ("partition", "partial_brauer", "motzkin", "tl", "ptl")
BASES = ("diagram", "bar", "tilde")


@dataclass(frozen=True)
class AlgebraSpec:
    """Which twisted diagram algebra we are working in, at the loop parameter
    ``delta``: an int, a Fraction or an ``IntPoly``, ``None`` for the generic
    delta of Z[delta].  Its coefficients are ints, Fractions and the type of delta."""

    flavor: str
    k: int
    delta: object = None

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError("unknown flavor %r" % (self.flavor,))
        check_k(self.k)
        if self.delta is None:
            object.__setattr__(self, "delta", DeltaPoly.gen())
        elif type(self.delta) is bool or not isinstance(self.delta, _NUM + (IntPoly,)):
            raise ValueError("delta %r is not an int, Fraction or IntPoly" % (self.delta,))
        # basis -> Element.zero, and (basis, composite, loops, snakes) -> the
        # bar or tilde product it names; not fields, so ==, hash and repr
        # ignore them
        object.__setattr__(self, "_zeros", {})
        object.__setattr__(self, "_products", {})

    def admits(self, d, basis="diagram"):
        """Is the diagram allowed in the support of an element of this basis?
        In the bar and tilde bases, only if every diagram of its expansion is."""
        if d.k != self.k:
            return False
        if self.flavor == "partition":
            # the bar and tilde rules weigh loops, this twist every discarded block
            return basis == "diagram"
        if not d.is_partial_brauer():
            return False
        if self.flavor == "partial_brauer":
            return True
        if not d.is_planar():
            return False
        if self.flavor == "tl":
            # removing an edge of a TL diagram leaves isolated vertices, so an
            # expansion stays in TL only if it removes nothing (a TL diagram
            # is partial Brauer, its cup ends are its frames' top_h, and with
            # no cup it has no cap)
            if d.isolated():
                return False
            return basis == "diagram" or not (d.edges() if basis == "bar" else d.frames().top_h)
        if self.flavor == "ptl" and basis in ("bar", "tilde"):
            # tilde/bar coordinates of PTL elements live on balanced diagrams
            return d.is_balanced()
        return True


def ptl_spec(k, delta=None):
    return AlgebraSpec("ptl", k, delta)


def motzkin_spec(k, delta=None):
    return AlgebraSpec("motzkin", k, delta)


def tl_spec(k, delta=None):
    return AlgebraSpec("tl", k, delta)


def _check_scalar(spec, c):
    """Refuse a coefficient outside the ring of ``spec``: ints, Fractions
    and scalars of the type of delta."""
    if not (isinstance(c, _NUM) or type(c) is type(spec.delta)):
        raise ValueError("coefficient %s is not a scalar of %s at delta = %s"
                         % (c, spec.flavor, spec.delta))


class Element:
    """A sparse combination of diagrams: ``terms`` maps each diagram of the
    support to its nonzero coefficient.  ``Element(...)`` checks its input;
    results of arithmetic on elements are built by :meth:`_of`."""

    __slots__ = ("spec", "basis", "terms")

    def __init__(self, spec, terms, basis="diagram"):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        clean = {}
        for d, c in terms.items():
            if not c:
                continue
            if not spec.admits(d, basis):
                raise ValueError("diagram %r not admitted by %s/%s" %
                                 (d, spec.flavor, basis))
            _check_scalar(spec, c)
            clean[d] = c
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, spec, terms, basis):
        """The trusted constructor of results that are closed by
        construction: ``terms`` (kept, not copied) maps diagrams ``spec``
        admits in ``basis`` to nonzero scalars of its ring.  It checks
        nothing; no terms gives the spec's one zero."""
        if not terms:
            return cls.zero(spec, basis)
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @classmethod
    def zero(cls, spec, basis="diagram"):
        """The zero of ``spec`` in ``basis``: one shared instance per spec
        object and basis, built on first use (elements are immutable)."""
        z = spec._zeros.get(basis)
        if z is None:
            z = spec._zeros[basis] = cls(spec, {}, basis)
        return z

    @classmethod
    def of(cls, spec, d, coeff=1, basis="diagram"):
        return cls(spec, {d: coeff}, basis)

    @classmethod
    def unit(cls, spec):
        return cls(spec, {identity(spec.k): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_compatible(self, other):
        if self.spec != other.spec:
            raise ValueError("elements live in different algebras")
        if self.basis != other.basis:
            raise ValueError("elements are in different bases (%s vs %s)" %
                             (self.basis, other.basis))

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            c = out.get(d, 0) + c
            if c:
                out[d] = c
            else:
                del out[d]
        return Element._of(self.spec, out, self.basis)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Element._of(self.spec, {d: -c for d, c in self.terms.items()}, self.basis)

    def scale(self, scalar):
        _check_scalar(self.spec, scalar)
        out = {d: scalar * c for d, c in self.terms.items()} if scalar else {}
        return Element._of(self.spec, out, self.basis)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        """The product in the basis of both factors.  In the diagram basis
        each pair of terms is composed once and c1 c2 is summed per
        (composite, n), n the closed loops of the stack (the discarded
        blocks for the partition algebra); each sum is then weighed by
        delta^n once, so a composite met by many pairs costs one scalar
        product.  In the bar and tilde bases each pair goes through its
        structured rule.  Terms that cancel are dropped."""
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        out = {}
        if self.basis == "diagram":
            spec, acc = self.spec, {}
            partition = spec.flavor == "partition"
            for d1, c1 in self.terms.items():
                for d2, c2 in other.terms.items():
                    comp = compose(d1, d2)
                    key = (comp.diagram, comp.blocks if partition else comp.loops)
                    acc[key] = acc.get(key, 0) + c1 * c2
            for (d, n), c in acc.items():
                if n and c:
                    c = c * _loop_factor(spec.delta, n, 0)
                if c:
                    out[d] = out.get(d, 0) + c
        else:
            structured = bar_multiply if self.basis == "bar" else tilde_multiply
            for d1, c1 in self.terms.items():
                for d2, c2 in other.terms.items():
                    c12 = c1 * c2
                    for d, c in structured(self.spec, d1, d2).terms.items():
                        out[d] = out.get(d, 0) + c12 * c
        # partial sums may cancel
        return Element._of(self.spec, {d: c for d, c in out.items() if c}, self.basis)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.spec == other.spec and self.basis == other.basis
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        wrap = {"diagram": "%s", "bar": "bar(%s)", "tilde": "tilde(%s)"}[self.basis]
        parts = []
        for d in sorted(self.terms):
            parts.append("(%s)*%s" % (self.terms[d], wrap % (d,)))
        return " + ".join(parts)

    __repr__ = __str__

    def specialize(self, x0):
        """delta -> x0 in delta and every coefficient, for ``x0`` as in
        ``IntPoly.evaluate``; ints and Fractions stay as they are."""
        def at(c):
            return c.evaluate(x0) if isinstance(c, DeltaPoly) else c

        nspec = AlgebraSpec(self.spec.flavor, self.spec.k, at(self.spec.delta))
        return Element(nspec, {d: at(c) for d, c in self.terms.items()}, self.basis)

    def to_json(self):
        return {"basis": self.basis,
                "terms": [{"coeff": str(c), "diagram": d.to_json()}
                          for d, c in sorted(self.terms.items())]}

    @staticmethod
    def json_terms(obj):
        """An element JSON object's terms as a dict, diagram -> the sum of its
        coefficients.  The object has no keys but k, basis and terms, terms is
        a list of objects of the keys coeff and diagram, and each is read once,
        by ``Diagram.from_json`` and ``parse_scalar``; any other shape is refused."""
        if not isinstance(obj, dict):
            raise ValueError("an element is a JSON object, not %r" % (obj,))
        check_keys(obj, ("k", "basis", "terms"), "an element")
        terms = obj["terms"]
        if not isinstance(terms, (list, tuple)):
            raise ValueError("bad terms %r" % (terms,))
        out = {}
        for t in terms:
            if not isinstance(t, dict):
                raise ValueError("bad term %r in terms" % (t,))
            check_keys(t, ("coeff", "diagram"), "a term")
            d = Diagram.from_json(t["diagram"])
            out[d] = out.get(d, 0) + parse_scalar(t["coeff"])
        return out

    @classmethod
    def from_json(cls, spec, obj):
        """The element of ``spec`` that ``obj`` describes; a "k" not the spec's is refused."""
        terms = cls.json_terms(obj)
        if "k" in obj:
            check_k(obj["k"])
            if obj["k"] != spec.k:
                raise ValueError("element k %d is not the algebra's %d" % (obj["k"], spec.k))
        return cls(spec, terms, obj.get("basis", "diagram"))


def _twist(spec, comp):
    """Scalar attached to one composition by the algebra's multiplication
    rule: delta^n, n the discarded blocks for partition and the closed loops
    otherwise, read from :func:`_loop_factor`.  ``Element.__mul__`` puts the
    same power on the sum of each (composite, n) instead."""
    n = comp.blocks if spec.flavor == "partition" else comp.loops
    return _loop_factor(spec.delta, n, 0) if n else 1


@functools.lru_cache(maxsize=None, typed=True)
def _loop_factor(delta, n, shift):
    """(delta - shift)^n for n >= 1: with ``shift`` 1 the scalar n closed
    loops put on a bar or tilde product, with 0 the diagram-basis delta^n.
    Formed once per (delta, n, shift) and shared, as scalars are immutable;
    a bar or tilde product asks only when its key is not yet in its spec's
    table."""
    return (delta - shift if shift else delta) ** n


# -- alternating-basis expansions ---------------------------------------------

@functools.lru_cache(maxsize=None)
def _expansion(d, which):
    """Signed diagram expansion of bar(d) / tilde(d) as a dict."""
    if not d.is_partial_brauer():
        raise ValueError("diagram %r not admitted: %s needs partial Brauer" % (d, which))
    if which == "bar":
        pool = d.edges()
    elif which == "tilde":
        pool = [e for e in d.edges() if e[1] < d.k or e[0] >= d.k]
    else:
        raise ValueError(which)
    # distinct edge subsets leave distinct diagrams, so no two terms cancel
    return {sub: (-1) ** r for sub, r in removals(d, pool)}


def bar_of(spec, d):
    """Inclusion-exclusion removal of all edges of ``d``, in the diagram basis."""
    return Element(spec, dict(_expansion(d, "bar")))


def tilde_of(spec, d):
    """Inclusion-exclusion removal of the horizontal edges of ``d``."""
    return Element(spec, dict(_expansion(d, "tilde")))


def change_basis(x, to):
    """Exact coordinate change between the diagram, bar and tilde bases.

    Into the diagram basis each bar(d) / tilde(d) expands to its signed sum
    over edge removals; out of it each d is the unsigned sum of the bar /
    tilde vectors of the same removals (Moebius inversion on the edge subsets).
    bar <-> tilde passes through the diagram basis.
    """
    if to not in BASES:
        raise ValueError("unknown basis %r" % (to,))
    if x.basis == to:
        return x
    if x.basis != "diagram" and to != "diagram":
        return change_basis(change_basis(x, "diagram"), to)
    which, signed = (x.basis, True) if to == "diagram" else (to, False)
    total = {}
    for d, c in x.terms.items():
        for dd, sign in _expansion(d, which).items():
            total[dd] = total.get(dd, 0) + (c * sign if signed else c)
    return Element(x.spec, total, to)


# -- structured products --------------------------------------------------------

def _structured(spec, key):
    """The product ``key`` = (basis, composite, loops, snakes) names:
    (delta-1)^loops times the signed sum of basis vectors over the subsets of
    the snaking edges dropped from the composite, or the spec's zero when the
    loop factor vanishes.  Built once, through the checks of ``Element(...)``
    (so a result outside the algebra raises and nothing is stored), and kept
    in ``spec._products`` for every later product with the same key."""
    basis, d, loops, snakes = key
    lead = _loop_factor(spec.delta, loops, 1) if loops else 1
    if lead:
        r = Element(spec, {dd: -lead if n % 2 else lead for dd, n in removals(d, snakes)},
                    basis)
    else:
        r = Element.zero(spec, basis)
    spec._products[key] = r
    return r


def bar_multiply(spec, d1, d2):
    """Product of two bar-basis vectors without expanding to the diagram basis.

    (delta-1)^{#loops} bar(d1 o d2) when the bottom frame of d1 equals the
    top frame of d2, and zero otherwise.  The result is shared and
    immutable: one ``Element`` per spec object and (composite, loops), built
    and checked on first sight, so a result ``spec`` does not admit in the
    bar basis raises ``ValueError``.

    Nothing that does not depend on the pair is redone per call: the frames
    are read from the diagrams' filled frame slots (``Diagram.frames`` fills
    an empty one, and refuses a diagram that is not partial Brauer), and a
    zero product is read from ``spec._zeros``, so only the first zero of a
    spec and basis goes through ``Element.zero``.
    """
    try:  # the filled slots read directly, as compose reads _half
        f1, f2 = d1._frame, d2._frame
    except AttributeError:
        f1, f2 = d1.frames(), d2.frames()
    if f1.bot != f2.top:
        z = spec._zeros.get("bar")
        return Element.zero(spec, "bar") if z is None else z
    comp = compose(d1, d2)
    key = ("bar", comp.diagram, comp.loops, ())
    r = spec._products.get(key)
    return _structured(spec, key) if r is None else r


def tilde_multiply(spec, d1, d2):
    """Product of two tilde-basis vectors, in tilde coordinates.

    Zero when the factors are obstructed: a middle-row column where one
    factor has a horizontal-edge end and the other an isolated vertex, that
    is, a cup end of d2 outside the bottom frame of d1 or a cap end of d1
    outside the top frame of d2.  Otherwise
    (delta-1)^{#loops} prod_{t in S} (1 - p_t) tilde(d1 o d2), expanded as a
    signed sum of tilde-basis vectors over the subsets of S (each p_t drops
    one through edge).  S holds the through edges of the composite that
    snake through an interior cup or cap, read from ``compose``, whose
    composition plan names them once per pair of half-diagram signatures.
    With S empty the product is the one term tilde(d1 o d2).  The result is
    shared and immutable: one ``Element`` per spec object and (composite,
    loops, S), built and checked on first sight, so a result ``spec`` does
    not admit in the tilde basis raises ``ValueError``.  Frames and zeros
    are read as in :func:`bar_multiply`.
    """
    try:
        f1, f2 = d1._frame, d2._frame
    except AttributeError:
        f1, f2 = d1.frames(), d2.frames()
    if not (f2.top_h <= f1.bot and f1.bot_h <= f2.top):
        z = spec._zeros.get("tilde")
        return Element.zero(spec, "tilde") if z is None else z
    comp = compose(d1, d2)
    key = ("tilde", comp.diagram, comp.loops, comp.snakes)
    r = spec._products.get(key)
    return _structured(spec, key) if r is None else r


def epsilon(spec, i):
    """tilde(e_i) = (1 - p_i) e_i (1 - p_i), as a 4-term diagram-basis element."""
    return tilde_of(spec, gen_e(i, spec.k))
