"""Named verification checks, grouped into suites.

Each check returns (ok, detail); one that raises fails with the exception
as its detail, and the suite goes on.  The ``all`` suite aggregates
everything; k caps default to 3 (exhaustive range) and may be raised to 4
where a check documents an opt-in.  The CLI surfaces these as ``ptl verify``.

The brute-force references expand, act and recollect.  They read each
expansion from the ``_expansion`` cache that ``change_basis`` reads, and
take each other distinct piece of that work from a table local to one
check and one algebra: the structured-products oracle composes each pair
of expansion terms once, and the bar-path check acts each expansion term
on each plain path once and recollects each plain path once, summing the
recollections by linearity.  They stay independent of the rules they
check: the oracle multiplies in the diagram basis by compose, sums the
integer coefficients per composite and loop count and weighs each sum by
delta^n itself, never by ``bar_multiply`` or ``tilde_multiply``, and the
bar-path check acts through ``cells.act_on_path``, never through
``cells.bar_act``; a reference that shared a rule's code would agree with
that rule's faults.

The block-isomorphism check takes its right-hand side from matrix units.
Each basis block ``to_block(bar d)`` must be the single entry (A, B) -> t of
the triple (A, t, B) of d over TL_n(delta - 1).  Then bar(d1) bar(d2),
formed by ``bar_multiply`` for every ordered pair, must be zero unless d1
and d2 share a stratum and B1 = A2, and otherwise its block must be the
single entry (A1, B2) -> t1 t2.  Each TL product t1 t2 is formed once per k
by ``Element`` multiplication in TL_n(delta - 1), and no block is multiplied.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import cells, diagram, ptl, qcriteria, repn
from .algebra import (AlgebraSpec, Element, _expansion, _loop_factor, bar_multiply, bar_of,
                      change_basis, epsilon, motzkin_spec, ptl_spec, tilde_multiply,
                      tilde_of, tl_spec)
from .diagram import (balanced_motzkin_diagrams, compose, diagram_of, gen_e, gen_l,
                      gen_p, gen_r, motzkin_diagrams, n_subsets, tl_diagrams, triple_of)
from .linalg import SparseMatrix
from .scalar import DeltaPoly, LaurentPoly


def _oracle(spec):
    """The expand-multiply-recollect reference for the structured products
    of ``spec``, a Motzkin spec: ``oracle(d1, d2, which)`` multiplies
    bar(d1) bar(d2) or tilde(d1) tilde(d2) out in the diagram basis, by
    compose, and recollects by change_basis.  The expansions come from the
    ``_expansion`` cache that ``change_basis`` reads, which neither rule
    calls.  The integer products c1 c2 of two expansion terms are summed
    per (composite, n), n its closed loops, and each sum is weighed by
    delta^n once, as the diagram-basis product does.  Each pair of
    expansion terms is composed once, in a table that belongs to the
    returned function.
    """
    products = {}

    def oracle(d1, d2, which):
        acc = {}
        terms2 = _expansion(d2, which)
        for t1, c1 in _expansion(d1, which).items():
            for t2, c2 in terms2.items():
                key = products.get((t1, t2))
                if key is None:
                    comp = compose(t1, t2)
                    key = products[(t1, t2)] = (comp.diagram, comp.loops)
                acc[key] = acc.get(key, 0) + c1 * c2
        out = {}
        for (d, n), c in acc.items():
            if c and n:
                c = c * _loop_factor(spec.delta, n, 0)
            if c:
                out[d] = out.get(d, 0) + c
        x = Element._of(spec, {d: c for d, c in out.items() if c}, "diagram")
        return change_basis(x, which)

    return oracle


def check_dimensions(kcap):
    want = [1, 2, 7, 33, 183, 1118]
    for k in range(min(kcap, 4) + 1):
        if ptl.ptl_dimension(k) != want[k]:
            return False, "ptl_dimension(%d) != %d" % (k, want[k])
        if len(balanced_motzkin_diagrams(k)) != want[k]:
            return False, "enumeration mismatch at k=%d" % k
    return True, "dims %s" % (want[: min(kcap, 4) + 1],)


def check_monoid_sizes(kcap):
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for k in range(min(kcap + 2, 6) + 1):
        if len(tl_diagrams(k)) != catalan[k]:
            return False, "|TL(%d)| != %d" % (k, catalan[k])
    motzkin = [1, 2, 9, 51, 323]
    for k in range(min(kcap, 4) + 1):
        if len(motzkin_diagrams(k)) != motzkin[k]:
            return False, "|motzkin(%d)| != %d" % (k, motzkin[k])
    return True, "Catalan and Motzkin counts verified"


def check_structured_products(kcap):
    cases = []
    for k in range(2, min(kcap, 3) + 1):
        pool = balanced_motzkin_diagrams(k) if k > 2 else motzkin_diagrams(k)
        cases.append((motzkin_spec(k), [(d1, d2) for d1 in pool for d2 in pool]))
    if kcap >= 4:
        rng = random.Random(20240404)
        pool = balanced_motzkin_diagrams(4)
        cases.append((motzkin_spec(4),
                      [(rng.choice(pool), rng.choice(pool)) for _ in range(150)]))
    for spec, pairs in cases:
        oracle = _oracle(spec)
        for d1, d2 in pairs:
            for which, rule in (("bar", bar_multiply), ("tilde", tilde_multiply)):
                if rule(spec, d1, d2) != oracle(d1, d2, which):
                    return False, "%s rule fails at %r * %r" % (which, d1, d2)
    return True, "structured products match the oracle (exhaustive k <= 3%s)" % (
        ", sampled k = 4" if kcap >= 4 else "")


def check_eight_term_identity(kcap):
    spec = motzkin_spec(3)
    lhs = tilde_of(spec, gen_e(1, 3)) * tilde_of(spec, gen_e(2, 3))
    d3 = compose(gen_e(1, 3), gen_e(2, 3)).diagram
    rhs = (Element.unit(spec) - Element.of(spec, gen_p(3, 3))) * tilde_of(spec, d3)
    if lhs != rhs or len(lhs.terms) != 8:
        return False, "tilde(e1) tilde(e2) != (1 - p3) tilde(e1 e2)"
    return True, "8-term identity holds"


def check_generator_identities(kcap):
    delta = DeltaPoly.gen()
    for k in range(2, min(kcap, 4) + 1):
        pspec = AlgebraSpec("partition", k)
        mspec = motzkin_spec(k)
        for i in range(1, k):
            b = Element.of(pspec, diagram.gen_b(i, k))
            p_i = Element.of(pspec, gen_p(i, k))
            p_i1 = Element.of(pspec, gen_p(i + 1, k))
            if b * p_i * p_i1 * b != Element.of(pspec, gen_e(i, k)):
                return False, "e_%d != b p p b at k=%d" % (i, k)
            r = Element.of(mspec, gen_r(i, k))
            l = Element.of(mspec, gen_l(i, k))
            if r * l != Element.of(mspec, gen_p(i, k)):
                return False, "r_%d l_%d != p_%d at k=%d" % (i, i, i, k)
            if i >= 2:
                lo = Element.of(mspec, gen_l(i - 1, k)) * Element.of(mspec, gen_r(i - 1, k))
                if lo != Element.of(mspec, gen_p(i, k)):
                    return False, "l r != p at k=%d" % k
        tspec = tl_spec(k)
        es = [Element.of(tspec, gen_e(i, k)) for i in range(1, k)]
        eps = [epsilon(mspec, i) for i in range(1, k)]
        # bar(e_i): the embedded TL_k(delta-1) generator family, in the diagram basis
        bars = [bar_of(mspec, gen_e(i, k)) for i in range(1, k)]
        for i, e in enumerate(es):
            if e * e != delta * e:
                return False, "e^2 != delta e"
            if eps[i] * eps[i] != (delta - 1) * eps[i]:
                return False, "eps^2 != (delta-1) eps"
            if bars[i] * bars[i] != (delta - 1) * bars[i]:
                return False, "bar(e)^2 != (delta-1) bar(e)"
        for i in range(len(es) - 1):
            if es[i] * es[i + 1] * es[i] != es[i]:
                return False, "e e e != e"
            if bars[i] * bars[i + 1] * bars[i] != bars[i]:
                return False, "bar(e) braid relation fails"
        for i in range(len(es)):
            for j in range(i + 2, len(es)):
                if es[i] * es[j] != es[j] * es[i] or eps[i] * eps[j] != eps[j] * eps[i]:
                    return False, "distant generators do not commute"
                if bars[i] * bars[j] != bars[j] * bars[i]:
                    return False, "distant bar images do not commute"
    return True, "generator identities hold for k <= %d" % min(kcap, 4)


def check_block_isomorphism(kcap):
    kmax = min(kcap, 4)
    for k in range(2, kmax + 1):
        spec = ptl_spec(k)
        basis = balanced_motzkin_diagrams(k)
        # to_block puts bar(d) at entry (A, B) as t: one-to-one on the basis
        if any(diagram_of(*triple_of(d), k) is not d for d in basis):
            return False, "triple bijection does not invert at k=%d" % k
        # stratum n: the positions of the colex n-subsets and TL_n(delta - 1)
        strata = [({A: i for i, A in enumerate(n_subsets(k, n))}, tl_spec(n, spec.delta - 1))
                  for n in range(k + 1)]
        triples = {d: triple_of(d) for d in basis}
        edges = {d: d.n_edges() for d in basis}
        # each basis block is the matrix unit (A, B) -> t
        for d in basis:
            A, t, B = triples[d]
            idx, tspec = strata[edges[d]]
            want = _unit(idx, A, B, Element.of(tspec, t))
            if ptl.to_block(Element.of(spec, d, 1, "bar")) != want:
                return False, "block transport fails at %r" % (d,)
        # so bar(d1) bar(d2) is zero unless d1, d2 share a stratum and B1 = A2,
        # and then its block is the unit (A1, B2) -> t1 t2
        tl_products = {}
        for d1 in basis:
            A1, t1, B1 = triples[d1]
            n = edges[d1]
            idx, tspec = strata[n]
            for d2 in basis:
                prod = bar_multiply(spec, d1, d2)
                if edges[d2] != n:
                    if not prod.is_zero():
                        return False, "cross-stratum product nonzero"
                    continue
                A2, t2, B2 = triples[d2]
                if B1 == A2:
                    tt = tl_products.get((t1, t2))
                    if tt is None:
                        tt = tl_products[(t1, t2)] = Element.of(tspec, t1) * Element.of(tspec, t2)
                    ok = ptl.to_block(prod, n) == _unit(idx, A1, B2, tt)
                else:
                    ok = prod.is_zero()
                if not ok:
                    return False, "block transport fails at %r, %r" % (d1, d2)
    return True, "block transport verified for k <= %d" % kmax


def _unit(idx, A, B, entry):
    """The square block over the subsets of ``idx`` holding ``entry`` at (A, B) alone."""
    return SparseMatrix(len(idx), len(idx), {(idx[A], idx[B]): entry})


def check_generated_dimension(kcap):
    for k in range(2, min(kcap, 3) + 1):
        spec = ptl_spec(k)
        gens = []
        for i in range(1, k):
            gens += [Element.of(spec, gen_r(i, k)), Element.of(spec, gen_l(i, k)),
                     epsilon(spec, i)]
        dim = ptl.generated_dimension(gens)
        if dim != ptl.ptl_dimension(k):
            return False, "generated dim %d != %d at k=%d" % (dim, ptl.ptl_dimension(k), k)
    return True, "l, r, eps generate the full algebra for k <= %d" % min(kcap, 3)


def check_cell_dims(kcap):
    table4 = {(0, 0): 1, (1, 0): 4, (2, 0): 6, (1, 1): 6, (3, 0): 4,
              (2, 1): 8, (4, 0): 1, (3, 1): 3, (2, 2): 2}
    if cells.cell_dims("ptl", 4) != table4:
        return False, "cell dimension table at k=4 is wrong"
    if sum(v * v for v in table4.values()) != 183:
        return False, "sum of squares != 183"
    for k in range(min(kcap, 5) + 1):
        dims = cells.cell_dims("ptl", k)
        if dims != repn.pieri_dims(k):
            return False, "cell dims disagree with branching counts at k=%d" % k
        if sum(v * v for v in dims.values()) != ptl.ptl_dimension(k):
            return False, "sum of squares mismatch at k=%d" % k
    return True, "cell dimension tables verified"


def check_bar_path_action(kcap):
    delta = DeltaPoly.gen()
    k = min(kcap, 3)
    spec = motzkin_spec(k)
    bar_paths = {a: cells.bar_path(a) for a in cells.motzkin_paths(k)}
    # (expansion term, plain path) -> (delta^N, image path), acted once
    actions = {}
    # plain path -> its bar-path coordinates, recollected once: recollection
    # is linear, so a combination's is the sum of its paths'
    recollected = {}
    for d in balanced_motzkin_diagrams(k):
        expansion = bar_of(spec, d)
        for a, bar_a in bar_paths.items():
            acc = {}
            for dt, cd in expansion.terms.items():
                for p, cp in bar_a.items():
                    hit = actions.get((dt, p))
                    if hit is None:
                        n, b = cells.act_on_path(dt, p)
                        hit = actions[(dt, p)] = (delta ** n if n else 1, b)
                    scalar, b = hit
                    acc[b] = acc.get(b, 0) + cd * cp * scalar
            brute = {}
            for b, c in acc.items():
                if not c:
                    continue
                coords = recollected.get(b)
                if coords is None:
                    coords = recollected[b] = cells.collect_bar_paths({b: 1})
                for p, cp in coords.items():
                    brute[p] = brute.get(p, 0) + c * cp
            brute = {p: c for p, c in brute.items() if c}
            hit = cells.bar_act(spec, d, a)
            want = {} if hit is None else {hit[1]: hit[0]}
            if brute != want:
                return False, "bar action mismatch at %r, %r" % (d, a)
    return True, "bar-path action matches brute force at k=%d" % k


def check_tl_restriction(kcap):
    for k in range(2, min(kcap, 4) + 1):
        mspec, tspec = motzkin_spec(k), tl_spec(k)
        for lam in range(k % 2, k + 1, 2):
            basis_m = cells.cell_basis("motzkin", k, lam)
            sel = [basis_m.index(a) for a in cells.cell_basis("tl", k, lam)]
            for i in range(1, k):
                mm = cells.cell_action("motzkin", lam, Element.of(mspec, gen_e(i, k)))
                mt = cells.cell_action("tl", lam, Element.of(tspec, gen_e(i, k)))
                for r, rm in enumerate(sel):
                    for c, cm in enumerate(sel):
                        if mm[(rm, cm)] != mt[(r, c)]:
                            return False, "restriction fails at k=%d lam=%d" % (k, lam)
    return True, "zero-free restriction reproduces the TL cell action"


def check_commutation(kcap):
    cfg = repn.RepConfig()
    for k in range(2, min(kcap, 3) + 1):
        sl2 = [repn.qgen_matrix(u, k) for u in repn.SL2_GENERATORS]
        gl2 = sl2 + [repn.qgen_matrix("K1", k), repn.qgen_matrix("K2", k)]
        for i in range(1, k):
            trio = [repn.diagram_matrix(gen_e(i, k), cfg),
                    repn.diagram_matrix(gen_r(i, k), cfg),
                    repn.diagram_matrix(gen_l(i, k), cfg)]
            for gm in trio:
                for u in sl2:
                    if not gm.commutator(u).is_zero():
                        return False, "sl2 commutation fails at k=%d" % k
            eps = repn.modified_weight_matrix(gen_e(i, k), "tilde", cfg)
            for gm in (eps, trio[1], trio[2]):
                for u in gl2:
                    if not gm.commutator(u).is_zero():
                        return False, "gl2 commutation fails at k=%d" % k
    return True, "symbolic commutation verified for k <= %d" % min(kcap, 3)


def check_projections(kcap):
    eps = repn.modified_weight_matrix(gen_e(1, 2), "tilde", repn.RepConfig())
    if eps * eps != eps.scale(LaurentPoly({1: -1, -1: -1})):
        return False, "eps^2 != -(q + q^-1) eps"
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        cfg = repn.RepConfig(alpha)
        b = repn.b_matrix(cfg)
        if b * b != b.scale(cfg.delta_value()):
            return False, "B(alpha)^2 mismatch at alpha=%s" % alpha
    return True, "projection relations hold"


def check_schur_weyl(kcap):
    cfg = repn.RepConfig()
    kmax = min(kcap, 4)
    for k in range(kmax + 1):
        if repn.commutant_dim(k, 2, "gl2") != ptl.ptl_dimension(k):
            return False, "gl2 commutant mismatch at k=%d" % k
        if repn.commutant_dim(k, 2, "sl2") != len(motzkin_diagrams(k)):
            return False, "sl2 commutant mismatch at k=%d" % k
    for k in range(2, kmax + 1):
        spec = motzkin_spec(k)
        tilde_basis = [Element.of(spec, d, 1, "tilde")
                       for d in balanced_motzkin_diagrams(k)]
        if repn.representation_rank(tilde_basis, 2, cfg) != ptl.ptl_dimension(k):
            return False, "faithfulness rank mismatch at k=%d" % k
    return True, "commutant dims and faithfulness verified for k <= %d" % kmax


def check_jones(kcap):
    for n in range(11):
        if qcriteria.jones_identity_symbolic(n) != qcriteria.q_int(n + 1):
            return False, "Jones identity fails at n=%d" % n
        if not qcriteria.jones_identity_check(n, 2):
            return False, "Jones evaluation fails at n=%d" % n
    return True, "Jones identity holds symbolically for n <= 10"


def check_semisimplicity(kcap):
    for k in range(1, 9):
        if not qcriteria.tl_semisimple(k, 2):
            return False, "semisimplicity fails at q0=2, k=%d" % k
        if not qcriteria.tl_semisimple(k, 1):
            return False, "q0=1 specialization fails at k=%d" % k
    if qcriteria.tl_semisimple_at_root_of_unity(2, 4):
        return False, "missed the vanishing of <2>_q at a primitive 4th root"
    return True, "semisimplicity criteria verified"


def check_associativity_sample(kcap):
    rng = random.Random(20240817)
    k = min(kcap, 4)
    pool = motzkin_diagrams(k) if k <= 3 else balanced_motzkin_diagrams(k)
    spec = motzkin_spec(k)
    for _ in range(25):
        x, y, z = (Element.of(spec, rng.choice(pool)) for _ in range(3))
        if (x * y) * z != x * (y * z):
            return False, "associativity fails"
    return True, "associativity sampled at k=%d" % k


SUITES = {
    "algebra": [
        ("monoid-sizes", check_monoid_sizes),
        ("structured-products", check_structured_products),
        ("eight-term-identity", check_eight_term_identity),
        ("generator-identities", check_generator_identities),
        ("associativity", check_associativity_sample),
    ],
    "ptl": [
        ("dimension-table", check_dimensions),
        ("block-isomorphism", check_block_isomorphism),
        ("generated-dimension", check_generated_dimension),
    ],
    "cells": [
        ("cell-dimensions", check_cell_dims),
        ("bar-path-action", check_bar_path_action),
        ("tl-restriction", check_tl_restriction),
    ],
    "repn": [
        ("commutation", check_commutation),
        ("projections", check_projections),
        ("schur-weyl", check_schur_weyl),
    ],
    "appendix": [
        ("jones-identity", check_jones),
        ("semisimplicity", check_semisimplicity),
    ],
}


def run_suite(name, kcap=3):
    """Run one suite (or ``all``): list of (check name, ok, detail)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError("unknown suite %r" % (name,))
    results = []
    for suite in names:
        for check_name, fn in SUITES[suite]:
            try:
                ok, detail = fn(kcap)
            except Exception as exc:
                ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
            results.append(("%s/%s" % (suite, check_name), ok, detail))
    return results
