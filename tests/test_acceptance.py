"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every assertion is exact (integer / polynomial / rational equality); the
stated runtime budgets are enforced with a monotonic clock.
"""

import time
from fractions import Fraction
from math import comb, factorial

from ptlalg.algebra import (AlgebraSpec, Element, bar_multiply, bar_of,
                            change_basis, epsilon, motzkin_spec,
                            tilde_multiply, tilde_of, tl_spec)
from ptlalg.cells import (act_on_path, bar_act, bar_path, cell_action,
                          cell_basis, cell_dims, collect_bar_paths,
                          motzkin_paths)
from ptlalg.diagram import (balanced_motzkin_diagrams, compose, gen_b, gen_e,
                            gen_l, gen_p, gen_r, motzkin_diagrams,
                            tl_diagrams)
from ptlalg.ptl import generated_dimension, ptl_dimension, to_block
from ptlalg.qcriteria import jones_identity_symbolic, q_int, tl_semisimple
from ptlalg.repn import (RepConfig, SL2_GENERATORS, b_matrix, commutant_dim,
                         diagram_matrix, qgen_matrix, representation_rank)
from ptlalg.scalar import DeltaPoly, LaurentPoly
from test_qcriteria import balanced_q_factorial
from test_repn import epsilon_matrix

delta = DeltaPoly.gen()
q = LaurentPoly.gen()
qi = LaurentPoly.monomial(-1)


def _report(num, ok, elapsed, budget, detail):
    verdict = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d: %s  (%.2fs / %ds)  %s" % (num, verdict, elapsed,
                                                     budget, detail))
    assert ok, detail
    assert elapsed < budget, "criterion %d exceeded %ds (%.2fs)" % (num, budget,
                                                                    elapsed)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_criterion_1_dimension_table():
    t0 = time.monotonic()
    want = [1, 2, 7, 33, 183]
    ok = True
    for k in range(5):
        formula = sum(comb(k, n) ** 2 * catalan(n) for n in range(k + 1))
        enumerated = balanced_motzkin_diagrams(k)
        ok &= ptl_dimension(k) == want[k] == formula == len(enumerated)
        ok &= len(set(enumerated)) == len(enumerated)
    _report(1, ok, time.monotonic() - t0, 1, "ptl dims 1, 2, 7, 33, 183")


def test_criterion_2_monoid_sizes():
    t0 = time.monotonic()
    ok = all(len(tl_diagrams(k)) == catalan(k) for k in range(7))
    ok &= len(motzkin_diagrams(2)) == 9
    motzkin_counts = [1, 2, 9, 51, 323, 2188]
    ok &= all(len(motzkin_diagrams(k)) == motzkin_counts[k] for k in range(6))
    # closure of the product: planar partial Brauer composites stay planar
    pool = motzkin_diagrams(3)
    ok &= all(compose(d1, d2).diagram.is_planar()
              for d1 in pool for d2 in pool)
    _report(2, ok, time.monotonic() - t0, 5, "Catalan / Motzkin monoid sizes")


def test_criterion_3_structured_product_oracle():
    t0 = time.monotonic()

    def oracle(spec, d1, d2, which):
        expander = bar_of if which == "bar" else tilde_of
        return change_basis(expander(spec, d1) * expander(spec, d2), which)

    ok = True
    M3 = motzkin_spec(3)
    pool3 = balanced_motzkin_diagrams(3)
    for d1 in pool3:
        for d2 in pool3:
            ok &= bar_multiply(M3, d1, d2) == oracle(M3, d1, d2, "bar")
            ok &= tilde_multiply(M3, d1, d2) == oracle(M3, d1, d2, "tilde")
    M2 = motzkin_spec(2)
    pool2 = motzkin_diagrams(2)
    for d1 in pool2:
        for d2 in pool2:
            ok &= bar_multiply(M2, d1, d2) == oracle(M2, d1, d2, "bar")
            ok &= tilde_multiply(M2, d1, d2) == oracle(M2, d1, d2, "tilde")
    _report(3, ok, time.monotonic() - t0, 30,
            "bar/tilde rules == oracle on 33^2 balanced and 9^2 Motzkin pairs")


def test_criterion_4_eight_term_identity():
    t0 = time.monotonic()
    M3 = motzkin_spec(3)
    lhs = tilde_of(M3, gen_e(1, 3)) * tilde_of(M3, gen_e(2, 3))
    d3 = compose(gen_e(1, 3), gen_e(2, 3)).diagram
    rhs = (Element.unit(M3) - Element.of(M3, gen_p(3, 3))) * tilde_of(M3, d3)
    ok = lhs == rhs and len(lhs.terms) == 8
    ok &= sorted(lhs.terms.values()) == [-1] * 4 + [1] * 4
    _report(4, ok, time.monotonic() - t0, 30,
            "tilde(e1) tilde(e2) = (1 - p3) tilde(e1 e2), 8 signed diagrams")


def test_criterion_5_generator_identities():
    t0 = time.monotonic()
    ok = True
    for k in range(2, 5):
        pspec = AlgebraSpec("partition", k)
        mspec = motzkin_spec(k)
        tspec = tl_spec(k)
        for i in range(1, k):
            b = Element.of(pspec, gen_b(i, k))
            chain = b * Element.of(pspec, gen_p(i, k)) \
                      * Element.of(pspec, gen_p(i + 1, k)) * b
            ok &= chain == Element.of(pspec, gen_e(i, k))
            r = Element.of(mspec, gen_r(i, k))
            l = Element.of(mspec, gen_l(i, k))
            ok &= r * l == Element.of(mspec, gen_p(i, k))
            ok &= l * r == Element.of(mspec, gen_p(i + 1, k))
        es = [Element.of(tspec, gen_e(i, k)) for i in range(1, k)]
        eps = [epsilon(mspec, i) for i in range(1, k)]
        bars = [bar_of(mspec, gen_e(i, k)) for i in range(1, k)]
        for i in range(k - 1):
            ok &= es[i] * es[i] == delta * es[i]
            ok &= eps[i] * eps[i] == (delta - 1) * eps[i]
            ok &= bars[i] * bars[i] == (delta - 1) * bars[i]
        for i in range(k - 2):
            ok &= es[i] * es[i + 1] * es[i] == es[i]
            ok &= es[i + 1] * es[i] * es[i + 1] == es[i + 1]
            ok &= bars[i] * bars[i + 1] * bars[i] == bars[i]
            ok &= bars[i + 1] * bars[i] * bars[i + 1] == bars[i + 1]
        for i in range(k - 1):
            for j in range(i + 2, k - 1):
                ok &= es[i] * es[j] == es[j] * es[i]
                ok &= eps[i] * eps[j] == eps[j] * eps[i]
                ok &= bars[i] * bars[j] == bars[j] * bars[i]
    _report(5, ok, time.monotonic() - t0, 30,
            "e = b p p b, p = r l = l r, TL relations, delta-1 relations, k <= 4")


def test_criterion_6_block_isomorphism_and_generators():
    t0 = time.monotonic()
    ok = True
    spec = AlgebraSpec("ptl", 3)
    basis = balanced_motzkin_diagrams(3)
    blocks = {d: to_block(Element.of(spec, d, 1, "bar")) for d in basis}
    for d1 in basis:
        for d2 in basis:
            prod = bar_multiply(spec, d1, d2)
            if d1.n_edges() != d2.n_edges():
                ok &= prod.is_zero()
                continue
            rhs = to_block(prod, d1.n_edges())
            ok &= blocks[d1] * blocks[d2] == rhs
    for k in (2, 3):
        kspec = AlgebraSpec("ptl", k)
        gens = []
        for i in range(1, k):
            gens += [Element.of(kspec, gen_r(i, k)), Element.of(kspec, gen_l(i, k)),
                     epsilon(kspec, i)]
        ok &= generated_dimension(gens) == ptl_dimension(k)
    _report(6, ok, time.monotonic() - t0, 120,
            "block transport at k=3; <l, r, eps> has full dimension, k <= 3")


def test_criterion_7_cell_modules():
    t0 = time.monotonic()
    table4 = {(0, 0): 1, (1, 0): 4, (2, 0): 6, (1, 1): 6, (3, 0): 4,
              (2, 1): 8, (4, 0): 1, (3, 1): 3, (2, 2): 2}
    dims = cell_dims("ptl", 4)
    ok = dims == table4 and sum(v * v for v in dims.values()) == 183

    # bar-path action of Thm-PTL == brute-force W computation, exhaustive k=3
    spec = motzkin_spec(3)
    for d in balanced_motzkin_diagrams(3):
        expansion = bar_of(spec, d)
        for a in motzkin_paths(3):
            acc = {}
            for dt, cd in expansion.terms.items():
                for p, cp in bar_path(a).items():
                    n, b = act_on_path(dt, p)
                    acc[b] = acc.get(b, 0) + cd * cp * (delta ** n if n else 1)
            brute = collect_bar_paths(acc)
            hit = bar_act(spec, d, a)
            want = {} if hit is None else {hit[1]: hit[0]}
            ok &= brute == want

    # zero-free restriction reproduces the TL cell action, k <= 4
    for k in range(2, 5):
        mspec, tspec = motzkin_spec(k), tl_spec(k)
        for lam in range(k % 2, k + 1, 2):
            basis_m = cell_basis("motzkin", k, lam)
            sel = [basis_m.index(a) for a in cell_basis("tl", k, lam)]
            for i in range(1, k):
                mm = cell_action("motzkin", lam, Element.of(mspec, gen_e(i, k)))
                mt = cell_action("tl", lam, Element.of(tspec, gen_e(i, k)))
                ok &= all(mm[(sel[r], sel[c])] == mt[(r, c)]
                          for r in range(len(sel)) for c in range(len(sel)))
    _report(7, ok, time.monotonic() - t0, 120,
            "k=4 cell table 1,4,6,6,4,8,1,3,2; bar action == brute force; TL restriction")


def test_criterion_8_representation_relations():
    t0 = time.monotonic()
    ok = True
    cfg = RepConfig()
    for k in (2, 3):
        sl2 = [qgen_matrix(u, k) for u in SL2_GENERATORS]
        gl2 = sl2 + [qgen_matrix("K1", k), qgen_matrix("K2", k)]
        for i in range(1, k):
            trio = [diagram_matrix(g, cfg)
                    for g in (gen_e(i, k), gen_r(i, k), gen_l(i, k))]
            for gm in trio:
                ok &= all(gm.commutator(u).is_zero() for u in sl2)
            for gm in (epsilon_matrix(i, k), trio[1], trio[2]):
                ok &= all(gm.commutator(u).is_zero() for u in gl2)
    eps = epsilon_matrix(1, 2)
    ok &= eps * eps == eps.scale(-(q + qi))
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 3)):
        cfg2 = RepConfig(alpha)
        B = b_matrix(cfg2)
        ok &= B * B == B.scale(cfg2.delta_value())
    _report(8, ok, time.monotonic() - t0, 60,
            "symbolic commutation k <= 3; eps^2 and B(alpha)^2 relations")


def test_criterion_9_schur_weyl_dimensions():
    t0 = time.monotonic()
    ok = True
    cfg = RepConfig()
    gl2_want = [1, 2, 7, 33]
    for k in range(4):
        ok &= commutant_dim(k, 2, "gl2") == gl2_want[k] == ptl_dimension(k)
        # the sl2 commutant must equal |motzkin(k)| = 1, 2, 9, 51
        ok &= commutant_dim(k, 2, "sl2") == len(motzkin_diagrams(k))
    for k in (2, 3):
        spec = motzkin_spec(k)
        tilde_basis = [tilde_of(spec, d) for d in balanced_motzkin_diagrams(k)]
        ok &= representation_rank(tilde_basis, 2, cfg) == ptl_dimension(k)
    _report(9, ok, time.monotonic() - t0, 300,
            "gl2 commutant 1,2,7,33; sl2 commutant == |motzkin|; faithful rank")


def test_criterion_10_appendix():
    t0 = time.monotonic()
    ok = True
    for n in range(11):
        ok &= jones_identity_symbolic(n) == q_int(n + 1)
    for k in range(1, 9):
        ok &= tl_semisimple(k, 2)
        ok &= balanced_q_factorial(k).evaluate(1) == factorial(k)
        ok &= tl_semisimple(k, 1)
    _report(10, ok, time.monotonic() - t0, 60,
            "Jones identity n <= 10; semisimple at q=2 for k <= 8; q=1 gives k!")
