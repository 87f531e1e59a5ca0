"""Command-line front end.

Verbs: mul, convert, dims, cell-dims, centralizer, bratteli, semisimple,
verify, render, enumerate.  Every verb has a ``--json`` machine-readable
mode.  Exit codes: 0 success, 1 verification failure, 2 usage or input
error (one stderr line, as argparse does).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cells, ptl, qcriteria, repn, verify
from .algebra import AlgebraSpec, Element, change_basis
from .diagram import Diagram, enumerate_diagrams
from .render import ascii_diagram, ascii_element, tikz_diagram, tikz_element
from .scalar import DeltaPoly


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %r" % (text,)) from exc


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _spec_for(args, k):
    delta = DeltaPoly.gen()
    dp = getattr(args, "delta_prime", None)
    return AlgebraSpec(args.algebra, k, delta, dp if dp is not None else 1)


def _element_from_json(args, obj):
    """The element of an element JSON object; its k is ``"k"`` when present,
    otherwise the common k of its terms.  Input errors exit 2."""
    ks = {Diagram.from_json(t["diagram"]).k for t in obj["terms"]}
    if "k" in obj:
        ks.add(obj["k"])
    k = ks.pop() if len(ks) == 1 else None
    if type(k) is not int or k < 0:
        print('element needs one k: a nonnegative integer "k", or terms that share one',
              file=sys.stderr)
        raise SystemExit(2)
    return Element.from_json(_spec_for(args, k), obj)


def _print_element_json(x):
    """An element's JSON with its "k", so that a zero element reads back."""
    print(json.dumps({"k": x.spec.k, **x.to_json()}))


def cmd_mul(args):
    x = _element_from_json(args, _read_json(args.x))
    y = _element_from_json(args, _read_json(args.y))
    out = x * y
    if args.json:
        _print_element_json(out)
    else:
        print(out)
    return 0


def cmd_convert(args):
    x = _element_from_json(args, _read_json(args.element))
    out = change_basis(x, args.to)
    if args.json:
        _print_element_json(out)
    else:
        print(out)
    return 0


def cmd_dims(args):
    strata = ptl.strata_dims(args.k)
    total = sum(strata)
    if args.json:
        print(json.dumps({"k": args.k, "strata": strata, "total": total}))
    else:
        print("n   binom(k,n)^2 * Catalan(n)")
        for n, v in enumerate(strata):
            print("%-3d %d" % (n, v))
        print("total %d" % total)
    return 0


def cmd_cell_dims(args):
    dims = cells.cell_dims(args.algebra, args.k)
    if args.json:
        payload = {"k": args.k, "algebra": args.algebra,
                   "dims": [{"lambda": list(lam) if isinstance(lam, tuple) else lam,
                             "dim": v} for lam, v in sorted(dims.items())]}
        print(json.dumps(payload))
    else:
        print("lambda   dim")
        for lam, v in sorted(dims.items()):
            print("%-8s %d" % (lam, v))
        print("sum of squares: %d" % sum(v * v for v in dims.values()))
    return 0


def cmd_centralizer(args):
    if args.k > 4:
        print("centralizer computations are capped at k = 4", file=sys.stderr)
        return 2
    if args.k == 4 and not args.allow_k4:
        print("k = 4 has 3^8 unknowns; pass --allow-k4 to proceed", file=sys.stderr)
        return 2
    if args.q in (0, 1, -1):
        print("centralizer needs q outside {0, 1, -1}", file=sys.stderr)
        return 2
    dim = repn.commutant_dim(args.k, args.q, args.group)
    if args.json:
        print(json.dumps({"k": args.k, "q": str(args.q), "group": args.group,
                          "dimension": dim}))
    else:
        print("dim End_%s(V^tensor%d) at q = %s: %d"
              % (args.group, args.k, args.q, dim))
    return 0


def cmd_bratteli(args):
    rows = [repn.pieri_dims(level) for level in range(args.k + 1)]
    if args.json:
        payload = [{"level": lvl,
                    "counts": [{"lambda": list(lam), "paths": c}
                               for lam, c in sorted(row.items())],
                    "sum_of_squares": sum(c * c for c in row.values())}
                   for lvl, row in enumerate(rows)]
        print(json.dumps(payload))
    else:
        for lvl, row in enumerate(rows):
            cells_txt = "  ".join("%s:%d" % (lam, c) for lam, c in sorted(row.items()))
            print("k=%d  %s  | dim %d" % (lvl, cells_txt,
                                          sum(c * c for c in row.values())))
    return 0


def cmd_semisimple(args):
    if args.q == 0:
        print("semisimple needs a nonzero q", file=sys.stderr)
        return 2
    ok, bad = qcriteria.tl_semisimple_witness(args.k, args.q)
    if args.json:
        payload = {"k": args.k, "q": str(args.q), "semisimple": ok}
        if not ok:
            payload["vanishing_factor"] = "<%d>_q" % bad
        print(json.dumps(payload))
    else:
        if ok:
            print("semisimple: <n>_q nonzero at q=%s for all n <= %d" % (args.q, args.k))
        else:
            print("NOT semisimple: <%d>_q vanishes at q=%s" % (bad, args.q))
    return 0


def cmd_verify(args):
    results = verify.run_suite(args.suite, args.k)
    failures = 0
    payload = []
    for name, ok, detail in results:
        if args.json:
            payload.append({"check": name, "ok": ok, "detail": detail})
        else:
            print("%-32s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
        failures += 0 if ok else 1
    if args.json:
        print(json.dumps({"results": payload, "failures": failures}))
    return 1 if failures else 0


def cmd_render(args):
    obj = _read_json(args.input)
    cfg = repn.RepConfig(args.alpha, args.sign)
    if "terms" in obj:
        x = _element_from_json(args, obj)
        if args.format == "json":
            _print_element_json(x)
        elif args.format == "ascii":
            print(ascii_element(x))
        elif args.format == "matrix":
            print(repn.element_matrix(x, cfg).to_coord_text())
        else:
            print(tikz_element(x))
    else:
        d = Diagram.from_json(obj)
        if args.format == "json":
            print(json.dumps(d.to_json()))
        elif args.format == "ascii":
            print(ascii_diagram(d))
        elif args.format == "matrix":
            print(repn.diagram_matrix(d, cfg).to_coord_text())
        else:
            print(tikz_diagram(d))
    return 0


def cmd_enumerate(args):
    kind = args.kind.replace("-", "_")
    if kind == "balanced_motzkin_n" and args.n is None:
        print("--kind balanced-motzkin-n requires --n", file=sys.stderr)
        return 2
    ds = enumerate_diagrams(kind, args.k, args.n)
    if args.json:
        print(json.dumps({"kind": args.kind, "k": args.k, "count": len(ds),
                          "diagrams": [d.to_json() for d in ds]}))
    else:
        print("%d diagrams" % len(ds))
        for d in ds:
            print(json.dumps(d.to_json()))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ptl",
        description="Exact computations in the partial Temperley-Lieb tower")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, algebra=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if algebra:
            p.add_argument("--algebra", default="motzkin",
                           choices=("partition", "partial_brauer", "motzkin", "tl", "ptl"))
            p.add_argument("--delta-prime", dest="delta_prime", type=_fraction,
                           default=None, help="second loop parameter (default 1)")

    p = sub.add_parser("mul", help="multiply two elements (JSON files or '-')")
    p.add_argument("x")
    p.add_argument("y")
    common(p, algebra=True)
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("convert", help="change the basis of an element")
    p.add_argument("element")
    p.add_argument("--to", required=True, choices=("diagram", "bar", "tilde"))
    common(p, algebra=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("dims", help="dimension strata of the algebra")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("cell-dims", help="cell module dimension table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algebra", default="ptl", choices=("tl", "motzkin", "ptl"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cell_dims)

    p = sub.add_parser("centralizer", help="exact commutant dimension on tensor space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=_fraction, default=Fraction(2))
    p.add_argument("--group", default="gl2", choices=("gl2", "sl2"))
    p.add_argument("--allow-k4", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_centralizer)

    p = sub.add_parser("bratteli", help="branching path counts per level")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_bratteli)

    p = sub.add_parser("semisimple", help="semisimplicity verdict at a rational q")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=_fraction, required=True)
    common(p)
    p.set_defaults(fn=cmd_semisimple)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    p.add_argument("--k", type=int, default=3, choices=(2, 3, 4),
                   help="exhaustive-range cap (4 is the documented opt-in)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="render a diagram or element")
    p.add_argument("input", help="JSON file, or '-' for stdin")
    p.add_argument("--format", default="ascii",
                   choices=("ascii", "tikz", "json", "matrix"))
    p.add_argument("--alpha", type=_fraction, default=Fraction(1),
                   help="form parameter for the tensor-space matrix")
    p.add_argument("--sign", default="-", choices=("+", "-"),
                   help="sign in delta = 1 +- (q + q^-1)")
    common(p, algebra=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("enumerate", help="list a diagram family")
    p.add_argument("--kind", required=True,
                   choices=("partial-brauer", "motzkin", "tl",
                            "balanced-motzkin", "balanced-motzkin-n"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="stratum (edge count)")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
