"""Command-line front end.

Verbs: mul, convert, dims, cell-dims, centralizer, bratteli, semisimple,
verify, render, enumerate.  Every verb has a machine-readable mode: ``--json``,
or render's ``--format json``.  Exit codes: 0 success, 1 verification failure,
2 usage or input error, 141 when the reader of stdout closed it early.

The library refuses what it cannot compute with a ``ValueError``; a verb
does not check its input again but lets the error through, and
:func:`main` reports it the way argparse reports a usage error: one stderr
line ``ptl <verb>: error: <reason>`` and exit 2.  A malformed JSON object
raises other errors while it loads, and only there are they turned into
that ``ValueError``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import cells, ptl, qcriteria, repn, verify
from .algebra import BASES, FLAVORS, AlgebraSpec, Element, change_basis
from .diagram import Diagram, _edge_json, check_k, count_diagrams, enumerate_keys
from .render import ascii_diagram, ascii_element, tikz_diagram, tikz_element
from .scalar import parse_scalar


def _fraction(text):
    """A rational option value, read by the scalar parser's rational rule."""
    try:
        value = parse_scalar(text)
    except ValueError:
        value = None
    if not isinstance(value, (int, Fraction)):
        raise argparse.ArgumentTypeError("not a rational number: %r" % (text,))
    return Fraction(value)


def _nonnegative_int(text):
    try:
        value = int(text)
        check_k(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not a nonnegative integer: %r" % (text,)) from None
    return value


def _refuse(prog, reason):
    """Report a usage error or a refused input as one stderr line, in
    argparse's ``prog: error: reason`` form, and exit 2."""
    sys.stderr.write("%s: error: %s\n" % (prog, " ".join(str(reason).split())))
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exits 2.

    A negative fraction such as ``-3/7`` is read as a value, the way
    argparse already reads ``-3`` and ``-0.5``, not as an option string.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):
        _refuse(self.prog, message)


# What a malformed JSON diagram or element raises while loading, besides
# the ValueErrors of the library's own checks.
_LOAD_ERRORS = (TypeError, KeyError, IndexError, AttributeError)


def _input_error(what, exc):
    """The ValueError that reports an input which cannot be loaded."""
    text = "missing key %s" % exc if isinstance(exc, KeyError) else str(exc)
    return ValueError("bad %s: %s" % (what, text))


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise _input_error("JSON input %s" % path, exc) from exc


def _element_from_json(args, obj):
    """The element of an element JSON object; its k is ``"k"`` when present,
    otherwise the common k of its terms."""
    try:
        terms = Element.json_terms(obj)
        ks = {d.k for d in terms}
        if "k" in obj:
            # checked before the set takes it: a list would not hash, and a
            # bool or a float would pass for the int it equals
            check_k(obj["k"])
            ks.add(obj["k"])
        if len(ks) != 1:
            raise ValueError('needs one k: a nonnegative integer "k", '
                             'or terms that share one')
        spec = AlgebraSpec(args.algebra, ks.pop())
        return Element(spec, terms, obj.get("basis", "diagram"))
    except _LOAD_ERRORS as exc:
        raise _input_error("element", exc) from exc


def _element_json(x):
    """An element's JSON with its "k", so that a zero element reads back."""
    return json.dumps({"k": x.spec.k, **x.to_json()})


def cmd_mul(args):
    x = _element_from_json(args, _read_json(args.x))
    y = _element_from_json(args, _read_json(args.y))
    out = x * y
    print(_element_json(out) if args.json else out)
    return 0


def cmd_convert(args):
    x = _element_from_json(args, _read_json(args.element))
    out = change_basis(x, args.to)
    print(_element_json(out) if args.json else out)
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
        raise ValueError("centralizer computations are capped at k = 4")
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
    ok = qcriteria.tl_semisimple(args.k, args.q)
    if args.json:
        print(json.dumps({"k": args.k, "q": str(args.q), "semisimple": ok}))
    elif ok:
        print("semisimple: <n>_q nonzero at q=%s for all n <= %d" % (args.q, args.k))
    else:
        print("NOT semisimple: some <n>_q with n <= %d vanishes at q=%s" % (args.k, args.q))
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


# format -> (element view, diagram view); both take the item and the RepConfig,
# under which the matrix view acts with delta = 1 - (q + q^-1)
_RENDERERS = {
    "ascii": (lambda x, cfg: ascii_element(x), lambda d, cfg: ascii_diagram(d)),
    "tikz": (lambda x, cfg: tikz_element(x), lambda d, cfg: tikz_diagram(d)),
    "json": (lambda x, cfg: _element_json(x), lambda d, cfg: json.dumps(d.to_json())),
    "matrix": (lambda x, cfg: repn.element_matrix(x, cfg).to_coord_text(),
               lambda d, cfg: repn.diagram_matrix(d, cfg).to_coord_text()),
}


def cmd_render(args):
    obj = _read_json(args.input)
    cfg = repn.RepConfig(args.alpha)
    is_element = isinstance(obj, dict) and "terms" in obj
    if is_element:
        item = _element_from_json(args, obj)
    else:
        try:
            item = Diagram.from_json(obj)
        except _LOAD_ERRORS as exc:
            raise _input_error("diagram", exc) from exc
    element_view, diagram_view = _RENDERERS[args.format]
    print((element_view if is_element else diagram_view)(item, cfg))
    return 0


# diagrams per write of ``enumerate``
_ENUMERATE_CHUNK = 1024


def _enumerate_chunks(kind, k, n, write_chunk):
    """Pass ``write_chunk`` the JSON texts of the family's diagrams in order,
    ``_ENUMERATE_CHUNK`` at a time, as the enumeration makes them; each
    text is put together from the per-k table of edge texts."""
    size, chunk = _ENUMERATE_CHUNK, []
    head, edge = _edge_json(k)

    def sink(key):
        chunk.append(head + ", ".join([edge[b] for b in key if len(b) == 2]) + "]}")
        if len(chunk) == size:
            write_chunk(chunk)
            chunk.clear()

    enumerate_keys(kind, k, sink, n)
    if chunk:
        write_chunk(chunk)


def cmd_enumerate(args):
    # the count is a closed form, which refuses a bad input before the
    # first byte; the diagrams are streamed, and none is built or kept
    kind, k = args.kind.replace("-", "_"), args.k
    count = count_diagrams(kind, k, args.n)
    write = sys.stdout.write
    if args.json:
        # the one JSON object: the header up to the open list, the
        # diagrams a chunk at a time, then the closing brackets
        head = json.dumps({"kind": args.kind, "k": k, "count": count, "diagrams": []})
        write(head[:-2])
        sep = ""

        def write_chunk(texts):
            nonlocal sep
            write(sep + ", ".join(texts))
            sep = ", "

        _enumerate_chunks(kind, k, args.n, write_chunk)
        write("]}\n")
    else:
        write("%d diagrams\n" % count)
        _enumerate_chunks(kind, k, args.n, lambda texts: write("\n".join(texts) + "\n"))
    return 0


def build_parser():
    parser = _Parser(
        prog="ptl",
        description="Exact computations in the partial Temperley-Lieb tower")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, algebra=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if algebra:
            p.add_argument("--algebra", default="motzkin", choices=FLAVORS)

    p = sub.add_parser("mul", help="multiply two elements (JSON files or '-')")
    p.add_argument("x")
    p.add_argument("y")
    common(p, algebra=True)
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("convert", help="change the basis of an element")
    p.add_argument("element")
    p.add_argument("--to", required=True, choices=BASES)
    common(p, algebra=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("dims", help="dimension strata of the algebra")
    p.add_argument("--k", type=_nonnegative_int, required=True)
    common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("cell-dims", help="cell module dimension table")
    p.add_argument("--k", type=_nonnegative_int, required=True)
    p.add_argument("--algebra", default="ptl", choices=("tl", "motzkin", "ptl"))
    common(p)
    p.set_defaults(fn=cmd_cell_dims)

    p = sub.add_parser("centralizer", help="exact commutant dimension on tensor space")
    p.add_argument("--k", type=_nonnegative_int, required=True)
    p.add_argument("--q", type=_fraction, default=Fraction(2))
    p.add_argument("--group", default="gl2", choices=("gl2", "sl2"))
    p.add_argument("--allow-k4", action="store_true",
                   help="accepted for compatibility; has no effect")
    common(p)
    p.set_defaults(fn=cmd_centralizer)

    p = sub.add_parser("bratteli", help="branching path counts per level")
    p.add_argument("--k", type=_nonnegative_int, required=True)
    common(p)
    p.set_defaults(fn=cmd_bratteli)

    p = sub.add_parser("semisimple", help="semisimplicity verdict at a rational q")
    p.add_argument("--k", type=_nonnegative_int, required=True)
    p.add_argument("--q", type=_fraction, required=True)
    common(p)
    p.set_defaults(fn=cmd_semisimple)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    p.add_argument("--k", type=_nonnegative_int, default=3, choices=(2, 3, 4),
                   help="exhaustive-range cap (4 is the documented opt-in)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="render a diagram or element")
    p.add_argument("input", help="JSON file, or '-' for stdin")
    p.add_argument("--format", default="ascii", choices=tuple(_RENDERERS))
    p.add_argument("--alpha", type=_fraction, default=Fraction(1),
                   help="form parameter for the tensor-space matrix")
    p.add_argument("--algebra", default="motzkin", choices=FLAVORS)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("enumerate", help="list a diagram family")
    p.add_argument("--kind", required=True,
                   choices=("partial-brauer", "motzkin", "tl",
                            "balanced-motzkin", "balanced-motzkin-n"))
    p.add_argument("--k", type=_nonnegative_int, required=True)
    p.add_argument("--n", type=_nonnegative_int, default=None,
                   help="stratum (edge count) of --kind balanced-motzkin-n")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv=None):
    """Run one verb.  A ValueError from the verb is a refused input: it ends
    the run like a usage error.  A reader that closed stdout early
    (``ptl ... | head -1``) ends the run quietly with 141, the shell's
    status for SIGPIPE."""
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.fn(args)
        finally:
            sys.stdout.flush()
    except ValueError as exc:
        _refuse("%s %s" % (parser.prog, args.verb), exc)
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the exit flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
