"""Per-layer metrics derived from a traced run.

``per_layer(...)`` turns the tracer's aggregated spans into the named
metrics listed under ``per_layer`` in ``BENCHMARK.json``; every name is
present on every workload (0 where the workload never reaches the layer).
"""

from __future__ import annotations

from ptlalg import verify

from tracer import LAYERS

ENUMERATION = ("diagram.partial_brauer_diagrams", "diagram.motzkin_diagrams",
               "diagram.tl_diagrams", "diagram.n_subsets",
               "diagram.balanced_motzkin_stratum", "diagram.balanced_motzkin_diagrams",
               "diagram.enumerate_diagrams")
CLI_VERBS = ("verify", "enumerate", "mul", "convert", "render", "centralizer",
             "cell-dims", "bratteli", "semisimple")


def verify_checks():
    """(metric prefix, span name) for each check of ``ptl verify``."""
    return [("verify.%s.%s" % (suite, check), "verify." + fn.__name__)
            for suite, entries in verify.SUITES.items() for check, fn in entries]


def names():
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, unit, _ in _table({}, {}, {})]


def per_layer(snapshot, cache_info, stdout_bytes):
    """Every per-layer metric; ``trace.overhead`` and ``fail_share`` are
    left at 0 for ``bench/run.py``, which sees the untraced run too."""
    extra = {"expansion": cache_info, "stdout_bytes": stdout_bytes,
             "results": snapshot["scope_results"]}
    return {name: {"value": value, "unit": unit}
            for name, unit, value in _table(snapshot["stats"], snapshot["scoped"], extra)}


def _table(stats, scoped, extra):
    def calls(n):
        return stats.get(n, [0])[0]

    def total(n):
        return stats.get(n, [0, 0.0])[1]

    def self_s(*ns):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in ns)

    def under(scope, n):
        return scoped.get(scope, {}).get(n, [0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    def prefixed(p):
        return [n for n in stats if n.startswith(p)]

    cache = extra.get("expansion", {})
    in_mul = sum(under("algebra.Element.mul", n)[0]
                 for n in ("algebra.tilde_multiply", "algebra.bar_multiply"))
    echelon = stats.get("linalg.Echelon.add", [0, 0.0, 0.0, 0])
    rows = [
        ("diagram.compose.calls", "count", calls("diagram.compose")),
        ("diagram.compose.self_s", "s", self_s("diagram.compose")),
        ("diagram.is_planar.calls", "count", calls("diagram.Diagram.is_planar")),
        ("diagram.is_planar.self_s", "s", self_s("diagram.Diagram.is_planar")),
        ("diagram.from_edges.calls", "count", calls("diagram.Diagram.from_edges")),
        ("diagram.enumerate.self_s", "s", self_s(*ENUMERATION)),
        ("algebra.Element.init.calls", "count", calls("algebra.Element.init")),
        ("algebra.Element.init.self_s", "s", self_s("algebra.Element.init")),
        ("algebra.admits.calls", "count", calls("algebra.AlgebraSpec.admits")),
        ("algebra.Element.mul.self_s", "s", self_s("algebra.Element.mul")),
        ("algebra.tilde_multiply.calls", "count", calls("algebra.tilde_multiply")),
        ("algebra.tilde_multiply.self_s", "s", self_s("algebra.tilde_multiply")),
        ("algebra.bar_multiply.calls", "count", calls("algebra.bar_multiply")),
        ("algebra.bar_multiply.self_s", "s", self_s("algebra.bar_multiply")),
        ("algebra.change_basis.self_s", "s", self_s("algebra.change_basis")),
        ("algebra.expansion.hits", "count", cache.get("hits", 0)),
        ("algebra.expansion.misses", "count", cache.get("misses", 0)),
        ("algebra.expansion.hit_ratio", "ratio",
         ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))),
        # Element constructions per pair product inside bar/tilde Element.__mul__.
        ("algebra.element_builds_per_pair", "ratio",
         ratio(under("algebra.Element.mul", "algebra.Element.init")[0], in_mul)),
        ("scalar.IntPoly.mul.calls", "count",
         calls("scalar.IntPoly.mul") + calls("scalar.IntPoly.rmul")),
        ("scalar.IntPoly.add.calls", "count",
         calls("scalar.IntPoly.add") + calls("scalar.IntPoly.radd")),
        ("scalar.IntPoly.self_s", "s", self_s(*prefixed("scalar.IntPoly."))),
        ("scalar.evaluate_q.calls", "count", calls("scalar.evaluate_q")),
        ("linalg.Echelon.add.calls", "count", echelon[0]),
        ("linalg.Echelon.add.self_s", "s", echelon[2]),
        ("linalg.Echelon.add.useful_ratio", "ratio", ratio(echelon[3], echelon[0])),
        ("linalg.SparseMatrix.mul.self_s", "s", self_s("linalg.SparseMatrix.mul")),
        ("repn.commutant_dim.self_s", "s", self_s("repn.commutant_dim")),
        ("repn.qgen_matrix.self_s", "s", self_s("repn.qgen_matrix")),
        ("repn.diagram_matrix.calls", "count", calls("repn.diagram_matrix")),
        ("repn.diagram_matrix.self_s", "s", self_s("repn.diagram_matrix")),
        ("repn.representation_rank.self_s", "s", self_s("repn.representation_rank")),
        # commutant_dim returns unknowns - rank, and rank = useful Echelon.add calls.
        ("repn.unknowns", "count", extra.get("results", {}).get("repn.commutant_dim", 0)
         + under("repn.commutant_dim", "linalg.Echelon.add")[1]),
        ("repn.equations", "count", under("repn.commutant_dim", "linalg.Echelon.add")[0]),
        ("ptl.generated_dimension.self_s", "s", self_s("ptl.generated_dimension")),
        ("ptl.generated_dimension.products", "count",
         under("ptl.generated_dimension", "algebra.Element.mul")[0]),
        ("ptl.to_block.calls", "count", calls("ptl.to_block")),
        ("ptl.BlockElement.mul.self_s", "s", self_s("ptl.BlockElement.mul")),
        ("cells.bar_act.calls", "count", calls("cells.bar_act")),
        ("cells.bar_act.self_s", "s", self_s("cells.bar_act")),
        ("cells.act_on_path.calls", "count", calls("cells.act_on_path")),
    ]
    rows += [("%s.self_s" % layer, "s", self_s(*prefixed(layer + "."))) for layer in LAYERS]
    rows += [(prefix + ".s", "s", total(span)) for prefix, span in verify_checks()]
    rows += [("cli.%s.s" % verb, "s", total("cli.cmd_" + verb.replace("-", "_")))
             for verb in CLI_VERBS]
    rows += [
        ("cli.stdout_bytes", "bytes", extra.get("stdout_bytes", 0)),
        # Traced wall_s over untraced wall_s of the same workload and seed.
        ("trace.overhead", "ratio", extra.get("overhead", 0.0)),
        ("fail_share", "ratio", extra.get("fail_share", 0.0)),
    ]
    return rows
