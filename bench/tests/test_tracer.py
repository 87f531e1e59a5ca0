"""Tests of the benchmark's tracer and metric tables.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import itertools
import json
import os
import sys
from unittest import mock

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from ptlalg import algebra, diagram, linalg, repn, verify  # noqa: E402


def traced(fn):
    spans = tracer.Tracer()
    with spans:
        fn()
    return spans.snapshot()


def diagram_basis_products_k2():
    spec = algebra.motzkin_spec(2)
    ds = diagram.motzkin_diagrams(2)
    for a in ds:
        for b in ds:
            algebra.Element.of(spec, a) * algebra.Element.of(spec, b)


def bar_products_k2():
    spec = algebra.motzkin_spec(2)
    ds = diagram.motzkin_diagrams(2)
    for a in ds:
        for b in ds:
            algebra.bar_multiply(spec, a, b)


def counts(snapshot):
    return {name: (s[0], s[3]) for name, s in snapshot["stats"].items()}


def test_compose_calls_through_imported_name_are_exact():
    # algebra holds compose through "from .diagram import compose": one
    # composition per pair of diagram-basis terms.
    n = len(diagram.motzkin_diagrams(2))
    snap = traced(diagram_basis_products_k2)
    assert snap["stats"]["diagram.compose"][0] == n * n
    assert snap["stats"]["algebra.Element.mul"][0] == n * n


def test_bar_rule_compose_count_matches_frame_condition():
    ds = diagram.motzkin_diagrams(2)
    matching = sum(1 for a, b in itertools.product(ds, ds)
                   if a.frames().bot == b.frames().top)
    snap = traced(bar_products_k2)
    assert snap["stats"]["algebra.bar_multiply"][0] == len(ds) ** 2
    assert snap["stats"]["diagram.compose"][0] == matching


def test_echelon_adds_and_layer_counts_for_commutant_dim():
    with mock.patch.object(linalg.Echelon, "add", autospec=True,
                           side_effect=linalg.Echelon.add) as add:
        assert repn.commutant_dim(2, 2) == 7
    snap = traced(lambda: repn.commutant_dim(2, 2))
    assert snap["stats"]["linalg.Echelon.add"][0] == add.call_count
    metrics = layers.per_layer(snap, {}, 0)
    assert metrics["repn.equations"]["value"] == add.call_count
    classes = {}
    for w in itertools.product((1, 0, -1), repeat=2):
        key = (w.count(1), w.count(-1))
        classes[key] = classes.get(key, 0) + 1
    assert metrics["repn.unknowns"]["value"] == sum(c * c for c in classes.values())
    assert metrics["linalg.Echelon.add.useful_ratio"]["value"] == (
        (metrics["repn.unknowns"]["value"] - 7) / add.call_count)


def test_traced_counts_repeat_exactly():
    def work():
        diagram_basis_products_k2()
        bar_products_k2()
        repn.commutant_dim(2, 2, "sl2")
    assert counts(traced(work)) == counts(traced(work))


def test_registry_entries_are_traced():
    # verify.SUITES holds the check functions themselves.
    snap = traced(lambda: verify.run_suite("appendix", 2))
    assert snap["stats"]["verify.check_jones"][0] == 1
    assert snap["stats"]["verify.check_semisimplicity"][0] == 1


def test_uninstall_restores_every_original_object():
    def holders():
        out = {}
        for name, mod in sys.modules.items():
            if name == "ptlalg" or name.startswith("ptlalg."):
                for attr, val in vars(mod).items():
                    out[(name, attr)] = val
                    for i, item in enumerate(tracer._container_items(val)):
                        out[(name, attr, i)] = item
        for owner, attr, _, _ in tracer.targets():
            out[(owner, attr)] = vars(owner)[attr]
        return out

    before = holders()
    assert tracer.traced_objects() == []
    spans = tracer.Tracer()
    spans.install()
    try:
        assert algebra.compose is diagram.compose is verify.compose
        assert getattr(algebra.compose, tracer.MARK)
        assert len(tracer.traced_objects()) > 100
    finally:
        spans.uninstall()
    after = holders()
    assert before.keys() == after.keys()
    assert all(after[key] is val for key, val in before.items())
    assert tracer.traced_objects() == []


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
