"""CLI surface: verbs, JSON modes, exit codes, rendering determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ptlalg import diagram, qcriteria, verify
from ptlalg.algebra import Element, motzkin_spec, ptl_spec, tilde_of
from ptlalg.cli import main
from ptlalg.diagram import Diagram, gen_e, motzkin_diagrams, omega
from ptlalg.render import ascii_diagram, ascii_element


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_dims(capsys):
    code, out = run_cli(["dims", "--k", "4", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 183
    assert payload["strata"] == [1, 16, 72, 80, 14]


def test_cell_dims(capsys):
    code, out = run_cli(["cell-dims", "--k", "4", "--algebra", "ptl", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    dims = {tuple(row["lambda"]): row["dim"] for row in payload["dims"]}
    assert dims[(2, 1)] == 8 and dims[(2, 2)] == 2


def test_cell_dims_tl_and_motzkin(capsys):
    code, out = run_cli(["cell-dims", "--k", "4", "--algebra", "tl", "--json"], capsys)
    assert code == 0
    dims = {row["lambda"]: row["dim"] for row in json.loads(out)["dims"]}
    assert dims == {"0": 2, "2": 3, "4": 1} or dims == {0: 2, 2: 3, 4: 1}
    code, out = run_cli(["cell-dims", "--k", "3", "--algebra", "motzkin", "--json"],
                        capsys)
    assert code == 0
    dims = {row["lambda"]: row["dim"] for row in json.loads(out)["dims"]}
    assert sum(v * v for v in dims.values()) == 51


def test_centralizer(capsys):
    code, out = run_cli(["centralizer", "--k", "2", "--q", "2",
                         "--group", "sl2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 9
    code, out = run_cli(["centralizer", "--k", "4", "--q", "2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 183
    for k, q, reason in (("5", "2", "centralizer computations are capped at k = 4"),
                         ("2", "0", "q must avoid 0 and +-1, not 0"),
                         ("2", "1", "q must avoid 0 and +-1, not 1"),
                         ("2", "-1", "q must avoid 0 and +-1, not -1")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["centralizer", "--k", k, "--q", q])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "ptl centralizer: error: %s\n" % reason


def test_bratteli(capsys):
    code, out = run_cli(["bratteli", "--k", "3", "--json"], capsys)
    assert code == 0
    levels = json.loads(out)
    assert levels[3]["sum_of_squares"] == 33


def test_semisimple(capsys):
    code, out = run_cli(["semisimple", "--k", "5", "--q", "2", "--json"], capsys)
    assert code == 0 and json.loads(out) == {"k": 5, "q": "2", "semisimple": True}
    code, out = run_cli(["semisimple", "--k", "5", "--q", "2"], capsys)
    assert (code, out) == (0, "semisimple: <n>_q nonzero at q=2 for all n <= 5\n")
    with pytest.raises(SystemExit) as exc:
        main(["semisimple", "--k", "3", "--q", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "ptl semisimple: error: q must be nonzero, not 0\n"


def test_semisimple_prints_the_verdict_it_is_given(monkeypatch, capsys):
    # no rational q makes a <n>_q vanish, so the negative verdict is planted
    monkeypatch.setattr(qcriteria, "tl_semisimple", lambda k, q0: False)
    code, out = run_cli(["semisimple", "--k", "3", "--q", "2", "--json"], capsys)
    assert code == 0 and json.loads(out) == {"k": 3, "q": "2", "semisimple": False}
    code, out = run_cli(["semisimple", "--k", "3", "--q", "2"], capsys)
    assert out == "NOT semisimple: some <n>_q with n <= 3 vanishes at q=2\n"


def test_enumerate(capsys):
    code, out = run_cli(["enumerate", "--kind", "motzkin", "--k", "2", "--json"],
                        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    parsed = [Diagram.from_json(obj) for obj in payload["diagrams"]]
    assert sorted(parsed) == motzkin_diagrams(2)


def test_mul_and_convert(tmp_path, capsys):
    M3 = motzkin_spec(3)
    x = Element.of(M3, gen_e(1, 3))
    y = Element.of(M3, gen_e(2, 3))
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(json.dumps(x.to_json()))
    fy.write_text(json.dumps(y.to_json()))
    code, out = run_cli(["mul", str(fx), str(fy), "--json"], capsys)
    assert code == 0
    prod = Element.from_json(M3, json.loads(out))
    assert prod == x * y

    code, out = run_cli(["convert", str(fx), "--to", "tilde", "--json"], capsys)
    assert code == 0
    conv = Element.from_json(M3, json.loads(out))
    from ptlalg.algebra import change_basis
    assert change_basis(conv, "diagram") == x


def test_zero_product_reads_back(tmp_path, capsys):
    # bar elements from different strata of PTL_2 multiply to zero
    spec = ptl_spec(2)
    x = Element.of(spec, gen_e(1, 2), 1, "bar")
    y = Element.of(spec, omega(2), 1, "bar")
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(json.dumps(x.to_json()))
    fy.write_text(json.dumps(y.to_json()))
    code, out = run_cli(["mul", str(fx), str(fy), "--algebra", "ptl", "--json"], capsys)
    assert code == 0
    zero = json.loads(out)
    assert zero == {"k": 2, "basis": "bar", "terms": []}
    fz = tmp_path / "zero.json"
    fz.write_text(out)
    code, out = run_cli(["convert", str(fz), "--algebra", "ptl", "--to", "tilde",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"k": 2, "basis": "tilde", "terms": []}


def test_element_k_errors_exit_2(tmp_path, capsys):
    M2 = motzkin_spec(2)
    e1 = {"diagram": gen_e(1, 2).to_json(), "coeff": "1"}
    e1_k3 = {"diagram": gen_e(1, 3).to_json(), "coeff": "1"}
    bad = {
        "mixed.json": {"terms": [e1, e1_k3]},
        "mismatch.json": {"k": 3, "terms": [e1]},
        "empty.json": {"terms": []},
        "negative.json": {"k": -1, "terms": []},
        "text.json": {"k": "2", "terms": [e1]},
    }
    for name, obj in bad.items():
        (tmp_path / name).write_text(json.dumps(obj))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Element.of(M2, gen_e(1, 2)).to_json()))
    for name in bad:
        f = str(tmp_path / name)
        for args in (["mul", f, str(good)], ["convert", f, "--to", "bar"],
                     ["render", f]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2, (name, args)
            assert len(capsys.readouterr().err.strip().splitlines()) == 1


E1_IN = {"k": 2, "terms": [{"coeff": "1", "diagram":
                               {"k": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}}]}


@pytest.mark.parametrize("basis,algebra,to", [
    ("diagram", "ptl", "tilde"),   # e1 alone is not in PTL_2
    ("diagram", "tl", "bar"),      # bar coordinates need isolated vertices
    ("tilde", "tl", "diagram"),    # so does the expansion of tilde(e1)
])
def test_convert_outside_the_target_basis_exits_2(basis, algebra, to, tmp_path, capsys):
    f = tmp_path / "e1.json"
    f.write_text(json.dumps({"basis": basis, **E1_IN}))
    with pytest.raises(SystemExit) as exc:
        main(["convert", str(f), "--to", to, "--algebra", algebra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "not admitted" in captured.err


def test_render_has_no_json_flag(tmp_path, capsys):
    # render's machine-readable output is --format json
    f = tmp_path / "d.json"
    f.write_text(json.dumps(E1_K2))
    with pytest.raises(SystemExit) as exc:
        main(["render", str(f), "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "ptl: error: unrecognized arguments: --json\n"


def test_render_round_trip(tmp_path, capsys):
    obj = {"k": 3, "edges": [["t1", "t2"], ["b1", "b2"], ["t3", "b3"]]}
    f = tmp_path / "d.json"
    f.write_text(json.dumps(obj))
    code, out = run_cli(["render", str(f), "--format", "json"], capsys)
    assert code == 0
    assert Diagram.from_json(json.loads(out)) == Diagram.from_json(obj)

    code, out = run_cli(["render", str(f), "--format", "ascii"], capsys)
    assert code == 0
    assert out.count("o") == 6  # two rows of three vertices

    code, out = run_cli(["render", str(f), "--format", "tikz"], capsys)
    assert code == 0
    assert out.startswith("\\documentclass[tikz]{standalone}")
    assert out.count("\\draw") == 3


def test_render_element_shows_signed_pictures(tmp_path, capsys):
    M3 = motzkin_spec(3)
    x = tilde_of(M3, gen_e(1, 3))
    f = tmp_path / "x.json"
    f.write_text(json.dumps(x.to_json()))
    code, out = run_cli(["render", str(f), "--format", "ascii"], capsys)
    assert code == 0
    assert out.count("(1) *") == 2 and out.count("(-1) *") == 2


def test_ascii_is_deterministic():
    for d in motzkin_diagrams(2):
        assert ascii_diagram(d) == ascii_diagram(d)
    M2 = motzkin_spec(2)
    x = tilde_of(M2, gen_e(1, 2))
    assert ascii_element(x) == ascii_element(x)


def test_verify_small_suite(capsys):
    code, out = run_cli(["verify", "--suite", "appendix", "--k", "2"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_k3_is_clean(capsys):
    code, out = run_cli(["verify", "--suite", "all", "--k", "3", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert all(row["ok"] for row in payload["results"])


def test_verify_reports_failures(monkeypatch, capsys):
    from ptlalg import verify as verify_mod
    broken = [("always-fails", lambda kcap: (False, "planted failure"))]
    monkeypatch.setitem(verify_mod.SUITES, "appendix", broken)
    code, out = run_cli(["verify", "--suite", "appendix", "--k", "2"], capsys)
    assert code == 1
    assert "FAIL" in out and "planted failure" in out

    def planted_fault(kcap):
        raise ValueError("planted fault")

    # a check that raises fails alone; the checks after it still run
    raising = [("raises-value", planted_fault),
               ("raises-zero", lambda kcap: (True, str(1 // 0))),
               ("passes", lambda kcap: (True, "still run"))]
    monkeypatch.setitem(verify_mod.SUITES, "appendix", raising)
    code, out = run_cli(["verify", "--suite", "appendix", "--k", "2"], capsys)
    assert code == 1
    lines = [line.split(None, 2) for line in out.splitlines()]
    assert lines == [["appendix/raises-value", "FAIL", "raised ValueError: planted fault"],
                     ["appendix/raises-zero", "FAIL",
                      "raised ZeroDivisionError: integer division or modulo by zero"],
                     ["appendix/passes", "PASS", "still run"]]
    code, out = run_cli(["verify", "--suite", "appendix", "--k", "2", "--json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == 2
    assert [row["ok"] for row in payload["results"]] == [False, False, True]
    assert payload["results"][0]["detail"] == "raised ValueError: planted fault"


def test_matrix_export(tmp_path, capsys):
    obj = {"k": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}
    f = tmp_path / "e.json"
    f.write_text(json.dumps(obj))
    code, out = run_cli(["render", str(f), "--format", "matrix"], capsys)
    assert code == 0
    lines = [ln.split(maxsplit=2) for ln in out.strip().splitlines()]
    assert len(lines) == 9  # the nine nonzero entries of e at k=2
    assert ["2", "2", "-q"] in lines


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ptlalg.cli", "dims"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "ptlalg.cli", "verify", "--k", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    # stdout fills the pipe while the diagrams are printed
    ["enumerate", "--kind", "motzkin", "--k", "6"],
    # the whole report waits in the buffer until the flush at the end
    ["verify", "--suite", "algebra", "--k", "2"],
    # the JSON object is written a chunk of diagrams at a time
    ["enumerate", "--kind", "motzkin", "--k", "6", "--json"],
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "ptlalg.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_reader_that_stops_after_one_line_gets_it_and_exit_141():
    # ptl enumerate --kind motzkin --k 6 | head -1
    proc = subprocess.Popen([sys.executable, "-m", "ptlalg.cli", "enumerate",
                             "--kind", "motzkin", "--k", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert first == "15511 diagrams\n" and err == ""


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "motzkin", "--k", "-1"],
    ["enumerate", "--kind", "balanced-motzkin-n", "--k", "2", "--n", "-1"],
    ["centralizer", "--k", "-1"],
    ["dims", "--k", "-1"],
    ["cell-dims", "--k", "-2"],
    ["bratteli", "--k", "-3"],
    ["semisimple", "--k", "-1", "--q", "2"],
    ["dims", "--k", "two"],
])
def test_k_must_be_a_nonnegative_integer(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1


E1_K2 = {"k": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}
BAD_INPUTS = {
    "not-json": "{terms: [",
    "vertex-t3-at-k2": {"terms": [{"coeff": "1", "diagram":
                                   {"k": 2, "edges": [["t1", "t3"], ["b1", "b2"]]}}]},
    "crossing-under-motzkin": {"terms": [{"coeff": "1", "diagram":
                                          {"k": 2, "edges": [["t1", "b2"], ["t2", "b1"]]}}]},
    "delta-plus-q": {"terms": [{"coeff": "delta+q", "diagram": E1_K2}]},
    "pure-q": {"terms": [{"coeff": "q^2", "diagram": E1_K2}]},
    "zero-denominator": {"terms": [{"coeff": "1/0", "diagram": E1_K2}]},
    "zero-denominator-delta": {"terms": [{"coeff": "2/0*delta", "diagram": E1_K2}]},
    "unsigned-constant-term": {"terms": [{"coeff": "delta 2", "diagram": E1_K2}]},
    "unsigned-term-run": {"terms": [{"coeff": "2delta3", "diagram": E1_K2}]},
    "underscored-digits": {"terms": [{"coeff": "1_000", "diagram": E1_K2}]},
    "underscored-digits-delta": {"terms": [{"coeff": "1_000*delta", "diagram": E1_K2}]},
    "empty-coefficient": {"terms": [{"coeff": " ", "diagram": E1_K2}]},
    "k-true-beside-k-1": {"k": True, "terms": [{"coeff": "1", "diagram":
                                                {"k": 1, "edges": [["t1", "b1"]]}}]},
    "k-float-beside-k-2": {"k": 2.0, "terms": [{"coeff": "1", "diagram": E1_K2}]},
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_element_input_exits_2(name, tmp_path, capsys):
    obj = BAD_INPUTS[name]
    bad = tmp_path / "bad.json"
    bad.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Element.of(motzkin_spec(2), gen_e(1, 2)).to_json()))
    for args in (["mul", str(bad), str(good)], ["mul", str(good), str(bad)],
                 ["convert", str(bad), "--to", "bar"], ["render", str(bad)]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args
        captured = capsys.readouterr()
        assert not captured.out
        assert len(captured.err.strip().splitlines()) == 1, args
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("spaced, tight", [
    ("3 / 4", "3/4"), (" - 2 ", "-2"), ("3 / 4*delta", "3/4*delta"), ("- 2*delta", "-2*delta"),
])
def test_spaced_coefficients_read_as_their_tight_forms(spaced, tight, tmp_path, capsys):
    outs = []
    for coeff in (spaced, tight):
        f = tmp_path / "x.json"
        f.write_text(json.dumps({"terms": [{"coeff": coeff, "diagram": E1_K2}]}))
        code, out = run_cli(["convert", str(f), "--to", "bar", "--json"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("obj", [
    {"k": 2, "edges": [["t1", "t3"]]},
    {"k": 2, "edges": [["t1", "x2"]]},
    {"k": 2, "blocks": [["t1", "t1"]]},
    {"edges": []},
    {"k": True, "edges": []},
    {"k": True, "edges": [["t1", "b1"]]},
    {"k": 1.0, "edges": []},
    [1, 2],
    {"k": 10, "edges": [["t1_0", "b1"]]},
    {"k": 2, "edges": [["t 1", "b1"]]},
    {"k": 2, "edges": [["b01", "t1"]]},
    {"k": 2, "edges": [["t+1", "b1"]]},
    {"k": 2, "edges": [["t1", 3]]},
    {"k": 2, "blocks": [["t1"]], "edges": [["t1", "t2"]]},
])
def test_bad_diagram_render_exits_2(obj, tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps(obj))
    with pytest.raises(SystemExit) as exc:
        main(["render", str(f)])
    assert exc.value.code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("text,message", [
    ('{"k":2,"edges":[["t1","t2","b1"]]}', "bad edge ['t1', 't2', 'b1']"),
    ('{"k":2,"edges":"t1"}', "bad edges 't1'"),
    ('{"k":2,"edges":[5]}', "bad edge 5"),
    ('{"k":2,"blocks":[5]}', "bad block 5"),
    ('{"k":2,"edges":null}', "bad edges None"),
    ("[1]", "a diagram is a JSON object, not [1]"),
    ('{"k":2,"basis":"bar"}', "unknown key 'basis' in a diagram"),
    ('{"k":2,"edges":[],"Edges":[]}', "unknown key 'Edges' in a diagram"),
], ids=["edge-of-three", "edges-string", "edge-int", "block-int", "edges-null", "list",
        "element-without-terms", "misspelt-key"])
def test_malformed_diagram_shape_is_named(text, message, tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(text)
    for argv in (["render", str(f)], ["render", str(f), "--format", "matrix"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "ptl render: error: %s\n" % message


# render reads a JSON value that is not an object with "terms" as a diagram,
# so it names the diagram where the element loaders name the element
@pytest.mark.parametrize("text,message,render_message", [
    ('{"k":2,"terms":{}}', "bad terms {}", None),
    ('{"terms":{"a":1}}', "bad terms {'a': 1}", None),
    ('{"terms":"ab"}', "bad terms 'ab'", None),
    ('{"k":2,"terms":null}', "bad terms None", None),
    ('{"terms":[5]}', "bad term 5 in terms", None),
    ('{"k":2,"terms":["t1"]}', "bad term 't1' in terms", None),
    ('[1]', "an element is a JSON object, not [1]", "a diagram is a JSON object, not [1]"),
    ('"x"', "an element is a JSON object, not 'x'", "a diagram is a JSON object, not 'x'"),
    ('{"terms":[{"coeff":"1","diagram":5}]}', "a diagram is a JSON object, not 5", None),
    ('{"terms":[{"coeff":1,"diagram":%s}]}' % json.dumps(E1_K2),
     "a scalar is a string, not 1", None),
    ('{"terms":[{"coeff":null,"diagram":%s}]}' % json.dumps(E1_K2),
     "a scalar is a string, not None", None),
    ('{"k":[1],"terms":[]}', "k must be a nonnegative integer, not [1]", None),
    ('{"k":{},"terms":[]}', "k must be a nonnegative integer, not {}", None),
    ('{"basis":"tilde"}', "bad element: missing key 'terms'", "bad diagram: missing key 'k'"),
    ('{"terms":[{"coeff":"1"}]}', "bad element: missing key 'diagram'", None),
    ('{"terms":[{"diagram":%s}]}' % json.dumps(E1_K2), "bad element: missing key 'coeff'", None),
    ('{"terms":[{"coeff":"1","diagram":{"edges":[]}}]}', "bad element: missing key 'k'", None),
    ('{"k":2,"basis":"bar"}', "bad element: missing key 'terms'",
     "unknown key 'basis' in a diagram"),
    ('{"k":2,"Basis":"tilde","terms":[{"coeff":"1","diagram":%s}]}' % json.dumps(E1_K2),
     "unknown key 'Basis' in an element", None),
    ('{"terms":[{"coeff":"1","diagram":%s,"basis":"bar"}]}' % json.dumps(E1_K2),
     "unknown key 'basis' in a term", None),
    ('{"terms":[{"coeff":"1","diagram":{"k":2,"edges":[],"basis":"bar"}}]}',
     "unknown key 'basis' in a diagram", None),
], ids=["terms-object", "terms-object-no-k", "terms-string", "terms-null", "term-int",
        "term-string", "element-list", "element-string", "diagram-int", "coeff-int",
        "coeff-null", "k-list", "k-object", "no-terms", "term-no-diagram", "term-no-coeff",
        "term-diagram-no-k", "k-and-basis-no-terms", "element-key-misspelt", "term-key",
        "term-diagram-key"])
def test_malformed_element_shape_is_named(text, message, render_message, tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text(text)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Element.of(motzkin_spec(2), gen_e(1, 2)).to_json()))
    for argv in (["convert", str(f), "--to", "bar"], ["mul", str(f), str(good)],
                 ["mul", str(good), str(f)], ["render", str(f)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        want = render_message if argv[0] == "render" and render_message else message
        assert captured.err == "ptl %s: error: %s\n" % (argv[0], want)


def test_malformed_edge_has_no_traceback_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "ptlalg.cli", "render", "-"],
        input='{"k":2,"edges":[["t1","t2","b1"]]}', capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "ptl render: error: bad edge ['t1', 't2', 'b1']\n"


def test_bad_input_has_no_traceback_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "ptlalg.cli", "render", "-"],
        input="not json", capture_output=True, text=True)
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


E1_K3 = {"k": 3, "edges": [["t1", "t2"], ["b1", "b2"], ["t3", "b3"]]}
E2_K3 = {"k": 3, "edges": [["t2", "t3"], ["b2", "b3"], ["t1", "b1"]]}


def write_element(path, diagram, basis="diagram"):
    path.write_text(json.dumps({"basis": basis,
                                "terms": [{"coeff": "1", "diagram": diagram}]}))
    return str(path)


@pytest.mark.parametrize("x, y, algebra, reason", [
    ((E1_K2, "diagram"), (E1_K3, "diagram"), "motzkin", "different algebras"),
    ((E1_K2, "diagram"), (E1_K2, "bar"), "motzkin", "different bases"),
    ((E1_K3, "tilde"), (E2_K3, "tilde"), "tl", "not admitted by tl/tilde"),
], ids=["different-k", "different-bases", "tl-tilde-e1-e2"])
def test_mul_refusals_exit_2(x, y, algebra, reason, tmp_path, capsys):
    fx = write_element(tmp_path / "x.json", *x)
    fy = write_element(tmp_path / "y.json", *y)
    with pytest.raises(SystemExit) as exc:
        main(["mul", fx, fy, "--algebra", algebra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("ptl mul: error: ") and reason in captured.err


def test_mul_of_different_k_has_no_traceback_end_to_end(tmp_path):
    fx = write_element(tmp_path / "x.json", E1_K2)
    fy = write_element(tmp_path / "y.json", E1_K3)
    proc = subprocess.run([sys.executable, "-m", "ptlalg.cli", "mul", fx, fy],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert not proc.stdout
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


# -- pinned text outputs at small k ----------------------------------------------

TEXT_OUTPUTS = [
    (["dims", "--k", "2"],
     "n   binom(k,n)^2 * Catalan(n)\n0   1\n1   4\n2   2\ntotal 7\n"),
    (["cell-dims", "--k", "3"],
     "lambda   dim\n(0, 0)   1\n(1, 0)   3\n(1, 1)   3\n(2, 0)   3\n(2, 1)   2\n"
     "(3, 0)   1\nsum of squares: 33\n"),
    (["cell-dims", "--k", "2", "--algebra", "tl"],
     "lambda   dim\n0        1\n2        1\nsum of squares: 2\n"),
    (["centralizer", "--k", "2", "--q", "2"],
     "dim End_gl2(V^tensor2) at q = 2: 7\n"),
    (["bratteli", "--k", "2"],
     "k=0  (0, 0):1  | dim 1\n"
     "k=1  (0, 0):1  (1, 0):1  | dim 2\n"
     "k=2  (0, 0):1  (1, 0):2  (1, 1):1  (2, 0):1  | dim 7\n"),
    (["enumerate", "--kind", "tl", "--k", "2"],
     '2 diagrams\n{"k": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}\n'
     '{"k": 2, "edges": [["t1", "b1"], ["t2", "b2"]]}\n'),
    (["enumerate", "--kind", "balanced-motzkin-n", "--k", "2", "--n", "1"],
     '4 diagrams\n{"k": 2, "edges": [["t1", "b1"]]}\n{"k": 2, "edges": [["t1", "b2"]]}\n'
     '{"k": 2, "edges": [["t2", "b1"]]}\n{"k": 2, "edges": [["t2", "b2"]]}\n'),
]


@pytest.mark.parametrize("argv,want", TEXT_OUTPUTS,
                         ids=[" ".join(a) for a, _ in TEXT_OUTPUTS])
def test_text_outputs_are_pinned(argv, want, capsys):
    assert run_cli(argv, capsys) == (0, want)


def test_balanced_motzkin_stratum_json_and_missing_n(capsys):
    code, out = run_cli(["enumerate", "--kind", "balanced-motzkin-n", "--k", "3",
                         "--n", "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "balanced-motzkin-n" and payload["count"] == 18
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "balanced-motzkin-n", "--k", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "ptl enumerate: error: kind balanced_motzkin_n needs n\n"


@pytest.mark.parametrize("kind", ["partial-brauer", "motzkin", "tl", "balanced-motzkin"])
def test_n_with_a_kind_that_has_no_stratum_exits_2(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", kind, "--k", "2", "--n", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "ptl enumerate: error: n applies only to kind balanced_motzkin_n\n"


REFUSED_ENUMERATIONS = [
    (["--kind", "brauer", "--k", "2"], "argument --kind: invalid choice"),
    (["--kind", "motzkin", "--k", "-1"], "argument --k: not a nonnegative integer"),
    (["--kind", "balanced-motzkin-n", "--k", "2", "--n", "-1"],
     "argument --n: not a nonnegative integer"),
    (["--kind", "balanced-motzkin-n", "--k", "2"], "kind balanced_motzkin_n needs n"),
] + [(["--kind", kind, "--k", "2", "--n", "1"], "n applies only to kind balanced_motzkin_n")
     for kind in ("partial-brauer", "motzkin", "tl", "balanced-motzkin")]


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv,reason", REFUSED_ENUMERATIONS,
                         ids=[" ".join(a) for a, _ in REFUSED_ENUMERATIONS])
def test_refused_enumeration_writes_nothing_to_stdout(argv, reason, flag, capsys):
    # the streamed output must not begin before the input is refused
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *argv, *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ptl enumerate: error: " + reason)
    assert len(captured.err.splitlines()) == 1


def write_elements(tmp_path):
    """2 e1 and p1-like minus e1 at k = 2, and tilde(e1) in the diagram basis."""
    M2 = motzkin_spec(2)
    e1 = gen_e(1, 2)
    t2 = Diagram.from_edges(2, [(1, 3)])
    elements = {"x": Element.of(M2, e1, 2),
                "y": Element.of(M2, t2) + Element.of(M2, e1, -1),
                "t": tilde_of(M2, e1)}
    paths = {}
    for name, x in elements.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(x.to_json()))
    return paths


def test_mul_and_convert_print_elements(tmp_path, capsys):
    f = write_elements(tmp_path)
    code, out = run_cli(["mul", str(f["x"]), str(f["y"])], capsys)
    assert (code, out) == (0, "(2)*Diagram(k=2, [(0, 1), (2,), (3,)]) + "
                              "(-2*delta)*Diagram(k=2, [(0, 1), (2, 3)])\n")
    code, out = run_cli(["convert", str(f["x"]), "--to", "bar"], capsys)
    assert (code, out) == (0, "(2)*bar(Diagram(k=2, [(0,), (1,), (2,), (3,)])) + "
                              "(2)*bar(Diagram(k=2, [(0,), (1,), (2, 3)])) + "
                              "(2)*bar(Diagram(k=2, [(0, 1), (2,), (3,)])) + "
                              "(2)*bar(Diagram(k=2, [(0, 1), (2, 3)]))\n")


TIKZ_Y = r"""\documentclass[tikz]{standalone}
\begin{document}
% coefficient: 1 (basis: diagram)
\begin{tikzpicture}[scale=0.35,thick]
\tikzstyle{vertex}=[shape=circle,minimum size=4pt,inner sep=1pt,draw,fill=black]
\node[vertex] (T1) at (0.0, 1) {};
\node[vertex] (B1) at (0.0, -1) {};
\node[vertex] (T2) at (1.5, 1) {};
\node[vertex] (B2) at (1.5, -1) {};
\draw (T2) .. controls +(0,-1) and +(0,1) .. (B2);
\end{tikzpicture}
% coefficient: -1 (basis: diagram)
\begin{tikzpicture}[scale=0.35,thick]
\tikzstyle{vertex}=[shape=circle,minimum size=4pt,inner sep=1pt,draw,fill=black]
\node[vertex] (T1) at (0.0, 1) {};
\node[vertex] (B1) at (0.0, -1) {};
\node[vertex] (T2) at (1.5, 1) {};
\node[vertex] (B2) at (1.5, -1) {};
\draw (T1) .. controls +(0.5,-0.7) and +(-0.5,-0.7) .. (T2);
\draw (B1) .. controls +(0.5,0.7) and +(-0.5,0.7) .. (B2);
\end{tikzpicture}
\end{document}
"""


def test_render_element_formats_are_pinned(tmp_path, capsys):
    f = write_elements(tmp_path)
    code, out = run_cli(["render", str(f["t"]), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"k": 2, **json.loads(f["t"].read_text())}
    assert out == json.dumps(json.loads(out)) + "\n"
    code, out = run_cli(["render", str(f["t"]), "--format", "matrix"], capsys)
    assert (code, out) == (0, "2 2 -q\n2 6 1\n6 2 1\n6 6 -q^-1\n")
    code, out = run_cli(["render", str(f["y"]), "--format", "matrix"], capsys)
    assert (code, out) == (0, "2 2 q\n2 4 q\n2 6 -1\n3 3 1\n4 2 -1\n4 6 q^-1\n"
                              "5 5 1\n6 2 -1\n6 4 -1\n6 6 q^-1\n")
    code, out = run_cli(["render", str(f["y"]), "--format", "tikz"], capsys)
    assert (code, out) == (0, TIKZ_Y)


def test_render_needs_a_nonzero_alpha(tmp_path, capsys):
    f = tmp_path / "e.json"
    f.write_text(json.dumps(E1_K2))
    for fmt in ("ascii", "matrix"):
        with pytest.raises(SystemExit) as exc:
            main(["render", str(f), "--format", fmt, "--alpha", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "nonzero" in captured.err


CROSSING_K2 = {"k": 2, "edges": [["t1", "b2"], ["t2", "b1"]]}
TRIPLE_BLOCK_K2 = {"k": 2, "blocks": [["t1", "t2", "b1"]]}


@pytest.mark.parametrize("obj, algebra", [
    (CROSSING_K2, None),
    (TRIPLE_BLOCK_K2, None),
    ({"terms": [{"coeff": "1", "diagram": CROSSING_K2}]}, "partial_brauer"),
    ({"terms": [{"coeff": "1", "diagram": CROSSING_K2}]}, "partition"),
    ({"terms": [{"coeff": "1", "diagram": TRIPLE_BLOCK_K2}]}, "partition"),
    ({"basis": "bar", "terms": [{"coeff": "1", "diagram": E1_K2}]}, "tl"),
], ids=["crossing-diagram", "triple-block-diagram", "crossing-partial-brauer",
        "crossing-partition", "triple-block-partition", "bar-e1-tl"])
def test_render_matrix_outside_the_tensor_action_exits_2(obj, algebra, tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text(json.dumps(obj))
    argv = ["render", str(f), "--format", "matrix"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--algebra", algebra] if algebra else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("ptl render: error: ")
    if algebra == "tl":
        assert "not admitted" in captured.err


@pytest.mark.parametrize("fmt", ["ascii", "tikz"])
@pytest.mark.parametrize("obj, algebra", [
    (TRIPLE_BLOCK_K2, None),
    ({"k": 2, "blocks": [["t1", "t2", "b1", "b2"]]}, None),
    ({"terms": [{"coeff": "1", "diagram": TRIPLE_BLOCK_K2}]}, "partition"),
], ids=["triple-block-diagram", "four-block-diagram", "triple-block-partition"])
def test_render_pictures_of_a_block_of_three_or_more_exit_2(obj, algebra, fmt, tmp_path,
                                                            capsys):
    f = tmp_path / "x.json"
    f.write_text(json.dumps(obj))
    argv = ["render", str(f), "--format", fmt]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--algebra", algebra] if algebra else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("ptl render: error: the %s renderer" % fmt)


def test_convert_partition_blocks_to_alternating_bases_exits_2(tmp_path, capsys):
    f = tmp_path / "part.json"
    f.write_text(json.dumps({"k": 3, "terms": [{"coeff": "1", "diagram": {
        "k": 3, "blocks": [["t1", "t2", "b1"], ["t3", "b3"]]}}]}))
    for to in ("bar", "tilde"):
        with pytest.raises(SystemExit) as exc:
            main(["convert", str(f), "--to", to, "--algebra", "partition"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "not admitted" in captured.err
    assert main(["convert", str(f), "--to", "diagram", "--algebra", "partition"]) == 0
    capsys.readouterr()
    # a partial Brauer diagram has bar and tilde vectors, but not in the
    # partition algebra, whose twist weighs every discarded block
    f.write_text(json.dumps({"terms": [{"coeff": "1", "diagram": E1_K2}]}))
    for to in ("bar", "tilde"):
        with pytest.raises(SystemExit) as exc:
            main(["convert", str(f), "--to", to, "--algebra", "partition"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "not admitted by partition/%s" % to in captured.err


def pinned_cli_digest(verb):
    known = pathlib.Path(__file__).resolve().parents[1] / "bench" / "known.json"
    return json.loads(known.read_text())["cli"][verb]


def test_verify_k4_json_matches_the_pinned_digest(capsys):
    code, out = run_cli(["verify", "--suite", "all", "--k", "4", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == pinned_cli_digest("verify")


def test_enumerate_json_matches_the_pinned_digest(capsys):
    # 15,511 diagrams: the streamed object crosses several chunk boundaries
    code, out = run_cli(["enumerate", "--kind", "motzkin", "--k", "6", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == pinned_cli_digest("enumerate")


# sha256 prefixes of the text output, one diagram's JSON a line after the count
ENUMERATE_TEXT_DIGESTS = [
    (["--kind", "motzkin", "--k", "6"], "8835686da37543fb"),
    (["--kind", "partial-brauer", "--k", "4"], "4d43fa9fec624c0d"),
    (["--kind", "balanced-motzkin", "--k", "4"], "e82af3a49307cd3a"),
    (["--kind", "motzkin", "--k", "0"], "de393495fc8c275a"),
]


@pytest.mark.parametrize("argv,want", ENUMERATE_TEXT_DIGESTS,
                         ids=[" ".join(a) for a, _ in ENUMERATE_TEXT_DIGESTS])
def test_enumerate_text_matches_the_pinned_digest(argv, want, capsys):
    code, out = run_cli(["enumerate", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("family", [
    ["--kind", "partial-brauer", "--k", "4"],
    ["--kind", "motzkin", "--k", "4"],
    ["--kind", "tl", "--k", "5"],
    ["--kind", "balanced-motzkin", "--k", "3"],
    ["--kind", "balanced-motzkin-n", "--k", "3", "--n", "2"],
], ids=lambda a: a[1])
def test_enumerate_builds_no_diagram(family, flag, monkeypatch, capsys):
    # an empty table shows every diagram the verb would intern, whatever
    # earlier tests have interned
    monkeypatch.setattr(diagram, "_INTERNED", {})
    code, out = run_cli(["enumerate", *family, *flag], capsys)
    assert code == 0 and out
    assert len(diagram._INTERNED) == 0


MEMORY_PROBE = """
import contextlib, os, resource, sys
from ptlalg.cli import main

def peak_kib():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak

base = peak_kib()
growth = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for flag in ([], ["--json"]):
        if main(["enumerate", "--kind", "partial-brauer", "--k", "6", *flag]) != 0:
            raise SystemExit("enumerate failed")
        growth.append(peak_kib() - base)
sys.stderr.write(" ".join(map(str, growth)))
"""


def test_enumerate_streams_in_bounded_memory():
    # 140,152 diagrams on either path; holding them costs about 50 MiB
    proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    growth_kib = [int(g) for g in proc.stderr.split()]
    assert len(growth_kib) == 2 and max(growth_kib) < 16 * 1024


def test_enumerate_json_of_an_empty_stratum(capsys):
    assert run_cli(["enumerate", "--kind", "balanced-motzkin-n", "--k", "2", "--n", "3",
                    "--json"], capsys) == (
        0, '{"kind": "balanced-motzkin-n", "k": 2, "count": 0, "diagrams": []}\n')


@pytest.mark.parametrize("chunk", [1, 2, 763, 764, 765])
def test_enumerate_json_is_one_dump_at_every_chunk_size(chunk, monkeypatch, capsys):
    # 764 partial Brauer diagrams at k = 4: chunks of one and of two, a last
    # chunk of one, one exact chunk, and one chunk with room to spare; the
    # text mode writes the same diagrams one a line after the count
    from ptlalg import cli
    from ptlalg.diagram import partial_brauer_diagrams
    monkeypatch.setattr(cli, "_ENUMERATE_CHUNK", chunk)
    objs = [d.to_json() for d in partial_brauer_diagrams(4)]
    want = json.dumps({"kind": "partial-brauer", "k": 4, "count": 764,
                       "diagrams": objs}) + "\n"
    assert run_cli(["enumerate", "--kind", "partial-brauer", "--k", "4", "--json"],
                   capsys) == (0, want)
    want = "764 diagrams\n" + "".join(json.dumps(o) + "\n" for o in objs)
    assert run_cli(["enumerate", "--kind", "partial-brauer", "--k", "4"],
                   capsys) == (0, want)


def test_enumerate_encodes_no_diagram(monkeypatch, capsys):
    # the edge table of k = 4 is made once; then only the --json header is dumped
    calls = []
    dumps = json.dumps
    diagram._edge_json(4)
    monkeypatch.setattr(json, "dumps", lambda *a, **kw: calls.append(a) or dumps(*a, **kw))
    for flag, want in (([], 0), (["--json"], 1)):
        calls.clear()
        code, out = run_cli(["enumerate", "--kind", "partial-brauer", "--k", "4", *flag],
                            capsys)
        assert code == 0 and len(calls) == want


@pytest.mark.parametrize("k", range(6))
def test_enumerate_texts_match_the_json_encoder(k):
    # every family, each balanced stratum and the empty one past k: the
    # text put together from the edge table is json.dumps of the object
    from ptlalg import cli
    families = [(kind, None) for kind in ("partial_brauer", "motzkin", "tl",
                                          "balanced_motzkin")]
    families += [("balanced_motzkin_n", n) for n in range(k + 2)]
    for kind, n in families:
        keys, texts = [], []
        diagram.enumerate_keys(kind, k, keys.append, n)
        cli._enumerate_chunks(kind, k, n, texts.extend)
        assert texts == [json.dumps(diagram._json_of(k, key)) for key in keys]
        assert len(texts) == diagram.count_diagrams(kind, k, n)


# -- negative fractions as option values -------------------------------------------

P1_K2 = {"terms": [{"coeff": "1", "diagram": {"k": 2, "edges": [["t2", "b2"]]}}]}


@pytest.mark.parametrize("verb, option, want", [
    (["semisimple", "--k", "12"], "--q", "at q=-3/7"),
    (["centralizer", "--k", "2"], "--q", "at q = -3/7: 7"),
    (["render", "{e1}", "--format", "matrix"], "--alpha", "6 4 -3/7"),
], ids=["semisimple-q", "centralizer-q", "render-alpha"])
def test_negative_fraction_is_an_option_value(verb, option, want, tmp_path, capsys):
    f = tmp_path / "e1.json"
    f.write_text(json.dumps(E1_K2))
    verb = [a.format(e1=f) for a in verb]
    code, out = run_cli(verb + [option, "-3/7"], capsys)
    assert code == 0 and want in out
    assert run_cli(verb + [option + "=-3/7"], capsys) == (0, out)


# -- rational option values follow the scalar parser's rational rule ----------------

@pytest.mark.parametrize("verb, option, spaced, tight", [
    (["centralizer", "--k", "3", "--json"], "--q", "3 / 4", "3/4"),
    (["semisimple", "--k", "6"], "--q", " - 3 / 7 ", "-3/7"),
], ids=["centralizer-q", "semisimple-q"])
def test_spaced_rational_options_read_as_their_tight_forms(verb, option, spaced, tight,
                                                           capsys):
    code, out = run_cli(verb + [option, tight], capsys)
    assert code == 0 and out
    assert run_cli(verb + [option, spaced], capsys) == (0, out)


@pytest.mark.parametrize("argv", [
    ["centralizer", "--k", "2", "--q", "0.5"],
    ["centralizer", "--k", "2", "--q", "1_0"],
    ["centralizer", "--k", "2", "--q", "q"],
    ["semisimple", "--k", "4", "--q", "delta"],
    ["render", "{e1}", "--format", "matrix", "--alpha", "0.5"],
], ids=["q-decimal", "q-underscore", "q-variable", "q-delta", "alpha-decimal"])
def test_non_rational_option_values_exit_2(argv, tmp_path, capsys):
    f = tmp_path / "e1.json"
    f.write_text(json.dumps(E1_K2))
    with pytest.raises(SystemExit) as exc:
        main([a.format(e1=f) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "not a rational number" in captured.err


def test_delta_prime_is_not_an_option(tmp_path, capsys):
    # delta is the one loop parameter: an open path weighs 1
    f = tmp_path / "p1.json"
    f.write_text(json.dumps(P1_K2))
    assert run_cli(["mul", str(f), str(f), "--algebra", "partial_brauer"], capsys) == (
        0, "(1)*Diagram(k=2, [(0,), (1, 3), (2,)])\n")
    with pytest.raises(SystemExit) as exc:
        main(["mul", str(f), str(f), "--delta-prime", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "unrecognized arguments: --delta-prime 2" in captured.err


def test_sign_is_not_an_option(capsys):
    # delta acts on the tensor space as 1 - (q + q^-1) alone
    with pytest.raises(SystemExit) as exc:
        main(["render", "-", "--format", "matrix", "--sign", "+"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "unrecognized arguments: --sign +" in captured.err


def test_non_rational_option_value_has_no_traceback_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "ptlalg.cli", "centralizer", "--k", "2", "--q", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert not proc.stdout
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


# an element of k = 3 with delta-polynomial coefficients, as CI pipes it
MATRIX_K3 = {"basis": "tilde", "terms": [
    {"coeff": "delta^2 - 1", "diagram": E1_K3},
    {"coeff": "3", "diagram": {"k": 3, "edges": [["t1", "b1"], ["t2", "b2"], ["t3", "b3"]]}},
    {"coeff": "-1/2*delta", "diagram": E2_K3}]}


def matrix_k4(basis):
    """Every fifth balanced Motzkin 4-diagram, with coefficients from Q[delta]."""
    coeffs = ("delta^2 - 1", "3", "-2*delta", "1/2*delta + 1", "-1")
    pool = diagram.balanced_motzkin_diagrams(4)[::5]
    return {"basis": basis, "terms": [{"coeff": coeffs[i % len(coeffs)], "diagram": d.to_json()}
                                      for i, d in enumerate(pool)]}


def mul_factor_k4():
    """Every seventh balanced Motzkin 4-diagram from the fourth, with
    fraction and Q[delta] coefficients: the right factor of the pinned
    diagram-basis product."""
    coeffs = ("-1/3", "delta^3 - 2", "3/4*delta", "2")
    pool = diagram.balanced_motzkin_diagrams(4)[3::7]
    return {"basis": "diagram", "terms": [{"coeff": coeffs[i % len(coeffs)], "diagram": d.to_json()}
                                          for i, d in enumerate(pool)]}


def test_diagram_basis_mul_matches_the_pinned_digest(tmp_path, capsys):
    # 37 x 26 terms at k = 4, as CI multiplies them: 183 terms of degree <= 5
    fx, fy = tmp_path / "x.json", tmp_path / "y.json"
    fx.write_text(json.dumps(matrix_k4("diagram")))
    fy.write_text(json.dumps(mul_factor_k4()))
    code, out = run_cli(["mul", str(fx), str(fy), "--json"], capsys)
    assert code == 0
    assert len(json.loads(out)["terms"]) == 183
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "52b4e61c59421a33"


# sha256 prefixes of ``render --format matrix``.  The bar and tilde matrices
# do not move with alpha: a balanced diagram has as many cups (weights in
# alpha) as caps (in 1/alpha), and the corrected forms drop the alpha-free
# (0, 0) weight.
MATRIX_DIGESTS = [
    ("k4-diagram", [], "e8cbb26792fa2bf8"),
    ("k4-bar", [], "be407ee54624fa9e"),
    ("k4-tilde", [], "b77f36c1e357f582"),
    ("k4-diagram", ["--alpha", "2/3"], "889b2ff02d5b3453"),
    ("k4-bar", ["--alpha", "2/3"], "be407ee54624fa9e"),
    ("k4-tilde", ["--alpha", "2/3"], "b77f36c1e357f582"),
    ("k3-tilde", ["--alpha", "2/3"], "5bc715fc31a9ab67"),
    # an integral alpha, whose cap weights 1/alpha are not integral
    ("k4-diagram", ["--alpha", "2"], "e940da81aaa701ab"),
]


@pytest.mark.parametrize("name,flags,want", MATRIX_DIGESTS,
                         ids=[n + ("-alpha" if f else "") + ("-int" if f and "/" not in f[1] else "")
                              for n, f, _ in MATRIX_DIGESTS])
def test_render_matrix_matches_the_pinned_digest(name, flags, want, tmp_path, capsys):
    obj = MATRIX_K3 if name == "k3-tilde" else matrix_k4(name.split("-")[1])
    f = tmp_path / "x.json"
    f.write_text(json.dumps(obj))
    code, out = run_cli(["render", str(f), "--format", "matrix", *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


def test_run_suite_refuses_an_unknown_suite():
    # the verb's --suite choices never reach it; the library names the suite
    with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
        verify.run_suite("nope")


@pytest.mark.parametrize("argv, want", [
    (["convert", "--to", "bar"], "0\n"),
    (["render", "--format", "ascii"], "0\n"),
    (["render", "--format", "tikz"], "% zero element\n"),
], ids=["convert", "ascii", "tikz"])
def test_the_zero_element_prints(argv, want, tmp_path, capsys):
    f = tmp_path / "zero.json"
    f.write_text('{"k": 2, "terms": []}')
    assert run_cli([argv[0], str(f)] + argv[1:], capsys) == (0, want)
