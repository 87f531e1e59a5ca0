"""CLI surface: verbs, JSON modes, exit codes, rendering determinism."""

import json
import subprocess
import sys

import pytest

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
    assert main(["centralizer", "--k", "4", "--q", "2"]) == 2  # needs --allow-k4
    assert main(["centralizer", "--k", "5", "--q", "2"]) == 2
    for q in ("0", "1", "-1"):
        capsys.readouterr()
        assert main(["centralizer", "--k", "2", "--q", q]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_bratteli(capsys):
    code, out = run_cli(["bratteli", "--k", "3", "--json"], capsys)
    assert code == 0
    levels = json.loads(out)
    assert levels[3]["sum_of_squares"] == 33


def test_semisimple(capsys):
    code, out = run_cli(["semisimple", "--k", "5", "--q", "2", "--json"], capsys)
    assert code == 0 and json.loads(out)["semisimple"] is True
    assert main(["semisimple", "--k", "3", "--q", "0"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


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
