"""The planted-fault list of tools/faults.py stays in step with the code."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_faults():
    spec = importlib.util.spec_from_file_location("faults", ROOT / "tools" / "faults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_planted_fault_applies_once_and_names_a_test_file():
    faults = load_faults()
    assert faults.FAULTS
    for f in faults.FAULTS:
        text = (ROOT / "src" / "ptlalg" / f.file).read_text()
        assert text.count(f.old) == 1, f
        assert f.old != f.new, f
        assert (ROOT / f.tests).is_file(), f
        assert f.expect in faults.ACCEPTED, f
        assert 0 < f.timeout <= faults.TIMEOUT, f
