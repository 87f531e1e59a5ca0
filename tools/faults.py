"""Planted faults: each listed fault must still be caught by its test file.

Every entry plants one fault, an exact text replacement in a module of
``src/ptlalg``, in a fresh copy of ``src/``, ``tests/``, ``pyproject.toml``
and the pinned digests ``bench/known.json`` that ``tests/test_cli.py``
reads (the checkout is never edited), and runs

    python -m pytest -x -q -p no:cacheprovider <test file>

in that copy under a timeout.  The entry's expected outcome is one of

* ``killed`` -- the test file fails;
* ``equivalent`` -- the test file passes, because the fault changes no
  answer (the entry says why);
* ``hang`` -- the test file fails or runs past the entry's timeout.

A timeout counts as a kill only for a ``hang`` entry.  The script fails when
a ``killed`` or ``hang`` entry survives, an ``equivalent`` entry is killed,
pytest stops with an error rather than a failed test, or an entry's old
text does not occur exactly once in its file.

    python3 tools/faults.py

It prints one line per fault and exits 0 when every fault meets its
expectation, 1 otherwise.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

# seconds a test file may run before the fault counts as a hang
TIMEOUT = 300


class Fault(NamedTuple):
    file: str      # under src/ptlalg
    old: str       # text that occurs exactly once in the file
    new: str       # its replacement
    tests: str     # test file, relative to the repository root
    expect: str    # "killed", "equivalent" or "hang"
    why: str
    timeout: int = TIMEOUT


FAULTS = [
    Fault("algebra.py", "_loop_factor(spec.delta, loops, 1)",
          "_loop_factor(spec.delta, loops, 0)", "tests/test_acceptance.py", "killed",
          "structured products weigh a loop by delta, not delta - 1"),
    Fault("cells.py", "if rank_of(b) != rank_of(a):", "if False:",
          "tests/test_acceptance.py", "killed",
          "bar_act keeps a path of lower rank"),
    Fault("ptl.py", "block.add_at(idx[A], idx[B],", "block.add_at(idx[B], idx[A],",
          "tests/test_acceptance.py", "killed",
          "to_block transposes the block"),
    Fault("repn.py", "((1, -1), 1, -a)", "((1, -1), 1, a)",
          "tests/test_acceptance.py", "killed",
          "a cup weighs alpha in place of -alpha"),
    Fault("diagram.py", "if left and right and len(nodes) > 2:",
          "if left and right and len(nodes) > 4:", "tests/test_acceptance.py", "killed",
          "a through path of four nodes is not named a snake"),
    Fault("diagram.py", "if left and right and len(nodes) > 2:",
          "if left and len(nodes) > 2:", "tests/test_diagram.py", "killed",
          "a left-only path of an obstructed pair is named a snake"),
    Fault("diagram.py", "if left and right and len(nodes) > 2:",
          "if left and right and len(nodes) > 3:", "tests/test_diagram.py", "equivalent",
          "a through path alternates between the factors' blocks, so its "
          "component has 2 or at least 4 nodes"),
    Fault("ptl.py", "min(moved,", "max(moved,", "tests/test_ptl.py", "killed",
          "generated_dimension multiplies in the basis of more generator terms"),
    Fault("linalg.py", "if nv:", "if nv or True:", "tests/test_acceptance.py", "hang",
          "elimination keeps its zero entries, and rows never empty", timeout=30),
    Fault("diagram.py", "elif u >= k:", "elif u > k:", "tests/test_diagram.py", "killed",
          "frames take a cap at the first bottom column for a through edge"),
    Fault("linalg.py", "if all(vals) and set(map(type, vals))", "if set(map(type, vals))",
          "tests/test_linalg.py", "killed",
          "an int row with an explicit 0 is taken as clean and stores a zero entry"),
    Fault("repn.py", "c = c.evaluate(delta0)", "c = c", "tests/test_repn.py", "killed",
          "representation_rank leaves a delta-polynomial coefficient unevaluated"),
    Fault("repn.py", "if v:\n                    row[at] = v",
          "if True:\n                    row[at] = v", "tests/test_repn.py", "killed",
          "representation_rank keeps the sums that cancel as zero entries"),
    Fault("linalg.py", "key=min, reverse=True)", "key=min)", "tests/test_linalg.py", "killed",
          "rank_of_rows adds rows by ascending least column"),
    Fault("qcriteria.py", ".evaluate(q0) != 0", ".evaluate(q0) == 0",
          "tests/test_qcriteria.py", "killed",
          "tl_semisimple calls a point semisimple only where every <n>_q vanishes"),
    Fault("repn.py", "key = (sum(a), sum(b))", "key = sum(a)", "tests/test_repn.py", "killed",
          "commutant blocks are shared by the v_0 count of the row pattern alone"),
    Fault("scalar.py", "return self + -other", "return self + other", "tests/test_scalar.py",
          "killed", "polynomial subtraction adds"),
    Fault("diagram.py", 'check_keys(obj, "a diagram", ("k",), ("edges", "blocks"))', "pass",
          "tests/test_cli.py", "killed",
          "a diagram's shape goes unchecked: an unknown key is ignored, and a missing k "
          "or a value that is not an object raises KeyError or TypeError"),
    Fault("diagram.py", 'raise ValueError("missing key %r in %s" % (key, what))', "pass",
          "tests/test_algebra.py", "killed",
          "a JSON object without a required key raises KeyError as it loads"),
    Fault("algebra.py", "if k not in (None, spec.k):", "if False:", "tests/test_algebra.py",
          "killed", "Element.from_json reads an element of another k into the spec"),
    Fault("algebra.py", "except TypeError:", "except ArithmeticError:", "tests/test_cli.py",
          "killed", "two coefficients of one diagram in different rings raise TypeError"),
    Fault("algebra.py", "if len(ks) > 1:", "if False:", "tests/test_algebra.py", "killed",
          "Element.json_terms takes terms of two k as an element of one of them"),
    Fault("algebra.py", "if not (type(c) in _NUM or", "if not (isinstance(c, _NUM) or",
          "tests/test_algebra.py", "killed",
          "a bool passes for an int coefficient, and an element of False coefficients is zero"),
    Fault("verify.py", "_loop_factor(spec.delta, comp.loops, 0) if comp.loops else 1",
          "_loop_factor(spec.delta, comp.blocks, 0) if comp.blocks else 1",
          "tests/test_algebra.py", "killed",
          "the structured-products oracle weighs every discarded block, open paths too"),
    Fault("repn.py", 'tform, bform = _forms(cfg, basis != "diagram")',
          'tform, bform = _forms(cfg, basis == "bar")', "tests/test_repn.py", "killed",
          "a tilde vector acts with the uncorrected (0, 0) weights of its cups and caps"),
]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "bench").mkdir()
    shutil.copy2(ROOT / "bench" / "known.json", dest / "bench" / "known.json")


def plant(dest, fault):
    """Apply ``fault`` in the copy at ``dest``; the count of its old text."""
    path = dest / "src" / "ptlalg" / fault.file
    text = path.read_text()
    n = text.count(fault.old)
    if n == 1:
        path.write_text(text.replace(fault.old, fault.new))
    return n


def run(fault):
    """(outcome, seconds) of ``fault``: "killed", "survived", "timeout",
    pytest's exit code when it is none of 0 and 1, or the count of the old
    text when that is not 1."""
    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        dest = pathlib.Path(tmp)
        copy_tree(dest)
        n = plant(dest, fault)
        if n != 1:
            return "old text found %d times" % n, 0.0
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", fault.tests]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=dest, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=fault.timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        # pytest exits 1 when a test failed; 2 to 5 (an error in collection or
        # usage, or no tests) is no kill
        outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error %d" % proc.returncode)
        return outcome, time.perf_counter() - start


# the outcomes each expectation accepts
ACCEPTED = {"killed": {"killed"}, "equivalent": {"survived"}, "hang": {"killed", "timeout"}}


def main():
    bad = 0
    for fault in FAULTS:
        outcome, seconds = run(fault)
        ok = outcome in ACCEPTED[fault.expect]
        bad += not ok
        print("%-4s %-10s %-9s %5.1fs  %s: %r -> %r (%s)" % (
            "ok" if ok else "FAIL", fault.expect, outcome, seconds, fault.file,
            fault.old, fault.new, fault.tests), flush=True)
        if not ok:
            print("     the fault: %s" % fault.why, flush=True)
    print("%d of %d faults as expected" % (len(FAULTS) - bad, len(FAULTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
