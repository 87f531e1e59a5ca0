"""The public surface: every public name in src/ptlalg has a caller, and
README's quick tour runs against the exports."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptlalg"

# Public names kept with no caller in src/ or bench/, each for a job of its own.
KEPT = {
    # with p_j and b_i it generates the partition monoid, closed to Bell(6) = 203
    "gen_s",
    # the embedding x -> x (tensor) 1 that restricts PTL_k modules to PTL_{k-1}
    "tensor",
    # joins two paths into a TL diagram, the route of the cell forms
    "join_tl",
}


def names_read_in_src():
    """Every name read in src/ptlalg, bare or as an attribute."""
    seen = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def words_in_bench():
    """Every word of bench/*.py; the layer tracer names its spans as strings."""
    return {w for path in (ROOT / "bench").glob("*.py")
            for w in re.findall(r"\w+", path.read_text())}


def test_every_public_name_has_a_caller():
    called = names_read_in_src() | words_in_bench() | KEPT
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in called):
                uncalled.append("%s.%s" % (path.stem, node.name))
    assert not uncalled, "public names with no caller in src/ or bench/: %s" % uncalled


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("A quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
