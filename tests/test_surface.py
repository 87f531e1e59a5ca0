"""The public surface: every public name, method and constant in src/ptlalg
has a reader, every option of a ``ptl`` verb is read, and README's quick
tour runs against the exports."""

import argparse
import ast
import pathlib
import re

from ptlalg import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptlalg"

# Public names, methods (as Class.method) and constants kept with no reader
# in src/ or bench/, each for a job of its own.
KEPT = {
    # with p_j and b_i it generates the partition monoid, closed to Bell(6) = 203
    "gen_s",
    # the embedding x -> x (tensor) 1 that restricts PTL_k modules to PTL_{k-1}
    "tensor",
    # joins two paths into a TL diagram, the route of the cell forms
    "join_tl",
}


def trees():
    """(module name, parsed module) for each file of src/ptlalg but __init__,
    which only re-exports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text())


def loads_in_src(bare):
    """Every name src/ptlalg loads as an attribute (``.name``), and with
    ``bare`` also as a bare name; an assignment is no read."""
    seen = set()
    for _, tree in trees():
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif bare and isinstance(node, ast.Name):
                seen.add(node.id)
    return seen


def words_in_bench():
    """Every word of bench/*.py; the layer tracer names its spans as strings."""
    return {w for path in (ROOT / "bench").glob("*.py")
            for w in re.findall(r"\w+", path.read_text())}


def public_members():
    """(qualified name, name, is a method) for each public method of a public
    class and each public module constant."""
    for module, tree in trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield "%s.%s.%s" % (module, node.name, item.name), item.name, True
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("_"):
                    yield "%s.%s" % (module, t.id), t.id, False


def test_every_public_name_has_a_caller():
    called = loads_in_src(bare=True) | words_in_bench() | KEPT
    uncalled = []
    for module, tree in trees():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in called):
                uncalled.append("%s.%s" % (module, node.name))
    assert not uncalled, "public names with no caller in src/ or bench/: %s" % uncalled


def test_every_public_method_and_constant_has_a_reader():
    # a bare-name read does not count for a method: diagram.identity would
    # otherwise hide a SparseMatrix.identity
    bench = words_in_bench()
    read = {True: loads_in_src(bare=False) | bench, False: loads_in_src(bare=True) | bench}
    unread = [qual for qual, name, method in public_members()
              if name not in read[method] and qual.split(".", 1)[1] not in KEPT]
    assert not unread, "public methods and constants nothing in src/ or bench/ reads: %s" % unread


# (verb, option dest) defined and read by no code, each for a job of its own
UNREAD_OPTIONS = {
    # a no-op the benchmark's cli session and CI still pass; it goes when they
    # stop (ROADMAP item 6)
    ("centralizer", "allow_k4"),
}


def reads_of(functions, name, param):
    """The attributes that the cli.py function ``name`` reads on its
    parameter ``param``, with those that each cli.py function it passes
    ``param`` to reads on the parameter that receives it."""
    seen = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            seen.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions):
            callee = functions[node.func.id].args.args
            seen.update(*(reads_of(functions, node.func.id, callee[i].arg)
                          for i, arg in enumerate(node.args)
                          if isinstance(arg, ast.Name) and arg.id == param))
    return seen


def test_every_cli_option_is_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    verbs = next(action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    unread = set()
    for verb, parser in verbs.items():
        read = reads_of(functions, parser.get_default("fn").__name__, "args")
        unread |= {(verb, action.dest) for action in parser._actions
                   if action.dest != "help" and action.dest not in read}
    assert unread == UNREAD_OPTIONS


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("A quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
