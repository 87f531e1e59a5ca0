"""Per-layer spans around the public functions of ``ptlalg``, from outside.

The tracer wraps every public function and method of the layer modules and
rebinds each wrapped name everywhere the package holds it: module globals
(``from .diagram import compose`` copies the name into ``algebra`` and
``verify``), class dictionaries, and module-level registries such as
``verify.SUITES`` and ``diagram._ENUMERATORS``.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original object back.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are aggregated by name as they close, because a workload
makes millions of calls: for each name the tracer keeps the call count,
the total time, the self time (total minus the time covered by child
spans) and, for selected names, how many calls returned a true value.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "ptlalg"
LAYERS = ("scalar", "diagram", "algebra", "linalg", "repn", "ptl", "cells",
          "qcriteria", "render", "verify", "cli")

# Arithmetic and construction dunders are public API; comparison and hashing
# dunders run inside every dict lookup and are left alone.
WRAPPED_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__neg__", "__pow__"}

# Names whose true results are counted (Echelon.add returns "rank grew").
COUNT_TRUE = {"linalg.Echelon.add"}

# While the outermost span of a scope is open (and its arguments pass the
# filter), the calls and true results of the listed names are also credited
# to the scope, and integer results of the scope itself are summed.
SCOPES = {
    "algebra.Element.mul": (("algebra.Element.init", "algebra.tilde_multiply",
                             "algebra.bar_multiply"),
                            lambda x, *rest: x.basis != "diagram"),
    "ptl.generated_dimension": (("algebra.Element.mul",), None),
    "repn.commutant_dim": (("linalg.Echelon.add",), None),
}

MARK = "__bench_traced__"


def layer_modules():
    """Import and return the layer modules, keyed by layer name."""
    return {name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in LAYERS}


def _span_name(method_name):
    return method_name.strip("_") if method_name in WRAPPED_DUNDERS else method_name


def targets():
    """Every (owner, attribute, span name, function) the tracer wraps.

    ``owner`` is the defining module for functions and the class for
    methods; ``function`` is the plain function (unwrapped from
    classmethod/staticmethod).  Generator functions are skipped: their
    call only creates the generator.
    """
    out = []
    for layer, mod in layer_modules().items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                if not inspect.isgeneratorfunction(obj):
                    out.append((mod, attr, "%s.%s" % (layer, attr), obj))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname not in WRAPPED_DUNDERS:
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                        out.append((obj, mname, "%s.%s.%s" % (layer, attr, _span_name(mname)), fn))
    return out


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


def traced_objects():
    """Wrapped objects reachable from the package's modules and classes.

    An untraced run must find none: this is the check that the end-to-end
    numbers carry no tracing cost.
    """
    found = []
    for owner, attr, name, fn in targets():
        member = vars(owner)[attr]
        member = getattr(member, "__func__", member)
        if getattr(member, MARK, False):
            found.append(name)
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            for item in _container_items(val):
                if getattr(item, MARK, False):
                    found.append("%s.%s" % (mod.__name__, attr))
    return found


def _container_items(val):
    """Functions held in a module attribute, one registry level deep."""
    if isinstance(val, dict):
        vals = list(val.values())
    elif isinstance(val, list):
        vals = list(val)
    else:
        return [val]
    items = []
    for v in vals:
        if isinstance(v, list):
            for t in v:
                items.extend(t if isinstance(t, tuple) else (t,))
        elif isinstance(v, tuple):
            items.extend(v)
        else:
            items.append(v)
    return items


def _items(v):
    return v if isinstance(v, tuple) else (v,)


class Tracer:
    """Installable span recorder; see the module docstring."""

    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s, true results]
        self.scoped = {}     # scope -> inner name -> [calls, true results]
        self.scope_results = {}  # scope -> sum of integer results
        self._stack = []     # time covered by children of each open span
        self._patches = []   # (restore callable) in installation order

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        count_true = name in COUNT_TRUE

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if stack:
                    stack[-1] += dur
            if count_true and result:
                stat[3] += 1
            return result

        if name in SCOPES:
            span = self._scope(name, span)
        setattr(span, MARK, True)
        return span

    def _scope(self, name, inner_span):
        inner, accept = SCOPES[name]
        stats = self.stats
        acc = self.scoped.setdefault(name, {n: [0, 0] for n in inner})
        self.scope_results.setdefault(name, 0)
        depth = [0]

        @functools.wraps(inner_span)
        def scope(*args, **kwargs):
            if depth[0] or (accept and not accept(*args, **kwargs)):
                return inner_span(*args, **kwargs)
            before = {n: (stats[n][0], stats[n][3]) for n in inner}
            depth[0] += 1
            try:
                result = inner_span(*args, **kwargs)
            finally:
                depth[0] -= 1
                for n, (calls, true) in before.items():
                    acc[n][0] += stats[n][0] - calls
                    acc[n][1] += stats[n][3] - true
            if isinstance(result, int) and not isinstance(result, bool):
                self.scope_results[name] += result
            return result

        return scope

    # -- installation ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Create every stats slot first, so scope wrappers can read the
        # counters of names wrapped after them.
        plan = targets()
        for _, _, name, _ in plan:
            self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        replaced = {}
        for owner, attr, name, fn in plan:
            wrapped = self._wrap(name, fn)
            member = vars(owner)[attr]
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(wrapped)
            else:
                new = wrapped
                replaced[id(fn)] = (fn, wrapped)
            self._set_attr(owner, attr, member, new)
        self._rebind(replaced)

    def _set_attr(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append(lambda: setattr(owner, attr, old))

    def _rebind(self, replaced):
        """Point every other holder of a wrapped function at its wrapper."""
        def swap(obj):
            hit = replaced.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else obj

        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if swap(val) is not val:
                    self._set_attr(mod, attr, val, swap(val))
                elif isinstance(val, dict):
                    self._rebind_dict(val, swap)
                elif isinstance(val, list):
                    self._rebind_list(val, swap)

    def _rebind_dict(self, d, swap):
        for key, v in list(d.items()):
            if isinstance(v, list):
                self._rebind_list(v, swap)
            elif swap(v) is not v:
                d[key] = swap(v)
                self._patches.append(functools.partial(d.__setitem__, key, v))

    def _rebind_list(self, lst, swap):
        for i, v in enumerate(list(lst)):
            new = tuple(swap(t) for t in v) if isinstance(v, tuple) else swap(v)
            if any(a is not b for a, b in zip(_items(new), _items(v))):
                lst[i] = new
                self._patches.append(functools.partial(lst.__setitem__, i, v))

    def uninstall(self):
        while self._patches:
            self._patches.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------------

    def snapshot(self):
        """Plain-data copy of everything recorded so far."""
        return {
            "stats": {n: list(s) for n, s in self.stats.items() if s[0]},
            "scoped": {s: {n: list(v) for n, v in inner.items()}
                       for s, inner in self.scoped.items()},
            "scope_results": dict(self.scope_results),
        }
