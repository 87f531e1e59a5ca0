"""The benchmark workloads: inputs from a seed, timed tasks, checks.

Each workload is a class with three steps, run in one fresh process:

* ``__init__(seed, workdir)`` builds the inputs (part of ``setup_s``);
* ``run(clock)`` performs the fixed task list, timing each task into
  ``task_s`` in reference seconds (see ``speed.py``) and ``raw_s``;
* ``check(known)`` verifies every counted operation by an independent
  route or a pinned answer and returns a :class:`Tally`.

Library calls go through module attributes (``alg.tilde_multiply``), never
through names copied at import, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction
from math import comb

from ptlalg import algebra as alg
from ptlalg import cli, diagram, repn

KNOWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "known.json")
K = 4
COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)
ORACLE_PAIRS = 250   # sampled pairs checked against expand-multiply-recollect
ELEMENT_TERMS = 60


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, note, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(note)


class Timed:
    """Per-task wall times of one repetition of a task list."""

    def start(self, clock):
        self.clock = clock
        self.task_s = {}
        self.raw_s = {}

    @contextlib.contextmanager
    def task(self, name):
        with self.clock.span() as timing:
            yield
        self.record(name, timing["raw_s"], timing["factor"])

    def record(self, name, raw_s, factor):
        self.raw_s[name] = raw_s
        self.task_s[name] = raw_s * factor


def load_known():
    """Pinned answers written by ``bench/pin.py``."""
    with open(KNOWN) as fh:
        return json.load(fh)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def ptl_dim(k):
    """Closed formula sum_n binom(k,n)^2 Catalan(n)."""
    return sum(comb(k, n) ** 2 * catalan(n) for n in range(k + 1))


def motzkin_number(n):
    """Closed formula sum_j binom(n,2j) Catalan(j); Motzkin k-diagrams are M(2k)."""
    return sum(comb(n, 2 * j) * catalan(j) for j in range(n // 2 + 1))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def element_text(x):
    return json.dumps(x.to_json(), sort_keys=True, separators=(",", ":"))


def seeded_element(rng, spec, pool, offset, basis):
    """60 terms with seeded coefficients on a fixed support.

    The support is fixed because it sets the work of a product: which pairs
    vanish and how many terms each contributes.  A seeded support moved the
    time of a 60 x 60 product by more than the run-to-run noise.
    """
    support = pool[offset::3][:ELEMENT_TERMS]
    return alg.Element(spec, {d: rng.choice(COEFFS) for d in support}, basis)


def accumulate(x, y, table, basis):
    """Reference product: sum of c1 c2 * (pinned pair product), one dict."""
    out = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            for d, c in table[(d1, d2)].terms.items():
                out[d] = out.get(d, 0) + c1 * c2 * c
    return alg.Element(x.spec, out, basis)


class PairTable:
    """Ordered pairs of balanced Motzkin 4-diagrams through both rules.

    Each call is timed on its own, and the seed shuffles the call order.
    The pass runs in ``CHUNKS`` chunks; each chunk gives its own rate, median
    and 99th percentile (at least 2,000 calls, so 20 beyond the p99), and a
    run reports the median over all chunks of all repetitions.  A burst of
    interference then spoils a few chunks instead of a whole repetition.
    All 183 rows of the table are the first task of ``products``; every
    fourth row, run after ``wall_s`` is taken, is the probe behind the
    product metrics of the other workloads.  Whole rows are used so each
    can be checked against its pinned digest.
    """

    RULES = ("tilde", "bar")

    CHUNKS = 8   # the host's speed is measured between chunks

    def __init__(self, rng, row_step=1):
        self.spec = alg.motzkin_spec(K)
        self.basis = diagram.balanced_motzkin_diagrams(K)
        n = len(self.basis)
        self.rows = range(0, n, row_step)
        self.pairs = [(i, j) for i in self.rows for j in range(n)]
        rng.shuffle(self.pairs)

    def run(self, speed):
        """All pairs in order, in chunks; per-chunk rate and latency
        percentiles in reference units (see ``speed.py``)."""
        spec, basis = self.spec, self.basis
        tilde, bar = alg.tilde_multiply, alg.bar_multiply
        clock = time.perf_counter_ns
        self.results, self.chunks = {}, []
        self.raw_elapsed_s = self.elapsed_s = 0.0
        size = -(-len(self.pairs) // self.CHUNKS)
        for c in range(0, len(self.pairs), size):
            lat = []
            with speed.span() as timing:
                for i, j in self.pairs[c:c + size]:
                    d1, d2 = basis[i], basis[j]
                    t0 = clock()
                    rt = tilde(spec, d1, d2)
                    t1 = clock()
                    rb = bar(spec, d1, d2)
                    t2 = clock()
                    lat.append(t1 - t0)
                    lat.append(t2 - t1)
                    self.results[(i, j)] = (rt, rb)
            factor = timing["factor"]
            self.raw_elapsed_s += timing["raw_s"]
            self.elapsed_s += timing["raw_s"] * factor
            lat.sort()
            self.chunks.append({
                "products_per_s": len(lat) / (timing["raw_s"] * factor),
                "product_p50_us": percentile(lat, 50) * factor / 1000.0,
                "product_p99_us": percentile(lat, 99) * factor / 1000.0,
            })

    def by_diagrams(self, rule):
        r = self.RULES.index(rule)
        b = self.basis
        return {(b[i], b[j]): res[r] for (i, j), res in self.results.items()}

    def check(self, tally, known):
        n = len(self.basis)
        for r, rule in enumerate(self.RULES):
            for i in self.rows:
                text = "\n".join(element_text(self.results[(i, j)][r]) for j in range(n))
                tally.op(digest(text) == known["rows"][rule][i],
                         "%s row %d differs from the pinned oracle table" % (rule, i), count=n)

    def metrics(self):
        """Per-chunk values of each product metric, plus the call count."""
        out = {name: [c[name] for c in self.chunks] for name in self.chunks[0]}
        out["product_calls"] = 2 * len(self.pairs)
        return out


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


class Products(Timed):
    """Structured bar/tilde products at k = 4: diagram, algebra, scalar."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.table = PairTable(rng)
        spec, pool = self.table.spec, self.table.basis
        self.x = {b: seeded_element(rng, spec, pool, 0, b) for b in PairTable.RULES}
        self.y = {b: seeded_element(rng, spec, pool, 1, b) for b in PairTable.RULES}
        self.sample = rng.sample(self.table.pairs, ORACLE_PAIRS)

    def run(self, clock):
        self.start(clock)
        self.table.run(clock)
        table = self.table
        self.record("pair-table", table.raw_elapsed_s, table.elapsed_s / table.raw_elapsed_s)
        self.products = {}
        for b in PairTable.RULES:
            with self.task(b + "-element-product"):
                self.products[b] = self.x[b] * self.y[b]
        spec, pool = self.table.spec, self.table.basis
        expand = {"tilde": alg.tilde_of, "bar": alg.bar_of}
        self.oracle = {}
        with self.task("oracle"):
            for i, j in self.sample:
                for rule in PairTable.RULES:
                    prod = expand[rule](spec, pool[i]) * expand[rule](spec, pool[j])
                    self.oracle[(i, j, rule)] = alg.change_basis(prod, rule)

    def check(self, known):
        tally = Tally()
        self.table.check(tally, known["products"])
        for b in PairTable.RULES:
            want = accumulate(self.x[b], self.y[b], self.table.by_diagrams(b), b)
            tally.op(self.products[b] == want, "%s 60-term product differs" % b)
        for (i, j, rule), got in self.oracle.items():
            want = self.table.results[(i, j)][PairTable.RULES.index(rule)]
            tally.op(got == want, "%s oracle differs at pair (%d, %d)" % (rule, i, j))
        return tally


class Centralizer(Timed):
    """Exact elimination: commutant dimensions and a faithfulness rank."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.tasks = [(k, q0, group, want)
                      for k, group, want in ((4, "gl2", 183), (4, "sl2", 323), (5, "gl2", 1118))
                      for q0 in (Fraction(2), Fraction(3, 2))]
        self.tasks.append(("rank", 2, None, ptl_dim(K)))
        rng.shuffle(self.tasks)
        spec = alg.motzkin_spec(K)
        self.tilde_basis = [alg.tilde_of(spec, d) for d in diagram.balanced_motzkin_diagrams(K)]
        self.cfg = repn.RepConfig()

    def run(self, clock):
        self.start(clock)
        self.answers = []
        for k, q0, group, _ in self.tasks:
            with self.task("%s-%s-%s" % (group or "rank", k, q0)):
                if k == "rank":
                    self.answers.append(repn.representation_rank(self.tilde_basis, q0, self.cfg))
                else:
                    self.answers.append(repn.commutant_dim(k, q0, group))

    def check(self, known):
        tally = Tally()
        for (k, q0, group, want), got in zip(self.tasks, self.answers):
            tally.op(got == want, "%s k=%s q0=%s: %s != %s" % (group or "rank", k, q0, got, want))
        return tally


class Cli(Timed):
    """A user session through ``ptlalg.cli.main``, in process."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        spec = alg.motzkin_spec(K)
        pool = diagram.balanced_motzkin_diagrams(K)
        self.x = seeded_element(rng, spec, pool, 0, "tilde")
        self.y = seeded_element(rng, spec, pool, 1, "tilde")
        xf, yf = os.path.join(workdir, "x.json"), os.path.join(workdir, "y.json")
        for path, el in ((xf, self.x), (yf, self.y)):
            with open(path, "w") as fh:
                json.dump(el.to_json(), fh)
        self.session = [
            ("verify", ["verify", "--suite", "all", "--k", "4", "--json"]),
            ("enumerate", ["enumerate", "--kind", "motzkin", "--k", "6", "--json"]),
            ("mul", ["mul", xf, yf, "--json"]),
            ("convert", ["convert", xf, "--to", "bar", "--json"]),
            ("render", ["render", xf, "--format", "matrix"]),
            ("centralizer", ["centralizer", "--k", "4", "--allow-k4", "--json"]),
            ("cell-dims", ["cell-dims", "--k", "6", "--json"]),
            ("bratteli", ["bratteli", "--k", "8", "--json"]),
            ("semisimple", ["semisimple", "--k", "8", "--q", "2", "--json"]),
        ]

    def run(self, clock):
        self.start(clock)
        self.outputs = {}
        for verb, argv in self.session:
            buf = io.StringIO()
            with self.task(verb), contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            self.outputs[verb] = (code, buf.getvalue())

    def stdout_bytes(self):
        return sum(len(text.encode()) for _, text in self.outputs.values())

    def check(self, known):
        tally = Tally()
        pinned = known["cli"]
        spec = self.x.spec
        for verb, (code, text) in self.outputs.items():
            if code != 0:
                tally.op(False, "%s exited %r" % (verb, code))
                continue
            if verb in pinned and digest(text) != pinned[verb]:
                tally.op(False, "%s output differs from the pinned answer" % verb)
                continue
            tally.op(self._answer_ok(verb, text, spec), "%s gave a wrong answer" % verb)
        return tally

    def _answer_ok(self, verb, text, spec):
        if verb == "render":
            cfg = repn.RepConfig()
            want = repn.SparseMatrix(3 ** K, 3 ** K)
            for d, c in self.x.terms.items():
                want = want + repn.modified_weight_matrix(d, "tilde", cfg).scale(c)
            return text.rstrip("\n") == want.to_coord_text()
        obj = json.loads(text)
        if verb == "verify":
            return obj["failures"] == 0 and len(obj["results"]) == 16 and all(
                r["ok"] for r in obj["results"])
        if verb == "enumerate":
            return obj["count"] == len(obj["diagrams"]) == motzkin_number(12)
        if verb == "mul":
            table = {(a, b): alg.tilde_multiply(spec, a, b)
                     for a in self.x.terms for b in self.y.terms}
            return alg.Element.from_json(spec, obj) == accumulate(self.x, self.y, table, "tilde")
        if verb == "convert":
            got = alg.Element.from_json(spec, obj)
            return (got.basis == "bar" and alg.change_basis(got, "diagram")
                    == alg.change_basis(self.x, "diagram"))
        if verb == "centralizer":
            return obj["dimension"] == ptl_dim(K)
        if verb == "cell-dims":
            return sum(r["dim"] ** 2 for r in obj["dims"]) == ptl_dim(6)
        if verb == "bratteli":
            return [lvl["sum_of_squares"] for lvl in obj] == [ptl_dim(k) for k in range(9)]
        if verb == "semisimple":
            return obj["semisimple"] is True
        raise KeyError(verb)


WORKLOADS = {"products": Products, "centralizer": Centralizer, "cli": Cli}
