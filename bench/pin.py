"""Regenerate ``bench/known.json``, the answers the benchmark checks against.

    python3 bench/pin.py

The k = 4 pair table is pinned from the expand-multiply-recollect oracle,
after checking that both structured rules agree with it on every ordered
pair; the deterministic CLI outputs are pinned after their parsed answers
pass the workload's own checks.  Run it only when an answer is meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import workloads  # noqa: E402
from ptlalg import algebra as alg  # noqa: E402

DETERMINISTIC_VERBS = ("verify", "enumerate", "centralizer", "cell-dims",
                       "bratteli", "semisimple")


def pin_products():
    table = workloads.PairTable(random.Random(0))
    spec, basis = table.spec, table.basis
    expand = {"tilde": alg.tilde_of, "bar": alg.bar_of}
    rule = {"tilde": alg.tilde_multiply, "bar": alg.bar_multiply}
    rows = {}
    for name in workloads.PairTable.RULES:
        rows[name] = []
        for d1 in basis:
            texts = []
            for d2 in basis:
                oracle = alg.change_basis(expand[name](spec, d1) * expand[name](spec, d2), name)
                if rule[name](spec, d1, d2) != oracle:
                    raise SystemExit("%s rule disagrees with the oracle at %r, %r" % (name, d1, d2))
                texts.append(workloads.element_text(oracle))
            rows[name].append(workloads.digest("\n".join(texts)))
    return {"rows": rows}


def pin_cli():
    with tempfile.TemporaryDirectory() as workdir:
        session = workloads.Cli(0, workdir)
        session.run(speed.SpeedClock())
    pinned = {}
    for verb in DETERMINISTIC_VERBS:
        code, text = session.outputs[verb]
        if code != 0 or not session._answer_ok(verb, text, session.x.spec):
            raise SystemExit("%s fails its own check; nothing pinned" % verb)
        pinned[verb] = workloads.digest(text)
    return pinned


def main():
    known = {"products": pin_products(), "cli": pin_cli()}
    with open(workloads.KNOWN, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
