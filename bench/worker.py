"""One measured repetition of a workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (build the inputs and stop), ``run`` (untraced: the
end-to-end numbers) or ``trace`` (spans around every layer).  Prints one
JSON object on stdout.  ``bench/run.py`` starts these processes one at a
time; each starts with a cold ``_expansion`` cache and a fresh heap, as
every ``ptl`` invocation does.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workdir = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        print(json.dumps(measure(name, seed, mode, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(name, seed, mode, workdir):
    import speed
    kernel_before = speed.kernel_s()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import tracer
    import workloads
    import ptlalg
    if os.path.dirname(os.path.dirname(os.path.abspath(ptlalg.__file__))) != SRC:
        raise SystemExit("ptlalg was imported from %s, not %s" % (ptlalg.__file__, SRC))
    tracer.layer_modules()
    spans = tracer.Tracer() if mode == "trace" else None
    if spans:
        spans.install()
    work = workloads.WORKLOADS[name](seed, workdir)
    setup_raw_s = time.perf_counter() - start
    clock = speed.SpeedClock(sample=mode != "trace")
    out = {"setup_s": setup_raw_s * 2 * speed.REFERENCE_S / (kernel_before + clock.last),
           "setup_raw_s": setup_raw_s}
    if mode == "setup":
        return out

    cpu_start = time.process_time()
    work.run(clock)
    out["cpu_s"] = time.process_time() - cpu_start
    out["task_s"], out["task_raw_s"] = work.task_s, work.raw_s
    out["wall_s"] = sum(work.task_s.values())
    out["wall_raw_s"] = sum(work.raw_s.values())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["expansion_cache"] = ptlalg.algebra._expansion.cache_info()._asdict()
    if spans:
        spans.uninstall()
        snapshot = spans.snapshot()
    else:
        # The end-to-end numbers must carry no tracing cost.
        out["traced_objects"] = tracer.traced_objects()

    known = workloads.load_known()
    tally = work.check(known)
    if out.get("traced_objects"):
        tally.op(False, "untraced run found wrappers: %s" % out["traced_objects"][:5])
    if spans:
        import layers
        out["layers"] = layers.per_layer(
            snapshot, out["expansion_cache"], work.stdout_bytes() if name == "cli" else 0)
    else:
        if name == "products":
            table = work.table
        else:
            # Product metrics for every workload: a quarter of the products
            # pair table, run after wall_s was taken.
            table = workloads.PairTable(random.Random(seed), row_step=4)
            table.run(clock)
            table.check(tally, known["products"])
        out.update(table.metrics())
    out.update(attempted=tally.attempted, failed=tally.failed, notes=tally.notes)
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
