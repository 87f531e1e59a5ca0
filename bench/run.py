"""The ptlalg benchmark: one command, three workloads, exact answers checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts fresh single-threaded worker processes one
after another, each running the whole task list of the workload, until S
seconds have passed (at least one), then reports the median of each
end-to-end metric.  Timings are in reference seconds (see ``speed.py``).  With ``--trace 1`` it runs the workload once untraced
and once with spans around every ``ptlalg`` layer, and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it carries the run's metadata.  Exit code 0 when every checked
operation was right, 1 when one was wrong, 2 when the benchmark cannot run.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("products", "centralizer", "cli")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"),
              ("products_per_s", "1/s"), ("product_p50_us", "us"),
              ("product_p99_us", "us"))


class WorkerFailed(Exception):
    pass


def worker(workload, seed, mode):
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, WORKER, workload, str(seed), mode],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed("%s worker (%s) exited %d:\n%s"
                           % (workload, mode, proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload, seed, seconds):
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(worker(workload, seed, "run"))
    setups = list(reps)
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, "setup"))
    samples = {name: [r[name] for r in reps]
               for name in ("wall_s", "wall_raw_s", "cpu_s", "task_s", "task_raw_s",
                            "peak_rss_mb", "product_calls")}
    # The product metrics come per chunk of the pair table (workloads.PairTable).
    for name in ("products_per_s", "product_p50_us", "product_p99_us"):
        samples[name] = [v for r in reps for v in r[name]]
    samples["setup_s"] = [r["setup_s"] for r in setups]
    samples["setup_raw_s"] = [r["setup_raw_s"] for r in setups]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return reps, metrics, samples


def traced(workload, seed):
    plain = worker(workload, seed, "run")
    spans = worker(workload, seed, "trace")
    metrics = spans["layers"]
    metrics["trace.overhead"]["value"] = spans["wall_s"] / plain["wall_s"]
    reps = [plain, spans]
    attempted = sum(r["attempted"] for r in reps)
    metrics["fail_share"]["value"] = sum(r["failed"] for r in reps) / attempted
    return reps, metrics, {"wall_s": [plain["wall_s"], spans["wall_s"]]}


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "ptlalg", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def git_commit():
    """HEAD of the checkout, read from .git without running git (or None)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ptlalg", "__init__.py")):
        print("bench: no ptlalg sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        # Discarded: byte-compiles the sources and warms the file cache.
        worker(args.workload, args.seed, "setup")
        if args.trace:
            reps, metrics, samples = traced(args.workload, args.seed)
        else:
            reps, metrics, samples = untraced(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "src_lines": src_lines(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "repetitions": len(reps), "samples": samples,
            "expansion_cache": [r["expansion_cache"] for r in reps],
            "failures": [n for r in reps for n in r["notes"]]}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
