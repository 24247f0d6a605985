"""Child process of bench/run.py: set up workloads, run them, report one JSON line.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS SIZE RESULTS_DIR

MODE is `setup` (set up, then exit), `run` (batches with tracing off until
SECONDS have passed) or `trace` (one batch of WORKLOAD untraced, then one
traced batch of every workload). The line `READY` on stdout marks the end of
set-up; the last line is the JSON report.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import cpdg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not os.path.abspath(cpdg.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: imported cpdg from {cpdg.__file__}, not from {SRC}")


def run_batches(workload, seconds):
    """Batches 0, 1, ... until the next one would end after `seconds`."""
    start = time.perf_counter()
    batches, spent = [], []
    while True:
        t0 = time.perf_counter()
        batches.append(workload.run_batch(len(batches)))
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(spent) > seconds:
            return batches


def report(batches_by_workload, plans):
    checks = []
    attempted = failed = 0
    for name, batches in batches_by_workload.items():
        for check, ok, detail in plans[name].check(batches):
            checks.append({"workload": name, "check": check, "ok": bool(ok), "detail": detail})
        attempted += sum(b.attempted for b in batches)
        failed += sum(b.failed for b in batches)
    return {"checks": checks, "attempted": attempted, "failed": failed}


def main(argv):
    mode, name, seed, seconds, size, results = argv
    seed, seconds = int(seed), float(seconds)
    scratch = os.path.join(results, "tmp")
    os.makedirs(scratch, exist_ok=True)
    names = [name] if mode != "trace" else [name] + [n for n in WORKLOADS if n != name]
    plans = {n: WORKLOADS[n](seed, size, scratch) for n in names}
    for plan in plans.values():
        plan.prepare()
    print("READY", flush=True)
    if mode == "setup":
        return
    out = {"env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                   "scipy": scipy.__version__, "cpdg": cpdg.__version__},
           "replica_counts": {n: p.replica_counts() for n, p in plans.items()}}
    main_plan = plans[name]
    if mode == "run":
        batches = run_batches(main_plan, seconds)
        # the peak of the timed calls, before the law checks allocate anything
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update(report({name: batches}, plans))
        out["batch_seconds"] = [b.seconds for b in batches]
        out["digests"] = [b.digest for b in batches]
    else:
        from tracer import Tracer, layer_metrics

        untraced = main_plan.run_batch(0)
        tracer = Tracer()
        traced = {}
        with tracer.installed():
            for n in names:
                tracer.workload = n
                traced[n] = plans[n].run_batch(0)
        out.update(report({n: [b] for n, b in traced.items()}, plans))
        out["checks"].append({"workload": name, "check": "tracing leaves outputs unchanged",
                              "ok": untraced.digest == traced[name].digest,
                              "detail": "digest of the untraced and the traced batch 0"})
        out["attempted"] += untraced.attempted
        out["failed"] += untraced.failed
        out["digests"] = [traced[name].digest]
        out["per_layer"] = layer_metrics(tracer, traced, plans,
                                         traced[name].seconds - untraced.seconds)
        tracer.dump(os.path.join(results, f"spans-{name}-seed{seed}.json"))
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
