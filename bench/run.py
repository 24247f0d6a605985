"""Run one cpdg benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cpdg source checkout; it runs the program from
`src/` there. With `--trace 0` it measures set-up time in fresh interpreters,
then runs batches of the workload in one child process for S seconds and
reports the end-to-end metrics. With `--trace 1` it runs the traced layer run
and reports the per-layer metrics. Either way it checks the outputs against
their laws, prints one line per metric and check, writes the full result to
`.bench_results/`, and prints one JSON object as its last line. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("bgw_survival", "small_graph_replicas", "star_samplers", "exact_oracle")
SETUP_CHILDREN = (4, 3)  # set-up-only interpreters before and after the measuring one
TAIL = 2.0  # batches slower than TAIL x the median batch count toward tail_share
TIME_LIMIT = 170.0  # every child is killed past this many seconds into the run


class BenchError(RuntimeError):
    pass


def spawn(mode, args, deadline):
    """Run one worker; return (seconds until READY, parsed JSON report or None)."""
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed),
           str(args.seconds), args.size, RESULTS]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {mode} exited with code {code}")
    return setup, (json.loads(lines[-1]) if lines else None)


def source_digest():
    """sha256 over the files under src/, so a run names the code it measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, names in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def tail_share(seconds):
    """Share of batches slower than TAIL times the median; wall_s hides them."""
    if not seconds:
        return 0.0
    cut = TAIL * statistics.median(seconds)
    return sum(s > cut for s in seconds) / len(seconds)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path at toy sizes (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cpdg", "__init__.py")):
        print(f"error: no cpdg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            _, rep = spawn("trace", args, deadline)
            metrics = rep["per_layer"]
            setups = []
        else:
            before, after = SETUP_CHILDREN
            setups = [spawn("setup", args, deadline)[0] for _ in range(before)]
            setup, rep = spawn("run", args, deadline)
            setups += [setup] + [spawn("setup", args, deadline)[0] for _ in range(after)]
            values = {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(rep["batch_seconds"]),
                      "peak_rss_mb": rep["peak_rss_kb"] / 1024.0}
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                wanted = json.load(fh)["end_to_end"]
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = all(c["ok"] for c in rep["checks"])
    attempted = rep["attempted"]
    failed = rep["failed"] if correct else attempted
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "metrics": metrics,
        "attempted": attempted, "failed": failed, "correct": correct,
        "failed_share": failed / attempted, "checks": rep["checks"],
        "digest": rep["digests"][0], "setup_samples_s": setups,
        "batch_seconds": rep.get("batch_seconds", []),
        "tail_share": tail_share(rep.get("batch_seconds", [])),
        "env": {"git_commit": git_commit(), "src_sha256": source_digest(),
                "nproc": os.cpu_count(), "threads": 1, **rep["env"],
                "replica_counts": rep["replica_counts"]},
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    for c in rep["checks"]:
        print(f"check {'PASS' if c['ok'] else 'FAIL'} [{c['workload']}] {c['check']}: {c['detail']}")
    if result["batch_seconds"]:
        print(f"batches {len(result['batch_seconds'])}: "
              + " ".join(f"{s:.4f}" for s in result["batch_seconds"]) + " s")
        print(f"tail_share {result['tail_share']} (batches over {TAIL} x the median)")
    print(f"digest sha256:{result['digest']}")
    print(f"failed_share {result['failed_share']} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
