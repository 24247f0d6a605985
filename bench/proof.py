"""Run the benchmark on sets of seeds and report each metric's spread and drift.

    python3 bench/proof.py --seeds 601-610 701-710 [--trace-seed N] [--out FILE]

Each `--seeds` range is one set. For every set it runs bench/run.py once per
workload and seed, in sequence, with the run_seconds of BENCHMARK.json, and
prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles as a share of the median, beside the metric's bound. From the
second set on it also prints how far each median moved from the first set's.
With --trace-seed it adds one traced run per workload. With --out it writes
every run and the summaries to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}")
    with open(os.path.join(ROOT, ".bench_results",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def run_set(spec, seeds, first):
    """Ten-seed runs of every workload; `first` is the first set's report or None."""
    seconds = spec["run_seconds"]
    report = {"seeds": seeds, "workloads": {}}
    all_correct = True
    for w in spec["workloads"]:
        workload = w["name"]
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        all_correct &= all(r["correct"] and r["failed"] == 0 for r in runs)
        summary = {}
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            flags = []
            if s["spread"] >= m["bound"] / 3:
                flags.append("spread above bound/3")
            if first is not None:
                base = first["workloads"][workload]["summary"][m["name"]]["median"]
                s["shift"] = s["median"] / base - 1.0
                if s["shift"] > m["bound"]:
                    flags.append("median worse than the first set's by more than the bound")
            summary[m["name"]] = {**s, "unit": m["unit"], "bound": m["bound"]}
            shift = f" shift {s['shift']:+.4f}" if "shift" in s else ""
            print(f"{workload:22s} {m['name']:12s} median {s['median']:.4f} {m['unit']:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f}{shift} "
                  f"bound {m['bound']}" + "".join(f"  <-- {f}" for f in flags), flush=True)
        report["workloads"][workload] = {
            "summary": summary, "env": runs[0]["env"],
            "digests": {r["seed"]: r["digest"] for r in runs},
            "correct": [r["correct"] for r in runs],
            "failed_share": [r["failed_share"] for r in runs],
            "runs": [{"seed": r["seed"], "metrics": r["metrics"],
                      "setup_samples_s": r["setup_samples_s"],
                      "batch_seconds": r["batch_seconds"], "tail_share": r["tail_share"]}
                     for r in runs]}
    report["all_correct"] = all_correct
    return report


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, nargs="+", required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    sets = []
    for seeds in args.seeds:
        sets.append(run_set(spec, seeds, sets[0] if sets else None))
    report = {"run_seconds": spec["run_seconds"], "sets": sets}
    all_correct = all(s["all_correct"] for s in sets)
    if args.trace_seed is not None:
        report["traced"] = {}
        for w in spec["workloads"]:
            traced = run(w["name"], args.trace_seed, spec["run_seconds"], 1)
            all_correct &= traced["correct"]
            report["traced"][w["name"]] = {"seed": args.trace_seed, "correct": traced["correct"],
                                           "metrics": traced["metrics"]}
    report["all_correct"] = all_correct
    print(f"all runs correct with failed_share 0: {all_correct}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
