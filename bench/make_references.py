"""Measure the bgw_survival reference alive fractions once, at a large replica count.

    python3 bench/make_references.py

Runs the bgw_survival config through the CLI with REPLICAS replicas per
lambda on a seed no benchmark run uses, and writes the alive counts to
bench/references.json. The law check compares each run with these.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from workloads import REFERENCES, BGWSurvival, read_tree, summary_rows, sub_seed  # noqa: E402

REPLICAS = 20_000


def main():
    w = BGWSurvival(0, "full", tempfile.gettempdir())
    cfg = dict(w.config(0), replicas=REPLICAS,
               seed=sub_seed("bgw_survival/reference", 0, 0))
    with tempfile.TemporaryDirectory() as out:
        if w.dispatch("simulate", cfg, out) != 0:
            raise SystemExit("the reference simulate run failed")
        rows = summary_rows(read_tree(out)["summary.csv"])
    ref = {"bgw_survival": {
        "replicas": REPLICAS, "seed": cfg["seed"],
        "alive": {str(float(r["lambda"])): int(r["alive_at_horizon"]) for r in rows},
        "censored": sum(int(r["censored"]) for r in rows)}}
    with open(REFERENCES, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref))


if __name__ == "__main__":
    main()
