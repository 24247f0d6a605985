"""Compare CLI artifacts of this checkout with those of another checkout.

    python scripts/compare_artifacts.py OTHER_CHECKOUT

Runs a fixed set of configs through `cpdg.cli.parse_config` and
`cpdg.cli.dispatch` with each checkout's `src/` on the path, and compares the
exit code, the printed lines and every artifact file byte for byte once each
side's config hash is replaced by a placeholder. So a change that only
changes config hashes passes. Prints one line per config; exits 1 on any
difference.

The configs: both determinism configs of the acceptance suite, one config
per subcommand, one `simulate` config (with records) for each engine path
the others leave out (the `wait_and_see`, `penalised` and `lower_bound`
variants and the thinned CPDG background), a `simulate` config on lazy trees
whose root degree is forced (`graph.root_degree`), a `wait_and_see`
`simulate` config (with records) on lazy trees capped so that some replicas
are truncated (where revealed edges go idle as the infection moves on), a
`simulate` config on a finite graph whose kernel is a `kernel.table` file
(written into the script's temporary directory, so both sides read the same
file), a second star-survival config whose children differ (random degrees
with some dropped, eta > 0, nu != 1; the other star configs give every
child degree 3), a stable-star config with the same offspring law (three
degree classes of different p), and batch 0 (seed 601) of the
`bgw_survival` and `star_samplers` benchmark workloads.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# run in a child process: argv = subcommand, config JSON, artifact directory
CHILD = """
import io, json, sys
from cpdg import cli
config = cli.parse_config(sys.argv[2], sys.argv[1])
out = io.StringIO()
rc = cli.dispatch(config, out_dir=sys.argv[3], stream=out)
print(json.dumps({"rc": rc, "hash": config.config_hash, "stdout": out.getvalue()}))
"""

K2 = {"kind": "finite", "edges": [[0, 1]]}
STAR3 = {"kind": "finite", "edges": [[0, 1], [0, 2], [0, 3]]}


def configs(tmp):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads  # noqa: E402  (the benchmark's own config builders)

    out = [
        ("C12 simulate", "simulate", {"graph": STAR3, "kernel": {"alpha": 0.5}, "lambda": 1.0,
                                      "horizon": 2.0, "replicas": 2000, "records": True,
                                      "seed": 12}),
        ("C12 star", "star", {"kernel": {"alpha": 0.2, "sigma": 0.0},
                              "dist": {"kind": "deterministic", "d": 2}, "n_values": [200],
                              "degree_bound": 4, "replicas": 300, "stability_only": True,
                              "seed": 12}),
        ("simulate grid", "simulate", {"graph": K2, "kernel": {"alpha": 0.5},
                                       "lambda": [0.2, 0.4, 0.6, 0.8, 1.0], "horizon": 2.0,
                                       "replicas": 50}),
        ("star survival", "star", {"kernel": {"alpha": 0.2, "sigma": 0.0},
                                   "dist": {"kind": "deterministic", "d": 2},
                                   "n_values": [20, 40], "degree_bound": 4, "lambda": 0.4,
                                   "replicas": 20, "seed": 3}),
        ("star survival random degrees", "star",
         {"kernel": {"alpha": 0.3, "sigma": 0.5, "eta": 0.5, "nu": 3.0},
          "dist": {"kind": "geometric", "q": 0.3, "k0": 1}, "n_values": [5, 12],
          "degree_bound": 4, "lambda": 0.5, "replicas": 40, "seed": 5}),
        ("stable star random degrees", "star",
         {"kernel": {"alpha": 0.4, "sigma": 0.5},
          "dist": {"kind": "geometric", "q": 0.3, "k0": 1}, "n_values": [300, 2000],
          "degree_bound": 4, "replicas": 300, "stability_only": True, "seed": 6}),
        ("path", "path", {"kernel": {"alpha": 0.5}, "r_values": [1, 2, 3], "degree": 3,
                          "lambda": 0.5, "replicas": 200, "seed": 4}),
        ("phase", "phase", {"alpha": 0.3, "eta": 0.1, "tail": "power_law"}),
        ("edge-law", "edge-law", {"lambda": 1.0, "v": 1.0, "p": 1.0}),
        ("oracle", "oracle", {"graph": K2, "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 1.0}),
        ("check", "check", {"graph": {"kind": "finite", "edges": [[0, i] for i in range(1, 6)]},
                            "kernel": {"alpha": 1.2, "sigma": 1.0}, "lambda": 0.05,
                            "weight": {"kind": "linear"}}),
    ]
    star_sim = {"graph": STAR3, "kernel": {"alpha": 0.5}, "lambda": 3.0, "horizon": 10.0,
                "replicas": 200, "records": True, "seed": 7}
    out += [(f"simulate {label}", "simulate", {**star_sim, **extra})
            for label, extra in (("wait_and_see", {"variant": "wait_and_see"}),
                                 ("penalised", {"variant": "penalised"}),
                                 ("lower_bound", {"variant": "lower_bound"}),
                                 ("cpdg thinned", {"bg_mode": "thinned"}))]
    out.append(("simulate bgw root_degree", "simulate",
                {"graph": {"kind": "bgw", "dist": {"kind": "geometric", "q": 0.4, "k0": 1},
                           "root_degree": 6, "max_vertices": 5000},
                 "kernel": {"alpha": 0.5}, "lambda": 1.5, "horizon": 5.0, "replicas": 200,
                 "records": True, "seed": 8}))
    out.append(("simulate wait_and_see bgw", "simulate",
                {"graph": {"kind": "bgw", "dist": {"kind": "geometric", "q": 0.4, "k0": 1},
                           "max_vertices": 60},
                 "kernel": {"alpha": 0.5, "sigma": 1.0}, "lambda": 1.5, "horizon": 10.0,
                 "replicas": 200, "records": True, "variant": "wait_and_see", "seed": 10}))
    table = os.path.join(tmp, "kernel_table.txt")
    with open(table, "w") as fh:
        fh.write("1 3 0.8\n2 3 0.5\n2 2 0.3\n1 2 0.9\n")
    out.append(("simulate kernel table", "simulate",
                {"graph": {"kind": "finite", "edges": [[0, 1], [0, 2], [0, 3], [3, 4], [4, 5]]},
                 "kernel": {"alpha": 0.5, "table": table, "eta": 0.5, "nu": 2.0},
                 "lambda": 2.0, "horizon": 10.0, "replicas": 200, "records": True, "seed": 9}))
    with tempfile.TemporaryDirectory() as scratch:
        out.append(("bgw_survival batch 0", "simulate",
                     workloads.BGWSurvival(601, "full", scratch).config(0)))
        out += [(f"star_samplers batch 0 {label}", "star", cfg)
                for label, cfg in workloads.StarSamplers(601, "full", scratch).configs(0)]
    return out


def run(checkout, subcommand, cfg, out_dir):
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, subcommand, json.dumps(cfg), out_dir],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read().replace(result["hash"].encode(), b"<hash>")
    return result["rc"], result["stdout"].replace(result["hash"], "<hash>"), files


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    other = os.path.abspath(argv[0])
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, subcommand, cfg) in enumerate(configs(tmp)):
            sides = [run(tree, subcommand, cfg, os.path.join(tmp, f"{i}-{side}"))
                     for side, tree in (("this", ROOT), ("other", other))]
            same = sides[0] == sides[1]
            differ += not same
            print(f"{'same' if same else 'DIFFERENT'}  {label}: rc={sides[0][0]}, "
                  f"files {sorted(sides[0][2])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
