"""The four cpdg benchmark workloads: inputs from a seed, timed batches, law checks.

Each workload is a closed batch of fixed work, run single-threaded. The
constructor and `prepare` are the set-up a user pays before the first unit of
work. `run_batch` runs one batch, times only the calls into cpdg, and returns
what the law checks need. `check` tests the outputs of every batch of a run
against their laws, never against bytes, so a law-preserving rewrite of the
program keeps passing. Batch `b` of seed `s` always gets the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.sparse.linalg import bicgstab, expm_multiply

from cpdg import cli, engine, lyapunov, oracle
from cpdg.graph import build_finite
from cpdg.kernels import KernelSpec
from cpdg.rng import mix, replica_seed

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def sub_seed(label: str, seed: int, batch: int) -> int:
    """Seed of batch `batch` of a run with workload seed `seed` (31 bits)."""
    digest = hashlib.sha256(f"{label}/{seed}/{batch}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Batch:
    seconds: float  # wall time of the calls into cpdg
    attempted: int
    failed: int
    digest: str  # sha256 of the deterministic outputs
    data: dict  # outputs the law checks pool over batches
    counts: dict = field(default_factory=dict)  # exact counters for the traced run


def read_tree(root: str) -> dict:
    """All files under `root` as {relative path: bytes}."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def digest_files(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def summary_rows(blob: bytes) -> list[dict]:
    """Rows of a cli summary.csv (its first line is a metadata comment)."""
    lines = blob.decode().splitlines()[1:]
    return list(csv.DictReader(lines))


def records(blob: bytes) -> list[dict]:
    """Replica lines of a cli records.jsonl (its first line is metadata)."""
    return [json.loads(line) for line in blob.decode().splitlines()[1:]]


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, scratch: str):
        self.seed = seed
        self.size = size
        self.scratch = scratch

    def prepare(self):
        """Parse configs and build what the first batch needs."""

    def replica_counts(self) -> dict:
        raise NotImplementedError

    def run_batch(self, batch: int) -> Batch:
        raise NotImplementedError

    def check(self, batches: list[Batch]) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def dispatch(self, subcommand: str, cfg: dict, out_dir: str) -> int:
        config = cli.parse_config(json.dumps(cfg), subcommand)
        return cli.dispatch(config, out_dir=out_dir, stream=io.StringIO())


# ---------------------------------------------------------------------------
# bgw_survival: the README simulate config, long trajectories on lazy trees
# ---------------------------------------------------------------------------

class BGWSurvival(Workload):
    name = "bgw_survival"
    LAMBDAS = (0.5, 1.0, 2.0, 4.0)
    REPLICAS = {"full": 1000, "tiny": 20}

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.replicas = self.REPLICAS[size]

    def config(self, batch: int) -> dict:
        return {
            "graph": {"kind": "bgw", "dist": {"kind": "power_law", "b": 2.5}},
            "kernel": {"alpha": 0.5, "sigma": 1.0},
            "lambda": list(self.LAMBDAS),
            "horizon": 20.0,
            "replicas": self.replicas,
            "seed": sub_seed(self.name, self.seed, batch),
        }

    def prepare(self):
        config = cli.parse_config(json.dumps(self.config(0)), "simulate")
        cli.build_graph_spec(config.data["graph"])
        cli.build_kernel(config.data["kernel"])

    def replica_counts(self):
        return {"replicas_per_lambda": self.replicas, "lambdas": list(self.LAMBDAS)}

    def run_batch(self, batch):
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            t0 = time.perf_counter()
            rc = self.dispatch("simulate", self.config(batch), out)
            seconds = time.perf_counter() - t0
            files = read_tree(out)
        finally:
            shutil.rmtree(out)
        attempted = self.replicas * len(self.LAMBDAS)
        rows = summary_rows(files["summary.csv"]) if rc == 0 else []
        alive = {float(r["lambda"]): int(r["alive_at_horizon"]) for r in rows}
        censored = sum(int(r["censored"]) for r in rows)
        return Batch(
            seconds=seconds, attempted=attempted,
            failed=attempted if rc != 0 else censored,
            digest=digest_files(files),
            data={"alive": alive, "replicas": self.replicas},
            counts={"artifact_bytes": sum(len(b) for b in files.values()),
                    "censored": censored},
        )

    def check(self, batches):
        with open(REFERENCES) as fh:
            ref = json.load(fh)[self.name]
        out = []
        for lam in self.LAMBDAS:
            x = sum(b.data["alive"].get(lam, 0) for b in batches if b.data["alive"])
            n = sum(b.data["replicas"] for b in batches if b.data["alive"])
            rx, rn = ref["alive"][str(lam)], ref["replicas"]
            if n == 0:
                out.append((f"alive fraction at lambda={lam}", False, "no replicas ran"))
                continue
            # two-proportion z statistic with the pooled standard error
            pooled = (x + rx) / (n + rn)
            se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / rn))
            diff = x / n - rx / rn
            ok = abs(diff) <= 4.0 * se
            out.append((f"alive fraction at lambda={lam}", ok,
                        f"{x}/{n} vs reference {rx}/{rn}: |diff| {abs(diff):.4g} "
                        f"<= 4 SE {4.0 * se:.4g}"))
        return out


# ---------------------------------------------------------------------------
# small_graph_replicas: many short runs, per-replica fixed cost
# ---------------------------------------------------------------------------

def random_connected_graph(n_vertices, seed, extra_edge_prob=0.4):
    """Random labelled tree, possibly plus one edge (the coupling-test graphs)."""
    rng = np.random.default_rng(mix(seed, 0x67726166))
    edges = []
    for v in range(1, n_vertices):
        edges.append((int(rng.integers(0, v)), v))
    if n_vertices >= 3 and rng.random() < extra_edge_prob:
        present = {tuple(sorted(e)) for e in edges}
        for _ in range(10):
            u, w = rng.integers(0, n_vertices, 2)
            key = (min(int(u), int(w)), max(int(u), int(w)))
            if key[0] != key[1] and key not in present:
                edges.append(key)
                break
    return build_finite(edges)


def three_star_replica(graph, kernel, caps, seed):
    """One 3-star replica at lambda=1 with a snapshot at t=1."""
    sim = engine.Simulation(graph, kernel, 1.0, engine.CPDG, {0}, caps, seed)
    rec = sim.run(snapshot_times=(1.0,))
    return rec, sim.snapshots[0]


class SmallGraphReplicas(Workload):
    name = "small_graph_replicas"
    SIZES = {"full": (40_000, 200, 10_000), "tiny": (400, 5, 200)}
    TRACE_TIMES = (0.5, 1.0, 2.0, 4.0)

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.n_star, self.n_coupled, self.n_trace = self.SIZES[size]

    def prepare(self):
        self.star = build_finite([(0, 1), (0, 2), (0, 3)])
        self.star_kernel = KernelSpec(alpha=0.5, sigma=1.0)
        self.star_caps = engine.Caps(horizon=2000.0)
        self.graphs = [random_connected_graph(3 + g % 4, seed=g) for g in range(10)]
        self.coupled_kernel = KernelSpec(alpha=0.4, sigma=1.0)
        self.coupled_caps = engine.Caps(horizon=80.0, max_events=500_000)
        self.six_star = build_finite([(0, i) for i in range(1, 6)])
        self.trace_kernel = KernelSpec(alpha=1.2, sigma=1.0)
        rep = lyapunov.check_conditions(self.six_star, self.trace_kernel,
                                        lyapunov.LINEAR_WEIGHT)
        self.trace_lam = rep.lambda_star / 2

    def replica_counts(self):
        return {"three_star_replicas": self.n_star,
                "coupled_seeds_per_graph": self.n_coupled, "graphs": len(self.graphs),
                "coupled_pairs": 2 * self.n_coupled * len(self.graphs),
                "trace_replicas": self.n_trace}

    def run_batch(self, batch):
        """Time each call into cpdg and fold its outputs into the digest at once,
        so no batch-sized list of records stays alive."""
        sub = sub_seed(self.name, self.seed, batch)
        clock = time.perf_counter
        h = hashlib.sha256()
        seconds = 0.0
        n, total, total_sq = 0, 0.0, 0.0
        failed = not_extinct = violations = cut = 0
        for i in range(self.n_star):
            t0 = clock()
            rec, (_, infected, open_edges) = three_star_replica(
                self.star, self.star_kernel, self.star_caps, replica_seed(sub, i))
            seconds += clock() - t0
            n += 1
            total += rec.time
            total_sq += rec.time * rec.time
            not_extinct += rec.outcome != engine.EXTINCT
            h.update(repr((rec.outcome, rec.time, rec.total_events, rec.peak_infected,
                           sorted(infected), sorted(open_edges))).encode())
        for gi, g in enumerate(self.graphs):
            full = set(range(g.n_vertices))
            for s in range(self.n_coupled):
                sd = replica_seed(mix(sub, gi), s)
                t0 = clock()
                pair = engine.run_coupled(g, self.coupled_kernel, 1.0, {0}, full,
                                          self.coupled_caps, sd)
                waitsee = engine.run_waitandsee_dominating(
                    g, self.coupled_kernel, 1.0, {0}, self.coupled_caps, sd)
                seconds += clock() - t0
                for a, b, violation in (pair, waitsee):
                    capped = engine.CAP in (a.outcome, b.outcome)
                    violations += violation
                    cut += capped
                    failed += violation or capped
                    h.update(repr((a, b, violation)).encode())
        t0 = clock()
        trace = lyapunov.supermartingale_trace(
            self.six_star, self.trace_kernel, self.trace_lam, lyapunov.LINEAR_WEIGHT,
            self.TRACE_TIMES, self.n_trace, seed=sub)
        seconds += clock() - t0
        h.update(repr((trace.mean_f, trace.se_f, trace.passed)).encode())
        return Batch(
            seconds=seconds,
            attempted=self.n_star + 2 * self.n_coupled * len(self.graphs) + self.n_trace,
            failed=failed + not_extinct, digest=h.hexdigest(),
            data={"n": n, "sum": total, "sum_sq": total_sq, "violations": violations,
                  "trace_passed": trace.passed},
            counts={"violations": violations, "censored": cut + not_extinct},
        )

    def check(self, batches):
        model = oracle.build_exact(self.star, self.star_kernel, 1.0)
        exact = oracle.extinction_stats(model, oracle.initial_distribution(model, [0]))
        n = sum(b.data["n"] for b in batches)
        mean = sum(b.data["sum"] for b in batches) / n
        var = (sum(b.data["sum_sq"] for b in batches) - n * mean * mean) / (n - 1)
        se = math.sqrt(var / n)
        gap = abs(mean - exact.mean_time)
        violations = sum(b.data["violations"] for b in batches)
        passed = [b.data["trace_passed"] for b in batches]
        return [
            ("3-star mean extinction time", gap <= 4.0 * se,
             f"{mean:.5f} over {n} replicas vs exact "
             f"{exact.mean_time:.5f} (128 states): gap {gap:.5f} <= 4 SE {4.0 * se:.5f}"),
            ("coupling violations", violations == 0, f"{violations} violations"),
            ("supermartingale decay trace", all(passed), f"passed in {sum(passed)}/{len(passed)} batches"),
        ]


# ---------------------------------------------------------------------------
# star_samplers: the vectorized stable-star sampler and the per-child loops
# ---------------------------------------------------------------------------

class StarSamplers(Workload):
    name = "star_samplers"
    STAR_SIZES = (50, 100, 200, 400)
    STABLE_N = 10_000
    SIZES = {"full": (50, 100), "tiny": (4, 4)}
    # consecutive sizes are too close to order reliably at 100 replicas per
    # size (one batch, as in the traced run); these pairs order with
    # one-sided Mann-Whitney p < 0.01 there
    ORDERED_PAIRS = ((50, 200), (100, 400))

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.n_stable, self.n_survival = self.SIZES[size]

    def configs(self, batch: int) -> list[tuple[str, dict]]:
        """(label, star config) in run order: stability only, then one per size.

        Each star size is its own dispatch so the traced run can time sizes
        apart from the benchmark's own call boundaries.
        """
        base = {"kernel": {"alpha": 0.2, "sigma": 0.0},
                "dist": {"kind": "deterministic", "d": 2}, "degree_bound": 4}
        out = [("stable", {**base, "n_values": [self.STABLE_N], "stability_only": True,
                           "replicas": self.n_stable,
                           "seed": sub_seed(self.name + "/stable", self.seed, batch)})]
        for n in self.STAR_SIZES:
            out.append((f"n{n}", {**base, "n_values": [n], "lambda": 0.4,
                                  "replicas": self.n_survival,
                                  "seed": sub_seed(f"{self.name}/n{n}", self.seed, batch)}))
        return out

    def prepare(self):
        for _, cfg in self.configs(0):
            config = cli.parse_config(json.dumps(cfg), "star")
        cli.build_dist(config.data["dist"])
        cli.build_kernel(config.data["kernel"])

    def replica_counts(self):
        return {"stable_star_replicas": self.n_stable, "stable_star_n": self.STABLE_N,
                "star_survival_replicas_per_size": self.n_survival,
                "star_sizes": list(self.STAR_SIZES)}

    def run_batch(self, batch):
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            t0 = time.perf_counter()
            codes = [self.dispatch("star", cfg, os.path.join(out, label))
                     for label, cfg in self.configs(batch)]
            seconds = time.perf_counter() - t0
            files = read_tree(out)
        finally:
            shutil.rmtree(out)
        attempted = self.n_stable + self.n_survival * len(self.STAR_SIZES)
        if any(codes):
            return Batch(seconds, attempted, attempted, digest_files(files), {})
        row = summary_rows(files[os.path.join("stable", "summary.csv")])[0]
        times = {}
        censored = 0
        for n in self.STAR_SIZES:
            recs = records(files[os.path.join(f"n{n}", "records.jsonl")])
            times[n] = [r["extinction_time"] for r in recs]
            censored += sum(r["outcome"] != engine.EXTINCT for r in recs)
        return Batch(
            seconds=seconds, attempted=attempted, failed=censored,
            digest=digest_files(files),
            data={"stable": int(row["stable"]), "stable_replicas": int(row["replicas"]),
                  "bound": float(row["bound"]), "times": times},
            counts={"artifact_bytes": sum(len(b) for b in files.values()),
                    "censored": censored},
        )

    def check(self, batches):
        if not all(b.data for b in batches):
            return [("star dispatch", False, "a star dispatch exited nonzero")]
        stable = sum(b.data["stable"] for b in batches)
        n = sum(b.data["stable_replicas"] for b in batches)
        bound = batches[0].data["bound"]
        freq = stable / n
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n)
        out = [(f"stable-star frequency at N={self.STABLE_N}", freq >= bound - 3.0 * se,
                f"{stable}/{n} = {freq:.4f} >= bound {bound:.4f} - 3 SE {3.0 * se:.4f}")]
        pooled = {m: np.concatenate([b.data["times"][m] for b in batches])
                  for m in self.STAR_SIZES}
        medians = [float(np.median(pooled[m])) for m in self.STAR_SIZES]
        for lo, hi in self.ORDERED_PAIRS:
            p = float(stats.mannwhitneyu(pooled[lo], pooled[hi], alternative="less").pvalue)
            ok = float(np.median(pooled[lo])) < float(np.median(pooled[hi])) and p < 0.01
            out.append((f"star median extinction N={lo} < N={hi}", ok,
                        f"medians {medians}, one-sided Mann-Whitney p={p:.3g} < 0.01"))
        return out


# ---------------------------------------------------------------------------
# exact_oracle: generator assembly, uniformization and the absorption solve
# ---------------------------------------------------------------------------

def path_graph(n):
    return build_finite([(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_finite([(i, (i + 1) % n) for i in range(n)])


def alive(c_bits, b_bits):
    return c_bits != 0


class ExactOracle(Workload):
    name = "exact_oracle"
    T = 1.0
    # (role, graph builder and size, with extinction_stats); the roles name
    # the full-size state counts 2^11, 2^12 and 2^17. The 2^17 assembly runs
    # first: run after the 2^12 solve, its peak memory took one of two values
    # 22 MB apart from run to run, depending on what the solve left behind
    MODELS = {
        "full": (("s17", path_graph, 9, False), ("s11", path_graph, 6, True),
                 ("s12", cycle_graph, 6, True)),
        "tiny": (("s17", path_graph, 5, False), ("s11", path_graph, 4, True),
                 ("s12", cycle_graph, 4, True)),
    }

    def prepare(self):
        self.kernel = KernelSpec(alpha=0.5, sigma=1.0)
        self.models = [(role, build(n), ext) for role, build, n, ext in self.MODELS[self.size]]

    def lam(self, batch: int) -> float:
        return 0.75 + 0.5 * sub_seed(self.name, self.seed, batch) / 2 ** 31

    def replica_counts(self):
        return {"models": [f"{r}:{b.__name__}-{n}" for r, b, n, _ in self.MODELS[self.size]],
                "t": self.T}

    def run_batch(self, batch):
        """Solve the three models one after another, keeping only their laws.

        Each model is dropped before the next is built, and the cross-checks
        against scipy run later in `check`, so the process's peak memory is
        that of the largest single model.
        """
        lam = self.lam(batch)
        clock = time.perf_counter
        h = hashlib.sha256()
        seconds = 0.0
        data = {"lam": lam}
        counts = {"nnz": 0, "reachable": 0, "generator_bytes": 0}
        for role, g, with_ext in self.models:
            t0 = clock()
            model = oracle.build_exact(g, self.kernel, lam)
            init = oracle.initial_distribution(model, [0])
            p_alive = oracle.transient_prob(model, init, self.T, alive)
            ext = oracle.extinction_stats(model, init) if with_ext else None
            seconds += clock() - t0
            q = model.generator
            counts["nnz"] += q.nnz
            counts["generator_bytes"] += q.data.nbytes + q.indices.nbytes + q.indptr.nbytes
            entry = {"states": model.n_states, "p_alive": p_alive}
            h.update(repr((role, model.n_states, q.nnz, p_alive)).encode())
            if ext is not None:
                counts["reachable"] += ext.n_transient_reachable
                entry.update(p_extinct=ext.p_extinct, mean_time=ext.mean_time)
                h.update(repr((ext.p_extinct, ext.mean_time, ext.n_transient_reachable)).encode())
            data[role] = entry
            del model, init, q, ext
        return Batch(seconds=seconds, attempted=len(self.models), failed=0,
                     digest=h.hexdigest(), data=data, counts=counts)

    def check(self, batches):
        """Rebuild each batch's models and test its laws against scipy."""
        out = []
        for role, g, _ in self.models:
            entries = [dict(b.data[role], **self.cross_check(g, b.data["lam"], b.data[role]))
                       for b in batches]
            tag = f"{role} ({entries[0]['states']} states, {len(entries)} batches)"
            l1 = max(e["expm_l1"] for e in entries)
            dp = max(e["p_alive_gap"] for e in entries)
            out.append((f"{tag} uniformization vs expm_multiply", l1 <= 1e-9 and dp <= 1e-9,
                        f"largest L1 {l1:.3g}, largest |transient_prob - expm| {dp:.3g} "
                        f"(both <= 1e-9)"))
            if "p_extinct" not in entries[0]:
                continue
            dev = max(abs(e["p_extinct"] - 1.0) for e in entries)
            out.append((f"{tag} p_extinct", dev <= 1e-9, f"largest |p_extinct - 1| {dev:.3g} <= 1e-9"))
            residual = max(e["residual"] for e in entries)
            gap = max(e["mean_gap"] for e in entries)
            out.append((f"{tag} mean-time system", residual <= 1e-8 and gap <= 1e-8,
                        f"independent solve: relative residual {residual:.3g}, relative gap "
                        f"to extinction_stats {gap:.3g} (both <= 1e-8)"))
        return out

    def cross_check(self, g, lam, entry) -> dict:
        model = oracle.build_exact(g, self.kernel, lam)
        init = oracle.initial_distribution(model, [0])
        dist = oracle.transient_distribution(model, init, self.T)
        ref = expm_multiply((model.generator.T * self.T).tocsr(), init)
        c_bits, b_bits = model.split_bits(np.arange(model.n_states))
        out = {"expm_l1": float(np.abs(dist - ref).sum()),
               "p_alive_gap": abs(entry["p_alive"] - float(ref[alive(c_bits, b_bits)].sum()))}
        if "mean_time" in entry:
            out.update(mean_time_check(model, init, entry["mean_time"]))
        return out


def mean_time_check(model, init, mean_time) -> dict:
    """Solve -Q_TT m = 1 over all states with C nonempty, independently of the oracle.

    Returns the relative residual of that solve and the relative gap between
    init . m and the oracle's mean extinction time. Unreachable transient
    states do not change init . m, so no reachability pruning is needed.
    """
    c_bits, _ = model.split_bits(np.arange(model.n_states))
    keep = np.nonzero(c_bits != 0)[0]
    a = (-model.generator[keep][:, keep]).tocsr()
    ones = np.ones(keep.size)
    m, _ = bicgstab(a, ones, rtol=1e-13, atol=0.0, maxiter=20_000)
    residual = float(np.linalg.norm(a @ m - ones) / np.linalg.norm(ones))
    gap = abs(float(init[keep] @ m) - mean_time) / mean_time
    return {"residual": residual, "mean_gap": gap}


WORKLOADS = {w.name: w for w in (BGWSurvival, SmallGraphReplicas, StarSamplers, ExactOracle)}
