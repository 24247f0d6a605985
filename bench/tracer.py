"""Spans around the calls into cpdg's modules, and the per-layer metrics they give.

The traced run replaces public functions of the cpdg modules (and the
benchmark's own per-replica helper) with wrappers that record a span per
call: name, start, end, parent span and workload. Spans stay in memory and
are written out when the run ends. Nothing inside the program changes; the
same calls run with and without tracing, so the difference in wall time is
the tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from cpdg import experiments
from cpdg.kernels import p_value, v_value
from cpdg.rng import TAG_SIM, mix, replica_seed

# (module, attribute, span name); every module holding the same function
# object under any name gets the wrapper, so `from x import f` sites are
# covered as well as `x.f` sites
TARGETS = (
    ("cpdg.cli", "parse_config", "cli.parse"),
    ("cpdg.cli", "dispatch", "cli.dispatch"),
    ("cpdg.cli", "write_artifacts", "cli.write"),
    ("cpdg.experiments", "estimate_survival", "experiments.estimate_survival"),
    ("cpdg.experiments", "stable_star_frequency", "experiments.stable_star"),
    ("cpdg.experiments", "star_survival", "experiments.star_survival"),
    ("cpdg.closedform", "star_constants", "closedform.star_constants"),
    ("cpdg.engine", "run_coupled", "engine.coupled"),
    ("cpdg.engine", "run_waitandsee_dominating", "engine.waitsee"),
    ("cpdg.lyapunov", "supermartingale_trace", "lyapunov.trace"),
    ("cpdg.oracle", "build_exact", "oracle.build"),
    ("cpdg.oracle", "transient_prob", "oracle.transient"),
    ("cpdg.oracle", "extinction_stats", "oracle.solve"),
    ("workloads", "three_star_replica", "engine.replica"),
)

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    LAYER_UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, workload)
        self.workload = None
        self.vertices = 0
        self.truncated = 0
        self.events = 0
        self.degree_pairs = []
        self.kernel = None
        self._stack = []

    def wrap(self, fn, name, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.workload)
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_replica(self, args, rec):
        """Tree size and kernel inputs of one finished run_replica call."""
        graph, kernel = args[0], args[1]
        self.events += rec.total_events
        if graph.lazy:
            self.vertices += graph.n_vertices
            self.truncated += graph.truncated
            self.kernel = kernel
            self.degree_pairs.extend((graph.degree(u), graph.degree(v))
                                     for u, v in graph.edges())

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        swaps = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cpdg" or n.startswith("cpdg.") or n == "workloads")]

        def patch(orig, wrapper):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        swaps.append((mod, key, orig))
                        setattr(mod, key, wrapper)

        for mod_name, attr, span in TARGETS:
            orig = getattr(importlib.import_module(mod_name), attr)
            patch(orig, self.wrap(orig, span))
        orig = importlib.import_module("cpdg.engine").run_replica
        patch(orig, self.wrap(orig, "engine.replica", after=self._after_replica))
        build = experiments.BGWGraphSpec.build
        experiments.BGWGraphSpec.build = self.wrap(build, "graph.build")
        try:
            yield self
        finally:
            experiments.BGWGraphSpec.build = build
            for mod, key, orig in reversed(swaps):
                setattr(mod, key, orig)

    # -- reading the spans ----------------------------------------------------

    def durations(self, name, workload) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == workload]

    def self_time(self, name, workload) -> float:
        """Summed duration of the named spans minus the time their children cover."""
        total = 0.0
        owners = {i for i, s in enumerate(self.spans) if s[0] == name and s[4] == workload}
        for i in owners:
            total += self.spans[i][2] - self.spans[i][1]
        for s in self.spans:
            if s[3] in owners:
                total -= s[2] - s[1]
        return total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "workload"],
                       "spans": self.spans}, fh)


def rng_seed_us(n: int = 20_000) -> float:
    """One replica_seed plus one random.Random(mix(rs, TAG_SIM)), in microseconds."""
    start = time.perf_counter()
    for i in range(n):
        random.Random(mix(replica_seed(12345, i), TAG_SIM))
    return (time.perf_counter() - start) / n * 1e6


def kernel_eval_us(kernel, pairs) -> float:
    """p_value plus v_value over the given degree pairs, per pair in microseconds."""
    start = time.perf_counter()
    for dx, dy in pairs:
        p_value(kernel, dx, dy)
        v_value(kernel, dx, dy)
    return (time.perf_counter() - start) / len(pairs) * 1e6


def percentile_us(values, q) -> float:
    return float(np.percentile(values, q)) * 1e6


def layer_metrics(tracer: Tracer, traced: dict, plans: dict, overhead_s: float) -> dict:
    """Every per-layer metric, each from the workload named in bench/README.md."""
    bgw, small, star, exact = ("bgw_survival", "small_graph_replicas",
                               "star_samplers", "exact_oracle")
    d = tracer.durations
    m = {"rng.seed_us": rng_seed_us()}

    builds = d("graph.build", bgw)
    m["graph.build_us"] = statistics.fmean(builds) * 1e6
    m["graph.vertices"] = tracer.vertices
    m["graph.truncated"] = tracer.truncated
    m["kernels.eval_us"] = kernel_eval_us(tracer.kernel, tracer.degree_pairs)
    m["kernels.evals"] = len(tracer.degree_pairs)

    reps = d("engine.replica", bgw)
    m["engine.replicas"] = len(reps)
    m["engine.events"] = tracer.events
    m["engine.event_us"] = sum(reps) / max(tracer.events, 1) * 1e6
    m["engine.replica_us_p50"] = percentile_us(d("engine.replica", small), 50)
    m["engine.replica_us_p99"] = percentile_us(reps, 99)
    for kind in ("coupled", "waitsee"):
        spans = d(f"engine.{kind}", small)
        m[f"engine.{kind}_us_p50"] = percentile_us(spans, 50)
        m[f"engine.{kind}_us_p99"] = percentile_us(spans, 99)
    m["engine.violations"] = traced[small].counts["violations"]
    m["engine.censored"] = traced[small].counts["censored"]
    m["lyapunov.trace_s"] = sum(d("lyapunov.trace", small))

    consts = d("closedform.star_constants", star)
    m["closedform.star_constants_us"] = statistics.fmean(consts) * 1e6
    star_plan = plans[star]
    m["experiments.stable_star_ms"] = sum(d("experiments.stable_star", star)) / star_plan.n_stable * 1e3
    sizes = d("experiments.star_survival", star)
    for n, seconds in zip(star_plan.STAR_SIZES, sizes):
        m[f"experiments.star_survival_ms.n{n}"] = seconds / star_plan.n_survival * 1e3
    m["experiments.censored"] = traced[star].counts["censored"]
    m["experiments.self_s"] = tracer.self_time("experiments.estimate_survival", bgw)

    models = plans[exact].models
    roles = [role for role, _, _ in models]
    solved = [role for role, _, with_ext in models if with_ext]
    for step, name, names in (("build", "oracle.build", roles),
                              ("transient", "oracle.transient", roles),
                              ("solve", "oracle.solve", solved)):
        for role, seconds in zip(names, d(name, exact)):
            m[f"oracle.{step}_s.{role}"] = seconds
    counts = traced[exact].counts
    m["oracle.nnz"] = counts["nnz"]
    m["oracle.reachable"] = counts["reachable"]
    m["oracle.generator_mb"] = counts["generator_bytes"] / 2 ** 20

    parses = d("cli.parse", bgw) + d("cli.parse", star)
    writes = d("cli.write", bgw) + d("cli.write", star)
    m["cli.parse_ms"] = statistics.fmean(parses) * 1e3
    m["cli.write_ms"] = statistics.fmean(writes) * 1e3
    m["cli.artifact_bytes"] = traced[bgw].counts["artifact_bytes"] + traced[star].counts["artifact_bytes"]
    m["trace.overhead_s"] = overhead_s

    missing = set(LAYER_UNITS) - set(m)
    if missing:
        raise RuntimeError(f"traced run could not measure {sorted(missing)}")
    return {name: {"value": m[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
