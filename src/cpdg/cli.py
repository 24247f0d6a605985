"""Configuration, subcommands, deterministic seeding, result persistence.

One JSON config file drives each run. Unknown keys are rejected (no silent
defaults for misspellings), every violation is reported with its field path,
and the canonicalized config is hashed into every artifact so reruns can be
checked byte for byte.

Subcommands: simulate | star | path | phase | edge-law | oracle | check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys

from . import __version__, closedform, experiments, lyapunov, oracle
from .engine import CPDG, LOWER_BOUND, PENALISED, WAIT_AND_SEE
from .graph import (DistributionError, GraphError, TreeCaps, deterministic,
                    geometric, load_edge_list, power_law, stretched_exponential,
                    tabulated)
from .kernels import KernelError, KernelSpec, load_kernel_table

SUBCOMMANDS = ("simulate", "star", "path", "phase", "edge-law", "oracle", "check")

_VARIANTS = (CPDG, WAIT_AND_SEE, PENALISED, LOWER_BOUND)


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def _num(lo=None, hi=None, strict_lo=False):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return "must be a number"
        if lo is not None and (v <= lo if strict_lo else v < lo):
            return f"must be {'>' if strict_lo else '>='} {lo}"
        if hi is not None and v > hi:
            return f"must be <= {hi}"
        return None
    return check


def _integer(lo=None):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int):
            return "must be an integer"
        if lo is not None and v < lo:
            return f"must be >= {lo}"
        return None
    return check


def _string(options=None):
    def check(v):
        if not isinstance(v, str):
            return "must be a string"
        if options and v not in options:
            return f"must be one of {sorted(options)}"
        return None
    return check


def _boolean(v):
    return None if isinstance(v, bool) else "must be a boolean"


def _num_list(lo=None, min_len=1):
    item = _num(lo)
    def check(v):
        if not isinstance(v, list) or len(v) < min_len:
            return f"must be a list of at least {min_len} numbers"
        for x in v:
            bad = item(x)
            if bad:
                return f"items {bad}"
        return None
    return check


def _int_list(lo=None, min_len=1):
    item = _integer(lo)
    def check(v):
        if not isinstance(v, list) or len(v) < min_len:
            return f"must be a list of at least {min_len} integers"
        for x in v:
            bad = item(x)
            if bad:
                return f"items {bad}"
        return None
    return check


def _edge_list(v):
    if not isinstance(v, list) or not v:
        return "must be a non-empty list of [u, v] pairs"
    for e in v:
        if (not isinstance(e, list) or len(e) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in e)):
            return "must contain [u, v] pairs of non-negative integers"
    return None


_DIST_SCHEMA = {
    "kind": (True, _string({"power_law", "stretched", "geometric", "deterministic", "tabulated"})),
    "b": (False, _num(1.0, strict_lo=True)),
    "beta": (False, _num(0.0, 1.0, strict_lo=True)),
    "scale": (False, _num(0.0, strict_lo=True)),
    "q": (False, _num(0.0, 1.0, strict_lo=True)),
    "d": (False, _integer(0)),
    "weights": (False, _num_list(0.0)),
    "k0": (False, _integer(0)),
}

_GRAPH_SCHEMA = {
    "kind": (True, _string({"finite", "finite_file", "bgw"})),
    "edges": (False, _edge_list),
    "path": (False, _string()),
    "dist": (False, _DIST_SCHEMA),
    "max_vertices": (False, _integer(1)),
    "max_depth": (False, _integer(0)),
    "root_degree": (False, _integer(1)),
    "init": (False, _int_list(0)),
}

_KERNEL_SCHEMA = {
    "alpha": (True, _num(0.0)),
    "sigma": (False, _num(0.0, 1.0)),
    "kappa": (False, _num(0.0, strict_lo=True)),
    "eta": (False, _num()),
    "nu": (False, _num(0.0, strict_lo=True)),
    "table": (False, _string()),
}

_WEIGHT_SCHEMA = {
    "kind": (True, _string({"linear", "power", "constant"})),
    "beta": (False, _num()),
}

# keys every subcommand accepts
_COMMON = {
    "seed": (False, _integer(0)),
    "out": (False, _string()),
    "threads": (False, _integer(1)),
}

_SCHEMAS = {
    "simulate": {
        **_COMMON,
        "graph": (True, _GRAPH_SCHEMA),
        "kernel": (True, _KERNEL_SCHEMA),
        "lambda": (True, None),  # number or list, checked separately
        "horizon": (True, _num(0.0)),
        "replicas": (True, _integer(1)),
        "variant": (False, _string(set(_VARIANTS))),
        "bg_mode": (False, _string({"explicit", "thinned"})),
        "max_infected": (False, _integer(1)),
        "records": (False, _boolean),
    },
    "star": {
        **_COMMON,
        "kernel": (True, _KERNEL_SCHEMA),
        "dist": (True, _DIST_SCHEMA),
        "n_values": (True, _int_list(1)),
        "degree_bound": (True, _integer(1)),
        "lambda": (False, None),
        "replicas": (True, _integer(1)),
        "max_windows": (False, _integer(4)),
        "stability_only": (False, _boolean),
    },
    "path": {
        **_COMMON,
        "kernel": (True, _KERNEL_SCHEMA),
        "r_values": (True, _int_list(1)),
        "degree": (True, _integer(1)),
        "lambda": (True, None),
        "replicas": (True, _integer(1)),
        "within_factor": (False, _num(0.0, strict_lo=True)),
    },
    "phase": {
        **_COMMON,
        "alpha": (False, _num(0.0)),
        "alpha_values": (False, _num_list(0.0)),
        "sigma": (False, _num(0.0, 1.0)),
        "eta": (False, _num()),
        "eta_values": (False, _num_list()),
        "tail": (True, _string({"power_law", "stretched"})),
        "tail_param": (False, _num(0.0, strict_lo=True)),
        "offspring_min_one": (False, _boolean),
    },
    "edge-law": {
        **_COMMON,
        "lambda": (True, _num(0.0, strict_lo=True)),
        "v": (True, _num(0.0, strict_lo=True)),
        "p": (True, _num(0.0, 1.0)),
        "tail_times": (False, _num_list(0.0)),
    },
    "oracle": {
        **_COMMON,
        "graph": (True, _GRAPH_SCHEMA),
        "kernel": (True, _KERNEL_SCHEMA),
        "lambda": (True, _num(0.0)),
        "t": (True, _num(0.0)),
        "init": (False, _int_list(0)),
    },
    "check": {
        **_COMMON,
        "graph": (True, _GRAPH_SCHEMA),
        "kernel": (True, _KERNEL_SCHEMA),
        "lambda": (False, _num(0.0)),
        "weight": (False, _WEIGHT_SCHEMA),
    },
}

def _validate(block, schema, path, errors):
    if not isinstance(block, dict):
        errors.append(f"{path or '<root>'}: must be an object")
        return
    for key in block:
        if key not in schema:
            errors.append(f"{path + key}: unknown key")
    for key, (required, checker) in schema.items():
        here = path + key
        if key not in block:
            if required:
                errors.append(f"{here}: missing required key")
            continue
        value = block[key]
        if isinstance(checker, dict):
            _validate(value, checker, here + ".", errors)
        elif checker is not None:
            bad = checker(value)
            if bad:
                errors.append(f"{here}: {bad}")


def _check_lambda(cfg, errors):
    if "lambda" not in cfg:
        return
    lam = cfg["lambda"]
    ok_scalar = isinstance(lam, (int, float)) and not isinstance(lam, bool) and lam >= 0
    ok_list = (isinstance(lam, list) and lam
               and all(isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0 for x in lam))
    if not (ok_scalar or ok_list):
        errors.append("lambda: must be a number >= 0 or a non-empty list of such")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    data: dict
    config_hash: str

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def lambda_grid(self):
        lam = self.data.get("lambda", 0.0)
        return list(lam) if isinstance(lam, list) else [lam]


def canonicalize(subcommand: str, data: dict) -> dict:
    out = dict(data)
    out.setdefault("seed", 0)
    out.setdefault("threads", 1)
    if "kernel" in out:
        kern = dict(out["kernel"])
        kern.setdefault("sigma", 1.0)
        kern.setdefault("kappa", 1.0)
        kern.setdefault("eta", 0.0)
        kern.setdefault("nu", 1.0)
        out["kernel"] = kern
    return out


def parse_config(text: str, subcommand: str) -> ExperimentConfig:
    """Parse and validate a JSON config; raises ConfigError listing every violation."""
    if subcommand not in _SCHEMAS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    errors: list[str] = []
    _validate(data, _SCHEMAS[subcommand], "", errors)
    _check_lambda(data, errors)
    if not errors:
        errors.extend(_semantic_errors(subcommand, data))
    if errors:
        raise ConfigError(errors)
    canon = canonicalize(subcommand, data)
    blob = json.dumps({"subcommand": subcommand, "config": canon},
                      sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return ExperimentConfig(subcommand=subcommand, data=canon, config_hash=digest)


def _semantic_errors(subcommand, data):
    errors = []
    dist_blocks = []
    if "dist" in data:
        dist_blocks.append(("dist", data["dist"]))
    if "graph" in data and isinstance(data["graph"], dict):
        g = data["graph"]
        kind = g.get("kind")
        if kind == "finite" and "edges" not in g:
            errors.append("graph.edges: required for kind=finite")
        if kind == "finite_file" and "path" not in g:
            errors.append("graph.path: required for kind=finite_file")
        if kind == "bgw":
            if "dist" not in g:
                errors.append("graph.dist: required for kind=bgw")
            else:
                dist_blocks.append(("graph.dist", g["dist"]))
    for path, block in dist_blocks:
        kind = block.get("kind")
        needs = {"power_law": "b", "stretched": "beta", "geometric": "q",
                 "deterministic": "d", "tabulated": "weights"}.get(kind)
        if needs and needs not in block:
            errors.append(f"{path}.{needs}: required for kind={kind}")
    if subcommand == "phase":
        if ("alpha" in data) == ("alpha_values" in data):
            errors.append("phase: give exactly one of alpha / alpha_values")
        if ("eta" in data) == ("eta_values" in data):
            errors.append("phase: give exactly one of eta / eta_values")
        if data.get("tail") == "stretched" and "tail_param" not in data:
            errors.append("tail_param: required for stretched tails")
    return errors


# ---------------------------------------------------------------------------
# object construction
# ---------------------------------------------------------------------------

def build_dist(block):
    kind = block["kind"]
    k0 = block.get("k0")
    if kind == "power_law":
        return power_law(block["b"], k0 if k0 is not None else 1)
    if kind == "stretched":
        return stretched_exponential(block["beta"], block.get("scale", 1.0),
                                     k0 if k0 is not None else 1)
    if kind == "geometric":
        return geometric(block["q"], k0 if k0 is not None else 0)
    if kind == "deterministic":
        return deterministic(block["d"])
    return tabulated(block["weights"], k0 if k0 is not None else 0)


def build_kernel(block) -> KernelSpec:
    custom = load_kernel_table(block["table"]) if "table" in block else None
    return KernelSpec(alpha=block["alpha"], sigma=block["sigma"],
                      kappa=block["kappa"], eta=block["eta"], nu=block["nu"],
                      custom_p=custom)


def build_graph_spec(block):
    kind = block["kind"]
    init = tuple(block.get("init", [0]))
    if kind == "finite":
        edges = tuple(tuple(e) for e in block["edges"])
        return experiments.FiniteGraphSpec(edges=edges, init=init)
    if kind == "finite_file":
        g = load_edge_list(block["path"])
        return experiments.FiniteGraphSpec(edges=tuple(g.edges()), init=init)
    caps = TreeCaps(max_vertices=block.get("max_vertices", 1_000_000),
                    max_depth=block.get("max_depth", 10_000))
    return experiments.BGWGraphSpec(dist=build_dist(block["dist"]), caps=caps,
                                    root_degree=block.get("root_degree"))


def build_weight(block) -> lyapunov.WeightFunction:
    if block is None:
        return lyapunov.LINEAR_WEIGHT
    return lyapunov.WeightFunction(block["kind"], beta=block.get("beta", 1.0))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _meta(config: ExperimentConfig) -> dict:
    return {"config_hash": config.config_hash, "seed": config.seed,
            "version": __version__}


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _to_jsonable(obj.item())
        except Exception:
            return str(obj)
    return obj


def write_artifacts(out_dir, config, summary_rows, records=None, report=None):
    """Write summary.csv (+ records.jsonl, report.json); deterministic bytes."""
    os.makedirs(out_dir, exist_ok=True)
    meta = _meta(config)
    paths = {}
    if summary_rows:
        buf = io.StringIO()
        cols = list(summary_rows[0].keys())
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"# config_hash={meta['config_hash']} seed={meta['seed']} version={meta['version']}"])
        writer.writerow(cols)
        for row in summary_rows:
            writer.writerow([row[c] for c in cols])
        paths["summary"] = os.path.join(out_dir, "summary.csv")
        with open(paths["summary"], "w") as fh:
            fh.write(buf.getvalue())
    if records is not None:
        paths["records"] = os.path.join(out_dir, "records.jsonl")
        with open(paths["records"], "w") as fh:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for rec in records:
                fh.write(json.dumps(_to_jsonable(rec), sort_keys=True) + "\n")
    if report is not None:
        paths["report"] = os.path.join(out_dir, "report.json")
        payload = {"meta": meta, "report": _to_jsonable(report)}
        with open(paths["report"], "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return paths


def _print_kv(prefix, obj, out):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        for k in sorted(obj):
            _print_kv(f"{prefix}{k}." if prefix else f"{k}.", obj[k], out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _print_kv(f"{prefix}{i}.", v, out)
    else:
        out.write(f"{prefix[:-1]}={obj}\n")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def dispatch(config: ExperimentConfig, out_dir: str | None = None,
             stream=None) -> int:
    """Route a validated config to its experiment; 0 on success.

    Assertion-style failures (orderings, refused traces) exit nonzero and
    leave a machine-readable failure report next to the other artifacts.
    """
    stream = stream or sys.stdout
    out_dir = out_dir or config.data.get("out")
    handler = {
        "simulate": _run_simulate,
        "star": _run_star,
        "path": _run_path,
        "phase": _run_phase,
        "edge-law": _run_edge_law,
        "oracle": _run_oracle,
        "check": _run_check,
    }[config.subcommand]
    try:
        failures, summary_rows, records, report = handler(config, stream)
    except (ConfigError, GraphError, DistributionError, KernelError,
            closedform.ConditionError, experiments.ExperimentError) as exc:
        stream.write(f"error: {exc}\n")
        if out_dir:
            write_artifacts(out_dir, config, [], report={"failure": str(exc)})
        return 2
    if out_dir:
        write_artifacts(out_dir, config, summary_rows, records=records,
                        report=report if failures == [] else
                        {"failures": failures, "report": _to_jsonable(report)})
    if failures:
        stream.write("FAIL: " + "; ".join(failures) + "\n")
        return 1
    return 0


def _run_simulate(config, stream):
    d = config.data
    spec = build_graph_spec(d["graph"])
    kernel = build_kernel(d["kernel"])
    rows = []
    records_out = []
    estimates = []
    collect = bool(d.get("records", False))
    for j, lam in enumerate(config.lambda_grid()):
        est, recs = experiments.estimate_survival(
            spec, kernel, lam, d["horizon"], d["replicas"],
            seed=experiments.mix(d["seed"], j), variant=d.get("variant", CPDG),
            bg_mode=d.get("bg_mode", "explicit"),
            max_infected=d.get("max_infected", 1 << 30),
            collect_records=collect, threads=d.get("threads", 1))
        estimates.append(est)
        rows.append({
            "lambda": lam, "replicas": est.replicas, "extinct": est.extinct,
            "alive_at_horizon": est.alive_at_horizon,
            "reinfected_root_late": est.reinfected_root_late,
            "censored": est.censored, "wilson_lo": est.wilson[0],
            "wilson_hi": est.wilson[1],
        })
        for i, rec in enumerate(recs):
            records_out.append({"lambda": lam, "replica": i, **dataclasses.asdict(rec)})
        stream.write(f"lambda={lam} alive={est.alive_at_horizon}/{est.replicas} "
                     f"wilson=({est.wilson[0]:.4f},{est.wilson[1]:.4f})\n")
    return [], rows, records_out if collect else None, estimates


def _run_star(config, stream):
    d = config.data
    kernel = build_kernel(d["kernel"])
    dist = build_dist(d["dist"])
    if d.get("stability_only", False):
        rows = []
        reports = []
        for n in d["n_values"]:
            rep = experiments.stable_star_frequency(n, d["degree_bound"], kernel,
                                                    dist, d["replicas"], d["seed"])
            reports.append(rep)
            rows.append({"n": n, "stable": rep.stable, "replicas": rep.replicas,
                         "frequency": rep.frequency, "bound": rep.bound,
                         "threshold": rep.threshold, "underpowered": rep.underpowered})
            stream.write(f"n={n} stable_frequency={rep.frequency:.4f} bound={rep.bound:.4f}\n")
        return [], rows, None, reports
    lam = config.lambda_grid()[0]
    rep = experiments.star_survival(d["n_values"], d["degree_bound"], lam, kernel,
                                    dist, d["replicas"], d["seed"],
                                    max_windows=d.get("max_windows", 1 << 14))
    rows = [{"n": r.constants.n, "median_extinction": r.median_extinction,
             "stable_fraction": r.stable_fraction, "censored": r.censored}
            for r in rep.records]
    for row in rows:
        stream.write(f"n={row['n']} median_extinction={row['median_extinction']:.4f}\n")
    records = [{"n": r.constants.n, "good_min": rr.good_min, "stable": rr.stable,
                "extinction_time": rr.extinction_time, "outcome": rr.outcome,
                "seed": rr.seed}
               for r in rep.records for rr in r.replicas]
    slim = dataclasses.replace(rep, records=tuple(
        dataclasses.replace(r, replicas=()) for r in rep.records))
    return [], rows, records, slim


def _run_path(config, stream):
    d = config.data
    kernel = build_kernel(d["kernel"])
    rep = experiments.path_transmission(d["r_values"], d["degree"],
                                        config.lambda_grid()[0], kernel,
                                        d["replicas"], d["seed"],
                                        within_factor=d.get("within_factor", 4.0))
    failures = []
    rows = []
    for pt in rep.points:
        ok = pt.bound <= pt.wilson[1]
        if not ok:
            failures.append(f"r={pt.r}: bound {pt.bound:.3g} above the upper confidence limit {pt.wilson[1]:.3g}")
        rows.append({"r": pt.r, "replicas": pt.replicas, "hits": pt.hits,
                     "p_hat": pt.p_hat, "wilson_lo": pt.wilson[0],
                     "wilson_hi": pt.wilson[1], "bound": pt.bound,
                     "bound_ok": ok})
        stream.write(f"r={pt.r} p_hat={pt.p_hat:.5f} bound={pt.bound:.5g}\n")
    return failures, rows, None, rep


def _run_phase(config, stream):
    d = config.data
    alphas = d.get("alpha_values", [d.get("alpha")])
    etas = d.get("eta_values", [d.get("eta")])
    rows = []
    for a in alphas:
        for e in etas:
            res = closedform.phase_classify(a, d.get("sigma", 1.0), e, d["tail"],
                                            tail_param=d.get("tail_param"),
                                            offspring_min_one=d.get("offspring_min_one", False))
            rows.append({"alpha": a, "eta": e, "sigma": d.get("sigma", 1.0),
                         "tail": d["tail"], "regime": res.regime,
                         "lambda2_finite": res.lambda2_finite, "rule": res.rule})
            stream.write(f"alpha={a} eta={e}: {res.regime}\n")
    return [], rows, None, rows


def _run_edge_law(config, stream):
    d = config.data
    lam, v, p = d["lambda"], d["v"], d["p"]
    law = closedform.EdgeLaw.from_rates(lam, v, p)
    report = {
        "transmission_prob": closedform.transmission_prob(lam, v, p),
        "rate_a": law.a, "rate_b": law.b,
        "lower_bound_rate": closedform.lower_bound_rate(lam, v, p),
    }
    for t in d.get("tail_times", [0.5, 1.0, 2.0]):
        if p > 0:
            report[f"tail_at_{t}"] = closedform.transmission_time_tail(law, t)
    _print_kv("", report, stream)
    rows = [{"key": k, "value": vv} for k, vv in sorted(report.items())]
    return [], rows, None, report


def _run_oracle(config, stream):
    d = config.data
    spec = build_graph_spec(d["graph"])
    g, init_default = spec.build(0)
    if g.lazy:
        raise experiments.ExperimentError("oracle needs a finite graph")
    kernel = build_kernel(d["kernel"])
    model = oracle.build_exact(g, kernel, d["lambda"])
    init = oracle.initial_distribution(model, d.get("init", sorted(init_default)))
    p_alive = oracle.transient_prob(model, init, d["t"], lambda c, b: c != 0)
    stats = oracle.extinction_stats(model, init)
    report = {"n_states": model.n_states, "t": d["t"],
              "p_alive_at_t": p_alive, "p_extinct": stats.p_extinct,
              "mean_extinction_time": stats.mean_time}
    _print_kv("", report, stream)
    rows = [{"key": k, "value": vv} for k, vv in sorted(report.items())]
    return [], rows, None, report


def _run_check(config, stream):
    d = config.data
    spec = build_graph_spec(d["graph"])
    g, _ = spec.build(0)
    if g.lazy:
        raise experiments.ExperimentError("condition checking needs a finite graph")
    kernel = build_kernel(d["kernel"])
    weight = build_weight(d.get("weight"))
    lam = d.get("lambda")
    rep = lyapunov.check_conditions(g, kernel, weight, lam=lam)
    report = {"K": rep.K, "v_min": rep.v_min, "lambda_star": rep.lambda_star,
              "weighted_ratio_max": rep.weighted_ratio_max,
              "damping_sum_max": rep.damping_sum_max}
    if lam is not None:
        report["lambda"] = lam
        report["theta"] = rep.theta
        report["theta_negative"] = rep.theta < 0
    _print_kv("", report, stream)
    rows = [{"key": k, "value": vv} for k, vv in sorted(report.items())]
    return [], rows, None, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cpdg",
        description="contact process on dynamical percolation graphs: "
                    "simulation and analysis toolkit")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None, help="replica parallelism")
    parser.add_argument("--out", default=None, help="artifact directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        data["seed"] = args.seed
    if args.threads is not None:
        data["threads"] = args.threads
    try:
        config = parse_config(json.dumps(data), args.subcommand)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    return dispatch(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
