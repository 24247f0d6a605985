"""Configuration, subcommands, deterministic seeding, result persistence.

One JSON config file drives each run. Each subcommand's schema names exactly
the keys it reads, so a key it would ignore is rejected as unknown, and every
violation is reported with its field path. Defaults live in the library's
signatures: handlers pass on only the keys a config gives. The canonicalized
config, minus the keys that cannot change results, is hashed into every
artifact so reruns can be checked byte for byte.

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

# keys that cannot change results, left out of the config hash
_UNHASHED = ("out", "threads")


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


def _list(item):
    """A non-empty list whose items all pass `item`."""
    def check(v):
        if not isinstance(v, list) or not v:
            return "must be a non-empty list"
        for i, x in enumerate(v):
            bad = item(x)
            if bad:
                return f"item {i} {bad}"
        return None
    return check


def _edge(v):
    if not isinstance(v, list) or len(v) != 2 or any(map(_integer(0), v)):
        return "must be a [u, v] pair of non-negative integers"
    return None


def _grid(v):
    """One rate >= 0, or a non-empty list of them."""
    return (_list(_num(0.0)) if isinstance(v, list) else _num(0.0))(v)


@dataclasses.dataclass(frozen=True)
class _Switch:
    """A block whose keys depend on the value of one of them.

    `cases` maps each allowed value of `key` to the schema of the other keys;
    a block without `key` is read as `default`, or is an error if that is None.
    """

    cases: dict
    key: str = "kind"
    default: object = None

    def pick(self, block, path, errors):
        value = block.get(self.key, self.default)
        if self.key not in block and self.default is None:
            errors.append(f"{path}{self.key}: missing required key")
        elif not any(type(value) is type(c) and value == c for c in self.cases):
            errors.append(f"{path}{self.key}: must be one of {sorted(self.cases)}")
        else:
            return {self.key: (False, None), **self.cases[value]}
        return None


_K0 = {"k0": (False, _integer(0))}

_DIST_SCHEMA = _Switch({
    "power_law": {"b": (True, _num(1.0, strict_lo=True)), **_K0},
    "stretched": {"beta": (True, _num(0.0, 1.0, strict_lo=True)),
                  "scale": (False, _num(0.0, strict_lo=True)), **_K0},
    "geometric": {"q": (True, _num(0.0, 1.0, strict_lo=True)), **_K0},
    "deterministic": {"d": (True, _integer(0))},
    "tabulated": {"weights": (True, _list(_num(0.0))), **_K0},
})


def _graph_schema(bgw=True, init=True):
    """Graph block schema: lazy trees only where the subcommand can use them,
    and `init` only where it reads an initial set."""
    start = {"init": (False, _list(_integer(0)))} if init else {}
    cases = {"finite": {"edges": (True, _list(_edge)), **start},
             "finite_file": {"path": (True, _string()), **start}}
    if bgw:
        cases["bgw"] = {"dist": (True, _DIST_SCHEMA),
                        "max_vertices": (False, _integer(1)),
                        "max_depth": (False, _integer(0)),
                        "root_degree": (False, _integer(1))}
    return _Switch(cases)


_KERNEL_SCHEMA = {
    "alpha": (True, _num(0.0)),
    "sigma": (False, _num(0.0, 1.0)),
    "kappa": (False, _num(0.0, strict_lo=True)),
    "eta": (False, _num()),
    "nu": (False, _num(0.0, strict_lo=True)),
    "table": (False, _string()),
}
# a kernel table replaces the built-in p, and with it these keys
_TABLE_REPLACES = ("sigma", "kappa")

_WEIGHT_SCHEMA = _Switch({"linear": {}, "power": {"beta": (False, _num())},
                          "constant": {}})

# keys every subcommand accepts
_COMMON = {
    "seed": (False, _integer(0)),
    "out": (False, _string()),
}

_SIMULATE = {
    **_COMMON,
    "graph": (True, _graph_schema()),
    "kernel": (True, _KERNEL_SCHEMA),
    "lambda": (True, _grid),
    "horizon": (True, _num(0.0)),
    "replicas": (True, _integer(1)),
    "max_infected": (False, _integer(1)),
    "records": (False, _boolean),
    "threads": (False, _integer(1)),
}

_STAR = {
    **_COMMON,
    "kernel": (True, _KERNEL_SCHEMA),
    "dist": (True, _DIST_SCHEMA),
    "n_values": (True, _list(_integer(1))),
    "degree_bound": (True, _integer(1)),
    "replicas": (True, _integer(1)),
}

_PHASE = {
    **_COMMON,
    "alpha": (False, _num(0.0)),
    "alpha_values": (False, _list(_num(0.0))),
    "sigma": (False, _num(0.0, 1.0)),
    "eta": (False, _num()),
    "eta_values": (False, _list(_num())),
    "offspring_min_one": (False, _boolean),
}

_SCHEMAS = {
    # only the cpdg variant has a background to thin
    "simulate": _Switch({CPDG: {**_SIMULATE, "bg_mode": (False, _string({"explicit", "thinned"}))},
                         **dict.fromkeys((WAIT_AND_SEE, PENALISED, LOWER_BOUND), _SIMULATE)},
                        key="variant", default=CPDG),
    "star": _Switch({True: _STAR,
                     False: {**_STAR, "lambda": (True, _num(0.0)),
                             "max_windows": (False, _integer(4))}},
                    key="stability_only", default=False),
    "path": {
        **_COMMON,
        "kernel": (True, _KERNEL_SCHEMA),
        "r_values": (True, _list(_integer(1))),
        "degree": (True, _integer(1)),
        "lambda": (True, _num(0.0)),
        "replicas": (True, _integer(1)),
        "within_factor": (False, _num(0.0, strict_lo=True)),
    },
    # the rules read a tail parameter for stretched tails only
    "phase": _Switch({"power_law": _PHASE,
                      "stretched": {**_PHASE, "tail_param": (True, _num(0.0, strict_lo=True))}},
                     key="tail"),
    "edge-law": {
        **_COMMON,
        "lambda": (True, _num(0.0, strict_lo=True)),
        "v": (True, _num(0.0, strict_lo=True)),
        "p": (True, _num(0.0, 1.0)),
        "tail_times": (False, _list(_num(0.0))),
    },
    "oracle": {
        **_COMMON,
        "graph": (True, _graph_schema(bgw=False)),
        "kernel": (True, _KERNEL_SCHEMA),
        "lambda": (True, _num(0.0)),
        "t": (True, _num(0.0)),
    },
    "check": {
        **_COMMON,
        "graph": (True, _graph_schema(bgw=False, init=False)),
        "kernel": (True, _KERNEL_SCHEMA),
        "lambda": (False, _num(0.0)),
        "weight": (False, _WEIGHT_SCHEMA),
    },
}


def _validate(block, schema, path, errors):
    if not isinstance(block, dict):
        errors.append(f"{path or '<root>'}: must be an object")
        return
    if isinstance(schema, _Switch):
        schema = schema.pick(block, path, errors)
        if schema is None:
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
        if isinstance(checker, (dict, _Switch)):
            _validate(value, checker, here + ".", errors)
        elif checker is not None:
            bad = checker(value)
            if bad:
                errors.append(f"{here}: {bad}")


def _semantic_errors(subcommand, data):
    kernel = data.get("kernel", {})
    errors = [f"kernel.{key}: not read beside kernel.table"
              for key in _TABLE_REPLACES if key in kernel and "table" in kernel]
    if subcommand == "edge-law" and data["p"] == 0 and "tail_times" in data:
        errors.append("tail_times: needs p > 0 (an edge with p = 0 never transmits)")
    return errors + [f"phase: give exactly one of {one} / {grid}"
                     for one, grid in (("alpha", "alpha_values"), ("eta", "eta_values"))
                     if subcommand == "phase" and (one in data) == (grid in data)]


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    data: dict
    config_hash: str

    @property
    def seed(self) -> int:
        return self.data["seed"]


_KERNEL_DEFAULTS = {f.name: f.default for f in dataclasses.fields(KernelSpec)
                    if f.name in _KERNEL_SCHEMA and f.default is not dataclasses.MISSING}


def canonicalize(subcommand: str, data: dict) -> dict:
    out = {"seed": 0, **data}
    if "kernel" in out:
        unread = _TABLE_REPLACES if "table" in out["kernel"] else ()
        out["kernel"] = {**{k: v for k, v in _KERNEL_DEFAULTS.items() if k not in unread},
                         **out["kernel"]}
    return out


def parse_config(text: str, subcommand: str) -> ExperimentConfig:
    """Parse and validate a JSON config; raises ConfigError listing every violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    return _config_from_data(data, subcommand)


def _config_from_data(data, subcommand: str) -> ExperimentConfig:
    if subcommand not in _SCHEMAS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    errors: list[str] = []
    _validate(data, _SCHEMAS[subcommand], "", errors)
    if not errors:
        errors.extend(_semantic_errors(subcommand, data))
    if errors:
        raise ConfigError(errors)
    canon = canonicalize(subcommand, data)
    hashed = {k: v for k, v in canon.items() if k not in _UNHASHED}
    blob = json.dumps({"subcommand": subcommand, "config": hashed},
                      sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return ExperimentConfig(subcommand=subcommand, data=canon, config_hash=digest)


# ---------------------------------------------------------------------------
# object construction
# ---------------------------------------------------------------------------

def _given(block, *keys):
    """The keys of `block` among `keys`, to pass on as keyword arguments."""
    return {k: block[k] for k in keys if k in block}


_DISTS = {"power_law": power_law, "stretched": stretched_exponential,
          "geometric": geometric, "deterministic": deterministic,
          "tabulated": tabulated}


def build_dist(block):
    params = {k: v for k, v in block.items() if k != "kind"}
    return _DISTS[block["kind"]](**params)


def build_kernel(block) -> KernelSpec:
    params = {k: v for k, v in block.items() if k != "table"}
    if "table" in block:
        params["custom_p"] = load_kernel_table(block["table"])
    return KernelSpec(**params)


def build_graph_spec(block):
    kind = block["kind"]
    if kind == "bgw":
        dist = build_dist(block["dist"])
        if "root_degree" in block and dist.pmf_at(block["root_degree"]) <= 0.0:
            raise ConfigError([f"graph.root_degree: {block['root_degree']} is outside the "
                               f"offspring support"])
        return experiments.BGWGraphSpec(
            dist=dist,
            caps=TreeCaps(**_given(block, "max_vertices", "max_depth")),
            **_given(block, "root_degree"))
    if kind == "finite":
        edges = tuple(tuple(e) for e in block["edges"])
        n = 1 + max(max(e) for e in edges)
    else:
        g = load_edge_list(block["path"])
        edges, n = tuple(g.edges()), g.n_vertices
    start = {k: tuple(v) for k, v in _given(block, "init").items()}
    outside = [x for x in start.get("init", ()) if x >= n]
    if outside:
        raise ConfigError([f"graph.init: vertex {outside[0]} is not in the graph "
                           f"(vertices 0..{n - 1})"])
    return experiments.FiniteGraphSpec(edges=edges, **start)


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


def _kv_result(report, stream):
    """Handler result for a flat report: `key=value` lines and one row per key."""
    rows = [{"key": k, "value": v} for k, v in sorted(report.items())]
    for row in rows:
        stream.write(f"{row['key']}={row['value']}\n")
    return [], rows, None, report


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
            closedform.ConditionError, experiments.ExperimentError,
            oracle.StateCapExceeded, oracle.UniformizationError) as exc:
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
    options = _given(d, "variant", "bg_mode", "max_infected", "threads")
    collect = d.get("records", False)
    grid = d["lambda"] if isinstance(d["lambda"], list) else [d["lambda"]]
    rows = []
    records_out = []
    estimates = []
    for j, lam in enumerate(grid):
        est, recs = experiments.estimate_survival(
            spec, kernel, lam, d["horizon"], d["replicas"],
            seed=experiments.mix(d["seed"], j), collect_records=collect, **options)
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
    if d.get("stability_only"):
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
    rep = experiments.star_survival(d["n_values"], d["degree_bound"], d["lambda"],
                                    kernel, dist, d["replicas"], d["seed"],
                                    **_given(d, "max_windows"))
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
    rep = experiments.path_transmission(d["r_values"], d["degree"], d["lambda"],
                                        kernel, d["replicas"], d["seed"],
                                        **_given(d, "within_factor"))
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
    sigma = d.get("sigma", KernelSpec.sigma)
    options = _given(d, "tail_param", "offspring_min_one")
    rows = []
    for a in d.get("alpha_values", [d.get("alpha")]):
        for e in d.get("eta_values", [d.get("eta")]):
            res = closedform.phase_classify(a, sigma, e, d["tail"], **options)
            rows.append({"alpha": a, "eta": e, "sigma": sigma,
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
    for t in d.get("tail_times", [0.5, 1.0, 2.0]) if p > 0 else ():
        report[f"tail_at_{t}"] = closedform.transmission_time_tail(law, t)
    return _kv_result(report, stream)


def _run_oracle(config, stream):
    d = config.data
    g, init = build_graph_spec(d["graph"]).build(0)
    kernel = build_kernel(d["kernel"])
    model = oracle.build_exact(g, kernel, d["lambda"])
    start = oracle.initial_distribution(model, sorted(init))
    p_alive = oracle.transient_prob(model, start, d["t"], lambda c, b: c != 0)
    stats = oracle.extinction_stats(model, start)
    return _kv_result({"n_states": model.n_states, "t": d["t"],
                       "p_alive_at_t": p_alive, "p_extinct": stats.p_extinct,
                       "mean_extinction_time": stats.mean_time}, stream)


def _run_check(config, stream):
    d = config.data
    g, _ = build_graph_spec(d["graph"]).build(0)
    kernel = build_kernel(d["kernel"])
    options = {"weight": lyapunov.WeightFunction(**d["weight"])} if "weight" in d else {}
    lam = d.get("lambda")
    rep = lyapunov.check_conditions(g, kernel, lam=lam, **options)
    report = {"K": rep.K, "v_min": rep.v_min, "lambda_star": rep.lambda_star,
              "weighted_ratio_max": rep.weighted_ratio_max,
              "damping_sum_max": rep.damping_sum_max}
    if lam is not None:
        report["lambda"] = lam
        report["theta"] = rep.theta
        report["theta_negative"] = rep.theta < 0
    return _kv_result(report, stream)


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
    parser.add_argument("--threads", type=int, default=None,
                        help="replica parallelism (simulate only)")
    parser.add_argument("--out", default=None, help="artifact directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # invalid JSON, or bytes that are not text
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if isinstance(data, dict):
        data.update({k: v for k, v in (("seed", args.seed), ("threads", args.threads))
                     if v is not None})
    try:
        config = _config_from_data(data, args.subcommand)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    return dispatch(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
