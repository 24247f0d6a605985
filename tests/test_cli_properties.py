"""Property test of the CLI over generated configs for every subcommand.

A config either fails validation with ConfigError or dispatches to exit code
0, 1 or 2; no other exception may escape. Configs start valid against the
schemas and may then get one mutation (a bad value, a dropped key or an extra
key). Value ranges are small so each run takes milliseconds.
"""

import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdg.cli import SUBCOMMANDS, ConfigError, dispatch, parse_config

# a text file that is neither an edge list nor a kernel table
NOT_A_TABLE = os.path.join(os.path.dirname(__file__), "data", "phase_truth_table.csv")
MISSING = os.path.join(os.path.dirname(__file__), "data", "absent.txt")

BAD = [-1, 0.5, "x", None, True, [], {}]


def one(*values):
    return st.sampled_from(values)


def block(required, optional=()):
    return st.fixed_dictionaries(required, optional=dict(optional))


def mostly(usual, rare):
    """`usual` three times in four, else `rare`."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 3 else usual)


# eta = +-1000 puts the update rate outside the floats on any degree above 1
KERNEL = {"sigma": one(0.0, 0.5, 1.0), "kappa": one(0.5, 1.0, 2.0),
          "eta": one(-0.5, 0.0, 0.5, -1000.0, 1000.0), "nu": one(0.5, 1.0, 2.0)}
kernels = mostly(block({"alpha": one(0.0, 0.3, 0.5, 1.2)}, KERNEL),
                 block({"alpha": one(0.5), "table": one(MISSING, NOT_A_TABLE)}, KERNEL))

K0 = {"k0": one(0, 1, 2)}
dists = st.one_of(
    block({"kind": st.just("power_law"), "b": one(2.1, 2.5, 3.0)}, K0),
    block({"kind": st.just("stretched"), "beta": one(0.5, 0.8)},
          {"scale": one(1.0, 2.0), **K0}),
    block({"kind": st.just("geometric"), "q": one(0.3, 0.7, 1.0)}, K0),
    block({"kind": st.just("deterministic"), "d": one(0, 1, 2, 3)}),
    block({"kind": st.just("tabulated"), "weights": one([1.0, 1.0], [0.0, 2.0, 1.0], [0.0])}, K0),
    block({"kind": one("zipf", "deterministic")}, {"b": one(2.5), "d": one(2)}),
)

# tiny graphs, including a self-loop, a disconnected pair and a repeated edge
EDGES = ([[0, 1]], [[0, 1], [0, 2], [0, 3]], [[0, 1], [1, 2]], [[0, 0]],
         [[0, 1], [2, 3]], [[0, 1], [0, 1]])
# a 13-vertex path needs 2^25 oracle states, beyond the state cap
LONG_PATH = [[i, i + 1] for i in range(12)]


def graphs(bgw=True, init=True, edges=EDGES):
    start = {"init": one([0], [1], [0, 2], [7])} if init else {}
    kinds = [block({"kind": st.just("finite"), "edges": one(*edges)}, start)]
    if bgw:
        kinds.append(block({"kind": st.just("bgw"), "dist": dists},
                           {"max_vertices": one(1, 50), "max_depth": one(0, 3),
                            "root_degree": one(1, 3)}))
    return mostly(st.one_of(kinds),
                  block({"kind": st.just("finite_file"), "path": one(MISSING, NOT_A_TABLE)}, start))


lam = one(0.4, 1.0, 0.0)
STAR = {"kernel": kernels, "dist": dists, "n_values": one([5], [3, 8]),
        "degree_bound": one(4, 1), "replicas": one(1, 2)}
common = {"seed": one(0, 7), "out": st.just("ignored")}

VALID = {
    "simulate": block(
        {"graph": graphs(), "kernel": kernels,
         "lambda": st.one_of(lam, st.lists(lam, min_size=1, max_size=2)),
         "horizon": one(0.0, 1.0, 2.0), "replicas": one(1, 3)},
        {**common, "variant": one("cpdg", "wait_and_see", "penalised", "lower_bound"),
         "bg_mode": one("explicit", "thinned"), "max_infected": one(1, 5),
         "records": st.booleans(), "threads": one(1)}),
    "star": st.one_of(
        block({**STAR, "lambda": lam}, {**common, "max_windows": one(4, 8),
                                        "stability_only": st.just(False)}),
        block({**STAR, "stability_only": st.just(True)}, common)),
    "path": block(
        {"kernel": kernels, "r_values": one([1], [2, 3]), "degree": one(3, 4),
         "lambda": lam, "replicas": one(1, 2)},
        {**common, "within_factor": one(0.5, 2.0)}),
    "phase": st.tuples(
        block({"tail": st.just("power_law")},
              {**common, "sigma": one(0.0, 1.0), "offspring_min_one": st.booleans()}),
        one({}, {"tail": "stretched", "tail_param": 0.5}),
        one({"alpha": 0.5}, {"alpha": 1.2}, {"alpha_values": [0.0, 0.9]}),
        one({"eta": 0.0}, {"eta": -0.5}, {"eta_values": [0.3, 0.6]}),
    ).map(lambda parts: {k: v for part in parts for k, v in part.items()}),
    "edge-law": block(
        {"lambda": one(0.5, 1.0), "v": one(0.5, 1.0), "p": one(0.0, 0.5, 1.0)},
        {**common, "tail_times": one([0.5], [0.0, 2.0])}),
    "oracle": block(
        {"graph": graphs(bgw=False, edges=EDGES + (LONG_PATH,)), "kernel": kernels,
         "lambda": lam, "t": one(0.0, 1.0)},
        common),
    "check": block(
        {"graph": graphs(bgw=False, init=False), "kernel": kernels},
        {**common, "lambda": one(0.05, 1.0),
         "weight": st.one_of(block({"kind": one("linear", "constant")}),
                             block({"kind": st.just("power")}, {"beta": one(0.5, 2.0, 1000.0)}))}),
}

# keys some subcommands read and others reject
EXTRA_KEYS = ("bogus", "threads", "lambda", "init", "bg_mode", "max_windows", "tail_param")


@st.composite
def configs(draw, subcommand):
    cfg = draw(VALID[subcommand])
    mutation = draw(one("none", "none", "bad", "drop", "extra"))
    if mutation == "bad":
        cfg[draw(one(*sorted(cfg)))] = draw(one(*BAD))
    elif mutation == "drop":
        del cfg[draw(one(*sorted(cfg)))]
    elif mutation == "extra":
        cfg[draw(one(*EXTRA_KEYS))] = draw(one(1, 0.5, [0.5, 1.0], "thinned", [0]))
    return cfg


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_configs_parse_or_exit_cleanly(subcommand):
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(configs(subcommand))
    def check(cfg):
        text = json.dumps(cfg)
        try:
            config = parse_config(text, subcommand)
        except ConfigError:
            return
        # canonical data is itself a valid config with the same hash
        assert parse_config(json.dumps(config.data), subcommand).config_hash == config.config_hash
        with tempfile.TemporaryDirectory() as out:
            rc = dispatch(config, out_dir=out, stream=io.StringIO())
        assert rc in (0, 1, 2)

    check()
