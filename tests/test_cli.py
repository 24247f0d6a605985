import contextlib
import csv
import io
import json
import os
import signal

import pytest

from cpdg import cli, oracle
from cpdg.cli import ConfigError, dispatch, main, parse_config


@contextlib.contextmanager
def deadline(seconds, message):
    """Raise TimeoutError(message) in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_dispatch(subcommand, cfg, out_dir=None):
    config = parse_config(json.dumps(cfg), subcommand)
    buf = io.StringIO()
    rc = dispatch(config, out_dir=out_dir, stream=buf)
    return rc, buf.getvalue(), config


class TestParse:
    def test_minimal_config_applies_defaults_and_stable_hash(self):
        c1 = parse_config('{"lambda": 1.0, "v": 1.0, "p": 0.5}', "edge-law")
        assert c1.data["seed"] == 0
        c2 = parse_config(json.dumps(c1.data), "edge-law")
        assert c1.config_hash == c2.config_hash
        assert c2.data == cli.canonicalize("edge-law", c2.data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"lambda": 1.0, "v": 1.0, "p": 0.5, "lamda": 2}', "edge-law")
        assert any("lamda: unknown key" in v for v in err.value.violations)

    def test_domain_violation_with_field_path(self):
        cfg = {"graph": {"kind": "finite", "edges": [[0, 1]]},
               "kernel": {"alpha": -1}, "lambda": 1.0, "horizon": 1.0, "replicas": 10}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(cfg), "simulate")
        assert any(v.startswith("kernel.alpha:") for v in err.value.violations)

    def test_all_violations_collected(self):
        cfg = {"kernel": {"alpha": -1, "sigma": 3}, "lambda": -2, "horizon": -1}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(cfg), "simulate")
        assert len(err.value.violations) >= 4

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{", "edge-law")

    def test_semantic_checks(self):
        with pytest.raises(ConfigError, match="graph.edges"):
            parse_config(json.dumps({"graph": {"kind": "finite"},
                                     "kernel": {"alpha": 1.0}, "lambda": 1.0,
                                     "horizon": 1.0, "replicas": 1}), "simulate")
        with pytest.raises(ConfigError, match="tail_param"):
            parse_config(json.dumps({"alpha": 0.5, "eta": 0.0, "tail": "stretched"}),
                         "phase")


class TestDispatch:
    def test_edge_law_prints_quarter(self):
        rc, out, _ = run_dispatch("edge-law", {"lambda": 1.0, "v": 1.0, "p": 1.0})
        assert rc == 0
        assert "transmission_prob=0.25" in out

    def test_phase_no_transition_point(self):
        rc, out, _ = run_dispatch("phase", {"alpha": 0.3, "eta": 0.1, "tail": "power_law"})
        assert rc == 0
        assert "NoPhaseTransition" in out

    def test_lambda_grid_expands(self, tmp_path):
        cfg = {"graph": {"kind": "finite", "edges": [[0, 1]]},
               "kernel": {"alpha": 0.5}, "lambda": [0.2, 0.4, 0.6, 0.8, 1.0],
               "horizon": 2.0, "replicas": 50}
        rc, out, _ = run_dispatch("simulate", cfg, out_dir=str(tmp_path / "o"))
        assert rc == 0
        rows = (tmp_path / "o" / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 2 + 5  # header comment + column row + 5 units

    def test_check_reports_positive_lambda_star(self):
        cfg = {"graph": {"kind": "finite", "edges": [[0, i] for i in range(1, 6)]},
               "kernel": {"alpha": 1.2, "sigma": 1.0}, "lambda": 0.05,
               "weight": {"kind": "linear"}}
        rc, out, _ = run_dispatch("check", cfg)
        assert rc == 0
        star = [l for l in out.splitlines() if l.startswith("lambda_star=")]
        assert star and float(star[0].split("=")[1]) > 0
        assert "theta_negative=True" in out

    def test_oracle_subcommand(self):
        cfg = {"graph": {"kind": "finite", "edges": [[0, 1]]},
               "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 1.0}
        rc, out, _ = run_dispatch("oracle", cfg)
        assert rc == 0
        assert "n_states=8" in out
        assert "p_extinct=" in out

    def test_oracle_at_2_17_states(self):
        # the 9-vertex path, 2^(9+8) states: assembly, uniformization and the
        # absorption solves all run well inside the deadline
        cfg = {"graph": {"kind": "finite", "edges": [[i, i + 1] for i in range(8)]},
               "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 1.0}
        with deadline(60, "the oracle took over 60 s on 2^17 states"):
            rc, out, _ = run_dispatch("oracle", cfg)
        assert rc == 0
        assert "n_states=131072" in out
        p_extinct = float(out.split("p_extinct=")[1].split()[0])
        assert abs(p_extinct - 1.0) < 1e-9

    def test_star_stability_subcommand(self):
        cfg = {"kernel": {"alpha": 0.2, "sigma": 0.0},
               "dist": {"kind": "deterministic", "d": 2},
               "n_values": [200], "degree_bound": 4, "replicas": 50,
               "stability_only": True}
        rc, out, _ = run_dispatch("star", cfg)
        assert rc == 0
        assert "stable_frequency=" in out

    def test_kernel_table_missing_pair(self, tmp_path):
        table = tmp_path / "kernel.txt"
        table.write_text("1 1 0.5\n")  # the star needs the (1, 3) pair
        cfg = {"graph": {"kind": "finite", "edges": [[0, 1], [0, 2], [0, 3]]},
               "kernel": {"alpha": 0.5, "table": str(table)}, "lambda": 1.0,
               "horizon": 2.0, "replicas": 5}
        rc, out, _ = run_dispatch("simulate", cfg, out_dir=str(tmp_path / "o"))
        assert rc == 2
        assert out == "error: custom kernel table has no entry for degrees (1, 3)\n"
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "no entry" in report["report"]["failure"]

    def test_wait_and_see_censors_truncated_trees(self, tmp_path):
        # a lazy tree capped at 20 vertices is outgrown at lam = 4; the
        # replicas that outgrow it are censored, as in the CPDG
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            "graph": {"kind": "bgw", "dist": {"kind": "power_law", "b": 2.5},
                      "max_vertices": 20},
            "kernel": {"alpha": 0.5}, "lambda": 4.0, "horizon": 5.0, "replicas": 30,
            "variant": "wait_and_see", "seed": 1}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "summary.csv") as fh:
            row = list(csv.DictReader(line for line in fh if not line.startswith("#")))[0]
        assert int(row["censored"]) > 0

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda": 1.0}')
        rc = main(["edge-law", "--config", str(path)])
        assert rc == 2

    def test_main_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 1.0, "v": 1.0, "p": 1.0}))
        rc = main(["edge-law", "--config", str(path), "--seed", "3",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["meta"]["seed"] == 3


class TestArtifacts:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"graph": {"kind": "finite", "edges": [[0, 1], [0, 2]]},
               "kernel": {"alpha": 0.4}, "lambda": 0.9, "horizon": 3.0,
               "replicas": 120, "records": True, "seed": 5}
        _, _, config = run_dispatch("simulate", cfg, out_dir=str(tmp_path / "a"))
        run_dispatch("simulate", cfg, out_dir=str(tmp_path / "b"))
        for name in os.listdir(tmp_path / "a"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        head = (tmp_path / "a" / "records.jsonl").read_text().splitlines()[0]
        assert config.config_hash in head

    def test_different_seed_changes_hash_and_content(self, tmp_path):
        base = {"graph": {"kind": "finite", "edges": [[0, 1]]},
                "kernel": {"alpha": 0.4}, "lambda": 0.9, "horizon": 3.0,
                "replicas": 100, "records": True}
        _, _, c1 = run_dispatch("simulate", {**base, "seed": 1}, out_dir=str(tmp_path / "a"))
        _, _, c2 = run_dispatch("simulate", {**base, "seed": 2}, out_dir=str(tmp_path / "b"))
        assert c1.config_hash != c2.config_hash


K2 = {"kind": "finite", "edges": [[0, 1]]}
STAR3 = {"kind": "finite", "edges": [[0, 1], [0, 2], [0, 3]]}
SIM = {"graph": K2, "kernel": {"alpha": 0.5}, "lambda": 1.0, "horizon": 1.0, "replicas": 5}
STAR = {"kernel": {"alpha": 0.2, "sigma": 0.0}, "dist": {"kind": "deterministic", "d": 2},
        "n_values": [20], "degree_bound": 4, "replicas": 5}


def violations(subcommand, cfg):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(cfg), subcommand)
    return err.value.violations


class TestKeysRead:
    """Every key a subcommand accepts is one it reads."""

    def test_dist_keys_follow_kind(self):
        dist = {"kind": "deterministic", "d": 2, "b": 9.0, "q": 0.3}
        assert violations("star", {**STAR, "dist": dist, "stability_only": True}) == [
            "dist.b: unknown key", "dist.q: unknown key"]

    def test_graph_keys_follow_kind(self):
        bgw = {"kind": "bgw", "dist": {"kind": "power_law", "b": 2.5},
               "init": [0], "edges": [[0, 1]]}
        assert violations("simulate", {**SIM, "graph": bgw}) == [
            "graph.init: unknown key", "graph.edges: unknown key"]
        assert violations("simulate", {**SIM, "graph": {**K2, "max_vertices": 9}}) == [
            "graph.max_vertices: unknown key"]

    def test_threads_only_for_simulate(self, tmp_path, capsys):
        parse_config(json.dumps({**SIM, "threads": 2}), "simulate")
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"lambda": 1.0, "v": 1.0, "p": 1.0}))
        assert main(["edge-law", "--config", str(path), "--threads", "2"]) == 2
        assert "config error: threads: unknown key" in capsys.readouterr().err

    def test_lambda_grid_only_for_simulate(self):
        path_cfg = {"kernel": {"alpha": 0.5}, "r_values": [2], "degree": 3,
                    "lambda": [0.5, 5.0], "replicas": 5}
        assert violations("path", path_cfg) == ["lambda: must be a number"]
        assert violations("star", {**STAR, "lambda": [0.4, 1.0]}) == ["lambda: must be a number"]

    def test_star_lambda_rules(self):
        assert violations("star", STAR) == ["lambda: missing required key"]
        stable = {**STAR, "stability_only": True}
        assert violations("star", {**stable, "lambda": 0.4, "max_windows": 8}) == [
            "lambda: unknown key", "max_windows: unknown key"]

    def test_bg_mode_only_for_cpdg(self):
        parse_config(json.dumps({**SIM, "bg_mode": "thinned"}), "simulate")
        for variant in ("wait_and_see", "penalised", "lower_bound"):
            assert violations("simulate", {**SIM, "variant": variant, "bg_mode": "thinned"}) == [
                "bg_mode: unknown key"]

    def test_table_replaces_sigma_and_kappa(self, tmp_path, capsys):
        table = {"alpha": 0.5, "table": "kernel.txt"}
        assert violations("simulate", {**SIM, "kernel": {**table, "sigma": 0.3, "kappa": 2.0}}) == [
            "kernel.sigma: not read beside kernel.table",
            "kernel.kappa: not read beside kernel.table"]
        assert violations("oracle", {"graph": K2, "kernel": {**table, "sigma": 1.0},
                                     "lambda": 1.0, "t": 1.0}) == [
            "kernel.sigma: not read beside kernel.table"]
        canon = parse_config(json.dumps({**SIM, "kernel": table}), "simulate").data["kernel"]
        assert "sigma" not in canon and "kappa" not in canon and canon["nu"] == 1.0
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**SIM, "kernel": {**table, "sigma": 0.3}}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error: kernel.sigma: " in capsys.readouterr().err

    def test_edge_law_tails_need_an_open_edge(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"lambda": 1, "v": 1, "p": 0, "tail_times": [0.5, 1]}))
        assert main(["edge-law", "--config", str(path)]) == 2
        assert "config error: tail_times: " in capsys.readouterr().err
        rc, out, _ = run_dispatch("edge-law", {"lambda": 1, "v": 1, "p": 0})
        assert rc == 0 and "tail_at" not in out

    def test_one_initial_set(self):
        oracle_cfg = {"graph": K2, "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 1.0}
        assert violations("oracle", {**oracle_cfg, "init": [1]}) == ["init: unknown key"]
        check_cfg = {"graph": {**K2, "init": [1]}, "kernel": {"alpha": 0.5}}
        assert violations("check", check_cfg) == ["graph.init: unknown key"]

    def test_oracle_reads_graph_init(self):
        cfg = {"graph": {"kind": "finite", "edges": [[0, 1], [1, 2]]},
               "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 0.0}
        outs = [run_dispatch("oracle", {**cfg, "graph": {**cfg["graph"], "init": init}})[1]
                for init in ([0], [0, 1, 2])]
        assert outs[0] != outs[1]

    def test_kind_dependent_keys_elsewhere(self):
        phase = {"alpha": 0.3, "eta": 0.1, "tail": "power_law", "tail_param": 2.5}
        assert violations("phase", phase) == ["tail_param: unknown key"]
        check_cfg = {"graph": K2, "kernel": {"alpha": 0.5},
                     "weight": {"kind": "linear", "beta": 2.0}}
        assert violations("check", check_cfg) == ["weight.beta: unknown key"]

    def test_finite_graphs_only_where_needed(self):
        bgw = {"kind": "bgw", "dist": {"kind": "power_law", "b": 2.5}}
        assert violations("check", {"graph": bgw, "kernel": {"alpha": 0.5}}) == [
            "graph.kind: must be one of ['finite', 'finite_file']"]


class TestConfigHash:
    def test_hash_ignores_threads_and_out(self):
        hashes = {parse_config(json.dumps(cfg), "simulate").config_hash
                  for cfg in (SIM, {**SIM, "threads": 1}, {**SIM, "threads": 2},
                              {**SIM, "out": "somewhere"})}
        assert len(hashes) == 1
        assert parse_config(json.dumps({**SIM, "seed": 1}), "simulate").config_hash not in hashes

    def test_artifacts_equal_across_thread_counts(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**SIM, "records": True}))
        for threads in ("1", "2"):
            assert main(["simulate", "--config", str(path), "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
        for name in ("summary.csv", "records.jsonl", "report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestErrorExits:
    """Inputs the schema cannot see exit 2 with an `error:` line."""

    def test_oracle_state_cap(self):
        cfg = {"graph": {"kind": "finite", "edges": [[i, i + 1] for i in range(12)]},
               "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 1.0}
        rc, out, _ = run_dispatch("oracle", cfg)
        assert rc == 2
        assert out.startswith("error: 2^(13+12) = 33554432 states exceeds the cap")

    def test_oracle_over_the_product_limit(self):
        # K2 at nu = 50 uniformizes at rate 52, so t = 1e6 asks for about
        # 5.2e7 products: refused before the first one, not run for an hour
        cfg = {"graph": K2, "kernel": {"alpha": 0.5, "nu": 50.0}, "lambda": 1.0, "t": 1e6}
        with deadline(30, "the oracle ran instead of refusing the horizon"):
            rc, out, _ = run_dispatch("oracle", cfg)
        assert rc == 2
        assert out == ("error: uniformization at t = 1e+06 (mu = 5.2e+07) needs up to "
                       f"52288484 matrix-vector products, over the limit of {oracle.MAX_PRODUCTS}\n")

    def test_stable_star_over_the_window_cap(self):
        cfg = {"kernel": {"alpha": 0.2, "sigma": 0.0},
               "dist": {"kind": "deterministic", "d": 2}, "n_values": [10**6],
               "degree_bound": 4, "replicas": 1, "stability_only": True}
        rc, out, _ = run_dispatch("star", cfg)
        assert rc == 2
        assert out.startswith("error: stable star at n=1000000 spans ")
        assert out.endswith("windows, over the cap of 16384\n")

    @pytest.mark.parametrize("subcommand, cfg", [
        ("simulate", SIM),
        ("oracle", {"graph": K2, "kernel": {"alpha": 0.5}, "lambda": 1.0, "t": 1.0}),
    ])
    def test_init_outside_graph(self, subcommand, cfg):
        rc, out, _ = run_dispatch(subcommand, {**cfg, "graph": {**K2, "init": [7]}})
        assert rc == 2
        assert out == "error: graph.init: vertex 7 is not in the graph (vertices 0..1)\n"

    def test_root_degree_outside_offspring_support(self):
        graph = {"kind": "bgw", "dist": {"kind": "deterministic", "d": 2}, "root_degree": 5}
        rc, out, _ = run_dispatch("simulate", {**SIM, "graph": graph, "replicas": 20})
        assert rc == 2
        assert out == "error: graph.root_degree: 5 is outside the offspring support\n"

    @pytest.mark.parametrize("content", [None, b"0 1 2\n", b"\xff\xfe0 1\n"])
    def test_bad_edge_file(self, tmp_path, content):
        path = tmp_path / "edges.txt"
        if content is not None:
            path.write_bytes(content)
        rc, out, _ = run_dispatch("simulate", {**SIM, "graph": {"kind": "finite_file",
                                                                "path": str(path)}})
        assert rc == 2
        assert out.startswith("error: ") and "edges.txt" in out

    @pytest.mark.parametrize("subcommand", ["simulate", "oracle", "check", "star", "path"])
    def test_update_rate_overflow(self, subcommand):
        # 3^1000 overflows a float on the 3-star (and 5^1000 on the star centre)
        kernel = {"alpha": 0.5, "eta": 1000}
        cfg = {"simulate": {**SIM, "graph": STAR3, "horizon": 2.0, "replicas": 2},
               "oracle": {"graph": STAR3, "lambda": 1.0, "t": 1.0},
               "check": {"graph": STAR3},
               "star": {**STAR, "n_values": [5], "lambda": 0.4},
               "path": {"r_values": [1], "degree": 3, "lambda": 0.4, "replicas": 2}}[subcommand]
        rc, out, _ = run_dispatch(subcommand, {**cfg, "kernel": kernel})
        assert rc == 2
        assert out.startswith("error: update rate nu * ") and "^1000 = inf lies outside" in out

    def test_update_rate_too_large_refused_at_once(self):
        # 1e308 * sqrt(3) is a float, but the clock of an edge flipping at that
        # rate cannot advance: the run used to never finish
        cfg = {**SIM, "graph": STAR3, "kernel": {"alpha": 0.5, "eta": 0.5, "nu": 1e308},
               "horizon": 2.0, "replicas": 2}
        with deadline(10, "the run started instead of refusing the rate"):
            rc, out, _ = run_dispatch("simulate", cfg)
        assert rc == 2
        assert out.startswith("error: update rate nu * 3^eta = 1e+308 * 3^0.5 = 1.73205e+308 ")

    def test_update_rate_underflow_in_check(self):
        # 3^-1000 is 0: the damping sum p / v^2 divided by zero
        cfg = {"graph": STAR3, "kernel": {"alpha": 0.5, "eta": -1000}}
        rc, out, _ = run_dispatch("check", cfg)
        assert rc == 2
        assert out.startswith("error: update rate nu * 3^eta = 1 * 3^-1000 = 0 lies outside")

    def test_check_damping_sum_overflow(self):
        # v = 3^-400 ~ 1e-191 is a normal float, but v * v underflows to 0
        cfg = {"graph": STAR3, "kernel": {"alpha": 0.5, "eta": -400}}
        rc, out, _ = run_dispatch("check", cfg)
        assert rc == 2
        assert out.startswith("error: the condition constant K = max(") and "not finite" in out

    def test_check_weight_overflow(self):
        star5 = {"kind": "finite", "edges": [[0, i] for i in range(1, 6)]}
        cfg = {"graph": star5, "kernel": {"alpha": 0.5}, "weight": {"kind": "power", "beta": 1000}}
        rc, out, _ = run_dispatch("check", cfg)
        assert rc == 2
        assert out == "error: power weight 5^1000 overflows\n"

    def test_non_object_config_with_seed(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert main(["edge-law", "--config", str(path), "--seed", "3"]) == 2
        assert "config error: <root>: must be an object" in capsys.readouterr().err
