import io
import json
import os

import pytest

from cpdg import cli
from cpdg.cli import ConfigError, dispatch, main, parse_config


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
