"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Runs bench/run.py on every workload with `--size tiny` and checks the output
contract: every metric named in BENCHMARK.json is emitted with its unit, the
law checks run, and two runs with one seed give the same digests.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    last = json.loads(lines[-1])
    with open(os.path.join(ROOT, ".bench_results",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        full = json.load(fh)
    return last, full, lines


def assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_checks_and_digests(workload):
    first, full, lines = run(workload, 7, 0)
    assert_metrics(first, SPEC["end_to_end"])
    assert full["checks"], "no law check ran"
    assert any(line.startswith("check ") for line in lines)
    assert all(c["workload"] == workload for c in full["checks"])
    assert full["env"]["src_sha256"] and full["env"]["python"]
    second, full2, _ = run(workload, 7, 0)
    assert full2["digest"] == full["digest"]


def test_traced_run_emits_every_layer_metric():
    result, full, _ = run(WORKLOADS[0], 7, 1)
    assert_metrics(result, SPEC["per_layer"])
    checked = {c["workload"] for c in full["checks"]}
    assert checked == set(WORKLOADS)
    assert result["metrics"]["engine.violations"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracer.py"):
        shutil.copy(os.path.join(ROOT, "bench", name), bench / name)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
