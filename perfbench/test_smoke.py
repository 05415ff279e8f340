"""The benchmark's own tests: ``python -m pytest perfbench`` from the root.

Each workload runs in smoke mode (one tiny block) with and without tracing;
every named metric must be emitted and every check must pass.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
import run  # noqa: E402


def _bench(workload, trace, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_smoke(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stdout
    names = run.PER_LAYER if trace else run.END_TO_END
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.unit(name)
        assert isinstance(metric["value"], (int, float))
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-s3-t{trace}-smoke", "result.json")) as f:
        detail = json.load(f)
    # Only the seed's known defects may fail, and each is counted.
    assert result["failed"] == detail["known_defect_failures"]
    if trace:
        calls = detail["calls_by_subcommand"]
        if workload == "combinatorics":
            assert "linalg" not in calls and "multiview" not in calls
        if workload == "geometry":
            assert set(calls["polymatroid"]) == {"oracle-multidegree"}


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit(name)) for name in run.PER_LAYER
    ]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("combinatorics", 0, cwd=tmp_path, script="perfbench/run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
