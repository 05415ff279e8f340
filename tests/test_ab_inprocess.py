"""Smoke test of ``tools/ab_inprocess.py``: one block and one round of each
benchmark workload, timing the package's source tree against itself, end
with exit 0 and every output identical, after a line per tree with its
request-latency p50 and p90."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_src_against_itself(workload):
    argv = ["src", "src", "--workload", workload, "--blocks", "1", "--rounds", "1"]
    proc = subprocess.run(
        [sys.executable, "-B", "tools/ab_inprocess.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("every output identical")
    for side in ("base", "new"):
        line = rf"^{side} latency: p50 \d+\.\d{{3}} ms, p90 \d+\.\d{{3}} ms \(median over rounds\)$"
        assert re.search(line, proc.stdout, re.M), proc.stdout
