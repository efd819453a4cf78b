"""Smoke test of the benchmark's output schema.

    python3 -m pytest bench

Runs the shortest workload for one episode per mode, so it takes about
half a minute; it is not part of the package's test suite.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", "retention-micro", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_matches_benchmark_json(trace, section):
    proc = run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
