"""Tiny-scale smoke test of the benchmark.

Every workload runs end to end, untraced and traced, and must emit exactly
the metrics BENCHMARK.json names with their units; a repeated seed must
give the same digests; and without the library source the benchmark must
fail without printing a result.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, results, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny", "--results", str(results),
        ],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, kind, tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    if trace:
        record = json.loads((tmp_path / f"{workload}-tiny-seed3-trace1.json").read_text())
        assert record["spans"], "traced run recorded no spans"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests(workload, tmp_path):
    digests = []
    for k in range(2):
        proc = run_bench(workload, 0, tmp_path / str(k))
        assert proc.returncode == 0, proc.stderr
        record = json.loads((tmp_path / str(k) / f"{workload}-tiny-seed3-trace0.json").read_text())
        digests.append(record["digests"])
    assert digests[0] == digests[1]


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = run_bench("recorrect", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
