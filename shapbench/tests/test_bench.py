"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest shapbench/tests -q
(about a minute: two traced runs of two grid passes each, and one failed start).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join("shapbench", "run.py")

sys.path.insert(0, BENCH_DIR)
from spans import COUNT_METRICS  # noqa: E402  counts that must repeat between runs


def _run(cwd, *args):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def _snapshot(root):
    """Every directory and (file, size, mtime) outside the benchmark's own directory."""
    skip = {".git", ".pytest_cache", ".hypothesis", os.path.basename(BENCH_DIR)}
    out = set()
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in skip]
        out.add((os.path.relpath(dirpath, root), "dir", 0))
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            out.add((os.path.relpath(path, root), st.st_size, st.st_mtime_ns))
    return out


@pytest.fixture(scope="module")
def traced_runs():
    before = _snapshot(ROOT)
    runs = [_run(ROOT, "--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    after = _snapshot(ROOT)
    return runs, before, after


def test_traced_runs_repeat_their_counts(traced_runs):
    runs, _, _ = traced_runs
    results = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        results.append(result["metrics"])
    for name in COUNT_METRICS:
        values = [m[name]["value"] for m in results]
        assert values[0] == values[1], (name, values)
    for name in ("network.steps", "network.epochs", "kernel_kmeans.kernel_matrix_calls",
                 "gbm.trees", "attribution.rows", "pipeline.grid_cells"):
        assert results[0][name]["value"] > 0, name


def test_benchmark_writes_only_its_own_directory(traced_runs):
    _, before, after = traced_runs
    # covers the repo's data/ (stand-ins are written under shapbench/.work only)
    assert before == after, sorted(before ^ after)[:10]


def test_traced_metrics_match_the_declared_list(traced_runs):
    runs, _, _ = traced_runs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = json.loads(runs[0].stdout.strip().splitlines()[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "shapbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
