"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload with ``--tiny`` untraced and traced, and checks that
the result line has exactly the contract keys, that every end-to-end and
per-layer metric named in BENCHMARK.json is present with its unit, that all
output checks passed, and that the exact work counts agree between runs. It
also checks that a directory holding only the benchmark exits nonzero
without a result. It sets no time limit on anything; it is not part of the
test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5"]
    argv += ["--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: checks failed: {proc.stdout.splitlines()[-2][:2000]}")
    expected = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(f"{label}: metric names differ: {set(metrics) ^ set(expected)}")
    for name, entry in metrics.items():
        if entry["unit"] != expected[name] or not math.isfinite(entry["value"]):
            raise AssertionError(f"{label}: bad metric {name}: {entry}")
    return metrics


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]}")


def main() -> int:
    work_counts = None
    for workload in WORKLOADS:
        check_result(run(ROOT, workload, 0), BENCH["end_to_end"], f"{workload} trace 0")
        metrics = check_result(run(ROOT, workload, 1), BENCH["per_layer"], f"{workload} trace 1")
        counts = {k: v["value"] for k, v in metrics.items() if k.startswith("work.")}
        if any(v != int(v) or v <= 0 for v in counts.values()):
            raise AssertionError(f"{workload}: work counts are not positive integers: {counts}")
        if work_counts is not None and counts != work_counts:
            raise AssertionError(f"{workload}: work counts changed between runs: {counts}")
        work_counts = counts
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory")
    print("work counts:", json.dumps(work_counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
