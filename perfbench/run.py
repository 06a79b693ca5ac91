"""povmbell benchmark: one command, every metric by name with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py for why each exists): ``sweep`` and
``config-mix``. The program under test is ``povmbell.cli.main(argv)`` from
the checkout's ``src``, called in process by one caller in a closed loop that
repeats the workload's pass of calls until ``--seconds`` have elapsed.

Every pass of a workload has the same layout of call slots but fresh
values, written to files before the pass starts; see workloads.py.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: the fastest of 20 fresh interpreters, 10 started before the
  passes and 10 after, of the time from process start until
  ``import povmbell.cli`` returns (other tenants of a shared machine only
  ever add time, so the fastest is the steady estimate);
* ``ops_per_s``: ops of one pass over the summed fastest op time of its
  slots, for the same reason (an op is a grid point on sweep and a CLI call
  on config-mix, where the op time of a ``sample`` call includes reading its
  log back); the plain rate over all passes is in the details record;
* ``call_p50_ms`` / ``call_p90_ms``: nearest-rank percentiles of the latency
  of one ``main()`` call over a window of as many consecutive calls as a
  pass has, lowest over the windows that start at every call of the run.
  Each window holds every slot of the layout once. Every call of a window
  counts, so a cost the program adds to some calls only shows as long as it
  comes at least once a pass; taking the quietest window keeps out
  stretches in which other tenants slow every call. A pass has 126 calls on
  config-mix and 100 on sweep, so 12 and 10 calls lie beyond p90. The
  details give the number of calls in the run and the same percentiles
  over all of them;
* ``peak_rss_mb``: peak resident memory of the worker that ran only this
  workload;
* ``ok_ratio``: ops whose call exited 0 and passed every output check, over
  ops attempted (1 - fail ratio; a ratio that is 0 on a healthy run cannot
  carry a relative bound).

``--trace 1`` reports the per-layer metrics: traced passes over the workload
(calls and self time per pass of every timed function, per-op counts,
rates), the tracing overhead per pass against untraced passes alternating
with them, exact work counts of fixed probe calls, and the tracemalloc
memory pass.

The last line of stdout is the result JSON; the line before it holds the
full record with the environment. Both are also written to
``.perfbench/result-<workload>-trace<n>.json``. The exit code is 0 only when
every output check passed; 2 means the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("sweep", "config-mix")
WORKER_TIMEOUT_S = 170

# environment of every child process: BLAS/OpenMP pinned to one thread, fixed hash seed
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"{argv[1:3]} did not finish within {timeout} s") from exc


def run_worker(mode: str, args: argparse.Namespace, workdir: Path) -> dict:
    result_path = workdir / f"{mode}.json"
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--workdir",
        str(workdir / mode),
        "--result",
        str(result_path),
    ]
    if args.tiny:
        argv.append("--tiny")
    proc = run_child(argv, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "povmbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "child_env": PINNED_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def benchmark(args: argparse.Namespace, workdir: Path) -> dict:
    if not (ROOT / "src" / "povmbell" / "cli.py").is_file():
        raise BenchError(f"no povmbell sources under {ROOT / 'src'}")
    record: dict = {"environment": environment(args)}
    if args.trace:
        parts = [run_worker("traced", args, workdir), run_worker("memory", args, workdir)]
        metrics = {k: v for part in parts for k, v in part["metrics"].items()}
    else:
        parts = [run_worker("timed", args, workdir)]
        metrics = parts[0]["metrics"]
    record["details"] = {k: v for part in parts for k, v in part.get("details", {}).items()}
    record["failures"] = [f for part in parts for f in part["failures"]]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="povmbell benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    workdir = OUT / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        record = benchmark(args, workdir)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = record["result"]
    name = f"result-{args.workload}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
