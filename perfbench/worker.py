"""Benchmark worker: runs one workload in process, or the memory pass.

Started by run.py in a fresh interpreter with BLAS/OpenMP pinned to one
thread, so that its peak RSS is that of this workload alone. It imports
povmbell from the checkout's ``src`` and calls ``povmbell.cli.main(argv)``
in a closed loop: one caller, each call waits for the previous one. It
writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import povmbell.cli as cli  # noqa: E402
from povmbell import sampler  # noqa: E402
from povmbell.bell import BellConfig, build_bell  # noqa: E402
from povmbell.whichway import WhichWayConfig  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402

MAX_FAILURES_REPORTED = 5
SRC = (ROOT / "src").resolve()
SETUP_REPEATS = 20
SETUP_PROBE = (
    "import time, povmbell.cli; "
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), povmbell.cli.__file__)"
)

# fixed calls whose traced work counts are reported as exact per-op counts
PROBE_CONFIGS = {
    "sweep": {"delta_deg": 30.0, "gamma_grid": {"start": 0.0, "stop": 1.0, "count": 5}},
    "whichway": {"gamma": 0.3, "theta_deg": 10.0, "theta_prime_deg": 55.0, "state": "diag"},
    "bell": {
        "gamma1": 0.4,
        "gamma2": 0.7,
        "theta1_deg": 0.0,
        "theta1_prime_deg": 45.0,
        "theta2_deg": 22.5,
        "theta2_prime_deg": 67.5,
        "state": "singlet",
    },
    "aspect": {
        "theta1_deg": 0.0,
        "theta1_prime_deg": 45.0,
        "theta2_deg": 22.5,
        "theta2_prime_deg": 67.5,
        "state": "singlet",
    },
}
WORK_COUNTS = {
    "sweep_point": ("sweep", ("born_probabilities", "validate_povm", "expectation")),
    "bell_call": ("bell", ("quad_distribution",)),
    "aspect_call": ("aspect", ("build_bell", "validate_povm")),
    "whichway_call": ("whichway", ("marginals_and_nonideality", "born_probabilities")),
}

MEMORY_SIZES = {"n1e6": 1_000_000, "n1e7": 10_000_000}
TINY_MEMORY_SIZES = {"n1e6": 1_000, "n1e7": 10_000}


def _qualified(short: str) -> str:
    return next(name for name in FUNCTIONS if name.endswith("." + short))


class Runner:
    """Runs the passes of a workload, checks their outputs and keeps the tallies.

    Besides every call's latency it keeps, for every slot of the pass layout,
    the fastest op time seen over the passes: other tenants of a shared
    machine only ever add time, so the fastest repeat is the steady estimate
    of a slot's cost. Each pass has fresh values, so no repeat is a cache hit.
    """

    def __init__(
        self, workload: workloads.Workload, workdir: Path, tracer: Tracer | None = None
    ) -> None:
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.slot_ops = [0] * len(workload.layout)
        self.best_op = [math.inf] * len(workload.layout)
        self.latencies: list[float] = []
        self.op_seconds = 0.0
        self.ops = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, index: int) -> None:
        """Write the configs of pass `index`, then run its calls one by one."""
        calls = self.workload.calls(index, self.workdir)
        if self.tracer is not None:
            self.tracer.install()
        try:
            for slot, call in enumerate(calls):
                if self.tracer is not None:
                    self.tracer.current_op = len(self.latencies)
                self.slot_ops[slot] = call.ops
                self._run(slot, call)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.passes += 1

    def run_for(self, seconds: float) -> None:
        """Passes 0, 1, 2, ..., at least one, until `seconds` have elapsed."""
        begin = time.perf_counter()
        self.run_pass(0)
        while time.perf_counter() - begin < seconds:
            self.run_pass(self.passes)

    def _run(self, slot: int, call: workloads.Call) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        readback = freqs = chsh = None
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(call.argv)
            returned = time.perf_counter()
            if code == 0 and call.kind == "sample":
                readback = cli.read_event_log(call.expect["log_path"])
                freqs = sampler.empirical_frequencies(readback)
                if call.expect["experiment"] == "bell":
                    chsh = sampler.empirical_chsh(readback)
        except Exception as exc:  # a crash is a failed op, not a benchmark abort
            returned = time.perf_counter()
            code = None
            error = f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        self.latencies.append(returned - start)
        self.best_op[slot] = min(self.best_op[slot], finished - start)
        self.op_seconds += finished - start
        self.ops += call.ops
        if error is None:
            error = self._check(call, code, stdout.getvalue(), stderr.getvalue(), readback, freqs, chsh)
        if error is not None:
            self.failed_ops += call.ops
            if len(self.failures) < MAX_FAILURES_REPORTED:
                self.failures.append(f"{call.argv}: {error}")

    @staticmethod
    def _check(call, code, out, err, readback, freqs, chsh) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        fmt = call.expect.get("format", "csv")
        try:
            rows = checks.parse_table(out, fmt)
            if call.kind == "sample":
                path = Path(call.expect["log_path"])
                log_bytes = path.read_bytes()
                path.unlink()
                rewrite = path.with_suffix(".rewrite")
                checks.check_sample(rows, call.expect, log_bytes, readback, freqs, chsh, rewrite)
            else:
                checks.CHECKS[call.kind](rows, call.expect)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"
        return None

    def best_ops_per_s(self) -> float:
        """Ops of one pass over the summed fastest op times of its slots."""
        return sum(self.slot_ops) / sum(self.best_op)

    def best_window_percentile(self, q: float) -> float:
        """The lowest q-quantile of latency over windows of one pass length.

        A window of as many consecutive calls as a pass has holds each slot
        of the layout once, wherever it starts; windows start at every call.
        """
        n = len(self.workload.layout)
        lat = self.latencies
        return min(_nearest_rank(lat[a : a + n], q) for a in range(len(lat) - n + 1))


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _warm_up(args) -> None:
    runner = Runner(workloads.Workload(args.workload, -1, tiny=True, tag="warm"), args.workdir)
    runner.run_pass(-1)


def _setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until `import povmbell.cli` returns."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import povmbell.cli failed: {proc.stderr.strip()}")
    stamp, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"povmbell imported from {path.strip()}, not from {SRC}")
    return (int(stamp) - start) / 1e9


def timed(args, workload: workloads.Workload) -> dict:
    # set-up probes run back to back, half before and half after the passes,
    # so that one slow stretch of a shared machine does not decide the fastest
    setup_times = [_setup_seconds() for _ in range(SETUP_REPEATS // 2)]
    _warm_up(args)
    runner = Runner(workload, args.workdir)
    runner.run_for(args.seconds)
    setup_times += [_setup_seconds() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    n = len(workload.layout)
    beyond_p90 = n - math.ceil(n * 0.9)
    return {
        "attempted": runner.ops,
        "failed": runner.failed_ops,
        "failures": runner.failures,
        "metrics": {
            "setup_s": min(setup_times),
            "ops_per_s": runner.best_ops_per_s(),
            "call_p50_ms": 1e3 * runner.best_window_percentile(0.5),
            "call_p90_ms": 1e3 * runner.best_window_percentile(0.9),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - runner.failed_ops / runner.ops,
        },
        "details": {
            "passes": runner.passes,
            "calls_per_pass": n,
            "call_p90_calls_beyond_per_pass": beyond_p90,
            "calls": len(runner.latencies),
            "call_p50_ms_all_calls": 1e3 * _nearest_rank(runner.latencies, 0.5),
            "call_p90_ms_all_calls": 1e3 * _nearest_rank(runner.latencies, 0.9),
            "ops": runner.ops,
            "timed_s": runner.op_seconds,
            "ops_per_s_all_passes": runner.ops / runner.op_seconds,
            "fail_ratio": runner.failed_ops / runner.ops,
            "setup_samples_s": setup_times,
        },
    }


def _probe_counts(workdir: Path) -> dict[str, float]:
    """Exact work per op from fixed calls, one op per call (per point for sweeps)."""
    tracer = Tracer()
    counts: dict[str, float] = {}
    tracer.install()
    try:
        for op, (unit, (kind, functions)) in enumerate(WORK_COUNTS.items()):
            payload = PROBE_CONFIGS[kind]
            path = workdir / f"probe-{kind}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            tracer.current_op = op
            with contextlib.redirect_stdout(io.StringIO()):
                command = "martens-sweep" if kind == "sweep" else kind
                code = cli.main([command, "--config", str(path)])
            if code != 0:
                raise RuntimeError(f"probe call {kind} exited {code}")
            ops = payload["gamma_grid"]["count"] if kind == "sweep" else 1
            in_op = tracer.calls_in_op(op)
            for short in functions:
                counts[f"work.{unit}.{short}"] = in_op[_qualified(short)] / ops
    finally:
        tracer.uninstall()
    return counts


def traced(args, workload: workloads.Workload) -> dict:
    _warm_up(args)
    tracer = Tracer()
    runner = Runner(workload, args.workdir, tracer)
    untraced = Runner(workload, args.workdir)
    # traced and untraced passes alternate, so both see the same machine, on
    # distinct pass values; a third of the run time is enough for the per-pass
    # counts, and keeps the run with the memory pass that follows near --seconds
    begin = time.perf_counter()
    while not runner.passes or time.perf_counter() - begin < args.seconds / 3:
        runner.run_pass(2 * runner.passes)
        untraced.run_pass(2 * untraced.passes + 1)
    n_passes = runner.passes

    summary = tracer.summary()
    tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
    metrics: dict[str, float] = {}
    for name, s in summary.items():
        metrics[f"{name}.calls"] = s["calls"] / n_passes
        metrics[f"{name}.self_ms"] = 1e3 * s["self_s"] / n_passes
    ops = runner.ops
    for name in (
        "qcore.expectation",
        "measurement.validate_povm",
        "measurement.born_probabilities",
        "whichway.marginals_and_nonideality",
        "bell.quad_distribution",
    ):
        metrics[f"{name}.per_op"] = summary[name]["calls"] / ops
    validations = summary["measurement.validate_povm"]["calls"]
    metrics["measurement.validate_povm.pvm_share"] = tracer.pvm_results / validations if validations else 0.0

    def rate(amount: float, name: str) -> float:
        seconds = summary[name]["inclusive_s"]
        return amount / seconds if seconds else 0.0

    metrics["sampler.sample.events_per_s"] = rate(tracer.events_sampled, "sampler.sample")
    metrics["cli.write_event_log.mb_per_s"] = rate(tracer.bytes_written / 1e6, "cli.write_event_log")
    metrics["cli.read_event_log.mb_per_s"] = rate(tracer.bytes_read / 1e6, "cli.read_event_log")
    # per pass, from the fastest repeat of every slot with and without tracing
    metrics["trace.overhead_s"] = sum(runner.best_op) - sum(untraced.best_op)
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / sum(untraced.best_op)
    metrics.update(_probe_counts(args.workdir))
    return {
        "attempted": runner.ops + untraced.ops,
        "failed": runner.failed_ops + untraced.failed_ops,
        "failures": runner.failures + untraced.failures,
        "metrics": metrics,
        "details": {
            "passes": n_passes,
            "calls": len(runner.latencies),
            "ops": ops,
            "spans": len(tracer.fid),
            "traced_s": runner.op_seconds,
            "untraced_s": untraced.op_seconds,
        },
    }


def memory(args) -> dict:
    """tracemalloc peaks of `sample` and `read_event_log` on bell logs."""
    bell = build_bell(
        BellConfig(
            arm1=WhichWayConfig(0.4, 0.0, math.pi / 4),
            arm2=WhichWayConfig(0.7, math.pi / 8, 3 * math.pi / 8),
            state=cli.resolve_state("singlet", 4),
        )
    )
    metrics: dict[str, float] = {}
    sizes = TINY_MEMORY_SIZES if args.tiny else MEMORY_SIZES
    log_path = args.workdir / "memory.log"
    failures = []
    sampler.sample(bell.povm, bell.config.state, 10, 7)  # lazy set-up outside the measurement
    for tag, n in sizes.items():
        tracemalloc.start()
        log = sampler.sample(bell.povm, bell.config.state, n, 7)
        metrics[f"sampler.sample.tracemalloc_peak_mb.{tag}"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        cli.write_event_log(log, log_path)
        del log
        tracemalloc.start()
        readback = cli.read_event_log(log_path)
        metrics[f"cli.read_event_log.tracemalloc_peak_mb.{tag}"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        if readback.count != n:
            failures.append(f"memory pass read back {readback.count} of {n} events")
        del readback
        log_path.unlink()
    return {"attempted": len(sizes), "failed": len(failures), "failures": failures, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "memory"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"povmbell imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "memory":
        result = memory(args)
    else:
        workload = workloads.Workload(args.workload, args.seed, args.tiny)
        result = timed(args, workload) if args.mode == "timed" else traced(args, workload)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
