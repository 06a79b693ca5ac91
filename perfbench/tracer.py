"""Span tracing of the povmbell layers, installed from outside the package.

Each timed function is replaced by a wrapper in every ``povmbell.*`` module
namespace that holds it (the modules import each other with ``from .x import
y``, so internal calls go through those names too); classmethods are replaced
on their class. A span records function, start, end, parent span and op id
in flat in-memory arrays, which are written out once at the end.

Layers are the package modules (``errors`` has no functions). The end-to-end
metric each layer should move, and on which workload:

==============  ==========================================================
qcore           ops_per_s on sweep, call_p50_ms on config-mix
measurement     call_p50_ms/call_p90_ms on config-mix, ops_per_s on sweep
whichway        ops_per_s on sweep, call_p50_ms on config-mix
infometrics     ops_per_s on sweep; minor on config-mix
bell            call_p50_ms/call_p90_ms on config-mix; none on sweep
sampler         call_p90_ms on config-mix (its sample calls) and the
                memory pass; none on sweep
cli             call_p50_ms on config-mix (parse, render, log I/O); minor
                on sweep (CSV of the grid)
==============  ==========================================================
"""

from __future__ import annotations

import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

TIMED = {
    "qcore": ("StateDescriptor.pure", "expectation", "projector_from_angle"),
    "measurement": (
        "validate_povm",
        "born_probabilities",
        "OutcomeDistribution.from_values",
        "polarization_pvm",
    ),
    "whichway": ("build_whichway", "measured_marginals", "marginals_and_nonideality"),
    "infometrics": ("martens_check", "martens_bound", "row_entropy"),
    "bell": (
        "build_bell",
        "quad_distribution",
        "correlation_from_distribution",
        "chsh_single_run",
        "chsh_aspect",
    ),
    "sampler": ("sample", "empirical_frequencies", "empirical_chsh"),
    "cli": (
        "spec_from_dict",
        "resolve_state",
        "render_csv",
        "render_json",
        "write_event_log",
        "read_event_log",
    ),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in TIMED.items() for name in names)


def _path_arg(args: tuple, kwargs: dict, position: int) -> str:
    return kwargs["path"] if "path" in kwargs else args[position]


class Tracer:
    """Collects spans for FUNCTIONS while installed."""

    def __init__(self) -> None:
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # counts that need a look at arguments or results
        self.pvm_results = 0
        self.events_sampled = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def _wrap(self, fid: int, fn, name: str):
        fids, parents, ops, starts, ends, stack = (
            self.fid,
            self.parent,
            self.op,
            self.start,
            self.end,
            self._stack,
        )

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if name == "measurement.validate_povm":
                self.pvm_results += type(result).__name__ == "Pvm"
            elif name == "sampler.sample":
                self.events_sampled += result.count
            elif name == "cli.write_event_log":
                self.bytes_written += os.path.getsize(_path_arg(args, kwargs, 1))
            elif name == "cli.read_event_log":
                self.bytes_read += os.path.getsize(_path_arg(args, kwargs, 0))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "povmbell" or n.startswith("povmbell.")]
        for fid, qualified in enumerate(FUNCTIONS):
            module_name, _, attr = qualified.partition(".")
            home = sys.modules[f"povmbell.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self._wrap(fid, original.__func__, qualified))
                setattr(cls, method, wrapped)
                self._restore.append((cls, method, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(fid, original, qualified)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per function."""
        a = self.arrays()
        n_fn = len(FUNCTIONS)
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - child_time
        calls = np.bincount(a["fid"], minlength=n_fn)
        inclusive = np.bincount(a["fid"], weights=duration, minlength=n_fn)
        self_sum = np.bincount(a["fid"], weights=self_time, minlength=n_fn)
        return {
            name: {
                "calls": int(calls[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(self_sum[i]),
            }
            for i, name in enumerate(FUNCTIONS)
        }

    def calls_in_op(self, op: int) -> dict[str, int]:
        a = self.arrays()
        counts = np.bincount(a["fid"][a["op"] == op], minlength=len(FUNCTIONS))
        return {name: int(counts[i]) for i, name in enumerate(FUNCTIONS)}

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(FUNCTIONS), **self.arrays())
