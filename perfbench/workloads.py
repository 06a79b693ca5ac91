"""Seeded inputs for the benchmark workloads.

A workload is a sequence of *passes*. Every pass has the same *layout*: a
fixed list of call slots, each with its kind, its size and its form (output
format, named state or amplitude list, corner transmissivities), in a fixed
order. The layout comes from the workload seed alone. The values in a slot
(angles, gammas, states, the event-log config) come from the seed and the
pass index, so no call in a run repeats the inputs of an earlier one and a
cache keyed on inputs cannot make a repeat cheaper than a first call. Since
sizes, forms and the mix of call kinds never depend on the seed, latency
percentiles and per-pass work counts compare across seeds.

Why each workload exists:

* ``sweep``: ``martens-sweep`` over grids of 2 to 30 transmissivities, range
  and explicit-list form, 100 calls a pass. Time goes to
  ``whichway.marginals_and_nonideality``, ``infometrics`` and 2x2
  ``validate_povm``; no ``bell``, ``sampler`` or event-log work. An op is
  one grid point. Grids stop at 30 points (under 0.1 s a call): on a shared
  machine the speed changes many times a second, and only calls that short
  have repeats that fall wholly in a fast stretch, so that their fastest
  repeat is steady from run to run. The cost of a point does not depend on
  the grid size, so larger grids would add no coverage.
* ``config-mix``: many small ``whichway``, ``bell``, ``aspect`` and ``sample``
  calls with random angles, gammas that include the exact corners 0 and 1,
  named states or amplitude lists, CSV or JSON output. Time goes to per-call
  overhead: parse, validate, render, 4x4 ``validate_povm`` and d=4 Born.
  Each ``sample`` call writes an event log of 20000 events from a config
  pool whose log digests are pinned in ``pinned_logs.json``; the log is read
  back with ``read_event_log`` and summarised with ``empirical_frequencies``
  / ``empirical_chsh`` as part of the op. An op is one CLI call; this is the
  workload with enough calls for tail latency.

There is no separate workload of 1e6-event logs: calls that long, and that
memory-bound, swing by a third between runs on a shared machine whatever
their fastest repeat. The memory pass of the traced run covers logs of 1e6
and 1e7 events instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "config-mix")

# per pass: (grid points, calls), 100 calls in all, so that one pass has 10
# calls beyond its p90; the p50 and p90 calls fall inside a group of equal
# grids, not on the edge between two groups
SWEEP_GRIDS = ((30, 20), (10, 20), (3, 30), (2, 30))
TINY_SWEEP_GRIDS = ((20, 1), (6, 2), (3, 4))

# per pass: (kind, count); corner and format shares are fixed below
CONFIG_MIX = (("bell", 48), ("whichway", 48), ("aspect", 24), ("sample", 6))
TINY_CONFIG_MIX = (("bell", 4), ("whichway", 4), ("aspect", 2), ("sample", 1))

# the `sample` config pool: its configs come from POOL_SEED, its log digests
# are pinned in pinned_logs.json by pin_logs.py
PINNED_LOGS = Path(__file__).with_name("pinned_logs.json")
POOL_SEED = 20070514
POOL_SIZES = {"bell": 384, "whichway": 192}
N_EVENTS = 20_000

CORNERS = (0.0, 1.0)
NAMED_STATES = {"whichway": ("H", "V", "diag"), "bell": ("singlet",), "aspect": ("singlet",)}
DIMENSION = {"whichway": 2, "bell": 4, "aspect": 4}


@dataclass
class Call:
    """One CLI invocation plus what the output checks need to know about it."""

    kind: str
    argv: list[str]
    ops: int
    expect: dict = field(default_factory=dict)


def _write_config(workdir: Path, name: str, payload: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _angle(rng: random.Random) -> float:
    return rng.uniform(-90.0, 270.0)


def _amplitudes(rng: random.Random, dim: int) -> list[list[float]]:
    return [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(dim)]


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def sample_pool() -> list[dict]:
    """The `sample` configs (without `n_events`) whose log digests are pinned."""
    rng = random.Random(POOL_SEED)

    def angle() -> float:
        return round(rng.uniform(0.0, 180.0), 3)

    def amplitudes(dim: int) -> list[list[float]]:
        return [[round(rng.gauss(0.0, 1.0), 6), round(rng.gauss(0.0, 1.0), 6)] for _ in range(dim)]

    entries = []
    for i in range(POOL_SIZES["bell"]):
        entries.append(
            {
                "experiment": "bell",
                "gamma1": round(rng.random(), 4),
                "gamma2": round(rng.random(), 4),
                "theta1_deg": angle(),
                "theta1_prime_deg": angle(),
                "theta2_deg": angle(),
                "theta2_prime_deg": angle(),
                "state": "singlet" if i % 2 == 0 else amplitudes(4),
                "seed": rng.randrange(2**64),
            }
        )
    for i in range(POOL_SIZES["whichway"]):
        entries.append(
            {
                "experiment": "whichway",
                "gamma": round(rng.random(), 4),
                "theta_deg": angle(),
                "theta_prime_deg": angle(),
                "state": ["H", "V", "diag"][i % 3] if i % 2 == 0 else amplitudes(2),
                "seed": rng.randrange(2**64),
            }
        )
    return entries


def pinned_pool() -> dict[str, list[tuple[dict, str]]]:
    """(config, pinned sha256) pairs of the pool, by experiment."""
    pinned = json.loads(PINNED_LOGS.read_text(encoding="utf-8"))
    if pinned["n_events"] != N_EVENTS or pinned["pool_seed"] != POOL_SEED:
        raise ValueError("pinned_logs.json was pinned for another pool; run pin_logs.py")
    configs = sample_pool()
    if len(pinned["sha256"]) != len(configs):
        raise ValueError("pinned_logs.json does not cover the pool; run pin_logs.py")
    pool: dict[str, list[tuple[dict, str]]] = {name: [] for name in POOL_SIZES}
    for config, digest in zip(configs, pinned["sha256"]):
        pool[config["experiment"]].append((config, digest))
    return pool


# --------------------------------------------------------------------- layout


def _sweep_layout(rng: random.Random, tiny: bool) -> list[dict]:
    grids = TINY_SWEEP_GRIDS if tiny else SWEEP_GRIDS
    sizes = [size for size, calls in grids for _ in range(calls)]
    forms = _shuffled(rng, ["range", "list"] * len(sizes))[: len(sizes)]
    return _shuffled(rng, [{"kind": "sweep", "count": c, "form": f} for c, f in zip(sizes, forms)])


def _corner_layout(rng: random.Random, kind: str, count: int) -> list[tuple]:
    """Which gammas of each call sit at an exact corner (a value) or are random (None)."""
    if kind == "whichway":
        corner = count // 6
        return [(0.0,)] * corner + [(1.0,)] * corner + [(None,)] * (count - 2 * corner)
    if kind == "bell":
        # a sixth of the calls have both arms at a corner, a sixth one arm
        both = [(rng.choice(CORNERS), rng.choice(CORNERS)) for _ in range(count // 6)]
        one = [tuple(_shuffled(rng, [rng.choice(CORNERS), None])) for _ in range(count // 6)]
        return both + one + [(None, None)] * (count - len(both) - len(one))
    return [()] * count


def _config_mix_layout(rng: random.Random, tiny: bool) -> list[dict]:
    slots = []
    for kind, count in TINY_CONFIG_MIX if tiny else CONFIG_MIX:
        if kind == "sample":
            # two thirds bell logs, one third whichway logs, numbered per experiment
            n_whichway = count // 3
            experiments = ["bell"] * (count - n_whichway) + ["whichway"] * n_whichway
            slots += [
                {"kind": kind, "experiment": e, "index": experiments[:i].count(e)}
                for i, e in enumerate(experiments)
            ]
            continue
        formats = _shuffled(rng, ["csv"] * (count - count // 2) + ["json"] * (count // 2))
        states = _shuffled(rng, ["named"] * (count // 2) + ["listed"] * (count - count // 2))
        for i, gammas in enumerate(_corner_layout(rng, kind, count)):
            slots.append(
                {
                    "kind": kind,
                    "gammas": gammas,
                    "state": states[i],
                    "format": formats[i],
                    "format_in_config": rng.random() < 0.5,
                    "kind_in_config": rng.random() < 0.5,
                }
            )
    return _shuffled(rng, slots)


# --------------------------------------------------------------------- values


def _sweep_call(rng: random.Random, workdir: Path, name: str, slot: dict) -> Call:
    count = slot["count"]
    delta = rng.uniform(0.0, 90.0)
    if slot["form"] == "range":
        start = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
        stop = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
        grid: object = {"start": start, "stop": stop, "count": count}
        gammas = [float(g) for g in np.linspace(start, stop, count)]
    else:
        gammas = [0.0, 1.0] + [rng.random() for _ in range(count - 2)]
        rng.shuffle(gammas)
        grid = gammas
    path = _write_config(workdir, name, {"delta_deg": delta, "gamma_grid": grid})
    return Call(
        kind="sweep",
        argv=["martens-sweep", "--config", path],
        ops=count,
        expect={"delta_deg": delta, "gammas": gammas},
    )


def _sample_call(workdir: Path, name: str, slot: dict, entry: tuple[dict, str]) -> Call:
    config, digest = entry
    payload = dict(config, n_events=N_EVENTS)
    path = _write_config(workdir, name, payload)
    log_path = str(workdir / f"{name}.log")
    return Call(
        kind="sample",
        argv=["sample", "--config", path, "--out", log_path],
        ops=1,
        expect={
            "experiment": slot["experiment"],
            "n_events": N_EVENTS,
            "log_path": log_path,
            "sha256": digest,
        },
    )


def _mix_call(rng: random.Random, workdir: Path, name: str, slot: dict) -> Call:
    kind = slot["kind"]
    gammas = [rng.random() if g is None else g for g in slot["gammas"]]
    if slot["state"] == "named":
        state: object = rng.choice(NAMED_STATES[kind])
    else:
        state = _amplitudes(rng, DIMENSION[kind])
    if kind == "whichway":
        payload = {
            "gamma": gammas[0],
            "theta_deg": _angle(rng),
            "theta_prime_deg": _angle(rng),
            "state": state,
        }
    else:
        payload = {"gamma1": gammas[0], "gamma2": gammas[1]} if kind == "bell" else {}
        for key in ("theta1_deg", "theta1_prime_deg", "theta2_deg", "theta2_prime_deg"):
            payload[key] = _angle(rng)
        payload["state"] = state
    expect = dict(payload, format=slot["format"])
    argv_format: list[str] = []
    if slot["format"] == "json":
        if slot["format_in_config"]:
            payload["format"] = "json"
        else:
            argv_format = ["--format", "json"]
    if slot["kind_in_config"]:
        payload["kind"] = kind
    path = _write_config(workdir, name, payload)
    return Call(kind=kind, argv=[kind, "--config", path, *argv_format], ops=1, expect=expect)


class Workload:
    """The layout of a workload and the calls of each of its passes."""

    def __init__(self, workload: str, seed: int, tiny: bool, tag: str = "pass") -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.name, self.seed, self.tag = workload, seed, tag
        rng = random.Random(f"{workload}:{seed}")
        if workload == "sweep":
            self.layout = _sweep_layout(rng, tiny)
            return
        self.layout = _config_mix_layout(rng, tiny)
        # each pass takes the next pool entries of a seeded order, so a pool
        # entry repeats only after the whole pool has been used
        self.pool = {name: _shuffled(rng, entries) for name, entries in pinned_pool().items()}
        self.per_pass = {
            name: sum(1 for s in self.layout if s.get("experiment") == name) for name in self.pool
        }

    def calls(self, index: int, workdir: Path) -> list[Call]:
        """Write the configs of pass `index` into `workdir` and describe its calls.

        Every pass writes the same file names, so a pass replaces the last.
        """
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        calls = []
        for i, slot in enumerate(self.layout):
            name = f"{self.tag}-{i}"
            if slot["kind"] == "sweep":
                calls.append(_sweep_call(rng, workdir, name, slot))
            elif slot["kind"] == "sample":
                entries = self.pool[slot["experiment"]]
                k = index * self.per_pass[slot["experiment"]] + slot["index"]
                calls.append(_sample_call(workdir, name, slot, entries[k % len(entries)]))
            else:
                calls.append(_mix_call(rng, workdir, name, slot))
        return calls


def warmup_calls(workload: str, workdir: Path) -> list[Call]:
    """Small untimed calls of every kind the workload makes, to finish lazy set-up."""
    calls = Workload(workload, -1, tiny=True, tag="warm").calls(-1, workdir)
    return calls[:1] if workload == "sweep" else calls
