"""Command-line front end: JSON experiment configs in, CSV or JSON tables out.

Config files carry angles in degrees; all internal math is radians. Exit
codes: 0 success, 2 malformed config, 3 violated numeric contract, 4 I/O
failure. Floats in CSV output are rendered with 17 significant digits so a
round-trip through text loses nothing; JSON output is the text
`json.dumps(..., indent=2)` makes of {"config": ..., "rows": [...]}.

A runner returns its column names and its rows in batches; `render_csv` and
`render_json` turn one batch into text with one %-format call, and each
batch is written before the next is made. Every command but `martens-sweep`
has one batch of one row. `martens-sweep` evaluates, formats and writes its
grid SWEEP_CHUNK points at a time. `spec_from_dict` has checked every grid
value and the angle before the first byte is written, and the tradeoff is a
closed form of them that checks nothing more, so no check can stop a sweep
once it has begun to write.

Subcommands:
  whichway       one which-way measurement: joint distribution, marginals,
                 nonideality matrices, entropy tradeoff
  martens-sweep  entropy tradeoff curve over a grid of transmissivities
  bell           one joint 16-outcome run and its single-run CHSH statistics
  aspect         four-corner pooled CHSH statistics
  sample         seeded Monte Carlo events written to an event-log file
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .bell import (
    BellConfig,
    ChshReport,
    QuadrivariateBell,
    build_bell,
    chsh_aspect,
    chsh_report_from_distribution,
    quad_distribution,
    singlet_state,
)
from .errors import ConfigError, DomainError, PovmBellError
from .infometrics import MartensCurve, martens_check, martens_sweep
from .measurement import OutcomeDistribution, born_probabilities
from .qcore import ArrayRecord, StateDescriptor
from .sampler import (
    LOG_CHUNK,
    EventLog,
    check_label_set,
    empirical_frequencies,
    index_dtype,
    sample,
)
from .whichway import (
    BivariateWhichWay,
    WhichWayConfig,
    build_whichway,
    joint_distribution,
    marginals_and_nonideality,
    marginals_from_distribution,
)

__all__ = [
    "KINDS",
    "ExperimentSpec",
    "spec_from_dict",
    "spec_to_dict",
    "resolve_state",
    "write_event_log",
    "read_event_log",
    "main",
]

_SAMPLE_EXPERIMENTS = ("whichway", "bell")
_FORMATS = ("csv", "json")
_MAX_SEED = 2**64 - 1
# grid points a martens-sweep evaluates, formats and writes at a time
SWEEP_CHUNK = 4096
# most points a gamma_grid may hold, in either form
_MAX_GRID = 10**7

_NAMED_STATES: dict[str, tuple[float, ...]] = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "diag": (2**-0.5, 2**-0.5),
}


@dataclass(frozen=True, eq=False)
class ExperimentSpec(ArrayRecord):
    """Validated, JSON-round-trippable description of one CLI experiment.

    `gamma_grid` is a read-only float64 array, the range form already
    expanded; specs compare by value (see `ArrayRecord`).
    """

    kind: str
    gamma: float | None = None
    theta_deg: float | None = None
    theta_prime_deg: float | None = None
    gamma1: float | None = None
    gamma2: float | None = None
    theta1_deg: float | None = None
    theta1_prime_deg: float | None = None
    theta2_deg: float | None = None
    theta2_prime_deg: float | None = None
    delta_deg: float | None = None
    gamma_grid: np.ndarray | None = None
    state: str | tuple[tuple[float, float], ...] | None = None
    experiment: str | None = None
    n_events: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"


_ALL_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
# fields every kind accepts; a sample needs its seed and n_events
_OPTIONAL_FIELDS = ("out", "format", "n_events", "seed")
_BELL_ANGLES = ("theta1_deg", "theta1_prime_deg", "theta2_deg", "theta2_prime_deg")
# experiment -> (its required fields in the order they are checked, its
# state dimension); a sample config uses the row of its experiment
_EXPERIMENTS: dict[str, tuple[tuple[str, ...], int | None]] = {
    "whichway": (("gamma", "theta_deg", "theta_prime_deg", "state"), 2),
    "sweep-martens": (("delta_deg", "gamma_grid"), None),
    "bell": (("gamma1", "gamma2", *_BELL_ANGLES, "state"), 4),
    "aspect": ((*_BELL_ANGLES, "state"), 4),
}


def _float_field(
    name: str,
    value: object,
    dim: int | None = None,
    *,
    lo: float | None = None,
    hi: float | None = None,
    entry: int | None = None,
) -> float:
    """The one number check: a JSON number that is finite as a float, in [lo, hi] if given.

    `entry`, the index of the value in a list field, prefixes the message.
    """
    where = "" if entry is None else f"entry {entry} "
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(name, f"{where}must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(name, f"{where}is an integer too large in magnitude for a float") from None
    if not math.isfinite(number):
        raise ConfigError(name, f"{where}must be finite")
    if lo is not None and not lo <= number <= hi:
        raise ConfigError(name, f"{where}must lie in [{lo}, {hi}], got {number!r}")
    return number


def _int_field(name: str, value: object, dim: int | None = None, *, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ConfigError(name, f"must lie in [{lo}, {hi}], got {value!r}")
    return value


def _out_field(name: str, value: object, dim: int | None = None) -> str:
    # a path the operating system cannot take would fail as a ValueError at open
    try:
        if isinstance(value, str) and b"\0" not in os.fsencode(value):
            return value
    except UnicodeEncodeError:
        pass
    raise ConfigError(name, f"must be a string path, got {value!r}")


def _choice_field(name: str, value: object, dim: int | None = None, *, choices: tuple) -> str:
    if value not in choices:
        raise ConfigError(name, f"must be one of {list(choices)}, got {value!r}")
    return value


def _state_field(name: str, value: object, dim: int) -> str | tuple[tuple[float, float], ...]:
    if isinstance(value, str):
        if value == "singlet":
            known_dim = 4
        elif value in _NAMED_STATES:
            known_dim = 2
        else:
            names = sorted(_NAMED_STATES) + ["singlet"]
            raise ConfigError(name, f"unknown state name {value!r}; known names: {names}")
        if known_dim != dim:
            raise ConfigError(
                name, f"state {value!r} has dimension {known_dim}, this experiment needs {dim}"
            )
        return value
    if isinstance(value, list):
        if len(value) != dim:
            raise ConfigError(name, f"amplitude list must have length {dim}, got {len(value)}")
        amplitudes: list[tuple[float, float]] = []
        for i, item in enumerate(value):
            parts = item if isinstance(item, list) else (item, 0.0)
            if len(parts) != 2:
                raise ConfigError(name, f"entry {i} must be a number or a [re, im] pair")
            amplitudes.append(tuple(_float_field(name, x, entry=i) for x in parts))
        if not any(re != 0.0 or im != 0.0 for re, im in amplitudes):
            raise ConfigError(name, "amplitude list must not be the zero vector")
        return tuple(amplitudes)
    raise ConfigError(name, "must be a state name or an amplitude list")


def _grid_field(name: str, value: object, dim: int | None = None) -> np.ndarray:
    if isinstance(value, dict):
        if set(value) != {"start", "stop", "count"}:
            raise ConfigError(name, 'range form needs exactly "start", "stop", "count"')
        start = _float_field("start", value["start"], lo=0.0, hi=1.0)
        stop = _float_field("stop", value["stop"], lo=0.0, hi=1.0)
        count = _int_field("count", value["count"], lo=1, hi=_MAX_GRID)
        grid = np.linspace(start, stop, count)
    elif isinstance(value, list):
        if not value:
            raise ConfigError(name, "grid must not be empty")
        if len(value) > _MAX_GRID:
            raise ConfigError(name, f"grid must hold at most {_MAX_GRID} values, got {len(value)}")
        grid = np.array([_float_field(name, g, lo=0.0, hi=1.0, entry=i) for i, g in enumerate(value)])
    else:
        raise ConfigError(name, "must be a list of values or a start/stop/count object")
    grid.setflags(write=False)
    return grid


# field name -> its check, called as check(name, value, state dimension)
_CHECKS = {
    "out": _out_field,
    "format": functools.partial(_choice_field, choices=_FORMATS),
    "n_events": functools.partial(_int_field, lo=0, hi=10**9),
    "seed": functools.partial(_int_field, lo=0, hi=_MAX_SEED),
    "gamma_grid": _grid_field,
    "state": _state_field,
    **dict.fromkeys(("gamma", "gamma1", "gamma2"), functools.partial(_float_field, lo=0.0, hi=1.0)),
    **dict.fromkeys(("theta_deg", "theta_prime_deg", *_BELL_ANGLES, "delta_deg"), _float_field),
}


def spec_from_dict(payload: object) -> ExperimentSpec:
    """Validate a parsed JSON config into an ExperimentSpec.

    The fields are checked in the order of _OPTIONAL_FIELDS and then of the
    experiment's row in _EXPERIMENTS. A null field counts as absent where
    its default is null. Every error is a ConfigError naming the offending
    field.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config", "top level must be a JSON object")
    kind = _choice_field("kind", payload.get("kind"), choices=KINDS)
    unknown = sorted(set(payload) - _ALL_FIELDS)
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    kwargs: dict = {"kind": kind}
    experiment, required = kind, ()
    if kind == "sample":
        experiment = _choice_field("experiment", payload.get("experiment"), choices=_SAMPLE_EXPERIMENTS)
        kwargs["experiment"] = experiment
        required = ("n_events", "seed")
    fields, dim = _EXPERIMENTS[experiment]
    misplaced = sorted(set(payload) - {*kwargs, *_OPTIONAL_FIELDS, *fields})
    if misplaced:
        name = misplaced[0]
        if kind == "sample" and any(name in _EXPERIMENTS[e][0] for e in _SAMPLE_EXPERIMENTS):
            raise ConfigError(name, f"not a field of a {experiment} sample")
        raise ConfigError(name, f"not a field of experiment kind {kind!r}")
    for name in _OPTIONAL_FIELDS + fields:
        value = payload.get(name, _DEFAULTS[name])
        if value is not None or _DEFAULTS[name] is not None:
            kwargs[name] = _CHECKS[name](name, value, dim)
        elif name in fields or name in required:
            raise ConfigError(name, "required for this experiment kind")
    return ExperimentSpec(**kwargs)


def _spec_items(spec: ExperimentSpec) -> list[tuple[str, object]]:
    """(name, value) of the fields of a spec that are set, in declaration order."""
    items = ((field.name, getattr(spec, field.name)) for field in dataclasses.fields(ExperimentSpec))
    return [(name, value) for name, value in items if value is not None]


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """JSON-ready dict; spec_from_dict(spec_to_dict(s)) == s."""
    payload: dict = {}
    for name, value in _spec_items(spec):
        if name == "state" and not isinstance(value, str):
            value = [[re, im] for re, im in value]
        elif name == "gamma_grid":
            value = np.asarray(value).tolist()
        payload[name] = value
    return payload


def resolve_state(
    state: str | tuple[tuple[float, float], ...],
    expected_dim: int,
) -> StateDescriptor:
    """Turn a config state payload into a normalized StateDescriptor.

    Amplitude lists are first scaled by the power of two that brings their
    largest component into [0.5, 1), so normalization neither underflows
    nor overflows for any finite input. A power-of-two scale is exact, so
    it leaves the normalized state of every list that normalized before
    unchanged, bit for bit.
    """
    if isinstance(state, str):
        descriptor = singlet_state() if state == "singlet" else StateDescriptor.pure(_NAMED_STATES[state])
    else:
        peak = max(max(abs(re), abs(im)) for re, im in state)
        exponent = math.frexp(peak)[1]
        amps = np.array(
            [complex(math.ldexp(re, -exponent), math.ldexp(im, -exponent)) for re, im in state]
        )
        norm = float(np.linalg.norm(amps))
        descriptor = StateDescriptor.pure(amps / norm)
    if descriptor.dim != expected_dim:
        raise ConfigError(
            "state", f"state has dimension {descriptor.dim}, this experiment needs {expected_dim}"
        )
    return descriptor


def _slug(label: str) -> str:
    return label.replace("+", "p").replace("-", "m").replace(",", "_").replace("'", "p")


def _state_text(state: str | tuple[tuple[float, float], ...]) -> str:
    if isinstance(state, str):
        return state
    return json.dumps([[re, im] for re, im in state], separators=(",", ":"))


def _whichway_config(gamma: float, theta_deg: float, theta_prime_deg: float) -> WhichWayConfig:
    return WhichWayConfig(gamma, math.radians(theta_deg), math.radians(theta_prime_deg))


def _whichway_from_spec(spec: ExperimentSpec) -> tuple[BivariateWhichWay, StateDescriptor]:
    config = _whichway_config(spec.gamma, spec.theta_deg, spec.theta_prime_deg)
    return build_whichway(config), resolve_state(spec.state, 2)


def _bell_from_spec(spec: ExperimentSpec) -> QuadrivariateBell:
    state = resolve_state(spec.state, 4)
    config = BellConfig(
        arm1=_whichway_config(spec.gamma1, spec.theta1_deg, spec.theta1_prime_deg),
        arm2=_whichway_config(spec.gamma2, spec.theta2_deg, spec.theta2_prime_deg),
        state=state,
    )
    return build_bell(config)


# A runner returns a table: its column names and an iterable of row batches.
# A batch is a sequence of rows, each a tuple of cells in column order, or a
# 2-D float array with one row per table row.
Table = tuple[list[str], Iterable]


def _one_row(row: dict) -> Table:
    """The table of a one-row command: one batch holding the row's cells."""
    return list(row), [[tuple(row.values())]]


def _config_cells(spec: ExperimentSpec) -> dict:
    """The first cells of a one-row table: the fields of the command's _EXPERIMENTS row, in order."""
    return {
        name: _state_text(spec.state) if name == "state" else getattr(spec, name)
        for name in _EXPERIMENTS[spec.kind][0]
    }


def _chsh_cells(report: ChshReport) -> dict:
    """The trailing cells of a bell or aspect row: its correlations and CHSH values."""
    cells: dict = {f"E_{_slug(key)}": value for key, value in report.correlations.items()}
    cells["s_value"] = report.s_value
    cells["violates"] = report.violates
    cells["s_symmetric_max"] = report.s_symmetric_max
    return cells


def run_whichway(spec: ExperimentSpec) -> Table:
    whichway, state = _whichway_from_spec(spec)
    dist = joint_distribution(whichway, state)
    marg_d, marg_dprime = marginals_from_distribution(dist)
    lam, mu = marginals_and_nonideality(whichway)
    report = martens_check(whichway)
    row = _config_cells(spec)
    for label, p in dist.as_dict().items():
        row[f"p_{_slug(label)}"] = p
    row["marg_d_plus"] = float(marg_d[0])
    row["marg_d_minus"] = float(marg_d[1])
    row["marg_dprime_plus"] = float(marg_dprime[0])
    row["marg_dprime_minus"] = float(marg_dprime[1])
    for name, matrix in (("lambda", lam), ("mu", mu)):
        for i in range(2):
            for j in range(2):
                row[f"{name}_{i}{j}"] = float(matrix.entries[i, j])
    row["j_lambda"] = report.j_lambda
    row["j_mu"] = report.j_mu
    row["martens_bound"] = report.bound
    row["martens_slack"] = report.slack
    row["martens_satisfied"] = report.satisfied
    return _one_row(row)


def run_martens_sweep(spec: ExperimentSpec) -> Table:
    """The tradeoff curve in batches of SWEEP_CHUNK rows, each evaluated when it is read."""
    grid, delta = spec.gamma_grid, math.radians(spec.delta_deg)
    pieces = (grid[start : start + SWEEP_CHUNK] for start in range(0, grid.size, SWEEP_CHUNK))
    batches = (_sweep_rows(piece, martens_sweep(piece, delta, 0.0)) for piece in pieces)
    return ["gamma", "j_lambda", "j_mu", "bound", "slack"], batches


def _sweep_rows(gammas: np.ndarray, curve: MartensCurve) -> np.ndarray:
    """The rows of one chunk of a sweep table, one column a field."""
    rows = np.empty((gammas.size, 5))
    for i, column in enumerate((gammas, curve.j_lambda, curve.j_mu, curve.bound, curve.slack)):
        rows[:, i] = column
    return rows


def run_bell(spec: ExperimentSpec) -> Table:
    bell = _bell_from_spec(spec)
    dist = quad_distribution(bell)
    row = _config_cells(spec)
    for label, p in dist.as_dict().items():
        row[f"p_{_slug(label)}"] = p
    row.update(_chsh_cells(chsh_report_from_distribution(dist)))
    return _one_row(row)


def run_aspect(spec: ExperimentSpec) -> Table:
    state = resolve_state(spec.state, 4)
    report = chsh_aspect(
        state,
        math.radians(spec.theta1_deg),
        math.radians(spec.theta1_prime_deg),
        math.radians(spec.theta2_deg),
        math.radians(spec.theta2_prime_deg),
    )
    return _one_row({**_config_cells(spec), **_chsh_cells(report)})


def run_sample(spec: ExperimentSpec) -> Table:
    if spec.out is None:
        raise ConfigError("out", "sample needs an output path for the event log")
    if spec.experiment == "whichway":
        whichway, state = _whichway_from_spec(spec)
        povm = whichway.povm
    else:
        bell = _bell_from_spec(spec)
        povm = bell.povm
        state = bell.config.state
    payload = spec_to_dict(spec)
    payload.pop("out", None)  # presentation only, must not change log bytes
    payload.pop("format", None)
    descriptor = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    analytic = born_probabilities(state, povm)
    log = sample(
        povm, state, spec.n_events, spec.seed, config_descriptor=descriptor, distribution=analytic
    )
    write_event_log(log, spec.out)
    freqs = empirical_frequencies(log)
    row: dict = {
        "experiment": spec.experiment,
        "n_events": log.count,
        "seed": log.seed,
        "generator": log.generator,
        "config_sha256": hashlib.sha256(descriptor.encode("utf-8")).hexdigest(),
        "log_path": spec.out,
    }
    for label in povm.labels:
        row[f"freq_{_slug(label)}"] = freqs[label]
    for label, p in analytic.as_dict().items():
        row[f"p_{_slug(label)}"] = p
    if log.count:
        row["max_abs_deviation"] = max(abs(freqs[l] - analytic.prob(l)) for l in povm.labels)
    else:
        row["max_abs_deviation"] = None
    if spec.experiment == "bell":
        row["s_analytic"] = chsh_report_from_distribution(analytic).s_value
        row["s_empirical"] = None
        if log.count:
            # the frequencies as a distribution, as empirical_chsh forms them
            empirical = OutcomeDistribution.from_values(
                povm.labels, [freqs[label] for label in povm.labels]
            )
            row["s_empirical"] = chsh_report_from_distribution(empirical).s_value
    return _one_row(row)


# subcommand -> (the experiment kind it runs, its help text, its runner)
_COMMANDS = {
    "whichway": ("whichway", "evaluate one which-way measurement", run_whichway),
    "martens-sweep": (
        "sweep-martens",
        "sweep the entropic tradeoff curve over transmissivities",
        run_martens_sweep,
    ),
    "bell": ("bell", "evaluate one joint four-detector run and its CHSH statistics", run_bell),
    "aspect": ("aspect", "evaluate the four-corner pooled CHSH statistics", run_aspect),
    "sample": ("sample", "generate seeded Monte Carlo events into a log file", run_sample),
}
KINDS = tuple(kind for kind, _, _ in _COMMANDS.values())
# main dispatches on the kind of the validated spec
_RUNNERS = {kind: runner for kind, _, runner in _COMMANDS.values()}


_LOG_VERSION_LINE = "# povmbell event log v1"


def write_event_log(log: EventLog, path: str | Path) -> None:
    """Write an event log: '#'-prefixed metadata header, one label per line.

    The header is written once, then the events LOG_CHUNK at a time, each
    chunk as one string joined from a table of the label lines.
    """
    sha = hashlib.sha256(log.config.encode("utf-8")).hexdigest()
    header = (
        f"{_LOG_VERSION_LINE}\n"
        f"# config={log.config}\n"
        f"# config_sha256={sha}\n"
        f"# generator={log.generator}\n"
        f"# seed={log.seed}\n"
        f"# labels={' '.join(log.label_set)}\n"
        f"# count={log.count}\n"
    )
    lines = np.array([label + "\n" for label in log.label_set], dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for start in range(0, log.count, LOG_CHUNK):
            fh.write("".join(lines[log.indices[start : start + LOG_CHUNK]].tolist()))


def _header_int(header: dict[str, str], key: str) -> int:
    try:
        return int(header[key])
    except ValueError:
        raise ConfigError("log", f"header field {key!r} must be an integer, got {header[key]!r}") from None


def _read_header(fh: BinaryIO) -> tuple[dict[str, str], bytes]:
    """The header fields of an open log, and the first line after the header."""
    version = fh.readline()
    if version.rstrip(b"\n") != _LOG_VERSION_LINE.encode():
        raise ConfigError(
            "log", f"first line must be {_LOG_VERSION_LINE!r}, got {version.decode('utf-8', 'replace')!r}"
        )
    header: dict[str, str] = {}
    line = fh.readline()
    while line.startswith(b"#"):
        try:
            body = line.decode("utf-8").rstrip("\n")[1:].strip()
        except UnicodeDecodeError as exc:
            raise ConfigError("log", f"event log header is not UTF-8 text: {exc}") from None
        if "=" in body:
            key, _, value = body.partition("=")
            header[key.strip()] = value
        line = fh.readline()
    return header, line


def read_event_log(path: str | Path) -> EventLog:
    """Parse a file written by write_event_log back into an EventLog.

    The header ends at the first line that does not start with '#'; every
    later line is one event label, ended by a line break. The events are
    read in blocks of at most about LOG_CHUNK lines that end on a line
    break, and mapped to label indices into an array preallocated from the
    header count.

    Raises ConfigError (field "log") for a file that is not a v1 event log:
    a wrong first line, a header that is not UTF-8, lacks a field, has a
    non-integer seed, a count that is not a nonnegative integer, a label set
    the format cannot hold, or a stored config_sha256 that does not match
    its config; a count the body is too short to hold; a body line that is
    not a label of the set, including a '#' line after the first event; a
    last line without a line break; or a number of events other than the
    count.
    """
    with open(path, "rb") as fh:
        header, first = _read_header(fh)
        for key in ("config", "config_sha256", "generator", "seed", "labels", "count"):
            if key not in header:
                raise ConfigError("log", f"event log is missing header field {key!r}")
        sha = hashlib.sha256(header["config"].encode("utf-8")).hexdigest()
        if header["config_sha256"] != sha:
            raise ConfigError(
                "log", f"stored config_sha256 {header['config_sha256']} does not match the config ({sha})"
            )
        seed = _header_int(header, "seed")
        count = _header_int(header, "count")
        if count < 0:
            raise ConfigError("log", f"header count must be nonnegative, got {count}")
        try:
            label_set = check_label_set(header["labels"].split(" "))
        except DomainError as exc:
            raise ConfigError("log", f"header labels: {exc}") from None
        position = {label.encode("utf-8"): i for i, label in enumerate(label_set)}
        # every event takes at least its shortest label plus a line break
        shortest = min(map(len, position)) + 1
        body_bytes = os.fstat(fh.fileno()).st_size - fh.tell() + len(first)
        if count * shortest > body_bytes:
            raise ConfigError(
                "log", f"header count {count} needs at least {count * shortest} bytes of events, "
                f"the file holds {body_bytes}"
            )
        dtype = index_dtype(len(label_set))
        indices = np.empty(count, dtype=dtype)
        filled = 0
        block = first + fh.read(LOG_CHUNK * shortest)
        while block:
            if not block.endswith(b"\n"):
                block += fh.readline()
            lines = block.split(b"\n")
            if lines.pop():  # the piece after the last line break must be empty
                raise ConfigError("log", "the last event line has no line break: the log is cut short")
            try:
                chunk = np.fromiter(map(position.__getitem__, lines), dtype=dtype, count=len(lines))
            except KeyError as exc:
                line = exc.args[0]
                where = f"event line {filled + lines.index(line) + 1}"
                text = line.decode("utf-8", "replace")
                if line.startswith(b"#"):
                    raise ConfigError("log", f"{where} is a header line {text!r}") from None
                raise ConfigError("log", f"{where} {text!r} is not a label of the set") from None
            del lines  # one block's line objects alive at a time, not two
            if filled + len(chunk) > count:
                raise ConfigError("log", f"header count {count} is less than the number of events")
            indices[filled : filled + len(chunk)] = chunk
            filled += len(chunk)
            block = fh.read(LOG_CHUNK * shortest)
    if filled != count:
        raise ConfigError("log", f"header count {count} does not match {filled} events")
    indices.setflags(write=False)
    return EventLog(
        config=header["config"],
        generator=header["generator"],
        seed=seed,
        label_set=label_set,
        indices=indices,
    )


def _csv_cell(value: object) -> str:
    """The CSV text of a cell that is not a float, quoted as `csv.writer` quotes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    # csv.QUOTE_MINIMAL with lineterminator "\n": a cell holding a comma, a
    # quote or a "\n" is quoted, and its quotes doubled; a lone "\r" is not
    # in the line terminator and is left as it is
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _batch(rows: Sequence, float_spec: str, text: Callable[[object], str]) -> tuple[list[str], tuple]:
    """The %-specs of a batch's columns and its cells in row order, for one %-format.

    Float cells are formatted by `float_spec`; every other cell is made text
    by `text` and goes under "%s". A float array holds float cells only;
    in a sequence of rows, every row has the cell types of the first.
    """
    if isinstance(rows, np.ndarray):
        return [float_spec] * rows.shape[1], tuple(rows.ravel().tolist())
    floats = [isinstance(cell, float) for cell in rows[0]]
    specs = [float_spec if is_float else "%s" for is_float in floats]
    cells = (cell if is_float else text(cell) for row in rows for cell, is_float in zip(row, floats))
    return specs, tuple(cells)


def render_csv(rows: Sequence) -> str:
    """The CSV lines of a batch of rows, made by one %-format call.

    Floats get 17 significant digits ("%.17g", the same text as
    format(x, ".17g")), so a round trip through text loses nothing; the
    lines are those `csv.writer` with lineterminator "\n" writes.
    """
    specs, cells = _batch(rows, "%.17g", _csv_cell)
    return ((",".join(specs) + "\n") * len(rows)) % cells


def render_json(columns: Sequence[str], rows: Sequence) -> str:
    """A batch of rows as the objects of the "rows" list of a JSON table, joined by ",\n".

    The text `json.dumps(..., indent=2)` makes of them, by one %-format
    call: floats by "%r", the float repr that json writes, other cells by
    `json.dumps`.
    """
    specs, cells = _batch(rows, "%r", json.dumps)
    # column names are identifiers, which JSON writes between plain quotes
    fields = ",\n".join(f'      "{name}": {spec}' for name, spec in zip(columns, specs))
    return ",\n".join(["    {\n" + fields + "\n    }"] * len(rows)) % cells


def _json_head(spec: ExperimentSpec) -> Iterator[str]:
    """The opening of a JSON table through its "config" block, in pieces.

    The block holds `spec_to_dict(spec)`, as `json.dumps(..., indent=2)`
    nests it; a grid is written SWEEP_CHUNK values at a time.
    """
    yield '{\n  "config": {\n'
    items = _spec_items(spec)
    for i, (name, value) in enumerate(items):
        end = ",\n" if i + 1 < len(items) else "\n"
        if name == "gamma_grid":
            yield f'    "{name}": [\n'
            for start in range(0, len(value), SWEEP_CHUNK):
                values = value[start : start + SWEEP_CHUNK].tolist()
                yield (",\n" if start else "") + "      " + ",\n      ".join(map(repr, values))
            yield "\n    ]" + end
        else:
            # only the amplitude list of a state spans lines; the other
            # values take json's faster path for unindented text
            text = json.dumps(value, indent=2 if isinstance(value, tuple) else None)
            yield f'    "{name}": ' + text.replace("\n", "\n    ") + end
    yield "  },\n"


def _table_text(spec: ExperimentSpec, columns: list[str], batches: Iterable) -> Iterator[str]:
    """The text of a table in pieces: the frame of its format, and one piece per batch."""
    if spec.format == "csv":
        yield ",".join(columns) + "\n"
        for rows in batches:
            yield render_csv(rows)
        return
    yield from _json_head(spec)
    yield '  "rows": [\n'
    separator = ""
    for rows in batches:
        yield separator + render_json(columns, rows)
        separator = ",\n"
    yield "\n  ]\n}\n"


def _emit(spec: ExperimentSpec, columns: list[str], batches: Iterable) -> None:
    """Write a table piece by piece, each batch before the next is made."""
    text = _table_text(spec, columns, batches)
    # the sample command's --out is claimed by the event log; its summary
    # always goes to stdout
    destination = None if spec.kind == "sample" else spec.out
    if destination is None:
        sys.stdout.writelines(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.writelines(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmbell",
        description="Nonideal joint polarization measurements and generalized Bell experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", help="output path (event log for sample, table otherwise)")
        p.add_argument("--format", choices=_FORMATS, help="table format (default csv)")
        p.add_argument("--seed", type=int, help="override the config's RNG seed")
        p.add_argument("--n", type=int, help="override the config's event count")
    return parser


# main builds its parser on its first call and reuses it: parse_args leaves a
# parser unchanged, and building one costs about a millisecond per call
_main_parser = functools.cache(build_parser)


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {args.config!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # besides malformed JSON: text that is not UTF-8, an integer literal
        # longer than int() converts, or nesting deeper than the parser recurses
        raise ConfigError("config", f"{args.config!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config", "top level must be a JSON object")
    kind = _COMMANDS[args.command][0]
    if "kind" in payload and payload["kind"] != kind:
        raise ConfigError(
            "kind", f"config says {payload['kind']!r} but the subcommand expects {kind!r}"
        )
    flags = {"seed": args.seed, "n_events": args.n, "out": args.out, "format": args.format}
    overrides = {name: value for name, value in flags.items() if value is not None}
    return spec_from_dict({**payload, "kind": kind, **overrides})


def main(argv: Sequence[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        spec = resolve_spec(args)
        columns, batches = _RUNNERS[spec.kind](spec)
        _emit(spec, columns, batches)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PovmBellError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
