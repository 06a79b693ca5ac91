"""Command-line front end: JSON experiment configs in, CSV or JSON tables out.

Config files carry angles in degrees; all internal math is radians. Exit
codes: 0 success, 2 malformed config, 3 violated numeric contract, 4 I/O
failure. Floats in CSV output are rendered with 17 significant digits so a
round-trip through text loses nothing.

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
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bell import (
    BellConfig,
    QuadrivariateBell,
    build_bell,
    chsh_aspect,
    chsh_report_from_distribution,
    quad_distribution,
    singlet_state,
)
from .errors import ConfigError, PovmBellError
from .infometrics import martens_check, martens_sweep
from .measurement import OutcomeDistribution, born_probabilities
from .qcore import DEFAULT_POLICY, StateDescriptor
from .sampler import EventLog, empirical_frequencies, sample
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

KINDS = ("whichway", "sweep-martens", "bell", "aspect", "sample")
_SAMPLE_EXPERIMENTS = ("whichway", "bell")
_FORMATS = ("csv", "json")
_MAX_SEED = 2**64 - 1

_NAMED_STATES: dict[str, tuple[float, ...]] = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "diag": (2**-0.5, 2**-0.5),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated, JSON-round-trippable description of one CLI experiment."""

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
    gamma_grid: tuple[float, ...] | None = None
    state: str | tuple[tuple[float, float], ...] | None = None
    experiment: str | None = None
    n_events: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"


_ALL_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}
_COMMON_FIELDS = {"kind", "out", "format", "seed", "n_events"}
_WHICHWAY_FIELDS = {"gamma", "theta_deg", "theta_prime_deg", "state"}
_BELL_FIELDS = {
    "gamma1",
    "gamma2",
    "theta1_deg",
    "theta1_prime_deg",
    "theta2_deg",
    "theta2_prime_deg",
    "state",
}
_FIELDS_BY_KIND = {
    "whichway": _COMMON_FIELDS | _WHICHWAY_FIELDS,
    "sweep-martens": _COMMON_FIELDS | {"delta_deg", "gamma_grid"},
    "bell": _COMMON_FIELDS | _BELL_FIELDS,
    "aspect": _COMMON_FIELDS | (_BELL_FIELDS - {"gamma1", "gamma2"}),
    "sample": _COMMON_FIELDS | {"experiment"} | _WHICHWAY_FIELDS | _BELL_FIELDS,
}


def _float_field(
    payload: dict,
    name: str,
    *,
    required: bool,
    lo: float | None = None,
    hi: float | None = None,
) -> float | None:
    if payload.get(name) is None:
        if required:
            raise ConfigError(name, "required for this experiment kind")
        return None
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(name, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(name, "must be finite")
    if lo is not None and not lo <= value <= hi:
        raise ConfigError(name, f"must lie in [{lo}, {hi}], got {value!r}")
    return value


def _int_field(
    payload: dict,
    name: str,
    *,
    required: bool,
    lo: int,
    hi: int,
) -> int | None:
    if payload.get(name) is None:
        if required:
            raise ConfigError(name, "required for this experiment kind")
        return None
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ConfigError(name, f"must lie in [{lo}, {hi}], got {value!r}")
    return value


def _state_field(payload: dict, *, dim: int) -> str | tuple[tuple[float, float], ...]:
    if payload.get("state") is None:
        raise ConfigError("state", "required for this experiment kind")
    value = payload["state"]
    if isinstance(value, str):
        if value == "singlet":
            known_dim = 4
        elif value in _NAMED_STATES:
            known_dim = 2
        else:
            names = sorted(_NAMED_STATES) + ["singlet"]
            raise ConfigError("state", f"unknown state name {value!r}; known names: {names}")
        if known_dim != dim:
            raise ConfigError(
                "state", f"state {value!r} has dimension {known_dim}, this experiment needs {dim}"
            )
        return value
    if isinstance(value, list):
        if len(value) != dim:
            raise ConfigError("state", f"amplitude list must have length {dim}, got {len(value)}")
        amplitudes: list[tuple[float, float]] = []
        for i, item in enumerate(value):
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                pair = (float(item), 0.0)
            elif (
                isinstance(item, list)
                and len(item) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
            ):
                pair = (float(item[0]), float(item[1]))
            else:
                raise ConfigError("state", f"entry {i} must be a number or a [re, im] pair")
            if not all(math.isfinite(x) for x in pair):
                raise ConfigError("state", f"entry {i} must be finite")
            amplitudes.append(pair)
        if not any(re != 0.0 or im != 0.0 for re, im in amplitudes):
            raise ConfigError("state", "amplitude list must not be the zero vector")
        return tuple(amplitudes)
    raise ConfigError("state", "must be a state name or an amplitude list")


def _grid_field(payload: dict) -> tuple[float, ...]:
    if payload.get("gamma_grid") is None:
        raise ConfigError("gamma_grid", "required for this experiment kind")
    value = payload["gamma_grid"]
    if isinstance(value, dict):
        if set(value) != {"start", "stop", "count"}:
            raise ConfigError("gamma_grid", 'range form needs exactly "start", "stop", "count"')
        start = _float_field(value, "start", required=True, lo=0.0, hi=1.0)
        stop = _float_field(value, "stop", required=True, lo=0.0, hi=1.0)
        count = _int_field(value, "count", required=True, lo=1, hi=10**7)
        return tuple(float(g) for g in np.linspace(start, stop, count))
    if isinstance(value, list):
        if not value:
            raise ConfigError("gamma_grid", "grid must not be empty")
        grid = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError("gamma_grid", f"entry {i} must be a number")
            g = float(item)
            if not 0.0 <= g <= 1.0:
                raise ConfigError("gamma_grid", f"entry {i} must lie in [0, 1], got {g!r}")
            grid.append(g)
        return tuple(grid)
    raise ConfigError("gamma_grid", "must be a list of values or a start/stop/count object")


def spec_from_dict(payload: object) -> ExperimentSpec:
    """Validate a parsed JSON config into an ExperimentSpec.

    Every error is a ConfigError naming the offending field.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config", "top level must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {list(KINDS)}, got {kind!r}")
    unknown = sorted(set(payload) - _ALL_FIELDS)
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    misplaced = sorted(set(payload) - _FIELDS_BY_KIND[kind])
    if misplaced:
        raise ConfigError(misplaced[0], f"not a field of experiment kind {kind!r}")

    out = payload.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", f"must be a string path, got {out!r}")
    fmt = payload.get("format", "csv")
    if fmt not in _FORMATS:
        raise ConfigError("format", f"must be one of {list(_FORMATS)}, got {fmt!r}")
    kwargs: dict = {
        "kind": kind,
        "out": out,
        "format": fmt,
        "n_events": _int_field(payload, "n_events", required=False, lo=0, hi=10**9),
        "seed": _int_field(payload, "seed", required=False, lo=0, hi=_MAX_SEED),
    }

    def want_whichway(required: bool) -> None:
        kwargs["gamma"] = _float_field(payload, "gamma", required=required, lo=0.0, hi=1.0)
        kwargs["theta_deg"] = _float_field(payload, "theta_deg", required=required)
        kwargs["theta_prime_deg"] = _float_field(payload, "theta_prime_deg", required=required)
        if required or payload.get("state") is not None:
            kwargs["state"] = _state_field(payload, dim=2)

    def want_bell(required: bool, with_gammas: bool) -> None:
        if with_gammas:
            kwargs["gamma1"] = _float_field(payload, "gamma1", required=required, lo=0.0, hi=1.0)
            kwargs["gamma2"] = _float_field(payload, "gamma2", required=required, lo=0.0, hi=1.0)
        for name in ("theta1_deg", "theta1_prime_deg", "theta2_deg", "theta2_prime_deg"):
            kwargs[name] = _float_field(payload, name, required=required)
        if required or payload.get("state") is not None:
            kwargs["state"] = _state_field(payload, dim=4)

    if kind == "whichway":
        want_whichway(required=True)
    elif kind == "sweep-martens":
        kwargs["delta_deg"] = _float_field(payload, "delta_deg", required=True)
        kwargs["gamma_grid"] = _grid_field(payload)
    elif kind == "bell":
        want_bell(required=True, with_gammas=True)
    elif kind == "aspect":
        want_bell(required=True, with_gammas=False)
    else:  # sample
        experiment = payload.get("experiment")
        if experiment not in _SAMPLE_EXPERIMENTS:
            raise ConfigError(
                "experiment", f"must be one of {list(_SAMPLE_EXPERIMENTS)}, got {experiment!r}"
            )
        kwargs["experiment"] = experiment
        kwargs["n_events"] = _int_field(payload, "n_events", required=True, lo=0, hi=10**9)
        kwargs["seed"] = _int_field(payload, "seed", required=True, lo=0, hi=_MAX_SEED)
        if experiment == "whichway":
            stray = sorted(set(payload) & (_BELL_FIELDS - {"state"}))
            if stray:
                raise ConfigError(stray[0], "not a field of a whichway sample")
            want_whichway(required=True)
        else:
            stray = sorted(set(payload) & (_WHICHWAY_FIELDS - {"state"}))
            if stray:
                raise ConfigError(stray[0], "not a field of a bell sample")
            want_bell(required=True, with_gammas=True)
    return ExperimentSpec(**kwargs)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """JSON-ready dict; spec_from_dict(spec_to_dict(s)) == s."""
    payload: dict = {}
    for field in dataclasses.fields(ExperimentSpec):
        value = getattr(spec, field.name)
        if value is None:
            continue
        if field.name == "state" and not isinstance(value, str):
            value = [[re, im] for re, im in value]
        elif field.name == "gamma_grid":
            value = list(value)
        payload[field.name] = value
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


def _whichway_from_spec(spec: ExperimentSpec) -> tuple[BivariateWhichWay, StateDescriptor]:
    config = WhichWayConfig(
        gamma=spec.gamma,
        theta=math.radians(spec.theta_deg),
        theta_prime=math.radians(spec.theta_prime_deg),
    )
    return build_whichway(config), resolve_state(spec.state, 2)


def _bell_from_spec(spec: ExperimentSpec) -> QuadrivariateBell:
    state = resolve_state(spec.state, 4)
    config = BellConfig(
        arm1=WhichWayConfig(
            gamma=spec.gamma1,
            theta=math.radians(spec.theta1_deg),
            theta_prime=math.radians(spec.theta1_prime_deg),
        ),
        arm2=WhichWayConfig(
            gamma=spec.gamma2,
            theta=math.radians(spec.theta2_deg),
            theta_prime=math.radians(spec.theta2_prime_deg),
        ),
        state=state,
    )
    return build_bell(config)


def run_whichway(spec: ExperimentSpec) -> tuple[list[str], list[dict]]:
    whichway, state = _whichway_from_spec(spec)
    dist = joint_distribution(whichway, state)
    marg_d, marg_dprime = marginals_from_distribution(dist)
    lam, mu = marginals_and_nonideality(whichway)
    report = martens_check(whichway)
    row: dict = {
        "gamma": spec.gamma,
        "theta_deg": spec.theta_deg,
        "theta_prime_deg": spec.theta_prime_deg,
        "state": _state_text(spec.state),
    }
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
    return list(row.keys()), [row]


def run_martens_sweep(spec: ExperimentSpec) -> tuple[list[str], list[dict]]:
    curve = martens_sweep(spec.gamma_grid, math.radians(spec.delta_deg), 0.0)
    rows = [
        {"gamma": gamma, "j_lambda": j_lambda, "j_mu": j_mu, "bound": curve.bound, "slack": slack}
        for gamma, j_lambda, j_mu, slack in zip(
            spec.gamma_grid, curve.j_lambda.tolist(), curve.j_mu.tolist(), curve.slack.tolist()
        )
    ]
    return ["gamma", "j_lambda", "j_mu", "bound", "slack"], rows


def run_bell(spec: ExperimentSpec) -> tuple[list[str], list[dict]]:
    bell = _bell_from_spec(spec)
    dist = quad_distribution(bell)
    report = chsh_report_from_distribution(dist)
    row: dict = {
        "gamma1": spec.gamma1,
        "gamma2": spec.gamma2,
        "theta1_deg": spec.theta1_deg,
        "theta1_prime_deg": spec.theta1_prime_deg,
        "theta2_deg": spec.theta2_deg,
        "theta2_prime_deg": spec.theta2_prime_deg,
        "state": _state_text(spec.state),
    }
    for label, p in dist.as_dict().items():
        row[f"p_{_slug(label)}"] = p
    for key, value in report.correlations.items():
        row[f"E_{_slug(key)}"] = value
    row["s_value"] = report.s_value
    row["violates"] = report.violates
    row["s_symmetric_max"] = report.s_symmetric_max
    return list(row.keys()), [row]


def run_aspect(spec: ExperimentSpec) -> tuple[list[str], list[dict]]:
    state = resolve_state(spec.state, 4)
    report = chsh_aspect(
        state,
        math.radians(spec.theta1_deg),
        math.radians(spec.theta1_prime_deg),
        math.radians(spec.theta2_deg),
        math.radians(spec.theta2_prime_deg),
    )
    row: dict = {
        "theta1_deg": spec.theta1_deg,
        "theta1_prime_deg": spec.theta1_prime_deg,
        "theta2_deg": spec.theta2_deg,
        "theta2_prime_deg": spec.theta2_prime_deg,
        "state": _state_text(spec.state),
    }
    for key, value in report.correlations.items():
        row[f"E_{_slug(key)}"] = value
    row["s_value"] = report.s_value
    row["violates"] = report.violates
    row["s_symmetric_max"] = report.s_symmetric_max
    return list(row.keys()), [row]


def run_sample(spec: ExperimentSpec) -> tuple[list[str], list[dict]]:
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
    return list(row.keys()), [row]


_RUNNERS = {
    "whichway": run_whichway,
    "sweep-martens": run_martens_sweep,
    "bell": run_bell,
    "aspect": run_aspect,
    "sample": run_sample,
}


_LOG_VERSION_LINE = "# povmbell event log v1"


def write_event_log(log: EventLog, path: str | Path) -> None:
    """Write an event log: '#'-prefixed metadata header, one label per line."""
    sha = hashlib.sha256(log.config.encode("utf-8")).hexdigest()
    lines = [
        _LOG_VERSION_LINE,
        f"# config={log.config}",
        f"# config_sha256={sha}",
        f"# generator={log.generator}",
        f"# seed={log.seed}",
        f"# labels={' '.join(log.label_set)}",
        f"# count={log.count}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
        for event in log.events:
            fh.write(event + "\n")


def _header_int(header: dict[str, str], key: str) -> int:
    try:
        return int(header[key])
    except ValueError:
        raise ConfigError("log", f"header field {key!r} must be an integer, got {header[key]!r}") from None


def read_event_log(path: str | Path) -> EventLog:
    """Parse a file written by write_event_log back into an EventLog.

    Raises ConfigError for a file that is not UTF-8 text or not a v1 event
    log, lacks a header field, has a non-integer seed or count, a count that
    disagrees with its events, or a stored config_sha256 that does not match
    its config.
    """
    header: dict[str, str] = {}
    events: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            version = fh.readline().rstrip("\n")
            if version != _LOG_VERSION_LINE:
                raise ConfigError(
                    "log", f"first line must be {_LOG_VERSION_LINE!r}, got {version!r}"
                )
            for raw in fh:
                line = raw.rstrip("\n")
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, _, value = body.partition("=")
                        header[key.strip()] = value
                    continue
                if line:
                    events.append(line)
    except UnicodeDecodeError as exc:
        raise ConfigError("log", f"event log is not UTF-8 text: {exc}") from None
    for key in ("config", "config_sha256", "generator", "seed", "labels", "count"):
        if key not in header:
            raise ConfigError("log", f"event log is missing header field {key!r}")
    sha = hashlib.sha256(header["config"].encode("utf-8")).hexdigest()
    if header["config_sha256"] != sha:
        raise ConfigError(
            "log", f"stored config_sha256 {header['config_sha256']} does not match the config ({sha})"
        )
    if _header_int(header, "count") != len(events):
        raise ConfigError(
            "log", f"header count {header['count']} does not match {len(events)} events"
        )
    return EventLog(
        config=header["config"],
        generator=header["generator"],
        seed=_header_int(header, "seed"),
        label_set=tuple(header["labels"].split(" ")),
        events=tuple(events),
    )


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def render_json(spec: ExperimentSpec, rows: list[dict]) -> str:
    clean_rows = []
    for row in rows:
        clean = {}
        for key, value in row.items():
            if isinstance(value, (np.floating,)):
                value = float(value)
            elif isinstance(value, (np.integer,)):
                value = int(value)
            clean[key] = value
        clean_rows.append(clean)
    return json.dumps({"config": spec_to_dict(spec), "rows": clean_rows}, indent=2) + "\n"


def _emit(spec: ExperimentSpec, columns: list[str], rows: list[dict]) -> None:
    text = render_csv(columns, rows) if spec.format == "csv" else render_json(spec, rows)
    # the sample command's --out is claimed by the event log; its summary
    # always goes to stdout
    destination = None if spec.kind == "sample" else spec.out
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


_COMMAND_TO_KIND = {
    "whichway": "whichway",
    "martens-sweep": "sweep-martens",
    "bell": "bell",
    "aspect": "aspect",
    "sample": "sample",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmbell",
        description="Nonideal joint polarization measurements and generalized Bell experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "whichway": "evaluate one which-way measurement",
        "martens-sweep": "sweep the entropic tradeoff curve over transmissivities",
        "bell": "evaluate one joint four-detector run and its CHSH statistics",
        "aspect": "evaluate the four-corner pooled CHSH statistics",
        "sample": "generate seeded Monte Carlo events into a log file",
    }
    for command, help_text in helps.items():
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
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{args.config!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config", "top level must be a JSON object")
    kind = _COMMAND_TO_KIND[args.command]
    if "kind" in payload and payload["kind"] != kind:
        raise ConfigError(
            "kind", f"config says {payload['kind']!r} but the subcommand expects {kind!r}"
        )
    payload = dict(payload)
    payload["kind"] = kind
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.n is not None:
        payload["n_events"] = args.n
    if args.out is not None:
        payload["out"] = args.out
    if args.format is not None:
        payload["format"] = args.format
    return spec_from_dict(payload)


def main(argv: Sequence[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        spec = resolve_spec(args)
        columns, rows = _RUNNERS[spec.kind](spec)
        _emit(spec, columns, rows)
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
