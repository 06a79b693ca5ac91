"""Command-line front end: JSON experiment configs in, CSV or JSON tables out.

Config files carry angles in degrees; all internal math is radians. Exit
codes: 0 success, 2 malformed config or command line, 3 violated numeric
contract, 4 I/O failure. Floats in CSV output are rendered with 17
significant digits so a round-trip through text loses nothing; JSON output
is the text `json.dumps(..., indent=2)` makes of {"config": ..., "rows": [...]}.

`resolve_spec` reads a config file in one unbuffered binary read and
decodes it as UTF-8, turning each CR LF and then each lone CR into LF as
text mode does, so that every message of `json.loads` names the line and
column a text-mode read would. `spec_from_dict` checks a `gamma_grid` list
whose entries are all floats in [0, 1], and an amplitude list whose entries
are all [re, im] pairs of finite floats, as a whole; any other list is
checked entry by entry, which names the first faulty entry.

The boundary checks end with the spec: `spec_from_dict` checks every field
a config gives. The runners then hand the library's private kernels only
what the library made: the arm kernel `_arm` forms each which-way arm by
`whichway._effect_rows` and certifies the entries by the axiom certificate
`_qubit_certificate`, or else checks the stack by `validate_effect_stack`.
`whichway` and `bell` reduce their arms to numbers and need no class; only
`sample`, which hands its arms to the sampler as a `Povm`, classifies them
too, by `_qubit_class`, or else `_povm_class`, as `validate_povm` does.
Each arm is certified once. `_born` and `_probabilities` give the Born
values and their checked distribution, as `born_values` and
`OutcomeDistribution.from_values` do; `bell._chsh` and
`bell._aspect_correlations` give the CHSH cells. Their labels are the
constants WW_LABELS and QUAD_LABELS, checked once by a test
(`tests/test_derived_povms.py`), not at each call. `resolve_state` checks a
listed state where it normalizes it: `qcore._pure_state` runs the
finiteness and unit-norm checks of `StateDescriptor.pure` on the array
without converting or copying it again.

A runner returns its column names and its rows in batches; `render_csv`
and `render_json` turn one batch into text with one %-format call, and each
batch is written before the next is made. The %-template of a row comes
from a small cache keyed on the cell specs (and the columns, for JSON).
The sweep's `bound` column holds one float: its template is cached with
that column left open, and each batch formats the float into it once,
instead of once a row. Every command but `martens-sweep` has one batch of
one row. The one-row runners form each which-way arm once, by the arm
kernel `_arm`, and reduce it to cells within the call, with no intermediate
records. The "config" block of a JSON table is one %-format of a template
cached per signature: its field names, value kinds and number of amplitude
pairs. JSON cells that are not floats take the text of `_json_text`, which
is json's own for each value. A table on stdout is flushed within the call,
so that a failed write is an i/o error (exit 4). `martens-sweep`
evaluates (by the kernel `infometrics._curve_columns`), formats and writes
its grid SWEEP_CHUNK points at a time. `spec_from_dict` has checked every
grid value and the angle before the first byte is written, and the kernel
checks nothing more, so no check can stop a sweep once it has begun to
write.

A plain command line, a subcommand and then flag-value pairs, each flag one
of --config, --out, --format, --seed, --n spelled out in full, is read by
one flag table, `_FLAGS`, into the Namespace argparse would make of it.
argparse reads every other line: it alone prints help, reads abbreviations
and `--flag=value`, and writes usage errors (`SystemExit(2)`, its message on
stderr).

Subcommands:
  whichway       one which-way measurement: joint distribution, marginals,
                 nonideality matrices, entropy tradeoff
  martens-sweep  entropy tradeoff curve over a grid of transmissivities
  bell           one joint 16-outcome run and its single-run CHSH statistics
  aspect         four-corner pooled CHSH statistics
  sample         seeded Monte Carlo events written to an event-log file (its
                 format is described in `povmbell.sampler`)
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bell import (
    CHSH_PAIRS,
    CHSH_SIGNS,
    QUAD_LABELS,
    _aspect_correlations,
    _chsh,
    _joint_effects,
    _joint_povm,
    singlet_state,
)
from .errors import ConfigError, DomainError, PovmBellError
from .infometrics import _curve_columns, _martens_point, martens_bound
from .measurement import (
    OutcomeDistribution,
    Povm,
    _born,
    _povm_class,
    _probabilities,
    _qubit_certificate,
    _qubit_class,
    validate_effect_stack,
)
from .qcore import (
    ArrayRecord,
    PolarizationAngle,
    StateDescriptor,
    _as_array,
    _of_type,
    _pure_state,
    _trusted,
    as_angle,
)
from .sampler import (
    _MAX_SEED,
    _config_sha256,
    _file_path,
    empirical_frequencies,
    read_event_log,
    sample,
    write_event_log,
)
from .whichway import WW_LABELS, _effect_rows

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
# grid points a martens-sweep evaluates, formats and writes at a time
SWEEP_CHUNK = 4096
# most points a gamma_grid may hold, in either form
_MAX_GRID = 10**7

# the states a config may name, built once: a StateDescriptor is immutable
_NAMED_STATES: dict[str, StateDescriptor] = {
    "H": StateDescriptor.pure((1.0, 0.0)),
    "V": StateDescriptor.pure((0.0, 1.0)),
    "diag": StateDescriptor.pure((2**-0.5, 2**-0.5)),
    "singlet": singlet_state(),
}


@dataclass(frozen=True, eq=False)
class ExperimentSpec(ArrayRecord):
    """Validated, JSON-round-trippable description of one CLI experiment.

    `gamma_grid` is a read-only float64 array (a copy of a caller's), the
    range form already expanded; specs compare by value (see `ArrayRecord`).
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

    def __post_init__(self) -> None:
        if self.gamma_grid is not None:
            self.__dict__["gamma_grid"] = _as_array(self.gamma_grid, np.float64, "gamma grid", frozen=True)


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
_ALL_FIELDS = frozenset(_DEFAULTS)
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
# (kind, experiment) -> the fields a config of it may hold
_ALLOWED = {
    (e, e): frozenset({"kind", *_OPTIONAL_FIELDS, *fields}) for e, (fields, _) in _EXPERIMENTS.items()
}
_ALLOWED.update({("sample", e): _ALLOWED[e, e] | {"experiment"} for e in _SAMPLE_EXPERIMENTS})


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
        number = _as_array(value, float, name)
    except DomainError:  # an int beyond the float range, the one number float() refuses
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
    try:
        if isinstance(value, str):
            return _file_path(value)
    except DomainError:
        pass
    raise ConfigError(name, f"must be a string path, got {value!r}")


def _choice_field(name: str, value: object, dim: int | None = None, *, choices: tuple) -> str:
    if value not in choices:
        raise ConfigError(name, f"must be one of {list(choices)}, got {value!r}")
    return value


def _state_field(name: str, value: object, dim: int) -> str | tuple[tuple[float, float], ...]:
    if isinstance(value, str):
        known_dim = _named_state(value).dim
        if known_dim != dim:
            raise ConfigError(
                name, f"state {value!r} has dimension {known_dim}, this experiment needs {dim}"
            )
        return value
    if isinstance(value, list):
        if len(value) != dim:
            raise ConfigError(name, f"amplitude list must have length {dim}, got {len(value)}")
        # checked whole when every entry is a [re, im] pair of finite floats; any other
        # list goes entry by entry, which names the first faulty entry
        if all(map(_finite_pair, value)):
            amplitudes = [tuple(item) for item in value]
        else:
            amplitudes = []
            for i, item in enumerate(value):
                parts = item if isinstance(item, list) else (item, 0.0)
                if len(parts) != 2:
                    raise ConfigError(name, f"entry {i} must be a number or a [re, im] pair")
                amplitudes.append(tuple(_float_field(name, x, entry=i) for x in parts))
        if not any(re != 0.0 or im != 0.0 for re, im in amplitudes):
            raise ConfigError(name, "amplitude list must not be the zero vector")
        return tuple(amplitudes)
    raise ConfigError(name, "must be a state name or an amplitude list")


def _finite_pair(item: object) -> bool:
    """Whether `item` is a list of two finite floats (NaN and the infinities are not)."""
    return type(item) is list and len(item) == 2 and all(type(x) is float and abs(x) < math.inf for x in item)


def _named_state(name: str) -> StateDescriptor:
    if name not in _NAMED_STATES:
        raise ConfigError("state", f"unknown state name {name!r}; known names: {sorted(_NAMED_STATES)}")
    return _NAMED_STATES[name]


def _grid_field(name: str, value: object, dim: int | None = None) -> np.ndarray:
    if isinstance(value, dict):
        if set(value) != {"start", "stop", "count"}:
            raise ConfigError(name, 'range form needs exactly "start", "stop", "count"')
        start = _float_field("start", value["start"], lo=0.0, hi=1.0)
        stop = _float_field("stop", value["stop"], lo=0.0, hi=1.0)
        count = _int_field("count", value["count"], lo=1, hi=_MAX_GRID)
        grid = _linspace(start, stop, count)
    elif isinstance(value, list):
        if not value:
            raise ConfigError(name, "grid must not be empty")
        if len(value) > _MAX_GRID:
            raise ConfigError(name, f"grid must hold at most {_MAX_GRID} values, got {len(value)}")
        # checked whole when every entry is a float in [0, 1] (NaN fails the test); any
        # other list goes entry by entry, so the first faulty entry is named
        if all(type(g) is float and 0.0 <= g <= 1.0 for g in value):
            return _as_array(value, np.float64, name, frozen=True)
        grid = np.array([_float_field(name, g, lo=0.0, hi=1.0, entry=i) for i, g in enumerate(value)])
    else:
        raise ConfigError(name, "must be a list of values or a start/stop/count object")
    grid.setflags(write=False)
    return grid


def _linspace(start: float, stop: float, count: int) -> np.ndarray:
    """`np.linspace(start, stop, count)` bit for bit, for Python floats and a count >= 1:
    its steps on its arange, without its argument handling."""
    grid = np.arange(count, dtype=np.float64)
    delta, div = stop - start, count - 1
    if div:
        step = delta / div
        if step == 0:  # the step underflows: linspace divides first, then scales
            grid /= div
            grid *= delta
        else:
            grid *= step
    else:
        grid *= delta
    grid += start
    if div:
        grid[-1] = stop
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
    field. The checked fields make the spec without the constructor's copy.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config", "top level must be a JSON object")
    kind = _choice_field("kind", payload.get("kind"), choices=KINDS)
    if not _ALL_FIELDS.issuperset(payload):
        raise ConfigError(min(set(payload) - _ALL_FIELDS), "unknown field")
    kwargs: dict = {"kind": kind}
    experiment, required = kind, ()
    if kind == "sample":
        experiment = _choice_field("experiment", payload.get("experiment"), choices=_SAMPLE_EXPERIMENTS)
        kwargs["experiment"] = experiment
        required = ("n_events", "seed")
    fields, dim = _EXPERIMENTS[experiment]
    allowed = _ALLOWED[kind, experiment]
    if not allowed.issuperset(payload):
        name = min(set(payload) - allowed)
        if kind == "sample" and any(name in _EXPERIMENTS[e][0] for e in _SAMPLE_EXPERIMENTS):
            raise ConfigError(name, f"not a field of a {experiment} sample")
        raise ConfigError(name, f"not a field of experiment kind {kind!r}")
    for name in _OPTIONAL_FIELDS + fields:
        value = payload.get(name, _DEFAULTS[name])
        if value is not None or _DEFAULTS[name] is not None:
            kwargs[name] = _CHECKS[name](name, value, dim)
        elif name in fields or name in required:
            raise ConfigError(name, "required for this experiment kind")
    return _trusted(ExperimentSpec, **{**_DEFAULTS, **kwargs})


def _spec_items(spec: ExperimentSpec) -> list[tuple[str, object]]:
    """(name, value) of the fields of a spec that are set, in declaration order: the order
    in which its constructor, and `spec_from_dict` from _DEFAULTS, fill its __dict__."""
    return [(name, value) for name, value in vars(spec).items() if value is not None]


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """JSON-ready dict; spec_from_dict(spec_to_dict(s)) == s."""
    payload: dict = {}
    for name, value in _spec_items(_of_type(spec, ExperimentSpec, "spec")):
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
    unchanged, bit for bit. Any other payload raises ConfigError, as do
    amplitudes that are all zero or not all finite.
    """
    if isinstance(state, str):
        descriptor = _named_state(state)
    else:
        try:
            peak = max(max(abs(re), abs(im)) for re, im in state)
            scale = -math.frexp(peak)[1]
            amps = np.array([complex(math.ldexp(re, scale), math.ldexp(im, scale)) for re, im in state])
            norm = float(np.linalg.norm(amps))
        except (TypeError, ValueError, OverflowError):  # no (re, im) pairs of numbers
            norm = math.nan
        if not 0.0 < norm < math.inf:  # or the zero vector, or a NaN or infinite amplitude
            raise ConfigError("state", f"must be a name or finite amplitude pairs, not all zero: {state!r}")
        descriptor = _pure_state(amps / norm)
    if descriptor.dim != expected_dim:
        raise ConfigError(
            "state", f"state has dimension {descriptor.dim}, this experiment needs {expected_dim}"
        )
    return descriptor


def _slug(label: str) -> str:
    return label.replace("+", "p").replace("-", "m").replace(",", "_").replace("'", "p")


# the probability columns of each label set, in label order, and the correlation columns in
# CHSH_PAIRS order
_P_COLUMNS = {labels: [f"p_{_slug(label)}" for label in labels] for labels in (WW_LABELS, QUAD_LABELS)}
_FREQ_COLUMNS = {labels: [f"freq_{_slug(label)}" for label in labels] for labels in (WW_LABELS, QUAD_LABELS)}
_E_COLUMNS = tuple(f"E_{_slug(f'{a},{b}')}" for a, b in CHSH_PAIRS)


def _state_text(state: str | tuple[tuple[float, float], ...]) -> str:
    if isinstance(state, str):
        return state
    # the text json.dumps writes of finite floats, with separators (",", ":")
    return "[" + ",".join(f"[{re!r},{im!r}]" for re, im in state) + "]"


def _arm(
    gamma: float, theta_deg: float, theta_prime_deg: float, *, classify: bool = False
) -> tuple[np.ndarray, type[Povm] | None, PolarizationAngle, PolarizationAngle]:
    """The which-way arm of a checked spec: its frozen effect stack, its class (None unless
    `classify`) and its two angles, each made once. The complex entries
    `whichway._effect_rows` forms are certified by the axiom certificate `_qubit_certificate`
    before they become one array; where it does not answer, `validate_effect_stack` checks
    the stack, and raises. The one-row runners need no class. With `classify`, the arm is
    certified and classified as `validate_povm` does it, by `_qubit_class`, or else by
    `_povm_class`, which raises; each arm is certified once either way."""
    theta, theta_prime = as_angle(math.radians(theta_deg)), as_angle(math.radians(theta_prime_deg))
    rows = _effect_rows(gamma, theta, theta_prime)
    # one flat list and a reshape: numpy need not discover the shape of the nested lists
    entries = [z for effect in rows for line in effect for z in line]
    stack = np.array(entries, dtype=complex).reshape(4, 2, 2)
    stack.setflags(write=False)
    if classify:
        return stack, _qubit_class(rows) or _povm_class(stack, WW_LABELS), theta, theta_prime
    if not _qubit_certificate(rows):
        validate_effect_stack(stack, WW_LABELS)
    return stack, None, theta, theta_prime


def _arm_povm(gamma: float, theta_deg: float, theta_prime_deg: float) -> Povm:
    """The arm of `_arm`, classified, as the checked Povm that `sample` takes."""
    stack, cls, _, _ = _arm(gamma, theta_deg, theta_prime_deg, classify=True)
    return _trusted(cls, stack=stack, labels=WW_LABELS)


# A runner returns a table: its column names and an iterable of row batches.
# A batch is a sequence of rows, each a tuple of cells in column order, or a
# 2-D float array with one row per table row. The sweep's table adds the
# index of its `bound` column, which holds one float in every row, so that
# float is formatted once a batch (see `_batch`).
Table = tuple[tuple[str, ...], Iterable] | tuple[tuple[str, ...], Iterable, int]


def _one_row(row: dict) -> Table:
    """The table of a one-row command: one batch holding the row's cells."""
    return tuple(row), [[tuple(row.values())]]


def _config_cells(spec: ExperimentSpec) -> dict:
    """The first cells of a one-row table: the fields of the command's _EXPERIMENTS row, in order."""
    return {
        name: _state_text(spec.state) if name == "state" else getattr(spec, name)
        for name in _EXPERIMENTS[spec.kind][0]
    }


def _chsh_cells(values: list[float]) -> dict:
    """The trailing cells of a bell or aspect row: its four correlations, in CHSH_PAIRS
    order, and their CHSH values by the kernel `bell._chsh`."""
    cells = dict(zip(_E_COLUMNS, values))
    cells["s_value"], cells["violates"], cells["s_symmetric_max"] = _chsh(values)
    return cells


def run_whichway(spec: ExperimentSpec) -> Table:
    """The cells `joint_distribution`, `marginals_from_distribution`, `marginals_and_nonideality`
    and `martens_check` give, by their kernels on the one checked arm, with no record between."""
    stack, _, theta, theta_prime = _arm(spec.gamma, spec.theta_deg, spec.theta_prime_deg)
    probs = _probabilities(_born(resolve_state(spec.state, 2), stack, WW_LABELS)).tolist()
    pp, pm, mp, mm = probs
    row, gamma = _config_cells(spec), spec.gamma
    row.update(zip(_P_COLUMNS[WW_LABELS], probs))
    row.update(marg_d_plus=pp + pm, marg_d_minus=mp + mm, marg_dprime_plus=pp + mp, marg_dprime_minus=pm + mm)
    # lambda = [[gamma, 0], [1 - gamma, 1]] and mu = [[1 - gamma, 0], [gamma, 1]], row by row
    row.update(lambda_00=gamma, lambda_01=0.0, lambda_10=1.0 - gamma, lambda_11=1.0)
    row.update(mu_00=1.0 - gamma, mu_01=0.0, mu_10=gamma, mu_11=1.0)
    martens = ("j_lambda", "j_mu", "martens_bound", "martens_slack", "martens_satisfied")
    row.update(zip(martens, _martens_point(gamma, theta, theta_prime)))
    return _one_row(row)


# the reference axis of a sweep's bound, made once
_ANGLE_0 = as_angle(0.0)


def run_martens_sweep(spec: ExperimentSpec) -> Table:
    """The tradeoff curve in batches of SWEEP_CHUNK rows, each chunk's `_curve_columns` made when
    read; its column 3, `bound`, holds one float."""
    grid, bound = spec.gamma_grid, martens_bound(math.radians(spec.delta_deg), _ANGLE_0)
    pieces = (grid[start : start + SWEEP_CHUNK] for start in range(0, grid.size, SWEEP_CHUNK))
    batches = (_curve_columns(piece, bound).T for piece in pieces)
    return ("gamma", "j_lambda", "j_mu", "bound", "slack"), batches, 3


def run_bell(spec: ExperimentSpec) -> Table:
    """The row of one joint run: the Born values of the two checked arms' tensor
    product, and their CHSH statistics, as `chsh_single_run` gives them."""
    state = resolve_state(spec.state, 4)
    arm1 = _arm(spec.gamma1, spec.theta1_deg, spec.theta1_prime_deg)[0]
    arm2 = _arm(spec.gamma2, spec.theta2_deg, spec.theta2_prime_deg)[0]
    probs = _probabilities(_born(state, _joint_effects(arm1[None], arm2[None])[0], QUAD_LABELS))
    row = _config_cells(spec)
    row.update(zip(_P_COLUMNS[QUAD_LABELS], probs.tolist()))
    row.update(_chsh_cells((probs @ CHSH_SIGNS).tolist()))
    return _one_row(row)


def run_aspect(spec: ExperimentSpec) -> Table:
    """The row of the four pooled runs, as `chsh_aspect` gives them."""
    state = resolve_state(spec.state, 4)
    angles = [as_angle(math.radians(getattr(spec, name))) for name in _BELL_ANGLES]
    return _one_row({**_config_cells(spec), **_chsh_cells(_aspect_correlations(state, angles))})


def run_sample(spec: ExperimentSpec) -> Table:
    if spec.out is None:
        raise ConfigError("out", "sample needs an output path for the event log")
    if spec.experiment == "whichway":
        povm = _arm_povm(spec.gamma, spec.theta_deg, spec.theta_prime_deg)
        state = resolve_state(spec.state, 2)
    else:
        state = resolve_state(spec.state, 4)
        arm1 = _arm_povm(spec.gamma1, spec.theta1_deg, spec.theta1_prime_deg)
        povm = _joint_povm(arm1, _arm_povm(spec.gamma2, spec.theta2_deg, spec.theta2_prime_deg))
    payload = spec_to_dict(spec)
    payload.pop("out", None)  # presentation only, must not change log bytes
    payload.pop("format", None)
    descriptor = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # the Born distribution of the checked stack, by the kernels, in the order of its constant labels
    analytic = _probabilities(_born(state, povm.stack, povm.labels))
    distribution = _trusted(OutcomeDistribution, labels=povm.labels, probs=analytic)
    log = sample(
        povm, state, spec.n_events, spec.seed, config_descriptor=descriptor, distribution=distribution
    )
    write_event_log(log, spec.out)
    # the frequencies and the Born probabilities in the order of povm.labels
    freqs, probs = list(empirical_frequencies(log).values()), analytic.tolist()
    row: dict = {
        "experiment": spec.experiment,
        "n_events": log.count,
        "seed": log.seed,
        "generator": log.generator,
        "config_sha256": _config_sha256(descriptor),
        "log_path": spec.out,
    }
    row.update(zip(_FREQ_COLUMNS[povm.labels], freqs))
    row.update(zip(_P_COLUMNS[povm.labels], probs))
    row["max_abs_deviation"] = max(abs(f - p) for f, p in zip(freqs, probs)) if log.count else None
    if spec.experiment == "bell":
        row["s_analytic"] = _chsh((analytic @ CHSH_SIGNS).tolist())[0]
        row["s_empirical"] = None
        if log.count:
            # the frequencies as a distribution, as empirical_chsh forms them
            empirical = _probabilities(np.array(freqs))
            row["s_empirical"] = _chsh((empirical @ CHSH_SIGNS).tolist())[0]
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


def _batch(
    rows: Sequence,
    float_spec: str,
    text: Callable[[object], str],
    columns: tuple[str, ...] | None = None,
    constant: int | None = None,
) -> tuple[str, tuple]:
    """The %-template of one row of a batch and the batch's cells in row order, for one %-format.

    Float cells are formatted by `float_spec`; every other cell is made text
    by `text` and goes under "%s". A float array holds float cells only;
    in a sequence of rows, every row has the cell types of the first. The
    template is `_row_template`'s, of `columns` if given. A `constant` column
    (an index) holds the same float in every row: the first row's is
    formatted once into the template, and the column's cells are left out.
    """
    if isinstance(rows, np.ndarray):
        specs, cells = (float_spec,) * rows.shape[1], rows.ravel().tolist()
    else:
        floats = [isinstance(cell, float) for cell in rows[0]]
        specs = tuple([float_spec if is_float else "%s" for is_float in floats])
        cells = [cell if is_float else text(cell) for row in rows for cell, is_float in zip(row, floats)]
    template = _row_template(specs, columns, constant)
    if constant is not None:
        template %= (specs[constant] % cells[constant]).replace("%", "%%")
        del cells[constant :: len(specs)]
    return template, tuple(cells)


@functools.lru_cache(maxsize=64)
def _row_template(specs: tuple[str, ...], columns: tuple[str, ...] | None, constant: int | None) -> str:
    """The %-template of one row: its specs as a CSV line, or, given the
    columns, as one object of a JSON "rows" list. With a `constant` column,
    a template of that template: the column's spec is "%s", for its one
    text, and every other "%" is doubled."""
    if constant is not None:
        specs = tuple("%s" if i == constant else spec.replace("%", "%%") for i, spec in enumerate(specs))
    if columns is None:
        return ",".join(specs) + "\n"
    # column names are identifiers, which JSON writes between plain quotes
    fields = ",\n".join(f'      "{name}": {spec}' for name, spec in zip(columns, specs))
    return "    {\n" + fields + "\n    }"


@functools.lru_cache(maxsize=64)
def _csv_header(columns: tuple[str, ...]) -> str:
    """The header line of a CSV table of `columns`."""
    return ",".join(columns) + "\n"


def render_csv(rows: Sequence, constant: int | None = None) -> str:
    """The CSV lines of a batch of rows, made by one %-format call.

    Floats get 17 significant digits ("%.17g", the same text as
    format(x, ".17g")), so a round trip through text loses nothing; the
    lines are those `csv.writer` with lineterminator "\n" writes.
    """
    template, cells = _batch(rows, "%.17g", _csv_cell, None, constant)
    return (template * len(rows)) % cells


def _json_text(value: object) -> str:
    """The text `json.dumps` writes of a value that is not a float: the constants of None,
    True and False, a str by `encode_basestring_ascii` (the function json.dumps applies to
    one) and an int by its repr, as json.dumps writes each; anything else by json.dumps."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def render_json(columns: tuple[str, ...], rows: Sequence, constant: int | None = None) -> str:
    """A batch of rows as the objects of the "rows" list of a JSON table, joined by ",\n".

    The text `json.dumps(..., indent=2)` makes of them, by one %-format
    call: floats by "%r", the float repr that json writes, other cells by
    `_json_text`.
    """
    template, cells = _batch(rows, "%r", _json_text, columns, constant)
    return ",\n".join([template] * len(rows)) % cells


def _json_head(spec: ExperimentSpec) -> Iterator[str]:
    """The opening of a JSON table through its "config" block, in pieces.

    The block holds `spec_to_dict(spec)`, as `json.dumps(..., indent=2)`
    nests it, made by one %-format of the cached template of its signature
    (see `_head_template`), its strings by `_json_text`; a grid is written
    SWEEP_CHUNK values at a time, between the parts of the template before
    and after it.
    """
    signature, cells, grid = [], [], None
    for name, value in _spec_items(spec):
        if type(value) is float and math.isfinite(value) or type(value) is int:
            # the text json.dumps writes for an int or a finite float
            signature.append((name, "%r"))
            cells.append(value)
        elif isinstance(value, tuple):
            # a state's amplitude pairs, each float as json's indented (pure-Python) encoder writes it
            signature.append((name, len(value)))
            cells += [part for pair in value for part in pair]
        elif name == "gamma_grid":
            signature.append((name, None))
            grid, split = value, len(cells)
        else:
            # a string, as json writes one whether it indents or not
            signature.append((name, "%s"))
            cells.append(_json_text(value))
    before, after = _head_template(tuple(signature))
    if grid is None:
        yield before % tuple(cells)
        return
    yield before % tuple(cells[:split])
    for start in range(0, len(grid), SWEEP_CHUNK):
        values = grid[start : start + SWEEP_CHUNK].tolist()
        yield (",\n" if start else "") + "      " + ",\n      ".join(map(repr, values))
    yield after % tuple(cells[split:])


@functools.lru_cache(maxsize=64)
def _head_template(signature: tuple) -> tuple[str, str]:
    """The %-template of a JSON "config" block whose fields have `signature`, (name, kind)
    each: the kind "%r" for a number, "%s" for the text `_json_text` made, the number of
    pairs of an amplitude list, or None for the grid. With a grid, the parts before and
    after its values; else the block and ""."""
    parts, lines = [], ['{\n  "config": {\n']
    for i, (name, kind) in enumerate(signature):
        end = ",\n" if i + 1 < len(signature) else "\n"
        if kind is None:
            parts.append("".join(lines) + f'    "{name}": [\n')
            lines = ["\n    ]" + end]
        elif type(kind) is int:
            pairs = ",\n".join(["      [\n        %r,\n        %r\n      ]"] * kind)
            lines.append(f'    "{name}": [\n' + pairs + "\n    ]" + end)
        else:
            lines.append(f'    "{name}": {kind}' + end)
    lines.append("  },\n")
    parts.append("".join(lines))
    return (*parts, "") if len(parts) == 1 else tuple(parts)


def _table_text(
    spec: ExperimentSpec, columns: tuple[str, ...], batches: Iterable, constant: int | None = None
) -> Iterator[str]:
    """The text of a table in pieces: the frame of its format, and one piece per batch."""
    if spec.format == "csv":
        yield _csv_header(columns)
        for rows in batches:
            yield render_csv(rows, constant)
        return
    yield from _json_head(spec)
    yield '  "rows": [\n'
    separator = ""
    for rows in batches:
        yield separator + render_json(columns, rows, constant)
        separator = ",\n"
    yield "\n  ]\n}\n"


def _emit(spec: ExperimentSpec, table: Table) -> None:
    """Write a table piece by piece, each batch before the next is made."""
    text = _table_text(spec, *table)
    # the sample command's --out is claimed by the event log; its summary
    # always goes to stdout
    destination = None if spec.kind == "sample" else spec.out
    if destination is None:
        try:
            sys.stdout.writelines(text)
            # flushed here, so that a failed write is this call's i/o error
            sys.stdout.flush()
        except OSError:
            _drop_stdout()
            raise
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.writelines(text)


def _drop_stdout() -> None:
    """Point the file descriptor of a standard output whose write failed at the null
    device, so that the interpreter's flush at exit writes what is still buffered there
    instead of failing on it again (which prints a second error and exits 120)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):  # a stream with no descriptor is left as it is
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


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


# main builds its parser on the first command line the flag table leaves to
# argparse and reuses it: parse_args leaves a parser unchanged
_main_parser = functools.cache(build_parser)


def _ascii_int(value: str) -> int | None:
    """The int argparse's `type=int` makes of ASCII digits; None for any other value."""
    if value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    return None


# flag -> (its Namespace field, its converter), as build_parser declares
# them; a converter returns the value argparse stores, or None for a value
# it leaves to argparse
_FLAGS: dict[str, tuple[str, Callable[[str], object]]] = {
    "--config": ("config", str),
    "--out": ("out", str),
    "--format": ("format", lambda value: value if value in _FORMATS else None),
    "--seed": ("seed", _ascii_int),
    "--n": ("n", _ascii_int),
}
_UNSET_FLAGS = {name: None for name, _ in _FLAGS.values()}


def _fast_args(argv: list) -> argparse.Namespace | None:
    """The Namespace argparse makes of a plain command line; None for any other line.

    A plain line is a command of _COMMANDS, then flag-value pairs: each flag
    spelled as in _FLAGS, each value a str that does not start with "-" and
    that the flag's converter takes, `--config` among them. A repeated flag
    keeps its last value, as in argparse. Every other line (help,
    abbreviations, `--flag=value`, usage errors) is left to argparse.
    """
    if len(argv) % 2 == 0 or not all(type(token) is str for token in argv) or argv[0] not in _COMMANDS:
        return None
    fields = {"command": argv[0], **_UNSET_FLAGS}
    for flag, value in zip(argv[1::2], argv[2::2]):
        entry = _FLAGS.get(flag)
        if entry is None or value.startswith("-"):
            return None
        name, convert = entry
        converted = convert(value)
        if converted is None:
            return None
        fields[name] = converted
    if fields["config"] is None:
        return None
    return argparse.Namespace(**fields)


def _config_text(path: str) -> str:
    """The text of a config file as `open(path, encoding="utf-8").read()` gives it, by one
    unbuffered read: UTF-8, with "\\r\\n" and then each lone "\\r" read as "\\n"."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.readall().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    try:
        payload = json.loads(_config_text(args.config))
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
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
    except TypeError:
        _main_parser().error(f"the command line must be a sequence of strings, got {type(argv).__name__}")
    args = _fast_args(argv)
    if args is None:
        for token in argv:
            if not isinstance(token, str):
                _main_parser().error(f"command-line arguments must be strings, got {type(token).__name__}")
        args = _main_parser().parse_args(argv)
    try:
        spec = resolve_spec(args)
        _emit(spec, _RUNNERS[spec.kind](spec))
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
