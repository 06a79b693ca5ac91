"""Tests for config parsing, CLI runs, output formats, and exit codes."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_table, write_event_log_per_line
from test_bell import ARM_CORRUPTIONS
from test_derived_povms import EDGE_GAMMAS
from povmbell import (
    LOG_CHUNK,
    ConfigError,
    DomainError,
    EventLog,
    InvariantViolationError,
    cli,
    infometrics,
    sampler,
    whichway,
)
from povmbell.cli import (
    SWEEP_CHUNK,
    ExperimentSpec,
    build_parser,
    main,
    read_event_log,
    resolve_state,
    spec_from_dict,
    spec_to_dict,
    write_event_log,
)
from povmbell.bell import QUAD_LABELS, BellConfig, build_bell, singlet_state
from povmbell.measurement import polarization_pvm, validate_povm
from povmbell.sampler import empirical_chsh, empirical_frequencies, sample
from povmbell.whichway import WW_LABELS, WhichWayConfig
from povmbell.qcore import StateDescriptor

LN2 = math.log(2.0)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no data rows in output: {text!r}"
    return rows


WW_PAYLOAD = {"gamma": 0.5, "theta_deg": 0.0, "theta_prime_deg": 45.0, "state": "H"}
BELL_PAYLOAD = {
    "gamma1": 0.5,
    "gamma2": 0.5,
    "theta1_deg": 0.0,
    "theta1_prime_deg": 45.0,
    "theta2_deg": 22.5,
    "theta2_prime_deg": 67.5,
    "state": "singlet",
}
ASPECT_PAYLOAD = {
    "theta1_deg": 0.0,
    "theta1_prime_deg": 45.0,
    "theta2_deg": 22.5,
    "theta2_prime_deg": 67.5,
    "state": "singlet",
}


SWEEP_PAYLOAD = {"delta_deg": 45.0, "gamma_grid": [0.0, 0.5, 1.0]}

SAMPLE_FIELDS = {"n_events": 10, "seed": 1, "out": "events.log"}
# name -> (subcommand, experiment kind, valid config)
VALID_CONFIGS = {
    "whichway": ("whichway", "whichway", WW_PAYLOAD),
    "sweep-martens": ("martens-sweep", "sweep-martens", SWEEP_PAYLOAD),
    "bell": ("bell", "bell", BELL_PAYLOAD),
    "aspect": ("aspect", "aspect", ASPECT_PAYLOAD),
    "sample-whichway": ("sample", "sample", {"experiment": "whichway", **WW_PAYLOAD, **SAMPLE_FIELDS}),
    "sample-bell": ("sample", "sample", {"experiment": "bell", **BELL_PAYLOAD, **SAMPLE_FIELDS}),
}
# a valid value of every experiment field, to misplace into other kinds
FIELD_VALUES = {
    **WW_PAYLOAD,
    **BELL_PAYLOAD,
    **SWEEP_PAYLOAD,
    "state": "H",
    "experiment": "whichway",
}
OUT_OF_RANGE = {
    "gamma": 1.5,
    "gamma1": -0.5,
    "gamma2": 1.5,
    "n_events": 10**9 + 1,
    "seed": 2**64,
    "gamma_grid": [0.5, 1.5],
    "state": [1.0],
}


def single_fault_cases():
    """(id, subcommand, config, faulted field): one fault of one field each."""
    cases = []
    for name, (command, _, valid) in VALID_CONFIGS.items():
        fields = list(valid) + [f for f in ("out", "format", "seed", "n_events", "kind") if f not in valid]
        for field in fields:
            faults = {"true": True}
            if field in valid:
                faults["missing"] = None
            if field != "out":
                faults["string"] = "x"
            if field in OUT_OF_RANGE:
                faults["out-of-range"] = OUT_OF_RANGE[field]
            for fault, value in faults.items():
                config = dict(valid)
                if value is None:
                    del config[field]
                else:
                    config[field] = value
                cases.append((f"{name}-{field}-{fault}", command, config, field))
        accepted = set(valid) | {"out", "format", "seed", "n_events"}
        for field in sorted(set(FIELD_VALUES) - accepted):
            config = dict(valid, **{field: FIELD_VALUES[field]})
            cases.append((f"{name}-{field}-misplaced", command, config, field))
    return cases


SINGLE_FAULTS = single_fault_cases()


class TestSingleFaultConfigs:
    @pytest.mark.parametrize(
        ("command", "config", "field"),
        [case[1:] for case in SINGLE_FAULTS],
        ids=[case[0] for case in SINGLE_FAULTS],
    )
    def test_exit_2_naming_the_field(self, tmp_path, capsys, monkeypatch, command, config, field):
        monkeypatch.chdir(tmp_path)  # the relative out path of a sample
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")


class TestSpecRoundTrip:
    def test_whichway(self):
        spec = spec_from_dict({"kind": "whichway", **WW_PAYLOAD})
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_sweep_with_list_grid(self):
        spec = spec_from_dict(
            {"kind": "sweep-martens", "delta_deg": 45.0, "gamma_grid": [0.0, 0.5, 1.0]}
        )
        assert spec.gamma_grid.tolist() == [0.0, 0.5, 1.0]
        assert spec.gamma_grid.dtype == np.float64 and not spec.gamma_grid.flags.writeable
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_sweep_with_range_grid(self):
        spec = spec_from_dict(
            {
                "kind": "sweep-martens",
                "delta_deg": 45.0,
                "gamma_grid": {"start": 0.0, "stop": 1.0, "count": 101},
            }
        )
        assert spec.gamma_grid.tolist() == np.linspace(0.0, 1.0, 101).tolist()
        assert spec.gamma_grid.dtype == np.float64 and not spec.gamma_grid.flags.writeable
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_amplitude_state(self):
        payload = {
            "kind": "whichway",
            "gamma": 1.0,
            "theta_deg": 0.0,
            "theta_prime_deg": 90.0,
            "state": [[0.6, 0.0], [0.0, 0.8]],
        }
        spec = spec_from_dict(payload)
        assert spec.state == ((0.6, 0.0), (0.0, 0.8))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_real_amplitudes_accepted(self):
        payload = {
            "kind": "whichway",
            "gamma": 1.0,
            "theta_deg": 0.0,
            "theta_prime_deg": 90.0,
            "state": [1.0, 1.0],
        }
        spec = spec_from_dict(payload)
        assert spec.state == ((1.0, 0.0), (1.0, 0.0))

    def test_sample_round_trip(self):
        payload = {
            "kind": "sample",
            "experiment": "bell",
            **BELL_PAYLOAD,
            "n_events": 1000,
            "seed": 7,
            "out": "events.log",
        }
        spec = spec_from_dict(payload)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestSpecValidation:
    def test_missing_required_field_named(self):
        payload = {"kind": "whichway", **WW_PAYLOAD}
        del payload["gamma"]
        with pytest.raises(ConfigError) as info:
            spec_from_dict(payload)
        assert info.value.field == "gamma"

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "whichway", **WW_PAYLOAD, "gamma": 1.5})
        assert info.value.field == "gamma"

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "whichway", **WW_PAYLOAD, "gammma": 0.5})
        assert info.value.field == "gammma"

    def test_field_of_wrong_kind_rejected(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "aspect", **ASPECT_PAYLOAD, "gamma1": 0.5})
        assert info.value.field == "gamma1"

    def test_bad_kind(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "nope"})
        assert info.value.field == "kind"

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "sweep-martens", "delta_deg": 45.0, "gamma_grid": []})
        assert info.value.field == "gamma_grid"

    def test_zero_state_rejected(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict(
                {"kind": "whichway", **WW_PAYLOAD, "state": [0.0, 0.0]}
            )
        assert info.value.field == "state"

    def test_state_dim_mismatch(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "whichway", **WW_PAYLOAD, "state": "singlet"})
        assert info.value.field == "state"

    def test_seed_range(self):
        payload = {
            "kind": "sample",
            "experiment": "whichway",
            **WW_PAYLOAD,
            "n_events": 10,
            "seed": 2**64,
        }
        with pytest.raises(ConfigError) as info:
            spec_from_dict(payload)
        assert info.value.field == "seed"

    def test_bad_format(self):
        with pytest.raises(ConfigError) as info:
            spec_from_dict({"kind": "whichway", **WW_PAYLOAD, "format": "xml"})
        assert info.value.field == "format"


class TestListGrid:
    # a faulty entry's JSON text -> the message after "gamma_grid: entry <i> "
    FAULTY = {
        "true": "must be a number, got True",
        '"x"': "must be a number, got 'x'",
        "[0.5]": "must be a number, got [0.5]",
        "NaN": "must be finite",
        "Infinity": "must be finite",
        "-1e-300": "must lie in [0.0, 1.0], got -1e-300",
        "1.0000000000000002": "must lie in [0.0, 1.0], got 1.0000000000000002",
        "2": "must lie in [0.0, 1.0], got 2.0",
        "1" + "0" * 400: "is an integer too large in magnitude for a float",
    }

    @pytest.mark.parametrize("at", [0, 17])
    @pytest.mark.parametrize("entry", list(FAULTY), ids=lambda entry: entry[:20])
    def test_faulty_entry_is_named(self, entry, at):
        entries = ["0.25"] * 20
        entries[at] = entry
        text = '{"kind": "sweep-martens", "delta_deg": 30.0, "gamma_grid": [' + ",".join(entries) + "]}"
        payload = json.loads(text)  # NaN and Infinity as json reads its literals
        with pytest.raises(ConfigError) as info:
            spec_from_dict(payload)
        assert str(info.value) == f"gamma_grid: entry {at} {self.FAULTY[entry]}"

    def test_edge_entries_keep_their_bytes(self, tmp_path, capsys):
        # -0.0 and the least subnormal stay themselves; the JSON ints 0 and 1 read as floats
        path = tmp_path / "grid.json"
        path.write_text('{"delta_deg": 30.0, "gamma_grid": [-0.0, 5e-324, 0, 1, 0.5, 1e-300]}')
        assert main(["martens-sweep", "--config", str(path)]) == 0
        assert capsys.readouterr().out == (
            "gamma,j_lambda,j_mu,bound,slack\n"
            "-0,0.69314718055994529,0,0.28768207245178079,0.4054651081081645\n"
            "4.9406564584124654e-324,0.69314718055994529,1.8379242025294371e-321,0.28768207245178079,"
            "0.4054651081081645\n"
            "0,0.69314718055994529,0,0.28768207245178079,0.4054651081081645\n"
            "1,0,0.69314718055994529,0.28768207245178079,0.4054651081081645\n"
            "0.5,0.47738562622110969,0.47738562622110969,0.28768207245178079,0.6670891799904386\n"
            "1e-300,0.69314718055994529,3.4538776394910684e-298,0.28768207245178079,0.4054651081081645\n"
        )
        assert main(["martens-sweep", "--config", str(path), "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "8e4a19f91c3ce30effd99843579d665abfaf907d9268cedefac318da9bd61f9e"


class TestRangeGrid:
    """The range form of a grid is `np.linspace(start, stop, count)` bit for bit."""

    def test_the_lean_linspace_is_numpys_bit_for_bit(self):
        rng = random.Random(26)
        edges = (0.0, 1.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53)
        cases = [(a, b, n) for a in edges for b in edges for n in (1, 2, 3, 7, 1000)]
        for _ in range(10_000):
            start = rng.choice(edges) if rng.random() < 0.2 else rng.random()
            stop = start if rng.random() < 0.1 else rng.choice(edges) if rng.random() < 0.2 else rng.random()
            cases.append((start, stop, rng.choice((1, 2, rng.randint(1, 50), rng.randint(1, 5000)))))
        assert any(a == b for a, b, _ in cases) and any(a > b for a, b, _ in cases)
        for start, stop, count in cases:
            grid = cli._linspace(start, stop, count)
            assert grid.tobytes() == np.linspace(start, stop, count).tobytes(), (start, stop, count)

    def test_a_range_grid_is_a_frozen_linspace(self):
        spec = spec_from_dict({"kind": "sweep-martens", "delta_deg": 30.0,
                               "gamma_grid": {"start": 1.0, "stop": 5e-324, "count": 4}})
        assert spec.gamma_grid.tobytes() == np.linspace(1.0, 5e-324, 4).tobytes()
        assert not spec.gamma_grid.flags.writeable


class TestJsonText:
    """JSON cells that are not floats are the text `json.dumps` writes of them."""

    @pytest.mark.parametrize(
        "value",
        [True, False, None, 0, 1, -7, 2**64 - 1, 10**300, "", "H", 'a"b\\c', "tab\tnew\nline\r", "\x00\x1f",
         "é ∞ 😀", "runs/x.log", "\u2028"],
    )
    def test_each_value_is_written_as_json_dumps_writes_it(self, value):
        assert cli._json_text(value) == json.dumps(value)


class TestListedState:
    """An amplitude list of [re, im] pairs of finite floats is checked whole; any other list
    entry by entry, which names the first faulty entry with the texts pinned here."""

    # a faulty entry's JSON text -> the message after "state: entry <i> "
    FAULTY = {
        "true": "must be a number, got True",
        '"x"': "must be a number, got 'x'",
        "null": "must be a number, got None",
        "[0.5, 0.1, 0.2]": "must be a number or a [re, im] pair",
        "[0.5]": "must be a number or a [re, im] pair",
        "[true, 0.1]": "must be a number, got True",
        '[0.5, "y"]': "must be a number, got 'y'",
        "NaN": "must be finite",
        "Infinity": "must be finite",
        "[NaN, 0.1]": "must be finite",
        "[0.5, -Infinity]": "must be finite",
        "[1" + "0" * 400 + ", 0.0]": "is an integer too large in magnitude for a float",
    }

    @staticmethod
    def bell_payload(entries):
        text = '{"kind": "bell", "gamma1": 0.5, "gamma2": 0.5, "theta1_deg": 0, "theta1_prime_deg": 0,'
        text += ' "theta2_deg": 0, "theta2_prime_deg": 0, "state": [' + ",".join(entries) + "]}"
        return json.loads(text)  # NaN and Infinity as json reads its literals

    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("entry", list(FAULTY), ids=lambda entry: entry[:20])
    def test_faulty_entry_is_named(self, entry, at):
        entries = ["[0.5, 0.25]"] * 4
        entries[at] = entry
        with pytest.raises(ConfigError) as info:
            spec_from_dict(self.bell_payload(entries))
        assert str(info.value) == f"state: entry {at} {self.FAULTY[entry]}"

    @pytest.mark.parametrize("at", [0, 3])
    def test_a_bare_number_is_a_real_amplitude(self, at):
        entries = ["[0.5, 0.25]"] * 4
        entries[at] = "0.5"
        state = spec_from_dict(self.bell_payload(entries)).state
        assert state[at] == (0.5, 0.0) and type(state[at][1]) is float
        assert state[3 - at] == (0.5, 0.25)

    def test_float_pairs_are_kept_as_given(self):
        pairs = [[-0.0, 5e-324], [1e300, -1e-300], [0.5, 0.25], [0.0, 0.0]]
        state = spec_from_dict(self.bell_payload([json.dumps(pair) for pair in pairs])).state
        assert state == tuple(map(tuple, pairs))
        assert math.copysign(1.0, state[0][0]) == -1.0
        assert all(type(part) is float for pair in state for part in pair)

    def test_the_zero_vector_is_refused_either_way(self):
        for entries in (["[0.0, -0.0]"] * 4, ["0", "[0.0, 0.0]", "0.0", "[0, 0]"]):
            with pytest.raises(ConfigError, match="state: amplitude list must not be the zero vector"):
                spec_from_dict(self.bell_payload(entries))


class TestOversizedIntegers:
    BIG = 10**400

    @pytest.mark.parametrize(
        ("command", "config", "field"),
        [
            ("whichway", dict(WW_PAYLOAD, gamma=BIG), "gamma"),
            ("whichway", dict(WW_PAYLOAD, theta_deg=-BIG), "theta_deg"),
            ("bell", dict(BELL_PAYLOAD, theta2_prime_deg=BIG), "theta2_prime_deg"),
            ("martens-sweep", dict(SWEEP_PAYLOAD, delta_deg=BIG), "delta_deg"),
            ("whichway", dict(WW_PAYLOAD, state=[BIG, 0]), "state"),
            ("whichway", dict(WW_PAYLOAD, state=[[1, -BIG], [0, 0]]), "state"),
            ("martens-sweep", dict(SWEEP_PAYLOAD, gamma_grid=[0.5, BIG]), "gamma_grid"),
            ("martens-sweep", dict(SWEEP_PAYLOAD, gamma_grid={"start": BIG, "stop": 1, "count": 3}), "start"),
            ("martens-sweep", dict(SWEEP_PAYLOAD, gamma_grid={"start": 0, "stop": -BIG, "count": 3}), "stop"),
        ],
        ids=["float-field", "negative", "bell-angle", "delta", "amplitude", "amplitude-pair",
             "grid-entry", "range-start", "range-stop"],
    )
    def test_exit_2_naming_the_field(self, tmp_path, capsys, command, config, field):
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")


class TestUnreadableConfig:
    @pytest.mark.parametrize(
        "content",
        [
            b'{"gamma": 0.5, "state": "\xff"}',
            b'{"gamma": ' + b"1" * 5000 + b"}",
            b"[" * 100_000,
        ],
        ids=["not-utf8", "integer-beyond-digit-limit", "nested-too-deep"],
    )
    def test_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["whichway", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: config: ")

    # one config a line: a syntax error on line 3 after "\r\n" or lone "\r" line ends
    # (read as "\n", as text mode reads them), and a raw "\r" inside a string
    LINES = ('{', '  "gamma": 0.5,', '  "theta_deg": 0.0 "theta_prime_deg": 45.0,', '  "state": "H"', '}')
    NOT_JSON = "is not valid JSON: "
    LINE_3 = NOT_JSON + "Expecting ',' delimiter: line 3 column 20 (char 37)"
    MESSAGES = {
        "crlf": ("\r\n".join(LINES).encode(), LINE_3),
        "cr": ("\r".join(LINES).encode(), LINE_3),
        "bom": (
            b'\xef\xbb\xbf{"gamma": 0.5}',
            NOT_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        "utf8-early": (
            b'{"state": "\xff"}',
            NOT_JSON + "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
        ),
        "utf8-late": (
            b"{" + b" " * 9000 + b'"state": "\xc3"}',
            NOT_JSON + "'utf-8' codec can't decode byte 0xc3 in position 9011: invalid continuation byte",
        ),
        "empty": (b"", NOT_JSON + "Expecting value: line 1 column 1 (char 0)"),
        "raw-cr": (
            b'{\n  "gamma": 0.5,\n  "state": "H\rV"\n}',
            NOT_JSON + "Invalid control character at: line 3 column 14 (char 31)",
        ),
        "dir": (None, "[Errno 21] Is a directory: 'dir'"),
        "missing": (None, "[Errno 2] No such file or directory: 'missing'"),
    }

    @pytest.mark.parametrize("name", list(MESSAGES))
    def test_pinned_message(self, tmp_path, capsys, monkeypatch, name):
        content, message = self.MESSAGES[name]
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / name).write_bytes(content)
        elif name == "dir":
            (tmp_path / name).mkdir()
        assert main(["whichway", "--config", name]) == 2
        where = f"{name!r} " if content is not None else f"cannot read {name!r}: "
        assert capsys.readouterr().err == f"config error: config: {where}{message}\n"

    @pytest.mark.parametrize("out", ["a\x00b", "\ud800.csv"], ids=["nul", "lone-surrogate"])
    def test_out_path_the_os_cannot_take_is_2(self, tmp_path, capsys, out):
        assert main(["whichway", "--config", write_config(tmp_path, dict(WW_PAYLOAD, out=out))]) == 2
        assert capsys.readouterr().err.startswith("config error: out: ")


JSON_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([-(10**400), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.text(max_size=8),
)
JSON_VALUE = st.one_of(
    JSON_SCALAR,
    st.sampled_from(list(FIELD_VALUES.values())),
    st.lists(st.one_of(JSON_SCALAR, st.lists(JSON_SCALAR, max_size=3)), max_size=5),
    st.dictionaries(st.text(max_size=6), JSON_SCALAR, max_size=3),
    st.fixed_dictionaries({"start": JSON_SCALAR, "stop": JSON_SCALAR, "count": JSON_SCALAR}),
)
FUZZ_FIELDS = sorted(FIELD_VALUES.keys() | {"out", "format", "seed", "n_events", "kind", "nonsense"})
# n_events up to 10^9 and grid counts up to 10^7 are valid, but at the top of
# those ranges one run needs about a gigabyte or hours (the open limits of
# ROADMAP items 3 and 4); the fuzzing lowers accepted values to this cap
FUZZ_CAP = 10**4


def capped(payload):
    n_events = payload.get("n_events")
    if type(n_events) is int and FUZZ_CAP < n_events <= 10**9:
        payload["n_events"] = FUZZ_CAP
    grid = payload.get("gamma_grid")
    if isinstance(grid, dict) and type(grid.get("count")) is int and FUZZ_CAP < grid["count"] <= 10**7:
        payload["gamma_grid"] = dict(grid, count=FUZZ_CAP)
    return payload


@pytest.mark.parametrize("name", list(VALID_CONFIGS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_config_is_accepted_or_config_error_and_main_exits_cleanly(name, data):
    command, kind, valid = VALID_CONFIGS[name]
    payload = {**valid, "kind": kind}
    fields = st.sampled_from(list(valid)) | st.sampled_from(FUZZ_FIELDS)
    for field in data.draw(st.lists(fields, min_size=1, max_size=2, unique=True)):
        payload[field] = data.draw(JSON_VALUE, label=field)
    payload = capped(payload)
    try:
        spec = spec_from_dict(payload)
    except ConfigError:
        pass
    else:
        assert spec_from_dict(spec_to_dict(spec)) == spec
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        # the out path is fixed here: a fuzzed one would write anywhere
        argv = [command, "--config", str(config), "--out", str(Path(tmp) / "out")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3, 4)


HUGE = sys.float_info.max
# valid field values, edges drawn often: angles in degrees from the largest
# finite float down to the smallest subnormal, gammas at and one ulp inside
# the corners, amplitudes subnormal or huge
VALID_ANGLES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 45.0, -90.0, 1e20, HUGE, -HUGE]),
    st.floats(allow_nan=False, allow_infinity=False),
)
VALID_GAMMAS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-16, 0.5, 1.0 - 1e-16, 1.0]), st.floats(0.0, 1.0)
)
AMPLITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-200, 1e300, HUGE, -HUGE]),
    st.floats(allow_nan=False, allow_infinity=False),
)
VALID_FIELDS = {
    **dict.fromkeys(("gamma", "gamma1", "gamma2"), VALID_GAMMAS),
    **dict.fromkeys(("theta_deg", "theta_prime_deg", "delta_deg", *cli._BELL_ANGLES), VALID_ANGLES),
    "gamma_grid": st.one_of(
        st.lists(VALID_GAMMAS, min_size=1, max_size=20),
        st.fixed_dictionaries(
            {
                "start": VALID_GAMMAS,
                "stop": VALID_GAMMAS,
                "count": st.one_of(st.integers(1, 100), st.just(FUZZ_CAP)),
            }
        ),
    ),
}


def valid_states(dim, amplitudes=AMPLITUDES):
    names = sorted(name for name, state in cli._NAMED_STATES.items() if state.dim == dim)
    entry = st.one_of(amplitudes, st.lists(amplitudes, min_size=2, max_size=2))
    amplitudes = st.lists(entry, min_size=dim, max_size=dim).filter(
        lambda amps: any(x != 0.0 for a in amps for x in (a if isinstance(a, list) else [a]))
    )
    return st.one_of(st.sampled_from(names), amplitudes)


@st.composite
def valid_configs(draw, command):
    """A config `spec_from_dict` accepts, built from the field table `cli._EXPERIMENTS`."""
    kind = cli._COMMANDS[command][0]
    payload = {"kind": kind, "format": draw(st.sampled_from(["csv", "json"]))}
    experiment = kind
    if kind == "sample":
        experiment = draw(st.sampled_from(cli._SAMPLE_EXPERIMENTS))
        payload["experiment"] = experiment
        payload["n_events"] = draw(st.one_of(st.integers(0, 100), st.just(FUZZ_CAP)))
        payload["seed"] = draw(st.integers(0, 2**64 - 1))
    fields, dim = cli._EXPERIMENTS[experiment]
    for name in fields:
        payload[name] = draw(valid_states(dim) if name == "state" else VALID_FIELDS[name])
    return payload


# summary columns that hold text, not numbers
TEXT_COLUMNS = {"state", "experiment", "generator", "config_sha256", "log_path"}


def numeric_cells(text, fmt):
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [v for row in rows for v in row.values() if isinstance(v, float)]
    rows = csv.DictReader(io.StringIO(text))
    return [
        float(v)
        for row in rows
        for k, v in row.items()
        if k not in TEXT_COLUMNS and v not in ("", "true", "false")
    ]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_valid_config_exits_0_with_finite_cells(command, data):
    payload = data.draw(valid_configs(command))
    spec = spec_from_dict(payload)
    assert spec_from_dict(spec_to_dict(spec)) == spec
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        argv = [command, "--config", str(config)]
        if command == "sample":
            argv += ["--out", str(Path(tmp) / "events.log")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code == 0, err.getvalue()
    cells = numeric_cells(out.getvalue(), payload["format"])
    assert cells
    assert all(math.isfinite(x) for x in cells)


# grid sizes on both sides of the chunk edges of martens-sweep
SWEEP_SIZES = (1, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3)
# grid values: the corners, a subnormal, one ulp-scale step inside each corner,
# and the JSON integers 0 and 1
GRID_VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-16, 1.0 - 1e-16, 1.0, 0, 1]), st.floats(0.0, 1.0))
# event-log names whose path the CSV summary must quote, or escape in JSON
LOG_NAMES = ("events.log", 'ev,"1".log', "ev\n2.log", "ev\r3.log", "év.log")


def sweep_payload(data, size):
    """A valid martens-sweep config of `size` grid points, in list or range form."""
    payload = {"format": data.draw(st.sampled_from(["csv", "json"])), "delta_deg": data.draw(VALID_ANGLES)}
    if data.draw(st.booleans()):
        payload["gamma_grid"] = {"start": data.draw(GRID_VALUES), "stop": data.draw(GRID_VALUES), "count": size}
    else:
        pattern = data.draw(st.lists(GRID_VALUES, min_size=1, max_size=7))
        payload["gamma_grid"] = (pattern * size)[:size]
    return payload


# (subcommand, sweep size): every one-row command, and the sweep at each size
TABLE_CASES = [(c, None) for c in cli._COMMANDS if c != "martens-sweep"]
TABLE_CASES += [("martens-sweep", size) for size in SWEEP_SIZES]


@pytest.mark.parametrize("command, size", TABLE_CASES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_table_bytes_match_the_per_row_reference(command, size, data):
    """Streamed batch tables are byte for byte the per-row renderers' tables."""
    payload = data.draw(valid_configs(command)) if size is None else sweep_payload(data, size)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        table = Path(tmp) / "table.txt"
        argv = [command, "--config", str(config)]
        if command == "sample":
            argv += ["--out", str(Path(tmp) / data.draw(st.sampled_from(LOG_NAMES)))]
        elif data.draw(st.booleans(), label="to_file"):
            argv += ["--out", str(table)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 0, err.getvalue()
        spec = cli.resolve_spec(build_parser().parse_args(argv))
        expected = reference_table(spec).encode("utf-8")
        if table.exists():
            assert out.getvalue() == ""
            assert table.read_bytes() == expected
        else:
            assert out.getvalue().encode("utf-8") == expected


# amplitudes whose text and scaling the one-row commands must keep: a
# negative zero, the smallest subnormal, a huge value and JSON integers
EDGE_AMPLITUDES = st.one_of(st.sampled_from([-0.0, 5e-324, 1e300, 0, 1, -3, 2**53]), AMPLITUDES)
# angles in degrees, negative and beyond a turn, that each arm reduces modulo 180
WIDE_ANGLES = st.one_of(
    st.sampled_from([-720.0, -45.0, -5e-324, 360.0, 361.5, 725.25, 1e6]), st.floats(-1e4, 1e4), VALID_ANGLES
)


@st.composite
def one_row_configs(draw, experiment):
    """A whichway or bell config of edge values: EDGE_GAMMAS and -0.0, which the range
    check lets through, wide angles, named or listed states."""
    fields, dim = cli._EXPERIMENTS[experiment]
    gammas = st.one_of(st.sampled_from((-0.0, *EDGE_GAMMAS)), st.floats(0.0, 1.0))
    payload = {}
    for name in fields:
        if name == "state":
            payload[name] = draw(valid_states(dim, EDGE_AMPLITUDES), label=name)
        else:
            payload[name] = draw(gammas if name.startswith("gamma") else WIDE_ANGLES, label=name)
    return payload


@pytest.mark.parametrize("command, experiment", [(c, c) for c in ("whichway", "bell", "aspect")] + [
    ("sample", e) for e in cli._SAMPLE_EXPERIMENTS
])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_row_bytes_match_the_layered_reference(command, experiment, data):
    """The kernel runners write the bytes of the layered path they replaced.

    The table, on stdout or by `--out`, and a sample's event log are those of
    `helpers.ROW_REFERENCES`, which build the arms by `build_whichway` and
    `build_bell`, the Aspect row by `chsh_aspect`, the CHSH cells from a
    `ChshReport`, and write the state cell by `json.dumps`.
    """
    payload = data.draw(one_row_configs(experiment), label="config")
    if command == "sample":
        payload.update(experiment=experiment, seed=data.draw(st.integers(0, 2**64 - 1), label="seed"))
        payload["n_events"] = data.draw(st.sampled_from([0, 1, 500]) | st.integers(0, 3000), label="n")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        target = Path(tmp) / ("events.log" if command == "sample" else "table.txt")
        argv = [command, "--config", str(config)]
        for field, value in (("format", data.draw(st.sampled_from(["csv", "json"]))), ("out", str(target))):
            where = data.draw(st.sampled_from(["config", "flag", "none"]), label=field)
            if where == "none" and (field == "format" or command != "sample"):
                continue
            if where == "config":
                payload[field] = value
            else:
                argv += [f"--{field}", value]
        config.write_text(json.dumps(payload), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, "")
        written = target.read_bytes() if target.exists() else None
        spec = cli.resolve_spec(build_parser().parse_args(argv))
        expected = reference_table(spec).encode("utf-8")
        if command == "sample":
            assert out.getvalue().encode("utf-8") == expected
            assert written == target.read_bytes()  # the reference wrote the log again
        elif spec.out is None:
            assert (out.getvalue().encode("utf-8"), written) == (expected, None)
        else:
            assert (out.getvalue(), written) == ("", expected)


GOLDEN_BELL = {
    "gamma1": 0.7,
    "gamma2": 0.2,
    "theta1_deg": 0.0,
    "theta1_prime_deg": 45.0,
    "theta2_deg": 22.5,
    "theta2_prime_deg": 67.5,
    "state": "singlet",
}
# subcommand -> (its config, the CSV table it writes: header and row, byte
# for byte); pinned apart from the runners, so a column that is renamed,
# dropped or moved fails here
GOLDEN_TABLES = {
    "whichway": (
        {"gamma": 0.3, "theta_deg": 10.0, "theta_prime_deg": 55.0, "state": [[0.6, 0.1], 0.8]},
        "gamma,theta_deg,theta_prime_deg,state,p_pp,p_pm,p_mp,p_mm,marg_d_plus,marg_d_minus,"
        "marg_dprime_plus,marg_dprime_minus,lambda_00,lambda_01,lambda_10,lambda_11,mu_00,mu_01,"
        "mu_10,mu_11,j_lambda,j_mu,martens_bound,martens_slack,martens_satisfied\n"
        '0.29999999999999999,10,55,"[[0.6,0.1],[0.8,0.0]]",0,0.16108252425452177,'
        "0.69461150903796132,0.14430596670751702,0.16108252425452177,0.83891747574547837,"
        "0.69461150903796132,0.30538849096203879,0.29999999999999999,0,0.69999999999999996,1,"
        "0.69999999999999996,0,0.29999999999999999,1,0.57587024378140117,0.35113269255275964,"
        "0.69314718055994506,0.23385575577421569,true\n",
    ),
    "bell": (
        GOLDEN_BELL,
        "gamma1,gamma2,theta1_deg,theta1_prime_deg,theta2_deg,theta2_prime_deg,state,p_pp_pp,"
        "p_pp_pm,p_pp_mp,p_pp_mm,p_pm_pp,p_pm_pm,p_pm_mp,p_pm_mm,p_mp_pp,p_mp_pm,p_mp_mp,p_mp_mm,"
        "p_mm_pp,p_mm_pm,p_mm_mp,p_mm_mm,E_D1_D2,E_D1_D2p,E_D1p_D2,E_D1p_D2p,s_value,violates,"
        "s_symmetric_max\n"
        "0.69999999999999996,0.20000000000000001,0,45,22.5,67.5,singlet,0,0,0,0,0,"
        "0.010251262658470836,0.23899494936611662,0.10075378797541248,0,0.0043933982822017808,"
        "0.017573593128807154,0.12803300858899105,0,0.085355339059327365,0.14343145750507622,"
        "0.27121320343559635,0.14100505063388338,0.45597979746446649,0.51757359312880702,"
        "-0.029705627484771457,0.17289321881345243,false,1.1442640687119283\n",
    ),
    "aspect": (
        {name: value for name, value in GOLDEN_BELL.items() if not name.startswith("gamma")},
        "theta1_deg,theta1_prime_deg,theta2_deg,theta2_prime_deg,state,E_D1_D2,E_D1_D2p,E_D1p_D2,"
        "E_D1p_D2p,s_value,violates,s_symmetric_max\n"
        "0,45,22.5,67.5,singlet,-0.70710678118654757,0.70710678118654746,-0.70710678118654791,"
        "-0.70710678118654746,-2.8284271247461903,true,2.8284271247461903\n",
    ),
    "sample": (
        {"experiment": "bell", **GOLDEN_BELL, "n_events": 1000, "seed": 7, "out": "events.log"},
        "experiment,n_events,seed,generator,config_sha256,log_path,freq_pp_pp,freq_pp_pm,freq_pp_mp,"
        "freq_pp_mm,freq_pm_pp,freq_pm_pm,freq_pm_mp,freq_pm_mm,freq_mp_pp,freq_mp_pm,freq_mp_mp,"
        "freq_mp_mm,freq_mm_pp,freq_mm_pm,freq_mm_mp,freq_mm_mm,p_pp_pp,p_pp_pm,p_pp_mp,p_pp_mm,"
        "p_pm_pp,p_pm_pm,p_pm_mp,p_pm_mm,p_mp_pp,p_mp_pm,p_mp_mp,p_mp_mm,p_mm_pp,p_mm_pm,p_mm_mp,"
        "p_mm_mm,max_abs_deviation,s_analytic,s_empirical\n"
        "bell,1000,7,philox,c856a3d81c48f991ab7589b85c1c6acf37f680fd39144579d83614a447e0ad95,"
        "events.log,0,0,0,0,0,0.0089999999999999993,0.247,0.108,0,0.0050000000000000001,0.02,"
        "0.13100000000000001,0,0.095000000000000001,0.13,0.255,0,0,0,0,0,0.010251262658470836,"
        "0.23899494936611662,0.10075378797541248,0,0.0043933982822017808,0.017573593128807154,"
        "0.12803300858899105,0,0.085355339059327365,0.14343145750507622,0.27121320343559635,"
        "0.016213203435596346,0.17289321881345243,0.088000000000000106\n",
    ),
}


@pytest.mark.parametrize("command", GOLDEN_TABLES)
def test_one_row_table_bytes_are_pinned(command, tmp_path, monkeypatch, capsys):
    # the sample row names its log path, so the log goes to a fixed relative one
    monkeypatch.chdir(tmp_path)
    payload, table = GOLDEN_TABLES[command]
    assert main([command, "--config", write_config(tmp_path, payload)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == table


class TestSweepStreaming:
    def sweep_config(self, tmp_path, count, fmt="csv"):
        grid = {"start": 0.0, "stop": 1.0, "count": count}
        return write_config(tmp_path, {"delta_deg": 30.0, "gamma_grid": grid, "format": fmt})

    @pytest.mark.parametrize(
        "at_limit, over, message",
        [
            # a list one too long is refused before its entries are looked at
            ([0.5] * 5, [1.5] * 6, "gamma_grid: grid must hold at most 5 values, got 6"),
            ({"start": 0.0, "stop": 1.0, "count": 5}, {"start": 0.0, "stop": 1.0, "count": 6}, "count: must lie in [1, 5], got 6"),
        ],
        ids=["list", "range"],
    )
    def test_grid_length_is_capped_in_both_forms(self, tmp_path, capsys, monkeypatch, at_limit, over, message):
        monkeypatch.setattr(cli, "_MAX_GRID", 5)
        for grid in (at_limit, over):
            config = write_config(tmp_path, {"delta_deg": 30.0, "gamma_grid": grid})
            code = main(["martens-sweep", "--config", config])
            captured = capsys.readouterr()
            if grid is at_limit:
                assert code == 0 and len(captured.out.splitlines()) == 1 + 5
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_a_faulty_config_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path, {"delta_deg": 30.0, "gamma_grid": [0.5] * 5000 + [1.5]})
        out = tmp_path / "table.csv"
        assert main(["martens-sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [1, 2, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3])
    def test_table_bytes_are_the_reference_at_the_chunk_edges(self, tmp_path, capsys, count, fmt):
        # a range, and a list of the corners, the smallest subnormal, about the
        # smallest normal, a tiny normal and the last float below 1
        edges = [0.0, 1.0, 0.5, 5e-324, 2.2e-308, 1e-300, math.nextafter(1.0, 0.0)]
        out = tmp_path / "table"
        for grid in ({"start": 0.0, "stop": 1.0, "count": count}, (edges * count)[:count]):
            config = write_config(tmp_path, {"delta_deg": 36.0, "gamma_grid": grid, "format": fmt})
            plain = ["martens-sweep", "--config", config]
            # a JSON table's config block names its --out
            for argv in (plain, [*plain, "--out", str(out)]):
                expected = reference_table(cli.resolve_spec(build_parser().parse_args(argv))).encode("utf-8")
                assert main(argv) == 0
                captured = capsys.readouterr()
                written = out.read_bytes() if "--out" in argv else captured.out.encode("utf-8")
                assert (written, captured.err) == (expected, "")

    def test_one_kernel_call_a_chunk_and_no_checked_sweep(self, tmp_path, monkeypatch):
        sizes, sweeps = [], []
        real_kernel, real_sweep = infometrics._curve_columns, infometrics.martens_sweep

        def kernel_spy(grid, bound):
            sizes.append(grid.size)
            return real_kernel(grid, bound)

        def sweep_spy(*args):
            sweeps.append(args)
            return real_sweep(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("povmbell"):
                spies = (("_curve_columns", real_kernel, kernel_spy), ("martens_sweep", real_sweep, sweep_spy))
                for attr, real, spy in spies:
                    if getattr(module, attr, None) is real:
                        monkeypatch.setattr(module, attr, spy)
        out = tmp_path / "table.csv"
        config = self.sweep_config(tmp_path, 2 * SWEEP_CHUNK + 3)
        assert main(["martens-sweep", "--config", config, "--out", str(out)]) == 0
        assert sizes == [SWEEP_CHUNK, SWEEP_CHUNK, 3]
        assert sweeps == []
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 2 * SWEEP_CHUNK + 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_is_the_grid_plus_a_chunk(self, tmp_path, fmt):
        # tracemalloc counts bytes allocated, so this is deterministic; it
        # checks memory, not time. The table goes to a file: a captured
        # stdout would hold all of it.
        out = tmp_path / "table"
        assert main(["martens-sweep", "--config", self.sweep_config(tmp_path, 3, fmt), "--out", str(out)]) == 0
        small, large = 10**4, 10**5
        peaks = {}
        for count in (small, large):
            config = self.sweep_config(tmp_path, count, fmt)
            tracemalloc.start()
            try:
                code = main(["martens-sweep", "--config", config, "--out", str(out)])
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            with open(out, "rb") as fh:
                fh.seek(-400, 2)
                tail = fh.read()
            # the table is whole: its last row is the grid's last point
            if fmt == "csv":
                assert tail.splitlines()[-1].startswith(b"1,")
            else:
                assert tail.endswith(b"\n    }\n  ]\n}\n") and b'"gamma": 1.0,' in tail
        # 8 bytes a grid point for the expanded grid, the rest set by the chunk
        assert peaks[large] <= 8 * large + 32 * 10**6
        # the peak grows with the grid alone, at most twice its 8 bytes a point
        # (a table held in memory costs hundreds of bytes a point), so the
        # bound above holds for every grid size the validator accepts
        assert peaks[large] - peaks[small] <= 16 * (large - small)


class TestResolveState:
    def test_named_states(self):
        assert np.allclose(resolve_state("H", 2).vector, [1.0, 0.0])
        assert np.allclose(resolve_state("V", 2).vector, [0.0, 1.0])
        diag = resolve_state("diag", 2).vector
        assert np.allclose(diag, [2**-0.5, 2**-0.5])
        singlet = resolve_state("singlet", 4).vector
        assert np.allclose(singlet, [0.0, 2**-0.5, -(2**-0.5), 0.0])

    def test_amplitudes_normalized(self):
        state = resolve_state(((3.0, 0.0), (0.0, 4.0)), 2)
        assert np.allclose(state.vector, [0.6, 0.8j])

    def test_power_of_two_rescale_is_exact(self):
        # scaling by a power of two before normalizing changes no bit
        rng = np.random.default_rng(511)
        for _ in range(50):
            pairs = tuple((float(re), float(im)) for re, im in rng.normal(size=(2, 2)))
            amps = np.array([complex(re, im) for re, im in pairs])
            want = amps / float(np.linalg.norm(amps))
            got = resolve_state(pairs, 2).vector
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        ("norm", "message"),
        [
            (lambda amps: 1.0, "pure state squared norm is 0.5; must equal 1 within 1e-12"),
            (lambda amps: 0.5, "pure state squared norm is 2.0; must equal 1 within 1e-12"),
            (lambda amps: 5e-324, "pure state amplitudes must be finite"),
        ],
        ids=["short", "long", "overflow"],
    )
    def test_a_listed_state_keeps_the_state_checks(self, monkeypatch, capsys, tmp_path, norm, message):
        # a listed state skips the constructor's conversion, not its checks: with the
        # normalization broken, the unit-norm and finiteness checks raise their DomainError
        pairs = ((0.5, 0.0), (0.0, 0.5))
        assert resolve_state(pairs, 2).vector.tolist() == [0.7071067811865475 + 0j, 0.7071067811865475j]
        monkeypatch.setattr(np.linalg, "norm", norm)
        with np.errstate(all="ignore"), pytest.raises(DomainError) as raised:
            resolve_state(pairs, 2)
        assert str(raised.value) == message
        config = write_config(tmp_path, dict(WW_PAYLOAD, state=[0.5, [0.0, 0.5]]))
        with np.errstate(all="ignore"):  # the overflow of the broken normalization
            assert main(["whichway", "--config", config]) == 3
        assert capsys.readouterr() == ("", f"invariant violation: {message}\n")

    def test_a_listed_state_owns_its_frozen_vector(self):
        vector = resolve_state(((3.0, 0.0), (0.0, 4.0)), 2).vector
        assert vector.dtype == np.complex128 and vector.shape == (2,)
        assert vector.base is None and not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 1.0

    @pytest.mark.parametrize(
        ("extreme", "reference"),
        [([1e-200, 0], [1, 0]), ([1e300, 1e300], [1, 1])],
    )
    def test_extreme_amplitudes_normalize(self, tmp_path, capsys, extreme, reference):
        rows = {}
        for name, state in (("extreme", extreme), ("reference", reference)):
            config = write_config(tmp_path, dict(WW_PAYLOAD, state=state), name=f"{name}.json")
            assert main(["whichway", "--config", config]) == 0
            rows[name] = parse_csv(capsys.readouterr().out)[0]
        for row in rows.values():
            row.pop("state")
        assert rows["extreme"] == rows["reference"]


class TestWhichwayCommand:
    def test_csv_row_values(self, tmp_path, capsys):
        config = write_config(tmp_path, WW_PAYLOAD)
        assert main(["whichway", "--config", config]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert float(row["p_pp"]) == 0.0
        assert float(row["p_pm"]) == pytest.approx(0.5, abs=1e-15)
        assert float(row["p_mp"]) == pytest.approx(0.25, abs=1e-15)
        assert float(row["p_mm"]) == pytest.approx(0.25, abs=1e-15)
        assert float(row["lambda_00"]) == 0.5
        assert float(row["lambda_10"]) == 0.5
        assert float(row["lambda_11"]) == 1.0
        assert float(row["j_lambda"]) == pytest.approx(0.4773856262211097, abs=1e-15)
        assert float(row["martens_bound"]) == pytest.approx(LN2, abs=1e-12)
        assert row["martens_satisfied"] == "true"

    def test_json_config_round_trips(self, tmp_path, capsys):
        config = write_config(tmp_path, WW_PAYLOAD)
        assert main(["whichway", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = spec_from_dict(payload["config"])
        assert spec.kind == "whichway"
        assert spec.format == "json"
        assert payload["rows"][0]["p_pm"] == pytest.approx(0.5, abs=1e-15)

    def test_out_file(self, tmp_path):
        config = write_config(tmp_path, WW_PAYLOAD)
        out = tmp_path / "table.csv"
        assert main(["whichway", "--config", config, "--out", str(out)]) == 0
        row = parse_csv(out.read_text(encoding="utf-8"))[0]
        assert float(row["p_pm"]) == pytest.approx(0.5, abs=1e-15)


class TestArmKernel:
    """The arm kernel `cli._arm` answers as `validate_povm` does for the stack it forms:
    by the scalar axiom certificate on the entries (and, to classify, the scalar verdict),
    or else by the array path, which raises."""

    @pytest.mark.parametrize("gamma", [0.0, 5e-324, 0.3, 1.0 - 2**-53, 1.0])
    def test_stack_and_class_are_those_of_validate_povm(self, gamma):
        stack, cls, theta, theta_prime = cli._arm(gamma, 10.0, -55.0, classify=True)
        povm = validate_povm(whichway._effect_rows(gamma, theta, theta_prime), WW_LABELS)
        assert cls is type(povm)
        assert np.array_equal(stack, povm.stack) and not stack.flags.writeable
        assert stack.tobytes() == povm.stack.tobytes()  # -0.0 kept where the nested build keeps it
        assert (theta.theta, theta_prime.theta) == (math.radians(10.0), math.radians(-55.0) % math.pi)
        # without `classify`, the same stack and angles, certified, and no class
        certified = cli._arm(gamma, 10.0, -55.0)
        assert certified[0].tobytes() == stack.tobytes() and not certified[0].flags.writeable
        assert certified[1] is None and certified[2:] == (theta, theta_prime)

    def test_without_the_verdict_the_array_path_answers(self, monkeypatch, tmp_path):
        arms = [(gamma, 10.0, 55.0) for gamma in (0.0, 0.3, 1.0)]
        expected = [cli._arm(*arm, classify=True)[1] for arm in arms]
        commands = {
            "whichway": WW_PAYLOAD,
            "bell": BELL_PAYLOAD,
            "sample": {**WW_PAYLOAD, "experiment": "whichway", "n_events": 50, "seed": 3},
        }

        def run_all():
            outputs = []
            for command, payload in commands.items():
                out, err = io.StringIO(), io.StringIO()
                argv = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                outputs.append((code, out.getvalue(), err.getvalue(), (tmp_path / "o").read_bytes()))
            return outputs

        before = run_all()
        monkeypatch.setattr(cli, "_qubit_class", lambda rows: None)
        monkeypatch.setattr(cli, "_qubit_certificate", lambda rows: False)
        assert [cli._arm(*arm, classify=True)[1] for arm in arms] == expected
        assert run_all() == before

    @pytest.mark.parametrize("error", list(ARM_CORRUPTIONS))
    @pytest.mark.parametrize("command", ["whichway", "bell", "sample"])
    def test_a_broken_arm_exits_3_with_the_array_path_message(
        self, monkeypatch, tmp_path, capsys, command, error
    ):
        original = cli._effect_rows

        def broken(gamma, theta, theta_prime):
            return ARM_CORRUPTIONS[error](np.array(original(gamma, theta, theta_prime))).tolist()

        monkeypatch.setattr(cli, "_effect_rows", broken)
        with pytest.raises(error) as expected:
            validate_povm(broken(0.5, 0.0, 0.25 * math.pi), WW_LABELS)
        payload = {"whichway": WW_PAYLOAD, "bell": BELL_PAYLOAD}.get(command)
        if payload is None:
            payload = {**WW_PAYLOAD, "experiment": "whichway", "n_events": 5, "seed": 1}
        argv = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"invariant violation: {expected.value}\n")
        assert not (tmp_path / "o").exists()


class TestMartensSweepCommand:
    def test_curve_shape(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"delta_deg": 45.0, "gamma_grid": {"start": 0.0, "stop": 1.0, "count": 101}},
        )
        assert main(["martens-sweep", "--config", config]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 101
        assert list(rows[0]) == ["gamma", "j_lambda", "j_mu", "bound", "slack"]
        first, last = rows[0], rows[-1]
        assert float(first["j_lambda"]) == pytest.approx(LN2, abs=1e-12)
        assert float(first["j_mu"]) == 0.0
        assert float(last["j_lambda"]) == 0.0
        assert float(last["j_mu"]) == pytest.approx(LN2, abs=1e-12)
        for row in rows:
            assert float(row["bound"]) == pytest.approx(LN2, abs=1e-12)
            assert float(row["slack"]) >= -1e-10

    def test_zero_delta_bound_is_zero(self, tmp_path, capsys):
        config = write_config(tmp_path, {"delta_deg": 0.0, "gamma_grid": [0.0, 0.5, 1.0]})
        assert main(["martens-sweep", "--config", config]) == 0
        for row in parse_csv(capsys.readouterr().out):
            assert abs(float(row["bound"])) <= 1e-12


class TestBellCommands:
    def test_bell_single_run_never_violates(self, tmp_path, capsys):
        config = write_config(tmp_path, BELL_PAYLOAD)
        assert main(["bell", "--config", config]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert abs(float(row["s_value"])) <= 2.0 + 1e-10
        assert row["violates"] == "false"
        assert float(row["p_pp_pp"]) == 0.0

    def test_aspect_violates(self, tmp_path, capsys):
        config = write_config(tmp_path, ASPECT_PAYLOAD)
        assert main(["aspect", "--config", config]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert abs(float(row["s_value"])) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert row["violates"] == "true"

    def test_csv_floats_are_full_precision(self, tmp_path, capsys):
        config = write_config(tmp_path, ASPECT_PAYLOAD)
        assert main(["aspect", "--config", config]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        # 17 significant digits round-trip binary64 exactly
        from povmbell import chsh_aspect, singlet_state

        want = chsh_aspect(
            singlet_state(),
            0.0,
            math.radians(45.0),
            math.radians(22.5),
            math.radians(67.5),
        ).s_value
        assert float(row["s_value"]) == want


class TestSampleCommand:
    def test_log_and_summary(self, tmp_path, capsys):
        payload = {
            "experiment": "bell",
            **BELL_PAYLOAD,
            "n_events": 20_000,
            "seed": 7,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "events.log"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert row["generator"] == "philox"
        assert int(row["n_events"]) == 20_000
        assert abs(float(row["s_empirical"]) - float(row["s_analytic"])) <= 0.1
        assert float(row["max_abs_deviation"]) <= 0.02

        log = read_event_log(out)
        assert log.count == 20_000
        assert log.seed == 7
        assert log.generator == "philox"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        payload = {
            "experiment": "whichway",
            **WW_PAYLOAD,
            "n_events": 5000,
            "seed": 42,
        }
        config = write_config(tmp_path, payload)
        out1 = tmp_path / "a.log"
        out2 = tmp_path / "b.log"
        assert main(["sample", "--config", config, "--out", str(out1)]) == 0
        assert main(["sample", "--config", config, "--out", str(out2)]) == 0
        capsys.readouterr()
        # the out path carries no weight in the log, so the bytes match exactly
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_events(self, tmp_path, capsys):
        payload = {
            "experiment": "whichway",
            **WW_PAYLOAD,
            "n_events": 200,
            "seed": 1,
        }
        config = write_config(tmp_path, payload)
        out1 = tmp_path / "a.log"
        out2 = tmp_path / "b.log"
        assert main(["sample", "--config", config, "--out", str(out1)]) == 0
        assert main(["sample", "--config", config, "--out", str(out2), "--seed", "2"]) == 0
        capsys.readouterr()
        assert read_event_log(out1).events != read_event_log(out2).events

    def test_n_override(self, tmp_path, capsys):
        payload = {
            "experiment": "whichway",
            **WW_PAYLOAD,
            "n_events": 200,
            "seed": 1,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "a.log"
        assert main(["sample", "--config", config, "--out", str(out), "--n", "10"]) == 0
        capsys.readouterr()
        assert read_event_log(out).count == 10

    def test_zero_events(self, tmp_path, capsys):
        payload = {
            "experiment": "whichway",
            **WW_PAYLOAD,
            "n_events": 0,
            "seed": 1,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "empty.log"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert row["max_abs_deviation"] == ""
        log = read_event_log(out)
        assert log.count == 0

    @pytest.mark.parametrize("experiment", ["bell", "whichway"])
    def test_born_rule_and_frequencies_run_once(self, tmp_path, capsys, monkeypatch, experiment):
        from povmbell import bell, cli, measurement, sampler, whichway
        from povmbell.sampler import empirical_chsh

        calls = {"_born": 0, "born_probabilities": 0, "empirical_frequencies": 0}

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for holder in (measurement, sampler, whichway, bell, cli):
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, counted)

        spy(measurement, "_born")
        spy(measurement, "born_probabilities")
        spy(sampler, "empirical_frequencies")
        fields = BELL_PAYLOAD if experiment == "bell" else WW_PAYLOAD
        config = write_config(
            tmp_path, {"experiment": experiment, **fields, "n_events": 3000, "seed": 5}
        )
        out = tmp_path / "events.log"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        # the Born kernel once, on the checked stack; sample takes its distribution
        assert calls == {"_born": 1, "born_probabilities": 0, "empirical_frequencies": 1}
        row = parse_csv(capsys.readouterr().out)[0]
        if experiment == "bell":
            s_empirical = empirical_chsh(read_event_log(out)).s_value
            assert row["s_empirical"] == format(s_empirical, ".17g")

    def test_benchmark_sample_pool_logs_match_their_pinned_digests(self, tmp_path, capsys, monkeypatch):
        # all 576 configs of the benchmark's pool, so the digests it pins are checked on every run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        workloads = types.ModuleType("workloads")  # run from its source: no bytecode is written
        workloads.__file__ = str(path)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # where its dataclass looks itself up
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), workloads.__dict__)
        config_path, out = tmp_path / "config.json", tmp_path / "events.log"
        checked = 0
        for entries in workloads.pinned_pool().values():
            for config, digest in entries:
                config_path.write_text(json.dumps(dict(config, n_events=workloads.N_EVENTS)), encoding="utf-8")
                assert main(["sample", "--config", str(config_path), "--out", str(out)]) == 0
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, config
                checked += 1
        capsys.readouterr()
        assert checked == 576

    @pytest.mark.parametrize("workload", ["sweep", "config-mix"])
    def test_benchmark_tiny_pass_passes_its_output_checks(self, workload, tmp_path, capsys, monkeypatch):
        # one tiny pass of a benchmark workload, each call checked by the
        # benchmark's own output checks as its worker checks them, so that a
        # change that makes the benchmark count failed ops fails here first
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        modules = {}
        for name in ("workloads", "checks"):
            module = types.ModuleType(name)  # run from its source: no bytecode is written
            module.__file__ = str(perfbench / f"{name}.py")
            monkeypatch.setitem(sys.modules, name, module)  # where a dataclass looks itself up
            exec(compile(Path(module.__file__).read_text(encoding="utf-8"), module.__file__, "exec"), module.__dict__)
            modules[name] = module
        workloads, checks = modules["workloads"], modules["checks"]
        calls = workloads.Workload(workload, 77, tiny=True).calls(0, tmp_path)
        kinds = {"sweep"} if workload == "sweep" else {"whichway", "bell", "aspect", "sample"}
        assert {call.kind for call in calls} == kinds
        for call in calls:
            code = main(call.argv)
            out, err = capsys.readouterr()
            assert code == 0, (call.argv, err)
            rows = checks.parse_table(out, call.expect.get("format", "csv"))
            if call.kind != "sample":
                checks.CHECKS[call.kind](rows, call.expect)
                continue
            log_path = Path(call.expect["log_path"])
            readback = read_event_log(log_path)
            chsh = empirical_chsh(readback) if call.expect["experiment"] == "bell" else None
            freqs = empirical_frequencies(readback)
            rewrite = log_path.with_suffix(".rewrite")
            checks.check_sample(rows, call.expect, log_path.read_bytes(), readback, freqs, chsh, rewrite)

    def test_missing_out_is_config_error(self, tmp_path, capsys):
        payload = {
            "experiment": "whichway",
            **WW_PAYLOAD,
            "n_events": 10,
            "seed": 1,
        }
        config = write_config(tmp_path, payload)
        assert main(["sample", "--config", config]) == 2
        capsys.readouterr()


class TestEventLogFile:
    def test_round_trip(self, tmp_path):
        log = sample(
            polarization_pvm(0.0),
            StateDescriptor.pure([0.6, 0.8]),
            250,
            13,
            config_descriptor='{"kind":"test"}',
        )
        path = tmp_path / "events.log"
        write_event_log(log, path)
        assert read_event_log(path) == log

    @pytest.mark.parametrize("seed", [-3, 2**64 - 1, np.int8(-3), np.uint64(2**64 - 1)])
    def test_integer_seeds_round_trip_as_int(self, tmp_path, seed):
        log = EventLog("c", "g", seed, ("a",), [0])
        path = tmp_path / "events.log"
        write_event_log(log, path)
        back = read_event_log(path)
        assert back == log
        assert type(log.seed) is int and type(back.seed) is int and back.seed == seed

    def test_header_contents(self, tmp_path):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 3, 5)
        path = tmp_path / "events.log"
        write_event_log(log, path)
        text = path.read_text(encoding="utf-8")
        assert "# generator=philox" in text
        assert "# seed=5" in text
        assert "# config_sha256=" in text
        assert text.endswith("+\n")

    def test_corrupt_count_detected(self, tmp_path):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 3, 5)
        path = tmp_path / "events.log"
        write_event_log(log, path)
        text = path.read_text(encoding="utf-8").replace("# count=3", "# count=4")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            read_event_log(path)

    @pytest.mark.parametrize(
        ("old", "new"),
        [
            ("# count=3", "# count=three"),
            ("# seed=5", "# seed=5.0"),
            ("# povmbell event log v1\n", ""),
            ("# povmbell event log v1", "# povmbell event log v2"),
            ("# config=", "# config= "),
            ("# seed=5", "# seed=1_0"),
            ("# seed=5", "# seed= 5"),
            ("# seed=5", "# seed=-0"),
            ("# count=3", "# count=\u0663"),
            ("# seed=5\n", "# seed=5 \n"),
            ("# generator=philox\n", "# generator=philox\t\n"),
            ("# count=3\n", "# count=3\r\n"),
            ("# seed=5", "#seed=5"),
            ("# seed=5\n", "# seed=5\n# seed=5\n"),
            ("# seed=5\n", "# seed=5\n# note=x\n"),
            ("# seed=5\n# labels=+ -\n", "# labels=+ -\n# seed=5\n"),
        ],
        ids=[
            "count-not-integer",
            "seed-not-integer",
            "version-missing",
            "version-wrong",
            "sha256-mismatch",
            "seed-underscore",
            "seed-leading-space",
            "seed-negative-zero",
            "count-arabic-indic-digit",
            "seed-trailing-space",
            "generator-trailing-tab",
            "count-trailing-cr",
            "seed-no-space-after-hash",
            "seed-repeated",
            "unknown-key",
            "lines-swapped",
        ],
    )
    def test_malformed_header_is_config_error(self, tmp_path, old, new):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 3, 5)
        path = tmp_path / "events.log"
        write_event_log(log, path)
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            read_event_log(path)
        assert info.value.field == "log"

    @pytest.mark.parametrize(
        "blob",
        [b"", b"# povmbell event log v1", b"# povmbell event log v1\n"],
        ids=["empty", "version-line-without-line-break", "version-line-only"],
    )
    def test_file_cut_in_the_header_is_config_error(self, tmp_path, blob):
        path = tmp_path / "events.log"
        path.write_bytes(blob)
        with pytest.raises(ConfigError) as info:
            read_event_log(path)
        assert info.value.field == "log"

    def test_header_fields_with_inner_and_leading_whitespace_round_trip(self, tmp_path):
        log = EventLog(" a b\tc", " philox x", 0, ("x",), [0])
        path = tmp_path / "events.log"
        write_event_log(log, path)
        assert read_event_log(path) == log

    def test_non_utf8_log_is_config_error(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_bytes(b"# povmbell event log v1\n\xff\xfe\n")
        with pytest.raises(ConfigError):
            read_event_log(path)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        payload = dict(WW_PAYLOAD)
        del payload["gamma"]
        config = write_config(tmp_path, payload)
        assert main(["whichway", "--config", config]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert main(["whichway", "--config", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_invalid_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["whichway", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_kind_mismatch_is_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"kind": "bell", **WW_PAYLOAD})
        assert main(["whichway", "--config", config]) == 2
        capsys.readouterr()

    def test_invariant_violation_is_3(self, tmp_path, capsys, monkeypatch):
        from povmbell import cli as cli_module

        def boom(spec):
            raise InvariantViolationError("synthetic failure")

        monkeypatch.setitem(cli_module._RUNNERS, "whichway", boom)
        config = write_config(tmp_path, WW_PAYLOAD)
        assert main(["whichway", "--config", config]) == 3
        assert "synthetic failure" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["whichway", "sample"])
    def test_a_failed_buffered_stdout_is_4(self, tmp_path, command):
        # with stdout block-buffered, as it is without PYTHONUNBUFFERED, the write fails at
        # main's flush: one i/o error line, exit 4, and nothing left for the exit-time flush
        if command == "whichway":
            argv = [command, "--config", write_config(tmp_path, WW_PAYLOAD)]
        else:
            payload = {**WW_PAYLOAD, "experiment": "whichway", "n_events": 50, "seed": 1}
            argv = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "events.log")]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "povmbell.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env,
                text=True, timeout=60,
            )
        assert (result.returncode, result.stderr) == (4, "i/o error: [Errno 28] No space left on device\n")

    def test_unwritable_out_is_4(self, tmp_path, capsys):
        config = write_config(tmp_path, WW_PAYLOAD)
        bad = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["whichway", "--config", config, "--out", str(bad)]) == 4
        capsys.readouterr()


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("whichway", "martens-sweep", "bell", "aspect", "sample"):
            args = parser.parse_args([command, "--config", "x.json"])
            assert args.command == command

    def test_main_reuses_its_parser_across_calls(self, tmp_path, capsys):
        config = write_config(tmp_path, {"kind": "bell", **BELL_PAYLOAD})
        assert main(["bell", "--config", config]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main(["bell"])
        assert info.value.code == 2
        capsys.readouterr()
        assert main(["bell", "--config", config]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (5, "the command line must be a sequence of strings, got int"),
            ([1], "command-line arguments must be strings, got int"),
            (["whichway", "--config", 3], "command-line arguments must be strings, got int"),
        ],
        ids=["not-a-sequence", "int-token", "int-value"],
    )
    def test_junk_command_line_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: povmbell")
        assert captured.err.endswith(f"povmbell: error: {message}\n")

    def test_spec_dataclass_defaults(self):
        spec = ExperimentSpec(kind="whichway")
        assert spec.format == "csv"
        assert spec.out is None


# command lines for the flag table: plain ones, which it reads, and ones with
# the tokens argparse reads differently from it (abbreviations, "=" forms,
# help, separators, values that int() takes but are not ASCII digits, tokens
# that are not str)
PLAIN_VALUES = {
    "--config": ("x.json", "a b", "", "007", "csv"),
    "--out": ("out.log", "ev,1.log", "5"),
    "--format": ("csv", "json"),
    "--seed": ("0", "5", "007", "18446744073709551616"),
    "--n": ("0", "100000"),
}
COMMAND_TOKENS = (*cli._COMMANDS, "sweep", "Bell", "", "-h", "--config")
FLAG_TOKENS = (
    *cli._FLAGS, "--conf", "--config=x.json", "--seed=5", "-h", "--help", "--", "-", "--N", "--forma",
    Path("--out"),
)
VALUE_TOKENS = (
    "x.json", "a b", "-5", "-", "--", "--out", "-h", "", " 5", "\u0665", "1_0", "+5", "007", "5",
    "1" * 5000, "CSV", "csv", "json", Path("x.json"),
)


def joined(command, pairs):
    return [command, *(token for pair in pairs for token in pair)]


PLAIN_PAIR = st.sampled_from(list(cli._FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(PLAIN_VALUES[flag]))
)
TRAP_PAIR = st.tuples(st.sampled_from(FLAG_TOKENS), st.sampled_from(VALUE_TOKENS))
PAIRS = st.lists(st.one_of(PLAIN_PAIR, TRAP_PAIR), max_size=6)
# plain pairs with --config among them
PLAIN_PAIRS = st.lists(PLAIN_PAIR, max_size=5).flatmap(
    lambda pairs: st.permutations([("--config", "c.json"), *pairs])
)
COMMAND_LINES = st.one_of(
    st.builds(joined, st.sampled_from(list(cli._COMMANDS)), PLAIN_PAIRS),
    st.builds(joined, st.sampled_from(COMMAND_TOKENS), PAIRS),
    # an odd count of flags and values
    st.builds(joined, st.sampled_from(COMMAND_TOKENS), PAIRS).map(lambda argv: argv[:-1]),
    st.lists(st.sampled_from(COMMAND_TOKENS + FLAG_TOKENS + VALUE_TOKENS), max_size=7),
)
ARGPARSE = build_parser()


def argparse_outcome(argv):
    """The Namespace argparse makes of `argv`, or the exception it refuses it with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return ARGPARSE.parse_args(argv)
        except (SystemExit, TypeError) as exc:  # a usage error or help; a token that is not a str
            return exc


class TestFastArgs:
    @settings(max_examples=400, deadline=None)
    @given(COMMAND_LINES)
    def test_reads_what_argparse_reads_or_leaves_the_line_to_it(self, argv):
        fast = cli._fast_args(list(argv))
        if fast is not None:
            slow = argparse_outcome(argv)
            assert fast == slow
            assert {k: type(v) for k, v in vars(fast).items()} == {k: type(v) for k, v in vars(slow).items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["martens-sweep", "--config", "x.json"],
            ["sample", "--config", "c.json", "--out", "a b", "--seed", "007", "--n", "0", "--format", "json"],
            ["bell", "--format", "csv", "--config", "", "--config", "y.json", "--seed", "1" * 30],
        ],
    )
    def test_reads_plain_lines(self, argv):
        fast = cli._fast_args(argv)
        assert fast is not None
        assert fast == ARGPARSE.parse_args(argv)

    def test_flag_table_names_the_parser_options(self):
        commands = next(a for a in ARGPARSE._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(cli._COMMANDS)
        for sub in commands.values():
            options = {a.option_strings[0]: a.dest for a in sub._actions if a.dest != "help"}
            assert options == {flag: name for flag, (name, _) in cli._FLAGS.items()}

    def test_plain_line_does_not_reach_argparse(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, SWEEP_PAYLOAD)
        calls = []
        original = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert main(["martens-sweep", "--config", config]) == 0
        plain = capsys.readouterr()
        assert calls == []
        # an abbreviation is argparse's to read, and gives the same table
        assert main(["martens-sweep", "--conf", config]) == 0
        assert len(calls) == 1
        assert capsys.readouterr() == plain

    def test_main_without_argv_reads_sys_argv(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, {"kind": "bell", **BELL_PAYLOAD})
        assert main(["bell", "--config", config, "--format", "json"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["povmbell", "bell", "--config", config, "--format", "json"])
        assert main() == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setattr(sys, "argv", ["povmbell", "bell", "--config", config, "--format", "CSV"])
        with pytest.raises(SystemExit) as info:
            main(None)
        assert info.value.code == 2
        assert "invalid choice: 'CSV'" in capsys.readouterr().err


def _small_logs(tmp_path):
    """(path, text) of two six-event logs whose label lines share one width: the
    polarization labels '+' and '-' (events - - - + - -), and the Bell labels."""
    logs = [
        sample(polarization_pvm(0.0), StateDescriptor.pure([0.6, 0.8]), 6, 5),
        EventLog("c", "philox", 5, QUAD_LABELS, [0, 5, 10, 15, 6, 9]),
    ]
    paths = [tmp_path / "pvm.log", tmp_path / "bell.log"]
    for log, path in zip(logs, paths):
        write_event_log(log, path)
    return [(path, path.read_text(encoding="utf-8")) for path in paths]


class TestMalformedLogBody:
    # each message is pinned, so that neither path of the reader changes it
    def read_error(self, path, text):
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ConfigError) as info:
            read_event_log(path)
        assert info.value.field == "log"
        return str(info.value)

    def test_event_outside_label_set(self, tmp_path):
        for path, text in _small_logs(tmp_path):
            without_last = text[: text.rindex("\n", 0, -1) + 1]
            message = self.read_error(path, without_last + "zzzzzzz\n")
            assert message == "log: event line 6 'zzzzzzz' is not a label of the set"

    def test_header_line_after_first_event(self, tmp_path):
        for path, text in _small_logs(tmp_path):
            head, _, body = text.partition("# count=6\n")
            lines = body.splitlines(keepends=True)
            # a '# count=' line in the body must not replace the header count
            tampered = head + "# count=6\n" + lines[0] + "# count=9\n" + "".join(lines[1:])
            assert self.read_error(path, tampered) == "log: event line 2 is a header line '# count=9'"

    def test_count_the_body_cannot_hold(self, tmp_path, monkeypatch):
        logs = _small_logs(tmp_path)
        allocated = []
        real_empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k: allocated.append(a) or real_empty(*a, **k))
        for (path, text), width in zip(logs, (2, 6)):
            # a count of 10^15 events would need a petabyte of indices
            message = self.read_error(path, text.replace("# count=6", "# count=1000000000000000"))
            assert message == (
                f"log: header count 1000000000000000 needs at least {width * 10**15} bytes of events, "
                f"the file holds {6 * width}"
            )
            assert allocated == []
            # 7 events need one event line more than the 6 events hold
            message = self.read_error(path, text.replace("# count=6", "# count=7"))
            assert message.endswith(f"needs at least {7 * width} bytes of events, the file holds {6 * width}")

    @pytest.mark.parametrize(
        ("old", "new"),
        [
            ("# count=6", "# count=-1"),
            ("# count=6", "# count=5"),
            ("# labels={a} {b}", "# labels={a} {a}"),
            ("# labels={a} {b}", "# labels={a}  {b}"),
        ],
        ids=["negative-count", "fewer-than-events", "duplicate-labels", "empty-label"],
    )
    def test_header_disagreeing_with_body(self, tmp_path, old, new):
        bell_duplicate = ["++,++", *QUAD_LABELS[:1], *QUAD_LABELS[2:]]
        messages = {
            "# count=-1": ["header count must be nonnegative, got -1"] * 2,
            "# count=5": ["header count 5 is less than the number of events"] * 2,
            "# labels={a} {a}": [
                "event line 1 '-' is not a label of the set",
                f"event log header: event labels must be unique, got {bell_duplicate}",
            ],
            "# labels={a}  {b}": ["event log header: event labels must be nonempty strings, got ''"] * 2,
        }
        for (path, text), (a, b), message in zip(_small_logs(tmp_path), (("+", "-"), QUAD_LABELS[:2]), messages[new]):
            old_line, new_line = old.format(a=a, b=b), new.format(a=a, b=b)
            assert old_line in text
            assert self.read_error(path, text.replace(old_line, new_line, 1)) == "log: " + message

    def test_blank_and_crlf_lines_are_not_events(self, tmp_path):
        for (path, text), first_plus in zip(_small_logs(tmp_path), ("4 '+\\r'", "1 '++,++\\r'")):
            assert self.read_error(path, text + "\n") == "log: event line 7 '' is not a label of the set"
            message = self.read_error(path, text.replace("+\n", "+\r\n"))
            assert message == f"log: event line {first_plus} is not a label of the set"

    def test_missing_final_line_break_is_rejected(self, tmp_path):
        # cut short mid-line, the last event "ab" would read as the label "a"
        path = tmp_path / "events.log"
        write_event_log(EventLog("c", "philox", 0, ("a", "ab"), [1, 1]), path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("ab\nab\n")
        cuts = [(path, text[:-2]), (path, text[:-1])]
        # a body of one label width cut short is shorter than its count needs, unless the count drops
        cuts += [(path, text.replace("# count=6", "# count=5")[:-1]) for path, text in _small_logs(tmp_path)]
        for path, cut in cuts:
            message = self.read_error(path, cut)
            assert message == "log: the last event line has no line break: the log is cut short"

    @pytest.mark.parametrize(
        ("labels", "row", "shown"),
        [
            (("+", "-"), "x\n", "'x'"),
            (QUAD_LABELS, "++,+0\n", "'++,+0'"),  # a byte its column never holds
            (QUAD_LABELS, "++;++\n", "'++;++'"),  # a column of one byte in every label
            (QUAD_LABELS, "++,++\r", "'++,++\\r+-,+-'"),  # the line-break column: two lines become one
            (("ab", "ba"), "aa\n", "'aa'"),  # every byte in its column, but no label
        ],
        ids=["pvm", "bell-varying-column", "bell-fixed-column", "bell-line-break", "no-label-code"],
    )
    def test_same_width_bad_row_after_the_first_chunk(self, tmp_path, labels, row, shown):
        n = LOG_CHUNK + 10
        path = tmp_path / "events.log"
        write_event_log(EventLog("c", "philox", 0, labels, np.arange(n) % len(labels)), path)
        blob = path.read_bytes()
        line = LOG_CHUNK + 5  # event line 65541 holds label 65540 % 16 = 4, '+-,++', of the Bell set
        at = len(blob) - (n - line + 1) * len(row.encode())
        text = (blob[:at] + row.encode() + blob[at + len(row.encode()) :]).decode("utf-8")
        assert self.read_error(path, text) == f"log: event line {line} {shown} is not a label of the set"

    def test_same_width_hash_line(self, tmp_path):
        for (path, text), row in zip(_small_logs(tmp_path), ("#", "# x=1")):
            lines = text.splitlines(keepends=True)
            lines[7 + 2] = row + "\n"  # the third event line
            assert self.read_error(path, "".join(lines)) == f"log: event line 3 is a header line {row!r}"


LABEL = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1,
    max_size=6,
).filter(lambda label: not label.startswith("#") and not any(c.isspace() for c in label))
# characters by their UTF-8 byte length, to build labels of one byte width
CHARS_BY_BYTES = {1: "+-,#0a", 2: "\u00e9\u00f1", 3: "\u20ac\u3042", 4: "\U0001d11e\U0001f600"}


@st.composite
def label_of_width(draw, width):
    chars = []
    while width:
        size = draw(st.integers(1, min(width, 4)))
        chars.append(draw(st.sampled_from(CHARS_BY_BYTES[size])))
        width -= size
    return "".join(chars)


def one_width_label_sets(max_size):
    """Label sets of one UTF-8 byte width (the table codec's case)."""
    return st.integers(1, 7).flatmap(
        lambda width: st.lists(
            label_of_width(width).filter(lambda label: not label.startswith("#")),
            min_size=1,
            max_size=max_size,
            unique=True,
        )
    )


def label_sets(max_size):
    """Label sets of any widths, or of one UTF-8 byte width."""
    any_width = st.lists(LABEL, min_size=1, max_size=max_size, unique=True)
    return st.one_of(any_width, one_width_label_sets(max_size))


class TestEventLogRoundTrip:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        label_sets(12),
        st.sampled_from([0, 1, LOG_CHUNK - 1, LOG_CHUNK + 1, 2 * LOG_CHUNK + 3]),
        st.integers(0, 2**32 - 1),
    )
    def test_write_read_round_trip_and_bytes(self, labels, n, seed):
        indices = np.random.default_rng(seed).integers(0, len(labels), n)
        log = EventLog('{"kind":"test"}', "philox", seed, labels, indices=indices)
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = Path(tmp) / "events.log", Path(tmp) / "oracle.log"
            write_event_log(log, path)
            write_event_log_per_line(log, oracle)
            assert path.read_bytes() == oracle.read_bytes()
            assert read_event_log(path) == log

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # half the examples edit body rows of one label width, which keeps the
        # body size, so the table decoder reads them
        st.just("row")
        | st.sampled_from(["drop", "duplicate", "swap", "edit", "replace", "insert", "delete"]),
        st.integers(0, 5),
        st.data(),
    )
    def test_a_mutated_log_is_refused_or_rewrites_to_its_bytes(self, mutation, n, data):
        labels = data.draw(one_width_label_sets(4) if mutation == "row" else label_sets(4), label="labels")
        indices = np.random.default_rng(n).integers(0, len(labels), n)
        log = EventLog('{"kind":"test"}', "philox", 5, labels, indices)
        with tempfile.TemporaryDirectory() as tmp:
            path, rewrite = Path(tmp) / "events.log", Path(tmp) / "rewrite.log"
            write_event_log(log, path)
            blob = path.read_bytes()
            if mutation in ("replace", "insert", "delete"):
                last = len(blob) - (mutation != "insert")
                body = len(blob) - sum(len(label.encode("utf-8")) + 1 for label in log.events)
                # half the edits land in the body, where a same-size edit meets the table decoder
                at = data.draw(st.integers(0, last) | st.integers(min(body, last), last), label="byte")
                new = b"" if mutation == "delete" else data.draw(st.binary(min_size=1, max_size=1))
                blob = blob[:at] + new + blob[at + (mutation != "insert") :]
            elif mutation == "row":
                # one row becomes a label line with one byte drawn (a byte of that
                # column in some label line, or any byte), or two rows swap; a log
                # of no events stays as it is
                width = len(labels[0].encode("utf-8")) + 1
                start = len(blob) - n * width
                rows = [blob[at : at + width] for at in range(start, len(blob), width)]
                if rows:
                    i, j = (data.draw(st.integers(0, n - 1), label=name) for name in ("row", "other row"))
                    if data.draw(st.booleans(), label="swap"):
                        rows[i], rows[j] = rows[j], rows[i]
                    else:
                        lines = [label.encode("utf-8") + b"\n" for label in labels]
                        row = bytearray(data.draw(st.sampled_from(lines), label="label line"))
                        k = data.draw(st.integers(0, width - 1), label="column")
                        column = sorted({line[k] for line in lines})
                        row[k] = data.draw(st.sampled_from(column) | st.integers(0, 255), label="byte")
                        rows[i] = bytes(row)
                blob = blob[:start] + b"".join(rows)
            else:
                lines = blob.splitlines(keepends=True)
                i = data.draw(st.integers(0, 6), label="line")  # the version line or a header line
                if mutation == "drop":
                    del lines[i]
                elif mutation == "duplicate":
                    lines.insert(i, lines[i])
                elif mutation == "swap":
                    j = data.draw(st.integers(0, 6), label="other line")
                    lines[i], lines[j] = lines[j], lines[i]
                else:
                    # keep the whole line, its `# key=` or just `#`, then add text;
                    # a lone surrogate encodes to bytes that are not UTF-8
                    key = lines[i].partition(b"=")[0] + b"="
                    head = data.draw(st.sampled_from([lines[i][:-1], key, b"#"]))
                    text = data.draw(st.text(st.sampled_from("05 \t\r#=x\u00e9\udcff"), max_size=3), label="text")
                    lines[i] = head + text.encode("utf-8", "surrogatepass") + b"\n"
                blob = b"".join(lines)
            path.write_bytes(blob)
            try:
                back = read_event_log(path)
            except ConfigError as exc:
                assert exc.field == "log"
            else:
                write_event_log(back, rewrite)
                assert rewrite.read_bytes() == blob

    def test_two_byte_indices_round_trip(self, tmp_path):
        indices = np.random.default_rng(3).integers(0, 300, LOG_CHUNK + 7)
        # labels of mixed widths, and of one width
        for labels in (tuple(f"l{i}" for i in range(300)), tuple(f"l{i:03d}" for i in range(300))):
            log = EventLog("c", "philox", 3, labels, indices=indices)
            path, oracle = tmp_path / "events.log", tmp_path / "oracle.log"
            write_event_log(log, path)
            write_event_log_per_line(log, oracle)
            assert path.read_bytes() == oracle.read_bytes()
            back = read_event_log(path)
            assert back.indices.dtype == np.uint16
            assert back == log

    @pytest.mark.parametrize(
        "labels",
        [
            ("+", "-"),
            WW_LABELS,
            QUAD_LABELS,
            ("\u00e9\u20ac", "\u20ac\u00e9", "ab\u20ac", "\U0001f600a"),
            tuple(f"l{i:03d}" for i in range(300)),
        ],
        ids=["pvm", "whichway", "bell", "multibyte", "300-labels"],
    )
    def test_one_width_logs_take_the_table_decoder(self, tmp_path, monkeypatch, labels):
        results = []
        table_decoder = sampler._read_fixed_width
        monkeypatch.setattr(
            sampler, "_read_fixed_width", lambda *args: results.append(table_decoder(*args)) or results[-1]
        )
        log = EventLog("c", "philox", 0, labels, np.arange(2 * LOG_CHUNK + 3) % len(labels))
        path = tmp_path / "events.log"
        write_event_log(log, path)
        assert read_event_log(path) == log
        assert results == [True]
        # a row that is no label line sends the whole body to the line reader
        blob = path.read_bytes()
        path.write_bytes(blob[:-2] + b"\xff\n")  # a byte that UTF-8 text never holds
        with pytest.raises(ConfigError, match=f"event line {log.count} "):
            read_event_log(path)
        assert results == [True, False]


class TestEventLogMemory:
    def test_peak_is_the_index_array_plus_a_chunk(self, tmp_path):
        self.check_peaks(tmp_path, 10**6)

    def test_a_copy_of_the_indices_would_show(self, tmp_path):
        # a second index array of n bytes breaks a bound only when n is above
        # its chunk allowance, so at this size the bounds also pin that
        # `sample` and `read_event_log` keep the array they made
        assert 10**7 > 80 * LOG_CHUNK
        self.check_peaks(tmp_path, 10**7)

    @staticmethod
    def check_peaks(tmp_path, n):
        # tracemalloc counts bytes allocated, so this is deterministic; it
        # checks memory, not time
        bell = build_bell(
            BellConfig(
                arm1=WhichWayConfig(0.4, 0.0, math.pi / 4),
                arm2=WhichWayConfig(0.7, math.pi / 8, 3 * math.pi / 8),
                state=singlet_state(),
            )
        )
        path = tmp_path / "events.log"
        sample(bell.povm, bell.config.state, 10, 7)  # one-off set-up outside the measurement
        tracemalloc.start()
        try:
            log = sample(bell.povm, bell.config.state, n, 7)
            sample_peak = tracemalloc.get_traced_memory()[1]
            write_event_log(log, path)
            del log
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = read_event_log(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back.count == n and back.indices.itemsize == 1
        # one byte an event, plus working memory set by the chunk: sample's
        # float64 variates and edge test, read's block of rows or of lines
        assert sample_peak <= n + 24 * LOG_CHUNK
        assert read_peak <= n + 80 * LOG_CHUNK
