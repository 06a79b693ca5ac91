"""Tests for config parsing, CLI runs, output formats, and exit codes."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from povmbell import ConfigError, InvariantViolationError
from povmbell.cli import (
    ExperimentSpec,
    build_parser,
    main,
    read_event_log,
    resolve_state,
    spec_from_dict,
    spec_to_dict,
    write_event_log,
)
from povmbell.sampler import sample
from povmbell.measurement import polarization_pvm
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


class TestSpecRoundTrip:
    def test_whichway(self):
        spec = spec_from_dict({"kind": "whichway", **WW_PAYLOAD})
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_sweep_with_list_grid(self):
        spec = spec_from_dict(
            {"kind": "sweep-martens", "delta_deg": 45.0, "gamma_grid": [0.0, 0.5, 1.0]}
        )
        assert spec.gamma_grid == (0.0, 0.5, 1.0)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_sweep_with_range_grid(self):
        spec = spec_from_dict(
            {
                "kind": "sweep-martens",
                "delta_deg": 45.0,
                "gamma_grid": {"start": 0.0, "stop": 1.0, "count": 101},
            }
        )
        assert len(spec.gamma_grid) == 101
        assert spec.gamma_grid[0] == 0.0
        assert spec.gamma_grid[-1] == 1.0
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

        calls = {"born_probabilities": 0, "empirical_frequencies": 0}

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for holder in (measurement, sampler, whichway, bell, cli):
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, counted)

        spy(measurement, "born_probabilities")
        spy(sampler, "empirical_frequencies")
        fields = BELL_PAYLOAD if experiment == "bell" else WW_PAYLOAD
        config = write_config(
            tmp_path, {"experiment": experiment, **fields, "n_events": 3000, "seed": 5}
        )
        out = tmp_path / "events.log"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        assert calls == {"born_probabilities": 1, "empirical_frequencies": 1}
        row = parse_csv(capsys.readouterr().out)[0]
        if experiment == "bell":
            s_empirical = empirical_chsh(read_event_log(out)).s_value
            assert row["s_empirical"] == format(s_empirical, ".17g")

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
        ],
        ids=["count-not-integer", "seed-not-integer", "version-missing", "version-wrong", "sha256-mismatch"],
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

    def test_spec_dataclass_defaults(self):
        spec = ExperimentSpec(kind="whichway")
        assert spec.format == "csv"
        assert spec.out is None
