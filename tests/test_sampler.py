"""Unit tests for seeded event sampling and empirical estimators."""

from __future__ import annotations

import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from helpers import random_pure, unchecked_distribution, unchecked_povm
from povmbell import sampler
from povmbell import (
    GENERATOR_NAME,
    LOG_CHUNK,
    BellConfig,
    DomainError,
    EventLog,
    InvariantViolationError,
    OutcomeDistribution,
    ShapeMismatchError,
    StateDescriptor,
    WhichWayConfig,
    born_probabilities,
    build_bell,
    build_whichway,
    chsh_single_run,
    empirical_chsh,
    empirical_frequencies,
    polarization_pvm,
    sample,
    singlet_state,
)

STANDARD_WW = WhichWayConfig(0.5, 0.0, math.pi / 4)
STANDARD_BELL = BellConfig(
    arm1=WhichWayConfig(0.5, 0.0, math.pi / 4),
    arm2=WhichWayConfig(0.5, math.pi / 8, 3 * math.pi / 8),
    state=singlet_state(),
)


class TestEventLog:
    @pytest.mark.parametrize("seed", ["abc", True, 1.5, None, np.bool_(True), np.float64(2.0)])
    def test_rejects_a_seed_its_log_cannot_read_back(self, seed):
        # the log header stores the seed as a decimal integer
        with pytest.raises(DomainError, match=r"^event log seed must be an integer, got "):
            EventLog("c", "g", seed, ("a",), [0])

    def test_count(self):
        log = EventLog(config="c", generator="g", seed=0, label_set=("a",), indices=[0, 0])
        assert log.count == 2

    def test_events_held_as_read_only_indices(self):
        log = EventLog("c", "g", 0, ("a", "bb", "c"), np.array([2, 0, 2, 1]))
        assert log.indices.dtype == np.uint8
        assert log.indices.tolist() == [2, 0, 2, 1]
        assert log.events == ("c", "a", "c", "bb")
        with pytest.raises(ValueError):
            log.indices[0] = 1

    def test_writable_or_wide_indices_are_copied(self):
        # and read-only narrow ones too: the caller owns their memory and may reopen it
        narrow = np.array([1, 0, 1], dtype=np.uint8)
        narrow.setflags(write=False)
        source = np.array([1, 0, 1], dtype=np.int64)
        by_indices = EventLog("c", "g", 0, ("a", "b"), indices=source)
        assert by_indices == EventLog("c", "g", 0, ("a", "b"), narrow)
        assert by_indices.indices.dtype == np.uint8
        source[0] = 0  # the log holds its own copy of a writable array
        assert by_indices.events == ("b", "a", "b")
        wide = source.copy()
        wide.setflags(write=False)
        view = narrow.copy()[...]  # read-only, but its base is not
        view.setflags(write=False)
        for src in (narrow, narrow.copy(), wide, view):
            assert not np.shares_memory(EventLog("c", "g", 0, ("a", "b"), src).indices, src)

    def test_index_dtype_grows_with_the_alphabet(self):
        labels = tuple(f"l{i}" for i in range(257))
        log = EventLog("c", "g", 0, labels, [256, 0])
        assert log.indices.dtype == np.uint16
        assert log.events == ("l256", "l0")
        assert EventLog("c", "g", 0, labels[:256], [255]).indices.dtype == np.uint8

    @pytest.mark.parametrize("indices", [[0, 2], [-1], [0.0, 1.0], [[0, 1]], [[0], [0, 0]]])
    def test_rejects_bad_indices(self, indices):
        # numpy cannot shape a ragged nesting at all; the others are arrays of the wrong kind
        ragged = indices == [[0], [0, 0]]
        with pytest.raises(ShapeMismatchError if ragged else DomainError):
            EventLog("c", "g", 0, ("a", "b"), indices=indices)

    def test_label_tuple_is_not_read_as_indices(self):
        with pytest.raises(DomainError, match="integer array"):
            EventLog("c", "g", 0, ("a", "b"), ("b", "a"))

    @pytest.mark.parametrize(
        "label_set",
        [("a", "a"), ("a", ""), ("a", "b c"), ("a", "b\tc"), ("a", "b\n"), ("#a", "b"), ()],
        ids=["duplicate", "empty-label", "space", "tab", "newline", "hash", "no-labels"],
    )
    def test_rejects_label_sets_the_format_cannot_hold(self, label_set):
        with pytest.raises(DomainError):
            EventLog("c", "g", 0, label_set, [])

    def test_every_whitespace_code_point_in_a_label_is_refused(self):
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        assert len(spaces) == 29
        for space in spaces:
            for label in (f"a{space}b", f"{space}a", f"a{space}", space, space * 2):
                message = f"^{re.escape(f'event label {label!r} contains whitespace')}$"
                with pytest.raises(DomainError, match=message):
                    EventLog("c", "g", 0, ("x", label), [])

    @pytest.mark.parametrize(
        ("config", "generator"),
        [
            ("a\nb", "philox"),
            ("x ", "philox"),
            ("x\r", "philox"),
            ("c", "philox "),
            ("c", "phi\nlox"),
            (1, "g"),
            ("c", None),
        ],
        ids=[
            "config-newline",
            "config-trailing-space",
            "config-trailing-cr",
            "generator-trailing-space",
            "generator-newline",
            "config-not-a-string",
            "generator-not-a-string",
        ],
    )
    def test_rejects_header_fields_the_format_cannot_hold(self, config, generator):
        # the header holds each on one line, and a line with trailing whitespace is refused
        with pytest.raises(DomainError):
            EventLog(config, generator, 0, ("x",), [0])

    @pytest.mark.parametrize(
        ("config", "generator", "label"),
        [("c\udcff", "philox", "x"), ("c", "phi\udcfflox", "x"), ("c", "philox", "x\udcff")],
        ids=["config", "generator", "label"],
    )
    def test_rejects_text_that_does_not_encode_as_utf8(self, config, generator, label):
        # a lone surrogate has no UTF-8 encoding, so the log's text cannot hold it
        with pytest.raises(DomainError, match="UTF-8"):
            EventLog(config, generator, 0, (label,), [0])

    def test_label_with_inner_hash_is_allowed(self):
        assert EventLog("c", "g", 0, ("a#b",), [0]).count == 1

    def test_equality(self):
        log = EventLog("c", "g", 0, ("a", "b"), [0, 1])
        assert log == EventLog("c", "g", 0, ("a", "b"), [0, 1])
        assert log != EventLog("c", "g", 0, ("a", "b"), [1, 0])
        assert log != EventLog("c", "g", 1, ("a", "b"), [0, 1])
        assert log != EventLog("c", "g", 0, ("a", "b"), [0])
        with pytest.raises(TypeError):
            hash(log)


class TestRememberedChecks:
    """A label set of exact strings is checked once, and a log's decode and encode plans
    made once."""

    @pytest.mark.parametrize("label, shown", [(1, "1"), (1.0, "1.0"), (True, "True")])
    def test_equal_tuples_of_other_labels_are_checked_each_time(self, label, shown):
        # (1,), (1.0,) and (True,) equal the tuple of no str label, so none reuses a check
        assert sampler._check_label_set(("1",)) == ("1",)
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^event labels must be nonempty strings, got {shown}$"):
                sampler._check_label_set((label,))
            with pytest.raises(DomainError):
                EventLog("c", GENERATOR_NAME, 0, (label,), [0])

    def test_a_refused_set_of_strings_is_refused_again(self):
        for _ in range(2):
            with pytest.raises(DomainError, match="contains whitespace"):
                sampler._check_label_set(["a b", "c"])

    def test_a_str_subclass_is_checked_each_time(self):
        class Label(str):
            pass

        before = sampler._checked_str_labels.cache_info().currsize
        assert sampler._check_label_set((Label("x"),)) == ("x",)
        assert sampler._checked_str_labels.cache_info().currsize == before

    def test_the_decode_plan_is_made_once_per_label_set(self, tmp_path):
        log = sample(build_bell(STANDARD_BELL).povm, singlet_state(), 300, 5)
        path = tmp_path / "events.log"
        sampler.write_event_log(log, path)
        sampler._decode_plan.cache_clear()
        assert sampler.read_event_log(path) == log
        assert sampler.read_event_log(path) == log
        info = sampler._decode_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        lines = tuple(label.encode() + b"\n" for label in log.label_set)
        fixed, varying, table = sampler._decode_plan(lines)
        assert not table.flags.writeable
        assert all(not lut.flags.writeable for _, lut in varying)

    @pytest.mark.parametrize("labels", [None, ("a", "bb", "é")], ids=["bell", "mixed-widths"])
    def test_the_encode_plan_is_made_once_per_label_set(self, tmp_path, labels):
        log = sample(build_bell(STANDARD_BELL).povm, singlet_state(), 300, 5)
        if labels is not None:
            log = EventLog("c", GENERATOR_NAME, 1, labels, [0, 2, 1, 2, 0])
        sampler._encode_plan.cache_clear()
        for name in ("a.log", "b.log"):
            sampler.write_event_log(log, tmp_path / name)
        info = sampler._encode_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()
        assert sampler.read_event_log(tmp_path / "a.log") == log
        text, table = sampler._encode_plan(log.label_set)
        assert text == " ".join(log.label_set) and not table.flags.writeable
        assert table.tolist() == [label.encode() + b"\n" for label in log.label_set]
        assert (table.dtype == object) == (labels is not None)


class TestSample:
    def test_empty_log(self):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 0, 7)
        assert log.count == 0
        assert log.events == ()
        assert log.label_set == ("+", "-")
        assert log.generator == GENERATOR_NAME
        assert log.seed == 7

    def test_deterministic_outcome_for_eigenstate(self):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 500, 11)
        assert set(log.events) == {"+"}

    def test_same_seed_reproduces_exactly(self):
        ww = build_whichway(STANDARD_WW)
        state = StateDescriptor.pure([1.0, 0.0])
        log1 = sample(ww.povm, state, 2000, 123, config_descriptor="x")
        log2 = sample(ww.povm, state, 2000, 123, config_descriptor="x")
        assert log1 == log2

    def test_different_seed_differs(self):
        ww = build_whichway(STANDARD_WW)
        state = StateDescriptor.pure([1.0, 0.0])
        log1 = sample(ww.povm, state, 2000, 123)
        log2 = sample(ww.povm, state, 2000, 124)
        assert log1.events != log2.events

    def test_events_respect_label_set(self):
        rng = np.random.default_rng(601)
        ww = build_whichway(STANDARD_WW)
        log = sample(ww.povm, random_pure(rng, 2), 1000, 5)
        assert set(log.events) <= set(log.label_set)
        # the impossible double click never occurs
        assert "++" not in set(log.events)

    def test_invalid_counts_and_seeds(self):
        pvm = polarization_pvm(0.0)
        state = StateDescriptor.pure([1.0, 0.0])
        with pytest.raises(DomainError):
            sample(pvm, state, -1, 0)
        with pytest.raises(DomainError):
            sample(pvm, state, 2.5, 0)
        with pytest.raises(DomainError):
            sample(pvm, state, True, 0)
        with pytest.raises(DomainError):
            sample(pvm, state, 10, -1)
        with pytest.raises(DomainError):
            sample(pvm, state, 10, 2**64)

    def test_numpy_integers_accepted(self):
        pvm = polarization_pvm(0.0)
        state = StateDescriptor.pure([1.0, 0.0])
        log = sample(pvm, state, np.int64(10), np.uint64(3))
        assert log.count == 10

    def test_frequency_convergence_over_seeds(self):
        # binomial 4-sigma envelope per (seed, outcome); expect ~all inside
        ww = build_whichway(STANDARD_WW)
        state = StateDescriptor.pure([1.0, 0.0])
        expected = {"++": 0.0, "+-": 0.5, "-+": 0.25, "--": 0.25}
        n = 100_000
        inside = 0
        total = 0
        for seed in range(100):
            freqs = empirical_frequencies(sample(ww.povm, state, n, seed))
            for label, p in expected.items():
                total += 1
                sigma = math.sqrt(p * (1.0 - p) / n)
                if abs(freqs[label] - p) <= 4.0 * sigma:
                    inside += 1
        assert inside / total >= 0.99

    def test_rejects_non_finite_distribution(self):
        pvm = polarization_pvm(0.0)
        bad = unchecked_distribution(pvm.labels, [np.nan, 1.0])
        with pytest.raises(DomainError):
            sample(pvm, StateDescriptor.pure([1.0, 0.0]), 10, 0, distribution=bad)

    def test_a_distribution_off_one_is_refused_before_sampling(self):
        # it used to be drawn from as if renormalized: frequencies {+: 0.693, -: 0.307}
        with pytest.raises(InvariantViolationError, match="sum to 1.4"):
            sample(
                polarization_pvm(0.0),
                StateDescriptor.pure([1, 0]),
                1000,
                1,
                distribution=OutcomeDistribution(("+", "-"), [0.7, 0.7]),
            )

    def test_rejects_negative_dust_the_constructor_lets_through(self):
        pvm = polarization_pvm(0.0)
        dust = OutcomeDistribution(pvm.labels, [-5e-11, 1.0 + 5e-11])
        with pytest.raises(DomainError, match="nonnegative"):
            sample(pvm, StateDescriptor.pure([1.0, 0.0]), 10, 3, distribution=dust)

    def test_rejects_negative_probabilities(self):
        # a cdf that falls has no inverse; edge counting and searchsorted would disagree on it
        ww = build_whichway(STANDARD_WW)
        bad = unchecked_distribution(ww.povm.labels, [0.7, -0.4, 0.2, 0.5])
        with pytest.raises(DomainError, match="nonnegative"):
            sample(ww.povm, StateDescriptor.pure([1.0, 0.0]), 10, 3, distribution=bad)

    def test_default_descriptor_mentions_labels(self):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 1, 0)
        assert "+" in log.config


class TestEmpiricalFrequencies:
    def test_all_labels_present(self):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 100, 3)
        freqs = empirical_frequencies(log)
        assert set(freqs) == {"+", "-"}
        assert freqs["+"] == 1.0
        assert freqs["-"] == 0.0

    def test_empty_log_gives_zeros(self):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 0, 3)
        assert empirical_frequencies(log) == {"+": 0.0, "-": 0.0}

    def test_matches_counter(self):
        ww = build_whichway(STANDARD_WW)
        log = sample(ww.povm, StateDescriptor.pure([0.6, 0.8]), 5000, 77)
        counts = Counter(log.events)
        freqs = empirical_frequencies(log)
        for label in log.label_set:
            assert freqs[label] == counts.get(label, 0) / 5000


class TestEmpiricalChsh:
    def test_matches_analytic_at_moderate_n(self):
        bell = build_bell(STANDARD_BELL)
        log = sample(bell.povm, STANDARD_BELL.state, 100_000, 2024)
        got = empirical_chsh(log)
        want = chsh_single_run(bell)
        assert abs(got.s_value - want.s_value) <= 0.05
        assert list(got.correlations) == list(want.correlations)

    def test_single_run_bound_holds_empirically(self):
        # every event contributes +-2 to the combination, so the estimate
        # cannot leave [-2, 2] regardless of sampling noise
        bell = build_bell(STANDARD_BELL)
        for seed in (1, 2, 3):
            log = sample(bell.povm, STANDARD_BELL.state, 2000, seed)
            report = empirical_chsh(log)
            assert abs(report.s_value) <= 2.0 + 1e-12
            assert not report.violates

    def test_reproducible_for_fixed_seed(self):
        bell = build_bell(STANDARD_BELL)
        r1 = empirical_chsh(sample(bell.povm, STANDARD_BELL.state, 1000, 99))
        r2 = empirical_chsh(sample(bell.povm, STANDARD_BELL.state, 1000, 99))
        assert r1 == r2

    def test_rejects_wrong_label_set(self):
        log = sample(polarization_pvm(0.0), StateDescriptor.pure([1.0, 0.0]), 10, 0)
        with pytest.raises(DomainError):
            empirical_chsh(log)

    def test_rejects_empty_log(self):
        bell = build_bell(STANDARD_BELL)
        log = sample(bell.povm, STANDARD_BELL.state, 0, 0)
        with pytest.raises(DomainError):
            empirical_chsh(log)


class TestChunkedDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_chunked_philox_equals_one_shot_stream(self, seed):
        n = 2 * LOG_CHUNK + 3
        one_shot = np.random.Generator(np.random.Philox(seed)).random(n)
        rng = np.random.Generator(np.random.Philox(seed))
        chunked = np.concatenate(
            [rng.random(min(LOG_CHUNK, n - start)) for start in range(0, n, LOG_CHUNK)]
        )
        assert np.array_equal(chunked, one_shot)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_sample_equals_one_shot_inverse_cdf(self, seed):
        bell = build_bell(STANDARD_BELL)
        n = 2 * LOG_CHUNK + 3
        log = sample(bell.povm, STANDARD_BELL.state, n, seed)
        cdf = np.cumsum(born_probabilities(STANDARD_BELL.state, bell.povm).probs)
        cdf[-1] = max(cdf[-1], 1.0)
        draws = np.random.Generator(np.random.Philox(seed)).random(n)
        assert np.array_equal(log.indices, np.searchsorted(cdf, draws, side="right"))


def reference_indices(probs, n, seed):
    """Inverse-CDF indices by Philox draws in LOG_CHUNK chunks and searchsorted."""
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.Generator(np.random.Philox(seed))
    chunks = [
        np.searchsorted(cdf, rng.random(min(LOG_CHUNK, n - start)), side="right")
        for start in range(0, n, LOG_CHUNK)
    ]
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)


def _with_zeros(k, seed):
    """k random probabilities, every third one zero (so the cdf repeats edges)."""
    probs = np.random.default_rng(seed).random(k)
    probs[::3] = 0.0
    return probs / probs.sum()


DRAW_CASES = {
    "k1": [1.0],
    "k2": [0.3, 0.7],
    "k4-zeros": [0.25, 0.0, 0.0, 0.75],
    "k4-zero-last": [0.5, 0.5, 0.0, 0.0],
    "k16-zeros": _with_zeros(16, 1),
    "k300-zeros": _with_zeros(300, 2),
    "sum-just-below-1": [0.1] * 10,  # sums to 1 - 2**-53
    "sum-0.9": [0.3, 0.3, 0.3],
}
# off the simplex: the public constructor refuses it, so its test builds it unchecked
OFF_SIMPLEX = {"sum-0.9"}


class TestDrawReference:
    @pytest.mark.parametrize("n", [0, 1, LOG_CHUNK - 1, LOG_CHUNK + 1, 2 * LOG_CHUNK + 3])
    @pytest.mark.parametrize("case", sorted(DRAW_CASES))
    def test_indices_equal_chunked_searchsorted(self, case, n):
        probs = np.asarray(DRAW_CASES[case], dtype=np.float64)
        labels = tuple(f"o{i}" for i in range(len(probs)))
        # with a distribution given, `sample` reads the POVM's labels and dim, not its effects
        povm = unchecked_povm(np.zeros((len(labels), 1, 1)), labels)
        made = unchecked_distribution if case in OFF_SIMPLEX else OutcomeDistribution
        log = sample(povm, None, n, 11, distribution=made(labels, probs))
        assert np.array_equal(log.indices, reference_indices(probs, n, 11))
