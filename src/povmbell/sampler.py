"""Seeded Monte Carlo event generation from Born-rule distributions.

Events are drawn by inverse-CDF lookup over the POVM's fixed label order
using a Philox counter-based generator, so a (povm, state, seed) triple
always reproduces the identical event sequence, across runs and platforms.
An event log holds its events as one read-only array of indices into its
label set, one byte per event for up to 256 labels; the uniform variates
are drawn LOG_CHUNK at a time, so sampling needs the index array plus one
chunk of working memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import QUAD_LABELS, ChshReport, chsh_report_from_distribution
from .errors import DomainError
from .measurement import OutcomeDistribution, Povm, born_probabilities
from .qcore import ArrayRecord, StateDescriptor

__all__ = [
    "GENERATOR_NAME",
    "LOG_CHUNK",
    "EventLog",
    "check_label_set",
    "index_dtype",
    "sample",
    "empirical_frequencies",
    "empirical_chsh",
]

GENERATOR_NAME = "philox"
_MAX_SEED = 2**64 - 1

# Events per chunk of drawing, counting, writing and reading. Philox draws in
# chunks continue one stream, so chunking never changes a log's events; the
# chunk bounds working memory (here about 1 MB of float64 variates and their
# searchsorted positions) independently of the event count.
LOG_CHUNK = 1 << 16


def check_label_set(label_set: Sequence[str]) -> tuple[str, ...]:
    """Return `label_set` as a tuple, or raise DomainError if the v1 log format
    cannot round-trip it.

    The format stores the labels space-separated on one header line and one
    event label per line, and reads '#' lines as header, so the labels must be
    nonempty, unique, free of whitespace and must not start with '#'; the set
    must hold at least one label.
    """
    labels = tuple(label_set)
    if not labels:
        raise DomainError("an event log needs at least one label")
    for label in labels:
        if not isinstance(label, str) or not label:
            raise DomainError(f"event labels must be nonempty strings, got {label!r}")
        if any(char.isspace() for char in label):
            raise DomainError(f"event label {label!r} contains whitespace")
        if label.startswith("#"):
            raise DomainError(f"event label {label!r} starts with '#'")
    if len(set(labels)) != len(labels):
        raise DomainError(f"event labels must be unique, got {list(labels)}")
    return labels


def index_dtype(n_labels: int) -> np.dtype:
    """Smallest unsigned integer dtype that indexes `n_labels` labels (uint8 up to 256)."""
    return np.min_scalar_type(max(n_labels - 1, 0))


@dataclass(frozen=True, eq=False, init=False)
class EventLog(ArrayRecord):
    """An ordered record of sampled outcomes plus the settings behind it.

    `config` is an opaque descriptor of the experiment that produced the log
    (the CLI stores canonical config JSON there); `label_set` is the POVM's
    full outcome alphabet in effect order, which may include labels that
    never occurred. The events are held as `indices`, a read-only array of
    positions in `label_set` with dtype `index_dtype(len(label_set))`;
    `events` derives the tuple of labels from it.

    Construct with the events either as labels (`events=`) or as indices
    (`indices=`); a writable or differently typed index array is copied.
    Raises DomainError for a seed that is not an integer (Python or numpy,
    not bool; it is stored as an int), for an event outside the label set,
    for a label set the log format cannot round-trip (see
    `check_label_set`), or for a `config` or `generator` with a line break
    or trailing whitespace, which its one header line cannot round-trip.
    """

    config: str
    generator: str
    seed: int
    label_set: tuple[str, ...]
    indices: np.ndarray

    def __init__(
        self,
        config: str,
        generator: str,
        seed: int,
        label_set: Sequence[str],
        events: Sequence[str] | None = None,
        *,
        indices: object | None = None,
    ) -> None:
        # the header stores the seed as a decimal integer, which reads back as int
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise DomainError(f"event log seed must be an integer, got {seed!r}")
        label_set = check_label_set(label_set)
        for name, text in (("config", config), ("generator", generator)):
            # one header line each, read back with trailing whitespace stripped
            if "\n" in text or text != text.rstrip():
                raise DomainError(f"event log {name} {text!r} has a line break or trailing whitespace")
        dtype = index_dtype(len(label_set))
        if (events is None) == (indices is None):
            raise TypeError("give the events either as labels (events=) or as indices (indices=)")
        if events is not None:
            position = {label: i for i, label in enumerate(label_set)}
            try:
                found = [position[event] for event in events]
            except KeyError as exc:
                raise DomainError(
                    f"event label {exc.args[0]!r} is not in the log's label set"
                ) from None
            array = np.array(found, dtype=dtype)
        else:
            array = np.asarray(indices)
            if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
                raise DomainError(f"event indices must be a 1-D integer array, got {array.dtype} {array.shape}")
            if array.size and not 0 <= array.min() <= array.max() < len(label_set):
                raise DomainError(f"event indices must lie in [0, {len(label_set)})")
            if array.flags.writeable or array.dtype != dtype:
                array = array.astype(dtype)
        array.setflags(write=False)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "label_set", label_set)
        object.__setattr__(self, "indices", array)

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def events(self) -> tuple[str, ...]:
        """The events as labels (builds one Python reference per event)."""
        return tuple(map(self.label_set.__getitem__, self.indices.tolist()))


def sample(
    povm: Povm,
    state: StateDescriptor,
    n: int,
    seed: int,
    *,
    config_descriptor: str = "",
    distribution: OutcomeDistribution | None = None,
) -> EventLog:
    """Draw `n` outcomes of `povm` in `state`.

    Sampling inverts the cumulative distribution over the POVM's label order;
    the uniform variates come from numpy's Philox generator seeded with
    `seed` (a 64-bit unsigned integer), drawn LOG_CHUNK at a time into a
    preallocated index array. n = 0 is allowed and yields an empty log. A
    caller that already holds the Born distribution of `povm` in `state`
    passes it as `distribution`; it must carry the POVM's labels in the
    POVM's order and finite probabilities.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"event count must be a nonnegative integer, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")

    if distribution is None:
        distribution = born_probabilities(state, povm)
    elif distribution.labels != povm.labels:
        raise DomainError(
            f"distribution labels {distribution.labels} differ from the POVM's {povm.labels}"
        )
    labels = distribution.labels
    cdf = np.cumsum(distribution.probs)
    if not np.isfinite(cdf[-1]):
        raise DomainError(f"outcome probabilities must be finite, got {distribution.probs.tolist()}")
    cdf[-1] = max(float(cdf[-1]), 1.0)  # guard the searchsorted upper edge
    rng = np.random.Generator(np.random.Philox(int(seed)))
    n = int(n)
    indices = np.empty(n, dtype=index_dtype(len(labels)))
    for start in range(0, n, LOG_CHUNK):
        stop = min(start + LOG_CHUNK, n)
        indices[start:stop] = np.searchsorted(cdf, rng.random(stop - start), side="right")
    indices.setflags(write=False)
    descriptor = config_descriptor or f"povm(dim={povm.dim},labels={','.join(labels)})"
    return EventLog(
        config=descriptor,
        generator=GENERATOR_NAME,
        seed=int(seed),
        label_set=labels,
        indices=indices,
    )


def empirical_frequencies(log: EventLog) -> dict[str, float]:
    """Relative frequency of every label in the log's alphabet (0 when absent)."""
    n = log.count
    if n == 0:
        return {label: 0.0 for label in log.label_set}
    counts = np.zeros(len(log.label_set), dtype=np.int64)
    # bincount casts its input to intp (8 bytes an event), so count by chunks
    for start in range(0, n, LOG_CHUNK):
        counts += np.bincount(log.indices[start : start + LOG_CHUNK], minlength=len(counts))
    return {label: count / n for label, count in zip(log.label_set, counts.tolist())}


def empirical_chsh(log: EventLog) -> ChshReport:
    """CHSH statistics estimated from one quadrivariate event log.

    Every event carries all four detector signs at once, so a single log
    determines all four correlations; the single-run bound |s| <= 2 therefore
    holds for the estimate up to sampling noise.
    """
    if set(log.label_set) != set(QUAD_LABELS):
        raise DomainError("event log does not carry quadrivariate outcome labels")
    if log.count == 0:
        raise DomainError("cannot estimate correlations from an empty event log")
    freqs = empirical_frequencies(log)
    dist = OutcomeDistribution.from_values(QUAD_LABELS, [freqs[label] for label in QUAD_LABELS])
    return chsh_report_from_distribution(dist)
