"""Seeded Monte Carlo event generation from Born-rule distributions.

Events are drawn by inverse-CDF lookup over the POVM's fixed label order
using a Philox counter-based generator, so a (povm, state, seed) triple
always reproduces the identical event sequence, across runs and platforms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bell import QUAD_LABELS, ChshReport, chsh_report_from_distribution
from .errors import DomainError
from .measurement import OutcomeDistribution, Povm, born_probabilities
from .qcore import DEFAULT_POLICY, NumericPolicy, StateDescriptor

__all__ = [
    "GENERATOR_NAME",
    "EventLog",
    "sample",
    "empirical_frequencies",
    "empirical_chsh",
]

GENERATOR_NAME = "philox"
_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class EventLog:
    """An ordered record of sampled outcome labels plus the settings behind it.

    `config` is an opaque descriptor of the experiment that produced the log
    (the CLI stores canonical config JSON there); `label_set` is the POVM's
    full outcome alphabet in effect order, which may include labels that
    never occurred.
    """

    config: str
    generator: str
    seed: int
    label_set: tuple[str, ...]
    events: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_set", tuple(self.label_set))
        object.__setattr__(self, "events", tuple(self.events))
        allowed = set(self.label_set)
        for event in self.events:
            if event not in allowed:
                raise DomainError(f"event label {event!r} is not in the log's label set")

    @property
    def count(self) -> int:
        return len(self.events)


def sample(
    povm: Povm,
    state: StateDescriptor,
    n: int,
    seed: int,
    *,
    config_descriptor: str = "",
    distribution: OutcomeDistribution | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> EventLog:
    """Draw `n` outcomes of `povm` in `state`.

    Sampling inverts the cumulative distribution over the POVM's label order;
    the uniform variates come from numpy's Philox generator seeded with
    `seed` (a 64-bit unsigned integer). n = 0 is allowed and yields an empty
    log. A caller that already holds the Born distribution of `povm` in
    `state` passes it as `distribution`; it must carry the POVM's labels in
    the POVM's order.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"event count must be a nonnegative integer, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")

    if distribution is None:
        distribution = born_probabilities(state, povm, policy=policy)
    elif distribution.labels != povm.labels:
        raise DomainError(
            f"distribution labels {distribution.labels} differ from the POVM's {povm.labels}"
        )
    cdf = np.cumsum(distribution.probs)
    cdf[-1] = max(float(cdf[-1]), 1.0)  # guard the searchsorted upper edge
    rng = np.random.Generator(np.random.Philox(int(seed)))
    draws = rng.random(int(n))
    indices = np.searchsorted(cdf, draws, side="right")
    labels = distribution.labels
    events = tuple(labels[int(i)] for i in indices)
    descriptor = config_descriptor or f"povm(dim={povm.dim},labels={','.join(labels)})"
    return EventLog(
        config=descriptor,
        generator=GENERATOR_NAME,
        seed=int(seed),
        label_set=labels,
        events=events,
    )


def empirical_frequencies(log: EventLog) -> dict[str, float]:
    """Relative frequency of every label in the log's alphabet (0 when absent)."""
    counts = Counter(log.events)
    n = log.count
    if n == 0:
        return {label: 0.0 for label in log.label_set}
    return {label: counts.get(label, 0) / n for label in log.label_set}


def empirical_chsh(
    log: EventLog,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ChshReport:
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
    dist = OutcomeDistribution.from_values(
        QUAD_LABELS, [freqs[label] for label in QUAD_LABELS], policy=policy
    )
    return chsh_report_from_distribution(dist, policy=policy)
