"""Seeded random-object generators shared across the test modules.

Every generator takes an explicit numpy Generator so each test controls its
own seed and stays deterministic.
"""

from __future__ import annotations

import hashlib

import numpy as np

from povmbell import Povm, StateDescriptor, validate_povm
from povmbell.bell import BellConfig
from povmbell.whichway import WhichWayConfig


def random_pure(rng: np.random.Generator, dim: int) -> StateDescriptor:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateDescriptor.pure(vec / np.linalg.norm(vec))


def random_density(rng: np.random.Generator, dim: int) -> StateDescriptor:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return StateDescriptor.density(rho / np.trace(rho).real)


def random_state(rng: np.random.Generator, dim: int) -> StateDescriptor:
    if rng.random() < 0.5:
        return random_pure(rng, dim)
    return random_density(rng, dim)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) * (scale / 2.0)


def random_povm(rng: np.random.Generator, dim: int, n_effects: int) -> Povm:
    # squash random positive operators through S^(-1/2) so they sum to I
    raws = []
    for _ in range(n_effects):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(g @ g.conj().T)
    total = np.sum(raws, axis=0)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    effects = []
    for i, raw in enumerate(raws):
        m = inv_sqrt @ raw @ inv_sqrt
        effects.append(((m + m.conj().T) / 2.0, f"e{i}"))
    return validate_povm(effects)


def random_angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, np.pi))


def random_whichway_config(rng: np.random.Generator) -> WhichWayConfig:
    return WhichWayConfig(
        gamma=float(rng.uniform(0.0, 1.0)),
        theta=random_angle(rng),
        theta_prime=random_angle(rng),
    )


def random_bell_config(
    rng: np.random.Generator,
    state: StateDescriptor | None = None,
) -> BellConfig:
    if state is None:
        state = random_pure(rng, 4)
    return BellConfig(
        arm1=random_whichway_config(rng),
        arm2=random_whichway_config(rng),
        state=state,
    )


def write_event_log_per_line(log, path) -> None:
    """Reference event-log writer: the header, then one write per event.

    This is the line-by-line writer that `povmbell.cli.write_event_log`
    replaced; the chunked writer must produce the same bytes.
    """
    sha = hashlib.sha256(log.config.encode("utf-8")).hexdigest()
    lines = [
        "# povmbell event log v1",
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
