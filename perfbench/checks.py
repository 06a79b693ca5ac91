"""Output checks: every call's output is compared with closed forms or pins.

Each check function raises CheckFailed with a reason; the runner counts the
ops of a call whose check fails as failed. Tolerances come from the
program's own NumericPolicy. The references here are computed independently
of the program: closed forms for the which-way and sweep tables, a direct
<psi| A (x) B |psi> for the pooled correlations, and pinned sha256 digests
for event logs. A read-back log is checked only through the public API: its
count, its frequencies against the summary row, and the bytes that
``write_event_log`` makes of it against the file it was read from. This
module holds its own reference to ``write_event_log``, so the tracer, which
replaces names in ``povmbell`` modules only, does not count the check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from povmbell.cli import write_event_log
from povmbell.qcore import DEFAULT_POLICY

TOL = DEFAULT_POLICY.atol_positivity


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual: object, expected: float, name: str) -> None:
    _require(
        isinstance(actual, (int, float)) and abs(float(actual) - expected) <= TOL,
        f"{name} = {actual!r}, expected {expected!r}",
    )


def _cell(text: str) -> object:
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of a CSV or JSON table as dicts of Python values."""
    if fmt == "json":
        return json.loads(text)["rows"]
    reader = csv.DictReader(io.StringIO(text))
    return [{key: _cell(value) for key, value in row.items()} for row in reader]


def _check_probabilities(row: dict) -> None:
    probs = [value for key, value in row.items() if key.startswith("p_")]
    _require(bool(probs), "no probability columns")
    _require(all(p >= -TOL for p in probs), f"negative probability in {probs}")
    _require(abs(sum(probs) - 1.0) <= TOL, f"probabilities sum to {sum(probs)!r}")


def _h(gamma: float) -> float:
    """Average row entropy of the lambda matrix [[g, 0], [1-g, 1]], in nats."""

    def xlnx(x: float) -> float:
        return x * math.log(x) if x > 0.0 else 0.0

    return 0.5 * (xlnx(2.0 - gamma) - xlnx(1.0 - gamma))


def _martens_bound(delta_deg: float) -> float:
    delta = math.radians(delta_deg)
    return -math.log(max(math.cos(delta) ** 2, math.sin(delta) ** 2))


def _state_vector(state: object) -> np.ndarray:
    named = {
        "H": [1.0, 0.0],
        "V": [0.0, 1.0],
        "diag": [2**-0.5, 2**-0.5],
        "singlet": [0.0, 2**-0.5, -(2**-0.5), 0.0],
    }
    if isinstance(state, str):
        return np.array(named[state], dtype=complex)
    vec = np.array([complex(re, im) for re, im in state])
    return vec / np.linalg.norm(vec)


def _sign_operator(theta_deg: float) -> np.ndarray:
    """Click sign (+1 transmitted, -1 absorbed) of an analyzer at theta."""
    t = math.radians(theta_deg)
    return np.array([[math.cos(2 * t), math.sin(2 * t)], [math.sin(2 * t), -math.cos(2 * t)]])


def _projector(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    v = np.array([math.cos(t), math.sin(t)])
    return np.outer(v, v)


def check_sweep(rows: list[dict], expect: dict) -> None:
    gammas = expect["gammas"]
    _require(len(rows) == len(gammas), f"{len(rows)} rows for {len(gammas)} grid points")
    bound = _martens_bound(expect["delta_deg"])
    for row, gamma in zip(rows, gammas):
        _require(row["gamma"] == gamma, f"gamma {row['gamma']!r} != {gamma!r}")
        _close(row["j_lambda"], _h(gamma), "j_lambda")
        _close(row["j_mu"], _h(1.0 - gamma), "j_mu")
        _close(row["bound"], bound, "bound")
        _close(row["slack"], _h(gamma) + _h(1.0 - gamma) - bound, "slack")
        _require(row["slack"] >= -TOL, f"Martens bound violated, slack {row['slack']!r}")


def check_whichway(rows: list[dict], expect: dict) -> None:
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    _check_probabilities(row)
    gamma = expect["gamma"]
    psi = _state_vector(expect["state"])
    p_theta = float(np.real(np.vdot(psi, _projector(expect["theta_deg"]) @ psi)))
    p_prime = float(np.real(np.vdot(psi, _projector(expect["theta_prime_deg"]) @ psi)))
    _close(row["p_pp"], 0.0, "p_pp")
    _close(row["p_pm"], gamma * p_theta, "p_pm")
    _close(row["p_mp"], (1.0 - gamma) * p_prime, "p_mp")
    _close(row["lambda_00"], gamma, "lambda_00")
    _close(row["mu_00"], 1.0 - gamma, "mu_00")
    _close(row["j_lambda"], _h(gamma), "j_lambda")
    _close(row["j_mu"], _h(1.0 - gamma), "j_mu")
    _close(row["martens_bound"], _martens_bound(expect["theta_deg"] - expect["theta_prime_deg"]), "martens_bound")
    _require(row["martens_satisfied"] is True, "Martens bound reported unsatisfied")


def _check_chsh(row: dict, limit: float) -> None:
    s = row["s_value"]
    _require(abs(s) <= limit + TOL, f"|S| = {abs(s)!r} exceeds {limit!r}")
    _require(row["s_symmetric_max"] <= limit + TOL, f"s_symmetric_max {row['s_symmetric_max']!r}")
    e = [row["E_D1_D2"], row["E_D1_D2p"], row["E_D1p_D2"], row["E_D1p_D2p"]]
    _close(s, e[0] - e[1] + e[2] + e[3], "s_value")


def check_bell(rows: list[dict], expect: dict) -> None:
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    _check_probabilities(rows[0])
    _check_chsh(rows[0], 2.0)


def check_aspect(rows: list[dict], expect: dict) -> None:
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    psi = _state_vector(expect["state"])
    for column, a, b in (
        ("E_D1_D2", "theta1_deg", "theta2_deg"),
        ("E_D1_D2p", "theta1_deg", "theta2_prime_deg"),
        ("E_D1p_D2", "theta1_prime_deg", "theta2_deg"),
        ("E_D1p_D2p", "theta1_prime_deg", "theta2_prime_deg"),
    ):
        op = np.kron(_sign_operator(expect[a]), _sign_operator(expect[b]))
        _close(row[column], float(np.real(np.vdot(psi, op @ psi))), column)
    _check_chsh(row, 2.0 * math.sqrt(2.0))


def check_sample(
    rows: list[dict],
    expect: dict,
    log_bytes: bytes,
    readback: object,
    freqs: dict,
    chsh: object,
    rewrite_path: Path,
) -> None:
    """Pinned digest, faithful read-back, and the summary row against the read-back log."""
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    digest = hashlib.sha256(log_bytes).hexdigest()
    _require(digest == expect["sha256"], f"event log sha256 {digest} != pinned {expect['sha256']}")
    try:
        write_event_log(readback, rewrite_path)
        rewritten = rewrite_path.read_bytes()
    finally:
        rewrite_path.unlink(missing_ok=True)
    _require(rewritten == log_bytes, "read_event_log did not read back the written log")
    _require(readback.count == expect["n_events"] == row["n_events"], "event count mismatch")
    _check_probabilities(row)
    for label, value in freqs.items():
        slug = label.replace("+", "p").replace("-", "m").replace(",", "_")
        _require(row[f"freq_{slug}"] == value, f"freq_{slug} {row[f'freq_{slug}']!r} != read-back {value!r}")
    _require(abs(sum(freqs.values()) - 1.0) <= TOL, "read-back frequencies do not sum to 1")
    config_sha = hashlib.sha256(readback.config.encode("utf-8")).hexdigest()
    _require(row["config_sha256"] == config_sha, "config_sha256 does not match the log header")
    if expect["experiment"] == "bell":
        _require(abs(row["s_analytic"]) <= 2.0 + TOL, f"|s_analytic| = {abs(row['s_analytic'])!r}")
        _require(row["s_empirical"] == chsh.s_value, "s_empirical differs from the read-back log")
        _require(abs(chsh.s_value) <= 2.0 + TOL, f"|s_empirical| = {abs(chsh.s_value)!r}")


CHECKS = {
    "sweep": check_sweep,
    "whichway": check_whichway,
    "bell": check_bell,
    "aspect": check_aspect,
}
