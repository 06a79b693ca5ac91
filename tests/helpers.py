"""Seeded random-object generators shared across the test modules.

Every generator takes an explicit numpy Generator so each test controls its
own seed and stays deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from povmbell import Povm, StateDescriptor, cli, identity, martens_bound, projector_from_angle, validate_povm
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
    effects = [inv_sqrt @ raw @ inv_sqrt for raw in raws]
    stack = [(m + m.conj().T) / 2.0 for m in effects]
    return validate_povm(stack, [f"e{i}" for i in range(n_effects)])


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


def whichway_effects_reference(gammas, theta, theta_prime) -> np.ndarray:
    """Reference which-way effects: numpy arrays over a float64 array of gammas.

    The array build that the scalar kernel `povmbell.whichway._effects`
    replaced, of shape gammas.shape + (4, 2, 2): the effects of every gamma
    in WW_LABELS order. The kernel must give each gamma's stack bit for bit.
    """
    g = np.asarray(gammas, dtype=np.float64)[..., None, None]
    transmitted = g * projector_from_angle(theta)
    reflected = (1.0 - g) * projector_from_angle(theta_prime)
    stack = np.zeros(transmitted.shape[:-2] + (4, 2, 2), dtype=np.complex128)
    stack[..., 1, :, :] = transmitted
    stack[..., 2, :, :] = reflected
    stack[..., 3, :, :] = identity(2) - transmitted - reflected
    return stack


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


def render_csv_reference(columns, rows) -> str:
    """Reference CSV table: a header, then one `csv.writer` row per row dict.

    This is the per-cell renderer that the batch renderer
    `povmbell.cli.render_csv` replaced; tables must keep its bytes.
    """

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(row[c]) for c in columns])
    return buf.getvalue()


def render_json_reference(spec, rows) -> str:
    """Reference JSON table: `json.dumps` of the config and the row dicts, indent 2.

    The whole-document renderer that `povmbell.cli.render_json` and its
    streamed frame replaced; tables must keep its bytes.
    """
    clean_rows = []
    for row in rows:
        clean = {}
        for key, value in row.items():
            if isinstance(value, np.floating):
                value = float(value)
            elif isinstance(value, np.integer):
                value = int(value)
            clean[key] = value
        clean_rows.append(clean)
    return json.dumps({"config": cli.spec_to_dict(spec), "rows": clean_rows}, indent=2) + "\n"


def curve_rows_reference(gammas, bound: float) -> np.ndarray:
    """Reference sweep rows: numpy arrays over a float64 array of gammas in [0, 1].

    The array build that the column kernel `povmbell.infometrics._curve_columns`
    replaced: the entropies J(1 - gamma) and J(gamma) of a stack of both r
    rows, the slack, and then the rows (gamma, j_lambda, j_mu, bound, slack)
    of shape (n, 5), one column a field. The kernel's columns, transposed,
    must be these rows bit for bit.
    """
    g = np.asarray(gammas, dtype=np.float64)
    r = np.stack((1.0 - g, g))
    total = r + 1.0
    # r = 0 contributes 0 ln 0 = 0: its ratio is left at 1, whose log is 0
    ratio = np.divide(r, total, out=np.ones_like(r), where=r > 0.0)
    j_lambda, j_mu = -(r * np.log(ratio) + np.log(1.0 / total)) / 2 + 0.0  # never -0.0
    slack = j_lambda + j_mu - bound
    rows = np.empty((g.size, 5))
    for i, column in enumerate((g, j_lambda, j_mu, bound, slack)):
        rows[:, i] = column
    return rows


def martens_sweep_rows(spec) -> tuple[list[str], list[dict]]:
    """Reference sweep table: the whole grid's `curve_rows_reference`, one dict a row."""
    columns = ["gamma", "j_lambda", "j_mu", "bound", "slack"]
    rows = curve_rows_reference(spec.gamma_grid, martens_bound(math.radians(spec.delta_deg), 0.0))
    return columns, [dict(zip(columns, row)) for row in rows.tolist()]


def reference_table(spec) -> str:
    """The table `povmbell.cli.main` must write for a valid spec, by the references.

    A sweep is evaluated by `martens_sweep_rows`; a one-row command by its
    runner, whose one row is handed over as a dict. A sample runner writes
    its event log again, to the same bytes.
    """
    if spec.kind == "sweep-martens":
        columns, rows = martens_sweep_rows(spec)
    else:
        columns, batches = cli._RUNNERS[spec.kind](spec)
        rows = [dict(zip(columns, row)) for batch in batches for row in batch]
    if spec.format == "csv":
        return render_csv_reference(columns, rows)
    return render_json_reference(spec, rows)
