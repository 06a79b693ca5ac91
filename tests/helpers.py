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

from povmbell import (
    OutcomeDistribution,
    Povm,
    StateDescriptor,
    born_probabilities,
    build_bell,
    build_whichway,
    chsh_aspect,
    chsh_report_from_distribution,
    cli,
    empirical_chsh,
    empirical_frequencies,
    identity,
    joint_distribution,
    marginals_and_nonideality,
    marginals_from_distribution,
    martens_bound,
    martens_check,
    projector_from_angle,
    quad_distribution,
    sample,
    validate_povm,
    write_event_log,
)
from povmbell.bell import BellConfig
from povmbell.qcore import _trusted
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


def unchecked_povm(stack, labels) -> Povm:
    """A Povm of `stack` and `labels` that no check has passed, by the library's
    private trusted path: the one stand-in for tests that need a measurement's
    labels and dimension but not valid effects (the public `Povm` checks them)."""
    stack = np.array(stack, dtype=np.complex128)
    stack.setflags(write=False)
    return _trusted(Povm, stack=stack, labels=tuple(labels))


def unchecked_distribution(labels, probs) -> OutcomeDistribution:
    """An OutcomeDistribution of `labels` and `probs` as given, which no check has passed,
    by the library's private trusted path: the one stand-in for tests that need a
    distribution off the simplex, which the public constructor refuses."""
    probs = np.array(probs, dtype=np.float64)
    probs.setflags(write=False)
    return _trusted(OutcomeDistribution, labels=tuple(labels), probs=probs)


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

    The array build that the scalar kernel `povmbell.whichway._effect_rows`
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


def state_text_reference(state) -> str:
    """The state cell of a one-row table: the name, or the amplitude pairs as `json.dumps` writes them.

    The text the CLI wrote before it formatted each amplitude by `repr`. The
    config block of a JSON table, whose amplitude list the CLI also writes by
    `repr` now, is `render_json_reference`'s `json.dumps` of the whole table.
    """
    if isinstance(state, str):
        return state
    return json.dumps([[re, im] for re, im in state], separators=(",", ":"))


def _arm_config(gamma, theta_deg, theta_prime_deg) -> WhichWayConfig:
    return WhichWayConfig(gamma, math.radians(theta_deg), math.radians(theta_prime_deg))


def _bell_config(spec) -> BellConfig:
    state = cli.resolve_state(spec.state, 4)
    arm1 = _arm_config(spec.gamma1, spec.theta1_deg, spec.theta1_prime_deg)
    return BellConfig(arm1, _arm_config(spec.gamma2, spec.theta2_deg, spec.theta2_prime_deg), state)


def _p_cells(dist) -> dict:
    return {f"p_{cli._slug(label)}": p for label, p in dist.as_dict().items()}


def config_cells_reference(spec) -> dict:
    fields = cli._EXPERIMENTS[spec.kind][0]
    cell = {"state": state_text_reference(spec.state)}
    return {name: cell[name] if name in cell else getattr(spec, name) for name in fields}


def _chsh_cells_reference(report) -> dict:
    """The correlation and CHSH cells of a bell or aspect row, read off a `ChshReport`."""
    cells = {f"E_{cli._slug(pair)}": value for pair, value in report.correlations.items()}
    cells.update(s_value=report.s_value, violates=report.violates, s_symmetric_max=report.s_symmetric_max)
    return cells


def whichway_row_reference(spec) -> dict:
    """The `whichway` row by the layered path the CLI's one arm kernel replaced:
    `build_whichway`, `joint_distribution`, `marginals_from_distribution`,
    `marginals_and_nonideality` and `martens_check`, each on its records."""
    whichway = build_whichway(_arm_config(spec.gamma, spec.theta_deg, spec.theta_prime_deg))
    dist = joint_distribution(whichway, cli.resolve_state(spec.state, 2))
    marg_d, marg_dprime = marginals_from_distribution(dist)
    lam, mu = marginals_and_nonideality(whichway)
    report = martens_check(whichway)
    row = {**config_cells_reference(spec), **_p_cells(dist)}
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
    return row


def bell_row_reference(spec) -> dict:
    """The `bell` row by the layered path: `BellConfig`, `build_bell`, `quad_distribution`
    and `chsh_report_from_distribution`."""
    dist = quad_distribution(build_bell(_bell_config(spec)))
    report = chsh_report_from_distribution(dist)
    return {**config_cells_reference(spec), **_p_cells(dist), **_chsh_cells_reference(report)}


def aspect_row_reference(spec) -> dict:
    angles = (spec.theta1_deg, spec.theta1_prime_deg, spec.theta2_deg, spec.theta2_prime_deg)
    report = chsh_aspect(cli.resolve_state(spec.state, 4), *map(math.radians, angles))
    return {**config_cells_reference(spec), **_chsh_cells_reference(report)}


def sample_row_reference(spec) -> dict:
    """The `sample` summary row, its event log written again to `spec.out`: the POVM
    by `build_whichway`, or `build_bell` of two arms, then the library's `sample`,
    `write_event_log`, `empirical_frequencies` and `empirical_chsh`."""
    if spec.experiment == "whichway":
        povm = build_whichway(_arm_config(spec.gamma, spec.theta_deg, spec.theta_prime_deg)).povm
        state = cli.resolve_state(spec.state, 2)
    else:
        config = _bell_config(spec)
        povm, state = build_bell(config).povm, config.state
    payload = {k: v for k, v in cli.spec_to_dict(spec).items() if k not in ("out", "format")}
    descriptor = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    analytic = born_probabilities(state, povm)
    log = sample(povm, state, spec.n_events, spec.seed, config_descriptor=descriptor)
    write_event_log(log, spec.out)
    freqs = empirical_frequencies(log)
    row = {
        "experiment": spec.experiment,
        "n_events": log.count,
        "seed": log.seed,
        "generator": log.generator,
        "config_sha256": hashlib.sha256(descriptor.encode("utf-8")).hexdigest(),
        "log_path": spec.out,
    }
    row.update((f"freq_{cli._slug(label)}", freqs[label]) for label in povm.labels)
    row.update(_p_cells(analytic))
    deviations = [abs(freqs[label] - analytic.prob(label)) for label in povm.labels]
    row["max_abs_deviation"] = max(deviations) if log.count else None
    if spec.experiment == "bell":
        row["s_analytic"] = chsh_report_from_distribution(analytic).s_value
        row["s_empirical"] = empirical_chsh(log).s_value if log.count else None
    return row


# kind -> the reference row of its one-row command
ROW_REFERENCES = {
    "whichway": whichway_row_reference,
    "bell": bell_row_reference,
    "aspect": aspect_row_reference,
    "sample": sample_row_reference,
}


def reference_table(spec) -> str:
    """The table `povmbell.cli.main` must write for a valid spec, by the references.

    A sweep is evaluated by `martens_sweep_rows`, a one-row command by its
    entry of ROW_REFERENCES. A sample reference writes its event log again.
    """
    if spec.kind == "sweep-martens":
        columns, rows = martens_sweep_rows(spec)
    else:
        row = ROW_REFERENCES[spec.kind](spec)
        columns, rows = list(row), [row]
    if spec.format == "csv":
        return render_csv_reference(columns, rows)
    return render_json_reference(spec, rows)
