"""Hash what `povmbell.cli.main` writes for seeded random command lines.

Not a pytest module: a tool for checking that a change to the CLI keeps its
bytes. It runs `--lines` random command lines of every command (whichway,
martens-sweep, bell, aspect, sample) through `cli.main` in one process, in a
temporary directory, and prints one sha256 over each line's command line,
exit code, stdout, stderr and every file the line wrote. The lines cover CSV
and JSON chosen by the config or by `--format`, tables on stdout and by
`--out`, named states and amplitude lists, edge transmissivities and angles,
both forms of a sweep grid, the `--seed` and `--n` overrides, and about
`--faults` percent of lines with one faulted field or flag. The lines depend
on `--seed` alone, so two trees that write the same bytes print the same
digest. Run it from a checkout, once for each tree:

    PYTHONPATH=src python tests/digest_cli.py --lines 5000 --seed 1
    PYTHONPATH=/path/to/other/checkout/src python tests/digest_cli.py --lines 5000 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from povmbell import cli

CONFIG, TABLE, LOG = "config.json", "table.out", "events.log"
EDGE_GAMMAS = (0.0, 1.0, -0.0, 0, 1, 5e-324, 1.0 - 2**-53, 2**-53, 0.5)
EDGE_ANGLES = (0.0, -0.0, 45.0, 90.0, 180.0, -90.0, 360.0, 22.5, 1e-300, 1e6, -1e6, 0)
# values that a field of the wrong kind, or out of its range, may get
FAULTS = (None, "x", True, -1, 2, 1.5, [1.0], {}, float("nan"), float("inf"), -1e-300, 10**400, "bogus")
BELL_ANGLES = ("theta1_deg", "theta1_prime_deg", "theta2_deg", "theta2_prime_deg")


def gamma(rng: random.Random) -> float:
    return rng.choice(EDGE_GAMMAS) if rng.random() < 0.3 else rng.random()


def angle(rng: random.Random) -> float:
    return rng.choice(EDGE_ANGLES) if rng.random() < 0.3 else rng.uniform(-360.0, 360.0)


def state(rng: random.Random, dim: int) -> object:
    if rng.random() < 0.5:
        return rng.choice(("H", "V", "diag")) if dim == 2 else "singlet"
    scale = rng.choice((1.0, 1.0, 1.0, 1e-200, 1e300))
    amplitudes: list = []
    for _ in range(dim):
        re, im = rng.gauss(0.0, 1.0) * scale, rng.gauss(0.0, 1.0) * scale
        amplitudes.append(re if rng.random() < 0.3 else [re, im])
    return amplitudes


def grid(rng: random.Random) -> object:
    count = rng.choice((1, 2, 3, 10, 30, 41)) if rng.random() < 0.98 else 5000
    if rng.random() < 0.5:
        start, stop = sorted((gamma(rng), gamma(rng)))
        return {"start": start, "stop": stop, "count": count}
    return [gamma(rng) for _ in range(count)]


def payload(rng: random.Random, command: str) -> dict:
    """A valid config of `command`, without kind, format or out."""
    if command == "whichway":
        arm = {"gamma": gamma(rng), "theta_deg": angle(rng), "theta_prime_deg": angle(rng)}
        return {**arm, "state": state(rng, 2)}
    if command == "martens-sweep":
        return {"delta_deg": angle(rng), "gamma_grid": grid(rng)}
    if command == "bell":
        gammas = {"gamma1": gamma(rng), "gamma2": gamma(rng)}
        return {**gammas, **{a: angle(rng) for a in BELL_ANGLES}, "state": state(rng, 4)}
    if command == "aspect":
        return {**{a: angle(rng) for a in BELL_ANGLES}, "state": state(rng, 4)}
    experiment = rng.choice(("whichway", "bell"))
    fields = payload(rng, experiment)
    return {"experiment": experiment, **fields, "n_events": rng.randrange(3000), "seed": rng.randrange(2**64)}


def command_line(rng: random.Random, faults: float) -> tuple[list[str], str | None]:
    """One command line and the config text it reads (None: no config file is written)."""
    command = rng.choice(tuple(cli._COMMANDS))
    config = payload(rng, command)
    argv = [command, "--config", CONFIG]
    if rng.random() < 0.5:
        config["kind"] = cli._COMMANDS[command][0]
    form = rng.random()
    if form < 0.25:
        config["format"] = "json"
    elif form < 0.5:
        argv += ["--format", "json"]
    out = LOG if command == "sample" else (TABLE if rng.random() < 0.3 else None)
    if out is not None:
        if rng.random() < 0.5:
            config["out"] = out
        else:
            argv += ["--out", out]
    if command == "sample" and rng.random() < 0.2:
        argv += ["--seed", str(rng.randrange(2**32)), "--n", str(rng.randrange(3000))]
    text: str | None = json.dumps(config)
    if rng.random() < faults / 100.0:
        fault = rng.randrange(6)
        if fault == 0:
            config[rng.choice(sorted(config))] = rng.choice(FAULTS)
        elif fault == 1:
            config["bogus"] = 1
        elif fault == 2:
            del config[rng.choice(sorted(config))]
        elif fault == 3:
            config["kind"] = rng.choice(cli.KINDS)
        elif fault == 4:
            argv += rng.choice((["--format", "xml"], ["--seed", "-1"], ["--n", "x"], ["--bogus", "1"]))
        text = json.dumps(config)
        if fault == 5:
            text = rng.choice((None, text[:-1], text.replace(",", ",\r\n", 1) + "}", "\ufeff" + text, ""))
    return argv, text


def run(lines: int, seed: int, faults: float) -> str:
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(lines):
        argv, text = command_line(rng, faults)
        if text is not None:
            Path(CONFIG).write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        pieces = [json.dumps([argv, code]), stdout.getvalue(), stderr.getvalue()]
        pieces = [piece.encode("utf-8", "surrogatepass") for piece in pieces]
        for name in (TABLE, LOG):
            path = Path(name)
            if path.exists():
                pieces += [name.encode(), path.read_bytes()]
                path.unlink()
        Path(CONFIG).unlink(missing_ok=True)
        for piece in pieces:  # each piece after its length, so no two records hash alike
            digest.update(len(piece).to_bytes(8, "little") + piece)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=5000, help="command lines to run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the lines")
    parser.add_argument("--faults", type=float, default=4.0, help="percent of lines with one fault")
    args = parser.parse_args()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            print(run(args.lines, args.seed, args.faults))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
