"""Regenerate pinned_logs.json: the digests of the `sample` config pool.

The config-mix workload draws its `sample` configs from the pool that
``workloads.sample_pool()`` builds from a fixed seed, and checks every log
it writes against the sha256 stored here, in pool order, which enforces the
byte-identical event-log contract. Run it only to pin a new pool, at a
commit whose logs are known good:

    python3 perfbench/pin_logs.py

Digests of an unchanged pool must not change; the script refuses to
overwrite one that differs.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from povmbell.cli import main  # noqa: E402

from workloads import N_EVENTS, PINNED_LOGS, POOL_SEED, sample_pool  # noqa: E402


def digest(config: dict, workdir: Path) -> str:
    config_path = workdir / "config.json"
    log_path = workdir / "events.log"
    config_path.write_text(json.dumps(dict(config, n_events=N_EVENTS)), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        code = main(["sample", "--config", str(config_path), "--out", str(log_path)])
    if code != 0:
        raise SystemExit(f"sample exited {code} for {config}")
    return hashlib.sha256(log_path.read_bytes()).hexdigest()


def pin() -> None:
    old = json.loads(PINNED_LOGS.read_text(encoding="utf-8")) if PINNED_LOGS.exists() else None
    workdir = ROOT / ".perfbench" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digests = [digest(config, workdir) for config in sample_pool()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"n_events": N_EVENTS, "pool_seed": POOL_SEED, "sha256": digests}
    if old is not None and (old.get("n_events"), old.get("pool_seed")) == (N_EVENTS, POOL_SEED):
        changed = [i for i, (a, b) in enumerate(zip(old["sha256"], digests)) if a != b]
        if changed:
            raise SystemExit(f"digests of pinned pool entries changed: {changed[:10]}")
    PINNED_LOGS.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    pin()
