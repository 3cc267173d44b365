"""Regenerate ``pins.json``: each workload's outputs at the default seed.

    python3 bench/pin.py

Run it only when the outputs are meant to move, and say in the change why
they moved. Each workload is run once through the CLI; its outputs must pass
the seed-free checks before they are pinned.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from checks import PINS_PATH, pin_record, read_outputs, seed_free_problems
from run import HERE, load_cli
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    cli = load_cli()
    pins = {"seed": DEFAULT_SEED, "numpy": np.__version__,
            "python": sys.version.split()[0], "workloads": {}}
    for workload in WORKLOADS.values():
        work = HERE / ".work" / workload.name
        work.mkdir(parents=True, exist_ok=True)
        csv = work / "pin.csv"
        if cli.main(workload.argv(DEFAULT_SEED, csv)) != 0:
            print(f"{workload.name}: sparsemimo failed", file=sys.stderr)
            return 1
        out = read_outputs(csv, work / "pin.manifest.json")
        problems = out.problems + seed_free_problems(workload, out)
        if problems:
            print(f"{workload.name}: not pinned: " + "; ".join(problems), file=sys.stderr)
            return 1
        pins["workloads"][workload.name] = pin_record(workload, out)
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
