#!/usr/bin/env python3
"""Regenerate ``pins.json``: each simulator workload's ``sim.*`` digest per seed.

    python3 perfbench/pin.py                 # seeds 0-19 and held-out 1000
    python3 perfbench/pin.py --seeds 0 1 2   # just these

A pin is what ``run.py`` checks every session against.  Regenerate only
when a change is meant to move simulated results, and say why.
"""

from __future__ import annotations

import argparse
import json

import run

#: Seed 1000 is held out: use it to confirm a claim, never while tuning.
DEFAULT_SEEDS = list(range(20)) + [1000]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args()
    run.prepare_environment()
    from workloads import SIM_WORKLOADS

    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workloads or SIM_WORKLOADS:
        for seed in args.seeds:
            session = run.SessionRun(SIM_WORKLOADS[name](seed)).session
            pins.setdefault(name, {})[str(seed)] = session.digest()
            print(name, seed, pins[name][str(seed)], flush=True)
            path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
