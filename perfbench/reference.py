"""Record each workload's simulated behaviour per seed in reference.json.

Run from the repository root:

    python3 perfbench/reference.py --seeds 0-31 grow deep resume

For every workload and seed it runs one round (one unit per variant) and
records what `run.py` prints as the behaviour of a run: the trajectory
digest, the final state's size in bytes and the simulated counts. `run.py`
reports `correct: false` when a run's behaviour differs from the recorded
one, so re-record only for a change that alters the simulation on purpose.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys

import run
from collect import seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    run.import_engine()
    logging.getLogger("eden").addHandler(run.CountingHandler())  # keeps warnings off stderr
    recorded = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh)
    workdir = os.path.join(run.RUN_DIR, f"reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for workload in args.workloads:
            entries = recorded.setdefault(workload, {})
            for seed in seeds(args.seeds):
                stats = run.Stats(workload, time_store=False)
                run.measure(seed, 0, stats, workdir, None, rounds=1)
                if not (stats.failed == 0 and stats.fixpoint):
                    sys.exit(f"{workload} seed {seed} failed: {stats.errors}")
                entries[str(seed)] = stats.behaviour()
                print(f"{workload} seed {seed}: {entries[str(seed)]['trajectory_digest']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
