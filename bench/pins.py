#!/usr/bin/env python3
"""Write bench/pins.json: the SHA-256 of every machine report the default
seed produces, per workload.

    python3 bench/pins.py

The replay pins cover the default seed's instance pool, the sweep pins the
two corpus-wide reports and the verdict pins every (member, axiom) report.
A report is pinned only if it passes the benchmark's correctness gate.  Run
this only for a change that alters report bytes on purpose, and say so in
CHANGES.md.
"""
import json
import os
import shutil
import sys

import run


def main():
    corpus_dir = os.path.join(run.WORK, f"corpus-pins-{os.getpid()}")
    try:
        cli, members = run.set_up(corpus_dir)
        speed = run.SpeedProbe()
        passes = {"replay": run.REPLAY_POOL, "sweep": 1,
                  "verdict": sum(len(m.expected) for m in members)}
        pins = {}
        for workload, count in passes.items():
            loop = run.Loop(cli, members, run.Digests({}), speed)
            requests = run.REQUESTS[workload](run.DEFAULT_SEED, members,
                                              corpus_dir)
            for _ in range(count):
                loop.send(next(requests))
            if loop.failed:
                print(f"{workload}: {loop.failed} ops fail the gate: "
                      f"{loop.notes}", file=sys.stderr)
                return 1
            pins[workload] = dict(sorted(loop.digests.first.items()))
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
