#!/usr/bin/env python3
"""Record the output digest of every workload for seeds 0 to 31.

    python3 perfbench/record_digests.py

Runs one checked pass per (workload, seed) and writes the digests to
``perfbench/digests.json``, which ``run.py`` compares each run against.
Refuses to record a digest from a pass with any failed op.  Re-record only
when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = range(32)


def main():
    os.chdir(run.ROOT)
    run.import_rankderiv()
    import workloads
    path = run.BENCH / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in SEEDS:
                wl = cls(seed)
                wl.guard()
                _, digests, failures = run.run_pass(wl.setup().ops, check=True)
                if failures:
                    print(f"{name} seed {seed}: {failures[:3]}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = run.run_digest(digests)
                print(name, seed, table[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(run.STATE / "work", ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
