#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (a copy of
``.perfbench/results`` from each commit); only untraced runs are compared.
Refuses, with exit code 2, to compare sets measured under a different
Python or kernel backend (a compiled backend is a different program), sets
with any run that was not correct or had a failed op, and sets that differ
in ``--seconds`` or in their (workload, seed) runs.  It prints the attempted
and failed op totals of each set, then for every workload and end-to-end
metric both medians, the relative change and the base set's quartile
spread, and flags a change that is worse than the metric's bound in
BENCHMARK.json.  Exits 1 if any metric is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if r["trace"] == 0]


def env_key(record):
    env = record["env"]
    return (env["implementation"], env["python"], env["backend"])


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def runs(records):
    return sorted((r["workload"], r["seed"]) for r in records)


def compare(base, new, end_to_end):
    """Lines of the report and whether any metric is worse beyond its bound;
    raises ValueError when the sets cannot be compared."""
    envs = {env_key(r) for r in base + new}
    if len(envs) > 1:
        raise ValueError("result sets differ in Python or backend: "
                         + "; ".join(" ".join(e) for e in sorted(envs)))
    bad = [f"{r['workload']} seed {r['seed']}" for r in base + new
           if not r["result"]["correct"] or r["result"]["failed"]]
    if bad:
        raise ValueError("runs not correct or with failed ops: " + ", ".join(bad))
    seconds = {r["seconds"] for r in base + new}
    if len(seconds) > 1:
        raise ValueError(f"result sets differ in --seconds: {sorted(seconds)}")
    if runs(base) != runs(new):
        raise ValueError("result sets differ in their (workload, seed) runs")
    lines, worse = [], False
    for label, records in (("base", base), ("new", new)):
        lines.append(f"{label}: {len(records)} runs, "
                     f"{sum(r['result']['attempted'] for r in records)} ops attempted, "
                     f"{sum(r['result']['failed'] for r in records)} failed")
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in end_to_end:
            name = m["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == wl]
            n = [r["result"]["metrics"][name]["value"] for r in new if r["workload"] == wl]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb
            bad = (change if m["better"] == "lower" else -change) > m["bound"]
            worse |= bad
            lines.append(f"{wl:16s} {name:12s} {mb:12.5g} -> {mn:12.5g} {m['unit']:6s} "
                         f"{change:+7.1%} (base spread {spread(b):.1%}, bound "
                         f"{m['bound']:.0%}){'  WORSE' if bad else ''}")
    return lines, worse


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines, worse = compare(load(argv[0]), load(argv[1]), spec["end_to_end"])
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
