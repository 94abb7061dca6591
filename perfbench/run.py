#!/usr/bin/env python3
"""Layered benchmark for rankderiv.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip-fp --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory; nothing needs
to be installed.  One process and one thread drive the load as a closed
loop: each op starts when the previous one returns.  With ``--trace 0`` the
run sets up the workload several times (median reported as ``setup_s``),
then repeats its pass of ops until ``--seconds`` of op time have been
measured, and prints the end-to-end metrics, stated at a reference machine
speed (see REFERENCE_CALIBRATION_S).  With ``--trace 1`` it wraps
the library's modules (see ``spans.py``), traces set-up and one pass, and
prints the per-layer metrics.  Every op's output is checked exactly (see
``workloads.py``) and digested; the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result set
with the environment is also written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
# op_tail_ms reports the highest of these percentiles with >= 10 ops beyond it
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
# Load from other tenants of a shared host changes the speed of all code by
# up to 1.5x for minutes at a time.  A fixed loop is timed between ops, and
# every time a run reports is scaled by REFERENCE_CALIBRATION_S over the mean
# of the loop times taken just before and just after it: times are stated at
# the speed at which the loop takes REFERENCE_CALIBRATION_S, as it did on the
# 2-vCPU Xeon this benchmark was written on.  The raw times are kept in the
# result file.
REFERENCE_CALIBRATION_S = 0.016
CALIBRATION_EVERY_S = 0.3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rankderiv, rankderiv.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def import_rankderiv():
    if not (SRC / "rankderiv" / "__init__.py").is_file():
        raise BenchError(f"no rankderiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankderiv
    if Path(rankderiv.__file__).resolve().parent != SRC / "rankderiv":
        raise BenchError(f"imported rankderiv from {rankderiv.__file__}, not {SRC}")
    return rankderiv


def import_seconds():
    """Import time of the library in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(rd):
    return {"commit": git_commit(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "backend": rd.BACKEND, "nproc": os.cpu_count(), "cpu": cpu_model()}


def cross_backend_problems(pure, compiled, seed, count=200):
    """Compare the compiled kernels with the pure twin on seeded matrices;
    returns the names of the kernels whose outputs differ."""
    bad = []
    for p in (2, 3, 7):
        rng = random.Random(f"perfbench|kernels|{p}|{seed}")
        mats = [[[rng.randrange(p) for _ in range(4)] for _ in range(4)]
                for _ in range(count)]
        pairs = list(zip(mats, mats[1:] + mats[:1]))
        for name, argses in (("mat_mul", [(a, b, p) for a, b in pairs]),
                             ("mat_add", [(a, b, p) for a, b in pairs]),
                             ("mat_sub", [(a, b, p) for a, b in pairs]),
                             ("mat_rank", [(a, p) for a in mats]),
                             ("mat_rref", [(a, p) for a in mats]),
                             ("mat_rnf", [(a, p) for a in mats]),
                             ("mat_nullspace", [(a, p) for a in mats])):
            want = [getattr(pure, name)(*args) for args in argses]
            got = [getattr(compiled, name)(*args) for args in argses]
            if got != want:
                bad.append(f"{name} (p={p})")
    return bad


def compiled_kernels():
    try:
        from rankderiv import _kernels
    except ImportError:
        return None
    return _kernels


def calibration_loop():
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += (i * i) % 7
        table[i & 255] = (i, acc)
    return time.perf_counter() - start


class Calibration:
    """Times of calibration_loop, sampled between timed intervals, and the
    intervals scaled by the samples on either side of them."""

    def __init__(self):
        self.samples = []
        self.scaled = {"op": [], "setup": []}
        self._pending = []
        self._due = 0.0

    def sample(self):
        t = calibration_loop()
        factor = 2 * REFERENCE_CALIBRATION_S / ((self.samples or [t])[-1] + t)
        for kind, raw in self._pending:
            self.scaled[kind].append(raw * factor)
        self._pending = []
        self.samples.append(t)
        self._due = time.perf_counter() + CALIBRATION_EVERY_S

    def sample_if_due(self):
        if time.perf_counter() >= self._due:
            self.sample()

    def add(self, kind, raw):
        self._pending.append((kind, raw))


def execution_order(plan, seed):
    """A seeded shuffle of the pass, unless its ops depend on each other, so
    that each kind of op is spread over the run instead of bunched in one
    stretch of machine load."""
    order = list(range(len(plan.ops)))
    if not plan.in_order:
        random.Random(f"perfbench|order|{seed}").shuffle(order)
    return order


def run_pass(ops, check, expected=None, tracer=None, calibration=None, order=None):
    """Run every op once, back to back, in ``order`` (list order by default).
    Returns (latencies in run order, digests by op index, failures); a
    failure is (op index, reason).  Checks, digests, counters and
    calibration samples are taken outside the timed interval and outside
    tracing."""
    clock = time.perf_counter
    latencies, digests, failures = [], [None] * len(ops), []
    for i in range(len(ops)) if order is None else order:
        op = ops[i]
        if calibration is not None:
            calibration.sample_if_due()
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            out = op.run()
            raised = None
        except Exception as exc:  # an op that raises is a failed op
            out, raised = None, exc
        latencies.append(clock() - start)
        if calibration is not None:
            calibration.add("op", latencies[-1])
        if tracer is not None:
            tracer.active = False
        if raised is not None:
            failures.append((i, f"raised {type(raised).__name__}: {raised}"))
            continue
        digest = hashlib.sha256(op.encode(out).encode()).hexdigest()[:16]
        digests[i] = digest
        reason = op.check(out) if check else None
        if reason is None and expected is not None and digest != expected[i]:
            reason = "output differs from the first pass"
        if reason is not None:
            failures.append((i, reason))
        if tracer is not None and op.counters is not None:
            for key, value in op.counters(out).items():
                tracer.count(key, value)
    return latencies, digests, failures


def run_digest(digests):
    return hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest()[:16]


def recorded_digest(workload, seed):
    path = BENCH / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def tail(latencies):
    """(percentile, value): the highest TAIL_LADDER percentile with at least
    ten ops beyond it, nearest-rank."""
    n = len(latencies)
    q = max((q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= 10), default=50.0)
    ordered = sorted(latencies)
    return q, ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def work_problems(wl, plan, estimate):
    problems = []
    if len(plan.ops) != estimate["ops_per_pass"]:
        problems.append(f"{len(plan.ops)} ops per pass, predicted {estimate['ops_per_pass']}")
    for key, seen in plan.observed.items():
        if seen != estimate[key]:
            problems.append(f"set-up {key}: {seen}, predicted {estimate[key]}")
    return problems


def timed_setup(wl, imports, gens, calibration):
    """One set-up: the library's import in a fresh interpreter, then input
    generation.  Appends both times and returns the plan."""
    calibration.sample()
    imports.append(import_seconds())
    gc.collect()
    start = time.perf_counter()
    plan = wl.setup()
    gens.append(time.perf_counter() - start)
    calibration.add("setup", imports[-1] + gens[-1])
    calibration.sample()
    return plan


def measure(wl, seconds, problems):
    """Untraced run.  Of the SETUP_REPEATS set-ups, two come before the first
    pass and one after each pass, so that their median does not rest on one
    stretch of machine load; every pass uses the first set-up's plan."""
    imports, gens, calibration = [], [], Calibration()
    plan = timed_setup(wl, imports, gens, calibration)
    timed_setup(wl, imports, gens, calibration)
    problems += work_problems(wl, plan, wl.estimate())
    gc.collect()
    # the inputs live for the whole run: keep them out of the collector's
    # full scans so that pauses come from the library's own garbage
    gc.freeze()
    order = execution_order(plan, wl.seed)
    latencies, first, failures = run_pass(plan.ops, check=True, calibration=calibration,
                                          order=order)
    pass_s = [sum(latencies)]
    while True:
        if len(gens) < SETUP_REPEATS:
            timed_setup(wl, imports, gens, calibration)
        if sum(latencies) >= seconds:
            break
        lat, _, fails = run_pass(plan.ops, check=False, expected=first,
                                 calibration=calibration, order=order)
        latencies += lat
        failures += fails
        pass_s.append(sum(lat))
    while len(gens) < SETUP_REPEATS:
        timed_setup(wl, imports, gens, calibration)
    gc.unfreeze()
    calibration.sample()
    raw = {"setup_s": statistics.median(i + g for i, g in zip(imports, gens)),
           "ops_per_s": len(latencies) / sum(latencies),
           "op_p50_ms": statistics.median(latencies) * 1e3,
           "op_tail_ms": tail(latencies)[1] * 1e3}
    scaled = calibration.scaled["op"]
    q, tail_value = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(calibration.scaled["setup"]), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "ops/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    details = {"passes": len(pass_s), "ops": len(latencies), "tail_percentile": q,
               "pass_s": pass_s, "setup_import_s": imports, "setup_inputs_s": gens,
               "calibration_s": calibration.samples, "raw": raw}
    return metrics, details, first, failures, len(latencies)


def measure_traced(rd, wl, problems):
    """Traced run: set-up and one warm pass under tracing, after an untraced
    checking pass and an untraced pass of the same ops for the overhead."""
    tracer = spans.Tracer()
    estimate = wl.estimate()
    with spans.Instrumentation(rd, tracer):
        tracer.active = True
        start = time.perf_counter()
        plan = wl.setup()
        setup_wall = time.perf_counter() - start
        tracer.active = False
    problems += work_problems(wl, plan, estimate)
    gc.collect()
    gc.freeze()
    if tracer.counts["matrix.enumerate.yielded"] != estimate["enumerated"]:
        problems.append(f"set-up enumerated {tracer.counts['matrix.enumerate.yielded']} "
                        f"matrices, predicted {estimate['enumerated']}")
    order = execution_order(plan, wl.seed)
    latencies, first, failures = run_pass(plan.ops, check=True, order=order)
    untraced, _, fails = run_pass(plan.ops, check=False, expected=first, order=order)
    failures += fails
    with spans.Instrumentation(rd, tracer):
        traced, _, fails = run_pass(plan.ops, check=False, expected=first, tracer=tracer,
                                    order=order)
    failures += fails
    gc.unfreeze()
    attempted = len(latencies) + len(untraced) + len(traced)
    metrics = spans.layer_metrics(tracer, setup_wall + sum(traced),
                                  sum(traced) / sum(untraced))
    details = {"passes": 3, "ops": attempted, "spans_kept": len(tracer.spans),
               "spans_dropped": tracer.dropped, "setup_wall_s": setup_wall,
               "untraced_pass_s": sum(untraced), "traced_pass_s": sum(traced)}
    write_spans(wl, tracer)
    return metrics, details, first, failures, attempted


def write_spans(wl, tracer):
    path = STATE / "spans" / f"{wl.name}-{wl.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    try:
        rd = import_rankderiv()
        import workloads
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.guard()
    except workloads.SizeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment(rd)
    problems = []
    compiled = compiled_kernels()
    if compiled is not None:
        from rankderiv import _kernels_py
        problems += [f"compiled kernel {k} differs from the pure twin"
                     for k in cross_backend_problems(_kernels_py, compiled, args.seed)]
    try:
        if args.trace:
            metrics, details, first, failures, attempted = measure_traced(rd, wl, problems)
        else:
            metrics, details, first, failures, attempted = measure(wl, args.seconds, problems)
    finally:
        shutil.rmtree(STATE / "work", ignore_errors=True)

    digest = run_digest(first)
    recorded = recorded_digest(wl.name, args.seed)
    failed = len(failures)
    if recorded is not None and recorded != digest:
        problems.append(f"output digest {digest} differs from the recorded {recorded}")
        failed = attempted
    correct = failed == 0 and not problems
    details.update({"digest": digest, "recorded_digest": recorded,
                    "problems": problems,
                    "failures": [f"op {i}: {why}" for i, why in failures[:20]]})
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details, "result": result}
    out = STATE / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in problems + details["failures"]:
        print(f"perfbench: {line}", file=sys.stderr)
    summary = (f"# {wl.name} seed={args.seed} backend={env['backend']} "
               f"ops={details['ops']} passes={details['passes']} digest={digest}")
    if not args.trace:
        summary += f" op_tail_ms=p{details['tail_percentile']:g}"
    print(summary)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
