"""Span tracing for the benchmark's traced runs.

``Instrumentation`` wraps public functions and methods of each rankderiv
module at run time; no source file is edited.  While ``Tracer.active`` is set,
every wrapped call records a span (id, name, start, end, parent id).  Spans
are aggregated as they close into calls and self time per layer name, where
self time is the span's duration minus the time covered by its child spans.
The first ``MAX_SPANS`` spans are also kept in memory so the run can write
them out when it ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

MAX_SPANS = 100_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._ids = 0

    def enter(self, name):
        self._ids += 1
        frame = [name, self.clock(), 0.0, self._ids]
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, sid = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    def count(self, key, amount=1):
        self.counts[key] += amount


def _wrap(tracer, name, fn, note=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if note is not None:
            note(tracer, args, kwargs, result)
        return result
    return traced


def _wrap_generator(tracer, name, fn):
    """Spans cover each step of the generator, not the consumer's work
    between steps."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            if tracer.active:
                frame = tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.count(name + ".yielded")
            else:
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item
    return traced


def _wrap_rank(tracer, fn):
    # a rank() call computes only when the instance has no cached rank yet
    traced = _wrap(tracer, "matrix.rank", fn)

    @functools.wraps(fn)
    def rank(self):
        if tracer.active and getattr(self, "_rank", None) is None:
            tracer.count("matrix.rank.computed")
        return traced(self)
    return rank


# -- counters taken from arguments and results -----------------------------

def _note_mul(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    tracer.count("kernels.mat_mul.entry_ops", len(a) * len(b) * len(b[0]))


def _note_adapted(tracer, args, kwargs, result):
    if result.case_tag == "case-I":
        tracer.count("factor.adapted_factor.case_I")


def _note_delta_eval(tracer, args, kwargs, result):
    if args[0].is_table:
        tracer.count("derivations.delta_eval.table")


def _note_verify(tracer, args, kwargs, result):
    tracer.count("derivations.verify.pairs", result.checked)


def _note_to_text(tracer, args, kwargs, result):
    tracer.count("derivations.table_text.bytes_out", len(result.encode()))


def _note_from_text(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.count("derivations.table_text.bytes_in", len(text.encode()))


def _note_build(tracer, args, kwargs, result):
    tracer.count("solver.build.unknowns", result.unknown_count)
    tracer.count("solver.build.rows", len(result.rows))


class Instrumentation:
    """Reversible patches of rankderiv; use as a context manager."""

    def __init__(self, rd, tracer):
        self.rd = rd
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *exc):
        self._remove()

    def _remove(self):
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr, value):
        if isinstance(owner, type) and attr not in owner.__dict__:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def _method(self, cls, attr, name, note=None):
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(_wrap(self.tracer, name, raw.__func__, note)))
        else:
            self._set(cls, attr, _wrap(self.tracer, name, raw, note))

    def _function(self, fn, wrapped):
        """Rebind ``fn`` to ``wrapped`` wherever a rankderiv module holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("rankderiv"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def _install(self):
        rd, tracer = self.rd, self.tracer
        kernels = rd._backend.kernels
        for attr, name, note in (
                ("mat_mul", "kernels.mat_mul", _note_mul),
                ("mat_rank", "kernels.mat_rank", None),
                ("mat_rnf", "kernels.mat_rnf", None),
                ("mat_nullspace", "kernels.mat_nullspace", None),
                ("mat_rref", "kernels.mat_rref", None),
                ("mat_add", "kernels.mat_addsub", None),
                ("mat_sub", "kernels.mat_addsub", None)):
            self._set(kernels, attr, _wrap(tracer, name, getattr(kernels, attr), note))

        for cls, name in ((rd.PrimeField, "fields.prime"),
                          (rd.Rationals, "fields.rational"),
                          (rd.RationalFunctionField, "fields.ratfunc")):
            for attr in dir(cls):
                raw = inspect.getattr_static(cls, attr)
                if not attr.startswith("_") and isinstance(raw, types.FunctionType):
                    self._method(cls, attr, name)
        self._method(rd.FieldDerivation, "__call__", "fields.derivation")

        M = rd.Matrix
        self._method(M, "__init__", "matrix.construct")
        self._method(M, "_raw", "matrix.construct")
        for attr in ("__add__", "__sub__", "__mul__", "__neg__", "scaled", "transpose"):
            self._method(M, attr, "matrix.arith")
        self._method(M, "__eq__", "matrix.eq")
        self._set(M, "rank", _wrap_rank(tracer, M.rank))
        self._method(M, "rank_normal_form", "matrix.rnf")
        self._method(M, "encode", "matrix.encode")
        for fn in (rd.enumerate_rank_k, rd.enumerate_all):
            self._function(fn, _wrap_generator(tracer, "matrix.enumerate", fn))

        D = rd.DeltaMap
        self._method(D, "__call__", "derivations.delta_eval", _note_delta_eval)
        self._method(D, "to_text", "derivations.table_text.format", _note_to_text)
        self._method(D, "from_text", "derivations.table_text.parse", _note_from_text)

        for fn, name, note in (
                (rd.random_rank_k, "matrix.random_rank_k", None),
                (rd.factor_rank_s, "factor.factor_rank_s", None),
                (rd.factor.second_factor_rank_s, "factor.second_factor_rank_s", None),
                (rd.adapted_factor, "factor.adapted_factor", _note_adapted),
                (rd.apply_derivation, "derivations.apply", None),
                (rd.extract_derivation, "derivations.extract", None),
                (rd.extend_to_low_ranks, "derivations.extend", None),
                (rd.reconstruct_full, "derivations.reconstruct", None),
                (rd.verify_hypothesis, "derivations.verify", _note_verify),
                (rd.build_constraint_system, "solver.build", _note_build),
                (rd.solution_space, "solver.nullspace", None),
                (rd.cli.main, "cli", None)):
            self._function(fn, _wrap(tracer, name, fn, note))


def _ratio(num, den):
    return num / den if den else 0.0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    if ".bytes_" in name or name.endswith("_bytes"):
        return "B"
    return "count"


def layer_metrics(tracer, traced_wall, overhead_ratio):
    """Per-layer metrics as {name: (value, unit)}.  ``traced_wall`` is the
    wall time the spans were recorded over; ``overhead_ratio`` is traced over
    untraced wall time for the same work."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for layer in ("kernels.mat_mul", "kernels.mat_rank", "kernels.mat_rnf",
                  "kernels.mat_nullspace", "kernels.mat_rref", "kernels.mat_addsub",
                  "fields.prime", "fields.rational", "fields.ratfunc",
                  "matrix.construct", "matrix.rank", "matrix.rnf", "matrix.encode",
                  "matrix.random_rank_k",
                  "factor.factor_rank_s", "factor.second_factor_rank_s",
                  "factor.adapted_factor", "cli"):
        out[layer + ".calls"] = calls[layer]
        out[layer + ".self_s"] = self_s[layer]
    for layer in ("matrix.arith", "matrix.eq", "derivations.apply",
                  "derivations.delta_eval"):
        out[layer + ".calls"] = calls[layer]
    for layer in ("matrix.arith", "matrix.eq", "matrix.enumerate",
                  "derivations.apply", "derivations.extract", "derivations.extend",
                  "derivations.reconstruct", "derivations.delta_eval",
                  "derivations.verify", "solver.build"):
        out[layer + ".self_s"] = self_s[layer]
    out["fields.derivation.calls"] = calls["fields.derivation"]
    out["kernels.mat_mul.entry_ops"] = counts["kernels.mat_mul.entry_ops"]
    out["matrix.rank.compute_ratio"] = _ratio(counts["matrix.rank.computed"],
                                              calls["matrix.rank"])
    out["matrix.enumerate.yielded"] = counts["matrix.enumerate.yielded"]
    out["factor.adapted_factor.case_I_ratio"] = _ratio(
        counts["factor.adapted_factor.case_I"], calls["factor.adapted_factor"])
    out["derivations.delta_eval.table_ratio"] = _ratio(
        counts["derivations.delta_eval.table"], calls["derivations.delta_eval"])
    out["derivations.verify.pairs"] = counts["derivations.verify.pairs"]
    out["derivations.table_text.bytes_out"] = counts["derivations.table_text.bytes_out"]
    out["derivations.table_text.format_s"] = self_s["derivations.table_text.format"]
    out["derivations.table_text.bytes_in"] = counts["derivations.table_text.bytes_in"]
    out["derivations.table_text.parse_s"] = self_s["derivations.table_text.parse"]
    out["solver.build.unknowns"] = counts["solver.build.unknowns"]
    out["solver.build.rows"] = counts["solver.build.rows"]
    out["solver.nullspace.self_s"] = self_s["solver.nullspace"]
    out["cli.stdout_bytes"] = counts["cli.stdout_bytes"]
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.coverage"] = _ratio(sum(self_s.values()), traced_wall)
    return {name: (value, unit_of(name)) for name, value in out.items()}
