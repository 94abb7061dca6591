"""Tests of the benchmark itself: span accounting, correctness gates, work
and size checks, environment refusal.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import types
from fractions import Fraction

import pytest

import compare
import reference as ref
import run
import spans

rd = run.import_rankderiv()
import workloads  # noqa: E402  (needs the library on sys.path)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_synthetic_nested_trace():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.enter("root")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    tracer.exit(a)
    a2 = tracer.enter("a")
    tracer.exit(a2)
    tracer.exit(root)
    assert dict(tracer.self_s) == {"root": 3, "a": 6, "b": 1}
    assert dict(tracer.calls) == {"root": 1, "a": 2, "b": 1}
    parents = {sid: parent for sid, _, _, _, parent in tracer.spans}
    assert parents == {1: 0, 2: 1, 3: 2, 4: 1}


def test_wrapped_calls_nest_and_skip_when_inactive():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 7]))
    inner = spans._wrap(tracer, "inner", lambda x: x + 1)
    outer = spans._wrap(tracer, "outer", lambda x: inner(x) * 2)
    assert outer(1) == 4           # inactive: no clock reads, no spans
    tracer.active = True
    assert outer(1) == 4
    assert dict(tracer.self_s) == {"outer": 5, "inner": 2}


def test_generator_spans_cover_steps_not_consumer():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 10, 12, 20, 21]))
    tracer.active = True
    gen = spans._wrap_generator(tracer, "gen", lambda: iter("ab"))
    assert list(gen()) == ["a", "b"]
    assert tracer.self_s["gen"] == 1 + 2 + 1
    assert tracer.counts["gen.yielded"] == 2


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail(lat[:15])[0] == 50.0


def _tiny_roundtrip():
    return workloads.RoundTripFp(0, configs=[("F2", 2, 1), ("F3", 2, 1)])


def test_altered_output_fails_the_digest(monkeypatch):
    plan = _tiny_roundtrip().setup()
    _, first, failures = run.run_pass(plan.ops, check=True)
    assert failures == []
    _, again, failures = run.run_pass(plan.ops, check=False, expected=first)
    assert again == first and failures == []
    order = run.execution_order(plan, seed=3)
    assert sorted(order) == list(range(len(plan.ops))) and order != sorted(order)
    _, shuffled, failures = run.run_pass(plan.ops, check=False, expected=first, order=order)
    assert shuffled == first and failures == []

    original = rd.apply_derivation
    calls = []

    def altered(D, x):
        out = original(D, x)
        calls.append(1)
        if len(calls) == 3:         # one value of one op
            return out + rd.Matrix.identity(out.field, out.n)
        return out

    monkeypatch.setattr(rd, "apply_derivation", altered)
    _, changed, failures = run.run_pass(plan.ops, check=False, expected=first)
    assert [i for i, _ in failures] == [0]
    assert "differs from the first pass" in failures[0][1]
    assert run.run_digest(changed) != run.run_digest(first)
    calls.clear()
    _, _, failures = run.run_pass(plan.ops, check=True)
    assert [i for i, _ in failures] == [0]      # the reference check sees it too


def test_every_workload_checks_its_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tiny = [
        _tiny_roundtrip(),
        workloads.FactorSweepF2(0, configs=[2, 3]),
        workloads.RatfuncQt(0, configs=[("Q(t)", 2, 1), ("F3(t)", 2, 1)]),
        workloads.OracleTables(0, configs=[("F2", 2, 3, 3), ("F3", 2, 3, 1)]),
    ]
    for wl in tiny:
        wl.guard()
        plan = wl.setup()
        assert run.work_problems(wl, plan, wl.estimate()) == [], wl.name
        _, _, failures = run.run_pass(plan.ops, check=True)
        assert failures == [], (wl.name, failures[:3])


def test_oracle_check_rejects_a_wrong_dimension(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.OracleTables(0, configs=[("F2", 2, 4, 1)])
    _, _, failures = run.run_pass(wl.setup().ops[:1], check=True)
    assert "expected dimension 4" in failures[0][1]


def test_work_counts_follow_the_rank_count_formula():
    est = workloads.FactorSweepF2(0, configs=[2, 3]).estimate()
    # admissible (s, k) for n = 2: (1,0) (1,1) (2,2); n = 3: (1,0) (1,1) (2,1) (2,2) (3,3)
    counts = [1, 9, 6, 1, 49, 49, 294, 168]
    assert est["evaluations_per_pass"] == sum(counts) + 2000
    assert est["ops_per_pass"] == sum(-(-c // 64) for c in counts) + 2000 // 64 + 1
    assert est["enumerated"] == 16 + 512
    assert [ref.rank_count(2, k, 3) for k in range(3)] == [1, 32, 48]


def test_oversized_workload_is_refused_before_it_starts():
    with pytest.raises(workloads.SizeError, match="enumerated"):
        workloads.RoundTripFp(0, configs=[("F3", 4, 2)]).guard()
    for cls in workloads.WORKLOADS.values():
        cls(0).guard()


def test_reference_ratfunc_check_detects_a_changed_entry():
    Qt = rd.parse_field("Q(t)")
    truth = rd.CanonicalDerivation.random(Qt, 2, seed=3, with_dt=True)
    x = rd.random_rank_k(2, 1, Qt, seed=5)
    got = rd.apply_derivation(truth, x).rows
    c = truth.mu.scale
    assert ref.ratfunc_apply_matches(truth.A.rows, x.rows, c, got)
    bent = ((got[0][0], got[0][1]),
            (got[1][0], Qt.add(got[1][1], ((Fraction(1, 3),), (Fraction(1),)))))
    assert not ref.ratfunc_apply_matches(truth.A.rows, x.rows, c, bent)


def test_traced_pass_meets_the_bypass_predictions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tiny = {
        "roundtrip-fp": _tiny_roundtrip(),
        "factor-sweep-f2": workloads.FactorSweepF2(0, configs=[2]),
        "ratfunc-qt": workloads.RatfuncQt(0, configs=[("Q(t)", 2, 1), ("F3(t)", 2, 1)]),
        "oracle-tables": workloads.OracleTables(0, configs=[("F2", 2, 3, 3)]),
    }
    seen = {}
    for name, wl in tiny.items():
        tracer = spans.Tracer()
        with spans.Instrumentation(rd, tracer):
            tracer.active = True
            plan = wl.setup()
            tracer.active = False
            assert tracer.counts["matrix.enumerate.yielded"] == wl.estimate()["enumerated"]
            _, _, failures = run.run_pass(plan.ops, check=False, tracer=tracer)
        assert failures == []
        seen[name] = {k: v for k, (v, _) in spans.layer_metrics(tracer, 1.0, 1.0).items()}
    kernel_calls = [k for k in seen["ratfunc-qt"] if k.startswith("kernels.") and k.endswith(".calls")]
    assert all(seen["ratfunc-qt"][k] == 0 for k in kernel_calls)
    for name in ("roundtrip-fp", "factor-sweep-f2", "ratfunc-qt"):
        assert all(v == 0 for k, v in seen[name].items()
                   if k.startswith(("solver.", "cli.")))
    assert all(v == 0 for k, v in seen["roundtrip-fp"].items()
               if k.startswith("factor.") and k.endswith(".calls"))
    assert seen["oracle-tables"]["cli.calls"] == len(tiny["oracle-tables"].setup().ops)
    assert seen["oracle-tables"]["solver.build.unknowns"] == 10 * 4
    assert seen["factor-sweep-f2"]["factor.factor_rank_s.calls"] == 16
    assert seen["factor-sweep-f2"]["factor.adapted_factor.calls"] == 2000
    # instrumentation is fully removed afterwards
    for fn in (rd.extract_derivation, rd.derivations.extract_derivation,
               rd.Matrix.__mul__, rd.Matrix._raw, rd._backend.kernels.mat_mul):
        assert not hasattr(fn, "__wrapped__")
    assert "parse" not in vars(rd.PrimeField)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = spans.layer_metrics(spans.Tracer(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layer.items()}
    metrics, details, *_ = run.measure(_tiny_roundtrip(), 0.0, [])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in metrics.items()}
    assert len(details["calibration_s"]) >= 2 * run.SETUP_REPEATS


def test_calibration_scales_each_interval_by_the_samples_around_it(monkeypatch):
    loop_times = iter([0.016, 0.032, 0.008])
    monkeypatch.setattr(run, "calibration_loop", lambda: next(loop_times))
    cal = run.Calibration()
    cal.sample()
    cal.add("op", 1.0)
    cal.add("setup", 2.0)
    cal.sample()                    # mean of 0.016 and 0.032 is 0.024
    cal.add("op", 3.0)
    cal.sample()                    # mean of 0.032 and 0.008 is 0.020
    ref = run.REFERENCE_CALIBRATION_S
    assert cal.scaled["op"] == pytest.approx([1.0 * ref / 0.024, 3.0 * ref / 0.020])
    assert cal.scaled["setup"] == pytest.approx([2.0 * ref / 0.024])


def test_cross_backend_check_reports_a_differing_kernel():
    from rankderiv import _kernels_py as pure
    same = types.SimpleNamespace(**{k: getattr(pure, k) for k in dir(pure)
                                    if k.startswith("mat_")})
    assert run.cross_backend_problems(pure, same, seed=1, count=20) == []
    broken = types.SimpleNamespace(**vars(same))
    broken.mat_rank = lambda a, p: 0
    assert run.cross_backend_problems(pure, broken, seed=1, count=20) == [
        "mat_rank (p=2)", "mat_rank (p=3)", "mat_rank (p=7)"]


def _record(backend, python="3.11.7", value=1.0, seed=1, seconds=15.0, failed=0,
            correct=True):
    metrics = {m: {"value": value, "unit": "x"} for m in ("ops_per_s",)}
    return {"workload": "w", "seed": seed, "seconds": seconds, "trace": 0,
            "result": {"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": metrics},
            "env": {"implementation": "CPython", "python": python, "backend": backend}}


def test_compare_refuses_a_different_backend_or_python():
    spec = [{"name": "ops_per_s", "unit": "x", "better": "higher", "bound": 0.1}]
    with pytest.raises(ValueError, match="backend"):
        compare.compare([_record("pure")], [_record("compiled")], spec)
    with pytest.raises(ValueError):
        compare.compare([_record("pure")], [_record("pure", python="3.12.1")], spec)
    with pytest.raises(ValueError, match="failed ops"):
        compare.compare([_record("pure")], [_record("pure", failed=1)], spec)
    with pytest.raises(ValueError, match="failed ops"):
        compare.compare([_record("pure", correct=False)], [_record("pure")], spec)
    with pytest.raises(ValueError, match="--seconds"):
        compare.compare([_record("pure")], [_record("pure", seconds=5.0)], spec)
    with pytest.raises(ValueError, match="seed"):
        compare.compare([_record("pure")], [_record("pure", seed=2)], spec)
    lines, worse = compare.compare([_record("pure", value=10.0)],
                                   [_record("pure", value=8.5)], spec)
    assert lines[:2] == ["base: 1 runs, 100 ops attempted, 0 failed",
                         "new: 1 runs, 100 ops attempted, 0 failed"]
    assert worse and "WORSE" in lines[2]
