"""The benchmark's four workloads.

A workload turns the run seed into a fixed list of operations, one "pass";
the run repeats the pass until its time is up.  Every op builds its own
Matrix objects from raw rows, so no cached rank, normal form or integer
representation carries over from one op to the next and every pass costs
the same.  Each op has an independent postcondition (``check``, built on
``reference``) and a canonical text of its output (``encode``) that feeds
the run's digest.  ``estimate`` predicts the work from the configuration
list alone; the run refuses a workload whose estimate is too large and
fails one whose observed work differs from it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from pathlib import Path
from typing import Callable, NamedTuple

import rankderiv as rd
import rankderiv.cli  # noqa: F401  (makes rd.cli available)

import reference as ref

LIMITS = {"enumerated": 200_000, "ops_per_pass": 200_000,
          "evaluations_per_pass": 1_000_000}


class SizeError(Exception):
    """A workload's predicted work exceeds LIMITS."""


class Op(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    encode: Callable[[object], str]
    counters: "Callable[[object], dict] | None" = None


class Plan(NamedTuple):
    ops: list
    observed: dict
    in_order: bool = False      # ops read what earlier ops wrote


def _seeds(tag, seed, count):
    rng = random.Random(f"perfbench|{tag}|{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _enumerate_rows(n, ranks, field):
    return [m.rows for k in ranks for m in rd.enumerate_rank_k(n, k, field)]


class Workload:
    name = ""

    def __init__(self, seed, configs=None):
        self.seed = seed
        if configs is not None:
            self.CONFIGS = tuple(configs)

    def estimate(self) -> dict:
        raise NotImplementedError

    def guard(self):
        est = self.estimate()
        for key, limit in LIMITS.items():
            if est.get(key, 0) > limit:
                raise SizeError(f"{self.name}: predicted {key} {est[key]} "
                                f"exceeds the limit {limit}")

    def setup(self) -> Plan:
        raise NotImplementedError


# -- extraction round trips (roundtrip-fp, ratfunc-qt) -------------------------

def _roundtrip_op(field, points, delta, s, probes):
    xs = [rd.Matrix(field, r, canonicalize=False) for r in points]
    got = rd.extract_derivation(delta, s, probes=probes)
    vals = [rd.apply_derivation(got, x) for x in xs]
    mismatches = sum(1 for v, x in zip(vals, xs) if v != delta(x))
    return got, vals, mismatches


def _roundtrip_encode(out):
    got, vals, mismatches = out
    return repr((got.A.rows, got.mu.kind, got.mu.scale, mismatches,
                 [v.rows for v in vals]))


def _roundtrip_common(points, out):
    got, vals, mismatches = out
    if len(vals) != len(points):
        return f"compared {len(vals)} points, expected {len(points)}"
    if mismatches:
        return f"apply(got, x) != delta(x) at {mismatches} points"
    return None


def _fp_check(a_rows, p, points, out):
    got, vals, _ = out
    problem = _roundtrip_common(points, out)
    if problem:
        return problem
    if got.A.rows != a_rows:
        return "extracted A differs from the truth"
    if not got.mu.is_zero():
        return "extracted mu is not zero"
    for x, v in zip(points, vals):
        if v.rows != ref.bracket_mod(a_rows, x, p):
            return f"apply(got, x) != [A, x] at {x}"
    return None


def _ratfunc_check(a_rows, scale, p, points, out):
    got, vals, _ = out
    problem = _roundtrip_common(points, out)
    if problem:
        return problem
    if got.A.rows != a_rows:
        return "extracted A differs from the truth"
    if got.mu.kind != "dt" or got.mu.scale != scale:
        return "extracted mu is not the truth's c*d/dt"
    for x, v in zip(points, vals):
        if not ref.ratfunc_apply_matches(a_rows, x, scale, v.rows, p):
            return f"apply(got, x) != [A, x] + c*dx/dt at {x}"
    return None


class RoundTripFp(Workload):
    """Criterion-2 shape: extraction round trips over F_2 and F_3, compared on
    every matrix of rank <= s."""

    name = "roundtrip-fp"
    # five configs whose op costs do not overlap (about 0.6, 2.5, 11, 160 and
    # 360 ms here), so that op_p50_ms is the middle of one config's ops and
    # op_tail_ms falls inside the largest config; F2 (4,1) and F3 (2,1) would
    # share their cost range with F3 (3,1) and F2 (2,1)
    CONFIGS = (("F2", 2, 1), ("F2", 3, 1), ("F2", 4, 2), ("F3", 3, 1), ("F3", 4, 1))
    # an op's cost varies up to 2x with the derivation, so each run needs
    # many of them for its medians not to depend on the seed
    DERIVATIONS = 12

    def _points(self, spec, n, s):
        q = rd.parse_field(spec).order
        return sum(ref.rank_count(n, k, q) for k in range(s + 1))

    def estimate(self):
        points = [self._points(*c) for c in self.CONFIGS]
        return {"enumerated": sum(points),
                "ops_per_pass": len(self.CONFIGS) * self.DERIVATIONS,
                "evaluations_per_pass": sum(points) * self.DERIVATIONS}

    def setup(self):
        ops, enumerated = [], 0
        for spec, n, s in self.CONFIGS:
            field = rd.parse_field(spec)
            points = _enumerate_rows(n, range(s + 1), field)
            enumerated += len(points)
            for dseed in _seeds(f"{self.name}|{spec}|{n}|{s}", self.seed, self.DERIVATIONS):
                truth = rd.CanonicalDerivation.random(field, n, seed=dseed)
                delta = rd.make_delta(truth, garbage_ranks=set(range(s + 1, n + 1)),
                                      seed=dseed)
                ops.append(Op(
                    functools.partial(_roundtrip_op, field, points, delta, s, ()),
                    functools.partial(_fp_check, truth.A.rows, field.order, points),
                    _roundtrip_encode))
        return Plan(ops, {"enumerated": enumerated})


class RatfuncQt(Workload):
    """Criterion-3 shape: Q(t) and F_3(t) with a nonzero c*d/dt, extraction
    with probes, compared on seeded random_rank_k points."""

    name = "ratfunc-qt"
    CONFIGS = (("Q(t)", 2, 1), ("Q(t)", 3, 1), ("Q(t)", 4, 1), ("Q(t)", 4, 2),
               ("F3(t)", 3, 1))
    # an op's cost varies up to 2x with the derivation, so each run needs
    # many of them for its medians not to depend on the seed
    DERIVATIONS = 24
    # points of each rank 1..s, in equal numbers so that the mix of ranks,
    # and with it the cost of an op, does not depend on the seed
    POINTS_PER_RANK = 40

    def estimate(self):
        ops = len(self.CONFIGS) * self.DERIVATIONS
        return {"enumerated": 0, "ops_per_pass": ops,
                "evaluations_per_pass": self.DERIVATIONS * self.POINTS_PER_RANK
                * sum(s for _, _, s in self.CONFIGS)}

    def setup(self):
        ops = []
        for spec, n, s in self.CONFIGS:
            field = rd.parse_field(spec)
            t = field.gen
            probes = [t, field.mul(t, t), field.add(t, field.one), field.one]
            p = None if isinstance(field.base, rd.Rationals) else field.base.p
            tag = f"{self.name}|{spec}|{n}|{s}"
            rng = random.Random(f"perfbench|{tag}|points|{self.seed}")
            points = [rd.random_rank_k(n, k, field, seed=rng.randrange(2 ** 63)).rows
                      for k in range(1, s + 1) for _ in range(self.POINTS_PER_RANK)]
            for dseed in _seeds(tag, self.seed, self.DERIVATIONS):
                truth = rd.CanonicalDerivation.random(field, n, seed=dseed, with_dt=True)
                delta = rd.make_delta(truth, garbage_ranks=set(range(s + 1, n + 1)),
                                      seed=dseed)
                ops.append(Op(
                    functools.partial(_roundtrip_op, field, points, delta, s, probes),
                    functools.partial(_ratfunc_check, truth.A.rows, truth.mu.scale, p,
                                      points),
                    _roundtrip_encode))
        return Plan(ops, {"enumerated": 0})


# -- factorizations (factor-sweep-f2) -------------------------------------------

def _factor_one(field, rows, s):
    y = rd.Matrix(field, rows, canonicalize=False)
    fac = rd.factor_rank_s(y, s)
    ok = fac.y1.rank() == s and fac.y2.rank() == s and fac.y1 * fac.y2 == y
    return rows, s, fac.y1.rows, fac.y2.rows, ok


def _factor_check(out):
    rows, s, y1, y2, ok = out
    if not ok:
        return "the library's own rank or product check failed"
    if ref.rank_mod(y1, 2) != s or ref.rank_mod(y2, 2) != s:
        return f"a factor of {rows} does not have rank {s}"
    if ref.mat_mul_mod(y1, y2, 2) != rows:
        return f"y1 * y2 != y for y = {rows}"
    return None


def _adapted_one(field, x_rows, y_rows, s):
    x = rd.Matrix(field, x_rows, canonicalize=False)
    y = rd.Matrix(field, y_rows, canonicalize=False)
    fac = rd.adapted_factor(x, y, s)
    want = s if fac.case_tag == "case-I" else 0
    ok = (fac.x1 * fac.x2 == x and fac.x1.rank() == s and fac.x2.rank() == s
          and (fac.x2 * y).rank() == want)
    return x_rows, y_rows, s, fac.case_tag, fac.x1.rows, fac.x2.rows, ok


def _adapted_check(out):
    x_rows, y_rows, s, case, x1, x2, ok = out
    if not ok:
        return "the library's own rank or product check failed"
    if case not in ("case-I", "case-II"):
        return f"unknown case tag {case!r}"
    if ref.mat_mul_mod(x1, x2, 2) != x_rows:
        return f"x1 * x2 != x for x = {x_rows}"
    if ref.rank_mod(x1, 2) != s or ref.rank_mod(x2, 2) != s:
        return f"a factor of {x_rows} does not have rank {s}"
    want = s if case == "case-I" else 0
    if ref.rank_mod(ref.mat_mul_mod(x2, y_rows, 2), 2) != want:
        return f"rank(x2 y) != {want} in {case} for y = {y_rows}"
    return None


def _batch_op(one, field, items):
    return [one(field, *item) for item in items]


def _batch_check(check, out):
    for item in out:
        problem = check(item)
        if problem:
            return problem
    return None


class FactorSweepF2(Workload):
    """Criterion-4 shape: factor_rank_s on every admissible (s, k, y) over F_2
    with n <= 4, plus a seeded sample of adapted_factor pairs at n = 4."""

    name = "factor-sweep-f2"
    CONFIGS = (2, 3, 4)     # n; the adapted pairs are drawn at the largest n
    ADAPTED_PAIRS = 2000    # per s in 1 .. n/2
    # One factorization takes about 70 us, the size of the host's scheduling
    # stalls; an op of 64 keeps op_tail_ms a property of the library.
    BATCH = 64

    def _strata(self):
        """(n, s, k) for every admissible target rank s of a rank-k matrix."""
        return [(n, s, k) for n in self.CONFIGS for s in range(1, n + 1)
                for k in range(max(0, 2 * s - n), s + 1)]

    def estimate(self):
        batches = sum(-(-ref.rank_count(n, k, 2) // self.BATCH) for n, _, k in self._strata())
        top = max(self.CONFIGS)
        batches += (top // 2) * -(-self.ADAPTED_PAIRS // self.BATCH)
        factorizations = sum(ref.rank_count(n, k, 2) for n, _, k in self._strata())
        return {"enumerated": sum(2 ** (n * n) for n in self.CONFIGS),
                "ops_per_pass": batches,
                "evaluations_per_pass": factorizations + (top // 2) * self.ADAPTED_PAIRS}

    def _batches(self, one, check, field, items):
        return [Op(functools.partial(_batch_op, one, field, items[i:i + self.BATCH]),
                   functools.partial(_batch_check, check), repr)
                for i in range(0, len(items), self.BATCH)]

    def setup(self):
        field = rd.parse_field("F2")
        by_rank = {n: {k: _enumerate_rows(n, [k], field) for k in range(n + 1)}
                   for n in self.CONFIGS}
        ops = []
        for n, s, k in self._strata():
            ops += self._batches(_factor_one, _factor_check, field,
                                 [(rows, s) for rows in by_rank[n][k]])
        rng = random.Random(f"perfbench|{self.name}|adapted|{self.seed}")
        top = max(self.CONFIGS)
        for s in range(1, top // 2 + 1):
            pairs = [(rng.choice(by_rank[top][1]), rng.choice(by_rank[top][s]), s)
                     for _ in range(self.ADAPTED_PAIRS)]
            ops += self._batches(_adapted_one, _adapted_check, field, pairs)
        enumerated = sum(len(v) for r in by_rank.values() for v in r.values())
        return Plan(ops, {"enumerated": enumerated})


# -- the CLI on table files (oracle-tables) -------------------------------------

def _cli_op(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rd.cli.main(argv)
    return code, buf.getvalue()


def _cli_counters(out):
    return {"cli.stdout_bytes": len(out[1].encode())}


def _solve_check(dim, prefix, records, out):
    code, text = out
    lines = text.splitlines()
    wrote = [f"wrote {prefix}{i}.delta" for i in range(dim)]
    if code != 0 or lines != [f"dimension {dim}"] + wrote:
        return f"solve printed {lines[:1]} with exit {code}, expected dimension {dim}"
    for i in range(dim):
        if len(ref.parse_table(Path(f"{prefix}{i}.delta").read_text())) != records:
            return f"{prefix}{i}.delta does not have {records} records"
    return None


def _verify_check(pairs, tag, out):
    want = f"checked {pairs} pairs (s=1, {tag}): 0 violation(s), pass\n"
    return None if out == (0, want) else f"verify printed {out!r}, expected {want!r}"


def _matrix_text(a, p):
    return f"n {len(a)} field F{p}\n" + "".join(" ".join(map(str, r)) + "\n" for r in a)


def _extract_check(path, p, out):
    code, text = out
    lines = text.splitlines()
    if code != 0 or lines[-1:] != ["mu zero"]:
        return f"extract printed {text!r} with exit {code}"
    a = tuple(tuple(int(e) for e in ln.split()) for ln in lines[1:-1])
    if text != _matrix_text(a, p) + "mu zero\n" or a[0][0] != 0:
        return f"extract printed a malformed matrix: {text!r}"
    for x, v in ref.parse_table(Path(path).read_text()).items():
        if ref.bracket_mod(a, x, p) != v:
            return f"the extracted A does not reproduce {path} at {x}"
    return None


def _extend_check(src, dst, out):
    if out != (0, f"extension consistent, wrote {dst}\n"):
        return f"extend printed {out!r}"
    if ref.parse_table(Path(dst).read_text()) != ref.parse_table(Path(src).read_text()):
        return f"{dst} differs from {src}"
    return None


def _reconstruct_check(a, p, out):
    n = len(a)
    want = (_matrix_text(a, p) + "mu zero\n"
            + f"checked {p ** (n * n)} matrices, gap ranks []: 0 failure(s), pass\n")
    return None if out == (0, want) else f"reconstruct printed {out!r}, expected {want!r}"


class OracleTables(Workload):
    """The CLI in-process on table files: solve writes basis tables, then
    verify, extract and extend read them; reconstruct reads a seeded
    full-domain table written during set-up."""

    name = "oracle-tables"
    # (field, n, solution-space dimension at s = 1, basis tables verified per
    # pair mode); 3/3/8 are criterion 1, F5 n=2 is the value the library gave
    # when this benchmark was written.  Verifying one seeded F5 table instead
    # of three keeps the slowest ops few enough that op_tail_ms falls among
    # many ops of one kind rather than on the edge between two kinds.
    CONFIGS = (("F2", 2, 3, 3), ("F3", 2, 3, 3), ("F2", 3, 8, 8), ("F5", 2, 3, 1))
    FULL = (("F3", 2), ("F5", 2))
    WORKDIR = Path(".perfbench") / "work"

    def estimate(self):
        ops = len(self.CONFIGS) + len(self.FULL)
        pairs = 0
        for spec, n, dim, verified in self.CONFIGS:
            ops += 2 * dim + 2 * verified
            r1 = ref.rank_count(n, 1, int(spec[1:]))
            pairs += verified * (r1 * r1 + 2 * (1 + r1) ** 2)
        return {"enumerated": 0, "ops_per_pass": ops, "evaluations_per_pass": pairs,
                "records": sum(int(spec[1:]) ** (n * n) for spec, n in self.FULL)}

    def setup(self):
        work = self.WORKDIR / f"{self.name}-{self.seed}"
        work.mkdir(parents=True, exist_ok=True)
        ops = []
        cli = functools.partial(Op, counters=_cli_counters)
        for spec, n, dim, verified in self.CONFIGS:
            p = int(spec[1:])
            rng = random.Random(f"perfbench|{self.name}|{spec}|{n}|verify|{self.seed}")
            checked = set(rng.sample(range(dim), verified))
            prefix = f"{work}/{spec}n{n}_"
            records = 1 + ref.rank_count(n, 1, p)
            r1 = records - 1
            ops.append(cli(functools.partial(_cli_op, ["solve", "--field", spec, "--n", str(n),
                                                       "--s", "1", "--out-prefix", prefix]),
                           functools.partial(_solve_check, dim, prefix, records), repr))
            for i in range(dim):
                table = f"{prefix}{i}.delta"
                ext = f"{prefix}{i}.ext.delta"
                if i in checked:
                    ops.append(cli(functools.partial(_cli_op, ["verify", "--delta", table,
                                                               "--s", "1"]),
                                   functools.partial(_verify_check, r1 * r1, "exhaustive"),
                                   repr))
                    ops.append(cli(functools.partial(_cli_op, ["verify", "--delta", table,
                                                               "--s", "1", "--pairs", "mixed"]),
                                   functools.partial(_verify_check, 2 * records * records,
                                                     "exhaustive-mixed"), repr))
                ops.append(cli(functools.partial(_cli_op, ["extract", "--delta", table, "--s", "1"]),
                               functools.partial(_extract_check, table, p), repr))
                ops.append(cli(functools.partial(_cli_op, ["extend", "--delta", table, "--s", "1",
                                                           "--out", ext]),
                               functools.partial(_extend_check, table, ext), repr))
        written = 0
        for spec, n in self.FULL:
            p = int(spec[1:])
            rng = random.Random(f"perfbench|{self.name}|{spec}|{n}|{self.seed}")
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            a = tuple(tuple((a[i][j] - (a[0][0] if i == j else 0)) % p for j in range(n))
                      for i in range(n))
            path = work / f"full_{spec}n{n}.delta"
            text = ref.full_table_text(a, p)
            path.write_text(text)
            written += text.count("\n") - 1
            ops.append(cli(functools.partial(_cli_op, ["reconstruct", "--delta", str(path)]),
                           functools.partial(_reconstruct_check, a, p), repr))
        return Plan(ops, {"enumerated": 0, "records": written}, in_order=True)


WORKLOADS = {w.name: w for w in (RoundTripFp, FactorSweepF2, RatfuncQt, OracleTables)}
