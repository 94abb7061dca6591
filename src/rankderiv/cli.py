"""Command-line front door.

Every subcommand validates its options before touching input files, emits
deterministic text (byte-identical for identical invocations), and maps
outcomes to exit codes: 0 success/pass, 1 verification failure (violations
found), 2 usage or precondition errors.  ``--porcelain`` switches to
machine-readable key=value lines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .derivations import (
    DeltaMap,
    extend_to_low_ranks,
    extract_derivation,
    reconstruct_full,
    verify_hypothesis,
)
from .errors import RankderivError, UsageError
from .factor import adapted_factor, cover_rank, factor_rank_s, rank_set
from .fields import parse_field
from .matrix import Matrix, enumerate_rank_k
from .solver import rank_count, solution_space

__all__ = ["main"]


def _pm(m: Matrix) -> str:
    """Porcelain matrix encoding: rows joined by ';', entries by ','."""
    f = m.field
    return ";".join(",".join(f.format(e) for e in row) for row in m.rows)


def _mu_porcelain(mu) -> str:
    f = mu.field
    if mu.kind == "zero":
        return "zero"
    if mu.kind == "dt":
        return f"dt({f.format(mu.scale)})"
    items = sorted(mu.table.items(), key=lambda kv: f.sort_key(kv[0]))
    body = ",".join(f"{f.format(a)}->{f.format(v)}" for a, v in items)
    return f"{mu.kind}({body})"


def _read(cls, path: str, args):
    """``cls.from_text`` of a Matrix or DeltaMap file, checked against the
    optional --field and --n."""
    obj = cls.from_text(Path(path).read_text())
    expected_field = getattr(args, "field", None)
    if expected_field is not None and parse_field(expected_field) != obj.field:
        raise UsageError(
            f"--field {expected_field} does not match file field {obj.field.spec()}")
    expected_n = getattr(args, "n", None)
    if expected_n is not None and expected_n != obj.n:
        raise UsageError(f"--n {expected_n} does not match file dimension {obj.n}")
    return obj


# -- handlers ----------------------------------------------------------------

def _cmd_factor(args) -> int:
    y = _read(Matrix, args.infile, args)
    fac = factor_rank_s(y, args.s)
    if args.porcelain:
        print(f"s={fac.s}")
        print(f"k={y.rank()}")
        print(f"y1={_pm(fac.y1)}")
        print(f"y2={_pm(fac.y2)}")
    else:
        print(fac.y1.to_text())
        print(fac.y2.to_text(), end="")
    return 0


def _cmd_adapt(args) -> int:
    x = _read(Matrix, args.x, args)
    y = _read(Matrix, args.y, args)
    fac = adapted_factor(x, y, args.s)
    if args.porcelain:
        print(f"case={fac.case_tag}")
        print(f"x1={_pm(fac.x1)}")
        print(f"x2={_pm(fac.x2)}")
    else:
        print(f"case {fac.case_tag}")
        print(fac.x1.to_text())
        print(fac.x2.to_text(), end="")
    return 0


def _cmd_rankset(args) -> int:
    ranks = rank_set(args.n)
    if args.porcelain:
        print("ranks=" + ",".join(str(r) for r in ranks))
    else:
        print(" ".join(str(r) for r in ranks))
    return 0


def _cmd_cover(args) -> int:
    s = cover_rank(args.n, args.k)
    print(f"cover={s}" if args.porcelain else str(s))
    return 0


def _cmd_extract(args) -> int:
    delta = _read(DeltaMap, args.delta, args)
    d = extract_derivation(delta, args.s)
    if args.porcelain:
        print(f"A={_pm(d.A)}")
        print(f"mu={_mu_porcelain(d.mu)}")
    else:
        print(d.A.to_text(), end="")
        print(f"mu {d.mu.describe()}")
    return 0


def _cmd_verify(args) -> int:
    if args.mode == "sampled" and args.seed is None:
        raise UsageError("sampled mode requires --seed")
    if args.mode == "sampled" and args.count < 1:
        raise UsageError(f"sampled verification needs a count >= 1, got {args.count}")
    delta = _read(DeltaMap, args.delta, args)
    report = verify_hypothesis(delta, args.s, mode=args.mode,
                               count=args.count, seed=args.seed,
                               pairs=args.pairs)
    if args.porcelain:
        print(f"checked={report.checked}")
        print(f"violations={len(report.violations)}")
        for x, y, _, _ in report.violations:
            print(f"violation={_pm(x)}|{_pm(y)}")
        print(f"status={'pass' if report.passed else 'fail'}")
    else:
        for x, y, _, _ in report.violations:
            print(f"violation x=[{x.encode()}] y=[{y.encode()}]")
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_extend(args) -> int:
    delta = _read(DeltaMap, args.delta, args)
    result = extend_to_low_ranks(delta, s=args.s)
    if args.out:
        Path(args.out).write_text(result.delta.to_text())
    if args.porcelain:
        print(f"inconsistent={len(result.inconsistencies)}")
        for m in result.inconsistencies:
            print(f"inconsistency={_pm(m)}")
        print(f"status={'pass' if result.consistent else 'fail'}")
    else:
        for m in result.inconsistencies:
            print(f"inconsistent at [{m.encode()}]")
        status = "consistent" if result.consistent else "inconsistent"
        print(f"extension {status}"
              + (f", wrote {args.out}" if args.out else ""))
        if not args.out:
            print(result.delta.to_text(), end="")
    return 0 if result.consistent else 1


def _cmd_reconstruct(args) -> int:
    delta = _read(DeltaMap, args.delta, args)
    report = reconstruct_full(delta, count=args.count, seed=args.seed)
    d = report.derivation
    if args.porcelain:
        print(f"A={_pm(d.A)}")
        print(f"mu={_mu_porcelain(d.mu)}")
        print(f"checked={report.checked}")
        print(f"failures={len(report.failures)}")
        for z, r, reason in report.failures:
            print(f"failure={_pm(z)}|rank={r}|{reason}")
        print(f"status={'pass' if report.passed else 'fail'}")
    else:
        print(d.A.to_text(), end="")
        print(f"mu {d.mu.describe()}")
        for z, r, reason in report.failures:
            print(f"failure z=[{z.encode()}] rank={r} reason={reason}")
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    field = parse_field(args.field)
    dim, basis = solution_space(args.n, args.s, field)
    if args.porcelain:
        print(f"dimension={dim}")
    else:
        print(f"dimension {dim}")
    written = []
    for i, delta in enumerate(basis):
        if args.out_prefix:
            path = Path(f"{args.out_prefix}{i}.delta")
            path.write_text(delta.to_text())
            written.append(str(path))
        elif not args.porcelain:
            print()
            print(delta.to_text(), end="")
    for path in written:
        print(f"wrote={path}" if args.porcelain else f"wrote {path}")
    return 0


def _cmd_enumerate(args) -> int:
    field = parse_field(args.field)
    first = True
    for m in enumerate_rank_k(args.n, args.k, field):
        if args.porcelain:
            print(f"matrix={_pm(m)}")
        else:
            if not first:
                print()
            print(m.to_text(), end="")
            first = False
    return 0


def _cmd_count(args) -> int:
    field = parse_field(args.field)
    c = rank_count(args.n, args.k, field)
    print(f"count={c}" if args.porcelain else str(c))
    return 0


# -- parser ------------------------------------------------------------------

def _add_common(sp, *, field=False, n=False, s=False, k=False):
    if field:
        sp.add_argument("--field", help="field spec: Q, F<p>, Q(t), F<p>(t)")
    if n:
        sp.add_argument("--n", type=int, help="matrix dimension")
    if s:
        sp.add_argument("--s", type=int, required=True, help="target rank s")
    if k:
        sp.add_argument("--k", type=int, required=True, help="rank k")
    sp.add_argument("--porcelain", action="store_true",
                    help="machine-readable key=value output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankderiv",
        description="Exact rank factorizations and derivation-style maps "
                    "on matrix rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor", help="factor a matrix into two rank-s factors")
    sp.add_argument("--in", dest="infile", required=True, help="matrix file")
    _add_common(sp, field=True, n=True, s=True)
    sp.set_defaults(handler=_cmd_factor)

    sp = sub.add_parser("adapt", help="rank-s factorization of a rank-1 matrix "
                                      "adapted to a rank-s companion")
    sp.add_argument("--x", required=True, help="rank-1 matrix file")
    sp.add_argument("--y", required=True, help="rank-s matrix file")
    _add_common(sp, field=True, n=True, s=True)
    sp.set_defaults(handler=_cmd_adapt)

    sp = sub.add_parser("rankset", help="decreasing cover-rank family for n")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_rankset)

    sp = sub.add_parser("cover", help="covering member of the rank set for rank k")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp, k=True)
    sp.set_defaults(handler=_cmd_cover)

    sp = sub.add_parser("extract", help="extract the canonical derivation "
                                        "from a delta table")
    sp.add_argument("--delta", required=True, help="delta table file")
    _add_common(sp, field=True, n=True, s=True)
    sp.set_defaults(handler=_cmd_extract)

    sp = sub.add_parser("verify", help="check the product rule on rank-s pairs")
    sp.add_argument("--delta", required=True, help="delta table file")
    sp.add_argument("--mode", choices=["exhaustive", "sampled"],
                    default="exhaustive")
    sp.add_argument("--pairs", choices=["rank-s", "mixed"], default="rank-s",
                    help="pair selection: rank-s pairs, or rank<=1 vs rank<=s")
    sp.add_argument("--count", type=int, default=1000,
                    help="sample count for sampled mode")
    sp.add_argument("--seed", type=int, help="seed (required for sampled mode)")
    _add_common(sp, field=True, n=True, s=True)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("extend", help="extend a rank-s table to all lower ranks")
    sp.add_argument("--delta", required=True, help="delta table file")
    sp.add_argument("--s", type=int, help="rank s (defaults to the table domain)")
    sp.add_argument("--out", help="write the extended table here")
    _add_common(sp, field=True, n=True)
    sp.set_defaults(handler=_cmd_extend)

    sp = sub.add_parser("reconstruct", help="extract a derivation and check it "
                                            "against delta on the full ring")
    sp.add_argument("--delta", required=True, help="delta table file")
    sp.add_argument("--count", type=int, default=1000,
                    help="sample count over an infinite field")
    sp.add_argument("--seed", type=int,
                    help="seed (required over an infinite field)")
    _add_common(sp, field=True, n=True)
    sp.set_defaults(handler=_cmd_reconstruct)

    sp = sub.add_parser("solve", help="solution space of the product-rule "
                                      "constraint system")
    sp.add_argument("--field", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--out-prefix", help="write basis tables to "
                                         "<prefix><i>.delta")
    sp.add_argument("--porcelain", action="store_true")
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser("enumerate", help="stream all rank-k matrices")
    sp.add_argument("--field", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp, k=True)
    sp.set_defaults(handler=_cmd_enumerate)

    sp = sub.add_parser("count", help="count rank-k matrices (with formula "
                                      "cross-check)")
    sp.add_argument("--field", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp, k=True)
    sp.set_defaults(handler=_cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except RankderivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
