"""Derivation application, verification, extension, extraction, and
reconstruction."""

import hashlib
import random
from fractions import Fraction

import pytest

from rankderiv import (
    CanonicalDerivation,
    DeltaDomain,
    DeltaMap,
    DomainError,
    ExtractionError,
    FieldDerivation,
    Matrix,
    PreconditionError,
    ResourceLimitError,
    UsageError,
    apply_derivation,
    check_linear_combination,
    derivation_delta,
    enumerate_rank_k,
    extend_to_low_ranks,
    extract_derivation,
    make_delta,
    parse_field,
    random_rank_k,
    rank_count_formula,
    reconstruct_full,
    verify_hypothesis,
)
from rankderiv import _packed
from rankderiv.derivations import VERIFY_GUARD
from rankderiv.matrix import rank_total
from rankderiv.solver import BLOCK_GUARD, UNKNOWN_GUARD


def _units(field, n):
    return {(i, j): Matrix.unit(field, n, i, j) for i in range(n) for j in range(n)}


# -- apply_derivation ----------------------------------------------------------

def test_apply_bracket_example(Q):
    d = CanonicalDerivation(Matrix.unit(Q, 2, 0, 1))
    out = apply_derivation(d, Matrix.unit(Q, 2, 1, 0))
    assert out == Matrix.unit(Q, 2, 0, 0) - Matrix.unit(Q, 2, 1, 1)


def test_apply_entrywise_mu(Qt):
    d = CanonicalDerivation(Matrix.zero(Qt, 2),
                            FieldDerivation.scaled_dt(Qt, Qt.one))
    x = Matrix.unit(Qt, 2, 0, 0).scaled(Qt.gen)
    assert apply_derivation(d, x) == Matrix.unit(Qt, 2, 0, 0)


def _bracket_reference(field, a_rows, x_rows, mu):
    """A x - x A + entrywise mu(x) by generic field operations."""
    n = len(a_rows)

    def entry(u, v, i, j):
        total = field.zero
        for k in range(n):
            total = field.add(total, field.mul(u[i][k], v[k][j]))
        return total

    return tuple(tuple(field.add(field.sub(entry(a_rows, x_rows, i, j),
                                           entry(x_rows, a_rows, i, j)), mu(x_rows[i][j]))
                       for j in range(n)) for i in range(n))


@pytest.mark.parametrize("spec, n", [("F3", 2), ("F3", 8), ("Q", 3), ("Q(t)", 2)])
def test_apply_adds_table_or_probed_mu_after_the_bracket(spec, n):
    # F_3 brackets by row tables at n = 2 and, past the intern bound, by
    # product_sum at n = 8; Q and Q(t) by integer forms, and Q(t) with an
    # entry that is not a polynomial generically.  The map's mu is a table
    # or probes, never folded into the bracket, so it is added after it
    field = parse_field(spec)
    rng = random.Random(f"apply-mu|{spec}|{n}")
    xs = [[[field.random_element(rng) for _ in range(n)] for _ in range(n)]
          for _ in range(4)]
    if spec == "Q(t)":
        frac = field.inv(field.add(field.gen, field.one))
        xs.append([[frac] + xs[0][0][1:]] + xs[0][1:])
    if field.is_finite:
        mu = FieldDerivation.from_table(field, {0: 0, 1: 2, 2: 1})
    else:
        seen = sorted({e for x in xs for row in x for e in row}, key=field.sort_key)
        mu = FieldDerivation.from_probes(field, {e: field.random_element(rng) for e in seen})
    assert mu.kind in ("table", "probes")
    d = CanonicalDerivation(CanonicalDerivation.random(field, n, seed=n).A, mu)
    for rows in xs:
        x = Matrix(field, rows)
        assert apply_derivation(d, x).rows == _bracket_reference(field, d.A.rows, x.rows, mu)


def test_apply_zero_derivation(F3):
    d = CanonicalDerivation(Matrix.zero(F3, 2))
    for k in range(3):
        x = random_rank_k(2, k, F3, seed=k)
        assert apply_derivation(d, x).is_zero()


def test_apply_mismatch_is_usage_error(Q, F2):
    d = CanonicalDerivation(Matrix.unit(Q, 2, 0, 1))
    with pytest.raises(UsageError):
        apply_derivation(d, Matrix.identity(F2, 2))
    with pytest.raises(UsageError):
        apply_derivation(d, Matrix.identity(Q, 3))


def test_canonical_derivation_normalizes_corner(Q):
    a = Matrix(Q, [[Fraction(5), Fraction(1)], [Fraction(0), Fraction(2)]])
    d = CanonicalDerivation(a)
    assert d.A[0, 0] == Q.zero
    # the normalization is a central shift: the map is unchanged
    x = random_rank_k(2, 1, Q, seed=3)
    raw_bracket = a * x - x * a
    assert apply_derivation(d, x) == raw_bracket


# -- make_delta ------------------------------------------------------------------

def test_make_delta_no_garbage_equals_derivation(F2):
    d = CanonicalDerivation.random(F2, 2, seed=9)
    delta = make_delta(d)
    for k in range(3):
        for x in enumerate_rank_k(2, k, F2):
            assert delta(x) == apply_derivation(d, x)


def test_make_delta_garbage_respects_low_ranks(F2):
    d = CanonicalDerivation.random(F2, 2, seed=10)
    delta = make_delta(d, garbage_ranks={2}, seed=1)
    for k in range(2):
        for x in enumerate_rank_k(2, k, F2):
            assert delta(x) == apply_derivation(d, x)
    # and garbage really differs somewhere on rank 2
    assert any(delta(x) != apply_derivation(d, x)
               for x in enumerate_rank_k(2, 2, F2))


def test_make_delta_deterministic_per_seed(F3):
    d = CanonicalDerivation.random(F3, 2, seed=11)
    d1 = make_delta(d, garbage_ranks={2}, seed=7)
    d2 = make_delta(d, garbage_ranks={2}, seed=7)
    d3 = make_delta(d, garbage_ranks={2}, seed=8)
    xs = list(enumerate_rank_k(2, 2, F3))
    assert all(d1(x) == d2(x) for x in xs)
    assert any(d1(x) != d3(x) for x in xs)


# -- DeltaMap domains and tables ----------------------------------------------------

def test_delta_domain_enforcement(F2):
    d = CanonicalDerivation.random(F2, 2, seed=1)
    delta = derivation_delta(d, DeltaDomain.rank_exact(1))
    x1 = Matrix.unit(F2, 2, 0, 0)
    assert delta(x1) == apply_derivation(d, x1)
    with pytest.raises(DomainError):
        delta(Matrix.zero(F2, 2))
    with pytest.raises(DomainError):
        delta(Matrix.identity(F2, 2))


def test_full_domain_computes_no_rank(F3, Qt):
    for field in (F3, Qt):
        d = CanonicalDerivation.random(field, 3, seed=4)
        x = random_rank_k(3, 2, field, seed=5)
        table = DeltaMap.from_table(3, field, DeltaDomain.full(),
                                    {x: apply_derivation(d, x)})
        for delta in (derivation_delta(d), table, make_delta(d)):
            assert delta(x) == apply_derivation(d, x)
            assert x._rank is None
        assert derivation_delta(d, DeltaDomain.rank_leq(2))(x) == apply_derivation(d, x)
        assert x._rank == 2


def test_delta_map_argument_field_check(F2, F3):
    delta = make_delta(CanonicalDerivation.random(F2, 2, seed=1))
    other_f2 = parse_field("F2")
    assert other_f2 is not F2 and other_f2 == F2
    x = Matrix.unit(other_f2, 2, 0, 1)
    assert delta(x) == delta(Matrix.unit(F2, 2, 0, 1))
    for bad in (Matrix.unit(F3, 2, 0, 1), Matrix.unit(F2, 3, 0, 1), ((0, 1), (0, 0))):
        with pytest.raises(UsageError, match="wrong field or size"):
            delta(bad)


def test_delta_table_missing_entry(F2):
    x = Matrix.unit(F2, 2, 0, 0)
    delta = DeltaMap.from_table(2, F2, DeltaDomain.rank_leq(1),
                                {x: Matrix.zero(F2, 2)})
    assert delta(x).is_zero()
    with pytest.raises(DomainError):
        delta(Matrix.unit(F2, 2, 1, 1))


def test_delta_table_hit_computes_no_rank(F2):
    # every stored key lies in the domain, so a lookup that finds its key
    # needs no rank; a miss still ranks its argument for the domain error
    d = CanonicalDerivation.random(F2, 2, seed=2)
    delta = DeltaMap.from_text(derivation_delta(d, DeltaDomain.rank_leq(1)).to_text())
    x = Matrix(F2, [[1, 1], [0, 0]])
    assert delta(x) == apply_derivation(d, x)
    assert x._rank is None
    y = Matrix.identity(F2, 2)
    with pytest.raises(DomainError, match=r"^matrix of rank 2 outside delta domain rank-leq\(1\)$"):
        delta(y)
    assert y._rank == 2


def test_delta_from_table_refuses_keys_outside_domain(F2):
    e00 = Matrix.unit(F2, 2, 0, 0)
    one = Matrix.identity(F2, 2)
    with pytest.raises(UsageError, match=r"key \[1 0 0 1\] lies outside domain rank-leq\(1\)$"):
        DeltaMap.from_table(2, F2, DeltaDomain.rank_leq(1),
                            {e00: Matrix.zero(F2, 2), one: Matrix.zero(F2, 2)})
    with pytest.raises(UsageError, match=r"key \[0 0 0 0\] lies outside domain rank-exact\(1\)$"):
        DeltaMap.from_table(2, F2, DeltaDomain.rank_exact(1),
                            [(Matrix.zero(F2, 2), Matrix.zero(F2, 2))])
    full = DeltaMap.from_table(2, F2, DeltaDomain.full(), {one: e00})
    assert full(one) == e00


def test_delta_map_constructor_refuses_keys_outside_domain(F2):
    # the constructor takes no table: a table reaches a map only through
    # ``from_table``, which checks it, since a hit no longer ranks its
    # argument and an unchecked rank-2 key would be served
    one, zero = Matrix.identity(F2, 2), Matrix.zero(F2, 2)
    with pytest.raises(TypeError):
        DeltaMap(2, F2, DeltaDomain.rank_leq(1), table={one.rows: zero})
    with pytest.raises(UsageError, match=r"key \[1 0 0 1\] lies outside domain rank-leq\(1\)$"):
        DeltaMap.from_table(2, F2, DeltaDomain.rank_leq(1), {one: zero})
    e00 = Matrix.unit(F2, 2, 0, 0)
    delta = DeltaMap.from_table(2, F2, DeltaDomain.rank_leq(1), {e00: one})
    assert delta(e00) == one


def test_delta_table_keys_checked_once(F2, monkeypatch):
    d = CanonicalDerivation.random(F2, 2, seed=5)
    text = derivation_delta(d, DeltaDomain.rank_leq(1)).to_text()
    pairs = [(x, apply_derivation(d, x)) for k in (0, 1) for x in enumerate_rank_k(2, k, F2)]
    calls = []
    contains = DeltaDomain.contains
    monkeypatch.setattr(DeltaDomain, "contains",
                        lambda self, x: calls.append(x.rows) or contains(self, x))
    delta = DeltaMap.from_text(text)
    assert len(calls) == len(pairs) == 10
    calls.clear()
    delta.override(pairs[1][0], pairs[0][1])
    assert len(calls) == 1
    calls.clear()
    DeltaMap.from_table(2, F2, DeltaDomain.rank_leq(1), pairs)
    assert len(calls) == 10
    calls.clear()
    DeltaMap.from_table(2, F2, DeltaDomain.rank_leq(1), dict(pairs))
    assert len(calls) == 10


def test_delta_table_override_refuses_keys_outside_domain(F2):
    d = CanonicalDerivation.random(F2, 2, seed=3)
    delta = DeltaMap.from_text(derivation_delta(d, DeltaDomain.rank_leq(1)).to_text())
    one = Matrix.identity(F2, 2)
    with pytest.raises(DomainError, match=r"^matrix of rank 2 outside delta domain rank-leq\(1\)$"):
        delta.override(one, Matrix.zero(F2, 2))
    e00 = Matrix.unit(F2, 2, 0, 0)
    assert delta.override(e00, one)(e00) == one


def test_delta_table_text_round_trip(F2):
    d = CanonicalDerivation.random(F2, 2, seed=2)
    delta = derivation_delta(d, DeltaDomain.rank_leq(1))
    text = delta.to_text()
    assert text.startswith("delta n 2 field F2 domain rank-leq(1)\n")
    parsed = DeltaMap.from_text(text)
    assert parsed.domain == DeltaDomain.rank_leq(1)
    for k in range(2):
        for x in enumerate_rank_k(2, k, F2):
            assert parsed(x) == delta(x)
    assert parsed.to_text() == text


def test_delta_table_records_sorted_and_complete(F3):
    d = CanonicalDerivation.random(F3, 2, seed=3)
    delta = derivation_delta(d, DeltaDomain.rank_leq(1))
    lines = delta.to_text().strip().split("\n")[1:]
    assert len(lines) == 1 + 32  # zero matrix + rank-1 count over F_3
    keys = [ln.split("->")[0] for ln in lines]
    assert keys == sorted(keys, key=lambda s: [int(v) for v in s.split()])


def test_delta_table_cor31_union_domain(F2):
    d = CanonicalDerivation.random(F2, 2, seed=6)
    delta = derivation_delta(d, DeltaDomain.cor31_union())
    text = delta.to_text()
    assert text.startswith("delta n 2 field F2 domain cor31-union\n")
    assert len(text.strip().split("\n")) == 1 + 9 + 6  # ranks 1 and 2
    parsed = DeltaMap.from_text(text)
    assert parsed.domain == DeltaDomain.cor31_union()
    with pytest.raises(DomainError):
        parsed(Matrix.zero(F2, 2))


def test_delta_table_duplicate_record_rejected(F2):
    # a second record for the zero matrix used to replace the first silently
    text = ("delta n 2 field F2 domain rank-leq(1)\n"
            "0 0 0 0 -> 0 0 0 0\n"
            "\n"
            "0 0 0 0 -> 1 1 1 1\n")
    with pytest.raises(UsageError, match=r"duplicate .*\[0 0 0 0\] on line 4$"):
        DeltaMap.from_text(text)


def test_delta_table_out_of_domain_record_rejected(F2):
    # a rank-2 record in a rank <= 1 table could never be looked up
    text = ("delta n 2 field F2 domain rank-leq(1)\n"
            "0 0 0 0 -> 0 0 0 0\n"
            "1 0 0 1 -> 0 0 0 0\n")
    with pytest.raises(UsageError,
                       match=r"record for \[1 0 0 1\] on line 3 lies outside domain rank-leq\(1\)$"):
        DeltaMap.from_text(text)
    text = ("delta n 2 field F2 domain rank-exact(1)\n"
            "0 0 0 0 -> 0 0 0 0\n")
    with pytest.raises(UsageError, match=r"\[0 0 0 0\] on line 2 lies outside domain rank-exact\(1\)$"):
        DeltaMap.from_text(text)


def test_delta_table_text_must_cover_its_domain(F2):
    # a finite-field table that leaves a matrix out is refused at load
    d = CanonicalDerivation.random(F2, 2, seed=7)
    lines = derivation_delta(d, DeltaDomain.rank_leq(1)).to_text().splitlines()
    del lines[3]
    with pytest.raises(UsageError,
                       match=r"^delta table has 9 records, but domain rank-leq\(1\) "
                             r"over F2 at n=2 has 10 matrices$"):
        DeltaMap.from_text("\n".join(lines) + "\n")


def test_delta_table_text_with_s_above_n(F2):
    # rank-leq(3) at n = 2 holds every 2 x 2 matrix, rank-exact(3) none
    d = CanonicalDerivation.random(F2, 2, seed=7)
    text = derivation_delta(d, DeltaDomain.full()).to_text()
    header, body = text.split("\n", 1)
    loaded = DeltaMap.from_text(header.replace("domain full", "domain rank-leq(3)")
                                + "\n" + body)
    assert loaded.to_text() == text.replace("domain full", "domain rank-leq(3)")
    assert len(loaded.tabulate()) == 16
    empty = DeltaMap.from_text("delta n 2 field F2 domain rank-exact(3)\n")
    assert empty.tabulate() == []


def test_delta_map_equality_uses_tables(F2):
    d = CanonicalDerivation.random(F2, 2, seed=4)
    t1 = DeltaMap.from_text(derivation_delta(d, DeltaDomain.rank_leq(1)).to_text())
    t2 = DeltaMap.from_text(derivation_delta(d, DeltaDomain.rank_leq(1)).to_text())
    assert t1 == t2
    e11 = Matrix.unit(F2, 2, 0, 0)
    assert t1 != t2.override(e11, Matrix.identity(F2, 2))


# -- verify_hypothesis ----------------------------------------------------------------

def test_verify_inner_derivation_pass(F2):
    delta = make_delta(CanonicalDerivation(Matrix.unit(F2, 2, 0, 1)))
    report = verify_hypothesis(delta, 1)
    assert report.passed
    assert report.checked == 81  # 9 rank-1 matrices, ordered pairs


def test_verify_identity_map_fails_at_idempotent(F2):
    ident = DeltaMap(2, F2, DeltaDomain.full(), lambda m: m)
    report = verify_hypothesis(ident, 1)
    assert not report.passed
    e11 = Matrix.unit(F2, 2, 0, 0)
    bad_pairs = [(x, y) for x, y, _, _ in report.violations for y in [y]]
    assert (e11, e11) in bad_pairs
    # hand check: delta(e11 e11) = e11 but the rule gives 2 e11 = 0 in char 2
    viol = next(v for v in report.violations if v[0] == e11 and v[1] == e11)
    assert viol[2] == e11 and viol[3].is_zero()


def test_verify_zero_map_passes(F3):
    zero = DeltaMap(2, F3, DeltaDomain.full(), lambda m: Matrix.zero(F3, 2))
    assert verify_hypothesis(zero, 1).passed


def test_verify_sampled_requires_seed(Q):
    delta = make_delta(CanonicalDerivation.random(Q, 2, seed=5))
    with pytest.raises(UsageError):
        verify_hypothesis(delta, 1, mode="sampled")
    report = verify_hypothesis(delta, 1, mode="sampled", count=50, seed=3)
    assert report.passed and report.checked == 50


# sampled verify, s = 1, count 40, seed 23, of a map corrupted at rank 1
# (garbage seed 22) and of the derivation's own map: field, n, garbage ranks,
# pairs, then the report's mode, pairs checked and violations, the sha256 of
# the matrices delta met in call order, and the sha256 of the summary and the
# violations as (x, y, lhs, rhs) encodings
SAMPLED_RECORDS = [
    ("F3", 3, {1}, "rank-s", "sampled(40)", 40, 40, "4b38d14f5bae3e25", "8b0b4cad780b6390"),
    ("F3", 3, {1}, "mixed", "sampled-mixed(40)", 40, 14, "78b7054674b831bc", "abd085b0cd39bd5b"),
    ("F3", 3, set(), "rank-s", "sampled(40)", 40, 0, "4b38d14f5bae3e25", "bf19223242e8f14e"),
    ("F3", 3, set(), "mixed", "sampled-mixed(40)", 40, 0, "78b7054674b831bc", "7680d9681e9ff99c"),
    ("Q(t)", 2, {1}, "rank-s", "sampled(40)", 40, 40, "547397283bf2fd20", "e0b8b3ef810fc695"),
    ("Q(t)", 2, {1}, "mixed", "sampled-mixed(40)", 40, 9, "dd7675b56425e4fb", "5a4b19548b11017e"),
    ("Q(t)", 2, set(), "rank-s", "sampled(40)", 40, 0, "547397283bf2fd20", "bf19223242e8f14e"),
    ("Q(t)", 2, set(), "mixed", "sampled-mixed(40)", 40, 0, "dd7675b56425e4fb", "7680d9681e9ff99c"),
]


@pytest.mark.parametrize("spec, n, garbage, pairs, mode, checked, violations, order, report",
                         SAMPLED_RECORDS,
                         ids=[f"{r[0]}-n{r[1]}-{r[3]}-{'bad' if r[2] else 'good'}"
                              for r in SAMPLED_RECORDS])
def test_verify_sampled_reports_pinned(spec, n, garbage, pairs, mode, checked, violations,
                                       order, report):
    """Over Q(t) the derivation has a c d/dt part."""
    F = parse_field(spec)
    truth = CanonicalDerivation.random(F, n, seed=21, with_dt=spec == "Q(t)")
    inner = make_delta(truth, garbage_ranks=garbage, seed=22)
    calls = []

    def fn(x):
        calls.append(x.encode())
        return inner(x)

    got = verify_hypothesis(DeltaMap(n, F, inner.domain, fn), 1,
                            mode="sampled", count=40, seed=23, pairs=pairs)
    assert (got.mode, got.checked, len(got.violations)) == (mode, checked, violations)
    assert _sha(calls) == order
    assert _sha([got.summary()]
                + [" | ".join(m.encode() for m in v) for v in got.violations]) == report


def test_verify_exhaustive_needs_finite_field(Q):
    delta = make_delta(CanonicalDerivation.random(Q, 2, seed=6))
    with pytest.raises(UsageError):
        verify_hypothesis(delta, 1)


def test_verify_domain_errors_propagate(F2):
    delta = derivation_delta(CanonicalDerivation.random(F2, 2, seed=7),
                             DeltaDomain.rank_exact(1))
    # products of rank-1 pairs reach rank 0, outside the declared domain
    with pytest.raises(DomainError):
        verify_hypothesis(delta, 1)


@pytest.mark.parametrize("pairs", ["rank-s", "mixed"])
def test_verify_exhaustive_guard_refuses_before_enumerating(F3, no_enumeration, pairs):
    """F_3, n = 4, s = 2 has 811,200 rank-2 matrices, 6.6e11 ordered pairs;
    the count comes from the formula, so nothing is enumerated or evaluated."""
    delta = DeltaMap(4, F3, DeltaDomain.full(), no_enumeration)
    with pytest.raises(ResourceLimitError, match="exhaustive verification guard"):
        verify_hypothesis(delta, 2, pairs=pairs)


# (field, n, pairs): the delta calls and report of exhaustive verify with s = 1,
# recorded before verify read delta once per matrix: the number of distinct
# matrices delta met, the sha256 of their encodings in order of first call,
# the pairs checked, the violations, the sha256 of the count and the
# violations as (x, y, lhs, rhs) encodings, and the last matrix first met
VERIFY_RECORDS = [
    ("F2", 3, "rank-s", 50, "4956c642edc1dd29", 2401, 116, "574c8f13b86522c3",
     "0 0 0 0 0 0 0 0 0"),
    ("F2", 3, "mixed", 50, "dbf8f58b8acd6fb6", 5000, 232, "498e3bad7630692c",
     "1 1 1 1 1 1 1 1 1"),
    ("F3", 2, "rank-s", 33, "2adccb6beb4ebbf6", 1024, 64, "b2740c68d3754aa0", "0 0 0 0"),
    ("F3", 2, "mixed", 33, "10da392bbeb38dd6", 2178, 128, "eb9023047dbe0be5", "2 2 2 2"),
]


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec, n, pairs, distinct, order, checked, violations, report, last",
                         VERIFY_RECORDS, ids=[f"{r[0]}-n{r[1]}-{r[2]}" for r in VERIFY_RECORDS])
def test_verify_exhaustive_reads_delta_once_per_matrix(spec, n, pairs, distinct, order,
                                                       checked, violations, report, last):
    """A function-backed map, corrupted at e_01 so that some pairs fail, is
    called at most once per matrix and in the recorded order of first calls
    (the x side, the y side, then each product at its first pair), and the
    report is the recorded one.  A map that raises at the last matrix first
    met raises the recorded error."""
    F = parse_field(spec)
    inner = make_delta(CanonicalDerivation.random(F, n, seed=41)).override(
        Matrix.unit(F, n, 0, 1), Matrix.identity(F, n))
    calls = []

    def fn(x):
        calls.append(x.encode())
        return inner(x)

    got = verify_hypothesis(DeltaMap(n, F, inner.domain, fn), 1, pairs=pairs)
    assert len(calls) == len(set(calls)) == distinct
    assert _sha(calls) == order
    assert got.checked == checked and len(got.violations) == violations
    assert _sha([str(got.checked)]
                + [" | ".join(m.encode() for m in v) for v in got.violations]) == report

    def refuse_last(x):
        if x.encode() == last:
            raise ValueError(f"refused [{x.encode()}]")
        return inner(x)

    with pytest.raises(ValueError, match=rf"^refused \[{last}\]$"):
        verify_hypothesis(DeltaMap(n, F, inner.domain, refuse_last), 1,
                          pairs=pairs)


def _verify_orders(n, F, s):
    """The pairs exhaustive verify checks, in its order, for each pair mode:
    rank by rank in ``enumerate_rank_k`` order, x outer, and (y, x) after
    (x, y) in mixed mode.  The modes share their matrix objects."""
    ranked = [list(enumerate_rank_k(n, k, F)) for k in range(max(s, 1) + 1)]
    xs = ranked[0] + ranked[1]
    ys = [m for k in range(s + 1) for m in ranked[k]]
    return {"rank-s": [(x, y) for x in ranked[s] for y in ranked[s]],
            "mixed": [pair for x in xs for y in ys for pair in ((x, y), (y, x))]}


def _reference_failures(honest, overrides, order):
    """The product rule written out with ``Matrix`` ``*``, ``+`` and ``==``
    on the pairs of ``order``, each pair of objects once, for ``honest`` and
    for ``honest`` overridden at ``overrides`` (pairs of matrices): for each
    map the pairs that fail, as {(id(x), id(y)): (x, y, lhs, rhs)}.  The two
    maps agree off the overrides, so the corrupted map's right side is
    formed again only where a factor is overridden."""
    values = {}
    changed = {m.rows: v for m, v in overrides}

    def value(m):
        if m.rows not in values:
            values[m.rows] = honest(m)
        return values[m.rows]

    def changed_value(m):
        return changed.get(m.rows) or value(m)

    good, bad = {}, {}
    for x, y in {(id(x), id(y)): (x, y) for x, y in order}.values():
        xy = x * y
        lhs, rhs = value(xy), value(x) * y + x * value(y)
        if not lhs == rhs:
            good[id(x), id(y)] = (x, y, lhs, rhs)
        if x.rows in changed or y.rows in changed:
            rhs = changed_value(x) * y + x * changed_value(y)
        lhs = changed_value(xy)
        if not lhs == rhs:
            bad[id(x), id(y)] = (x, y, lhs, rhs)
    return good, bad


def _reference_report(failures, order):
    return len(order), [failures[id(x), id(y)] for x, y in order
                        if (id(x), id(y)) in failures]


def _assert_verify_matches_reference(honest, overrides, s):
    """Exhaustive verify in both pair modes of ``honest``, which must pass,
    and of ``honest`` with ``overrides``, which must fail, against the
    reference loop."""
    n, F = honest.n, honest.field
    corrupted = honest
    for m, v in overrides:
        corrupted = corrupted.override(m, v)
    orders = _verify_orders(n, F, s)
    good, bad = _reference_failures(honest, overrides,
                                     orders["rank-s"] + orders["mixed"])
    for pairs, order in orders.items():
        reports = []
        for delta, failures in ((honest, good), (corrupted, bad)):
            checked, violations = _reference_report(failures, order)
            got = verify_hypothesis(delta, s, pairs=pairs)
            assert got.checked == checked
            assert len(got.violations) == len(violations)
            for v, w in zip(got.violations, violations):
                assert v == w
            reports.append(got)
        assert reports[0].passed and not reports[1].passed


def _overrides(F, n):
    """Junk values at the zero matrix, at the rank-1 unit e_0,n-1 and at a
    product place, the product of the last two rank-1 matrices."""
    ones = list(enumerate_rank_k(n, 1, F))
    junk = Matrix.identity(F, n)
    return [(Matrix.zero(F, n), junk), (Matrix.unit(F, n, 0, n - 1), junk + junk),
            (ones[-2] * ones[-1], Matrix.unit(F, n, n - 1, 0))]


_VERIFY_CASES = [("F2", 2, "make_delta"), ("F2", 3, "make_delta"), ("F2", 4, "make_delta"),
                 ("F3", 2, "make_delta"), ("F3", 3, "make_delta"), ("F5", 2, "make_delta"),
                 ("F7", 2, "make_delta"), ("F2", 3, "derivation_delta"),
                 ("F5", 2, "derivation_delta"), ("F2", 3, "table"), ("F3", 2, "table"),
                 ("F5", 2, "table")]


@pytest.mark.parametrize("spec, n, backing", _VERIFY_CASES,
                         ids=[f"{c[0]}-{c[1]}" + ("" if c[2] == "make_delta" else f"-{c[2]}")
                              for c in _VERIFY_CASES])
def test_verify_exhaustive_matches_matrix_arithmetic(spec, n, backing):
    """Exhaustive verify, which compares packed keys, against the same loop
    on ``Matrix`` arithmetic: an honest map and one corrupted at the zero
    matrix, at a rank-1 matrix and at a product place give the same pairs
    and the same violations, in order, in both pair modes.  The honest map
    is function-backed (``make_delta``, ``derivation_delta``), so its values
    are brackets held as their keys, or a table of the same values held as
    rows, keyed from their packed rows."""
    F = parse_field(spec)
    D = CanonicalDerivation.random(F, n, seed=51)
    if backing == "make_delta":
        honest = make_delta(D)
    elif backing == "derivation_delta":
        honest = derivation_delta(D)
    else:
        honest = DeltaMap.from_table(
            n, F, DeltaDomain.rank_leq(1),
            {m: Matrix._raw(F, D(m).rows) for k in (0, 1) for m in enumerate_rank_k(n, k, F)})
    _assert_verify_matches_reference(honest, _overrides(F, n), 1)


@pytest.mark.parametrize("spec, n, s", [("F13", 1, 1), ("F11", 2, 0)])
def test_verify_exhaustive_without_interned_rows(spec, n, s):
    """F_13 at n = 1 and F_11 at n = 2 have no packed space, so verify
    keys on rows and multiplies ``Matrix`` objects; it matches the
    reference loop all the same."""
    F = parse_field(spec)
    honest = make_delta(CanonicalDerivation.random(F, n, seed=52))
    _assert_verify_matches_reference(honest, _overrides(F, n), s)


def test_exhaustive_guards_admit_only_interned_rows():
    """Wherever n >= 2 and s >= 1, every case the exhaustive verify guard
    or the solver guards admit lies in a packed space that interns its
    rows, so the ``Matrix`` fallback of ``RankDomain`` serves only s = 0
    and n = 1 (at p >= 13, where nothing packs).  Counts rise with n and q,
    and nothing is admitted at n = 6 even over F_2."""
    def admitted(n, s, q):
        rank_s = rank_count_formula(n, s, q)
        mixed = 2 * rank_total(n, (0, 1), q) * rank_total(n, range(s + 1), q)
        solver = (2 * s <= n and rank_total(n, range(s + 1), q) * n * n <= UNKNOWN_GUARD
                  and rank_s ** 2 <= BLOCK_GUARD)
        return rank_s ** 2 <= VERIFY_GUARD or mixed <= VERIFY_GUARD or solver

    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    seen = set()
    for p in primes:
        for n in range(2, 7):
            for s in range(1, n + 1):
                if admitted(n, s, p):
                    seen.add((p, n))
                    assert _packed.fits(p, n) and p ** n <= _packed.INTERN_ROWS, (p, n, s)
    assert not any(n == 6 for _, n in seen)
    assert not _packed.fits(13, 1) and _packed.fits(11, 1)


def test_verify_rank_zero_enumerates_rank_zero_only(F2, monkeypatch):
    """verify with s = 0 checks the one pair (0, 0) and needs no rank-1
    matrix: at F_2, n = 12 there are 16,769,025 of them."""
    import rankderiv.matrix

    calls = []
    enumerate_ranks = rankderiv.matrix.enumerate_rank_k

    def recorded(n, k, field):
        calls.append(k)
        if k:
            raise AssertionError(f"enumerated rank {k}")
        return enumerate_ranks(n, k, field)

    monkeypatch.setattr(rankderiv.matrix, "enumerate_rank_k", recorded)
    zero = Matrix.zero(F2, 12)
    delta = DeltaMap(12, F2, DeltaDomain.full(), lambda m: zero)
    report = verify_hypothesis(delta, 0)
    assert report.passed and report.checked == 1
    assert calls == [0]


# values that are no canonical matrix of F_2 at n = 2
FOREIGN_VALUES = {
    "other-field": lambda: Matrix.zero(parse_field("F3"), 2),
    "other-n": lambda: Matrix.zero(parse_field("F2"), 3),
    "entry-above-p": lambda: Matrix(parse_field("F2"), [[2, 0], [0, 0]], canonicalize=False),
}


@pytest.mark.parametrize("pairs", ["rank-s", "mixed"])
@pytest.mark.parametrize("name", sorted(FOREIGN_VALUES))
def test_verify_foreign_product_value_is_a_violation(F2, name, pairs):
    """Such a value at delta(0) fails every pair whose product is 0 and
    raises nothing, as long as no pair reads it as a factor."""
    bad = FOREIGN_VALUES[name]()
    zero = Matrix.zero(F2, 2)
    honest = make_delta(CanonicalDerivation(Matrix.unit(F2, 2, 0, 1)))
    delta = honest.override(zero, bad)
    if pairs == "rank-s":
        # rank-1 pairs whose product is 0 read delta(0) only as a product
        got = verify_hypothesis(delta, 1)
        order = _verify_orders(2, F2, 1)[pairs]
        _, failures = _reference_failures(honest, [(zero, bad)], order)
        checked, violations = _reference_report(failures, order)
        assert got.checked == checked and list(got.violations) == violations
        assert len(violations) == 27 and all(v[2] is bad for v in violations)
    else:
        # in mixed mode delta(0) is an operand as well, and is refused there
        with pytest.raises(UsageError):
            verify_hypothesis(delta, 1, pairs=pairs)


# delta(e_01) as an operand: refused with the UsageError of Matrix arithmetic
FOREIGN_OPERANDS = [
    ("other-field", "field mismatch: F2 vs F3"),
    ("other-n", "dimension mismatch: 2 vs 3"),
    ("entry-above-p", "matrix entries are not canonical residues mod 2"),
]


@pytest.mark.parametrize("pairs", ["rank-s", "mixed"])
@pytest.mark.parametrize("name, message", FOREIGN_OPERANDS)
def test_verify_foreign_operand_value_is_refused(F2, name, message, pairs):
    delta = make_delta(CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))).override(
        Matrix.unit(F2, 2, 0, 1), FOREIGN_VALUES[name]())
    with pytest.raises(UsageError, match=f"^{message}$"):
        verify_hypothesis(delta, 1, pairs=pairs)


def test_check_linear_combination(F3):
    d1 = make_delta(CanonicalDerivation.random(F3, 2, seed=8))
    d2 = make_delta(CanonicalDerivation.random(F3, 2, seed=9))
    report = check_linear_combination(d1, d2, 2, 1, 1)
    assert report.passed
    report = check_linear_combination(d1, d2, 0, 0, 1)
    assert report.passed


def test_verify_mixed_pairs_mode(F2):
    delta = make_delta(CanonicalDerivation.random(F2, 3, seed=30),
                       garbage_ranks={2, 3}, seed=30)
    report = verify_hypothesis(delta, 1, pairs="mixed")
    assert report.passed
    assert report.mode == "exhaustive-mixed"
    # a map corrupted at the zero matrix fails the mixed check but is never
    # touched by rank-s pairs of an honest derivation restriction
    bad = delta.override(Matrix.zero(F2, 3), Matrix.identity(F2, 3))
    assert not verify_hypothesis(bad, 1, pairs="mixed").passed


def test_idempotent_witnesses_force_zero_value(F2):
    """e = sum of the first s diagonal units, f = the next s, g = the shifted
    block: all rank s, with ef = ge = 0; any map obeying the product rule on
    rank-s pairs must therefore value the zero matrix at zero."""
    for n, s in ((2, 1), (4, 2), (4, 1)):
        e = Matrix.diag_ones(F2, n, range(s))
        f = Matrix.diag_ones(F2, n, range(s, 2 * s))
        g = Matrix._raw(F2, [
            [1 if j == i + s and i < s else 0 for j in range(n)]
            for i in range(n)
        ])
        assert e.rank() == s and f.rank() == s and g.rank() == s
        assert (e * f).is_zero() and (g * e).is_zero()
        d = CanonicalDerivation.random(F2, n, seed=31)
        delta = make_delta(d, garbage_ranks=set(range(s + 1, n + 1)), seed=31)
        zero = Matrix.zero(F2, n)
        assert delta(e) * f + e * delta(f) == zero
        assert delta(g) * e + g * delta(e) == zero
        assert delta(zero) == zero


# -- extend_to_low_ranks -----------------------------------------------------------

def test_extension_assigns_zero_at_zero(F2):
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    restr = derivation_delta(d, DeltaDomain.rank_exact(1))
    result = extend_to_low_ranks(restr)
    assert result.consistent
    assert result.delta(Matrix.zero(F2, 2)).is_zero()
    assert result.delta.domain == DeltaDomain.rank_leq(1)


def test_extension_matches_derivation(F2):
    d = CanonicalDerivation.random(F2, 4, seed=12)
    restr = derivation_delta(d, DeltaDomain.rank_exact(2))
    result = extend_to_low_ranks(restr)
    assert result.consistent
    for k in range(2):
        for x in enumerate_rank_k(4, k, F2):
            assert result.delta(x) == apply_derivation(d, x)


def test_extension_flags_corruption(F2):
    from rankderiv.factor import factor_rank_s
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    restr = derivation_delta(d, DeltaDomain.rank_exact(1))
    # corrupt the value at a factor actually used by the extension
    used = factor_rank_s(Matrix.zero(F2, 2), 1).y1
    bad = restr.override(used, Matrix.identity(F2, 2))
    result = extend_to_low_ranks(bad, s=1)
    assert not result.consistent
    assert len(result.inconsistencies) >= 1


def test_extension_guard_refuses_before_enumerating(F3, no_enumeration):
    """F_3, n = 5 has 70,306,083 matrices of rank <= 2; the count comes from
    the formula, so nothing is enumerated or evaluated."""
    delta = DeltaMap(5, F3, DeltaDomain.rank_exact(2), no_enumeration)
    with pytest.raises(ResourceLimitError,
                       match="70306083 matrices exceed the 1000000 exhaustive extension guard"):
        extend_to_low_ranks(delta)


# -- extract_derivation ---------------------------------------------------------------

def test_extract_inner_derivation_over_q(Q):
    a = Matrix.unit(Q, 2, 0, 1)
    delta = derivation_delta(CanonicalDerivation(a), DeltaDomain.rank_leq(1))
    got = extract_derivation(delta, 1, probes=[Fraction(1), Fraction(2, 3)])
    assert got.A == a
    assert got.mu.is_zero()


def test_extract_entrywise_dt(Qt):
    t = Qt.gen
    d = CanonicalDerivation(Matrix.zero(Qt, 2),
                            FieldDerivation.scaled_dt(Qt, Qt.one))
    delta = derivation_delta(d)
    got = extract_derivation(delta, 1,
                             probes=[t, Qt.mul(t, t), Qt.add(t, Qt.one), Qt.one])
    assert got.A.is_zero()
    assert got.mu == FieldDerivation.scaled_dt(Qt, Qt.one)
    assert got.mu(t) == Qt.one


def test_extract_zero_map(F3):
    delta = DeltaMap(2, F3, DeltaDomain.full(), lambda m: Matrix.zero(F3, 2))
    got = extract_derivation(delta, 1)
    assert got.A.is_zero()
    assert got.mu.is_zero()


def test_extract_round_trip_with_garbage(F2, F3):
    for field, n, s in ((F2, 2, 1), (F3, 2, 1), (F2, 4, 2)):
        for seed in range(5):
            d = CanonicalDerivation.random(field, n, seed=seed)
            delta = make_delta(d, garbage_ranks=set(range(s + 1, n + 1)), seed=seed)
            got = extract_derivation(delta, s)
            assert got.A == d.A
            assert got.mu.is_zero() == d.mu.is_zero()
            for k in range(s + 1):
                for x in enumerate_rank_k(n, k, field):
                    assert apply_derivation(got, x) == delta(x)


def test_extract_normalization_invariants(F3):
    d = CanonicalDerivation.random(F3, 3, seed=21)
    got = extract_derivation(make_delta(d), 1)
    assert got.A[0, 0] == 0
    assert got.A == d.A


def test_extract_round_trip_infinite_fields(Q, Qt):
    """100 seeded derivations per infinite field, 25 per (n, s) shape, map
    equality on a shared pool of 1000 sampled rank <= s matrices each (the
    finite-field twin of this round trip is acceptance criterion 2)."""
    import random as _random
    from fractions import Fraction as _F

    for field, with_dt in ((Q, False), (Qt, True)):
        if with_dt:
            t = field.gen
            probes = [t, field.mul(t, t), field.add(t, field.one), field.one]
        else:
            probes = [_F(1), _F(2, 3), _F(-3)]
        for n, s in ((2, 1), (3, 1), (4, 1), (4, 2)):
            rng = _random.Random(f"roundtrip|{field.spec()}|{n}|{s}")
            points = [random_rank_k(n, rng.randint(0, s), field,
                                    seed=rng.randrange(2 ** 63))
                      for _ in range(1000)]
            for seed in range(25):
                d = CanonicalDerivation.random(field, n, seed=seed,
                                               with_dt=with_dt)
                delta = make_delta(d, garbage_ranks=set(range(s + 1, n + 1)),
                                   seed=seed)
                got = extract_derivation(delta, s, probes=probes)
                assert got.A == d.A, (field.spec(), n, s, seed)
                assert got.mu == d.mu, (field.spec(), n, s, seed)
                for x in points:
                    assert apply_derivation(got, x) == delta(x)


def test_extract_diagnoses_bad_idempotent_image(F2):
    d = CanonicalDerivation.random(F2, 2, seed=13)
    delta = make_delta(d)
    e11 = Matrix.unit(F2, 2, 0, 0)
    bad = delta.override(e11, Matrix.unit(F2, 2, 1, 1))
    with pytest.raises(ExtractionError) as err:
        extract_derivation(bad, 1)
    assert err.value.identity == "idempotent-image"


def test_extract_diagnoses_lambda_violations(F3):
    n = 4
    d = CanonicalDerivation(Matrix.zero(F3, n))
    delta = make_delta(d)
    # hand the extractor a delta(e_01) with a poisoned (0, 1) entry: the sum
    # rule lambda_02 = lambda_01 + lambda_12 breaks while images stay sandwiched
    e01 = Matrix.unit(F3, n, 0, 1)
    bad = delta.override(e01, e01.scaled(2))
    with pytest.raises(ExtractionError) as err:
        extract_derivation(bad, 2)
    assert err.value.identity in ("lambda-cocycle", "lambda-antisymmetry")


def test_extract_diagnoses_orthogonal_idempotents(F2):
    # delta(e_00) = e_01 has the sandwich form, but with delta(e_11) = 0 the
    # product rule at (e_00, e_11) reads 0 = e_00 * 0 + e_01 * e_11 = e_01
    delta = make_delta(CanonicalDerivation(Matrix.zero(F2, 2)))
    bad = delta.override(Matrix.unit(F2, 2, 0, 0), Matrix.unit(F2, 2, 0, 1))
    with pytest.raises(ExtractionError) as err:
        extract_derivation(bad, 1)
    assert err.value.identity == "orthogonal-idempotents"


def test_extract_refuses_values_of_the_wrong_ring(F2, F3):
    for value in (Matrix.zero(F2, 3), Matrix.zero(F3, 2)):
        delta = DeltaMap(2, F2, DeltaDomain.full(), lambda x, value=value: value)
        with pytest.raises(UsageError):
            extract_derivation(delta, 1)
    # only the value read for mu is of the wrong size
    e00 = Matrix.unit(F2, 2, 0, 0)
    delta = make_delta(CanonicalDerivation(Matrix.unit(F2, 2, 0, 1)))
    bad = DeltaMap(
        2, F2, DeltaDomain.full(),
        lambda x: Matrix.zero(F2, 3) if x.rows == e00.scaled(0).rows else delta(x))
    with pytest.raises(UsageError):
        extract_derivation(bad, 1)


def _reference_extract(delta, points):
    """Extraction with each identity stated as ``Matrix`` products and sums
    of unit matrices: the identity that fails first, or (A, mu at points)."""
    n, fld = delta.n, delta.field
    e = _units(fld, n)
    zero = Matrix.zero(fld, n)
    d = [delta(e[i, i]) for i in range(n)]
    for i in range(n):
        if d[i] != e[i, i] * d[i] + d[i] * e[i, i]:
            return "idempotent-image"
    for i in range(n):
        for j in range(n):
            if i != j and e[i, i] * d[j] + d[i] * e[j, j] != zero:
                return "orthogonal-idempotents"
    lam = {(i, j): (d[i] if i == j else delta(e[i, j]))[i, j]
           for i in range(n) for j in range(n)}
    for i in range(n):
        if lam[i, i] != fld.zero:
            return "lambda-diagonal"
    for i in range(n):
        for j in range(n):
            if lam[i, j] != fld.neg(lam[j, i]):
                return "lambda-antisymmetry"
            for k in range(n):
                if lam[i, k] != fld.add(lam[i, j], lam[j, k]):
                    return "lambda-cocycle"
    a = zero
    for i in range(n):
        a = a + d[i] * e[i, i] + e[i, i].scaled(lam[i, 0])
    mu = {}
    for c in points:
        x = e[0, 0].scaled(c)
        mu[c] = (delta(x) - (a * x - x * a))[0, 0]
    return a, mu


def _logged(delta, log):
    return DeltaMap(delta.n, delta.field, delta.domain,
                    lambda x: log.append(x.rows) or delta(x))


def test_extract_matches_the_product_form_of_each_identity(F2, F3, Q):
    """Seeded maps with one value replaced: a random matrix, a random matrix
    of the sandwich form at e_ii, or a random matrix that keeps the entry
    lambda is read from; the library and the reference name the same failed
    identity or give the same derivation, after the same evaluations."""
    import random as _random

    probes = [Fraction(1), Fraction(2, 3), Fraction(-3)]
    outcomes = set()
    for field, n, s in ((F2, 2, 1), (F2, 4, 2), (F3, 2, 1), (F3, 3, 1),
                        (Q, 2, 1), (Q, 3, 1)):
        points = list(field.elements()) if field.is_finite else probes
        for seed in range(40):
            rng = _random.Random(f"extract-diff|{field.spec()}|{n}|{seed}")
            delta = make_delta(CanonicalDerivation.random(field, n, seed=seed))
            i, j = rng.randrange(n), rng.randrange(n)
            x = Matrix.unit(field, n, i, j)
            if rng.random() < 0.15:
                x = x.scaled(rng.choice(points[1:]) if field.is_finite
                             else rng.choice(probes))
            kind = rng.choice(("random", "sandwich", "keep"))
            rows = [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
            for r in range(n):
                for c in range(n):
                    if kind == "sandwich" and (r == i) == (c == j):
                        rows[r][c] = field.zero
                    if kind == "keep" and (r, c) == (i, j):
                        rows[r][c] = delta(x)[i, j]
            bad = delta.override(x, Matrix(field, rows))
            ref_log, log = [], []
            want = _reference_extract(_logged(bad, ref_log), points)
            try:
                got = extract_derivation(_logged(bad, log), s,
                                         probes=() if field.is_finite else probes)
            except ExtractionError as exc:
                assert exc.identity == want, (field.spec(), n, seed)
                outcomes.add(want)
            else:
                a, mu = want
                assert got.A == a, (field.spec(), n, seed)
                assert [got.mu(c) for c in points] == [mu[c] for c in points]
                outcomes.add("derivation")
            assert log == ref_log, (field.spec(), n, seed)
    assert outcomes == {"idempotent-image", "orthogonal-idempotents",
                        "lambda-antisymmetry", "lambda-cocycle", "derivation"}


def _first_failure(delta):
    """The ExtractionError text of the first identity that fails, with each
    check as extraction states it and the lambda identities as the n^3
    antisymmetry and cocycle loop, or None."""
    n, fld = delta.n, delta.field
    e = _units(fld, n)
    zero = fld.zero
    d = [delta(e[i, i]).rows for i in range(n)]
    for i in range(n):
        if any(d[i][r][c] != zero for r in range(n) for c in range(n) if (r == i) == (c == i)):
            return (f"idempotent-image: delta(e_{i}{i}) is not of the sandwich form "
                    f"required by the product rule at (e_{i}{i}, e_{i}{i})")
    for i in range(n):
        for j in range(n):
            if i != j and fld.add(d[j][i][j], d[i][i][j]) != zero:
                return (f"orthogonal-idempotents: e_{i}{i} delta(e_{j}{j}) + "
                        f"delta(e_{i}{i}) e_{j}{j} != 0")
    lam = [[(d[i] if i == j else delta(e[i, j]).rows)[i][j] for j in range(n)]
           for i in range(n)]
    for i in range(n):
        for j in range(n):
            if lam[i][j] != fld.neg(lam[j][i]):
                return f"lambda-antisymmetry: lambda_{i}{j} != -lambda_{j}{i}"
            for k in range(n):
                if lam[i][k] != fld.add(lam[i][j], lam[j][k]):
                    return f"lambda-cocycle: lambda_{i}{k} != lambda_{i}{j} + lambda_{j}{k}"
    return None


@pytest.mark.parametrize("spec, n", [("F3", 4), ("Q", 3)])
def test_extract_names_the_failure_the_n3_loop_names(spec, n):
    """delta(e_ij) moved by c e_ij, for every (i, j): extraction raises the
    message of the first failure by the n^3 loop, after the same evaluations."""
    field = parse_field(spec)
    shifts = (1, 2) if field.is_finite else (Fraction(1), Fraction(-2, 3))
    kinds = set()
    for seed in range(2):
        delta = make_delta(CanonicalDerivation.random(field, n, seed=seed))
        for (i, j), x in _units(field, n).items():
            for c in shifts:
                bad = delta.override(x, delta(x) + x.scaled(c))
                ref_log, log = [], []
                want = _first_failure(_logged(bad, ref_log))
                with pytest.raises(ExtractionError) as err:
                    extract_derivation(_logged(bad, log), 1)
                assert str(err.value) == want, (spec, seed, i, j, c)
                assert log == ref_log
                kinds.add(err.value.identity)
    assert kinds == {"idempotent-image", "lambda-antisymmetry", "lambda-cocycle"}


@pytest.mark.parametrize("spec", ["Q(t)", "F3(t)"])
def test_extract_decodes_and_ranks_nothing(spec, monkeypatch):
    """Extraction reads single entries of delta's results without decoding
    them, and the units and multiples it evaluates carry their ranks, so
    ``make_delta``'s garbage check ranks none of them."""
    from rankderiv import _kronecker, matrix

    field = parse_field(spec)
    t = field.gen
    probes = [t, field.mul(t, t), field.add(t, field.one), field.one]
    calls = []
    for module, name in ((_kronecker, "decode"), (_kronecker, "int_rank"),
                         (matrix, "_gen_rank")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for n in (2, 3, 4):
        for seed in range(3):
            d = CanonicalDerivation.random(field, n, seed=seed, with_dt=True)
            delta = make_delta(d, garbage_ranks=range(2, n + 1), seed=seed)
            got = extract_derivation(delta, 1, probes=probes)
            assert calls == [], (n, seed)
            assert got == d
    # the counters see a rank and a decode where there is one
    y = Matrix(field, [[t] * 4] * 4)
    assert delta(y).rows == apply_derivation(d, y).rows
    assert "decode" in calls and {"int_rank", "_gen_rank"} & set(calls)


def test_extract_mu_probe_table_when_unfittable(Qt):
    d = CanonicalDerivation(Matrix.zero(Qt, 2))
    delta = make_delta(d)
    t = Qt.gen
    # poison the value at t*e_00 so no zero/dt rule fits the probes
    x = Matrix.unit(Qt, 2, 0, 0).scaled(t)
    bad = delta.override(x, Matrix.unit(Qt, 2, 0, 0))
    got = extract_derivation(bad, 1, probes=[t, Qt.mul(t, t)])
    assert got.mu.kind == "probes"
    assert got.mu(t) == Qt.one
    with pytest.raises(DomainError):
        got.mu(Qt.add(t, Qt.one))


def test_extract_function_field_needs_no_probe(Q, Qt):
    # mu is read off delta(t e_00), so no probe is needed; a probe with a zero
    # derivative is checked like any other
    d = CanonicalDerivation(Matrix.zero(Qt, 2),
                            FieldDerivation.scaled_dt(Qt, Qt.from_int(3)))
    delta = derivation_delta(d)
    for probes in ((), [Qt.one], [Qt.one, Qt.gen]):
        assert extract_derivation(delta, 1, probes=probes).mu == d.mu
    # t^3 has a zero derivative over F3(t)
    F3t = parse_field("F3(t)")
    t = F3t.gen
    d = CanonicalDerivation(Matrix.zero(F3t, 2), FieldDerivation.scaled_dt(F3t, F3t.one))
    got = extract_derivation(derivation_delta(d), 1, probes=[F3t.mul(t, F3t.mul(t, t))])
    assert got.mu == d.mu
    # over Q the only derivation is zero
    q = CanonicalDerivation(Matrix.unit(Q, 2, 0, 1))
    assert extract_derivation(derivation_delta(q), 1).mu.is_zero()
    # seeded derivations with a nonzero c d/dt come back whole without probes
    for spec in ("Q(t)", "F2(t)", "F3(t)"):
        field = parse_field(spec)
        for n in (2, 3, 4):
            for seed in range(3):
                d = CanonicalDerivation.random(field, n, seed=seed, with_dt=True)
                assert not d.mu.is_zero()
                assert extract_derivation(derivation_delta(d), 1) == d, (spec, n, seed)


def test_extract_preconditions(F2):
    delta = make_delta(CanonicalDerivation.random(F2, 2, seed=14))
    with pytest.raises(PreconditionError):
        extract_derivation(delta, 2)  # s > n/2


# -- reconstruct_full -------------------------------------------------------------------

def test_reconstruct_pass_n2(F2):
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    report = reconstruct_full(make_delta(d))
    assert report.passed
    assert report.checked == 16
    assert report.gap_ranks == ()
    assert report.derivation.A == d.A


def test_reconstruct_detects_perturbation(F2):
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    delta = make_delta(d)
    z = Matrix(F2, [[1, 1], [0, 0]])  # rank 1, not probed by extraction
    bad = delta.override(z, delta(z) + Matrix.identity(F2, 2))
    report = reconstruct_full(bad)
    assert not report.passed
    witnesses = [m for m, _, _ in report.failures]
    assert z in witnesses
    assert all(r == 1 for _, r, _ in report.failures)


def test_reconstruct_gap_ranks_n4(F2):
    d = CanonicalDerivation.random(F2, 4, seed=15)
    report = reconstruct_full(make_delta(d))
    assert report.gap_ranks == (2,)
    assert report.passed


def test_reconstruct_flags_the_product_rule_at_a_gap_rank(F2):
    """A map wrong only at rank 2, the gap rank of n = 4, fails the
    product-rule check at every rank-2 matrix and nowhere else."""
    d = CanonicalDerivation.random(F2, 4, seed=15)
    report = reconstruct_full(make_delta(d, garbage_ranks={2}, seed=24))
    assert report.gap_ranks == (2,)
    assert report.derivation.A == d.A
    assert [(r, reason) for _, r, reason in report.failures] == [
        (2, "product-rule")] * rank_count_formula(4, 2, 2)


def test_reconstruct_guard_refuses_before_enumerating(F2, no_enumeration):
    """M_5(F_2) has 2^25 matrices; the count comes from the formula, so
    nothing is extracted, enumerated or evaluated."""
    delta = DeltaMap(5, F2, DeltaDomain.full(), no_enumeration)
    with pytest.raises(ResourceLimitError,
                       match="33554432 matrices exceed the 1000000 exhaustive reconstruction guard"):
        reconstruct_full(delta)


def test_reconstruct_refuses_missing_seed_before_extracting(Q):
    """Over an infinite field reconstruction samples, which needs a seed
    and a count of at least 1; without them it is refused before delta is
    evaluated at all."""
    d = CanonicalDerivation.random(Q, 2, seed=17)
    calls = []

    def fn(x):
        calls.append(x)
        return apply_derivation(d, x)

    delta = DeltaMap(2, Q, DeltaDomain.full(), fn)
    with pytest.raises(UsageError, match="sampled reconstruction requires a seed"):
        reconstruct_full(delta)
    for count in (0, -5):
        with pytest.raises(UsageError, match=f"^sampled reconstruction needs a count >= 1, got {count}$"):
            reconstruct_full(delta, count=count, seed=1)
    assert calls == []
    assert reconstruct_full(delta, count=5, seed=1).passed
    assert calls


def test_reconstruct_rejects_degenerate_rank_set(F2):
    d = CanonicalDerivation.random(F2, 3, seed=16)
    with pytest.raises(PreconditionError, match="rank set"):
        reconstruct_full(make_delta(d))


# -- refusals ----------------------------------------------------------------------

_Q, _F2, _F3 = parse_field("Q"), parse_field("F2"), parse_field("F3")
_E01 = CanonicalDerivation(Matrix.unit(_F2, 2, 0, 1))
_HEADER = "delta n 2 field F2 domain full\n"

# every refusal of the derivation API that no other test reaches: the call,
# the exception class and the message as it stands
REFUSALS = {
    "mu-field": (lambda: CanonicalDerivation(Matrix.zero(_F2, 2), FieldDerivation.zero(_F3)),
                 UsageError, r"^mu must live on the matrix entry field$"),
    "random-dt-over-fp": (lambda: CanonicalDerivation.random(_F2, 2, seed=0, with_dt=True),
                          UsageError, r"^no d/dt over F2$"),
    "domain-kind": (lambda: DeltaDomain("rank-geq", 1), UsageError,
                    r"^unknown domain kind 'rank-geq'$"),
    "domain-rank": (lambda: DeltaDomain("rank-leq"), UsageError,
                    r"^domain rank-leq needs a rank parameter$"),
    "domain-token": (lambda: DeltaDomain.from_token("rank-leq[1]"), UsageError,
                     r"^unknown domain token 'rank-leq\[1\]'$"),
    "domain-token-rank": (lambda: DeltaDomain.from_token("rank-leq(x)"), UsageError,
                          r"^unknown domain token 'rank-leq\(x\)'$"),
    "tabulate-infinite": (lambda: make_delta(CanonicalDerivation(Matrix.zero(_Q, 2))).tabulate(),
                          UsageError, r"^cannot tabulate a map over an infinite field$"),
    "text-empty": (lambda: DeltaMap.from_text(""), UsageError, r"^empty delta table text$"),
    "text-header": (lambda: DeltaMap.from_text("delta n 2 field F2\n"), UsageError,
                    r"^bad delta table header 'delta n 2 field F2'$"),
    "text-n": (lambda: DeltaMap.from_text("delta n 0 field Q domain full\n"), UsageError,
               r"^matrix must be square with n >= 1$"),
    "text-record": (lambda: DeltaMap.from_text(_HEADER + "0 0 0 0 -> 0 0 0 0 -> 0\n"),
                    UsageError, r"^bad delta table record '0 0 0 0 -> 0 0 0 0 -> 0'$"),
    "text-entries": (lambda: DeltaMap.from_text(_HEADER + "0 0 0 -> 0 0 0 0\n"), UsageError,
                     r"^expected 4 entries per side in record '0 0 0 -> 0 0 0 0'$"),
    "garbage-ranks": (lambda: make_delta(_E01, garbage_ranks={3}), UsageError,
                      r"^garbage ranks \[3\] outside \[0, 2\]$"),
    "verify-pairs": (lambda: verify_hypothesis(make_delta(_E01), 1, pairs="all"), UsageError,
                     r"^unknown pair selection 'all'$"),
    "verify-mode": (lambda: verify_hypothesis(make_delta(_E01), 1, mode="random"), UsageError,
                    r"^unknown verification mode 'random'$"),
    "combine-rings": (lambda: check_linear_combination(
        make_delta(_E01), make_delta(CanonicalDerivation(Matrix.zero(_F2, 3))), 1, 1, 1),
        UsageError, r"^cannot combine delta maps over different rings$"),
    "extend-without-s": (lambda: extend_to_low_ranks(make_delta(_E01)), UsageError,
                         r"^extend_to_low_ranks needs a rank-exact domain or s$"),
    "extend-rank": (lambda: extend_to_low_ranks(make_delta(_E01), s=2), PreconditionError,
                    r"^need 1 <= s <= n/2, got s=2, n=2$"),
    "extend-infinite": (lambda: extend_to_low_ranks(
        make_delta(CanonicalDerivation(Matrix.zero(_Q, 2))), s=1), UsageError,
        r"^extension tabulates the domain; needs a finite field$"),
    "verify-count": (lambda: verify_hypothesis(make_delta(_E01), 1, mode="sampled", count=0,
                                               seed=1),
                     UsageError, r"^sampled verification needs a count >= 1, got 0$"),
    "verify-count-negative": (lambda: verify_hypothesis(
        make_delta(_E01), 1, mode="sampled", count=-5, seed=1, pairs="mixed"),
        UsageError, r"^sampled verification needs a count >= 1, got -5$"),
    "reconstruct-count": (lambda: reconstruct_full(
        make_delta(CanonicalDerivation(Matrix.zero(_Q, 2))), count=0, seed=1), UsageError,
        r"^sampled reconstruction needs a count >= 1, got 0$"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_derivation_refusals(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls, match=message) as err:
        call()
    assert type(err.value) is cls
