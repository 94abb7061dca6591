"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (run with ``pytest -s`` to
stream them); a failure shows up as an ordinary pytest failure.
"""

import random

import pytest

from rankderiv import (
    CanonicalDerivation,
    FieldDerivation,
    Matrix,
    adapted_factor,
    apply_derivation,
    check_linear_combination,
    cover_rank,
    derivation_delta,
    enumerate_rank_k,
    extend_to_low_ranks,
    extract_derivation,
    factor_rank_s,
    make_delta,
    parse_field,
    random_rank_k,
    rank_count_formula,
    rank_set,
    reconstruct_full,
    solution_space,
    verify_hypothesis,
)
from rankderiv.derivations import DeltaDomain


def _low_rank_points(n, s, field):
    """All matrices of rank <= s (finite field), shared across round trips."""
    pts = []
    for k in range(s + 1):
        pts.extend(enumerate_rank_k(n, k, field))
    return pts


def _sampled_points(n, s, field, count, tag):
    rng = random.Random(f"acceptance|{tag}|{field.spec()}|{n}|{s}")
    pts = []
    for _ in range(count):
        k = rng.randint(0, s)
        pts.append(random_rank_k(n, k, field, seed=rng.randrange(2 ** 63)))
    return pts


def test_criterion_1_solver_path():
    """Solution-space dimensions and end-to-end extraction on every basis
    element, at exact equality."""
    for spec, n, expected_dim in (("F2", 2, 3), ("F3", 2, 3), ("F2", 3, 8)):
        field = parse_field(spec)
        dim, basis = solution_space(n, 1, field)
        assert dim == expected_dim, (spec, n, dim)
        points = _low_rank_points(n, 1, field)
        for delta in basis:
            report = verify_hypothesis(delta, 1, mode="exhaustive")
            assert report.passed, (spec, n, report.summary())
            d = extract_derivation(delta, 1)
            for x in points:
                assert apply_derivation(d, x) == delta(x), (spec, n, x)
    print("ACCEPTANCE 1 (solver path, dims 3/3/8 + round trip): PASS")


def test_criterion_2_constructive_round_trip():
    """100 seeded derivations per configuration; garbage above rank s never
    leaks into extraction; recovered map equals delta exactly on rank <= s."""
    configs = [(n, s) for n, s in ((2, 1), (3, 1), (4, 1), (4, 2))]
    for spec in ("F2", "F3"):
        field = parse_field(spec)
        for n, s in configs:
            sampled = spec == "F3" and (n, s) == (4, 2)
            if sampled:
                points = _sampled_points(n, s, field, 10_000, "criterion2")
            else:
                points = _low_rank_points(n, s, field)
            garbage = set(range(s + 1, n + 1))
            for seed in range(100):
                truth = CanonicalDerivation.random(field, n, seed=seed)
                delta = make_delta(truth, garbage_ranks=garbage, seed=seed)
                got = extract_derivation(delta, s)
                assert got.A == truth.A, (spec, n, s, seed)
                assert got.mu.is_zero(), (spec, n, s, seed)
                for x in points:
                    assert apply_derivation(got, x) == delta(x), (spec, n, s, seed)
    print("ACCEPTANCE 2 (constructive round trip, 8 configs x 100 seeds): PASS")


def test_criterion_3_nontrivial_mu():
    """Over Q(t): extraction recovers A exactly (zero corner normalization)
    and the d/dt scale c at the pinned probes; map equality on 1000 sampled
    low-rank points per run."""
    field = parse_field("Q(t)")
    t = field.gen
    probes = [t, field.mul(t, t), field.add(t, field.one), field.one]
    for n, s in ((2, 1), (3, 1), (4, 1), (4, 2)):
        for seed in range(10):
            truth = CanonicalDerivation.random(field, n, seed=seed, with_dt=True)
            c = truth.mu.scale
            delta = make_delta(truth, garbage_ranks=set(range(s + 1, n + 1)),
                               seed=seed)
            got = extract_derivation(delta, s, probes=probes)
            assert got.A == truth.A, (n, s, seed)
            assert got.A[0, 0] == field.zero
            assert got.mu == FieldDerivation.scaled_dt(field, c), (n, s, seed)
            assert got.mu(t) == c
            points = _sampled_points(n, s, field, 1000, f"criterion3|{seed}")
            for x in points:
                assert apply_derivation(got, x) == delta(x), (n, s, seed)
    print("ACCEPTANCE 3 (nontrivial mu over Q(t), 4 configs x 10 scales): PASS")


def _check_factorizations(field, n, ss):
    """Criterion 4's checks on M_n(field) for each target rank s in ``ss``:
    every ``factor_rank_s`` case and, where 2s <= n, every rank-1 x against
    every rank-s y of ``adapted_factor``.  Returns how many pairs fell in
    case-I and in case-II."""
    by_rank = {k: list(enumerate_rank_k(n, k, field)) for k in range(max(ss) + 1)}
    cases = {"case-I": 0, "case-II": 0}
    for s in ss:
        for k in range(max(0, 2 * s - n), s + 1):
            for y in by_rank[k]:
                fac = factor_rank_s(y, s)
                assert fac.y1.rank() == s
                assert fac.y2.rank() == s
                assert fac.y1 * fac.y2 == y
        if 2 * s > n:
            continue
        for x in by_rank[1]:
            for y in by_rank[s]:
                fac = adapted_factor(x, y, s)
                assert fac.x1 * fac.x2 == x
                assert fac.x1.rank() == s
                assert fac.x2.rank() == s
                prod_rank = (fac.x2 * y).rank()
                if fac.case_tag == "case-I":
                    assert prod_rank == s
                else:
                    assert prod_rank == 0
                cases[fac.case_tag] += 1
    return cases["case-I"], cases["case-II"]


def test_criterion_4_factorizations_exhaustive():
    """Every factorization postcondition over F_2 up to n = 4."""
    field = parse_field("F2")
    for n in (2, 3, 4):
        _check_factorizations(field, n, range(1, n + 1))
    print("ACCEPTANCE 4 (factorizations exhaustive, F_2, n <= 4): PASS")


@pytest.mark.parametrize("spec, n, cases", [
    ("F5", 2, (17_280, 3_456)),
    ("F7", 2, (129_024, 18_432)),
    ("F3", 3, (79_092, 35_152)),
], ids=["F5-2", "F7-2", "F3-3"])
def test_factorization_lemmas_exhaustive_odd_p(spec, n, cases):
    """Criterion 4's checks over odd p, where ``adapted_factor`` takes its
    generic branch: both lemmas hold at every case, split between case-I
    and case-II as pinned."""
    assert _check_factorizations(parse_field(spec), n, range(1, n + 1)) == cases


@pytest.mark.slow
def test_factorization_lemmas_exhaustive_f3_n4_s1():
    """The same at F_3, n = 4, s = 1: 3,200 x 3,200 adapted pairs, minutes."""
    case_one, case_two = _check_factorizations(parse_field("F3"), 4, [1])
    assert case_one + case_two == rank_count_formula(4, 1, 3) ** 2


def test_criterion_5_cover_family_and_reconstruction():
    """Rank-set and cover properties up to n = 128; reconstruction over
    M_2(F_2) passes on an inner derivation and pinpoints a perturbation."""
    for n in range(2, 129):
        ranks = rank_set(n)
        assert 2 * ranks[-1] <= n
        assert ranks == sorted(ranks, reverse=True)
        for k in range(n + 1):
            s = cover_rank(n, k)
            assert s in ranks and s >= k and 2 * s - n <= k
    field = parse_field("F2")
    d = CanonicalDerivation(Matrix.unit(field, 2, 0, 1))
    delta = make_delta(d)
    report = reconstruct_full(delta)
    assert report.passed and report.checked == 16
    z = Matrix(field, [[1, 1], [0, 0]])
    bad = delta.override(z, delta(z) + Matrix.identity(field, 2))
    report = reconstruct_full(bad)
    assert not report.passed
    assert any(w == z and r == 1 for w, r, _ in report.failures)
    print("ACCEPTANCE 5 (cover family n <= 128 + reconstruction witness): PASS")


def test_criterion_6_vector_space_and_zero():
    """50 seeded linear combinations of valid maps satisfy the hypothesis;
    extension always assigns zero at the zero matrix."""
    field = parse_field("F3")
    for seed in range(50):
        rng = random.Random(f"acceptance|combo|{seed}")
        d1 = make_delta(CanonicalDerivation.random(field, 2, seed=2 * seed),
                        garbage_ranks={2}, seed=seed)
        d2 = make_delta(CanonicalDerivation.random(field, 2, seed=2 * seed + 1))
        l1, l2 = rng.randrange(3), rng.randrange(3)
        report = check_linear_combination(d1, d2, l1, l2, 1, mode="exhaustive")
        assert report.passed, (seed, l1, l2, report.summary())
    for spec, n, s in (("F2", 2, 1), ("F3", 2, 1), ("F2", 3, 1), ("F2", 4, 2)):
        fld = parse_field(spec)
        zero = Matrix.zero(fld, n)
        for seed in range(5):
            truth = CanonicalDerivation.random(fld, n, seed=seed)
            restr = derivation_delta(truth, DeltaDomain.rank_exact(s))
            result = extend_to_low_ranks(restr)
            assert result.consistent, (spec, n, s, seed)
            assert result.delta(zero) == zero, (spec, n, s, seed)
    print("ACCEPTANCE 6 (linear combinations + zero assignment): PASS")
