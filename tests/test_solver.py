"""Constraint-system oracle: counts, solution space dimensions, and
end-to-end agreement with extraction."""

import hashlib
import random

import pytest

from rankderiv import (
    ResourceLimitError,
    UsageError,
    apply_derivation,
    build_constraint_system,
    enumerate_all,
    enumerate_rank_k,
    extract_derivation,
    rank_count,
    rank_count_formula,
    solution_space,
    verify_hypothesis,
)
from rankderiv import _kernels_py
from rankderiv.solver import _nullspace

from conftest import ref_rank_mod


# -- system shape ----------------------------------------------------------------

def test_system_shape_2_1_f2(F2):
    system = build_constraint_system(2, 1, F2)
    assert system.unknown_count == 40      # 10 domain matrices x 4 entries
    assert system.block_count == 81        # ordered rank-1 pairs
    assert len(system.rows) == 81 * 4


def test_system_shape_3_1_f2(F2):
    system = build_constraint_system(3, 1, F2)
    assert system.unknown_count == 450     # 50 domain matrices x 9 entries
    assert system.block_count == 49 * 49


def test_system_shape_2_1_f3(F3):
    rank1 = sum(1 for _ in enumerate_rank_k(2, 1, F3))
    assert rank1 == 32
    system = build_constraint_system(2, 1, F3)
    assert system.unknown_count == (rank1 + 1) * 4


def test_system_guard(F3):
    with pytest.raises(ResourceLimitError):
        build_constraint_system(6, 3, F3)


@pytest.mark.parametrize("n, s, counted", [(5, 2, "unknowns"), (4, 1, "equation blocks")])
def test_system_guard_messages_end_at_the_guard(F3, n, s, counted):
    # sampled verification checks one map and computes no solution space,
    # so the solver's refusals point nowhere else
    with pytest.raises(ResourceLimitError, match=rf"^\d+ {counted} exceed the \d+ solver guard$"):
        build_constraint_system(n, s, F3)


def test_system_needs_finite_field(Q):
    with pytest.raises(UsageError):
        build_constraint_system(2, 1, Q)


# -- solution space ---------------------------------------------------------------

def _inner_derivation_span_dim(n, field):
    """Oracle: dimension of the span of the ad_A restrictions to rank <= 1,
    computed with the independent test-side elimination."""
    p = field.p
    domain = [m for k in (0, 1) for m in enumerate_rank_k(n, k, field)]
    vectors = []
    for a in enumerate_all(n, field):
        vec = []
        for m in domain:
            bracket = a * m - m * a
            vec.extend(e for row in bracket.rows for e in row)
        vectors.append(vec)
    return ref_rank_mod(vectors, p)


@pytest.mark.parametrize("spec,n,expected", [
    ("F2", 2, 3),
    ("F3", 2, 3),
    ("F2", 3, 8),
    ("F5", 2, 3),
])
def test_solution_dimension(spec, n, expected):
    from rankderiv import parse_field
    field = parse_field(spec)
    dim, basis = solution_space(n, 1, field)
    assert dim == expected == len(basis)
    assert expected == n * n - 1
    # independent oracle: the inner derivations alone span that much
    assert _inner_derivation_span_dim(n, field) == expected


def test_basis_elements_satisfy_hypothesis_and_extract(F2, F3):
    for field in (F2, F3):
        dim, basis = solution_space(2, 1, field)
        for delta in basis:
            assert verify_hypothesis(delta, 1).passed
            d = extract_derivation(delta, 1)
            assert d.mu.is_zero()
            for k in (0, 1):
                for x in enumerate_rank_k(2, k, field):
                    assert apply_derivation(d, x) == delta(x)


# sha256 of the concatenated to_text() of the solution_space(n, 1) basis;
# any change to the elimination must leave these bytes as they are
@pytest.mark.parametrize("spec,n,digest", [
    ("F2", 3, "edeaa2074379e1ccfd00fc73f5787feaec2ce7772b0d3c2c87952024125e631d"),
    ("F5", 2, "240dea4ec4db82af03066f70e5f1757711269a6b9ab4e13a30ad40a0f3c5d6e1"),
])
def test_solution_basis_bytes_pinned(spec, n, digest):
    from rankderiv import parse_field
    _, basis = solution_space(n, 1, parse_field(spec))
    text = "".join(b.to_text() for b in basis)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _random_sparse_system(rng, p, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        rows.append({c: rng.randrange(1, p) for c in range(ncols)
                     if rng.random() < density})
    return rows


def _nullspace_cases(p):
    """(rows, ncols) systems covering the shapes the incremental elimination
    must get right, seeded per prime."""
    rng = random.Random(f"nullspace|{p}")
    cases = [
        ([{}], 5),                                   # rank 0: one empty row
        ([{}, {}, {}], 3),                           # rank 0: only empty rows
        ([{c: 1} for c in range(6)], 6),             # full column rank, identity
    ]
    for _ in range(12):
        ncols = rng.randint(1, 14)
        nrows = rng.randint(1, 3 * ncols)            # often more rows than columns
        rows = _random_sparse_system(rng, p, nrows, ncols, rng.choice((0.1, 0.3, 0.6)))
        # duplicates, multiples and sums of earlier rows all reduce to zero
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            f, g = rng.randrange(p), rng.randrange(p)
            combo = {c: (f * a.get(c, 0) + g * b.get(c, 0)) % p for c in set(a) | set(b)}
            rows.insert(rng.randrange(len(rows) + 1), {c: v for c, v in combo.items() if v})
            rows.insert(rng.randrange(len(rows) + 1), dict(a))
        rows.insert(rng.randrange(len(rows) + 1), {})
        cases.append((rows, ncols))
    # dense random systems with more rows than columns, mostly of full rank
    for ncols in (4, 9):
        rows = _random_sparse_system(rng, p, 4 * ncols, ncols, 0.9)
        cases.append((rows, ncols))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_matches_dense_kernel(p):
    """The sparse incremental elimination returns exactly the dense
    reduced-echelon kernel, and every vector annihilates every row."""
    shapes = set()
    for rows, ncols in _nullspace_cases(p):
        basis = _nullspace(rows, ncols, p)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert basis == _kernels_py.mat_nullspace(dense, p)
        for v in basis:
            for row in rows:
                assert sum(val * v[c] for c, val in row.items()) % p == 0
        assert len(basis) == ncols - ref_rank_mod(dense, p)
        shapes.add("rank0" if len(basis) == ncols else
                   "full" if not basis else "mixed")
    assert shapes == {"rank0", "full", "mixed"}


def test_solution_space_deterministic(F2):
    _, basis1 = solution_space(2, 1, F2)
    _, basis2 = solution_space(2, 1, F2)
    assert [b.to_text() for b in basis1] == [b.to_text() for b in basis2]


@pytest.mark.slow
def test_solution_dimension_4_2_f2_stretch(F2):
    """(4, 2) over F_2 sits beyond the equation-block resource bound (54M
    ordered rank-2 pairs), so the solver refuses; the reachable half of the
    dimension claim is the lower bound from explicit inner derivations."""
    with pytest.raises(ResourceLimitError):
        build_constraint_system(4, 2, F2)
    import random

    from rankderiv import CanonicalDerivation
    rng = random.Random("stretch-4-2")
    domain = [m for k in range(3) for m in enumerate_rank_k(4, k, F2)]
    vectors = []
    for _ in range(60):
        d = CanonicalDerivation.random(F2, 4, seed=rng.randrange(2 ** 31))
        vec = []
        for m in domain:
            out = apply_derivation(d, m)
            vec.extend(e for row in out.rows for e in row)
        vectors.append(vec)
    assert ref_rank_mod(vectors, 2) == 15  # n^2 - 1 lower bound attained


@pytest.mark.slow
@pytest.mark.parametrize("spec,n", [("F7", 2), ("F2", 4)])
def test_solution_dimension_stretch(spec, n):
    """Systems too slow for tier-1 (810,000 equations over F_2 at n = 4):
    the solution space at s = 1 is exactly the n^2 - 1 inner derivations."""
    from rankderiv import parse_field
    dim, basis = solution_space(n, 1, parse_field(spec))
    assert dim == len(basis) == n * n - 1


# -- rank counts -------------------------------------------------------------------

def test_rank_count_examples(F2):
    assert rank_count(2, 1, F2) == 9
    assert rank_count(2, 2, F2) == 6
    assert rank_count(2, 0, F2) == 1


def test_rank_count_matches_formula(F2, F3):
    for field, p in ((F2, 2), (F3, 3)):
        for n in (2, 3):
            for k in range(n + 1):
                assert rank_count(n, k, field) == rank_count_formula(n, k, p)


def test_rank_count_guard(F3):
    with pytest.raises(ResourceLimitError):
        rank_count(6, 3, F3)
