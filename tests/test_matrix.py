"""Matrix arithmetic, rank machinery, enumeration, sampling, text format."""

import random
from fractions import Fraction

import pytest

from rankderiv import (
    Matrix,
    PreconditionError,
    UsageError,
    enumerate_all,
    enumerate_rank_k,
    mat_arith,
    random_rank_k,
    parse_field,
    rank_count_formula,
    random_rank_k as _rrk,
)

from conftest import all_matrices_mod, brute_rank_k_count, ref_rank_mod


# -- ring arithmetic -----------------------------------------------------------

def test_unit_matrix_products(Q):
    e12 = Matrix.unit(Q, 2, 0, 1)
    e21 = Matrix.unit(Q, 2, 1, 0)
    e11 = Matrix.unit(Q, 2, 0, 0)
    e22 = Matrix.unit(Q, 2, 1, 1)
    assert mat_arith(e12, e21, "mul") == e11
    assert mat_arith(e11, e22, "mul") == Matrix.zero(Q, 2)


def test_characteristic_two_addition(F2):
    ident = Matrix.identity(F2, 3)
    assert mat_arith(ident, ident, "add") == Matrix.zero(F2, 3)


def test_dimension_and_field_mismatch(Q, F2):
    a = Matrix.identity(Q, 2)
    with pytest.raises(UsageError):
        mat_arith(a, Matrix.identity(Q, 3), "add")
    with pytest.raises(UsageError):
        mat_arith(a, Matrix.identity(F2, 2), "mul")


# -- rank ------------------------------------------------------------------------

def test_rank_examples(Q, F2):
    assert Matrix.unit(F2, 2, 0, 0).rank() == 1
    assert Matrix(F2, Matrix.unit(F2, 2, 0, 0).rows).rank() == 1
    assert Matrix.zero(Q, 3).rank() == 0
    dependent = Matrix(Q, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert dependent.rank() == 1


def test_units_and_their_multiples_record_their_ranks():
    """``Matrix.unit`` records rank 1 and ``scaled`` keeps a recorded rank,
    or records 0 for c = 0: each equals the rank that elimination gives."""
    for spec in ("F2", "F3", "Q", "Q(t)", "F3(t)"):
        field = parse_field(spec)
        t = {"F2": 1, "F3": 2, "Q": Fraction(3, 2)}.get(spec) or field.gen
        for n in (1, 2, 3):
            for i in range(n):
                for j in range(n):
                    unit = Matrix.unit(field, n, i, j)
                    for m in (unit, unit.scaled(field.one), unit.scaled(t), unit.scaled(field.zero),
                              unit.scaled(t).scaled(field.zero)):
                        assert m._rank == Matrix(field, m.rows).rank(), (spec, n, i, j)
            eye = Matrix.identity(field, n)
            assert eye.scaled(t)._rank is None and eye.scaled(field.zero)._rank == 0


def test_rank_against_oracle(F3):
    for rows in all_matrices_mod(2, 3):
        assert Matrix._raw(F3, rows).rank() == ref_rank_mod(rows, 3)


def test_rank_submultiplicative():
    from rankderiv import parse_field
    for spec in ("F2", "F3", "Q", "Q(t)"):
        field = parse_field(spec)
        rng = random.Random(f"submult|{spec}")
        for trial in range(500):
            n = 3
            ka = rng.randint(0, n)
            kb = rng.randint(0, n)
            a = random_rank_k(n, ka, field, seed=trial * 2)
            b = random_rank_k(n, kb, field, seed=trial * 2 + 1)
            assert (a * b).rank() <= min(a.rank(), b.rank())


def test_qt_rank_matches_generic_elimination(Qt):
    from rankderiv.matrix import _gen_rank
    rng = random.Random("qtrank")
    for trial in range(40):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        m = random_rank_k(n, k, Qt, seed=trial)
        assert m.rank() == k
        assert _gen_rank([list(r) for r in m.rows], Qt) == k


# -- rank normal form -------------------------------------------------------------

def _assert_rnf_valid(m):
    rnf = m.rank_normal_form()
    assert rnf.k == m.rank()
    assert rnf.P.rank() == m.n
    assert rnf.Q.rank() == m.n
    assert rnf.recompose() == m


def test_rnf_identity_and_zero(Q):
    _assert_rnf_valid(Matrix.identity(Q, 3))
    _assert_rnf_valid(Matrix.zero(Q, 2))
    dependent = Matrix(Q, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    rnf = dependent.rank_normal_form()
    assert rnf.k == 1
    assert rnf.recompose() == dependent


def test_rnf_exhaustive_small_fields(F2, F3):
    for rows in all_matrices_mod(2, 2):
        _assert_rnf_valid(Matrix._raw(F2, rows))
    for rows in all_matrices_mod(2, 3):
        _assert_rnf_valid(Matrix._raw(F3, rows))


def test_rnf_random_rationals(Q):
    rng = random.Random("rnf-q")
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        _assert_rnf_valid(Matrix(Q, rows, canonicalize=False))


def test_rnf_unit_matrix_transforms_are_identity(F2):
    # e_00 is already in rank normal form, so P = Q = I
    rnf = Matrix.unit(F2, 4, 0, 0).rank_normal_form()
    assert rnf.P == Matrix.identity(F2, 4)
    assert rnf.Q == Matrix.identity(F2, 4)
    assert rnf.k == 1


# -- nullspace ---------------------------------------------------------------------

def test_nullspace_example_f2(F2):
    import itertools
    m = Matrix(F2, [[1, 1], [0, 0]])
    basis = m.nullspace()
    assert basis == [(1, 1)]
    # oracle: exhaustive scan of all 4 vectors
    kernel = [
        v for v in itertools.product(range(2), repeat=2)
        if all(sum(m[i, j] * v[j] for j in range(2)) % 2 == 0 for i in range(2))
    ]
    assert [v for v in kernel if any(v)] == [(1, 1)]


def test_nullspace_identity_and_zero(Q):
    assert Matrix.identity(Q, 3).nullspace() == []
    basis = Matrix.zero(Q, 2).nullspace()
    assert len(basis) == 2


def test_nullspace_count_and_membership(F3):
    for rows in all_matrices_mod(2, 3):
        m = Matrix._raw(F3, rows)
        basis = m.nullspace()
        assert len(basis) == 2 - m.rank()
        for v in basis:
            col = Matrix._raw(F3, [[v[0], 0], [v[1], 0]])
            assert (m * col).is_zero()


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_rank_k_examples(F2):
    assert sum(1 for _ in enumerate_rank_k(2, 1, F2)) == 9
    assert sum(1 for _ in enumerate_rank_k(2, 2, F2)) == 6  # |GL_2(F_2)|
    zeros = list(enumerate_rank_k(2, 0, F2))
    assert zeros == [Matrix.zero(F2, 2)]


def test_enumerate_matches_brute_force_counts():
    from rankderiv import parse_field
    for p in (2, 3):
        field = parse_field(f"F{p}")
        for n in (1, 2, 3):
            counts = [sum(1 for _ in enumerate_rank_k(n, k, field))
                      for k in range(n + 1)]
            assert counts == [brute_rank_k_count(n, k, p) for k in range(n + 1)]
            assert counts == [rank_count_formula(n, k, p) for k in range(n + 1)]


def test_enumerate_order_is_lexicographic():
    """Every rank over F2 n <= 3, F3 n <= 2 and F5 n = 2: the stream is the
    brute-force rank filter of all matrices, in the same order."""
    from rankderiv import parse_field
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)):
        field = parse_field(f"F{p}")
        brute = list(all_matrices_mod(n, p))
        for k in range(n + 1):
            stream = [m.rows for m in enumerate_rank_k(n, k, field)]
            assert stream == [rows for rows in brute
                              if ref_rank_mod(rows, p) == k], (p, n, k)


def test_enumerate_infinite_field_rejected(Q):
    with pytest.raises(UsageError):
        next(enumerate_rank_k(2, 1, Q))


def test_enumerate_all_is_full_lexicographic(F2):
    stream = [m.rows for m in enumerate_all(2, F2)]
    assert stream == list(all_matrices_mod(2, 2))


# -- sampling ------------------------------------------------------------------------

def test_random_rank_k_examples(Q):
    assert random_rank_k(3, 0, Q, seed=7) == Matrix.zero(Q, 3)
    m = random_rank_k(3, 3, Q, seed=11)
    assert m.rank() == 3
    assert random_rank_k(3, 2, Q, seed=4) == random_rank_k(3, 2, Q, seed=4)
    assert _rrk(3, 2, Q, seed=4) is not None


def test_random_rank_k_all_fields_exact_rank():
    from rankderiv import parse_field
    for spec in ("F2", "F3", "Q", "Q(t)"):
        field = parse_field(spec)
        for k in range(4):
            assert random_rank_k(3, k, field, seed=100 + k).rank() == k


def test_random_rank_k_bad_rank(Q):
    with pytest.raises(PreconditionError):
        random_rank_k(2, 3, Q, seed=0)


# -- text format ----------------------------------------------------------------------

def test_matrix_text_golden(F7):
    m = Matrix._raw(F7, [[1, 0], [3, 5]])
    assert m.to_text() == "n 2 field F7\n1 0\n3 5\n"
    assert Matrix.from_text(m.to_text()) == m


def test_matrix_text_round_trip_all_fields():
    from rankderiv import parse_field
    for spec in ("F2", "F3", "Q", "Q(t)", "F5(t)"):
        field = parse_field(spec)
        for seed in range(5):
            m = random_rank_k(3, 2, field, seed=seed)
            assert Matrix.from_text(m.to_text()) == m


def test_matrix_text_rejects_garbage():
    with pytest.raises(UsageError):
        Matrix.from_text("bogus header\n1 0\n0 1\n")
    with pytest.raises(UsageError):
        Matrix.from_text("n 2 field F2\n1 0\n")
    with pytest.raises(UsageError):
        Matrix.from_text("n 2 field F2\n1 0 1\n0 1 0\n")


# -- refusals ----------------------------------------------------------------------

_Q, _F2 = parse_field("Q"), parse_field("F2")

# every refusal of the matrix API that no other test reaches: the call, the
# exception class and the message as it stands
REFUSALS = {
    "not-square": (lambda: Matrix(_Q, [[1, 2]]), UsageError,
                   r"^matrix must be square with n >= 1$"),
    "empty": (lambda: Matrix(_Q, []), UsageError, r"^matrix must be square with n >= 1$"),
    "not-a-matrix": (lambda: Matrix.identity(_Q, 2) * 3, UsageError,
                     r"^expected a Matrix, got int$"),
    "empty-text": (lambda: Matrix.from_text(""), UsageError, r"^empty matrix text$"),
    "text-n": (lambda: Matrix.from_text("n 0 field F2\n"), UsageError,
               r"^matrix must be square with n >= 1$"),
    "arith-op": (lambda: mat_arith(Matrix.identity(_Q, 2), Matrix.identity(_Q, 2), "div"),
                 UsageError, r"^unknown matrix op 'div'$"),
    "count-rank": (lambda: rank_count_formula(2, 3, 2), PreconditionError,
                   r"^rank 3 out of range for n=2$"),
    "enumerate-rank": (lambda: list(enumerate_rank_k(2, 3, _F2)), PreconditionError,
                       r"^rank 3 out of range for n=2$"),
    "enumerate-all-infinite": (lambda: next(enumerate_all(2, _Q)), UsageError,
                               r"^cannot enumerate matrices over infinite field Q$"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_matrix_refusals(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls, match=message) as err:
        call()
    assert type(err.value) is cls
