"""Rank-s factorization, adapted factorization, and the cover-rank family."""

import random

import pytest

from rankderiv import (
    Matrix,
    PreconditionError,
    adapted_factor,
    cover_rank,
    enumerate_rank_k,
    factor_rank_s,
    rank_set,
)
from rankderiv.factor import _select_independent_bits, second_factor_rank_s
from rankderiv.matrix import _echelon


# -- factor_rank_s --------------------------------------------------------------

def test_factor_unit_matrix_m4_s2(F2):
    # y = e_00 in M_4, s = 2: transforms are the identity, so the factors are
    # exactly e_00 + e_11 and e_00 + e_22
    y = Matrix.unit(F2, 4, 0, 0)
    fac = factor_rank_s(y, 2)
    assert fac.y1 == Matrix.diag_ones(F2, 4, [0, 1])
    assert fac.y2 == Matrix.diag_ones(F2, 4, [0, 2])
    assert fac.y1 * fac.y2 == y


def test_factor_zero_matrix(F2):
    y = Matrix.zero(F2, 2)
    fac = factor_rank_s(y, 1)
    assert fac.y1 == Matrix.unit(F2, 2, 0, 0)
    assert fac.y2 == Matrix.unit(F2, 2, 1, 1)
    assert (fac.y1 * fac.y2).is_zero()


def test_factor_precondition_errors(F2, Q):
    with pytest.raises(PreconditionError, match="exceeds"):
        factor_rank_s(Matrix.identity(F2, 2), 1)  # k = 2 > s = 1
    with pytest.raises(PreconditionError, match="below lower bound"):
        factor_rank_s(Matrix.unit(Q, 3, 0, 0), 3)  # k = 1 < 2s - n = 3
    with pytest.raises(PreconditionError):
        factor_rank_s(Matrix.identity(Q, 2), 0)  # s out of [1, n]


def _check_factorization(y, s):
    fac = factor_rank_s(y, s)
    assert fac.y1.rank() == s
    assert fac.y2.rank() == s
    assert fac.y1 * fac.y2 == y


def test_factor_exhaustive_small(F2, F3):
    for field, n in ((F2, 2), (F2, 3), (F3, 2)):
        for s in range(1, n + 1):
            for k in range(max(0, 2 * s - n), s + 1):
                for y in enumerate_rank_k(n, k, field):
                    _check_factorization(y, s)


def test_second_factorization_is_valid_and_different(F2):
    for n, s in ((2, 1), (4, 2)):
        for k in range(s):
            for y in enumerate_rank_k(n, k, F2):
                f1 = factor_rank_s(y, s)
                f2 = second_factor_rank_s(y, s)
                assert f2.y1.rank() == s and f2.y2.rank() == s
                assert f2.y1 * f2.y2 == y
                assert (f1.y1, f1.y2) != (f2.y1, f2.y2)


# -- adapted_factor ---------------------------------------------------------------

def test_adapt_case_one_hand_trace(F2):
    e11 = Matrix.unit(F2, 2, 0, 0)
    fac = adapted_factor(e11, e11, 1)
    assert fac.case_tag == "case-I"
    assert fac.x1 == e11
    assert fac.x2 == e11
    assert (fac.x2 * e11).rank() == 1


def test_adapt_case_two_hand_trace(F2):
    e11 = Matrix.unit(F2, 2, 0, 0)
    e21 = Matrix.unit(F2, 2, 1, 0)
    fac = adapted_factor(e11, e21, 1)
    assert fac.case_tag == "case-II"
    assert fac.x1 == e11
    assert fac.x2 == e11
    assert (fac.x2 * e21).is_zero()


def test_adapt_rank_preconditions(F2):
    y = Matrix.unit(F2, 2, 0, 0)
    with pytest.raises(PreconditionError, match="rank 1"):
        adapted_factor(Matrix.identity(F2, 2), y, 1)
    with pytest.raises(PreconditionError, match="rank s"):
        adapted_factor(y, Matrix.zero(F2, 2), 1)
    with pytest.raises(PreconditionError, match="n/2"):
        adapted_factor(y, y, 2)


def _check_adapted(x, y, s):
    fac = adapted_factor(x, y, s)
    assert fac.x1 * fac.x2 == x
    assert fac.x1.rank() == s
    assert fac.x2.rank() == s
    prod_rank = (fac.x2 * y).rank()
    if fac.case_tag == "case-I":
        assert prod_rank == s
    else:
        assert prod_rank == 0


def test_adapt_exhaustive_n2_n3(F2):
    # n = 4 is covered by the acceptance suite
    for n in (2, 3):
        ones = list(enumerate_rank_k(n, 1, F2))
        for s in range(1, n // 2 + 1):
            ys = ones if s == 1 else list(enumerate_rank_k(n, s, F2))
            for x in ones:
                for y in ys:
                    _check_adapted(x, y, s)


def test_adapt_case_two_tag_matches_definition(F2):
    # tag is case-II exactly when the first row of Q R J_s vanishes
    n, s = 4, 2
    ones = list(enumerate_rank_k(n, 1, F2))[:20]
    ys = list(enumerate_rank_k(n, s, F2))[:40]
    for x in ones:
        for y in ys:
            fac = adapted_factor(x, y, s)
            qr = x.rank_normal_form().Q * y.rank_normal_form().P
            top_vanishes = all(qr[0, j] == 0 for j in range(s))
            assert (fac.case_tag == "case-II") == top_vanishes


def _bit_rows(rows):
    """F_2 rows as packed ints, entry j in bit 8 j."""
    return [sum(v << (8 * j) for j, v in enumerate(row)) for row in rows]


def test_select_independent_bits_matches_field_rows(F2):
    # the greedy rows are row 0 and the nonzero pivot columns of the
    # transpose (row 0 is its first pivot column unless it is zero)
    rng = random.Random("select-bits")
    for trial in range(400):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 5)
        rows = [[rng.randrange(2) if rng.random() < 0.6 else 0 for _ in range(n_cols)]
                for _ in range(n_rows)]
        want = rng.randint(1, n_cols)
        pivots = [col for col, _, _ in _echelon(list(zip(*rows)), F2)[0]]
        sel = [0] + [c for c in pivots if c]
        if len(sel) < want:
            with pytest.raises(PreconditionError, match="rows do not span the required rank"):
                _select_independent_bits(_bit_rows(rows), want)
        else:
            assert _select_independent_bits(_bit_rows(rows), want) == sel[:want]


# -- rank_set / cover_rank ----------------------------------------------------------

def test_rank_set_examples():
    assert rank_set(2) == [2, 1]
    assert rank_set(4) == [4, 3, 1]
    assert rank_set(8) == [8, 7, 5, 1]


def test_rank_set_minimum_zero_for_power_of_two_minus_one():
    # the covering family degenerates to rank 0 at n = 2^m - 1
    assert rank_set(3) == [3, 2, 0]
    assert rank_set(7)[-1] == 0
    assert rank_set(15)[-1] == 0


def test_rank_set_precondition():
    with pytest.raises(PreconditionError):
        rank_set(1)


def test_cover_rank_examples():
    assert cover_rank(4, 2) == 3
    assert cover_rank(8, 6) == 7
    assert cover_rank(4, 3) == 3


def test_rank_set_and_cover_rank_up_to_128():
    for n in range(2, 129):
        ranks = rank_set(n)
        assert ranks == sorted(ranks, reverse=True)
        assert len(set(ranks)) == len(ranks)
        assert 2 * ranks[-1] <= n
        members = set(ranks)
        for k in range(n + 1):
            s = cover_rank(n, k)
            assert s in members
            assert s >= k
            assert 2 * s - n <= k
            if k in members:
                assert s == k
