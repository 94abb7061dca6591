"""Kronecker-packed Q and Q(t) matrices (``_kronecker``) against the generic
field-op elimination (``_gen_rank``) and the generic bracket A x - x A
(``Matrix`` products), with exact equality throughout."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankderiv import (CanonicalDerivation, FieldDerivation, Matrix, apply_derivation,
                       parse_field)
from rankderiv import _kronecker
from rankderiv.matrix import _gen_rank

Q = parse_field("Q")
QT = parse_field("Q(t)")
T = QT.gen

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# coefficients up to 2^70 in size, so that values at 2^B span several words
coeffs = st.builds(Fraction,
                   st.one_of(st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70)),
                   st.one_of(st.integers(1, 4), st.integers(1, 2 ** 40)))
polys = st.lists(coeffs, max_size=4).map(QT.from_poly)
nonzero_polys = polys.filter(lambda e: e != QT.zero)
ratfuncs = st.builds(QT.div, polys, nonzero_polys)
# small ones for the tests whose reference is slow on large rational functions
small_polys = st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                       max_size=3).map(QT.from_poly)
small_ratfuncs = st.builds(QT.div, small_polys, small_polys.filter(lambda e: e != QT.zero))


def _rows(elements, nrows, ncols):
    return st.lists(st.lists(elements, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def _shaped(elements, max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(lambda c: _rows(elements, r, c)))


def _combine(field, rows, weights):
    """sum_k weights[k] * rows[k]."""
    out = [field.zero] * len(rows[0])
    for w, row in zip(weights, rows):
        out = [field.add(o, field.mul(w, e)) for o, e in zip(out, row)]
    return out


@st.composite
def planted(draw, elements, weights, square=False):
    """Rows of which some are planted as combinations of the others."""
    k, extra = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ncols = k + extra if square else draw(st.integers(1, 4))
    base = draw(_rows(elements, k, ncols))
    rows = list(base)
    for _ in range(extra):
        ws = draw(st.lists(weights, min_size=k, max_size=k))
        rows.insert(draw(st.integers(0, len(rows))), _combine(QT, base, ws))
    return rows


# -- rank --------------------------------------------------------------------------

@SETTINGS
@given(_shaped(st.one_of(polys, st.just(QT.zero))))
def test_rank_polynomial_rows(rows):
    assert _kronecker.rank(QT, rows) == _gen_rank(rows, QT)


@SETTINGS
@given(_shaped(st.one_of(ratfuncs, polys, st.just(QT.zero)), max_side=3))
def test_rank_rows_with_polynomial_denominators(rows):
    assert _kronecker.rank(QT, rows) == _gen_rank(rows, QT)


@SETTINGS
@given(planted(st.one_of(polys, small_ratfuncs), small_polys))
def test_rank_planted_dependent_rows(rows):
    assert _kronecker.rank(QT, rows) == _gen_rank(rows, QT)


@SETTINGS
@given(planted(polys, polys, square=True))
def test_matrix_rank_planted_dependent_rows(rows):
    m = Matrix._raw(QT, rows)
    assert m.rank() == _gen_rank(rows, QT) < m.n


@SETTINGS
@given(_shaped(st.one_of(coeffs, st.just(Fraction(0))), max_side=5))
def test_rank_over_q(rows):
    assert _kronecker.rank(Q, rows) == _gen_rank(rows, Q)


@pytest.mark.parametrize("m", [1, 2, 7, 31, 32, 33, 63, 64, 65, 100])
def test_rank_minors_that_vanish_just_below_the_bound(m):
    # t - 2^m vanishes at 2^m, and (t, 2^m; 2^m, 1) has determinant t - 2^(2m):
    # both have rank 1 or 2 only because 2^B stays above every such root
    k = QT.from_int(2 ** m)
    for rows, rank in (([[QT.sub(T, k)]], 1),
                       ([[T, k], [k, QT.one]], 2),
                       ([[QT.sub(T, k), QT.zero], [QT.zero, QT.sub(T, QT.mul(k, k))]], 2),
                       ([[T, k], [QT.mul(k, T), QT.mul(k, k)]], 1)):
        assert _kronecker.rank(QT, rows) == _gen_rank(rows, QT) == rank
        assert Matrix._raw(QT, rows).rank() == rank


def test_rank_zero_and_degree_zero_rows():
    assert _kronecker.rank(QT, [[QT.zero] * 3] * 2) == 0
    assert _kronecker.rank(Q, [[Fraction(0)] * 4]) == 0
    rows = [[QT.from_int(1), QT.from_int(2)], [QT.from_int(2), QT.from_int(4)]]
    assert _kronecker.rank(QT, rows) == 1
    assert _kronecker.rank(Q, [[Fraction(1, 3), Fraction(-2, 5)],
                               [Fraction(-5, 6), Fraction(1)]]) == 1


# -- [A, x] + c dx/dt ----------------------------------------------------------------

def _reference(d, x):
    out = d.A * x - x * d.A
    mu = d.mu
    if not mu.is_zero():
        out = out + Matrix._raw(x.field, [[mu(e) for e in row] for row in x.rows])
    return out


def _check_apply(a_rows, x_rows, field, scale=None):
    mu = FieldDerivation.zero(field) if scale is None else FieldDerivation.scaled_dt(field, scale)
    d = CanonicalDerivation(Matrix._raw(field, a_rows), mu)
    x = Matrix._raw(field, x_rows)
    got = apply_derivation(d, x)
    assert got.rows == _reference(d, x).rows
    return got


def _square(elements, max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(_rows(elements, n, n), _rows(elements, n, n)))


@SETTINGS
@given(_square(st.one_of(polys, st.just(QT.zero))), st.one_of(st.none(), nonzero_polys))
def test_apply_over_q_t(ax, scale):
    _check_apply(*ax, QT, scale)


@SETTINGS
@given(_square(st.one_of(coeffs, st.just(Fraction(0)))))
def test_apply_over_q(ax):
    _check_apply(*ax, Q)


@SETTINGS
@given(_square(st.one_of(small_ratfuncs, small_polys), 3), st.one_of(st.none(), small_ratfuncs))
def test_apply_with_denominators_takes_the_generic_path(ax, scale):
    _check_apply(*ax, QT, scale)


@pytest.mark.parametrize("xi", [1, 3, 2 ** 31 - 1, 2 ** 64 + 1, 3 ** 50])
@pytest.mark.parametrize("gamma", [1, -1, 7, -(2 ** 40 + 3)])
@pytest.mark.parametrize("deg", [1, 2, 5])
def test_apply_coefficients_at_the_slot_bound(xi, gamma, deg):
    # with A = 0 the one coefficient of c dx/dt is gamma * deg * xi, which is
    # exactly the bound the slot width is chosen from
    n = 2
    zero = QT.zero
    x_rows = [[QT.from_poly([0] * deg + [xi]), zero], [zero, zero]]
    got = _check_apply([[zero] * n] * n, x_rows, QT, QT.from_int(gamma))
    assert got.rows[0][0] == QT.from_poly([0] * (deg - 1) + [gamma * deg * xi])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_apply_large_negative_coefficients(n):
    big = 2 ** 80
    a_rows = [[QT.from_poly([Fraction(-big + i - j, 3), Fraction(big, 7 + i), -1])
               for j in range(n)] for i in range(n)]
    x_rows = [[QT.from_poly([Fraction(-(big + i * j), 5), 0, Fraction(-big, 11 + j)])
               for j in range(n)] for i in range(n)]
    _check_apply(a_rows, x_rows, QT)
    _check_apply(a_rows, x_rows, QT, QT.from_poly([Fraction(-big, 3), -big]))
    q_a = [[Fraction(-big + i, 3 + j) for j in range(n)] for i in range(n)]
    q_x = [[Fraction(big - j, 7) for j in range(n)] for i in range(n)]
    _check_apply(q_a, q_x, Q)


def test_apply_zero_entries_and_degree_zero():
    zero = QT.zero
    a_rows = [[zero, QT.from_int(-3)], [QT.from_int(5), zero]]
    x_rows = [[zero, zero], [zero, zero]]
    assert _check_apply(a_rows, x_rows, QT, T).is_zero()
    consts = [[QT.from_poly([Fraction(-2, 3)]), zero], [QT.from_int(4), QT.one]]
    got = _check_apply(a_rows, consts, QT, T)
    assert all(len(num) <= 1 for row in got.rows for num, _ in row)
    _check_apply([[Fraction(0), Fraction(-3)], [Fraction(5), Fraction(0)]],
                 [[Fraction(-2, 3), Fraction(0)], [Fraction(4), Fraction(1)]], Q)


def test_representation_is_cached_and_refuses_denominators():
    x = Matrix._raw(QT, [[QT.from_poly([Fraction(1, 2), Fraction(-3, 4)])]])
    r = _kronecker.rep(x)
    assert r == ([[(2, -3)]], 4, 5, 1)
    assert x._fastrep is r
    y = Matrix._raw(QT, [[QT.inv(T)]])
    assert _kronecker.rep(y) is False


@pytest.mark.parametrize("bits", [2, 3, 8, 17, 64])
def test_unpack_signed_slots(bits):
    half = 1 << (bits - 1)
    for poly in ([half - 1], [-half], [1, -half, half - 1], [-1, -1, -1],
                 [0, 0, -half + 1], [half - 1, 0, -1]):
        assert _kronecker._unpack(_kronecker._at(poly, bits), bits) == poly
