"""Kronecker-packed Q, Q(t) and F_p(t) matrices (``_kronecker``) against the
generic field-op elimination (``_gen_rank``) and generic products
(``_gen_mul``), with exact equality throughout.

Inputs come from ``random.Random`` generators seeded by the test's name, so
they do not depend on anything else in the source tree; ``CASES`` lists
every drawn family, and ``_examples`` draws one.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from rankderiv import (CanonicalDerivation, FieldDerivation, Matrix, apply_derivation,
                       parse_field)
from rankderiv import _kronecker
from rankderiv._kronecker import Form
from rankderiv.matrix import _HeldMatrix, _gen_mul, _gen_rank, random_rank_k

from conftest import check_entry_reads

Q = parse_field("Q")
QT = parse_field("Q(t)")
T = QT.gen

EXAMPLES = 60


# -- seeded inputs --------------------------------------------------------------------

def _int(rng, low, bits):
    """An int in [low, 2^b] for b drawn uniformly from [1, bits], so that
    both small and word-spanning values are common."""
    return rng.randint(low, 2 ** rng.randint(1, bits))


def _coeff(rng):
    """A rational with numerator and denominator each either small or large:
    coefficients up to 2^70 in size, so that values at 2^B span several words."""
    num = rng.randint(-6, 6) if rng.random() < 0.75 else _int(rng, 0, 70) * rng.choice((1, -1))
    den = rng.randint(1, 4) if rng.random() < 0.75 else _int(rng, 1, 40)
    return Fraction(num, den)


def _small_coeff(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _poly(rng, coeff=_coeff, max_size=4):
    return QT.from_poly([coeff(rng) for _ in range(rng.randint(0, max_size))])


def _nonzero(draw):
    """``draw`` of rational functions, redrawn until the numerator is nonzero."""
    def nonzero(rng):
        while True:
            e = draw(rng)
            if e[0]:
                return e
    return nonzero


def _small_poly(rng):
    return _poly(rng, _small_coeff, 3)


def _ratfunc(rng):
    return QT.div(_poly(rng), _nonzero(_poly)(rng))


# small ones for the tests whose reference is slow on large rational functions
def _small_ratfunc(rng):
    return QT.div(_small_poly(rng), _nonzero(_small_poly)(rng))


def _one_of(*draws):
    return lambda rng: rng.choice(draws)(rng)


def _zero_qt(rng):
    return QT.zero


def _zero_q(rng):
    return Fraction(0)


def _none(rng):
    return None


def _rows(rng, draw, nrows, ncols):
    return [[draw(rng) for _ in range(ncols)] for _ in range(nrows)]


def _shaped(draw, max_side=4):
    return lambda rng: _rows(rng, draw, rng.randint(1, max_side), rng.randint(1, max_side))


def _square(draw, max_n=4):
    def square(rng):
        n = rng.randint(1, max_n)
        return _rows(rng, draw, n, n), _rows(rng, draw, n, n)
    return square


def _combine(field, rows, weights):
    """sum_k weights[k] * rows[k]."""
    out = [field.zero] * len(rows[0])
    for w, row in zip(weights, rows):
        out = [field.add(o, field.mul(w, e)) for o, e in zip(out, row)]
    return out


def _planted(draw, weight, square=False):
    """Rows of which some are planted as combinations of the others."""
    def planted(rng):
        k, extra = rng.randint(1, 3), rng.randint(1, 3)
        ncols = k + extra if square else rng.randint(1, 4)
        base = _rows(rng, draw, k, ncols)
        rows = list(base)
        for _ in range(extra):
            ws = [weight(rng) for _ in range(k)]
            rows.insert(rng.randint(0, len(rows)), _combine(QT, base, ws))
        return rows
    return planted


def _with_scale(square, scale):
    return lambda rng: (square(rng), scale(rng))


CASES = {
    "rank_polynomial_rows": _shaped(_one_of(_poly, _zero_qt)),
    "rank_rows_with_polynomial_denominators":
        _shaped(_one_of(_ratfunc, _poly, _zero_qt), max_side=3),
    "rank_planted_dependent_rows": _planted(_one_of(_poly, _small_ratfunc), _small_poly),
    "matrix_rank_planted_dependent_rows": _planted(_poly, _poly, square=True),
    "rank_over_q": _shaped(_one_of(_coeff, _zero_q), max_side=5),
    "apply_over_q_t": _with_scale(_square(_one_of(_poly, _zero_qt)),
                                  _one_of(_none, _nonzero(_poly))),
    "apply_over_q": _square(_one_of(_coeff, _zero_q)),
    "apply_with_denominators_takes_the_generic_path":
        _with_scale(_square(_one_of(_small_ratfunc, _small_poly), 3),
                    _one_of(_none, _small_ratfunc)),
}


# the integer-form families: Q, Q(t) and F_p(t), the last with entries up to
# degree p + 2 (at most 9), where coefficients of d/dt vanish mod p
P31 = 2 ** 31 - 1
FORM_SPECS = ["Q", "Q(t)", "F2(t)", "F3(t)", "F7(t)", f"F{P31}(t)"]


def _entry(field):
    if field == Q:
        return _one_of(_coeff, _zero_q)
    if field == QT:
        return _one_of(_poly, _zero_qt)
    p = field.base.p

    def residue(rng):
        return rng.randrange(p) if rng.random() < 0.8 else rng.choice((0, 1, p - 1))

    return lambda rng: field.from_poly([residue(rng) for _ in range(rng.randint(0, min(p + 3, 10)))])


def _product_shapes(draw):
    def shapes(rng):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        return _rows(rng, draw, r, k), _rows(rng, draw, k, c)
    return shapes


for _spec in FORM_SPECS:
    _field = parse_field(_spec)
    _scale = _nonzero(_entry(_field)) if _field != Q else _none
    CASES[f"form_bracket|{_spec}"] = _with_scale(_square(_entry(_field)),
                                                 _one_of(_none, _scale))
    CASES[f"form_product|{_spec}"] = _product_shapes(_entry(_field))


def _examples(name):
    """The ``EXAMPLES`` inputs of the family ``name``, each from its own seed."""
    draw = CASES[name]
    return [draw(random.Random(f"test_kronecker|{name}|{i}")) for i in range(EXAMPLES)]


# -- rank --------------------------------------------------------------------------

def _form_rank(field, rows):
    """The integer rank of the form of polynomial ``rows``: what
    ``Matrix.rank`` takes over Q and Q(t) when a matrix has a form."""
    return _kronecker.int_rank(_kronecker.clear(field, rows))


def _rank(field, rows):
    """What the library ranks ``rows`` by: the form's integer rank when they
    have a form; otherwise ``Matrix.rank`` of square rows, which takes the
    generic elimination, and ``_gen_rank`` of the others."""
    if _kronecker.clear(field, rows):
        return _form_rank(field, rows)
    if len(rows) == len(rows[0]):
        return Matrix._raw(field, rows).rank()
    return _gen_rank(rows, field)


# sha256 of the space-separated ranks of a family's examples, recorded from
# the row-clearing rank that ranked rows without an integer form before the
# generic elimination did
CLEARED_RANKS = {
    "rank_rows_with_polynomial_denominators":
        "8f04559664c3ed0969b73241366ab92da84bed7c5881b7b3e0df76e960937c8c",
    "rank_planted_dependent_rows":
        "7772890f7a7a595770c2c0503138cfc2021f536f2c2548c0e32f5df70d87e79a",
}


def _check_cleared_ranks(name):
    """The family's entries are polynomials or rational functions, so some
    examples have an integer form and some do not."""
    ranks = []
    for rows in _examples(name):
        ranks.append(_rank(QT, rows))
        assert ranks[-1] == _gen_rank(rows, QT)
    digest = hashlib.sha256(" ".join(map(str, ranks)).encode()).hexdigest()
    assert digest == CLEARED_RANKS[name]


def test_rank_polynomial_rows():
    for rows in _examples("rank_polynomial_rows"):
        assert _form_rank(QT, rows) == _gen_rank(rows, QT)


def test_rank_rows_with_polynomial_denominators():
    _check_cleared_ranks("rank_rows_with_polynomial_denominators")


def test_rank_planted_dependent_rows():
    _check_cleared_ranks("rank_planted_dependent_rows")


def test_matrix_rank_planted_dependent_rows():
    for rows in _examples("matrix_rank_planted_dependent_rows"):
        m = Matrix._raw(QT, rows)
        assert m.rank() == _gen_rank(rows, QT) < m.n


def test_rank_over_q():
    for rows in _examples("rank_over_q"):
        assert _form_rank(Q, rows) == _gen_rank(rows, Q)


@pytest.mark.parametrize("m", [1, 2, 7, 31, 32, 33, 63, 64, 65, 100])
def test_rank_minors_that_vanish_just_below_the_bound(m):
    # t - 2^m vanishes at 2^m, and (t, 2^m; 2^m, 1) has determinant t - 2^(2m):
    # both have rank 1 or 2 only because 2^B stays above every such root
    k = QT.from_int(2 ** m)
    for rows, rank in (([[QT.sub(T, k)]], 1),
                       ([[T, k], [k, QT.one]], 2),
                       ([[QT.sub(T, k), QT.zero], [QT.zero, QT.sub(T, QT.mul(k, k))]], 2),
                       ([[T, k], [QT.mul(k, T), QT.mul(k, k)]], 1)):
        assert _form_rank(QT, rows) == _gen_rank(rows, QT) == rank
        assert Matrix._raw(QT, rows).rank() == rank


def test_rank_zero_and_degree_zero_rows():
    assert _form_rank(QT, [[QT.zero] * 3] * 2) == 0
    assert _form_rank(Q, [[Fraction(0)] * 4]) == 0
    rows = [[QT.from_int(1), QT.from_int(2)], [QT.from_int(2), QT.from_int(4)]]
    assert _form_rank(QT, rows) == 1
    assert _form_rank(Q, [[Fraction(1, 3), Fraction(-2, 5)],
                          [Fraction(-5, 6), Fraction(1)]]) == 1


# -- [A, x] + c dx/dt ----------------------------------------------------------------

def _reference(field, a_rows, x_rows, mu):
    """A x - x A + entrywise mu(x) by generic field operations."""
    ax, xa = _gen_mul(a_rows, x_rows, field), _gen_mul(x_rows, a_rows, field)
    return tuple(tuple(field.add(field.sub(p, q), mu(e)) for p, q, e in zip(*rows))
                 for rows in zip(ax, xa, x_rows))


def _check_apply(a_rows, x_rows, field, scale=None):
    mu = FieldDerivation.zero(field) if scale is None else FieldDerivation.scaled_dt(field, scale)
    d = CanonicalDerivation(Matrix._raw(field, a_rows), mu)
    x = Matrix._raw(field, x_rows)
    got = apply_derivation(d, x)
    assert got.rows == _reference(field, d.A.rows, x.rows, mu)
    return got


def test_apply_over_q_t():
    for ax, scale in _examples("apply_over_q_t"):
        _check_apply(*ax, QT, scale)


def test_apply_over_q():
    for ax in _examples("apply_over_q"):
        _check_apply(*ax, Q)


def test_apply_with_denominators_takes_the_generic_path():
    for ax, scale in _examples("apply_with_denominators_takes_the_generic_path"):
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
    assert _whole(r) == ([[(2, -3)]], 4, 5, 1)
    assert x._fastrep is r and r.raw is None
    y = Matrix._raw(QT, [[QT.inv(T)]])
    assert _kronecker.rep(y) is False


@pytest.mark.parametrize("bits", [2, 3, 8, 17, 64])
def test_unpack_signed_slots(bits):
    half = 1 << (bits - 1)
    for poly in ([half - 1], [-half], [1, -half, half - 1], [-1, -1, -1],
                 [0, 0, -half + 1], [half - 1, 0, -1]):
        assert _kronecker._unpack(_kronecker._at(poly, bits), bits) == poly


# -- integer-form results --------------------------------------------------------------

def _perturbed(field, rows):
    """``rows`` with one coefficient of entry (0, 0) raised by one."""
    out = [list(r) for r in rows]
    out[0][0] = field.add(out[0][0], field.one)
    return out


def _whole(form):
    """What an input's form holds besides its values: P, D, norm and degree."""
    return form.polys, form.den, form.norm, form.deg


def _check_entries(field, form):
    """Each entry of the raw form ``form`` read off its packed rows, which
    leaves it raw, and again once it is canonical, against ``decode``'s
    rows, which it returns."""
    assert form.raw is not None
    nrows, cols = len(form.raw[3]), form.raw[2][1]

    def read():
        return tuple([tuple([_kronecker.entry(field, form, i, j) for j in range(cols)])
                      for i in range(nrows)])
    raw = read()
    assert form.raw is not None and form.polys is None
    rows = _kronecker.decode(field, form)
    assert form.raw is None and raw == rows and read() == rows
    return rows


def _check_form(field, got, want):
    """``got``, a matrix held as its raw integer form, against the rows ``want``."""
    assert got.__class__ is _HeldMatrix and got._sp is None
    built = Matrix._raw(field, want)
    twin = Matrix._held(field, built.n, _kronecker.rep(built))
    # the raw form's canonical form is the one ``clear`` makes from the
    # rows; its norm and degree are added when it is first used as an input
    form = got._fastrep
    assert form.raw is not None and form.polys is None
    assert _check_entries(field, Form(raw=form.raw)) == want
    assert _kronecker.canonical(field, form) is form and form.raw is None
    assert _whole(form) == _whole(twin._fastrep)[:2] + (None, None)
    assert _whole(_kronecker.rep(got)) == _whole(twin._fastrep)
    assert got == twin and twin == got and not got != twin
    assert hash(got) == hash(built) == hash(twin)
    assert got == built and built == got
    assert not got != built and not built != got
    assert got.rows == want
    other = Matrix._raw(field, _perturbed(field, want))
    other_form = Matrix._held(field, other.n, _kronecker.rep(other))
    for m in (other, other_form):
        assert got != m and m != got
        assert not got == m and not m == got


@pytest.mark.parametrize("spec", FORM_SPECS)
def test_integer_form_bracket(spec):
    field = parse_field(spec)
    for (a_rows, x_rows), scale in _examples(f"form_bracket|{spec}"):
        mu = (FieldDerivation.zero(field) if scale is None
              else FieldDerivation.scaled_dt(field, scale))
        d = CanonicalDerivation(Matrix._raw(field, a_rows), mu)
        x = Matrix._raw(field, x_rows)
        got = apply_derivation(d, x)
        _check_form(field, got, _reference(field, d.A.rows, x.rows, mu))
        # a result is an input too: bracket it again
        again = apply_derivation(d, got)
        _check_form(field, again, _reference(field, d.A.rows, got.rows, mu))


@pytest.mark.parametrize("spec", FORM_SPECS)
def test_integer_form_products(spec):
    field = parse_field(spec)
    for a_rows, b_rows in _examples(f"form_product|{spec}"):
        want = tuple(map(tuple, _gen_mul(a_rows, b_rows, field)))
        form = _kronecker.product(field, _kronecker.clear(field, a_rows),
                                  _kronecker.clear(field, b_rows))
        assert _check_entries(field, form) == want
        assert _whole(form)[:2] == _whole(_kronecker.clear(field, want))[:2]
    for (a_rows, b_rows), _ in _examples(f"form_bracket|{spec}"):
        a, b = Matrix._raw(field, a_rows), Matrix._raw(field, b_rows)
        _check_form(field, a * b, tuple(map(tuple, _gen_mul(a_rows, b_rows, field))))


@pytest.mark.parametrize("spec", ["Q(t)", "F3(t)"])
def test_integer_form_refuses_non_polynomial_entries(spec):
    field = parse_field(spec)
    t = field.gen
    frac = field.inv(field.add(t, field.one))
    a_rows = [[field.zero, t], [field.one, field.mul(t, t)]]
    x_rows = [[frac, field.one], [t, field.zero]]
    for scale in (None, t, frac):
        mu = (FieldDerivation.zero(field) if scale is None
              else FieldDerivation.scaled_dt(field, scale))
        for a, x in ((a_rows, x_rows), (x_rows, a_rows), (a_rows, a_rows)):
            d = CanonicalDerivation(Matrix._raw(field, a), mu)
            xm = Matrix._raw(field, x)
            got = apply_derivation(d, xm)
            assert got.rows == _reference(field, d.A.rows, xm.rows, mu)
            polynomial = scale is not frac and all(
                e[1] == field.one[1] for row in a + x for e in row)
            assert (got.__class__ is _HeldMatrix and got._sp is None) == polynomial


def _derivation(field, a_rows, scale):
    mu = (FieldDerivation.zero(field) if scale is None
          else FieldDerivation.scaled_dt(field, scale))
    return CanonicalDerivation(Matrix._raw(field, a_rows), mu)


def _raw_bracket(d, x_rows):
    """D(x) for a fresh x with rows ``x_rows``, checked to be held raw."""
    got = apply_derivation(d, Matrix._raw(d.field, x_rows))
    assert got._fastrep.raw is not None
    return got


def test_raw_brackets_equal_mod_p():
    f2t = parse_field("F2(t)")
    e01, e10 = Matrix.unit(f2t, 2, 0, 1), Matrix.unit(f2t, 2, 1, 0)
    r = apply_derivation(CanonicalDerivation(e01), e10)
    s = apply_derivation(CanonicalDerivation(e10), e01)
    # as integers diag(1, -1) and diag(-1, 1): equal D, B and shape (one
    # 8-bit slot an entry, two columns), unequal packed rows
    assert r._fastrep.raw[:3] == s._fastrep.raw[:3] == (1, 8, (1, 2))
    assert r._fastrep.raw[3] == [1, -1 << 8]
    assert s._fastrep.raw[3] == [-1, 1 << 8]
    assert r == s and s == r and not r != s
    one = Matrix.identity(f2t, 2)
    assert r == one and one == r and hash(r) == hash(s) == hash(one)


@pytest.mark.parametrize("spec", FORM_SPECS)
def test_raw_result_equals_its_canonical_form_and_rows(spec):
    field = parse_field(spec)
    for (a_rows, x_rows), scale in _examples(f"form_bracket|{spec}"):
        d = _derivation(field, a_rows, scale)
        want = _reference(field, d.A.rows, x_rows, d.mu)
        built = Matrix(field, want)
        canon = Matrix._held(field, built.n, _kronecker.clear(field, want))
        other = Matrix(field, _perturbed(field, want))
        # every comparison gets a raw result of its own: a comparison that
        # canonicalizes its operands leaves them canonical
        for m in (built, canon):
            assert _raw_bracket(d, x_rows) == m and m == _raw_bracket(d, x_rows)
            assert not _raw_bracket(d, x_rows) != m and not m != _raw_bracket(d, x_rows)
        assert _raw_bracket(d, x_rows) == _raw_bracket(d, x_rows)
        assert hash(_raw_bracket(d, x_rows)) == hash(built) == hash(canon)
        assert _raw_bracket(d, x_rows) != other and other != _raw_bracket(d, x_rows)


def test_raw_results_with_different_den_or_width():
    """[A, x + k I] + mu(x + k I) = [A, x] + mu(x) for a constant k, which
    changes D (k = 1/101) or B (k = 2^200, 2^300 / 103); k e_01 changes the
    matrix."""
    n = 3
    eye, e01 = Matrix.identity(QT, n), Matrix.unit(QT, n, 0, 1)
    ks = [QT.from_poly([c]) for c in (Fraction(1, 101), 2 ** 200, Fraction(2 ** 300, 103))]
    unequal = 0
    for i in range(20):
        rng = random.Random(f"test_kronecker|den_or_width|{i}")
        a_rows, x_rows = _rows(rng, _small_poly, n, n), _rows(rng, _small_poly, n, n)
        d = _derivation(QT, a_rows, _one_of(_none, _nonzero(_small_poly))(rng))
        x = Matrix._raw(QT, x_rows)
        want = _reference(QT, d.A.rows, x_rows, d.mu)
        for k in ks:
            same, moved = (x + eye.scaled(k)).rows, (x + e01.scaled(k)).rows
            r, s = _raw_bracket(d, x_rows), _raw_bracket(d, same)
            assert r._fastrep.raw[:2] != s._fastrep.raw[:2]
            assert r == s and s == r
            r, s = _raw_bracket(d, x_rows), _raw_bracket(d, moved)
            equal = want == _reference(QT, d.A.rows, moved, d.mu)
            assert (r == s) == (s == r) == equal
            unequal += not equal
    assert unequal > 40


# -- the row layout ---------------------------------------------------------------------

F2T, F3T = parse_field("F2(t)"), parse_field("F3(t)")


def _layout_bracket(field, a_rows, x_rows, scale=None):
    """(L, columns) of the raw form of [A, x] + c dx/dt, whose rows are then
    checked against the generic bracket, and the canonical form."""
    d = _derivation(field, a_rows, scale)
    got = _raw_bracket(d, x_rows)
    shape = got._fastrep.raw[2]
    want = _reference(field, d.A.rows, Matrix._raw(field, x_rows).rows, d.mu)
    assert _check_entries(field, got._fastrep) == want
    assert got.rows == want
    return shape, got._fastrep


def _layout_product(field, a_rows, b_rows):
    """(L, columns) of the raw form of the product, whose rows are then
    checked against ``_gen_mul``, and the canonical form."""
    form = _kronecker.product(field, _kronecker.clear(field, a_rows),
                              _kronecker.clear(field, b_rows))
    shape = form.raw[2]
    assert len(form.raw[3]) == len(a_rows)
    assert _check_entries(field, form) == tuple(map(tuple, _gen_mul(a_rows, b_rows, field)))
    return shape, form


def _signs(poly):
    return {c > 0 for c in poly if c}


def test_row_layout_borrow_across_entries():
    """A negative entry beside a positive one: the signed unpack of the row
    borrows across the boundary between them."""
    zero, one = QT.zero, QT.one
    p = QT.from_poly([1, Fraction(1, 3), 2])
    m = QT.neg(p)
    for row in ([m, p], [p, m], [m, p, m], [QT.from_int(-1), one, QT.from_int(-1)]):
        # 1 x 1 times a row is the row
        shape, form = _layout_product(QT, [[one]], [row])
        assert shape == (len(row[0][0]), len(row))
    # [diag(0, 1, -1), x] has entries (a_i - a_j) x_ij
    a_rows = [[zero] * 3, [zero, one, zero], [zero, zero, QT.from_int(-1)]]
    x_rows = [[zero, p, p], [m, zero, p], [p, m, zero]]
    shape, form = _layout_bracket(QT, a_rows, x_rows)
    assert shape == (3, 3)
    first = form.polys[0]
    assert _signs(first[1]) == {False} and _signs(first[2]) == {True}
    for scale in (T, QT.from_poly([-5, 0, 1])):
        assert _layout_bracket(QT, a_rows, x_rows, scale)[0][1] == 3


def test_row_layout_degree_zero_and_maximum_degree_in_one_row():
    """Entries of degree 0 and of the largest degree share a row: each
    takes L slots, one above the largest degree of the product or of the
    d/dt term."""
    for field in (QT, F3T):
        t, one, two, zero = field.gen, field.one, field.from_int(2), field.zero
        big = field.from_poly([1, 0, 0, 0, 1])            # 1 + t^4
        # row 0 of [A, x] is [-2, big^2 - 2 big], and c dx/dt is 0 there
        a_rows, x_rows = [[zero, big], [two, zero]], [[two, one], [zero, big]]
        for scale in (None, t):
            shape, form = _layout_bracket(field, a_rows, x_rows, scale)
            assert shape == (9, 2)
            assert [len(p) for p in form.polys[0]] == [1, 9]
        shape, form = _layout_product(field, [[one, big], [zero, one]], [[one, zero], [zero, big]])
        assert shape == (9, 2)
        assert [len(p) for p in form.polys[0]] == [1, 9]
        # with A constant, c of degree 6 makes L = 6 + 4 - 1 + 1: row 0 is
        # [1, big + c 4t^3]
        c = field.from_poly([0] * 6 + [1])
        shape, form = _layout_bracket(field, [[two, one], [zero, one]],
                                      [[zero, big], [one, zero]], c)
        assert shape == (10, 2)
        assert [len(p) for p in form.polys[0]] == [1, 10]


def test_row_layout_zero_rows_and_zero_matrices():
    """Zero matrices have degree -1 and one slot an entry; a result row
    whose last entries are zero is padded out to its column count."""
    for field in (Q, QT, F3T):
        zero, one = field.zero, field.one
        t = field.from_int(3) if field == Q else field.gen
        n = 3
        z = [[zero] * n for _ in range(n)]
        x_rows = [[t, zero, zero], [zero] * n, [zero, zero, one]]
        scales = (None,) if field == Q else (None, t)
        for scale in scales:
            assert _layout_bracket(field, z, z, scale)[0] == (1, n)
            assert _layout_bracket(field, x_rows, z, scale)[0] == (1, n)
            _, form = _layout_bracket(field, z, x_rows, scale)
            assert form.polys[1] == [()] * n
            _, form = _layout_bracket(field, [[one, zero, zero], [zero] * n, [zero] * n],
                                      x_rows, scale)
            assert form.polys[1] == [()] * n
        assert _layout_product(field, z, z)[0] == (1, n)
        assert _layout_product(field, z, x_rows)[0] == (1, n)
        shape, form = _layout_product(field, x_rows, x_rows)
        assert shape[1] == n and form.polys[0][1:] == [(), ()]
        assert form.polys[1] == [()] * n


@pytest.mark.parametrize("spec", ["Q", "Q(t)", "F2(t)", "F3(t)"])
def test_row_layout_rectangular_products(spec):
    """1 x k times k x m, and m x k times k x 1: the raw form holds the
    column count the shape of a row does not give."""
    field = parse_field(spec)
    draw = _entry(field)
    rng = random.Random(f"test_kronecker|rectangular|{spec}")
    for k in range(1, 5):
        for m in range(1, 5):
            shape, form = _layout_product(field, _rows(rng, draw, 1, k), _rows(rng, draw, k, m))
            assert shape[1] == m and len(form.polys) == 1
            shape, form = _layout_product(field, _rows(rng, draw, m, k), _rows(rng, draw, k, 1))
            assert shape[1] == 1 and len(form.polys) == m


@pytest.mark.parametrize("spec", ["F2(t)", "F3(t)"])
def test_row_layout_unreduced_lifts_over_fp_t(spec):
    """Over F_p(t) a raw row is an integer lift: its slots may be negative
    or past p, and two lifts of one matrix differ."""
    field = parse_field(spec)
    t, n = field.gen, 2
    e01, e10 = Matrix.unit(field, n, 0, 1), Matrix.unit(field, n, 1, 0)
    r = apply_derivation(CanonicalDerivation(e01.scaled(t)), e10)
    s = apply_derivation(CanonicalDerivation(e10.scaled(t)), e01)
    # as integers diag(t, -t) and diag(-t, t), two slots an entry; over
    # F_2(t) both are t I
    assert r._fastrep.raw[:3] == s._fastrep.raw[:3] and r._fastrep.raw[2] == (2, n)
    assert r._fastrep.raw[3] != s._fastrep.raw[3]
    diag = Matrix(field, [[t, field.zero], [field.zero, field.neg(t)]])
    assert r == diag and s == -diag and (r == s) == (field.base.p == 2)
    p = field.base.p
    lifts = 0
    for (a_rows, x_rows), scale in _examples(f"form_bracket|{spec}")[:30]:
        d = _derivation(field, a_rows, scale)
        got = _raw_bracket(d, x_rows)
        bits = got._fastrep.raw[1]
        lifts += any(not 0 <= c < p for v in got._fastrep.raw[3]
                     for c in _kronecker._unpack(v, bits))
        assert got.rows == _reference(field, d.A.rows, Matrix._raw(field, x_rows).rows, d.mu)
    assert lifts > 10


def test_row_layout_over_q():
    """Over Q every entry has degree 0 or -1: one slot an entry."""
    for a_rows, x_rows in _examples("apply_over_q")[:30]:
        n = len(a_rows)
        assert _layout_bracket(Q, a_rows, x_rows)[0] == (1, n)
        assert _layout_product(Q, a_rows, x_rows)[0] == (1, n)


@pytest.mark.parametrize("spec", ["Q", "Q(t)", "F2(t)", "F3(t)"])
def test_entry_reads_of_held_matrices(spec):
    """``m[i, j]`` of a bracket held raw and of a matrix held as a canonical
    form reads the form, negative and out-of-range indices as the rows."""
    field = parse_field(spec)
    for (a_rows, x_rows), scale in _examples(f"form_bracket|{spec}")[:20]:
        d = _derivation(field, a_rows, scale)
        want = _reference(field, d.A.rows, x_rows, d.mu)
        check_entry_reads(_raw_bracket(d, x_rows), want)
        check_entry_reads(Matrix._held(field, len(want), _kronecker.clear(field, want)), want)


def test_rank_reads_the_row_sums_kept_in_the_form():
    """A form keeps each row's l1 norm, the factors of ``int_rank``'s bound."""
    for rows in _examples("rank_polynomial_rows")[:30]:
        form = _kronecker.clear(QT, rows)
        assert form.sums == [sum(sum(map(abs, p)) for p in row) for row in form.polys]
        assert _kronecker.int_rank(form) == _gen_rank(rows, QT)


def _closure(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def test_a_memo_holds_at_most_two_widths():
    n = 2
    rng = random.Random("test_kronecker|memo")
    d = _derivation(QT, _rows(rng, _poly, n, n), _nonzero(_poly)(rng))
    memo = _closure(d._apply, "memo")
    widths = set()
    for _ in range(240):
        x_rows = _rows(rng, _one_of(_poly, _zero_qt), n, n)
        got = _raw_bracket(d, x_rows)
        widths.add(got._fastrep.raw[1])
        assert 1 <= len(memo) <= 2 and all(b % 8 == 0 for b, _ in memo)
        assert got.rows == _reference(QT, d.A.rows, x_rows, d.mu)
    # the points meet more widths than the memo holds
    assert len(widths) > 4


@pytest.mark.parametrize("spec", ["Q(t)", "F3(t)"])
def test_values_are_kept_with_x(spec, monkeypatch):
    """A second derivation applied to the same x evaluates only its own A
    (n^2 entries and c); the same derivation again evaluates nothing."""
    field = parse_field(spec)
    calls = []
    at = _kronecker._at
    monkeypatch.setattr(_kronecker, "_at", lambda poly, bits: calls.append(1) or at(poly, bits))
    for (a_rows, x_rows), scale in _examples(f"form_bracket|{spec}")[:20]:
        d = _derivation(field, a_rows, scale)
        x = Matrix._raw(field, x_rows)
        first = apply_derivation(d, x)
        twin = CanonicalDerivation(d.A, d.mu)
        del calls[:]
        second = apply_derivation(twin, x)
        assert len(calls) == len(a_rows) ** 2 + 1
        del calls[:]
        third = apply_derivation(twin, x)
        assert calls == []
        assert first == second == third
        assert third.rows == _reference(field, d.A.rows, x_rows, d.mu)


def _ratio(rng):
    return QT.div(_nonzero(_small_poly)(rng), _nonzero(_small_poly)(rng))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_without_integer_form(n, monkeypatch):
    """Rational-function rows, some planted as combinations of others, are
    ranked as ``_gen_rank`` ranks them, without the generic elimination."""
    # entries mix polynomials and ratios: ratios alone make the reference
    # take seconds a matrix at n = 5
    entry = _one_of(_small_poly, _ratio)
    cases = []
    rng = random.Random(f"test_kronecker|rank_without_form|{n}")
    while len(cases) < 6:
        base = _rows(rng, entry, rng.randint(1, n - 1), n)
        rows = list(base)
        while len(rows) < n:
            weights = [entry(rng) for _ in base]
            rows.insert(rng.randint(0, len(rows)), _combine(QT, base, weights))
        if _kronecker.clear(QT, rows) is None:
            cases.append((rows, _gen_rank(rows, QT)))
    assert {rank for _, rank in cases} != {n}

    def refuse(rows, field):
        raise AssertionError("the generic elimination ranked a Q(t) matrix")
    monkeypatch.setattr("rankderiv.matrix._echelon", refuse)
    for rows, rank in cases:
        assert Matrix._raw(QT, rows).rank() == rank


@pytest.mark.parametrize("spec", ["Q", "Q(t)"])
def test_random_rank_k_rows(spec):
    field = parse_field(spec)
    for n, k in ((2, 1), (3, 2), (4, 2), (4, 4)):
        for seed in range(5):
            m = random_rank_k(n, k, field, seed=seed)
            assert m.__class__ is _HeldMatrix and m._sp is None
            assert m.rank() == _gen_rank(m.rows, field) == k
            assert m.rows == Matrix(field, m.rows).rows


def test_examples_span_several_words():
    """The seeded Q and Q(t) families keep coefficients past 2^64."""
    for name in ("rank_polynomial_rows", "matrix_rank_planted_dependent_rows",
                 "rank_over_q", "apply_over_q_t", "form_bracket|Q", "form_product|Q(t)"):
        coeffs = []

        def walk(v):
            if isinstance(v, Fraction):
                coeffs.append(v)
            elif isinstance(v, (list, tuple)):
                for w in v:
                    walk(w)

        walk(_examples(name))
        assert max(abs(c.numerator) for c in coeffs) > 2 ** 64, name
