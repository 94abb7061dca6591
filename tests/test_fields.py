"""Field arithmetic, canonical forms, parsing, and derivation laws.

The sampled laws draw their inputs from ``random.Random`` generators seeded
by the test's name, so they do not depend on anything else in the source
tree; ``CASES`` lists every drawn family, and ``_examples`` draws one.
"""

import random
from fractions import Fraction

import pytest

from rankderiv import (
    DomainError,
    FieldDerivation,
    RationalFunctionField,
    UsageError,
    derive,
    eval_arith,
    inv,
    parse_field,
)


QT = parse_field("Q(t)")
EXAMPLES = 200


# -- seeded inputs ---------------------------------------------------------------

def _int(rng, low, high):
    """An int in [low, high], one of 0 and the ends a quarter of the time."""
    if rng.random() < 0.25:
        return rng.choice([v for v in (0, low, high) if low <= v <= high])
    return rng.randint(low, high)


def _q_element(rng):
    """A fraction in [-10, 10] with denominator at most 40, often 1."""
    den = 1 if rng.random() < 0.25 else rng.randint(1, 40)
    return Fraction(_int(rng, -10 * den, 10 * den), den)


def _f7_element(rng):
    return _int(rng, 0, 6)


def _qt_element(rng):
    """num/den over Q(t) with 1 to 3 coefficients in [-4, 4] on each side;
    a zero denominator becomes 1, and a quarter of them are 1."""
    def poly():
        return QT.from_poly([_int(rng, -4, 4) for _ in range(rng.randint(1, 3))])

    num = poly()
    den = QT.one if rng.random() < 0.25 else poly()
    return QT.div(num, QT.one if den == QT.zero else den)


def _draws(*draws):
    return lambda rng: tuple(draw(rng) for draw in draws)


CASES = {
    "q_field_laws": _draws(_q_element, _q_element, _q_element),
    "f7_field_laws": _draws(_f7_element, _f7_element, _f7_element),
    "qt_field_laws": _draws(_qt_element, _qt_element, _qt_element),
    "qt_canonical_idempotent": _draws(_qt_element, _qt_element),
    "qt_format_parse_round_trip": _draws(_qt_element),
    "q_format_parse_round_trip": _draws(_q_element),
    "scaled_dt_is_a_derivation": _draws(_qt_element, _qt_element, _q_element),
}


def _examples(name):
    """The ``EXAMPLES`` inputs of the family ``name``, each from its own seed."""
    draw = CASES[name]
    return [draw(random.Random(f"test_fields|{name}|{i}")) for i in range(EXAMPLES)]


# -- worked examples -----------------------------------------------------------

def test_arith_examples(F7, Q, Qt):
    assert eval_arith(F7, 3, 5, "mul") == 1
    assert eval_arith(Q, Fraction(2, 3), Fraction(2, 3), "div") == Fraction(1)
    t_plus = Qt.parse("t+1")
    t_minus = Qt.parse("t-1")
    assert eval_arith(Qt, t_plus, t_minus, "mul") == Qt.parse("t^2-1")


def test_inverse_examples(F7, Q):
    assert inv(F7, 3) == 5
    assert inv(Q, Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(DomainError):
        inv(F7, 0)
    with pytest.raises(DomainError):
        inv(Q, Fraction(0))


def test_division_by_zero(F7, Q, Qt):
    for field, a in ((F7, 3), (Q, Fraction(1)), (Qt, Qt.gen)):
        with pytest.raises(DomainError):
            eval_arith(field, a, field.zero, "div")


def test_derive_examples(Qt):
    t = Qt.gen
    ddt = FieldDerivation.scaled_dt(Qt, Qt.one)
    assert derive(ddt, t) == Qt.one
    assert derive(ddt, Qt.mul(t, t)) == Qt.parse("2*t")
    assert derive(ddt, Qt.one) == Qt.zero
    zero = FieldDerivation.zero(Qt)
    assert derive(zero, Qt.one) == Qt.zero


def test_field_spec_parsing():
    assert parse_field("Q").spec() == "Q"
    assert parse_field("F7").spec() == "F7"
    assert parse_field("Q(t)").spec() == "Q(t)"
    assert parse_field("F5(t)").spec() == "F5(t)"
    with pytest.raises(UsageError):
        parse_field("F4")  # not prime
    with pytest.raises(UsageError):
        parse_field("R")


def test_field_mismatch_is_usage_error(F7, Q):
    with pytest.raises(UsageError):
        eval_arith(F7, Fraction(1, 2), 3, "add")
    with pytest.raises(UsageError):
        eval_arith(Q, 1, Fraction(1), "add")


def test_t_rejected_outside_function_fields(Q, F7):
    with pytest.raises(UsageError):
        Q.parse("t+1")
    with pytest.raises(UsageError):
        F7.parse("t")


# -- algebraic laws (sampled) -------------------------------------------------

def test_q_field_laws():
    field = parse_field("Q")
    for a, b, c in _examples("q_field_laws"):
        assert field.mul(field.add(a, b), c) == field.add(field.mul(a, c), field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_f7_field_laws():
    field = parse_field("F7")
    for a, b, c in _examples("f7_field_laws"):
        assert field.mul(field.add(a, b), c) == field.add(field.mul(a, c), field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1


def test_qt_field_laws():
    field = parse_field("Q(t)")
    for a, b, c in _examples("qt_field_laws"):
        assert field.mul(field.add(a, b), c) == field.add(field.mul(a, c), field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_qt_canonical_idempotent():
    field = parse_field("Q(t)")
    for a, b in _examples("qt_canonical_idempotent"):
        for value in (field.add(a, b), field.mul(a, b)):
            assert field.canonical(value) == value


def test_qt_format_parse_round_trip():
    field = parse_field("Q(t)")
    for a, in _examples("qt_format_parse_round_trip"):
        text = field.format(a)
        assert " " not in text
        assert field.parse(text) == a


def test_q_format_parse_round_trip():
    field = parse_field("Q")
    for a, in _examples("q_format_parse_round_trip"):
        assert field.parse(field.format(a)) == a


# -- derivation laws -----------------------------------------------------------

def test_scaled_dt_is_a_derivation():
    field = parse_field("Q(t)")
    for a, b, c in _examples("scaled_dt_is_a_derivation"):
        mu = FieldDerivation.scaled_dt(field, field.from_poly([c]))
        assert mu(field.add(a, b)) == field.add(mu(a), mu(b))
        lhs = mu(field.mul(a, b))
        rhs = field.add(field.mul(a, mu(b)), field.mul(mu(a), b))
        assert lhs == rhs
        assert mu(field.one) == field.zero


def test_only_zero_derivation_over_q_and_fp(Q, F7):
    with pytest.raises(UsageError):
        FieldDerivation.scaled_dt(Q, Fraction(1))
    with pytest.raises(UsageError):
        FieldDerivation.scaled_dt(F7, 1)
    assert FieldDerivation.zero(Q).is_zero()
    assert FieldDerivation.zero(F7)(3) == 0


def test_derivation_normalization(Qt, F3):
    assert FieldDerivation.scaled_dt(Qt, Qt.zero).is_zero()
    table = {a: 0 for a in F3.elements()}
    assert FieldDerivation.from_table(F3, table).is_zero()


def test_fp_canonical_idempotent(F7):
    rng = random.Random(20)
    for _ in range(200):
        a, b = rng.randrange(7), rng.randrange(7)
        v = F7.mul(a, b)
        assert F7.canonical(v) == v
        assert 0 <= v < 7


# -- refusals ----------------------------------------------------------------------

Q, F3 = parse_field("Q"), parse_field("F3")

# every refusal of the field API that no other test reaches: the call, the
# exception class and the message as it stands
REFUSALS = {
    "infinite-elements": (lambda: Q.elements(), UsageError,
                          r"^field Q is infinite; cannot enumerate$"),
    "arith-op": (lambda: F3.arith(1, 2, "pow"), UsageError, r"^unknown arithmetic op 'pow'$"),
    "nested-base": (lambda: RationalFunctionField(QT), UsageError,
                    r"^rational function base must be Q or a prime field$"),
    "zero-denominator": (lambda: QT.canonical(((Fraction(1),), ())), DomainError,
                         r"^zero denominator in Q\(t\)$"),
    "inverse-of-zero": (lambda: QT.inv(QT.zero), DomainError,
                        r"^zero has no inverse in Q\(t\)$"),
    "not-a-value": (lambda: QT.validate(3), UsageError, r"^3 is not a Q\(t\) value$"),
    "bad-character": (lambda: QT.parse("t & 1"), UsageError,
                      r"^bad character in element literal 't & 1'$"),
    "empty-literal": (lambda: QT.parse(""), UsageError, r"^empty element literal$"),
    "trailing-junk": (lambda: Q.parse("1 2"), UsageError,
                      r"^trailing junk in element literal '1 2'$"),
    "exponent": (lambda: QT.parse("t^t"), UsageError,
                 r"^exponent must be a nonnegative integer in 't\^t'$"),
    "unexpected-end": (lambda: QT.parse("1+"), UsageError,
                       r"^unexpected end of element literal '1\+'$"),
    "unbalanced": (lambda: QT.parse("(1+t"), UsageError,
                   r"^unbalanced parentheses in '\(1\+t'$"),
    "unexpected-token": (lambda: QT.parse(")"), UsageError,
                         r"^unexpected token '\)' in element literal '\)'$"),
    "t-outside-a-function-field": (lambda: Q.parse("t"), UsageError,
                                   r"^'t' is not an element of Q$"),
    "table-over-infinite-field": (lambda: FieldDerivation.from_table(Q, {}), UsageError,
                                  r"^total tables require a finite field$"),
    "incomplete-table": (lambda: FieldDerivation.from_table(F3, {0: 0, 1: 0}), UsageError,
                         r"^table does not cover the whole field$"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_field_refusals(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls, match=message) as err:
        call()
    assert type(err.value) is cls
