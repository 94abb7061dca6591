"""Exact scalar arithmetic: Q, prime fields F_p, and rational function fields.

Elements are plain canonical Python values rather than wrapper objects:

* ``Rationals``       -- ``fractions.Fraction`` (always reduced),
* ``PrimeField(p)``   -- ``int`` residues in ``[0, p)``,
* ``RationalFunctionField(base)`` -- pairs ``(num, den)`` of coefficient
  tuples (ascending degree, no trailing zeros, ``()`` is the zero
  polynomial) with ``den`` monic and ``gcd(num, den) = 1``.

Canonical forms are unique, so ``==`` on values is field equality and values
can key dictionaries directly.  All operations are pure; fields and values
are immutable and safe to share between threads.

``FieldDerivation`` models additive maps ``mu`` with
``mu(ab) = a*mu(b) + mu(a)*b``.  Ground truth is constructible only as the
zero map or ``c * d/dt`` over a function field; derivation extraction also
returns total tables over finite fields, and partial probe tables when a
probe it was given disagrees with the zero map or ``c * d/dt``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, UsageError

__all__ = [
    "Field",
    "Rationals",
    "PrimeField",
    "RationalFunctionField",
    "FieldDerivation",
    "parse_field",
    "eval_arith",
    "inv",
    "derive",
    "is_prime",
]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples over a base field, ascending degree)
# ---------------------------------------------------------------------------

def _poly_trim(cs, base) -> tuple:
    i = len(cs)
    zero = base.zero
    while i > 0 and cs[i - 1] == zero:
        i -= 1
    return tuple(cs[:i])


def _poly_add(base, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = base.add(out[i], c)
    return _poly_trim(out, base)


def _poly_neg(base, f):
    return tuple(base.neg(c) for c in f)


def _poly_sub(base, f, g):
    return _poly_add(base, f, _poly_neg(base, g))


def _poly_mul(base, f, g):
    if not f or not g:
        return ()
    out = [base.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == base.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return _poly_trim(out, base)


def _poly_scale(base, c, f):
    if c == base.zero:
        return ()
    return _poly_trim([base.mul(c, a) for a in f], base)


def _poly_divmod(base, f, g):
    if not g:
        raise DomainError("polynomial division by zero")
    rem = list(f)
    quo = [base.zero] * max(0, len(f) - len(g) + 1)
    glead_inv = base.inv(g[-1])
    for shift in range(len(f) - len(g), -1, -1):
        coef = base.mul(rem[shift + len(g) - 1], glead_inv)
        if coef != base.zero:
            quo[shift] = coef
            for i, b in enumerate(g):
                rem[shift + i] = base.sub(rem[shift + i], base.mul(coef, b))
    return _poly_trim(quo, base), _poly_trim(rem, base)


def _poly_monic(base, f):
    if not f or f[-1] == base.one:
        return f
    return _poly_scale(base, base.inv(f[-1]), f)


def _poly_gcd_monic(base, f, g):
    while g:
        f, g = g, _poly_divmod(base, f, g)[1]
    return _poly_monic(base, f)


def _poly_derivative(base, f):
    return _poly_trim(
        [base.mul(base.from_int(i), f[i]) for i in range(1, len(f))], base,
    )


def _poly_str(base, f) -> str:
    """Descending-degree rendering with no whitespace, e.g. ``3*t^2-t+1/2``."""
    if not f:
        return "0"
    parts = []
    for d in range(len(f) - 1, -1, -1):
        c = f[d]
        if c == base.zero:
            continue
        s = base.format(c)
        neg = s.startswith("-")
        mag = s[1:] if neg else s
        if d == 0:
            body = mag
        else:
            body = "t" if mag == "1" else f"{mag}*t"
            if d >= 2:
                body += f"^{d}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """Abstract exact field; subclasses supply ops on plain canonical values."""

    is_finite = False
    order: int | None = None
    zero = None
    one = None

    def add(self, a, b): raise NotImplementedError
    def sub(self, a, b): raise NotImplementedError
    def mul(self, a, b): raise NotImplementedError
    def neg(self, a): raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def inv(self, a): raise NotImplementedError
    def from_int(self, k: int): raise NotImplementedError

    def canonical(self, a):
        """Re-canonicalize a value (idempotent on canonical ones)."""
        raise NotImplementedError

    def validate(self, a):
        """Return ``a`` if it is a canonical value of this field, else raise."""
        raise NotImplementedError

    def format(self, a) -> str: raise NotImplementedError

    def parse(self, text: str):
        return _ElementParser(self, text).parse()

    def sort_key(self, a): raise NotImplementedError

    def random_element(self, rng): raise NotImplementedError

    def elements(self):
        raise UsageError(f"field {self.spec()} is infinite; cannot enumerate")

    def spec(self) -> str: raise NotImplementedError

    def arith(self, a, b, op: str):
        """Binary arithmetic by op name: ``add``, ``sub``, ``mul`` or ``div``."""
        self.validate(a)
        self.validate(b)
        if op == "add":
            return self.add(a, b)
        if op == "sub":
            return self.sub(a, b)
        if op == "mul":
            return self.mul(a, b)
        if op == "div":
            return self.div(a, b)
        raise UsageError(f"unknown arithmetic op {op!r}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec()}>"


class Rationals(Field):
    """The field Q; values are reduced ``fractions.Fraction`` objects."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b): return a + b
    def sub(self, a, b): return a - b
    def mul(self, a, b): return a * b
    def neg(self, a): return -a

    def div(self, a, b):
        if b == 0:
            raise DomainError("division by zero in Q")
        return a / b

    def inv(self, a):
        if a == 0:
            raise DomainError("zero has no inverse in Q")
        return 1 / a

    def from_int(self, k): return Fraction(k)

    def canonical(self, a): return Fraction(a)

    def validate(self, a):
        if not isinstance(a, Fraction):
            raise UsageError(f"{a!r} is not a Q value")
        return a

    def format(self, a): return str(a)

    def sort_key(self, a): return a

    def random_element(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def spec(self): return "Q"

    def __eq__(self, other): return isinstance(other, Rationals)
    def __hash__(self): return hash("Q")


class PrimeField(Field):
    """F_p for prime p; values are ``int`` residues in ``[0, p)``."""

    is_finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b): return (a + b) % self.p
    def sub(self, a, b): return (a - b) % self.p
    def mul(self, a, b): return (a * b) % self.p
    def neg(self, a): return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError(f"zero has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def from_int(self, k): return k % self.p

    def canonical(self, a): return int(a) % self.p

    def validate(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.p:
            raise UsageError(f"{a!r} is not an F_{self.p} residue")
        return a

    def format(self, a): return str(a)

    def sort_key(self, a): return a

    def random_element(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return iter(range(self.p))

    def spec(self): return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self): return hash(("F", self.p))


class RationalFunctionField(Field):
    """K(t) over a base of Q or F_p; one level of nesting only.

    Values are pairs ``(num, den)`` of coefficient tuples with ``den`` monic
    and ``gcd(num, den) = 1``; the zero value is ``((), (one,))``.
    """

    def __init__(self, base: Field):
        if not isinstance(base, (Rationals, PrimeField)):
            raise UsageError("rational function base must be Q or a prime field")
        self.base = base
        self._one_poly = (base.one,)
        self.zero = ((), self._one_poly)
        self.one = (self._one_poly, self._one_poly)

    @property
    def gen(self):
        """The generator t."""
        return ((self.base.zero, self.base.one), self._one_poly)

    def _make(self, num, den):
        base = self.base
        if not num:
            return self.zero
        if not den:
            raise DomainError(f"zero denominator in {self.spec()}")
        if den != self._one_poly:
            g = _poly_gcd_monic(base, num, den)
            if len(g) > 1 or g[0] != base.one:
                num = _poly_divmod(base, num, g)[0]
                den = _poly_divmod(base, den, g)[0]
            if den[-1] != base.one:
                lead_inv = base.inv(den[-1])
                num = _poly_scale(base, lead_inv, num)
                den = _poly_scale(base, lead_inv, den)
        return (num, den)

    def add(self, a, b):
        base = self.base
        (n1, d1), (n2, d2) = a, b
        if d1 == self._one_poly and d2 == self._one_poly:
            return (_poly_add(base, n1, n2), self._one_poly)
        return self._make(
            _poly_add(base, _poly_mul(base, n1, d2), _poly_mul(base, n2, d1)),
            _poly_mul(base, d1, d2),
        )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (_poly_neg(self.base, a[0]), a[1])

    def mul(self, a, b):
        base = self.base
        (n1, d1), (n2, d2) = a, b
        if d1 == self._one_poly and d2 == self._one_poly:
            return (_poly_mul(base, n1, n2), self._one_poly)
        return self._make(_poly_mul(base, n1, n2), _poly_mul(base, d1, d2))

    def inv(self, a):
        if not a[0]:
            raise DomainError(f"zero has no inverse in {self.spec()}")
        return self._make(a[1], a[0])

    def div(self, a, b):
        if not b[0]:
            raise DomainError(f"division by zero in {self.spec()}")
        return self._make(
            _poly_mul(self.base, a[0], b[1]),
            _poly_mul(self.base, a[1], b[0]),
        )

    def from_int(self, k):
        c = self.base.from_int(k)
        return ((c,) if c != self.base.zero else (), self._one_poly)

    def from_poly(self, coeffs) -> tuple:
        """Build a value from ascending base-field coefficients."""
        return (_poly_trim([self.base.canonical(c) for c in coeffs], self.base),
                self._one_poly)

    def canonical(self, a):
        num = _poly_trim([self.base.canonical(c) for c in a[0]], self.base)
        den = _poly_trim([self.base.canonical(c) for c in a[1]], self.base)
        return self._make(num, den)

    def validate(self, a):
        ok = (
            isinstance(a, tuple) and len(a) == 2
            and isinstance(a[0], tuple) and isinstance(a[1], tuple) and a[1]
        )
        if not ok:
            raise UsageError(f"{a!r} is not a {self.spec()} value")
        for c in (*a[0], *a[1]):
            self.base.validate(c)
        return a

    def derivative(self, a):
        """Formal d/dt with the quotient rule."""
        base = self.base
        num, den = a
        dn = _poly_derivative(base, num)
        if den == self._one_poly:
            return (dn, self._one_poly)
        dd = _poly_derivative(base, den)
        top = _poly_sub(base, _poly_mul(base, dn, den), _poly_mul(base, num, dd))
        return self._make(top, _poly_mul(base, den, den))

    def format(self, a):
        num, den = a
        if not num:
            return "0"
        if den == self._one_poly:
            return _poly_str(self.base, num)
        return f"({_poly_str(self.base, num)})/({_poly_str(self.base, den)})"

    def sort_key(self, a):
        base = self.base
        num, den = a
        return (
            len(den), tuple(base.sort_key(c) for c in den),
            len(num), tuple(base.sort_key(c) for c in num),
        )

    def random_element(self, rng):
        base = self.base
        c0 = base.random_element(rng)
        c1 = base.random_element(rng) if rng.random() < 0.5 else base.zero
        return (_poly_trim([c0, c1], base), self._one_poly)

    def spec(self): return f"{self.base.spec()}(t)"

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.base == self.base

    def __hash__(self): return hash(("ratfunc", self.base))


_FIELD_SPEC_RE = re.compile(r"^(Q|F(\d+))(\(t\))?$")


def parse_field(spec: str) -> Field:
    """Parse a field spec string: ``Q``, ``F<p>``, ``Q(t)`` or ``F<p>(t)``."""
    m = _FIELD_SPEC_RE.match(spec.strip())
    if not m:
        raise UsageError(f"cannot parse field spec {spec!r}")
    base = Rationals() if m.group(1) == "Q" else PrimeField(int(m.group(2)))
    return RationalFunctionField(base) if m.group(3) else base


# ---------------------------------------------------------------------------
# element expression parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[t^+\-*/()])")


class _ElementParser:
    """Recursive-descent parser for element literals.

    Grammar: expr = term (('+'|'-') term)*; term = factor (('*'|'/') factor)*;
    factor = '-' factor | atom ('^' INT)?; atom = INT | 't' | '(' expr ')'.
    """

    def __init__(self, field: Field, text: str):
        self.field = field
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise UsageError(f"bad character in element literal {text!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self):
        if not self.tokens:
            raise UsageError("empty element literal")
        value = self._expr()
        if self.i != len(self.tokens):
            raise UsageError(f"trailing junk in element literal {self.text!r}")
        return value

    def _expr(self):
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = self.field.add(value, rhs) if op == "+" else self.field.sub(value, rhs)
        return value

    def _term(self):
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            value = self.field.mul(value, rhs) if op == "*" else self.field.div(value, rhs)
        return value

    def _factor(self):
        if self._peek() == "-":
            self._next()
            return self.field.neg(self._factor())
        value = self._atom()
        if self._peek() == "^":
            self._next()
            exp = self._next()
            if exp is None or not exp.isdigit():
                raise UsageError(f"exponent must be a nonnegative integer in {self.text!r}")
            out = self.field.one
            for _ in range(int(exp)):
                out = self.field.mul(out, value)
            return out
        return value

    def _atom(self):
        tok = self._next()
        if tok is None:
            raise UsageError(f"unexpected end of element literal {self.text!r}")
        if tok.isdigit():
            return self.field.from_int(int(tok))
        if tok == "t":
            if not isinstance(self.field, RationalFunctionField):
                raise UsageError(f"'t' is not an element of {self.field.spec()}")
            return self.field.gen
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise UsageError(f"unbalanced parentheses in {self.text!r}")
            return value
        raise UsageError(f"unexpected token {tok!r} in element literal {self.text!r}")


# ---------------------------------------------------------------------------
# field derivations
# ---------------------------------------------------------------------------

class FieldDerivation:
    """An additive map mu on a field with mu(ab) = a*mu(b) + mu(a)*b.

    Kinds: ``zero``; ``dt`` (``scale * d/dt`` over a function field);
    ``table`` (total table over a finite field); ``probes`` (partial table,
    evaluating outside the probed points raises DomainError).
    """

    __slots__ = ("field", "kind", "scale", "table")

    def __init__(self, field, kind, scale=None, table=None):
        self.field = field
        self.kind = kind
        self.scale = scale
        self.table = table

    @classmethod
    def zero(cls, field: Field) -> "FieldDerivation":
        return cls(field, "zero")

    @classmethod
    def scaled_dt(cls, field: Field, scale) -> "FieldDerivation":
        if not isinstance(field, RationalFunctionField):
            raise UsageError(
                f"only the zero derivation is constructible over {field.spec()}")
        scale = field.canonical(scale)
        if scale == field.zero:
            return cls.zero(field)
        return cls(field, "dt", scale=scale)

    @classmethod
    def from_table(cls, field: Field, mapping: dict) -> "FieldDerivation":
        if not field.is_finite:
            raise UsageError("total tables require a finite field")
        table = {field.validate(a): field.validate(v) for a, v in mapping.items()}
        if len(table) != field.order:
            raise UsageError("table does not cover the whole field")
        if all(v == field.zero for v in table.values()):
            return cls.zero(field)
        return cls(field, "table", table=table)

    @classmethod
    def from_probes(cls, field: Field, mapping: dict) -> "FieldDerivation":
        table = {field.validate(a): field.validate(v) for a, v in mapping.items()}
        return cls(field, "probes", table=table)

    def __call__(self, a):
        field = self.field
        if self.kind == "zero":
            field.validate(a)
            return field.zero
        if self.kind == "dt":
            return field.mul(self.scale, field.derivative(a))
        field.validate(a)
        try:
            return self.table[a]
        except KeyError:
            raise DomainError(
                f"derivation table has no value at {field.format(a)}") from None

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def _key(self):
        if self.kind in ("table", "probes"):
            data = tuple(sorted(self.table.items(),
                                key=lambda kv: self.field.sort_key(kv[0])))
        else:
            data = self.scale
        return (self.field, self.kind, data)

    def __eq__(self, other):
        return isinstance(other, FieldDerivation) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self) -> str:
        """One-token-per-part textual form used by the CLI."""
        if self.kind == "zero":
            return "zero"
        if self.kind == "dt":
            return f"dt {self.field.format(self.scale)}"
        items = sorted(self.table.items(), key=lambda kv: self.field.sort_key(kv[0]))
        body = " ".join(f"{self.field.format(a)}->{self.field.format(v)}"
                        for a, v in items)
        return f"{self.kind} {body}"

    def __repr__(self):
        return f"<FieldDerivation {self.describe()} over {self.field.spec()}>"


# ---------------------------------------------------------------------------
# module-level operation wrappers
# ---------------------------------------------------------------------------

def eval_arith(field: Field, a, b, op: str):
    """Exact binary arithmetic in ``field``; see ``Field.arith``."""
    return field.arith(a, b, op)


def inv(field: Field, a):
    """Multiplicative inverse; DomainError on zero."""
    field.validate(a)
    return field.inv(a)


def derive(mu: FieldDerivation, a):
    """Apply a field derivation to an element."""
    return mu(a)
