"""Derivation-style maps on matrix rings: application, verification,
extension, extraction, and full-ring reconstruction.

A ``CanonicalDerivation`` is a pair (A, mu): the map
``x -> A x - x A + entrywise mu(x)``.  A ``DeltaMap`` is any evaluable
matrix-to-matrix assignment with a declared domain (full ring, rank <= s,
rank exactly s, or the sparse cover-rank union); evaluating outside the
domain raises DomainError.  A table's keys are checked against its domain
once, when the table is stored (the constructor, ``from_table``,
``from_text``, ``override``), so a lookup that finds its key computes no
rank.  Over a finite field ``from_text`` also refuses a table that leaves
out a matrix of its domain.

``apply_derivation`` over a packed prime field whose space interns its rows
(p^n <= ``_packed.INTERN_ROWS``) computes the bracket as
[A, x] = sum_i T_i[x_i], with T_i[r] = [A, E_i(r)] and E_i(r) the matrix
whose row i is r and whose other rows are zero: n lookups, one XOR or slot
sum, one reduction (the "method of the Four Russians" of M4RI: Albrecht,
Bard and Hart, ACM TOMS 2010; layout and bound in ``_packed``).  The
tables belong to the derivation: a ``CanonicalDerivation`` resolves its
ring once, when it is built, and fills a table entry on the first lookup
of its row, so a derivation applied to m matrices holds at most n m
entries, never more than n p^n (49,152 at F_2, n = 12), and they die with
it.  Building an entry costs about one row of the fused pass below, so the
tables pay off as rows recur among the matrices one derivation brackets;
a bracket whose rows are all new costs about as much as the fused pass,
and a derivation applied to a single matrix also pays for making them.
Past the intern bound the bracket is A x + x (-A) in one packed pass
(``_packed.Space.mul2``), the pass that also forms the product rule's
delta(x) y + x delta(y) (``matrix.product_sum``).  Over Q
and Q(t), when every entry of A, x and the d/dt scale is a polynomial, it
computes [A, x] + c dx/dt on integers at t = 2^B (``_kronecker``).  Every
other input takes generic ``Matrix`` arithmetic.

``extract_derivation`` recovers the canonical pair from a map that obeys
the product rule on pairs of rank-s matrices: it reads the images of the
unit matrices once, checks the structural identities any genuine such map
must satisfy (raising ExtractionError naming the first one that fails), and
materializes mu either as a total table (finite fields) or by probing and
fitting (infinite fields).  A product with a unit matrix only selects a row
or a column, so each identity, A and mu are read off single entries of
those images; no matrix product or bracket is formed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import _kronecker
from .errors import (DomainError, PreconditionError, ExtractionError,
                     UsageError, guard)
from .factor import cover_rank, factor_rank_s, rank_set, second_factor_rank_s
from .fields import Field, FieldDerivation, RationalFunctionField
from .matrix import (Matrix, enumerate_rank_k, product_sum, random_rank_k,
                     rank_count_formula)

__all__ = [
    "CanonicalDerivation",
    "DeltaDomain",
    "DeltaMap",
    "apply_derivation",
    "make_delta",
    "verify_hypothesis",
    "extend_to_low_ranks",
    "extract_derivation",
    "reconstruct_full",
    "check_linear_combination",
    "HypothesisReport",
    "ExtensionResult",
    "ReconstructionReport",
]


class CanonicalDerivation:
    """The derivation x -> [A, x] + entrywise mu(x), with A normalized to a
    zero (0, 0) entry (subtracting a scalar multiple of the identity does
    not change the map)."""

    __slots__ = ("A", "mu", "_ring")

    def __init__(self, A: Matrix, mu: FieldDerivation | None = None):
        field = A.field
        if mu is None:
            mu = FieldDerivation.zero(field)
        if mu.field != field:
            raise UsageError("mu must live on the matrix entry field")
        corner = A[0, 0]
        if corner != field.zero:
            A = A - Matrix.identity(field, A.n).scaled(corner)
        self.A = A
        self.mu = mu
        self._ring = _fixed_a_ring(A)

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def field(self) -> Field:
        return self.A.field

    def __call__(self, x: Matrix) -> Matrix:
        return apply_derivation(self, x)

    def __eq__(self, other):
        return (isinstance(other, CanonicalDerivation)
                and other.A == self.A and other.mu == self.mu)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.A, self.mu))

    def __repr__(self):
        return f"<CanonicalDerivation A=[{self.A.encode()}] mu={self.mu.describe()}>"

    @classmethod
    def random(cls, field: Field, n: int, seed: int, with_dt: bool = False,
               max_degree: int = 1) -> "CanonicalDerivation":
        """Deterministic random derivation; over a function field an optional
        nonzero c*d/dt component (c drawn from the base) is included."""
        rng = random.Random(f"rankderiv.derivation|{field.spec()}|{n}|{seed}")
        if isinstance(field, RationalFunctionField):
            base = field.base
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    coeffs = [base.random_element(rng)
                              for _ in range(rng.randint(1, max_degree + 1))]
                    row.append(field.from_poly(coeffs))
                rows.append(row)
            a = Matrix(field, rows, canonicalize=False)
        else:
            a = Matrix._raw(field, [[field.random_element(rng) for _ in range(n)]
                                    for _ in range(n)])
        mu = FieldDerivation.zero(field)
        if with_dt:
            if not isinstance(field, RationalFunctionField):
                raise UsageError(f"no d/dt over {field.spec()}")
            base = field.base
            c = base.zero
            while c == base.zero:
                c = base.random_element(rng)
            mu = FieldDerivation.scaled_dt(field, field.from_poly([c]))
        return cls(a, mu)


def _fixed_a_ring(a: Matrix):
    """``(space, row tables)`` of the bracket with A when A's packed space
    interns its rows (``_packed.Space.bracket_rows``), else None; an A with
    entries that are not canonical has none, and ``_bracket`` refuses it."""
    sp = a._space()
    if sp is None or sp.intern is None:
        return None
    tables = sp.bracket_rows(a.rows)
    return None if tables is None else (sp, tables)


def apply_derivation(D: CanonicalDerivation, x: Matrix) -> Matrix:
    """A x - x A + entrywise mu(x)."""
    a = D.A
    a._check(x)
    f = a.field
    mu = D.mu
    ring = D._ring
    if ring is not None:
        sp, tables = ring
        out = Matrix._from_packed(f, sp.bracket(tables, x.rows))
    else:
        if mu.kind == "dt" and _kronecker.handles(f):
            rows = _kronecker.apply(a, x, mu.scale)
            if rows is not None:
                return Matrix._raw(f, rows)
        out = _bracket(a, x)
    if not mu.is_zero():
        out = out + Matrix._raw(f, [[mu(e) for e in row] for row in x.rows])
    return out


def _bracket(a: Matrix, x: Matrix) -> Matrix:
    """A x - x A; over a packed prime field in one pass, with one reduction
    per output row and no intermediate matrix, and over Q and Q(t) on
    integers at t = 2^B when every entry is a polynomial (``_kronecker``)."""
    f = a.field
    sp = a._space()
    if sp is not None:
        neg_a = sp.neg(a._packed_rows(sp))
        return Matrix._from_packed(
            f, sp.mul2(a.rows, x._packed_rows(sp), x.rows, neg_a))
    if _kronecker.handles(f):
        rows = _kronecker.apply(a, x)
        if rows is not None:
            return Matrix._raw(f, rows)
    return a * x - x * a


@dataclass(frozen=True)
class DeltaDomain:
    """Declared evaluation domain of a DeltaMap."""

    kind: str          # "full" | "rank-leq" | "rank-exact" | "cor31-union"
    s: int | None = None

    _KINDS = ("full", "rank-leq", "rank-exact", "cor31-union")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise UsageError(f"unknown domain kind {self.kind!r}")
        if self.kind in ("rank-leq", "rank-exact") and (self.s is None or self.s < 0):
            raise UsageError(f"domain {self.kind} needs a rank parameter")

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def rank_leq(cls, s: int):
        return cls("rank-leq", s)

    @classmethod
    def rank_exact(cls, s: int):
        return cls("rank-exact", s)

    @classmethod
    def cor31_union(cls):
        return cls("cor31-union")

    def contains(self, x: Matrix) -> bool:
        """Whether x lies in the domain; a full domain computes no rank."""
        if self.kind == "full":
            return True
        rank = x.rank()
        if self.kind == "rank-leq":
            return rank <= self.s
        if self.kind == "rank-exact":
            return rank == self.s
        return rank in rank_set(x.n)

    def ranks(self, n: int) -> list:
        """The ranks of the n x n matrices in the domain: a declared s above
        n adds none."""
        if self.kind == "full":
            return list(range(n + 1))
        if self.kind == "rank-leq":
            return list(range(min(self.s, n) + 1))
        if self.kind == "rank-exact":
            return [self.s] if self.s <= n else []
        return sorted(rank_set(n))

    def token(self) -> str:
        if self.kind in ("rank-leq", "rank-exact"):
            return f"{self.kind}({self.s})"
        return self.kind

    @classmethod
    def from_token(cls, token: str) -> "DeltaDomain":
        token = token.strip()
        if token in ("full", "cor31-union"):
            return cls(token)
        for kind in ("rank-leq", "rank-exact"):
            if token.startswith(kind + "(") and token.endswith(")"):
                return cls(kind, int(token[len(kind) + 1:-1]))
        raise UsageError(f"unknown domain token {token!r}")


class DeltaMap:
    """An evaluable matrix-to-matrix assignment with a declared domain.

    Backed either by a closure or by a finite table keyed on the input
    matrix's rows (entries are canonical, so equal matrices have equal
    rows).  Evaluation validates the argument, and its rank against the
    domain; a table lookup that hits skips the rank, since every stored
    key lies in the domain.
    """

    __slots__ = ("n", "field", "domain", "_fn", "_table")

    def __init__(self, n, field, domain, fn=None, table=None):
        """``table``: mapping of input rows to output Matrix, every input in
        ``domain`` (UsageError otherwise)."""
        if table is not None:
            table = _checked_table(domain, ((Matrix._raw(field, key), v)
                                            for key, v in table.items()))
        self.n = n
        self.field = field
        self.domain = domain
        self._fn = fn
        self._table = table

    @classmethod
    def _stored(cls, n, field, domain, table) -> "DeltaMap":
        """A table map whose keys the caller has checked against ``domain``,
        so that no key is ranked twice."""
        self = object.__new__(cls)
        self.n = n
        self.field = field
        self.domain = domain
        self._fn = None
        self._table = table
        return self

    @classmethod
    def from_function(cls, n: int, field: Field, domain: DeltaDomain, fn) -> "DeltaMap":
        return cls(n, field, domain, fn=fn)

    @classmethod
    def from_table(cls, n: int, field: Field, domain: DeltaDomain,
                   entries) -> "DeltaMap":
        """``entries``: mapping or iterable of (input Matrix, output Matrix),
        every input in ``domain`` (UsageError otherwise)."""
        items = entries.items() if hasattr(entries, "items") else entries
        return cls._stored(n, field, domain, _checked_table(domain, items))

    @property
    def is_table(self) -> bool:
        return self._table is not None

    def __call__(self, x: Matrix) -> Matrix:
        # identity check first: the common case shares one Field instance
        if (x.__class__ is not Matrix or x.field is not self.field
                or x.n != self.n):
            if not isinstance(x, Matrix) or x.field != self.field or x.n != self.n:
                raise UsageError("delta map argument has the wrong field or size")
        table = self._table
        if table is not None:
            value = table.get(x.rows)
            if value is not None:
                return value
        # a full domain contains every matrix, so it computes no rank
        if self.domain.kind != "full" and not self.domain.contains(x):
            raise self._outside(x)
        if table is not None:
            raise DomainError(f"delta table has no entry for [{x.encode()}]")
        return self._fn(x)

    def _outside(self, x: Matrix) -> DomainError:
        return DomainError(
            f"matrix of rank {x.rank()} outside delta domain {self.domain.token()}")

    def override(self, x: Matrix, value: Matrix) -> "DeltaMap":
        """A copy of this map with one value replaced; a table refuses a key
        outside its domain with the DomainError evaluating it raises."""
        key = x.rows
        if self._table is not None:
            if not self.domain.contains(x):
                raise self._outside(x)
            table = dict(self._table)
            table[key] = value
            return DeltaMap._stored(self.n, self.field, self.domain, table)
        inner = self._fn
        return DeltaMap(self.n, self.field, self.domain,
                        fn=lambda m: value if m.rows == key else inner(m))

    def __eq__(self, other):
        if not isinstance(other, DeltaMap):
            return NotImplemented
        if self._table is None or other._table is None:
            return self is other
        return (self.n == other.n and self.field == other.field
                and self.domain == other.domain
                and {k: v.rows for k, v in self._table.items()}
                == {k: v.rows for k, v in other._table.items()})

    # -- table materialization and text format --------------------------------

    _WRITE_GUARD = 500_000

    def tabulate(self) -> list:
        """All (input, output) pairs over the domain, sorted by the input's
        canonical entry order.  Finite fields only."""
        if not self.field.is_finite:
            raise UsageError("cannot tabulate a map over an infinite field")
        guard(_rank_total(self.n, self.domain.ranks(self.n), self.field.order),
              self._WRITE_GUARD, "matrices", "tabulation")
        pairs = []
        for k in self.domain.ranks(self.n):
            for x in enumerate_rank_k(self.n, k, self.field):
                pairs.append((x, self(x)))
        pairs.sort(key=lambda xv: xv[0].sort_key())
        return pairs

    def to_text(self) -> str:
        lines = [f"delta n {self.n} field {self.field.spec()} domain {self.domain.token()}"]
        fmt = self.field.format
        for x, v in self.tabulate():
            left = " ".join(fmt(e) for row in x.rows for e in row)
            right = " ".join(fmt(e) for row in v.rows for e in row)
            lines.append(f"{left} -> {right}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DeltaMap":
        import re
        from .fields import parse_field
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise UsageError("empty delta table text")
        header = lines[0][1]
        m = re.match(r"^delta\s+n\s+(\d+)\s+field\s+(\S+)\s+domain\s+(\S+)$",
                     header.strip())
        if not m:
            raise UsageError(f"bad delta table header {header!r}")
        n = int(m.group(1))
        fld = parse_field(m.group(2))
        domain = DeltaDomain.from_token(m.group(3))
        table = {}
        for lineno, ln in lines[1:]:
            halves = ln.split("->")
            if len(halves) != 2:
                raise UsageError(f"bad delta table record {ln!r}")
            def grid(tokens):
                lits = tokens.split()
                if len(lits) != n * n:
                    raise UsageError(
                        f"expected {n * n} entries per side in record {ln!r}")
                vals = [fld.parse(t) for t in lits]
                return Matrix._raw(fld, [vals[i * n:(i + 1) * n] for i in range(n)])
            x = grid(halves[0])
            if x.rows in table:
                raise UsageError(
                    f"duplicate delta table record for [{x.encode()}] on line {lineno}")
            if not domain.contains(x):
                raise UsageError(
                    f"delta table record for [{x.encode()}] on line {lineno} lies "
                    f"outside domain {domain.token()}")
            table[x.rows] = grid(halves[1])
        if fld.is_finite:
            # the keys are distinct and in the domain, so equal counts
            # mean every matrix of the domain has its record
            expected = _rank_total(n, domain.ranks(n), fld.order)
            if len(table) != expected:
                raise UsageError(
                    f"delta table has {len(table)} records, but domain "
                    f"{domain.token()} over {fld.spec()} at n={n} has "
                    f"{expected} matrices")
        return cls._stored(n, fld, domain, table)


def _checked_table(domain: DeltaDomain, items) -> dict:
    """The table of (input Matrix, output Matrix) pairs keyed on the input's
    rows; UsageError at the first input outside ``domain``."""
    table = {}
    for x, v in items:
        if not domain.contains(x):
            raise UsageError(f"delta table key [{x.encode()}] lies outside "
                             f"domain {domain.token()}")
        table[x.rows] = v
    return table


def derivation_delta(D: CanonicalDerivation,
                     domain: DeltaDomain | None = None) -> DeltaMap:
    """The DeltaMap evaluating ``apply_derivation(D, .)`` on ``domain``
    (full ring by default)."""
    if domain is None:
        domain = DeltaDomain.full()
    return DeltaMap.from_function(D.n, D.field, domain,
                                  lambda x: apply_derivation(D, x))


def make_delta(D: CanonicalDerivation, garbage_ranks=frozenset(),
               seed: int = 0) -> DeltaMap:
    """A full-domain DeltaMap equal to D everywhere except at ranks in
    ``garbage_ranks``, where values are seeded pseudo-random matrices
    (deterministic per seed and input)."""
    garbage = frozenset(garbage_ranks)
    n, fld = D.n, D.field
    if any(not 0 <= g <= n for g in garbage):
        raise UsageError(f"garbage ranks {sorted(garbage)} outside [0, {n}]")

    def fn(x: Matrix) -> Matrix:
        if x.rank() in garbage:
            rng = random.Random(
                f"rankderiv.garbage|{seed}|{fld.spec()}|{n}|{x.encode()}")
            return Matrix._raw(fld, [[fld.random_element(rng) for _ in range(n)]
                                     for _ in range(n)])
        return apply_derivation(D, x)

    return DeltaMap.from_function(n, fld, DeltaDomain.full(), fn)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

# exhaustive verification refuses to start above this many ordered pairs,
# extension and reconstruction above this many matrices
VERIFY_GUARD = 10 ** 6


def _rank_total(n: int, ranks, q: int) -> int:
    """How many n x n matrices over F_q have these ranks: what exhaustive
    paths guard on before they enumerate anything."""
    return sum(rank_count_formula(n, k, q) for k in ranks)


@dataclass(frozen=True)
class HypothesisReport:
    """Result of checking delta(xy) = delta(x) y + x delta(y) over pairs of
    rank-s matrices."""

    n: int
    s: int
    mode: str
    checked: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "pass" if self.passed else "fail"
        return (f"checked {self.checked} pairs (s={self.s}, {self.mode}): "
                f"{len(self.violations)} violation(s), {status}")


def _product_rule_violation(delta, x, y, dx=None, dy=None):
    dx = delta(x) if dx is None else dx
    dy = delta(y) if dy is None else dy
    lhs = delta(x * y)
    rhs = product_sum(dx, y, x, dy)
    return None if lhs == rhs else (x, y, lhs, rhs)


def verify_hypothesis(delta: DeltaMap, s: int, mode: str = "exhaustive",
                      count: int = 1000, seed: int | None = None,
                      pairs: str = "rank-s") -> HypothesisReport:
    """Check the product rule over pairs of rank-s matrices.

    ``mode``: "exhaustive" (finite fields) or "sampled" (requires a seed).
    ``pairs``: "rank-s" checks rank-s against rank-s; the optional "mixed"
    mode instead checks rank <= 1 against rank <= s in both orders (a
    consequence for genuine derivation data, re-verified rather than
    assumed).  Evaluation errors outside the map's domain propagate; they
    are never swallowed.  Exhaustive mode counts its pairs with
    ``rank_count_formula`` first and raises ResourceLimitError, before
    enumerating anything, when they exceed ``VERIFY_GUARD``.
    """
    n, fld = delta.n, delta.field
    if pairs not in ("rank-s", "mixed"):
        raise UsageError(f"unknown pair selection {pairs!r}")
    violations = []
    if mode == "exhaustive":
        if not fld.is_finite:
            raise UsageError("exhaustive verification needs a finite field")
        q = fld.order
        if pairs == "rank-s":
            total = rank_count_formula(n, s, q) ** 2
        else:
            total = 2 * _rank_total(n, (0, 1), q) * _rank_total(n, range(s + 1), q)
        guard(total, VERIFY_GUARD, "pairs", "exhaustive verification",
              "; use sampled verification instead")
        if pairs == "rank-s":
            xs = list(enumerate_rank_k(n, s, fld))
            ys = xs
        else:
            xs = [m for k in (0, 1) for m in enumerate_rank_k(n, k, fld)]
            ys = [m for k in range(s + 1) for m in enumerate_rank_k(n, k, fld)]
        xvals = [delta(x) for x in xs]
        yvals = xvals if ys is xs else [delta(y) for y in ys]
        checked = 0
        for i, x in enumerate(xs):
            dx = xvals[i]
            for j, y in enumerate(ys):
                v = _product_rule_violation(delta, x, y, dx, yvals[j])
                checked += 1
                if v is not None:
                    violations.append(v)
                if pairs == "mixed":
                    v = _product_rule_violation(delta, y, x, yvals[j], dx)
                    checked += 1
                    if v is not None:
                        violations.append(v)
        tag = "exhaustive" if pairs == "rank-s" else "exhaustive-mixed"
        return HypothesisReport(n, s, tag, checked, tuple(violations))
    if mode != "sampled":
        raise UsageError(f"unknown verification mode {mode!r}")
    if seed is None:
        raise UsageError("sampled verification requires a seed")
    rng = random.Random(f"rankderiv.verify|{fld.spec()}|{n}|{s}|{pairs}|{seed}")
    checked = 0
    for _ in range(count):
        if pairs == "rank-s":
            kx = ky = s
        else:
            kx = rng.randint(0, 1)
            ky = rng.randint(0, s)
        x = random_rank_k(n, kx, fld, seed=rng.randrange(2 ** 63))
        y = random_rank_k(n, ky, fld, seed=rng.randrange(2 ** 63))
        if pairs == "mixed" and rng.random() < 0.5:
            x, y = y, x
        v = _product_rule_violation(delta, x, y)
        checked += 1
        if v is not None:
            violations.append(v)
    tag = f"sampled({count})" if pairs == "rank-s" else f"sampled-mixed({count})"
    return HypothesisReport(n, s, tag, checked, tuple(violations))


def check_linear_combination(d1: DeltaMap, d2: DeltaMap, l1, l2, s: int,
                             mode: str = "exhaustive", count: int = 1000,
                             seed: int | None = None) -> HypothesisReport:
    """Verify the product rule for the pointwise combination l1*d1 + l2*d2
    (the maps satisfying the hypothesis form a vector space)."""
    if d1.n != d2.n or d1.field != d2.field:
        raise UsageError("cannot combine delta maps over different rings")
    fld = d1.field
    l1 = fld.canonical(l1)
    l2 = fld.canonical(l2)
    combo = DeltaMap.from_function(
        d1.n, fld, d1.domain,
        lambda x: d1(x).scaled(l1) + d2(x).scaled(l2))
    return verify_hypothesis(combo, s, mode=mode, count=count, seed=seed)


# ---------------------------------------------------------------------------
# extension to lower ranks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionResult:
    delta: DeltaMap
    inconsistencies: tuple

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies


def extend_to_low_ranks(delta: DeltaMap, s: int | None = None) -> ExtensionResult:
    """Extend a map given on rank-s matrices to all ranks < s via
    delta(y) := delta(y1) y2 + y1 delta(y2) with y = y1 y2 a rank-s
    factorization.  Each extended value is recomputed from a second,
    independent factorization; disagreements are reported per matrix
    (they signal the input does not obey the product rule).  Refused with
    ResourceLimitError above ``VERIFY_GUARD`` matrices of rank <= s."""
    if s is None:
        if delta.domain.kind != "rank-exact":
            raise UsageError("extend_to_low_ranks needs a rank-exact domain or s")
        s = delta.domain.s
    n, fld = delta.n, delta.field
    if not (1 <= s and 2 * s <= n):
        raise PreconditionError(f"need 1 <= s <= n/2, got s={s}, n={n}")
    if not fld.is_finite:
        raise UsageError("extension tabulates the domain; needs a finite field")
    guard(_rank_total(n, range(s + 1), fld.order), VERIFY_GUARD, "matrices",
          "exhaustive extension")
    table = {}
    for x in enumerate_rank_k(n, s, fld):
        table[x] = delta(x)
    inconsistencies = []
    for k in range(s):
        for y in enumerate_rank_k(n, k, fld):
            f1 = factor_rank_s(y, s)
            v1 = product_sum(delta(f1.y1), f1.y2, f1.y1, delta(f1.y2))
            f2 = second_factor_rank_s(y, s)
            v2 = product_sum(delta(f2.y1), f2.y2, f2.y1, delta(f2.y2))
            if v1 != v2:
                inconsistencies.append(y)
            table[y] = v1
    ext = DeltaMap.from_table(n, fld, DeltaDomain.rank_leq(s), table)
    return ExtensionResult(ext, tuple(inconsistencies))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def extract_derivation(delta: DeltaMap, s: int, probes=()) -> CanonicalDerivation:
    """Recover the canonical pair (A, mu) from a map obeying the product
    rule on rank-s pairs; needs the map only on matrices of rank <= 1.

    Raises ExtractionError naming the first structural identity that fails
    (which certifies the input is not such a map).  Over a function field
    every mu is c d/dt, which vanishes wherever d/dt does, so ``probes`` must
    hold an element with a nonzero derivative (t will do); PreconditionError
    is raised otherwise.
    """
    n, fld = delta.n, delta.field
    if not (n >= 2 and 1 <= s and 2 * s <= n):
        raise PreconditionError(f"need n >= 2 and 1 <= s <= n/2, got n={n}, s={s}")
    if isinstance(fld, RationalFunctionField) and all(
            fld.derivative(fld.canonical(p)) == fld.zero for p in probes):
        raise PreconditionError(
            f"no probe has a nonzero derivative, so mu over {fld.spec()} is "
            f"undetermined; probe an element such as t")
    units = [[Matrix.unit(fld, n, i, j) for j in range(n)] for i in range(n)]
    zero = fld.zero

    def image(x):
        # delta(x), checked as an operand of a product with x would be
        d = delta(x)
        x._check(d)
        return d

    d_diag = [delta(units[i][i]) for i in range(n)]
    for i in range(n):
        units[i][i]._check(d_diag[i])
        d = d_diag[i].rows
        # d = e_ii d + d e_ii: zero off row and column i; d_ii = 2 d_ii
        if any(d[r][c] != zero for r in range(n) for c in range(n)
               if (r == i) == (c == i)):
            raise ExtractionError(
                "idempotent-image",
                f"delta(e_{i}{i}) is not of the sandwich form required by "
                f"the product rule at (e_{i}{i}, e_{i}{i})")
    for i in range(n):
        for j in range(n):
            # with the images sandwiched, only (i, j) can be nonzero
            if i != j and fld.add(d_diag[j][i, j], d_diag[i][i, j]) != zero:
                raise ExtractionError(
                    "orthogonal-idempotents",
                    f"e_{i}{i} delta(e_{j}{j}) + delta(e_{i}{i}) e_{j}{j} != 0")

    lam = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = d_diag[i] if i == j else image(units[i][j])
            lam[i][j] = d[i, j]
    for i in range(n):
        if lam[i][i] != fld.zero:
            raise ExtractionError("lambda-diagonal", f"lambda_{i}{i} != 0")
    for i in range(n):
        for j in range(n):
            if lam[i][j] != fld.neg(lam[j][i]):
                raise ExtractionError(
                    "lambda-antisymmetry", f"lambda_{i}{j} != -lambda_{j}{i}")
            for k in range(n):
                if lam[i][k] != fld.add(lam[i][j], lam[j][k]):
                    raise ExtractionError(
                        "lambda-cocycle",
                        f"lambda_{i}{k} != lambda_{i}{j} + lambda_{j}{k}")

    # column c of A is column c of delta(e_cc) (zero at (c, c)), plus
    # lambda_c0 at (c, c)
    a = Matrix._raw(fld, [[lam[r][0] if r == c else d_diag[c][r, c]
                           for c in range(n)] for r in range(n)])

    def mu_value(elem):
        # [A, elem e_00] is zero at (0, 0): the field is commutative
        return image(units[0][0].scaled(elem))[0, 0]

    if fld.is_finite:
        mu = FieldDerivation.from_table(fld, {e: mu_value(e) for e in fld.elements()})
    else:
        vals = {}
        for probe in probes:
            probe = fld.canonical(probe)
            vals[probe] = mu_value(probe)
        if all(v == fld.zero for v in vals.values()):
            mu = FieldDerivation.zero(fld)
        elif isinstance(fld, RationalFunctionField):
            probe = next(p for p in vals if fld.derivative(p) != fld.zero)
            scale = fld.div(vals[probe], fld.derivative(probe))
            if all(v == fld.mul(scale, fld.derivative(p)) for p, v in vals.items()):
                mu = FieldDerivation.scaled_dt(fld, scale)
            else:
                mu = FieldDerivation.from_probes(fld, vals)
        else:
            mu = FieldDerivation.from_probes(fld, vals)

    return CanonicalDerivation(a, mu)


# ---------------------------------------------------------------------------
# full-ring reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    derivation: CanonicalDerivation
    checked: int
    failures: tuple   # (matrix, rank, reason)
    gap_ranks: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "fail"
        return (f"checked {self.checked} matrices, gap ranks "
                f"{list(self.gap_ranks)}: {len(self.failures)} failure(s), {status}")


def reconstruct_full(delta: DeltaMap, n: int, probes=(), count: int = 1000,
                     seed: int | None = None) -> ReconstructionReport:
    """Extract a derivation from delta at the minimum cover rank, then check
    delta against it on the full ring: gap ranks additionally get the
    product-rule factorization check delta(z) = delta(z1) z2 + z1 delta(z2).

    Exhaustive over finite fields (refused with ResourceLimitError, before
    extracting, above ``VERIFY_GUARD`` matrices); sampled (``count``
    points, seed required, refused before extracting without one)
    otherwise."""
    if delta.n != n:
        raise UsageError(f"delta is over n={delta.n}, not n={n}")
    fld = delta.field
    ranks = rank_set(n)
    s_min = ranks[-1]
    if s_min < 1:
        raise PreconditionError(
            f"rank set {ranks} has minimum 0 (n = 2^m - 1); the covering "
            f"construction does not apply at n={n}")
    if fld.is_finite:
        guard(_rank_total(n, range(n + 1), fld.order), VERIFY_GUARD, "matrices",
              "exhaustive reconstruction")
    elif seed is None:
        raise UsageError("sampled reconstruction requires a seed")
    derivation = extract_derivation(delta, s_min, probes=probes)
    member = set(ranks)
    gaps = tuple(k for k in range(s_min + 1, n)
                 if k not in member)
    failures = []
    checked = 0

    def check(z: Matrix):
        nonlocal checked
        checked += 1
        r = z.rank()
        dz = delta(z)
        if r in gaps:
            f = factor_rank_s(z, cover_rank(n, r))
            if dz != product_sum(delta(f.y1), f.y2, f.y1, delta(f.y2)):
                failures.append((z, r, "product-rule"))
                return
        if dz != apply_derivation(derivation, z):
            failures.append((z, r, "mismatch"))

    if fld.is_finite:
        for k in range(n + 1):
            for z in enumerate_rank_k(n, k, fld):
                check(z)
    else:
        rng = random.Random(f"rankderiv.reconstruct|{fld.spec()}|{n}|{seed}")
        for _ in range(count):
            k = rng.randint(0, n)
            check(random_rank_k(n, k, fld, seed=rng.randrange(2 ** 63)))

    return ReconstructionReport(derivation, checked, tuple(failures), gaps)
