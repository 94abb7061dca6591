"""Derivation-style maps on matrix rings: application, verification,
extension, extraction, and full-ring reconstruction.

A ``CanonicalDerivation`` is a pair (A, mu): the map
``x -> A x - x A + entrywise mu(x)``.  A ``DeltaMap`` is any evaluable
matrix-to-matrix assignment with a declared domain (full ring, rank <= s,
rank exactly s, or the sparse cover-rank union); evaluating outside the
domain raises DomainError.  A table's keys are checked against its domain
once, when the table is stored (``from_table``, ``from_text``,
``override``), so a lookup that finds its key computes no rank; extension
keys its table on the matrices it enumerates, unchecked.
Over a finite field ``from_text`` also refuses a table that leaves out a
matrix of its domain.

The exhaustive paths count their matrices with ``matrix.rank_total`` and
refuse past their guard before enumerating anything; ``enumerate_rank_k``
records each rank, so no matrix is ranked again.  Exhaustive verification
holds one ``matrix.RankDomain``, of ranks 0..s for rank-s pairs and
0..max(s, 1) for mixed ones, which holds every factor and product, and
evaluates delta at most once per matrix of it.  It compares whole-matrix
keys of delta(xy) and delta(x) y + x delta(y) and builds a ``Matrix`` only
for the violations it reports.

A ``CanonicalDerivation`` resolves its bracket once, when it is built
(``matrix.bracket_map``, where the representation of A and x is chosen),
and ``apply_derivation`` checks x against A and calls it.

``extract_derivation`` recovers the canonical pair from a map that obeys
the product rule on pairs of rank-s matrices: it reads the images of the
unit matrices once, checks the structural identities any genuine such map
must satisfy (raising ExtractionError naming the first one that fails), and
reads mu off delta(c e_00): at every c over a finite field (a total table)
and at c = t over a function field (mu(t) d/dt); over Q mu is zero.  A
product with a unit matrix only selects a row or a column, so each
identity, A and mu are read off single entries of those images; no matrix
product or bracket is formed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (DomainError, PreconditionError, ExtractionError,
                     UsageError, guard)
from .factor import cover_rank, factor_rank_s, rank_set, second_factor_rank_s
from .fields import Field, FieldDerivation, RationalFunctionField
from .matrix import (Matrix, RankDomain, bracket_map, enumerate_rank_k, product_sum,
                     random_rank_k, rank_count_formula, rank_total)

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

    __slots__ = ("A", "mu", "_apply")

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
        self._apply = bracket_map(A, mu)

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

    def __hash__(self):
        return hash((self.A, self.mu))

    def __repr__(self):
        return f"<CanonicalDerivation A=[{self.A.encode()}] mu={self.mu.describe()}>"

    @classmethod
    def random(cls, field: Field, n: int, seed: int,
               with_dt: bool = False) -> "CanonicalDerivation":
        """Deterministic random derivation; over a function field A has entries
        of degree <= 1 and an optional nonzero c*d/dt (c from the base)."""
        rng = random.Random(f"rankderiv.derivation|{field.spec()}|{n}|{seed}")
        if isinstance(field, RationalFunctionField):
            base = field.base
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    coeffs = [base.random_element(rng)
                              for _ in range(rng.randint(1, 2))]
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


def apply_derivation(D: CanonicalDerivation, x: Matrix) -> Matrix:
    """A x - x A + entrywise mu(x)."""
    D.A._check(x)
    return D._apply(x)


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
        return self.kind == "full" or x.rank() in self.ranks(x.n)

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
                try:
                    s = int(token[len(kind) + 1:-1])
                except ValueError:
                    break
                return cls(kind, s)
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

    def __init__(self, n, field, domain, fn):
        self.n = n
        self.field = field
        self.domain = domain
        self._fn = fn
        self._table = None

    @classmethod
    def _stored(cls, n, field, domain, table) -> "DeltaMap":
        """A table map whose keys the caller has checked against ``domain``,
        so that no key is ranked twice."""
        self = cls(n, field, domain, None)
        self._table = table
        return self

    @classmethod
    def from_function(cls, n: int, field: Field, domain: DeltaDomain, fn) -> "DeltaMap":
        return cls(n, field, domain, fn)

    @classmethod
    def from_table(cls, n: int, field: Field, domain: DeltaDomain,
                   entries) -> "DeltaMap":
        """``entries``: mapping or iterable of (input Matrix, output Matrix),
        every input in ``domain`` (UsageError otherwise)."""
        table = {}
        for x, v in entries.items() if hasattr(entries, "items") else entries:
            if not domain.contains(x):
                raise UsageError(f"delta table key [{x.encode()}] lies outside "
                                 f"domain {domain.token()}")
            table[x.rows] = v
        return cls._stored(n, field, domain, table)

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
                        lambda m: value if m.rows == key else inner(m))

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
        guard(rank_total(self.n, self.domain.ranks(self.n), self.field.order),
              self._WRITE_GUARD, "matrices", "tabulation")
        pairs = [(x, self(x)) for k in self.domain.ranks(self.n)
                 for x in enumerate_rank_k(self.n, k, self.field)]
        pairs.sort(key=lambda xv: xv[0].sort_key())
        return pairs

    def to_text(self) -> str:
        lines = [f"delta n {self.n} field {self.field.spec()} domain {self.domain.token()}"]
        for x, v in self.tabulate():
            lines.append(f"{x.encode()} -> {v.encode()}")
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
        if n < 1:
            raise UsageError("matrix must be square with n >= 1")
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
            expected = rank_total(n, domain.ranks(n), fld.order)
            if len(table) != expected:
                raise UsageError(
                    f"delta table has {len(table)} records, but domain "
                    f"{domain.token()} over {fld.spec()} at n={n} has "
                    f"{expected} matrices")
        return cls._stored(n, fld, domain, table)


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
        if garbage and x.rank() in garbage:
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


def verify_hypothesis(delta: DeltaMap, s: int, mode: str = "exhaustive",
                      count: int = 1000, seed: int | None = None,
                      pairs: str = "rank-s") -> HypothesisReport:
    """Check the product rule over pairs of rank-s matrices.

    ``mode``: "exhaustive" (finite fields) or "sampled" (``count`` >= 1
    pairs; requires a seed).
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
            total = 2 * rank_total(n, (0, 1), q) * rank_total(n, range(s + 1), q)
        guard(total, VERIFY_GUARD, "pairs", "exhaustive verification",
              "; use sampled verification instead")
        # products of rank-s pairs have rank <= s; mixed pairs also need rank 1
        domain = RankDomain(n, range((s if pairs == "rank-s" else max(s, 1)) + 1), fld)
        if pairs == "rank-s":
            xs = ys = [i for i, m in enumerate(domain) if m.rank() == s]
        else:
            xs = [i for i, m in enumerate(domain) if m.rank() <= 1]
            ys = [i for i, m in enumerate(domain) if m.rank() <= s]
        # delta is read on the x side, the y side, then at each product's first pair
        values = [None] * len(domain)
        for i in xs + ys:
            if values[i] is None:
                values[i] = delta(domain[i])
        holds = domain.product_rule(values)
        for i in xs:
            for j in ys:
                for a, b in ((i, j), (j, i)) if pairs == "mixed" else ((i, j),):
                    k = domain.product(a, b)
                    if values[k] is None:
                        values[k] = delta(domain[k])
                    if not holds(a, b, k):
                        x, y = domain[a], domain[b]
                        violations.append((x, y, values[k],
                                           product_sum(values[a], y, x, values[b])))
        checked = len(xs) * len(ys) * (1 if pairs == "rank-s" else 2)
        tag = "exhaustive" if pairs == "rank-s" else "exhaustive-mixed"
        return HypothesisReport(n, s, tag, checked, tuple(violations))
    if mode != "sampled":
        raise UsageError(f"unknown verification mode {mode!r}")
    if seed is None:
        raise UsageError("sampled verification requires a seed")
    if count < 1:
        raise UsageError(f"sampled verification needs a count >= 1, got {count}")
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
        dx, dy = delta(x), delta(y)
        lhs = delta(x * y)
        rhs = product_sum(dx, y, x, dy)
        checked += 1
        if lhs != rhs:
            violations.append((x, y, lhs, rhs))
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
    guard(rank_total(n, range(s + 1), fld.order), VERIFY_GUARD, "matrices",
          "exhaustive extension")
    table = {}
    for x in enumerate_rank_k(n, s, fld):
        table[x.rows] = delta(x)
    inconsistencies = []
    for k in range(s):
        for y in enumerate_rank_k(n, k, fld):
            f1 = factor_rank_s(y, s)
            v1 = product_sum(delta(f1.y1), f1.y2, f1.y1, delta(f1.y2))
            f2 = second_factor_rank_s(y, s)
            v2 = product_sum(delta(f2.y1), f2.y2, f2.y1, delta(f2.y2))
            if v1 != v2:
                inconsistencies.append(y)
            table[y.rows] = v1
    ext = DeltaMap._stored(n, fld, DeltaDomain.rank_leq(s), table)
    return ExtensionResult(ext, tuple(inconsistencies))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def extract_derivation(delta: DeltaMap, s: int, probes=()) -> CanonicalDerivation:
    """Recover the canonical pair (A, mu) from a map obeying the product
    rule on rank-s pairs; needs the map only on matrices of rank <= 1.

    Raises ExtractionError naming the first structural identity that fails
    (which certifies the input is not such a map).  mu(c) is entry (0, 0)
    of delta(c e_00): read at every c over F_p, giving a table; at c = t
    over Q(t) and F_p(t), where a derivation is mu(t) d/dt; nowhere over Q,
    where it is zero.  Over an infinite field delta is also read at each of
    ``probes``; if one disagrees with mu, the result's mu is the probe table.
    """
    n, fld = delta.n, delta.field
    if not (n >= 2 and 1 <= s and 2 * s <= n):
        raise PreconditionError(f"need n >= 2 and 1 <= s <= n/2, got n={n}, s={s}")
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
        if isinstance(fld, RationalFunctionField):
            t = fld.gen
            mu = FieldDerivation.scaled_dt(fld, vals[t] if t in vals else mu_value(t))
        else:
            mu = FieldDerivation.zero(fld)
        if any(mu(p) != v for p, v in vals.items()):
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


def reconstruct_full(delta: DeltaMap, count: int = 1000,
                     seed: int | None = None) -> ReconstructionReport:
    """Extract a derivation from delta at the minimum cover rank, then check
    delta against it on the full ring: gap ranks additionally get the
    product-rule factorization check delta(z) = delta(z1) z2 + z1 delta(z2).

    Exhaustive over finite fields (refused with ResourceLimitError, before
    extracting, above ``VERIFY_GUARD`` matrices); sampled otherwise, at
    ``count`` >= 1 points with a seed, refused before extracting without
    them."""
    n, fld = delta.n, delta.field
    ranks = rank_set(n)
    s_min = ranks[-1]
    if s_min < 1:
        raise PreconditionError(
            f"rank set {ranks} has minimum 0 (n = 2^m - 1); the covering "
            f"construction does not apply at n={n}")
    if fld.is_finite:
        guard(rank_total(n, range(n + 1), fld.order), VERIFY_GUARD, "matrices",
              "exhaustive reconstruction")
    elif seed is None:
        raise UsageError("sampled reconstruction requires a seed")
    elif count < 1:
        raise UsageError(f"sampled reconstruction needs a count >= 1, got {count}")
    derivation = extract_derivation(delta, s_min)
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
