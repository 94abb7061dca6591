"""Dense exact square matrices over the fields in ``rankderiv.fields``.

Matrices are immutable; ``rank()`` and ``rank_normal_form()`` cache their
result on the instance, so enumeration streams can be shared freely across
verification loops.

Prime-field matrices are packed when their (p, n) allows it (``_packed``):
each row is also held as one Python int with entry j in byte j, cached in
``_fastrep`` on first use.  Over F_2 sums and products are XORs of selected
rows and the rank and rank normal form use XOR elimination; the rank normal
form's P and Q come with their packed rows, and ``factor.py`` builds the
factors from them with a byte mask or zeroed rows, so they are never
packed again.  Over an odd p byte-wise sums are reduced mod p once per
result row.  ``product_sum`` forms a b + c d, the right side of the
product rule, in one such pass.  Packing needs every unreduced byte sum to
stay below 256.  The largest one is that of a b + c d, n (p-1) (2p-1), so
F_2 packs at every n, F_3 up to n = 25, F_5 up to n = 7 and F_7 up to
n = 3.  Other prime-field matrices, and the odd-p rank normal form and
every nullspace, use the generic elimination below with ``PrimeField``
operations.

Over Q and Q(t) the rank is the integer rank of the matrix cleared to
integer polynomials and evaluated at t = 2^B (``_kronecker``); a matrix
with polynomial entries caches its cleared form in ``_fastrep``, which
``apply_derivation`` reuses.  A matrix only ever meets the fast paths of
its own field, so the slot holds one kind of value per field.  Other
fields, and the rank normal form and nullspace over Q and Q(t), use the
generic elimination below: one forward pass, ``_echelon``, whose steps
give the rank, the reduced echelon form (normalized and back-substituted)
and the rank normal form.  Every path has the same pivoting rule (first
nonzero entry in column order), so outputs do not depend on the
representation.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from . import _kronecker, _packed
from .errors import PreconditionError, UsageError
from .fields import Field, PrimeField

__all__ = [
    "Matrix",
    "RankNormalForm",
    "mat_arith",
    "enumerate_rank_k",
    "enumerate_all",
    "random_rank_k",
    "rank_count_formula",
]


class Matrix:
    """An exact n x n matrix; entries are canonical values of ``field``."""

    __slots__ = ("field", "n", "rows", "_rank", "_rnf", "_fastrep")

    def __init__(self, field: Field, rows, canonicalize: bool = True):
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise UsageError("matrix must be square with n >= 1")
        if canonicalize:
            rows = tuple(tuple(field.canonical(e) for e in r) for r in rows)
        else:
            rows = tuple(map(tuple, rows))
        self.field = field
        self.n = n
        self.rows = rows
        self._rank = None
        self._rnf = None
        self._fastrep = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, field: Field, rows) -> "Matrix":
        """Internal constructor: entries already canonical, no validation."""
        self = object.__new__(cls)
        self.field = field
        self.n = len(rows)
        self.rows = tuple(map(tuple, rows))
        self._rank = None
        self._rnf = None
        self._fastrep = None
        return self

    @classmethod
    def _from_packed(cls, field: Field, result) -> "Matrix":
        """Internal constructor from a packed operation's ``(rows, packed)``."""
        self = object.__new__(cls)
        self.field = field
        self.rows, self._fastrep = result
        self.n = len(self.rows)
        self._rank = None
        self._rnf = None
        return self

    @classmethod
    def zero(cls, field: Field, n: int) -> "Matrix":
        z = field.zero
        return cls._raw(field, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._raw(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, field: Field, n: int, i: int, j: int) -> "Matrix":
        """The matrix with a single 1 at (i, j), 0-based."""
        z = field.zero
        rows = [[z] * n for _ in range(n)]
        rows[i][j] = field.one
        return cls._raw(field, rows)

    @classmethod
    def diag_ones(cls, field: Field, n: int, indices) -> "Matrix":
        """Sum of unit matrices e_ii over the given 0-based indices."""
        z, o = field.zero, field.one
        rows = [[z] * n for _ in range(n)]
        for i in indices:
            rows[i][i] = o
        return cls._raw(field, rows)

    # -- plumbing ------------------------------------------------------------

    def _require_compatible(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise UsageError(f"expected a Matrix, got {type(other).__name__}")
        if other.field != self.field:
            raise UsageError(
                f"field mismatch: {self.field.spec()} vs {other.field.spec()}")
        if other.n != self.n:
            raise UsageError(f"dimension mismatch: {self.n} vs {other.n}")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (other.field is self.field or other.field == self.field)
                and other.rows == self.rows)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"<Matrix {self.n}x{self.n} over {self.field.spec()} [{self.encode()}]>"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for row in self.rows for e in row)

    # -- ring arithmetic -----------------------------------------------------

    def _check(self, other):
        # identity check first: the common case shares one Field instance
        if (other.__class__ is not Matrix or other.field is not self.field
                or other.n != self.n):
            self._require_compatible(other)

    def _space(self):
        """The packed space of this matrix's ring, or None (see ``_packed``)."""
        f = self.field
        return _packed.space(f.p, self.n) if isinstance(f, PrimeField) else None

    def _packed_rows(self, sp) -> tuple:
        """Packed rows in the space ``sp`` of this matrix, cached in ``_fastrep``."""
        rep = self._fastrep
        if rep is None:
            rep = self._fastrep = sp.pack(self.rows)
        return rep

    def __add__(self, other):
        self._check(other)
        f = self.field
        sp = self._space()
        if sp is not None:
            return Matrix._from_packed(f, sp.add(self._packed_rows(sp),
                                                  other._packed_rows(sp)))
        return Matrix._raw(f, [
            [f.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        self._check(other)
        f = self.field
        sp = self._space()
        if sp is not None:
            return Matrix._from_packed(f, sp.sub(self._packed_rows(sp),
                                                  other._packed_rows(sp)))
        return Matrix._raw(f, [
            [f.sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __mul__(self, other):
        self._check(other)
        f = self.field
        sp = self._space()
        if sp is not None:
            self._packed_rows(sp)   # checks the entries ``mul`` reads unpacked
            return Matrix._from_packed(f, sp.mul(self.rows, other._packed_rows(sp)))
        return Matrix._raw(f, _gen_mul(self.rows, other.rows, f))

    def __neg__(self):
        f = self.field
        return Matrix._raw(f, [[f.neg(e) for e in row] for row in self.rows])

    def scaled(self, c) -> "Matrix":
        f = self.field
        c = f.canonical(c)
        return Matrix._raw(f, [[f.mul(c, e) for e in row] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.field, list(zip(*self.rows)))

    # -- rank machinery ------------------------------------------------------

    def rank(self) -> int:
        if self._rank is None:
            sp = self._space()
            if sp is not None:
                self._rank = sp.rank(self._packed_rows(sp))
            elif _kronecker.handles(self.field):
                self._rank = _kronecker.rank(self.field, self.rows, _kronecker.rep(self))
            else:
                self._rank = _gen_rank(self.rows, self.field)
        return self._rank

    def rank_normal_form(self) -> "RankNormalForm":
        """Invertible P, Q and k with P * J_k * Q equal to this matrix."""
        if self._rnf is None:
            f = self.field
            sp = self._space()
            if sp is not None and sp.p == 2:
                P, k, Q = sp.rnf2(self._packed_rows(sp))
                P, Q = Matrix._from_packed(f, P), Matrix._from_packed(f, Q)
            else:
                P, k, Q = _gen_rnf(self.rows, f)
                P, Q = Matrix._raw(f, P), Matrix._raw(f, Q)
            self._rnf = RankNormalForm(P, k, Q)
            if self._rank is None:
                self._rank = k
        return self._rnf

    def nullspace(self) -> list:
        """Basis of {v : M v = 0} as column tuples, reduced echelon convention."""
        return [tuple(v) for v in _gen_nullspace(self.rows, self.field)]

    # -- text format ---------------------------------------------------------

    def encode(self) -> str:
        """Single-line row-major canonical encoding (used as table keys)."""
        f = self.field
        return " ".join(f.format(e) for row in self.rows for e in row)

    def sort_key(self):
        f = self.field
        return tuple(f.sort_key(e) for row in self.rows for e in row)

    def to_text(self) -> str:
        f = self.field
        lines = [f"n {self.n} field {f.spec()}"]
        lines.extend(" ".join(f.format(e) for e in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise UsageError("empty matrix text")
        m = re.match(r"^n\s+(\d+)\s+field\s+(\S+)$", lines[0].strip())
        if not m:
            raise UsageError(f"bad matrix header {lines[0]!r}")
        n = int(m.group(1))
        from .fields import parse_field
        field = parse_field(m.group(2))
        if len(lines) != n + 1:
            raise UsageError(f"expected {n} matrix rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            lits = ln.split()
            if len(lits) != n:
                raise UsageError(f"expected {n} entries per row, got {len(lits)}")
            rows.append([field.parse(lit) for lit in lits])
        return cls._raw(field, rows)


@dataclass(frozen=True)
class RankNormalForm:
    """P * J_k * Q = M with P, Q invertible and J_k = sum of the first k e_ii."""

    P: Matrix
    k: int
    Q: Matrix

    def j_matrix(self) -> Matrix:
        return Matrix.diag_ones(self.P.field, self.P.n, range(self.k))

    def recompose(self) -> Matrix:
        return self.P * self.j_matrix() * self.Q


def mat_arith(a: Matrix, b: Matrix, op: str) -> Matrix:
    """Ring arithmetic by op name: ``add``, ``sub`` or ``mul``."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise UsageError(f"unknown matrix op {op!r}")


def product_sum(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """a b + c d, with the checks of ``a * b + c * d``; over a packed prime
    field in one pass with one reduction per output row (``Space.mul2``)."""
    a._check(b)
    c._check(d)
    a._check(c)
    sp = a._space()
    if sp is None:
        return a * b + c * d
    # packing checks the entries ``mul2`` reads unpacked
    a._packed_rows(sp)
    c._packed_rows(sp)
    return Matrix._from_packed(a.field, sp.mul2(a.rows, b._packed_rows(sp),
                                                c.rows, d._packed_rows(sp)))


# ---------------------------------------------------------------------------
# generic (any-field) elimination on raw row lists; rectangular allowed
# ---------------------------------------------------------------------------

def _gen_mul(a, b, field):
    zero = field.zero
    mul, add = field.mul, field.add
    cols = len(b[0])
    inner = len(b)
    out = []
    for ra in a:
        row = [zero] * cols
        for k in range(inner):
            aik = ra[k]
            if aik == zero:
                continue
            bk = b[k]
            if aik == field.one:
                for j in range(cols):
                    if bk[j] != zero:
                        row[j] = add(row[j], bk[j])
            else:
                for j in range(cols):
                    if bk[j] != zero:
                        row[j] = add(row[j], mul(aik, bk[j]))
        out.append(row)
    return out


def _echelon(rows, field):
    """Forward elimination of ``rows``, any shape: ``(steps, order)``.

    Step r pivots on the first column that is nonzero in a row at or below
    place r and on the first such row, swaps it into place r and clears the
    column below it; the pivot row is not normalized and no later step
    touches it.  Each step is ``(col, row, column)``: the pivot column, the
    pivot row and the column's nonzero entries from place r down, as
    ``(original row, value)``.  ``order`` is the original row at each place.
    """
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    order = list(range(nr))
    zero, mul, sub = field.zero, field.mul, field.sub
    steps = []
    for col in range(nc):
        r = piv = len(steps)
        while piv < nr and m[piv][col] == zero:
            piv += 1
        if piv == nr:
            continue
        m[r], m[piv] = m[piv], m[r]
        order[r], order[piv] = order[piv], order[r]
        rp = m[r]
        column = [(order[r], rp[col])]
        inv = field.inv(rp[col])
        for i in range(r + 1, nr):
            ri = m[i]
            c = ri[col]
            if c != zero:
                column.append((order[i], c))
                f = mul(c, inv)
                ri[col] = zero
                for j in range(col + 1, nc):
                    if rp[j] != zero:
                        ri[j] = sub(ri[j], mul(f, rp[j]))
        steps.append((col, rp, column))
    return steps, order


def _gen_rank(rows, field):
    return len(_echelon(rows, field)[0])


def _normalized(row, col, field):
    inv = field.inv(row[col])
    return row if inv == field.one else [field.mul(e, inv) for e in row]


def _gen_rref(rows, field):
    """Reduced row echelon form: ``(rows, pivot columns)``, zero rows last."""
    nc = len(rows[0]) if rows else 0
    zero, mul, sub = field.zero, field.mul, field.sub
    m, pivots = [], []
    for col, row, _ in _echelon(rows, field)[0]:
        row = _normalized(row, col, field)
        # clear col from the rows above; row is zero at their pivots
        for ri in m:
            c = ri[col]
            if c != zero:
                for j in range(col, nc):
                    if row[j] != zero:
                        ri[j] = sub(ri[j], mul(c, row[j]))
        m.append(row)
        pivots.append(col)
    m.extend([zero] * nc for _ in range(len(rows) - len(m)))
    return m, pivots


def _gen_nullspace(rows, field):
    m, pivots = _gen_rref(rows, field)
    nc = len(rows[0]) if len(rows) else 0
    pivot_set = set(pivots)
    zero, one = field.zero, field.one
    basis = []
    for free in range(nc):
        if free in pivot_set:
            continue
        v = [zero] * nc
        v[free] = one
        for r, col in enumerate(pivots):
            v[col] = field.neg(m[r][free])
        basis.append(v)
    return basis


def _gen_rnf(rows, field):
    """``mat_rnf`` read off ``_echelon``, as ``_packed.Space.rnf2`` does over
    F_2.  Column r < k of P is step r's column at the original rows and row
    r of Q its pivot row, normalized; from k on P and Q hold the unit
    columns and rows that ``mat_rnf``'s swaps leave in those places."""
    n = len(rows)
    zero, one = field.zero, field.one
    steps, order = _echelon(rows, field)
    P = [[zero] * n for _ in range(n)]
    Q = [[zero] * n for _ in range(n)]
    places = list(range(n))     # the original column at each place
    for r, (col, row, column) in enumerate(steps):
        for t, v in column:
            P[t][r] = v
        Q[r] = _normalized(row, col, field)
        j = places.index(col)
        places[r], places[j] = col, places[r]
    for r in range(len(steps), n):
        P[order[r]][r] = one
        Q[r][places[r]] = one
    return P, len(steps), Q


def _rank_rows(rows, field):
    if _kronecker.handles(field):
        return _kronecker.rank(field, rows)
    return _gen_rank(rows, field)


def rank_count_formula(n: int, k: int, q: int) -> int:
    """Number of n x n rank-k matrices over F_q by the q-binomial product
    formula: C_q(n,k)^2 * |GL_k(F_q)|."""
    if not 0 <= k <= n:
        raise PreconditionError(f"rank {k} out of range for n={n}")
    binom = 1
    for i in range(k):
        binom = binom * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    gl = 1
    for i in range(k):
        gl *= q ** k - q ** i
    return binom * binom * gl


# ---------------------------------------------------------------------------
# enumeration and sampling by rank
# ---------------------------------------------------------------------------

def enumerate_rank_k(n: int, k: int, field: Field):
    """Yield every rank-k matrix of M_n over a finite field exactly once,
    in lexicographic row-major entry order.

    Implemented as a depth-first scan over rows that keeps the span of the
    rows chosen so far as a set of at most q^k row tuples: a row is dependent
    exactly when it lies in the span.  Prefixes that cannot reach rank k are
    pruned, so the cost scales with the output count rather than q^(n*n).
    """
    if not field.is_finite:
        raise UsageError(f"cannot enumerate matrices over infinite field {field.spec()}")
    if n < 1:
        raise PreconditionError(f"matrix dimension must be >= 1, got n={n}")
    if not 0 <= k <= n:
        raise PreconditionError(f"rank {k} out of range for n={n}")
    p = field.p
    vectors = list(itertools.product(range(p), repeat=n))

    def rec(level, chosen, span, r):
        if level == n:
            yield Matrix._raw(field, chosen)
            return
        remaining = n - level - 1
        for v in vectors:
            if v in span:
                if r + remaining < k:
                    continue
                yield from rec(level + 1, chosen + [v], span, r)
            else:
                if r + 1 > k:
                    continue
                # the span after the last row is never read
                grown = {tuple((a + c * b) % p for a, b in zip(u, v))
                         for u in span for c in range(p)} if remaining else span
                yield from rec(level + 1, chosen + [v], grown, r + 1)

    yield from rec(0, [], {(0,) * n}, 0)


def enumerate_all(n: int, field: Field):
    """Yield every matrix of M_n over a finite field in lexicographic order."""
    if not field.is_finite:
        raise UsageError(f"cannot enumerate matrices over infinite field {field.spec()}")
    for flat in itertools.product(range(field.p), repeat=n * n):
        yield Matrix._raw(field, [flat[i * n:(i + 1) * n] for i in range(n)])


def random_rank_k(n: int, k: int, field: Field, seed: int) -> Matrix:
    """Deterministic seeded random matrix of exact rank k.

    Built as a product of full-rank n x k and k x n factors, re-drawing until
    both factor ranks verify (the product then has rank exactly k).
    """
    if not 0 <= k <= n:
        raise PreconditionError(f"rank {k} out of range for n={n}")
    if k == 0:
        return Matrix.zero(field, n)
    rng = random.Random(f"rankderiv.random_rank_k|{field.spec()}|{n}|{k}|{seed}")
    while True:
        u = [[field.random_element(rng) for _ in range(k)] for _ in range(n)]
        v = [[field.random_element(rng) for _ in range(n)] for _ in range(k)]
        if _rank_rows(u, field) == k and _rank_rows(v, field) == k:
            return Matrix._raw(field, _gen_mul(u, v, field))
