"""Dense exact square matrices over the fields in ``rankderiv.fields``.

Matrices are immutable; ``rank()`` and ``rank_normal_form()`` cache their
result on the instance, so enumeration streams can be shared freely across
verification loops.

This module alone chooses how a matrix is stored; ``_packed`` and
``_kronecker`` hold the two formats.  The other modules reach them only
through ``Matrix``, ``product_sum``, ``bracket_map`` (the derivation
bracket), ``masked`` (the factor masks) and ``RankDomain`` (the keys of
the exhaustive pair loops); ``factor.py``'s F_2 branch of
``adapted_factor`` alone works on packed rows itself.

Prime-field matrices are packed when their (p, n) allows it (``_packed``,
which states the slot bound, the row interning and the fixed-factor
tables): each row is also held as one Python int, cached in ``_fastrep``
on first use.  Sums, products, the rank and the F_2 rank normal form work
on packed rows; ``product_sum`` forms a b + c d, the right side of the
product rule, in one pass, and ``masked`` makes factors from packed rows,
so they are never packed again.  Where the space interns its rows,
``bracket_map`` and ``RankDomain`` read tables of their fixed factor, and
a bracket is held as its whole-matrix key (``_held``).  Other
prime-field matrices, and the odd-p rank normal form and every nullspace,
use the generic elimination below with ``PrimeField`` operations.

Over Q, Q(t) and F_p(t) a matrix with polynomial entries has an integer
form (``_kronecker``, which states how it is held, read and compared),
cached in ``_fastrep``; products and ``bracket_map``'s bracket return a
matrix that holds only the form (``_held``).  An entry of a held matrix,
form or key, is read without decoding it.  ``unit`` and ``scaled`` record
known ranks.  The rank over Q and Q(t) is an integer rank; over F_p(t) it
is generic.  A matrix only ever meets the fast paths of its own field, so
the slot holds one kind of value per field.  Other fields, and the rank
normal form and nullspace over Q, Q(t) and F_p(t), use the generic
elimination below: one forward pass, ``_echelon``, whose steps give the
rank, the reduced echelon form (normalized and back-substituted) and the
rank normal form.  Every path has the same pivoting rule (first nonzero
entry in column order), so outputs do not depend on the representation.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from . import _kronecker, _packed
from .errors import PreconditionError, UsageError
from .fields import Field, FieldDerivation, PrimeField

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
    def _raw(cls, field: Field, rows, packed=None) -> "Matrix":
        """Internal constructor: entries already canonical, no validation.
        A tuple of row tuples, as every packed operation returns, is kept as
        it stands; ``packed``: the packed rows, when the operation has them."""
        self = object.__new__(cls)
        self.field = field
        self.n = len(rows)
        self.rows = rows if rows.__class__ is tuple else tuple(map(tuple, rows))
        self._rank = None
        self._rnf = None
        self._fastrep = packed
        return self

    @classmethod
    def _held(cls, field: Field, n, form, sp=None, key=None) -> "Matrix":
        """Internal constructor of a ``_HeldMatrix``: from an n x n integer
        form (``_kronecker``), or from the whole-matrix key
        (``_packed.Space.key``) in the packed space ``sp``, which interns its
        rows, with ``form`` None.  Its rows are decoded when first read."""
        self = object.__new__(_HeldMatrix)
        _ROWS.__set__(self, None)
        self.field = field
        self.n = n
        self._sp = sp
        self._key = key
        self._rank = None
        self._rnf = None
        self._fastrep = form
        return self

    @classmethod
    def zero(cls, field: Field, n: int) -> "Matrix":
        return cls.diag_ones(field, n, ())

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.diag_ones(field, n, range(n))

    @classmethod
    def unit(cls, field: Field, n: int, i: int, j: int) -> "Matrix":
        """The matrix with a single 1 at (i, j), 0-based."""
        rows = [[field.zero] * n for _ in range(n)]
        rows[i][j] = field.one
        m = cls._raw(field, rows)
        m._rank = 1
        return m

    @classmethod
    def diag_ones(cls, field: Field, n: int, indices) -> "Matrix":
        """Sum of unit matrices e_ii over the given 0-based indices."""
        z, o = field.zero, field.one
        rows = [[z] * n for _ in range(n)]
        for i in indices:
            rows[i][i] = o
        return cls._raw(field, rows)

    # -- plumbing ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not (isinstance(other, Matrix)
                and (other.field is self.field or other.field == self.field)):
            return False
        if self.__class__ is _HeldMatrix and other.__class__ is _HeldMatrix:
            # one field holds one kind: a form over Q, Q(t) and F_p(t), a key
            # over F_p.  Keys are unique within one ring, and the F_2 zero
            # matrices of every n have key 0
            if self._sp is None:
                return _kronecker.equal(self.field, self._fastrep, other._fastrep)
            return self._key == other._key and other.n == self.n
        return other.rows == self.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"<Matrix {self.n}x{self.n} over {self.field.spec()} [{self.encode()}]>"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for row in self.rows for e in row)

    # -- ring arithmetic -----------------------------------------------------

    def _check(self, other):
        """UsageError unless ``other`` is a matrix of this one's ring."""
        # identity check first: the common case shares one Field instance
        if (other.__class__ is Matrix and other.field is self.field
                and other.n == self.n):
            return
        if not isinstance(other, Matrix):
            raise UsageError(f"expected a Matrix, got {type(other).__name__}")
        if other.field != self.field:
            raise UsageError(
                f"field mismatch: {self.field.spec()} vs {other.field.spec()}")
        if other.n != self.n:
            raise UsageError(f"dimension mismatch: {self.n} vs {other.n}")

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
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, minus):
        """self + other, or with ``minus`` self - other: packed, the sum with
        other's slots negated (``_packed.Space.neg``)."""
        self._check(other)
        f = self.field
        sp = self._space()
        if sp is not None:
            b = other._packed_rows(sp)
            rows, packed = sp.add(self._packed_rows(sp), sp.neg(b) if minus else b)
            return Matrix._raw(f, rows, packed)
        op = f.sub if minus else f.add
        return Matrix._raw(f, [[op(a, b) for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        self._check(other)
        f = self.field
        sp = self._space()
        if sp is not None:
            self._packed_rows(sp)   # checks the entries ``mul`` reads unpacked
            rows, packed = sp.mul(self.rows, other._packed_rows(sp))
            return Matrix._raw(f, rows, packed)
        if _kronecker.handles(f):
            ra, rb = _kronecker.rep(self), _kronecker.rep(other)
            if ra and rb:
                return Matrix._held(f, self.n, _kronecker.product(f, ra, rb))
        return Matrix._raw(f, _gen_mul(self.rows, other.rows, f))

    def __neg__(self):
        f = self.field
        return Matrix._raw(f, [[f.neg(e) for e in row] for row in self.rows])

    def scaled(self, c) -> "Matrix":
        f = self.field
        c = f.canonical(c)
        m = Matrix._raw(f, [[f.mul(c, e) for e in row] for row in self.rows])
        m._rank = self._rank if c != f.zero else 0
        return m

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.field, list(zip(*self.rows)))

    # -- rank machinery ------------------------------------------------------

    def rank(self) -> int:
        if self._rank is None:
            sp = self._space()
            if sp is not None:
                self._rank = sp.rank(self._packed_rows(sp))
            elif _kronecker.ranks(self.field):
                self._rank = _kronecker.rank(self)
            else:
                self._rank = _gen_rank(self.rows, self.field)
        return self._rank

    def rank_normal_form(self) -> "RankNormalForm":
        """Invertible P, Q and k with P * J_k * Q equal to this matrix."""
        if self._rnf is None:
            f = self.field
            sp = self._space()
            if sp is not None and sp.p == 2:
                (P, pp), k, (Q, qp) = sp.rnf2(self._packed_rows(sp))
                P, Q = Matrix._raw(f, P, pp), Matrix._raw(f, Q, qp)
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
        """Single-line row-major canonical encoding, as the text formats
        and messages write a matrix."""
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
        if n < 1:
            raise UsageError("matrix must be square with n >= 1")
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


_ROWS = Matrix.rows    # the slot that a _HeldMatrix fills on first read, None until then


class _HeldMatrix(Matrix):
    """A matrix held as its integer form (``_kronecker``) in ``_fastrep``,
    or as its whole-matrix key (``_packed.Space.key``) in ``_key`` with its
    packed space in ``_sp``; its rows, and a key's packed rows in
    ``_fastrep``, are decoded when first read, but an entry is read off the
    form or the key alone.  ``hash`` decodes the rows, as the matrix built
    from them hashes them.  The lazy rows live here, not in a
    ``__getattr__`` on ``Matrix``, which would slow every attribute read of
    every matrix."""

    __slots__ = ("_sp", "_key")

    @property
    def rows(self):
        rows = _ROWS.__get__(self)
        if rows is None:
            sp = self._sp
            rows = (_kronecker.decode(self.field, self._fastrep) if sp is None
                    else sp.unkey(self._key))
            _ROWS.__set__(self, rows)
        return rows

    def __getitem__(self, ij):
        i, j = ij
        n = self.n
        if _ROWS.__get__(self) is not None or i not in range(n) or j not in range(n):
            return self.rows[i][j]
        if self._sp is None:
            return _kronecker.entry(self.field, self._fastrep, i, j)
        # the key's slot n i + j (``_packed.Space.key``)
        return self._key >> 8 * (n * i + j) & 1 if self._sp.p == 2 else self._key[n * i + j]

    def _packed_rows(self, sp) -> tuple:
        rep = self._fastrep
        if rep is None:
            rep = self._fastrep = self._sp.unkey(self._key, packed=True)
        return rep


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
    rows, packed = sp.mul2(a.rows, b._packed_rows(sp), c.rows, d._packed_rows(sp))
    return Matrix._raw(a.field, rows, packed)


def bracket_map(a: Matrix, mu: FieldDerivation):
    """The map x -> A x - x A + mu(x), mu applied entrywise, with what every
    bracket with A reuses resolved once, here:

    * A packed space that interns its rows (p^n <= ``_packed.INTERN_ROWS``)
      brackets by the fixed-factor tables of A (``Space.bracket_rows``): n
      lookups on x's packed rows, which are cached, one sum and one
      reduction.  The tables are made here and an entry is filled on the
      first lookup of its row, so a map applied to m matrices holds at most
      n m entries, never more than n p^n (49,152 at F_2, n = 12), and they
      die with it.  An entry costs about one row of ``product_sum``'s pass,
      so the tables pay off as rows recur among the matrices one map
      brackets.  The sum is the whole-matrix key of [A, x], and the result
      holds only that (``_held``).
    * Over Q, Q(t) and F_p(t), with polynomial entries, [A, x] and c dx/dt
      for a polynomial c are one raw integer form (``_kronecker``); c is
      cleared and A's values are kept here, for at most two (B, L).
    * Every other bracket is ``product_sum(A, x, x, -A)``: over a packed
      prime field one pass with one reduction per row.  -A is made when a
      bracket first needs it.

    A nonzero mu that is not folded in is added entrywise after the
    bracket.  An A or x whose entries are not canonical residues is refused
    when it is bracketed, as every packed operation refuses it.
    """
    f, n = a.field, a.n
    minus = None    # -A, once a bracket needs it

    def generic(x):
        nonlocal minus
        if minus is None:
            minus = -a
        return product_sum(a, x, x, minus)

    def plus_mu(out, x):
        if mu.is_zero():
            return out
        return out + Matrix._raw(f, [[mu(e) for e in row] for row in x.rows])

    if _kronecker.handles(f):
        dt = _kronecker.scale(f, mu.scale) if mu.kind == "dt" else None
        memo = {}    # A's values and packed rows at 2^B, by (B, L)

        def apply(x):
            form = _kronecker.apply(a, x, dt, memo)
            if form is None:
                return plus_mu(generic(x), x)
            out = Matrix._held(f, n, form)
            # a folded c d/dt is in the form already
            return out if dt is not None else plus_mu(out, x)
        return apply
    sp = a._space()
    tables = None if sp is None else sp.bracket_rows(a.rows)
    if tables is None:
        return lambda x: plus_mu(generic(x), x)

    def keyed(x):
        return Matrix._held(f, n, None, sp, sp.product_key(x._packed_rows(sp), tables))
    if not mu.is_zero():
        return lambda x: plus_mu(keyed(x), x)
    return keyed


def masked(m: Matrix, rows=None, cols=None) -> Matrix:
    """``m`` with the rows outside ``rows`` and the columns outside ``cols``
    zeroed (None keeps them all): ``m`` between two ``Matrix.diag_ones``.
    Packed rows are masked as they stand, the columns with a byte mask, so
    a factor of a packed matrix is never packed again."""
    sp = m._space()
    if sp is not None:
        packed = m._packed_rows(sp)
        if cols is not None:
            mask = sp.slots(cols)
            packed = tuple([r & mask for r in packed])
        if rows is not None:
            packed = tuple([r if i in rows else 0 for i, r in enumerate(packed)])
        out, packed = sp.decode(packed)
        return Matrix._raw(m.field, out, packed)
    z = m.field.zero
    out = m.rows
    if cols is not None:
        keep = [j in cols for j in range(m.n)]
        out = [[e if k else z for e, k in zip(row, keep)] for row in out]
    if rows is not None:
        zero_row = (z,) * m.n
        out = [row if i in rows else zero_row for i, row in enumerate(out)]
    return Matrix._raw(m.field, out)


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


def rank_total(n: int, ranks, q: int) -> int:
    """How many n x n matrices over F_q have these ranks: what exhaustive
    paths guard on before they enumerate anything."""
    return sum(rank_count_formula(n, k, q) for k in ranks)


# ---------------------------------------------------------------------------
# enumeration and sampling by rank
# ---------------------------------------------------------------------------

def enumerate_rank_k(n: int, k: int, field: Field):
    """Yield every rank-k matrix of M_n over a finite field exactly once,
    in lexicographic row-major entry order, with its rank recorded.

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
            m = Matrix._raw(field, chosen)
            m._rank = k
            yield m
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


_FOREIGN = object()    # stands for a value that is no canonical matrix of the ring


class RankDomain:
    """The n x n matrices of these ranks over a finite field, rank by rank in
    ``enumerate_rank_k`` order, as a sequence, with the place of each
    product of two of them (``product``) and the product rule on them
    (``product_rule``) read off whole-matrix keys.

    In a packed space that interns its rows (p^n <= ``_packed.INTERN_ROWS``,
    which holds wherever the exhaustive guards admit s >= 1 at n >= 2) the
    key of a matrix is ``Space.key`` of its packed rows.  Each matrix M has
    n fixed-factor tables, row a of X M from X's row a, filled on first
    lookup, so the key of X M is n lookups, one sum and one reduction
    (``_packed.Space.product_key``), the tables ``bracket_map`` uses with
    no extra term.  No ``Matrix`` is built per pair.  Elsewhere the key of
    a matrix is its rows and products are ``Matrix`` arithmetic.  The
    tables live as long as the domain.
    """

    __slots__ = ("n", "field", "matrices", "index", "_space", "_rows", "_tables")

    def __init__(self, n: int, ranks, field: Field):
        self.n = n
        self.field = field
        self.matrices = [m for k in ranks for m in enumerate_rank_k(n, k, field)]
        sp = _packed.space(field.p, n)
        if sp is None or sp.intern is None:
            self._space = self._rows = self._tables = None
            self.index = {m.rows: i for i, m in enumerate(self.matrices)}
            return
        self._space = sp
        self._rows = [m._packed_rows(sp) for m in self.matrices]
        self._tables = [sp.row_products(r) for r in self._rows]
        self.index = {sp.key(r): i for i, r in enumerate(self._rows)}

    def __len__(self):
        return len(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def product(self, i: int, j: int) -> int:
        """The place of the product of the matrices at places i and j, which
        must lie in the domain (KeyError otherwise)."""
        sp = self._space
        if sp is None:
            return self.index[(self.matrices[i] * self.matrices[j]).rows]
        return self.index[sp.product_key(self._rows[i], self._tables[j])]

    def product_rule(self, values):
        """``holds(a, b, k)``: whether values[k] = values[a] y + x values[b]
        for x, y at places a, b and k the place of x y.  ``values`` is read
        at a, b and k when ``holds`` is called, and each value is keyed once.

        A values[k] that is no canonical matrix of the ring fails the rule.
        A values[a] or values[b] that is none, and every value where the
        domain has no keyed space, goes through ``product_sum``, which
        refuses a foreign value as ``Matrix`` arithmetic does (UsageError).
        A value held as its key (``bracket_map``) is keyed by that key as it
        stands, and its packed rows are read off it.
        """
        m = self.matrices
        sp = self._space
        n, field = self.n, self.field
        rows, tables = self._rows, self._tables
        lhs = [None] * len(m)      # key of values[k]
        left = [None] * len(m)     # packed rows of values[a]
        right = [None] * len(m)    # row-product tables of values[b]

        def ring(v):
            return (isinstance(v, Matrix) and v.n == n
                    and (v.field is field or v.field == field))

        def packed(v):
            if sp is None or not ring(v):
                return _FOREIGN
            try:
                return v._packed_rows(sp)
            except UsageError:
                return _FOREIGN

        def key(v):
            if v.__class__ is _HeldMatrix and ring(v):
                return v._key
            rows = packed(v)
            return rows if rows is _FOREIGN else sp.key(rows)

        def holds(a, b, k):
            dx = left[a]
            if dx is None:
                dx = left[a] = packed(values[a])
            dy = right[b]
            if dy is None:
                dy = packed(values[b])
                dy = right[b] = dy if dy is _FOREIGN else sp.row_products(dy)
            if dx is _FOREIGN or dy is _FOREIGN:
                return values[k] == product_sum(values[a], m[b], m[a], values[b])
            got = lhs[k]
            if got is None:
                got = lhs[k] = key(values[k])
            return got == sp.rule_key(dx, tables[b], rows[a], dy)
        return holds


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
    # over Q and Q(t) the factors' integer forms give their ranks and the
    # product; random elements there are polynomials, so the forms exist
    kron = _kronecker.ranks(field)
    while True:
        u = [[field.random_element(rng) for _ in range(k)] for _ in range(n)]
        v = [[field.random_element(rng) for _ in range(n)] for _ in range(k)]
        if kron:
            ru, rv = _kronecker.clear(field, u), _kronecker.clear(field, v)
            if _kronecker.int_rank(ru) == k and _kronecker.int_rank(rv) == k:
                return Matrix._held(field, n, _kronecker.product(field, ru, rv))
        elif _gen_rank(u, field) == k and _gen_rank(v, field) == k:
            return Matrix._raw(field, _gen_mul(u, v, field))
