"""Packed rows for square matrices over small prime fields.

A row of canonical residues mod p is one Python int that holds entry j in
byte j, ``int.from_bytes(bytes(row), "little")``.  Adding two rows, or a
small multiple of one row to another, is then a single integer operation
on all n entries, as long as no byte (a "slot") overflows into the next.

* Over F_2 addition is XOR, so slots never carry and every n packs: sums,
  differences and products are XORs of selected rows (the row-bitset
  arithmetic of M4RI).
* Over an odd p slot sums are left unreduced, and each result row is
  reduced once, through the 256-byte ``bytes.translate`` table of v -> v % p
  (the delayed reduction of FFLAS-FFPACK).  The largest unreduced slot sum
  is the one of ``mul2``'s a b + c d, with b canonical and the slots of d
  at most p: n (p-1) (p-1) + n (p-1) p = n (p-1) (2p-1).  Both the product
  rule's delta(x) y + x delta(y) and the bracket A x - x A, as
  A x + x (-A) with ``neg``, are such sums, so a (p, n) packs only when
  that bound is at most 255: F_3 up to n = 25, F_5 up to n = 7,
  F_7 up to n = 3, F_11 at n = 1.  Every other (p, n) has no packed space,
  and its matrices use the generic elimination of ``matrix.py``.

Arithmetic returns ``(rows, packed)``: the decoded rows as tuples of ints,
and the packed rows, or None where they are left to be packed on demand.
Decoded rows are interned per (p, n) when there are at most
``INTERN_ROWS`` distinct rows, so equal rows share one tuple and the
interned table also packs rows by lookup.  Rank normal forms are packed
over F_2 only; they return P and Q with their packed rows, and the factors
built from them (``factor.py``) zero columns with a byte mask and rows with
a 0, in every packed space, so no factor is packed twice.

A space that interns its rows also brackets with a fixed A by table
lookup (``bracket_rows``, ``bracket``): [A, x] = sum_i T_i[x_i], where
T_i[r] = [A, E_i(r)] and E_i(r) is the matrix whose row i is r and whose
other rows are zero.  Each entry is one int of n^2 slots, row k in slots
n k .. n k + n - 1.  Over F_2 the sum is an XOR.  Over an odd p an entry
is left unreduced, A E_i(r) + E_i(r) (-A) with -A's slots in [1, p], so
the n entries of a bracket sum to A x + x (-A) slot by slot: at most
n (p-1) (p-1) + n (p-1) p, the bound of ``mul2`` that ``fits`` imposes,
and the sum is reduced and decoded once.  The tables are filled on first
lookup and are owned by the derivation that built them
(``derivations.CanonicalDerivation``); at most n p^n entries, 49,152 at
F_2, n = 12, the most of any space.  A's rows are checked and packed once,
when its tables are made, and an entry is built from them with a few
integer operations (``BracketRows``), about one row of ``mul2``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import mul, or_, xor

from .errors import UsageError

__all__ = ["Space", "space"]

SLOT = 255
# q^n bound on the per-(p, n) intern table of decoded rows
INTERN_ROWS = 4096


def fits(p: int, n: int) -> bool:
    """Whether every slot sum of every packed operation stays within a byte:
    the largest is ``mul2``'s, n (p-1) (p-1) + n (p-1) p."""
    return p == 2 or n * (p - 1) * (2 * p - 1) <= SLOT


@lru_cache(maxsize=128)
def space(p: int, n: int):
    """The packed space of n x n matrices over F_p, or None if it does not fit."""
    return Space(p, n) if fits(p, n) else None


class Space:
    """Packed arithmetic on n x n matrices over F_p for one packing (p, n)."""

    __slots__ = ("p", "n", "ones", "mod", "intern", "packed")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.ones = int.from_bytes(b"\x01" * n, "little")
        self.mod = bytes(v % p for v in range(256))
        # F_2 rows are interned by their packed int, odd-p rows by their
        # reduced bytes; ``packed`` maps each interned row to its packed int
        self.intern = self.packed = None
        if p ** n <= INTERN_ROWS:
            rows = list(itertools.product(range(p), repeat=n))
            self.packed = {r: int.from_bytes(bytes(r), "little") for r in rows}
            key = self.packed.__getitem__ if p == 2 else bytes
            self.intern = {key(r): r for r in rows}

    def pack(self, rows) -> tuple:
        """Packed rows of rows of canonical residues; other entries, which
        only ``Matrix(..., canonicalize=False)`` lets through, are refused."""
        packed = self.packed
        if packed is not None:
            try:
                return tuple(map(packed.__getitem__, rows))
            except KeyError:
                pass
        elif all(0 <= v < self.p for r in rows for v in r):
            return tuple([int.from_bytes(bytes(r), "little") for r in rows])
        raise UsageError(f"matrix entries are not canonical residues mod {self.p}")

    def slots(self, indices) -> int:
        """The mask of the slots at ``indices``: AND-ing a packed row with it
        zeroes every other entry."""
        mask = 0
        for j in indices:
            mask |= SLOT << (8 * j)
        return mask

    # -- decoding -------------------------------------------------------------

    def decode(self, packed):
        """``(rows, packed)`` of packed rows of canonical residues."""
        if self.p == 2:
            return self._bits(packed), packed
        n, intern = self.n, self.intern
        raw = [r.to_bytes(n, "little") for r in packed]
        return (tuple(map(intern.__getitem__, raw)) if intern is not None
                else tuple(map(tuple, raw))), packed

    def _bits(self, packed):
        """Rows of F_2 packed rows."""
        intern = self.intern
        if intern is not None:
            return tuple(map(intern.__getitem__, packed))
        n = self.n
        return tuple(tuple(r.to_bytes(n, "little")) for r in packed)

    def _reduce(self, sums):
        """Rows of unreduced odd-p slot sums."""
        n, mod, intern = self.n, self.mod, self.intern
        reduced = [s.to_bytes(n, "little").translate(mod) for s in sums]
        if intern is not None:
            return tuple(map(intern.__getitem__, reduced)), None
        return tuple(map(tuple, reduced)), None

    # -- ring arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            packed = tuple(map(xor, a, b))
            return self._bits(packed), packed
        return self._reduce([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        if self.p == 2:
            return self.add(a, b)
        # p - y is in [1, p] in every slot, so nothing borrows
        pones = self.p * self.ones
        return self._reduce([x + pones - y for x, y in zip(a, b)])

    def mul(self, a_rows, b):
        """Product of the matrix with rows ``a_rows`` and packed rows ``b``."""
        if self.p == 2:
            packed = tuple([reduce(xor, itertools.compress(b, ra), 0) for ra in a_rows])
            return self._bits(packed), packed
        return self._reduce([sum(map(mul, ra, b)) for ra in a_rows])

    def neg(self, packed):
        """Packed rows of -M with every slot p - v in [1, p], so nothing
        borrows; over F_2 -M is M.  Only ``mul2``'s d takes such slots."""
        if self.p == 2:
            return packed
        pones = self.p * self.ones
        return [pones - r for r in packed]

    def mul2(self, a_rows, b, c_rows, d):
        """a b + c d in one pass, one reduction per output row: ``a_rows`` and
        ``c_rows`` are rows, ``b`` canonical packed rows and ``d`` packed rows
        with slots at most p (canonical, or from ``neg``)."""
        compress = itertools.compress
        if self.p == 2:
            packed = tuple([reduce(xor, compress(b, ra), 0)
                            ^ reduce(xor, compress(d, rc), 0)
                            for ra, rc in zip(a_rows, c_rows)])
            return self._bits(packed), packed
        return self._reduce([sum(map(mul, ra, b)) + sum(map(mul, rc, d))
                             for ra, rc in zip(a_rows, c_rows)])

    # -- the bracket with a fixed A ------------------------------------------------

    def bracket_rows(self, a_rows):
        """The row tables T_0 .. T_{n-1} of [A, .] for the matrix with rows
        ``a_rows``, empty until looked up (``BracketRows``), or None when
        A's entries are not canonical residues.  Only a space that interns
        its rows has them."""
        try:
            a_packed = self.pack(a_rows)
        except UsageError:
            return None
        n = self.n
        # row i of T_i[r] holds -r A, summed from -A's slots in [1, p]
        minus = a_packed if self.p == 2 else tuple(self.neg(a_packed))
        # A_ki moved from slot n k + i to slot n k, for every k
        a = int.from_bytes(bytes(itertools.chain.from_iterable(a_rows)), "little")
        first = int.from_bytes((b"\xff" + bytes(n - 1)) * n, "little")
        return tuple([BracketRows(self, minus, a >> 8 * i & first, 8 * n * i)
                      for i in range(n)])

    def bracket(self, tables, x_rows):
        """``(rows, packed)`` of [A, x] = sum_i T_i[x_i] for the row tables
        ``tables`` of A.  Over F_2 the sum is an XOR.  Over an odd p it is
        A x + x (-A) unreduced, within the bound of ``mul2`` that ``fits``
        imposes, and is reduced once."""
        n = self.n
        if self.p == 2:
            total = reduce(xor, map(dict.__getitem__, tables, x_rows))
            mask = (1 << 8 * n) - 1
            packed = tuple([total >> shift & mask for shift in range(0, 8 * n * n, 8 * n)])
            return self._bits(packed), packed
        raw = sum(map(dict.__getitem__, tables, x_rows)).to_bytes(
            n * n, "little").translate(self.mod)
        intern = self.intern
        return tuple([intern[raw[k:k + n]] for k in range(0, n * n, n)]), None

    # -- elimination ------------------------------------------------------------

    def rank(self, packed) -> int:
        if self.p == 2:
            # each kept row is reduced by all earlier ones, so it has none of
            # their lowest bits set
            basis = []
            for r in packed:
                for low, b in basis:
                    if r & low:
                        r ^= b
                if r:
                    basis.append((r & -r, r))
            return len(basis)
        # basis rows are normalized to 1 at their pivot slot; a row reduced
        # by at most n of them keeps slots below (p-1) + n (p-1)^2 <= 255,
        # so it is reduced mod p once, after its last step
        p, n, mod = self.p, self.n, self.mod
        basis = []
        for r in packed:
            for shift, b in basis:
                v = (r >> shift & SLOT) % p
                if v:
                    r += (p - v) * b
            r = int.from_bytes(r.to_bytes(n, "little").translate(mod), "little")
            if r:
                shift = ((r & -r).bit_length() - 1) & ~7
                inv = pow(r >> shift & SLOT, -1, p)
                if inv != 1:
                    r = int.from_bytes((r * inv).to_bytes(n, "little").translate(mod),
                                       "little")
                basis.append((shift, r))
        return len(basis)

    def nullspace2(self, packed) -> list:
        """``mat_nullspace`` over F_2 of the rows ``packed``, any number of
        them: one kernel vector per free column, ascending, packed."""
        # the reduced row echelon form is unique, so any Gauss-Jordan order
        # gives the basis of the list kernels.  A new pivot row is reduced
        # by the older ones and then cleared from them; an older row that
        # holds its pivot bit has its own pivot further left, so every
        # pivot stays the lowest set bit of its row
        pivots = []   # (pivot bit, fully reduced row)
        for r in packed:
            for low, b in pivots:
                if r & low:
                    r ^= b
            if r:
                low = r & -r
                pivots = [(pl, b ^ r if b & low else b) for pl, b in pivots]
                pivots.append((low, r))
        pivot_bits = sum(low for low, _ in pivots)
        basis = []
        for free in range(self.n):
            bit = 1 << (8 * free)
            if not pivot_bits & bit:
                basis.append(bit | sum(low for low, b in pivots if b & bit))
        return basis

    def rnf2(self, packed):
        """Rank normal form over F_2: ``(P, k, Q)`` with P and Q as
        ``(rows, packed)``, equal to ``mat_rnf`` of the list kernels.

        Same pivot rule: at step r the pivot column is the first one that
        is nonzero in a row at or below r (the lowest set bit of their OR),
        and the pivot row the first such row.  ``mat_rnf`` swaps the pivot
        into place (r, r) and clears its column and the pivot row.  Here no
        column moves, and only the rows below that hold the pivot bit are
        XOR-ed with the pivot row: rows at and below r are zero left of the
        pivot column, so the rows left over match ``mat_rnf``'s, and so do
        the later pivots, which lie further right.  The transforms follow:

        * Q row r is the pivot row as it stands at step r.  ``mat_rnf``
          makes it the sum of the Q rows at the pivot row's entries, which
          all lie right of every earlier pivot column, where no swap has
          yet moved a unit row of Q.  Q rows from k on are the unit rows
          left by the swaps.
        * Column r of P has a 1 in the pivot row's original row and in
          every row XOR-ed at step r; columns from k on are unit columns at
          the original rows left in places k, k+1, ...  Each remaining row
          carries its original index and the bits of the steps that
          XOR-ed it, so P comes out by rows.
        """
        n = self.n
        units = [1 << (8 * i) for i in range(n)]
        rest = [[row, t, 0] for t, row in enumerate(packed)]   # row, original index, P bits
        q = units[:]
        p = [0] * n
        r = 0
        below = reduce(or_, packed)
        while below:
            bit = below & -below
            pi = 0
            while not rest[pi][0] & bit:
                pi += 1
            mr, t, c = rest[pi]
            rbit = units[r]
            p[t] = c | rbit
            # mat_rnf swaps rows r and r + pi
            head = rest.pop(0)
            if pi:
                rest[pi - 1] = head
            pj = (bit.bit_length() - 1) >> 3
            q[pj] = q[r]
            q[r] = mr
            below = 0
            for rec in rest:
                row = rec[0]
                if row & bit:
                    row ^= mr
                    rec[0] = row
                    rec[2] |= rbit
                below |= row
            r += 1
        for pos, (_, t, c) in enumerate(rest, r):
            p[t] = c | units[pos]
        p, q = tuple(p), tuple(q)
        return (self._bits(p), p), r, (self._bits(q), q)


class BracketRows(dict):
    """T_i of a fixed A: row r -> [A, E_i(r)] as one int of n^2 slots,
    built on the first lookup of r, so a derivation applied to m matrices
    holds at most n m entries and never more than n p^n (49,152 at F_2,
    n = 12).  An entry costs a handful of integer operations: the product
    of r's packed row with ``column`` (A_ki in slot n k, so row k is A_ki r
    with no carry) plus, shifted to row i, the sum of the rows of ``minus``
    that r selects (-r A, unreduced over an odd p)."""

    __slots__ = ("space", "minus", "column", "shift")

    def __init__(self, space, minus, column, shift):
        self.space = space
        self.minus = minus
        self.column = column
        self.shift = shift

    def __missing__(self, r):
        sp = self.space
        try:
            rp = sp.packed[r]
        except KeyError:
            raise UsageError(
                f"matrix entries are not canonical residues mod {sp.p}") from None
        if sp.p == 2:
            entry = rp * self.column ^ (
                reduce(xor, itertools.compress(self.minus, r), 0) << self.shift)
        else:
            entry = rp * self.column + (sum(map(mul, r, self.minus)) << self.shift)
        self[r] = entry
        return entry
