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
  at most p: n (p-1) (p-1) + n (p-1) p = n (p-1) (2p-1).  The product
  rule's delta(x) y + x delta(y) is such a sum, and so is the bracket,
  by the tables below, whose -A has slots in [1, p] (``neg``), or, past
  the intern bound, as ``matrix.product_sum(A, x, x, -A)`` with -A
  canonical.  So a (p, n) packs only when that bound is at most 255:
  F_3 up to n = 25, F_5 up to n = 7, F_7 up to n = 3, F_11 at n = 1.
  Every other (p, n) has no packed space, and its matrices use the generic
  elimination of ``matrix.py``.

Arithmetic returns ``(rows, packed)``: the decoded rows as tuples of ints,
and the packed rows, or None where they are left to be packed on demand.
The table sums alone return whole-matrix keys (below).  Decoded rows are
interned per (p, n) when there are at most ``INTERN_ROWS`` distinct rows,
so equal rows share one tuple and the interned table also packs rows by
lookup.  Rank normal forms are packed over F_2 only; they return P and Q
with their packed rows, and the factors built from them
(``matrix.masked``) zero columns with a byte mask and rows with a 0, in
every packed space, so no factor is packed twice.

A space that interns its rows also multiplies by a fixed factor by table
lookup, the "method of the Four Russians" of M4RI.  The key of a matrix
holds row a in slots n a .. n a + n - 1 of one int (``key``): over F_2
that int, over an odd p its n^2 canonical bytes.  A fixed M has n tables
(``RowProducts``), table a mapping a packed row r to r M moved to row a,
filled on first lookup.  The key of X M is then n lookups, one sum and
one reduction (``product_key``), and that of A B + C D two sums and one
reduction (``rule_key``).  The bracket with a fixed A is the same sum over
the tables of -A (``bracket_rows``): [A, x] = sum_i T_i[x_i] with
T_i[r] = [A, E_i(r)], E_i(r) having row i equal to r and zeros elsewhere,
so T_i[r] is r (-A) moved to row i plus A E_i(r) = r times A's column i,
the extra term of a table, 0 in the others.  Entries are unreduced slot
sums, and every key sum is reduced once (``_reduce_key``): over F_2 to
the low bit of each slot, over an odd p through ``translate``.  No slot
carries.  Over F_2 a slot of [A, x] = A x + x A or of A B + C D sums at
most 2 n bits, and an F_2 space that interns its rows has n <= 12.  Over
an odd p a slot of [A, x] = A x + x (-A) is at most n (p-1) (p-1) +
n (p-1) p, the bound of ``mul2`` that ``fits`` imposes, and one of
A B + C D at most 2 n (p-1)^2.  The bracket's result is its key as it
stands (``matrix.Matrix._held``); ``unkey`` decodes rows or packed rows
when they are read.  The tables live as long as their owner: the map
that made them (``matrix.bracket_map``), with at most n p^n entries
(49,152 at F_2, n = 12), or the exhaustive domain (``matrix.RankDomain``).
An entry costs about one row of ``mul2``.
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

    __slots__ = ("p", "n", "ones", "lows", "mod", "intern", "packed")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.ones = int.from_bytes(b"\x01" * n, "little")
        self.mod = bytes(v % p for v in range(256))
        # F_2 rows are interned by their packed int, odd-p rows by their
        # reduced bytes; ``packed`` maps each interned row to its packed int
        self.intern = self.packed = self.lows = None
        if p ** n <= INTERN_ROWS:
            rows = list(itertools.product(range(p), repeat=n))
            self.packed = {r: int.from_bytes(bytes(r), "little") for r in rows}
            key = self.packed.__getitem__ if p == 2 else bytes
            self.intern = {key(r): r for r in rows}
            # the low bit of every slot of a key, to which an F_2 key sum is
            # reduced; only a space that interns its rows makes tables
            self.lows = int.from_bytes(b"\x01" * (n * n), "little")

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
        borrows; over F_2 -M is M.  Only the bracket tables' -A
        (``bracket_rows``) holds such slots; ``mul2``'s d may too."""
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

    # -- whole-matrix keys and fixed-factor tables ----------------------------

    def key(self, packed):
        """The key of the matrix with packed rows ``packed``: over F_2 one int
        of n^2 slots, row a in slots n a .. n a + n - 1; over an odd p those
        n^2 canonical slots as bytes, as ``product_key`` reduces them."""
        n = self.n
        if self.p == 2:
            return sum([r << 8 * n * a for a, r in enumerate(packed)])
        return b"".join([r.to_bytes(n, "little") for r in packed])

    def unkey(self, key, packed=False):
        """The rows of the matrix whose key (``key``) is ``key``, or with
        ``packed`` its packed rows.  Only a space that interns its rows
        makes keys to decode (``product_key``), so the rows are interned."""
        n = self.n
        if self.p == 2:
            mask = (1 << 8 * n) - 1
            rows = [key >> shift & mask for shift in range(0, 8 * n * n, 8 * n)]
            return tuple(rows) if packed else tuple(map(self.intern.__getitem__, rows))
        raw = [key[k:k + n] for k in range(0, n * n, n)]
        if packed:
            return tuple([int.from_bytes(r, "little") for r in raw])
        return tuple(map(self.intern.__getitem__, raw))

    def row_products(self, packed):
        """The tables of the matrix M with canonical packed rows ``packed``,
        empty until looked up: table a maps a packed row r to r M moved to
        row a of a key (``RowProducts``)."""
        n = self.n
        return tuple([RowProducts(self, packed, 8 * n * a) for a in range(n)])

    def bracket_rows(self, a_rows):
        """The tables T_0 .. T_{n-1} of [A, .] for the matrix with rows
        ``a_rows``: the ``RowProducts`` of -A, table i with A's column i as
        its extra term, empty until looked up; or None when A's entries are
        not canonical residues or the space does not intern its rows."""
        if self.intern is None:
            return None
        try:
            a_packed = self.pack(a_rows)
        except UsageError:
            return None
        n = self.n
        # row i of T_i[r] holds -r A, summed from -A's slots in [1, p]
        minus = self.neg(a_packed)
        # A_ki moved from slot n k + i to slot n k, for every k
        a = int.from_bytes(bytes(itertools.chain.from_iterable(a_rows)), "little")
        first = int.from_bytes((b"\xff" + bytes(n - 1)) * n, "little")
        return tuple([RowProducts(self, minus, 8 * n * i, a >> 8 * i & first)
                      for i in range(n)])

    def product_key(self, rows, tables):
        """The key of X M, for X's canonical packed ``rows`` and M's
        ``row_products`` tables, or of [A, x] for x's and A's
        ``bracket_rows``: n lookups, one sum, one reduction."""
        return self._reduce_key(sum(map(dict.__getitem__, tables, rows)))

    def rule_key(self, a_rows, b_tables, c_rows, d_tables):
        """The key of A B + C D, for packed rows of A and C and tables of B
        and D, all canonical: two sums of n lookups, one reduction."""
        ab = sum(map(dict.__getitem__, b_tables, a_rows))
        cd = sum(map(dict.__getitem__, d_tables, c_rows))
        return self._reduce_key(ab + cd)

    def _reduce_key(self, total):
        """The key of a sum of table entries, within the module docstring's
        bounds: over F_2 each slot's low bit, over an odd p each slot mod p."""
        if self.p == 2:
            return total & self.lows
        return total.to_bytes(self.n * self.n, "little").translate(self.mod)

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

    def dependencies2(self, packed):
        """Which F_2 rows ``packed`` depend on the rows before them:
        ``(kept, kernel)``, the places of the independent rows (the pivot
        columns of the transpose) and, for each dependent place f in
        ascending order, the packed vector with 1 at f and at the kept
        places whose rows sum to row f (the transpose's ``mat_nullspace``)."""
        # reduced as in ``rank``, each row carrying the places it sums
        basis = []   # (lowest bit, reduced row, places summed)
        kept, kernel = [], []
        for f, r in enumerate(packed):
            comb = 1 << (8 * f)
            for low, b, c in basis:
                if r & low:
                    r ^= b
                    comb ^= c
            if r:
                basis.append((r & -r, r, comb))
                kept.append(f)
            else:
                kernel.append(comb)
        return kept, kernel

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


class RowProducts(dict):
    """Table a of a fixed M: a canonical packed row r -> r M, the unreduced
    slot sum of the rows of M that r selects, moved to row a of a key by
    ``shift``, plus r ``column``; built on the first lookup of r, so it
    holds at most p^n entries.  ``column`` is 0 but in a bracket table
    (``bracket_rows``), where M is -A and ``column`` holds A_ki in slot
    n k, so that r ``column`` is A E_i(r) with no carry."""

    __slots__ = ("space", "packed", "shift", "column")

    def __init__(self, space, packed, shift, column=0):
        self.space = space
        self.packed = packed
        self.shift = shift
        self.column = column

    def __missing__(self, r):
        sp = self.space
        coeffs = r.to_bytes(sp.n, "little")
        if sp.p == 2:
            # no multiplications: half the cost of a fill at n = 12
            rm = sum(itertools.compress(self.packed, coeffs))
        else:
            rm = sum(map(mul, coeffs, self.packed))
        entry = r * self.column + (rm << self.shift)
        self[r] = entry
        return entry
