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
  is the one of the bracket A x + x (p - A), n (p-1) (2p-1), so a (p, n)
  packs only when that is at most 255: F_3 up to n = 25, F_5 up to n = 7,
  F_7 up to n = 3, F_11 at n = 1.  Every other (p, n) has no packed space,
  and its matrices keep the list kernels.

Arithmetic returns ``(rows, packed)``: the decoded rows as tuples of ints,
and the packed rows, or None where they are left to be packed on demand.
Decoded rows are interned per (p, n) when there are at most
``INTERN_ROWS`` distinct rows, so equal rows share one tuple and the
interned table also packs rows by lookup.  Rank normal forms are packed
over F_2 only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import mul, xor

from .errors import UsageError

__all__ = ["Space", "space"]

SLOT = 255
# q^n bound on the per-(p, n) intern table of decoded rows
INTERN_ROWS = 4096


def fits(p: int, n: int) -> bool:
    """Whether every slot sum of every packed operation stays within a byte."""
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

    # -- decoding -------------------------------------------------------------

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

    def bracket(self, a_rows, a, x_rows, x):
        """[A, x] = A x - x A in one pass, one reduction per output row."""
        compress = itertools.compress
        if self.p == 2:
            packed = tuple([reduce(xor, compress(x, ra), 0)
                             ^ reduce(xor, compress(a, rx), 0)
                             for ra, rx in zip(a_rows, x_rows)])
            return self._bits(packed), packed
        pones = self.p * self.ones
        neg_a = [pones - r for r in a]
        return self._reduce([sum(map(mul, ra, x)) + sum(map(mul, rx, neg_a))
                             for ra, rx in zip(a_rows, x_rows)])

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

    def rnf2(self, packed):
        """Rank normal form over F_2: ``(P, k, Q)`` with P and Q as
        ``(rows, packed)``, equal to ``mat_rnf`` of the list kernels.

        Same pivot rule (first nonzero entry in column order, then row
        order); P is kept by columns and Q by rows, so every row or column
        operation of the elimination is one XOR or swap.
        """
        n = self.n
        m = list(packed)
        p_cols = [1 << (8 * i) for i in range(n)]
        q_rows = list(p_cols)
        r = 0
        while r < n:
            # rows at and below r are zero left of column r, so a row's
            # lowest set bit is its first nonzero column
            best = pi = -1
            for i in range(r, n):
                row = m[i]
                if row:
                    low = (row & -row).bit_length()
                    if best < 0 or low < best:
                        best, pi = low, i
            if pi < 0:
                break
            pj = (best - 1) >> 3
            if pi != r:
                m[r], m[pi] = m[pi], m[r]
                p_cols[r], p_cols[pi] = p_cols[pi], p_cols[r]
            if pj != r:
                swap = (1 << (8 * r)) | (1 << (8 * pj))
                for t in range(n):
                    row = m[t]
                    if (row >> (8 * r) ^ row >> (8 * pj)) & 1:
                        m[t] = row ^ swap
                q_rows[r], q_rows[pj] = q_rows[pj], q_rows[r]
            bit = 1 << (8 * r)
            mr = m[r]
            for i in range(n):
                if i != r and m[i] & bit:
                    m[i] ^= mr
                    p_cols[r] ^= p_cols[i]
            rest = mr ^ bit
            j = 0
            while rest:
                if rest & 1:
                    q_rows[r] ^= q_rows[j]
                rest >>= 8
                j += 1
            m[r] = bit
            r += 1
        p_rows = tuple(zip(*self._bits(p_cols)))
        q_packed = tuple(q_rows)
        return (p_rows, None), r, (self._bits(q_packed), q_packed)
